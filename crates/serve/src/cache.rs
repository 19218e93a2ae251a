//! The cross-request result cache: verified answers, indexed by input
//! bits, on the evidence chain.
//!
//! Fleet traffic repeats itself (sensor frames re-sampled, retries,
//! shared telemetry), and every repeated execution re-spends the
//! hardening tax — CRC sweeps, guard checks — to recompute a result the
//! fleet already produced and *verified*. The cache closes that loop
//! under three safety rules:
//!
//! 1. **Only verified results enter.** An entry is inserted only from a
//!    completed decision that was unflagged, uncorrected, and released
//!    at `Nominal` — a result the full diagnostic battery passed.
//! 2. **Index by bits, exact match, evidence digest once per entry.**
//!    Entries are indexed by a fixed, unkeyed hash that folds the
//!    input's bit patterns four `f32`s per multiply. The entry stores
//!    the input itself and a hit requires a bit-exact, NaN-free match,
//!    so an index collision degrades to a miss, never to a wrong answer
//!    (`0.0` and `-0.0` never share an answer, and a NaN input never
//!    hits). The index is not the evidence digest: the byte-serial
//!    [`safex_trace::input_digest`] the evidence names is computed only
//!    on an entry's first hit and memoised in the entry, so misses and
//!    inserts never pay for it.
//! 3. **Hits stay on the evidence chain.** Every hit emits a
//!    [`safex_trace::RecordKind::CacheHit`] record naming the request,
//!    the input digest, and the model that computed the original entry,
//!    so a cached answer is as auditable as a fresh one.
//!
//! Capacity is bounded with deterministic insertion-order (FIFO)
//! eviction, and the index hash takes no per-process seed, so cache
//! state — like everything else in the server — is a pure function of
//! the replayed trace.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use safex_trace::input_digest;

use crate::error::ServeError;
use crate::request::ModelId;
use crate::snapshot::CacheEntrySnapshot;

/// Result-cache knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheConfig {
    /// Whether the cache serves and stores at all. Off by default: the
    /// cache is an optimisation, and a deployment opts in after
    /// reviewing the evidence story above.
    pub enabled: bool,
    /// Maximum entries retained (`>= 1` when enabled); oldest-inserted
    /// evicted first.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            capacity: 1024,
        }
    }
}

impl CacheConfig {
    /// An enabled cache with the given capacity.
    pub fn enabled(capacity: usize) -> Self {
        CacheConfig {
            enabled: true,
            capacity,
        }
    }

    /// Validates the knobs.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for an enabled cache with zero
    /// capacity.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.enabled && self.capacity == 0 {
            return Err(ServeError::BadConfig(
                "an enabled result cache needs capacity >= 1".into(),
            ));
        }
        Ok(())
    }
}

/// One cached, verified classification, as a hit returns it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedResult {
    /// Predicted class.
    pub class: usize,
    /// Winning confidence.
    pub confidence: f32,
    /// The model that computed (and verified) the entry.
    pub model: ModelId,
    /// [`safex_trace::input_digest`] of the entry's input, the digest
    /// its `CacheHit` evidence names. Computed on the entry's first hit
    /// and memoised in the entry; it is not the cache's index key.
    pub digest: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    input: Vec<f32>,
    class: usize,
    confidence: f32,
    model: ModelId,
    /// The evidence digest, once a hit has needed it.
    digest: Option<u64>,
}

/// Constants of the index hash: odd, high-entropy 64-bit words (lane
/// seeds and masks, plus two for the tail and the final mix). Fixed, so
/// the index is the same in every process.
const MIX: [u64; 6] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0xd6e8_feb8_6659_fd93,
    0xa076_1d64_78bd_642f,
    0xe703_7ed1_a0b4_28db,
];

/// The 128-bit product of `a` and `b`, folded to 64 bits.
fn fold_mul(a: u64, b: u64) -> u64 {
    let m = u128::from(a) * u128::from(b);
    (m as u64) ^ ((m >> 64) as u64)
}

/// Two `f32` bit patterns as one word.
fn word(lo: f32, hi: f32) -> u64 {
    u64::from(lo.to_bits()) | (u64::from(hi.to_bits()) << 32)
}

/// The cache's index key: a deterministic, unkeyed hash of `input`'s bit
/// patterns (`0.0` and `-0.0` differ, NaNs by payload), with the length
/// folded in.
///
/// Four independent lanes each fold four `f32`s per 64×64→128-bit
/// multiply, so a 256-float input is 16 dependent steps rather than the
/// 1 032 of the byte-serial evidence digest. It is an index, not a
/// proof: equal keys only nominate an entry, and [`ResultCache::lookup`]
/// still compares the bits.
fn index_key(input: &[f32]) -> u64 {
    // Each lane is seeded with a different constant than the one that
    // masks its second operand, so its first multiply is not symmetric
    // in the two operand words.
    let mut lanes = [MIX[1], MIX[2], MIX[3], MIX[0]];
    let mut blocks = input.chunks_exact(16);
    for block in &mut blocks {
        for (i, (lane, quad)) in lanes.iter_mut().zip(block.chunks_exact(4)).enumerate() {
            *lane = fold_mul(
                word(quad[0], quad[1]) ^ *lane,
                word(quad[2], quad[3]) ^ MIX[i],
            );
        }
    }
    for (i, pair) in blocks.remainder().chunks(2).enumerate() {
        let lane = &mut lanes[i % 4];
        let w = word(pair[0], pair.get(1).copied().unwrap_or(0.0));
        *lane = fold_mul(w ^ *lane, MIX[4]);
    }
    let h = fold_mul(lanes[0] ^ MIX[4], lanes[1] ^ MIX[5]);
    let h = fold_mul(h ^ lanes[2], lanes[3] ^ MIX[4]);
    fold_mul(h ^ input.len() as u64, MIX[5])
}

/// Whether two inputs are the same bits, element for element, with no
/// NaN: the only inputs that may share a verified answer.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() && !x.is_nan())
}

/// Bounded, deterministic, bit-indexed result store.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    entries: BTreeMap<u64, Entry>,
    /// Index keys in insertion order, for FIFO eviction.
    order: VecDeque<u64>,
    capacity: usize,
    enabled: bool,
}

impl ResultCache {
    /// An empty cache per `config`.
    pub fn new(config: CacheConfig) -> Self {
        ResultCache {
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            capacity: config.capacity,
            enabled: config.enabled,
        }
    }

    /// Whether lookups and inserts do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `input` up. An index match whose input bits differ (an index
    /// collision, `0.0` vs `-0.0`, a NaN) is a miss, never a wrong
    /// answer. The first hit on an entry computes and memoises its
    /// evidence digest, hence `&mut self`.
    pub fn lookup(&mut self, input: &[f32]) -> Option<CachedResult> {
        if !self.enabled {
            return None;
        }
        let entry = self.entries.get_mut(&index_key(input))?;
        if !same_bits(&entry.input, input) {
            return None;
        }
        let digest = *entry.digest.get_or_insert_with(|| input_digest(input));
        Some(CachedResult {
            class: entry.class,
            confidence: entry.confidence,
            model: entry.model,
            digest,
        })
    }

    /// Inserts a verified result. First write wins on an index key
    /// already present (whether the same input or a colliding one):
    /// entries are immutable once verified, and a collision must not
    /// overwrite a good entry.
    pub fn insert(&mut self, input: &[f32], class: usize, confidence: f32, model: ModelId) {
        self.insert_keyed(index_key(input), input, class, confidence, model);
    }

    /// [`ResultCache::insert`] under a given index key.
    fn insert_keyed(
        &mut self,
        key: u64,
        input: &[f32],
        class: usize,
        confidence: f32,
        model: ModelId,
    ) {
        if !self.enabled || self.capacity == 0 || self.entries.contains_key(&key) {
            return;
        }
        while self.entries.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
        self.entries.insert(
            key,
            Entry {
                input: input.to_vec(),
                class,
                confidence,
                model,
                digest: None,
            },
        );
        self.order.push_back(key);
    }

    /// Drops every entry computed by `model`, returning how many were
    /// purged. Called when a member's model is hot-swapped or its ladder
    /// reaches SafeStop: entries verified against the *old* weights (or by
    /// a member the ladder no longer trusts) must not serve further hits.
    pub fn purge_model(&mut self, model: ModelId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, entry| entry.model != model);
        self.order.retain(|key| self.entries.contains_key(key));
        before - self.entries.len()
    }

    /// Entries in insertion (eviction) order, as a snapshot stores them.
    pub(crate) fn entries_in_order(&self) -> Vec<CacheEntrySnapshot> {
        self.order
            .iter()
            .filter_map(|key| self.entries.get(key))
            .map(|entry| CacheEntrySnapshot {
                input: entry.input.clone(),
                class: entry.class,
                confidence: entry.confidence,
                model: entry.model,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> ResultCache {
        ResultCache::new(CacheConfig::enabled(capacity))
    }

    fn classes_in_order(c: &ResultCache) -> Vec<usize> {
        c.entries_in_order().iter().map(|e| e.class).collect()
    }

    #[test]
    fn disabled_cache_never_hits_or_stores() {
        let mut c = ResultCache::new(CacheConfig::default());
        assert!(!c.is_enabled());
        c.insert(&[1.0], 2, 0.9, ModelId::new(0));
        assert!(c.is_empty());
        assert!(c.lookup(&[1.0]).is_none());
    }

    #[test]
    fn hit_requires_bit_exact_input() {
        let mut c = cache(8);
        c.insert(&[1.0, 2.0], 3, 0.8, ModelId::new(1));
        let hit = c.lookup(&[1.0, 2.0]).unwrap();
        assert_eq!((hit.class, hit.model), (3, ModelId::new(1)));
        assert!(c.lookup(&[1.0, 2.5]).is_none());
        assert!(c.lookup(&[1.0]).is_none());
        assert!(
            c.lookup(&[1.0, 2.0, 0.0]).is_none(),
            "length is part of the key"
        );
    }

    #[test]
    fn index_collision_is_a_miss_never_a_wrong_answer() {
        let (a, b) = ([1.0_f32, 2.0], [3.0_f32, 4.0]);
        let mut c = cache(8);
        // Force `a` onto the key `b` will look under.
        c.insert_keyed(index_key(&b), &a, 7, 0.9, ModelId::new(0));
        assert!(c.lookup(&b).is_none(), "b must not get a's answer");
        // First write wins: b's own verified result cannot displace a.
        c.insert(&b, 1, 0.5, ModelId::new(1));
        assert!(c.lookup(&b).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(classes_in_order(&c), vec![7]);
    }

    #[test]
    fn signed_zeros_and_nans_never_hit() {
        let mut c = cache(8);
        c.insert(&[0.0, 1.0], 0, 0.5, ModelId::new(0));
        assert!(c.lookup(&[-0.0, 1.0]).is_none());
        assert!(c.lookup(&[0.0, 1.0]).is_some());
        // Even forced onto one key, the sign of zero keeps them apart.
        let mut c = cache(8);
        c.insert_keyed(index_key(&[-0.0]), &[0.0], 0, 0.5, ModelId::new(0));
        assert!(c.lookup(&[-0.0]).is_none());

        let nan = [f32::NAN, 1.0];
        let mut c = cache(8);
        c.insert(&nan, 0, 0.5, ModelId::new(0));
        assert!(
            c.lookup(&nan).is_none(),
            "a NaN input never hits, same bits or not"
        );
    }

    #[test]
    fn evidence_digest_is_the_input_digest_on_every_hit() {
        let input = [0.25_f32, -1.5, 3.0];
        let mut c = cache(8);
        c.insert(&input, 2, 0.7, ModelId::new(0));
        assert_eq!(
            c.entries.values().next().unwrap().digest,
            None,
            "not on insert"
        );
        let first = c.lookup(&input).unwrap();
        assert_eq!(first.digest, input_digest(&input));
        assert_eq!(
            c.lookup(&input).unwrap(),
            first,
            "later hits reuse the memo"
        );

        // Restored the way `Server::restore` does: re-inserted in order.
        let mut restored = cache(8);
        for e in c.entries_in_order() {
            restored.insert(&e.input, e.class, e.confidence, e.model);
        }
        for _ in 0..2 {
            assert_eq!(restored.lookup(&input).unwrap(), first);
        }
    }

    #[test]
    fn first_write_wins_and_eviction_is_fifo() {
        let mut c = cache(2);
        c.insert(&[1.0], 0, 0.5, ModelId::new(0));
        c.insert(&[1.0], 9, 0.9, ModelId::new(1));
        assert_eq!(c.lookup(&[1.0]).unwrap().class, 0, "first write wins");
        c.insert(&[2.0], 1, 0.5, ModelId::new(0));
        c.insert(&[3.0], 2, 0.5, ModelId::new(0));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&[1.0]).is_none(), "oldest entry evicted first");
        assert!(c.lookup(&[2.0]).is_some());
        assert!(c.lookup(&[3.0]).is_some());
        // A hit does not refresh an entry: eviction stays insertion order.
        c.insert(&[4.0], 3, 0.5, ModelId::new(0));
        assert_eq!(classes_in_order(&c), vec![2, 3]);
    }

    #[test]
    fn purge_model_removes_only_that_members_entries() {
        let mut c = cache(8);
        c.insert(&[1.0], 0, 0.5, ModelId::new(0));
        c.insert(&[2.0], 1, 0.5, ModelId::new(1));
        c.insert(&[3.0], 2, 0.5, ModelId::new(0));
        c.insert(&[4.0], 3, 0.5, ModelId::new(1));
        assert_eq!(c.purge_model(ModelId::new(0)), 2);
        assert!(c.lookup(&[1.0]).is_none());
        assert!(c.lookup(&[3.0]).is_none());
        assert_eq!(c.lookup(&[2.0]).unwrap().class, 1);
        // Insertion order stays consistent after a purge.
        assert_eq!(classes_in_order(&c), vec![1, 3]);
        assert_eq!(c.purge_model(ModelId::new(0)), 0);
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::default().validate().is_ok());
        assert!(CacheConfig::enabled(16).validate().is_ok());
        assert!(CacheConfig::enabled(0).validate().is_err());
    }
}
