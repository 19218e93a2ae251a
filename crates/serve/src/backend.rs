//! Inference backends: what the batcher dispatches to.
//!
//! A backend turns a formed batch into per-item verdicts. The shipped
//! backend is [`PoolBackend`]: a [`HardenedPool`] of engine replicas.
//! Batch items fan out across replicas, each carrying its own health
//! events; the *server* owns the degradation ladder. It is deterministic:
//! identical batches produce identical verdicts regardless of pool
//! worker count.

use safex_nn::{
    apply_weight_flips, FaultInjector, HardenedEngine, HardenedPool, HealthEvent, WeightFlip,
};

use crate::error::ServeError;

/// One batch item's result.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchVerdict {
    /// A classification was produced.
    Ok {
        /// Predicted class.
        class: usize,
        /// Winning confidence.
        confidence: f32,
        /// `true` when hardening diagnostics flagged this decision — the
        /// server feeds this into its health ladder. The server also
        /// treats a non-finite `confidence` as flagged.
        flagged: bool,
        /// `true` when a weight fault was detected *and repaired in
        /// place* (ECC sidecar) during this decision. Corrected faults
        /// are warnings, not failures: the server keeps serving and
        /// only degrades when a bounded warning budget is exhausted.
        corrected: bool,
    },
    /// The backend itself demanded a safe stop for this item.
    Stop,
}

/// A batch-serving inference backend.
pub trait Backend {
    /// Stable name for reports.
    fn name(&self) -> &'static str;

    /// Serves one formed batch, one verdict per input, in input order.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] on infrastructure failure (wrong input
    /// shape etc.); the whole batch fails, no partial verdicts.
    fn serve(&mut self, inputs: &[&[f32]]) -> Result<Vec<BatchVerdict>, ServeError>;

    /// Prepares this backend to take over a fleet slot in a hot swap:
    /// re-golden reference checksums, rebuild ECC sidecars, and verify
    /// the weights. An error here aborts the swap with the old backend
    /// untouched. The default accepts unconditionally (backends with no
    /// hardening state need no preparation).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SwapFailed`] when the incoming weights fail
    /// verification.
    fn prepare_swap(&mut self) -> Result<(), ServeError> {
        Ok(())
    }

    /// A stable digest of this backend's verified weights, when it can
    /// produce one. Swaps with an `expected_digest` compare against this
    /// after [`Backend::prepare_swap`]; `None` means the backend cannot
    /// attest its weights and digest-pinned swaps will abort.
    fn swap_digest(&self) -> Option<u64> {
        None
    }

    /// The backend's deterministic work counter (e.g. items dispatched),
    /// captured into snapshots so a restore can resume check scheduling
    /// bit-for-bit. Backends without such a counter report 0.
    fn clock(&self) -> u64 {
        0
    }

    /// Restores the work counter captured by [`Backend::clock`] after a
    /// process restart. The default is a no-op.
    fn resync(&mut self, _clock: u64) {}
}

/// Boxed backends forward, so a heterogeneous fleet can be assembled as
/// `Fleet<Box<dyn Backend>>` when members are of different concrete
/// types.
impl<T: Backend + ?Sized> Backend for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn serve(&mut self, inputs: &[&[f32]]) -> Result<Vec<BatchVerdict>, ServeError> {
        (**self).serve(inputs)
    }

    fn prepare_swap(&mut self) -> Result<(), ServeError> {
        (**self).prepare_swap()
    }

    fn swap_digest(&self) -> Option<u64> {
        (**self).swap_digest()
    }

    fn clock(&self) -> u64 {
        (**self).clock()
    }

    fn resync(&mut self, clock: u64) {
        (**self).resync(clock)
    }
}

/// A [`HardenedPool`]-backed backend: replicated hardened engines with
/// per-item health events.
#[derive(Debug, Clone)]
pub struct PoolBackend {
    pool: HardenedPool,
}

impl PoolBackend {
    /// Builds a pool of `workers` replicas of `engine`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Nn`] when `workers` is zero.
    pub fn new(engine: &HardenedEngine, workers: usize) -> Result<Self, ServeError> {
        Ok(PoolBackend {
            pool: HardenedPool::new(engine, workers)?,
        })
    }

    /// The wrapped pool (counters, worker count).
    pub fn pool(&self) -> &HardenedPool {
        &self.pool
    }

    /// Injects `events` SEU events (each flipping `bits` bits of one
    /// weight) into **every** replica identically: the flips are drawn
    /// once from `seed` on replica 0, then replayed onto the others via
    /// [`apply_weight_flips`]. Replicas must stay byte-identical or
    /// batch output would depend on which replica served which item.
    ///
    /// Returns the flips so a harness can later undo them (weights are
    /// self-inverse under XOR of the same bits) or log them as ground
    /// truth.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Nn`] when the model has no parameters or
    /// `bits` is outside 1..=32.
    pub fn strike_weights(
        &mut self,
        seed: u64,
        events: usize,
        bits: u32,
    ) -> Result<Vec<WeightFlip>, ServeError> {
        let engines = self.pool.engines_mut();
        let mut injector = FaultInjector::new(seed);
        let flips = injector.flip_weight_bits(engines[0].model_mut(), events, bits)?;
        for engine in &mut engines[1..] {
            apply_weight_flips(engine.model_mut(), &flips)?;
        }
        Ok(flips)
    }
}

impl Backend for PoolBackend {
    fn name(&self) -> &'static str {
        "hardened_pool"
    }

    /// Re-goldens every replica on the *current* weights (fresh CRC-32
    /// references plus rebuilt ECC sidecars) and verifies the replicas
    /// agree; the hot-swap verification gate.
    fn prepare_swap(&mut self) -> Result<(), ServeError> {
        self.pool
            .regolden()
            .map_err(|e| ServeError::SwapFailed(e.to_string()))
    }

    /// FNV-1a over replica 0's golden `(layer, crc32)` table. Replicas
    /// are verified identical by `prepare_swap`, so one table attests
    /// the whole pool.
    fn swap_digest(&self) -> Option<u64> {
        let mut fnv = safex_trace::Fnv64::new();
        for &(layer, crc) in self.pool.engines()[0].golden_checksums() {
            fnv.write_u64(layer as u64);
            fnv.write_u64(crc as u64);
        }
        Some(fnv.finish())
    }

    fn clock(&self) -> u64 {
        self.pool.dispatched()
    }

    fn resync(&mut self, clock: u64) {
        self.pool.resync(clock);
    }

    fn serve(&mut self, inputs: &[&[f32]]) -> Result<Vec<BatchVerdict>, ServeError> {
        let out = self.pool.classify_batch(inputs)?;
        Ok(out
            .into_iter()
            .map(|c| {
                let corrected = c
                    .events
                    .iter()
                    .any(|e| matches!(e, HealthEvent::CorrectedFault { .. }));
                // Only *uncorrected* diagnostics flag the decision;
                // repaired faults ride the warning tier instead.
                let flagged = c
                    .events
                    .iter()
                    .any(|e| !matches!(e, HealthEvent::CorrectedFault { .. }));
                BatchVerdict::Ok {
                    class: c.classification.class,
                    confidence: c.classification.confidence,
                    flagged,
                    corrected,
                }
            })
            .collect())
    }
}
