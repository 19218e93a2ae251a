//! Differential oracles: the same input replayed through pinned pairs
//! of implementations that *promise* identical answers.
//!
//! Fuzzing a single implementation needs an explicit invariant; two
//! implementations of the same contract come with a free one —
//! agreement. Four pairs are pinned here, each an equivalence the
//! workspace already claims elsewhere (golden digests, bench sweeps):
//!
//! 1. [`CrcStrategy::Full`] vs [`CrcStrategy::Fused`] — the alias must
//!    stay bit-identical to the strategy it names.
//! 2. A [`CrcStrategy::Rotating`] [`HardenedPool`] at worker counts
//!    {1, 2, 4, 8} — results (outputs *and* health events) must not
//!    depend on scheduling.
//! 3. Detect-only vs ECC-repaired engines on clean weights — the repair
//!    sidecar must be output-invisible until a fault actually fires.
//! 4. f32 vs Q16.16 engines — the class decision must agree wherever
//!    the f32 top-1/top-2 margin clears a quantization guard band.
//!
//! A fifth pair, [`diff_batch_vs_sequential`], runs on its own (outside
//! [`fuzz_diff`], whose case count and digest stay fixed): the
//! batch-major [`HardenedPool`] path against a sequential
//! [`HardenedEngine::classify_indexed`] loop under random hardening
//! configs, fault plans, batch splits and weight strikes.

use safex_nn::{
    ActivationFault, CheckedClassification, CrcStrategy, EccConfig, Engine, FaultInjector,
    FaultPlan, HardenConfig, HardenedEngine, HardenedPool, InputFault, QEngine, QModel,
};
use safex_tensor::{DetRng, Q16_16};

use crate::gen;

/// One divergence between a pinned pair.
#[derive(Debug, Clone)]
pub struct DiffFinding {
    /// Which oracle pair diverged.
    pub oracle: String,
    /// Model/input seed that reproduces it.
    pub seed: u64,
    /// Input index within the batch.
    pub case: usize,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

fn engine_with(
    strategy: CrcStrategy,
    cadence: u64,
    repair: bool,
    seed: u64,
) -> (HardenedEngine, Vec<Vec<f32>>) {
    let (model, inputs) = gen::small_model(seed);
    let config = HardenConfig {
        crc_cadence: cadence,
        crc_strategy: strategy,
        repair: repair.then(EccConfig::default),
        ..HardenConfig::default()
    };
    let mut engine = HardenedEngine::new(model, config).expect("engine");
    engine.calibrate(&inputs).expect("calibrate");
    (engine, inputs)
}

fn fuzz_inputs(seed: u64, n: usize, dim: usize) -> Vec<Vec<f32>> {
    let mut rng = DetRng::new(seed ^ 0x5EED_1E55);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.next_f32() * 4.0 - 2.0).collect())
        .collect()
}

/// Full vs Fused CRC strategies, bit-identical outputs.
pub fn diff_full_vs_fused(seed: u64, cases: usize) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (mut full, _) = engine_with(CrcStrategy::Full, 1, false, seed);
    let (mut fused, _) = engine_with(CrcStrategy::Fused, 1, false, seed);
    for (i, input) in fuzz_inputs(seed, cases, 6).iter().enumerate() {
        let a = full.classify_indexed(i as u64, input).expect("full");
        let b = fused.classify_indexed(i as u64, input).expect("fused");
        if a != b {
            findings.push(DiffFinding {
                oracle: "full-vs-fused".into(),
                seed,
                case: i,
                detail: format!("Full {a:?} != Fused {b:?}"),
            });
        }
    }
    (cases as u64, findings)
}

/// Rotating-CRC pool at worker counts {1, 2, 4, 8}: the batch report
/// must be independent of the worker count.
pub fn diff_pool_workers(seed: u64, cases: usize) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (engine, _) = engine_with(CrcStrategy::Rotating, 2, false, seed);
    let inputs = fuzz_inputs(seed, cases, 6);
    let reference = HardenedPool::new(&engine, 1)
        .expect("pool")
        .classify_batch(&inputs)
        .expect("batch");
    for workers in [2usize, 4, 8] {
        let got = HardenedPool::new(&engine, workers)
            .expect("pool")
            .classify_batch(&inputs)
            .expect("batch");
        for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
            if a.classification != b.classification || a.events != b.events {
                findings.push(DiffFinding {
                    oracle: "pool-workers".into(),
                    seed,
                    case: i,
                    detail: format!(
                        "1 worker {:?} != {workers} workers {:?}",
                        a.classification, b.classification
                    ),
                });
            }
        }
    }
    (cases as u64 * 3, findings)
}

/// Detect-only vs ECC-repaired engines on clean weights.
pub fn diff_plain_vs_repaired(seed: u64, cases: usize) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (mut plain, _) = engine_with(CrcStrategy::Full, 1, false, seed);
    let (mut repaired, _) = engine_with(CrcStrategy::Full, 1, true, seed);
    for (i, input) in fuzz_inputs(seed, cases, 6).iter().enumerate() {
        let a = plain.classify_indexed(i as u64, input).expect("plain");
        let b = repaired
            .classify_indexed(i as u64, input)
            .expect("repaired");
        if a != b {
            findings.push(DiffFinding {
                oracle: "plain-vs-ecc".into(),
                seed,
                case: i,
                detail: format!("plain {a:?} != ECC-repaired {b:?}"),
            });
        }
    }
    (cases as u64, findings)
}

/// f32 vs Q16.16 engines: agreement on the class whenever the f32
/// top-1/top-2 margin exceeds `guard` (softmax units).
pub fn diff_f32_vs_q16(seed: u64, cases: usize, guard: f32) -> (u64, Vec<DiffFinding>) {
    let mut findings = Vec::new();
    let (model, _) = gen::small_model(seed);
    let qmodel = QModel::quantize(&model).expect("quantize");
    let mut f32_engine = Engine::new(model);
    let mut q_engine = QEngine::new(qmodel);
    let mut counted = 0u64;
    for (i, input) in fuzz_inputs(seed, cases, 6).iter().enumerate() {
        let out = f32_engine.infer(input).expect("f32 infer").to_vec();
        let mut idx: Vec<usize> = (0..out.len()).collect();
        idx.sort_by(|&a, &b| out[b].partial_cmp(&out[a]).expect("finite softmax"));
        let margin = out[idx[0]] - out[idx[1]];
        if margin <= guard {
            continue; // genuinely ambiguous; quantization may flip it
        }
        counted += 1;
        let q_input: Vec<Q16_16> = input.iter().map(|&v| Q16_16::from_f32(v)).collect();
        let q = q_engine.classify(&q_input).expect("q16 classify");
        if q.class != idx[0] {
            findings.push(DiffFinding {
                oracle: "f32-vs-q16".into(),
                seed,
                case: i,
                detail: format!(
                    "f32 class {} (margin {margin:.3}) != Q16.16 class {}",
                    idx[0], q.class
                ),
            });
        }
    }
    (counted, findings)
}

/// Batch-major [`HardenedPool::classify_batch`] vs a sequential
/// [`HardenedEngine::classify_indexed`] loop, item by item
/// (classification, events, injections). `seed` draws the CRC strategy,
/// cadence (1–4), repair on/off, an optional input + activation fault
/// plan, the worker count (1–3), the batch splits (1–20 items) and a
/// schedule of 1- or 2-bit weight strikes landing between batches.
pub fn diff_batch_vs_sequential(seed: u64, cases: usize) -> (u64, Vec<DiffFinding>) {
    let mut rng = DetRng::new(seed ^ 0xBA7C_4ED5);
    let strategy =
        [CrcStrategy::Full, CrcStrategy::Rotating, CrcStrategy::Fused][rng.below_usize(3)];
    let cadence = 1 + rng.below(4);
    let repair = rng.chance(0.5);
    let (mut engine, _) = engine_with(strategy, cadence, repair, seed);
    if rng.chance(0.5) {
        let plan = FaultPlan {
            seed: rng.next_u64(),
            input: Some(InputFault::Noise {
                sigma: rng.range_f64(0.1, 3.0),
                p: rng.next_f64(),
            }),
            activation: Some(ActivationFault {
                p: rng.next_f64() * 0.5,
                bits: 1 + rng.below(3) as u32,
            }),
        };
        engine.set_plan(plan).expect("valid plan");
    }
    let workers = 1 + rng.below_usize(3);
    let inputs = fuzz_inputs(seed, cases, 6);
    // (batch length, strike before it: injector seed and bits per flip).
    let mut schedule = Vec::new();
    let mut left = cases;
    while left > 0 {
        let len = (1 + rng.below_usize(20)).min(left);
        let strike = rng
            .chance(0.25)
            .then(|| (rng.next_u64(), 1 + rng.below(2) as u32));
        schedule.push((len, strike));
        left -= len;
    }
    let strike = |engine: &mut HardenedEngine, (seed, bits): (u64, u32)| {
        FaultInjector::new(seed)
            .flip_weight_bits(engine.model_mut(), 1, bits)
            .expect("model has parameters");
    };

    let mut seq = engine.clone();
    let mut expected = Vec::with_capacity(cases);
    let mut pool = HardenedPool::new(&engine, workers).expect("pool");
    let mut got = Vec::with_capacity(cases);
    let mut at = 0;
    for &(len, hit) in &schedule {
        if let Some(hit) = hit {
            strike(&mut seq, hit);
            pool.engines_mut().iter_mut().for_each(|e| strike(e, hit));
        }
        for (k, input) in inputs[at..at + len].iter().enumerate() {
            let classification = seq
                .classify_indexed((at + k) as u64, input)
                .expect("sequential");
            expected.push(CheckedClassification {
                classification,
                events: seq.last_events().to_vec(),
                injections: seq.last_injections().to_vec(),
            });
        }
        got.extend(pool.classify_batch(&inputs[at..at + len]).expect("batch"));
        at += len;
    }
    let findings = expected
        .iter()
        .zip(&got)
        .enumerate()
        .filter(|(_, (e, g))| e != g)
        .map(|(case, (e, g))| DiffFinding {
            oracle: "batch-vs-sequential".into(),
            seed,
            case,
            detail: format!(
                "{strategy:?} cadence {cadence} repair {repair} {workers} workers: \
                 sequential {e:?} != batch {g:?}"
            ),
        })
        .collect();
    (cases as u64, findings)
}

/// Runs all four oracles across `rounds` model seeds; returns
/// `(cases, findings)`.
pub fn fuzz_diff(seed: u64, rounds: u64, cases_per_round: usize) -> (u64, Vec<DiffFinding>) {
    let mut total = 0u64;
    let mut findings = Vec::new();
    for r in 0..rounds {
        let s = seed.wrapping_add(r.wrapping_mul(0x2545_F491_4F6C_DD1D));
        for (cases, found) in [
            diff_full_vs_fused(s, cases_per_round),
            diff_pool_workers(s, cases_per_round),
            diff_plain_vs_repaired(s, cases_per_round),
            diff_f32_vs_q16(s, cases_per_round, 0.05),
        ] {
            total += cases;
            findings.extend(found);
        }
    }
    (total, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_path_agrees_with_sequential_loop() {
        let mut total = 0;
        for seed in 0..48u64 {
            let (cases, findings) = diff_batch_vs_sequential(seed, 40);
            total += cases;
            assert!(findings.is_empty(), "{findings:?}");
        }
        assert_eq!(total, 48 * 40);
    }

    #[test]
    fn pinned_pairs_agree() {
        let (cases, findings) = fuzz_diff(7, 2, 12);
        assert!(cases >= 2 * 3 * 12, "cases: {cases}");
        assert!(findings.is_empty(), "{findings:?}");
    }
}
