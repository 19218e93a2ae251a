//! The parity cross-check of the weight pre-pass: a corruption that
//! leaves a layer's CRC-32 unchanged but changes its XOR parity must be
//! reported by every CRC strategy with repair enabled — `Full`,
//! `Rotating` and `Fused`, f32 and Q16.16 — as a `ChecksumMismatch` on
//! that slot's next scheduled check, and no repair may touch the weights.

use safex_nn::layer::Layer;
use safex_nn::model::ModelBuilder;
use safex_nn::quant::QLayer;
use safex_nn::{
    crc32_words, CrcStrategy, EccConfig, HardenConfig, HardenedEngine, HardenedQEngine,
    HealthEvent, Model, QModel,
};
use safex_tensor::{DetRng, Shape, Q16_16};

const STRATEGIES: [CrcStrategy; 3] = [CrcStrategy::Full, CrcStrategy::Rotating, CrcStrategy::Fused];

fn model() -> Model {
    let mut rng = DetRng::new(0x9A41);
    ModelBuilder::new(Shape::vector(4))
        .dense(12, &mut rng)
        .unwrap()
        .relu()
        .dense(8, &mut rng)
        .unwrap()
        .relu()
        .dense(3, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap()
}

/// The index of golden slot `slot`'s next scheduled check at or after
/// decision `from` (cadence 1: every decision checks every slot, or the
/// rotation's one slot).
fn due(strategy: CrcStrategy, slot: usize, slots: usize, from: u64) -> u64 {
    match strategy {
        CrcStrategy::Rotating => (from..).find(|i| *i as usize % slots == slot).unwrap(),
        _ => from,
    }
}

fn config(crc_strategy: CrcStrategy) -> HardenConfig {
    HardenConfig {
        crc_strategy,
        repair: Some(EccConfig::default()),
        ..HardenConfig::default()
    }
}

/// XOR masks `(m0, m1)` for words `at` and `at + 1` of `words` that leave
/// `crc32_words` unchanged but change the XOR parity (`m0 != m1`).
///
/// Over words of a fixed length the CRC is affine in GF(2), so the CRC
/// change of a multi-bit error is the XOR of its single-bit changes
/// (syndromes). Gaussian elimination over the syndromes of the low 23
/// bits of both words finds the combinations that sum to zero; only
/// mantissa bits move, so f32 weights stay finite.
fn crc_preserving_pair(words: &[u32], at: usize) -> (u32, u32) {
    let base = crc32_words(words.iter().copied());
    let syndrome = |bit: usize| {
        let mut w = words.to_vec();
        w[at + bit / 32] ^= 1 << (bit % 32);
        crc32_words(w) ^ base
    };
    // pivots[k]: a reduced (syndrome, error) pair whose syndrome's top bit is k.
    let mut pivots: [Option<(u32, u64)>; 32] = [None; 32];
    for bit in (0..23).chain(32..55) {
        let (mut s, mut e) = (syndrome(bit), 1u64 << bit);
        while s != 0 {
            let top = 31 - s.leading_zeros() as usize;
            match pivots[top] {
                Some((ps, pe)) => (s, e) = (s ^ ps, e ^ pe),
                None => {
                    pivots[top] = Some((s, e));
                    break;
                }
            }
        }
        let (m0, m1) = (e as u32, (e >> 32) as u32);
        if s == 0 && m0 != m1 {
            let mut corrupt = words.to_vec();
            corrupt[at] ^= m0;
            corrupt[at + 1] ^= m1;
            assert_eq!(crc32_words(corrupt), base, "the CRC must not move");
            return (m0, m1);
        }
    }
    panic!("no CRC-preserving two-word corruption changes the parity");
}

/// The one event the slot's next scheduled check must raise: the golden
/// CRC still matches (`actual == expected`), the parity does not.
fn assert_parity_mismatch(events: &[HealthEvent], layer: usize, golden: u32, bound: u64) {
    assert!(
        matches!(
            events,
            [HealthEvent::ChecksumMismatch { layer: l, expected, actual, staleness }]
                if *l == layer && *expected == golden && *actual == golden && *staleness == bound
        ),
        "events: {events:?}"
    );
}

fn f32_bits(model: &Model, layer: usize) -> Vec<u32> {
    let Layer::Dense(d) = &model.layers()[layer] else {
        panic!("layer {layer} is dense");
    };
    d.weights()
        .iter()
        .chain(d.bias())
        .map(|v| v.to_bits())
        .collect()
}

#[test]
fn every_strategy_reports_a_crc_preserving_f32_corruption() {
    let input = [0.1, -0.2, 0.3, -0.4];
    for strategy in STRATEGIES {
        let mut engine = HardenedEngine::new(model(), config(strategy)).unwrap();
        let (layer, golden) = engine.golden_checksums()[1];
        let bound = engine.staleness_bound().unwrap();
        // A clean decision first, so the strike lands mid-rotation.
        engine.infer(&input).unwrap();
        assert!(engine.last_events().is_empty());

        let (m0, m1) = crc_preserving_pair(&f32_bits(engine.model(), layer), 0);
        let Layer::Dense(d) = &mut engine.model_mut().layers_mut()[layer] else {
            unreachable!()
        };
        let w = d.weights_mut();
        w[0] = f32::from_bits(w[0].to_bits() ^ m0);
        w[1] = f32::from_bits(w[1].to_bits() ^ m1);
        let corrupt = f32_bits(engine.model(), layer);

        let mut batch = engine.clone();
        let first = batch.decision_count();
        let inputs = vec![input; bound as usize];
        let batched = batch.classify_batch_indexed(first, &inputs).unwrap();
        let slots = engine.golden_checksums().len();
        let mut reported = false;
        for from_batch in &batched {
            let index = engine.decision_count();
            engine.infer(&input).unwrap();
            assert_eq!(
                engine.last_events(),
                from_batch.events,
                "{strategy:?}: the batch path checks like the per-item path"
            );
            if !engine.last_events().is_empty() {
                assert_parity_mismatch(engine.last_events(), layer, golden, bound);
                assert_eq!(index, due(strategy, 1, slots, first), "{strategy:?}");
                reported = true;
                break;
            }
        }
        assert!(
            reported,
            "{strategy:?}: the parity mismatch went unreported"
        );
        assert_eq!(
            f32_bits(engine.model(), layer),
            corrupt,
            "{strategy:?}: no repair may write"
        );
    }
}

fn q_bits(model: &QModel, layer: usize) -> Vec<u32> {
    match &model.layers()[layer] {
        QLayer::Dense { weights, bias, .. } => weights
            .iter()
            .chain(bias)
            .map(|q| q.to_bits() as u32)
            .collect(),
        other => panic!("layer {layer} is not dense: {other:?}"),
    }
}

#[test]
fn every_strategy_reports_a_crc_preserving_q16_corruption() {
    let input: Vec<Q16_16> = [0.1, -0.2, 0.3, -0.4]
        .iter()
        .map(|&v| Q16_16::from_f32(v))
        .collect();
    let qmodel = QModel::quantize(&model()).unwrap();
    for strategy in STRATEGIES {
        let mut engine = HardenedQEngine::new(qmodel.clone(), config(strategy)).unwrap();
        let (layer, golden) = engine.golden_checksums()[1];
        let bound = engine.staleness_bound().unwrap();
        engine.infer(&input).unwrap();
        assert!(engine.last_events().is_empty());

        let (m0, m1) = crc_preserving_pair(&q_bits(engine.model(), layer), 0);
        let QLayer::Dense { weights, .. } = &mut engine.model_mut().layers_mut()[layer] else {
            unreachable!()
        };
        weights[0] = Q16_16::from_bits((weights[0].to_bits() as u32 ^ m0) as i32);
        weights[1] = Q16_16::from_bits((weights[1].to_bits() as u32 ^ m1) as i32);
        let corrupt = q_bits(engine.model(), layer);

        let slots = engine.golden_checksums().len();
        let first = engine.decision_count();
        let mut reported = false;
        for _ in 0..bound {
            let index = engine.decision_count();
            engine.infer(&input).unwrap();
            if !engine.last_events().is_empty() {
                assert_parity_mismatch(engine.last_events(), layer, golden, bound);
                assert_eq!(index, due(strategy, 1, slots, first), "{strategy:?}");
                reported = true;
                break;
            }
        }
        assert!(
            reported,
            "{strategy:?}: the parity mismatch went unreported"
        );
        assert_eq!(
            q_bits(engine.model(), layer),
            corrupt,
            "{strategy:?}: no repair may write"
        );
    }
}
