//! Layer replay: the batches a traced run served, fed again through the
//! public `safex-nn` and `safex-tensor` entry points one layer at a time.
//!
//! Operation counts and bytes moved are *computed* from the layer shapes
//! (one pass, f32 words), not measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use safex_nn::layer::Layer;
use safex_nn::{
    layer_checksum, CrcStrategy, EccCode, EccConfig, Engine, HardenConfig, HardenedEngine,
    HardenedPool, Model,
};
use safex_tensor::ops;

/// Replicas of the pool the recorded batches are fanned out over.
const POOL_WORKERS: usize = 2;

/// One named metric with its unit.
pub type Metric = (String, f64, &'static str);

fn ns_per(took: Duration, n: usize) -> f64 {
    took.as_nanos() as f64 / n.max(1) as f64
}

/// Median of `reps` timings of `f`, each divided by `per`.
fn median_ns(reps: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            ns_per(start.elapsed(), per)
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn kernel_name(layer: &Layer) -> Option<&'static str> {
    match layer {
        Layer::Dense(_) => Some("dense_into"),
        Layer::Conv2d(_) => Some("conv2d_into"),
        Layer::Relu => Some("relu_into"),
        Layer::MaxPool2d { .. } => Some("maxpool2d_into"),
        Layer::Softmax => Some("softmax_into"),
        _ => None,
    }
}

/// `(operations, bytes)` of one call, from the layer's shapes.
fn work(layer: &Layer, in_len: usize, out_len: usize) -> (f64, f64) {
    let (i, o) = (in_len as f64, out_len as f64);
    match layer {
        Layer::Dense(d) => {
            let params = (d.weights().len() + d.bias().len()) as f64;
            (2.0 * d.weights().len() as f64 + o, 4.0 * (params + i + o))
        }
        Layer::Conv2d(c) => {
            let k = c.kernel() as f64;
            let params = (c.weights().len() + c.bias().len()) as f64;
            (
                2.0 * o * c.in_channels() as f64 * k * k + o,
                4.0 * (params + i + o),
            )
        }
        Layer::MaxPool2d { pool, .. } => (o * (*pool * *pool) as f64, 4.0 * (i + o)),
        // max, subtract, exp, sum, divide per element.
        Layer::Softmax => (5.0 * i, 4.0 * (i + o)),
        _ => (i, 4.0 * (i + o)),
    }
}

fn run(layer: &Layer, x: &[f32], out: &mut [f32], dims: &[usize]) {
    match layer {
        Layer::Dense(d) => {
            ops::dense_into(d.weights(), d.bias(), x, out, d.inputs(), d.outputs()).expect("dense")
        }
        Layer::Conv2d(c) => ops::conv2d_into(
            x,
            c.weights(),
            c.bias(),
            out,
            dims[0],
            dims[1],
            dims[2],
            c.out_channels(),
            c.kernel(),
            c.kernel(),
            c.stride(),
            c.padding(),
        )
        .expect("conv2d"),
        Layer::MaxPool2d { pool, stride } => {
            ops::maxpool2d_into(x, out, dims[0], dims[1], dims[2], *pool, *stride)
                .expect("maxpool2d")
        }
        Layer::Relu => ops::relu_into(x, out).expect("relu"),
        Layer::Softmax => ops::softmax_into(x, out).expect("softmax"),
        _ => out.copy_from_slice(x),
    }
}

/// Per-layer kernel time, operations and bytes for `model` over `items`,
/// named `<prefix>.l<i>.<kernel>_{ns,flops,bytes}`. Returns the metrics
/// and the summed kernel time of one item.
pub fn kernels(prefix: &str, model: &Model, items: &[Vec<f32>], reps: usize) -> (Vec<Metric>, f64) {
    let mut metrics = Vec::new();
    let mut per_item = 0.0;
    let mut acts: Vec<Vec<f32>> = items.to_vec();
    let mut shape = model.input_shape();
    for (i, layer) in model.layers().iter().enumerate() {
        let out_shape = model.layer_output_shape(i).expect("layer in range");
        let mut outs = vec![vec![0.0f32; out_shape.len()]; acts.len()];
        let ns = median_ns(reps, acts.len(), || {
            for (x, out) in acts.iter().zip(outs.iter_mut()) {
                run(layer, black_box(x), out, shape.dims());
            }
            black_box(&outs);
        });
        if let Some(kernel) = kernel_name(layer) {
            let (flops, bytes) = work(layer, shape.len(), out_shape.len());
            let base = format!("{prefix}.l{i}.{kernel}");
            metrics.push((format!("{base}_ns"), ns, "ns"));
            metrics.push((format!("{base}_flops"), flops, "flop"));
            metrics.push((format!("{base}_bytes"), bytes, "B"));
            per_item += ns;
        }
        acts = outs;
        shape = out_shape;
    }
    (metrics, per_item)
}

/// `crc.ns_per_layer` and `ecc.check_ns`: one parametric layer's CRC-32
/// digest and ECC check, averaged over the model's parametric layers.
pub fn digests(model: &Model, reps: usize) -> (f64, f64, usize) {
    let layers: Vec<&Layer> = model
        .layers()
        .iter()
        .filter(|l| layer_checksum(l).is_some())
        .collect();
    let crc = median_ns(reps, layers.len(), || {
        for layer in &layers {
            black_box(layer_checksum(black_box(layer)));
        }
    });
    let words: Vec<Vec<u32>> = layers
        .iter()
        .map(|layer| {
            let (w, b) = match layer {
                Layer::Dense(d) => (d.weights(), d.bias()),
                Layer::Conv2d(c) => (c.weights(), c.bias()),
                _ => unreachable!("filtered to parametric layers"),
            };
            w.iter().chain(b).map(|x| x.to_bits()).collect()
        })
        .collect();
    let codes: Vec<EccCode> = words
        .iter()
        .map(|w| EccCode::encode(w, EccConfig::default()).expect("ecc encode"))
        .collect();
    let ecc = median_ns(reps, layers.len(), || {
        for (code, w) in codes.iter().zip(&words) {
            assert!(code.check(black_box(w)), "clean weights pass the ECC check");
        }
    });
    (crc, ecc, layers.len())
}

fn hardened(model: &Model, config: HardenConfig, calibration: &[Vec<f32>]) -> HardenedEngine {
    let mut engine = HardenedEngine::new(model.clone(), config).expect("harden");
    engine.calibrate(calibration).expect("calibrate");
    engine
}

/// Per-item cost of the bare engine and of each hardening configuration,
/// plus the pool fan-out over the recorded batches under the workload's
/// own configuration, against one engine under that configuration.
pub fn hardening(
    model: &Model,
    workload: HardenConfig,
    calibration: &[Vec<f32>],
    batches: &[Vec<Vec<f32>>],
    reps: usize,
) -> Vec<Metric> {
    let items: Vec<&Vec<f32>> = batches.iter().flatten().collect();
    let n = items.len();
    let mut bare = Engine::new(model.clone());
    let bare_ns = median_ns(reps, n, || {
        for x in &items {
            black_box(bare.classify(x).expect("classify"));
        }
    });
    let mut metrics = vec![("engine.bare_ns".to_string(), bare_ns, "ns")];
    let configs = [
        ("harden.full_ns", CrcStrategy::Full, None),
        ("harden.fused_ns", CrcStrategy::Fused, None),
        ("harden.rotating_ns", CrcStrategy::Rotating, None),
        (
            "harden.repair_ns",
            CrcStrategy::Fused,
            Some(EccConfig::default()),
        ),
    ];
    for (name, crc_strategy, repair) in configs {
        let config = HardenConfig {
            crc_strategy,
            repair,
            ..HardenConfig::default()
        };
        let mut engine = hardened(model, config, calibration);
        let ns = median_ns(reps, n, || {
            for x in &items {
                black_box(engine.classify(x).expect("classify"));
            }
        });
        metrics.push((name.to_string(), ns, "ns"));
    }
    let engine = hardened(model, workload, calibration);
    let mut single = engine.clone();
    let single_ns = median_ns(reps, n, || {
        for x in &items {
            black_box(single.classify(x).expect("classify"));
        }
    });
    let mut pool = HardenedPool::new(&engine, POOL_WORKERS).expect("pool");
    let pool_ns = median_ns(reps, n, || {
        for batch in batches {
            black_box(pool.classify_batch(batch).expect("pool batch"));
        }
    });
    metrics.push(("pool.ns_per_item".to_string(), pool_ns, "ns"));
    metrics.push(("pool.speedup".to_string(), single_ns / pool_ns, "ratio"));
    metrics
}
