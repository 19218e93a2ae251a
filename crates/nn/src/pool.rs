//! Deterministic parallel batch inference.
//!
//! [`EnginePool`] (and its fixed-point twin [`QEnginePool`]) owns N
//! per-worker engine replicas, each with its own pre-allocated activation
//! buffers, and fans a batch out across `std::thread::scope` workers.
//!
//! **Determinism argument.** Results are bit-exact for every worker count
//! because nothing about the computation depends on the partitioning:
//!
//! * the batch is split *statically* into contiguous chunks — no work
//!   stealing, no scheduling-dependent assignment;
//! * each input is processed by exactly one engine replica whose kernels
//!   ([`safex_tensor::ops`]) fix the accumulation order and width, so an
//!   input's output is a pure function of (model, input) — never of which
//!   replica ran it or what ran before it;
//! * per-worker outputs are stitched back in chunk order, so the batch
//!   output order equals the input order.
//!
//! `infer_batch` with 8 workers therefore returns byte-identical results
//! to `infer_batch` with 1 worker, which equals a sequential
//! [`Engine::infer`] loop. `tests/determinism.rs` asserts this over a
//! {1, 2, 4, 8} × {f32, Q16.16} matrix, preserving the experiment E5
//! guarantee under parallelism.

use safex_tensor::fixed::Q16_16;

use crate::engine::{Classification, Engine};
use crate::error::NnError;
use crate::model::Model;
use crate::quant::{QEngine, QModel};

/// Splits `n` items into `workers` contiguous chunk lengths that differ by
/// at most one (earlier chunks take the remainder).
///
/// The one static partitioning of the workspace: the engine pools here,
/// the fault campaigns (`safex-core`) and the scenario falsifier
/// (`safex-falsify`) all split with it. As long as each item's seed is
/// fixed *before* partitioning, the chunk layout cannot influence any RNG
/// stream, and results stitched in chunk order are byte-identical for any
/// worker count.
pub fn chunk_lens(n: usize, workers: usize) -> Vec<usize> {
    let base = n / workers;
    let rem = n % workers;
    (0..workers)
        .map(|i| base + usize::from(i < rem))
        .filter(|&len| len > 0)
        .collect()
}

/// Runs `per_input` over a statically-partitioned batch on scoped threads.
///
/// Generic over the engine type so the float and fixed-point pools share
/// one partitioning/stitching implementation (and thus one determinism
/// argument).
pub(crate) fn run_partitioned<'a, W, I, O, F>(
    workers: &mut [W],
    inputs: &'a [I],
    per_input: F,
) -> Result<Vec<O>, NnError>
where
    W: Send,
    I: Sync,
    O: Send,
    F: Fn(&mut W, &'a I) -> Result<O, NnError> + Send + Sync + Copy,
{
    let used = workers.len().min(inputs.len());
    if used <= 1 {
        // Small batches and single-worker pools run inline: same results,
        // no thread-spawn cost.
        let worker = &mut workers[0];
        return inputs.iter().map(|x| per_input(worker, x)).collect();
    }
    let lens = chunk_lens(inputs.len(), used);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lens.len());
        let mut rest = inputs;
        for (worker, &len) in workers.iter_mut().zip(&lens) {
            let (chunk, tail) = rest.split_at(len);
            rest = tail;
            handles.push(scope.spawn(move || {
                chunk
                    .iter()
                    .map(|x| per_input(worker, x))
                    .collect::<Result<Vec<O>, NnError>>()
            }));
        }
        let mut out = Vec::with_capacity(inputs.len());
        for handle in handles {
            match handle.join() {
                Ok(Ok(chunk_out)) => out.extend(chunk_out),
                Ok(Err(e)) => return Err(e),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok(out)
    })
}

/// [`run_partitioned`]'s chunk-granular sibling: `per_chunk` receives a
/// worker's whole contiguous chunk at once, with the chunk's offset in
/// the batch, so engines with a batch-major arena path
/// ([`Engine::infer_batch`], [`QEngine::infer_batch`],
/// [`crate::HardenedEngine::classify_batch_indexed`]) can run it per
/// chunk instead of per item. The partitioning and stitching are
/// identical to [`run_partitioned`], so the determinism argument carries
/// over unchanged — provided `per_chunk` itself is item-order preserving
/// and item-independent, which the arena batch paths are (bit-identical
/// to their per-item loops).
pub(crate) fn run_partitioned_chunks<'a, W, I, O, F>(
    workers: &mut [W],
    inputs: &'a [I],
    per_chunk: F,
) -> Result<Vec<O>, NnError>
where
    W: Send,
    I: Sync,
    O: Send,
    F: Fn(&mut W, usize, &'a [I]) -> Result<Vec<O>, NnError> + Send + Sync + Copy,
{
    let used = workers.len().min(inputs.len());
    if used <= 1 {
        // Small batches and single-worker pools run inline: same results,
        // no thread-spawn cost.
        return per_chunk(&mut workers[0], 0, inputs);
    }
    let lens = chunk_lens(inputs.len(), used);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(lens.len());
        let mut rest = inputs;
        let mut offset = 0;
        for (worker, &len) in workers.iter_mut().zip(&lens) {
            let (chunk, tail) = rest.split_at(len);
            rest = tail;
            handles.push(scope.spawn(move || per_chunk(worker, offset, chunk)));
            offset += len;
        }
        let mut out = Vec::with_capacity(inputs.len());
        for handle in handles {
            match handle.join() {
                Ok(Ok(chunk_out)) => out.extend(chunk_out),
                Ok(Err(e)) => return Err(e),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        Ok(out)
    })
}

/// A pool of float [`Engine`] replicas for parallel batch inference.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), safex_nn::NnError> {
/// use safex_nn::{model::ModelBuilder, EnginePool};
/// use safex_tensor::{DetRng, Shape};
///
/// let mut rng = DetRng::new(3);
/// let model = ModelBuilder::new(Shape::vector(2))
///     .dense(4, &mut rng)?
///     .relu()
///     .dense(2, &mut rng)?
///     .softmax()
///     .build()?;
/// let mut pool = EnginePool::new(model, 4)?;
/// let batch: Vec<Vec<f32>> = (0..16)
///     .map(|i| vec![i as f32 * 0.1, 1.0 - i as f32 * 0.1])
///     .collect();
/// let outputs = pool.infer_batch(&batch)?;
/// assert_eq!(outputs.len(), 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EnginePool {
    workers: Vec<Engine>,
}

impl EnginePool {
    /// Creates a pool of `workers` engine replicas of `model`.
    ///
    /// Every replica pre-allocates its own activation buffers at
    /// construction, so batch dispatch itself stays allocation-free on
    /// the per-worker hot path.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Pool`] when `workers` is zero.
    pub fn new(model: Model, workers: usize) -> Result<Self, NnError> {
        if workers == 0 {
            return Err(NnError::Pool("pool needs at least one worker".into()));
        }
        Ok(EnginePool {
            workers: (0..workers).map(|_| Engine::new(model.clone())).collect(),
        })
    }

    /// Number of worker replicas.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared model (all replicas are identical).
    pub fn model(&self) -> &Model {
        self.workers[0].model()
    }

    /// Total inferences completed across all workers.
    pub fn inference_count(&self) -> u64 {
        self.workers.iter().map(Engine::inference_count).sum()
    }

    /// Runs the model over a batch, in parallel, preserving input order.
    ///
    /// Outputs are bit-exact for every worker count (see the module
    /// docs for the argument).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn infer_batch<I: AsRef<[f32]> + Sync>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Vec<f32>>, NnError> {
        run_partitioned_chunks(&mut self.workers, inputs, |engine, _, chunk| {
            engine.infer_batch(chunk)
        })
    }

    /// Classifies a batch, in parallel, preserving input order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn classify_batch<I: AsRef<[f32]> + Sync>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Classification>, NnError> {
        run_partitioned_chunks(&mut self.workers, inputs, |engine, _, chunk| {
            engine.classify_batch(chunk)
        })
    }
}

/// A pool of fixed-point [`QEngine`] replicas for parallel batch
/// inference — the cross-platform-bit-exact deployment configuration.
#[derive(Debug, Clone)]
pub struct QEnginePool {
    workers: Vec<QEngine>,
}

impl QEnginePool {
    /// Creates a pool of `workers` quantised engine replicas.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Pool`] when `workers` is zero.
    pub fn new(model: QModel, workers: usize) -> Result<Self, NnError> {
        if workers == 0 {
            return Err(NnError::Pool("pool needs at least one worker".into()));
        }
        Ok(QEnginePool {
            workers: (0..workers).map(|_| QEngine::new(model.clone())).collect(),
        })
    }

    /// Number of worker replicas.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The shared quantised model.
    pub fn model(&self) -> &QModel {
        self.workers[0].model()
    }

    /// Runs the quantised model over a batch, in parallel, preserving
    /// input order; outputs are bit-exact for every worker count.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn infer_batch<I: AsRef<[Q16_16]> + Sync>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Vec<Q16_16>>, NnError> {
        run_partitioned_chunks(&mut self.workers, inputs, |engine, _, chunk| {
            engine.infer_batch(chunk)
        })
    }

    /// Classifies a batch, in parallel, preserving input order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InputShape`] if any input has the wrong element
    /// count; the whole batch fails (no partial results).
    pub fn classify_batch<I: AsRef<[Q16_16]> + Sync>(
        &mut self,
        inputs: &[I],
    ) -> Result<Vec<Classification>, NnError> {
        run_partitioned_chunks(&mut self.workers, inputs, |engine, _, chunk| {
            engine.classify_batch(chunk)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use safex_tensor::{DetRng, Shape};

    fn mlp(seed: u64) -> Model {
        let mut rng = DetRng::new(seed);
        ModelBuilder::new(Shape::vector(3))
            .dense(8, &mut rng)
            .unwrap()
            .relu()
            .dense(4, &mut rng)
            .unwrap()
            .softmax()
            .build()
            .unwrap()
    }

    fn batch(n: usize) -> Vec<Vec<f32>> {
        let mut rng = DetRng::new(7);
        (0..n)
            .map(|_| (0..3).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    #[test]
    fn zero_workers_rejected() {
        assert!(matches!(EnginePool::new(mlp(1), 0), Err(NnError::Pool(_))));
    }

    #[test]
    fn chunk_lens_cover_and_order() {
        assert_eq!(chunk_lens(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(chunk_lens(3, 8), vec![1, 1, 1]);
        assert_eq!(chunk_lens(8, 1), vec![8]);
        assert_eq!(chunk_lens(0, 4), Vec::<usize>::new());
    }

    #[test]
    fn batch_matches_sequential_engine() {
        let model = mlp(2);
        let inputs = batch(13);
        let mut engine = Engine::new(model.clone());
        let expected: Vec<Vec<f32>> = inputs
            .iter()
            .map(|x| engine.infer(x).unwrap().to_vec())
            .collect();
        let mut pool = EnginePool::new(model, 4).unwrap();
        assert_eq!(pool.infer_batch(&inputs).unwrap(), expected);
    }

    #[test]
    fn batch_bit_exact_across_worker_counts() {
        let model = mlp(3);
        let inputs = batch(17);
        let reference = EnginePool::new(model.clone(), 1)
            .unwrap()
            .infer_batch(&inputs)
            .unwrap();
        for workers in [2, 3, 4, 8] {
            let got = EnginePool::new(model.clone(), workers)
                .unwrap()
                .infer_batch(&inputs)
                .unwrap();
            assert_eq!(got, reference, "worker count {workers} diverged");
        }
    }

    #[test]
    fn classify_batch_matches_classify() {
        let model = mlp(4);
        let inputs = batch(9);
        let mut engine = Engine::new(model.clone());
        let mut pool = EnginePool::new(model, 3).unwrap();
        let got = pool.classify_batch(&inputs).unwrap();
        for (x, c) in inputs.iter().zip(&got) {
            assert_eq!(engine.classify(x).unwrap(), *c);
        }
    }

    #[test]
    fn bad_input_fails_whole_batch() {
        let mut pool = EnginePool::new(mlp(5), 2).unwrap();
        let mut inputs = batch(6);
        inputs[4] = vec![0.0; 2]; // wrong arity
        assert!(matches!(
            pool.infer_batch(&inputs),
            Err(NnError::InputShape { .. })
        ));
    }

    #[test]
    fn empty_batch_is_empty() {
        let mut pool = EnginePool::new(mlp(6), 4).unwrap();
        assert_eq!(pool.infer_batch(&Vec::<Vec<f32>>::new()).unwrap().len(), 0);
    }

    #[test]
    fn inference_count_accumulates() {
        let mut pool = EnginePool::new(mlp(7), 4).unwrap();
        pool.infer_batch(&batch(10)).unwrap();
        assert_eq!(pool.inference_count(), 10);
    }

    #[test]
    fn quant_pool_bit_exact_across_worker_counts() {
        let qmodel = QModel::quantize(&mlp(8)).unwrap();
        let inputs: Vec<Vec<Q16_16>> = batch(11)
            .iter()
            .map(|x| x.iter().map(|&v| Q16_16::from_f32(v)).collect())
            .collect();
        let reference = QEnginePool::new(qmodel.clone(), 1)
            .unwrap()
            .infer_batch(&inputs)
            .unwrap();
        for workers in [2, 4, 8] {
            let got = QEnginePool::new(qmodel.clone(), workers)
                .unwrap()
                .infer_batch(&inputs)
                .unwrap();
            assert_eq!(got, reference, "worker count {workers} diverged");
        }
    }
}
