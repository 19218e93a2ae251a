//! Benchmark-side shims around the public serving API: a timing
//! [`Backend`] decorator, a timing [`RoutingPolicy`] wrapper and a
//! recording pacing [`ClockSource`].
//!
//! The decorator and the router wrapper forward every call unchanged and
//! only note how long it took, so a traced server must produce the very
//! same report as an untraced one (checked on every traced run). Spans
//! stay in memory and are reduced to metrics when the run ends.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use safex_serve::{
    Backend, BatchVerdict, ClockSource, ModelId, PoolBackend, RouteView, RoutingPolicy, ServeError,
};

/// Spans recorded by the shims of one traced server.
#[derive(Debug, Default)]
pub struct Spans {
    /// Wall time of each `Backend::serve` call, with its batch size.
    pub serve: Vec<(Duration, usize)>,
    /// Wall time of each `Backend::prepare_swap` call.
    pub swap: Vec<Duration>,
    /// Wall time of each routing decision.
    pub route: Vec<Duration>,
    /// Every served batch, kept only while `keep_batches` is set.
    pub batches: Vec<Vec<Vec<f32>>>,
    /// Whether `serve` keeps a copy of each batch for layer replay.
    pub keep_batches: bool,
}

impl Spans {
    pub fn serve_total(&self) -> Duration {
        self.serve.iter().map(|(d, _)| *d).sum()
    }

    pub fn items(&self) -> usize {
        self.serve.iter().map(|(_, n)| n).sum()
    }

    pub fn route_total(&self) -> Duration {
        self.route.iter().sum()
    }
}

/// Shared span sink: one per traced server, cloned into every shim.
pub type Tracer = Rc<RefCell<Spans>>;

/// A fleet member the benchmark can bring up, strike and trace.
pub trait Member: Backend + Sized {
    fn wrap(pool: PoolBackend, tracer: Option<&Tracer>) -> Self;
    fn pool_mut(&mut self) -> &mut PoolBackend;
}

impl Member for PoolBackend {
    fn wrap(pool: PoolBackend, _tracer: Option<&Tracer>) -> Self {
        pool
    }

    fn pool_mut(&mut self) -> &mut PoolBackend {
        self
    }
}

/// Times every call into the wrapped backend.
pub struct Timed {
    inner: PoolBackend,
    tracer: Tracer,
}

impl Member for Timed {
    fn wrap(pool: PoolBackend, tracer: Option<&Tracer>) -> Self {
        Timed {
            inner: pool,
            tracer: Rc::clone(tracer.expect("a traced member needs a tracer")),
        }
    }

    fn pool_mut(&mut self) -> &mut PoolBackend {
        &mut self.inner
    }
}

impl Backend for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn serve(&mut self, inputs: &[&[f32]]) -> Result<Vec<BatchVerdict>, ServeError> {
        let start = Instant::now();
        let verdicts = self.inner.serve(inputs);
        let took = start.elapsed();
        let mut spans = self.tracer.borrow_mut();
        spans.serve.push((took, inputs.len()));
        if spans.keep_batches {
            spans
                .batches
                .push(inputs.iter().map(|x| x.to_vec()).collect());
        }
        verdicts
    }

    fn prepare_swap(&mut self) -> Result<(), ServeError> {
        let start = Instant::now();
        let prepared = self.inner.prepare_swap();
        self.tracer.borrow_mut().swap.push(start.elapsed());
        prepared
    }

    fn swap_digest(&self) -> Option<u64> {
        self.inner.swap_digest()
    }

    fn clock(&self) -> u64 {
        self.inner.clock()
    }

    fn resync(&mut self, clock: u64) {
        self.inner.resync(clock)
    }
}

/// Times every decision of the wrapped routing policy.
pub struct TimedRouter {
    pub inner: Box<dyn RoutingPolicy>,
    pub tracer: Tracer,
}

impl RoutingPolicy for TimedRouter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, view: &RouteView<'_>) -> ModelId {
        let start = Instant::now();
        let id = self.inner.route(view);
        self.tracer.borrow_mut().route.push(start.elapsed());
        id
    }
}

/// Paces the loop onto a fixed tick duration, like `WallClock`, and
/// records the instant the loop entered each event tick.
///
/// It spins rather than sleeps: a sleeping vCPU halts, and on a contended
/// host it is woken milliseconds late, which would time the host, not
/// the server.
pub struct RecordingClock {
    tick: Duration,
    anchor: Option<(Instant, u64)>,
    /// `(tick, instant pace was entered)` for every event tick, in order.
    pub entries: Vec<(u64, Instant)>,
    /// Total time spent waiting for due instants.
    pub idle: Duration,
}

impl RecordingClock {
    pub fn new(tick: Duration, expected_ticks: usize) -> Self {
        RecordingClock {
            tick,
            anchor: None,
            entries: Vec::with_capacity(expected_ticks),
            idle: Duration::ZERO,
        }
    }

    /// The wall instant tick `tick` is due.
    pub fn due(&self, tick: u64) -> Instant {
        let (start, first) = self.anchor.expect("clock has paced at least one tick");
        let ticks = u32::try_from(tick.saturating_sub(first)).expect("tick span fits u32");
        start + self.tick * ticks
    }

    /// The instant the loop left tick `tick`: when it entered the first
    /// later tick, or `end` if none followed.
    pub fn left(&self, tick: u64, end: Instant) -> Instant {
        let i = self.entries.partition_point(|&(t, _)| t <= tick);
        self.entries.get(i).map_or(end, |&(_, at)| at)
    }
}

impl ClockSource for RecordingClock {
    fn name(&self) -> &'static str {
        "wall"
    }

    fn pace(&mut self, tick: u64) {
        let entered = Instant::now();
        self.anchor.get_or_insert((entered, tick));
        self.entries.push((tick, entered));
        let target = self.due(tick);
        if target <= entered {
            return;
        }
        while Instant::now() < target {
            std::hint::spin_loop();
        }
        self.idle += Instant::now() - entered;
    }
}
