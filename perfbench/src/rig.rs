//! The three workloads: their traffic, their fleets, and one replay of
//! a workload through the real serving stack
//! (`Server` → `Fleet` → `PoolBackend` → `HardenedPool` →
//! `HardenedEngine` → tensor kernels).

use std::rc::Rc;
use std::time::{Duration, Instant};

use safex_core::health::HealthConfig;
use safex_nn::io::load_model;
use safex_nn::{CrcStrategy, EccConfig, HardenConfig, HardenedEngine, Model};
use safex_serve::{
    ArrivalTrace, BatchPolicy, CacheConfig, ClockSource, Fleet, ModelId, OpsPlan, PoolBackend,
    Request, RoundRobin, RoutingKind, RoutingPolicy, ServeReport, Server, ServerConfig,
    ServiceModel, SwapOp, TierLeastLoaded, TrafficConfig, WatchdogConfig,
};
use safex_tensor::DetRng;

use crate::fixture::Fixture;
use crate::shims::{Member, TimedRouter, Tracer};

/// Replicas in every member's `HardenedPool`. One replica runs inline on
/// the serving thread: with two, every figure swung up to twofold with
/// the load on the host's second vCPU (see README). The two-replica
/// fan-out is timed per layer instead (`pool.*`).
pub const WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fresh,
    Repeat,
    Strike,
}

/// Everything fixed about a workload except its seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Requests per replay.
    pub requests: usize,
    /// Mean Poisson inter-arrival gap, in ticks.
    pub mean_gap: f64,
    /// Wall duration of one tick in the paced run.
    pub tick: Duration,
    /// Fleet members (each a pool of `WORKERS` replicas).
    pub members: usize,
}

impl Spec {
    /// The paced run's fixed arrival rate.
    pub fn rate_per_s(&self) -> f64 {
        1.0 / (self.mean_gap * self.tick.as_secs_f64())
    }
}

pub const SPECS: [Spec; 3] = [
    Spec {
        kind: Kind::Fresh,
        name: "fresh",
        requests: 8192,
        mean_gap: 2.0,
        tick: Duration::from_micros(32),
        members: 1,
    },
    Spec {
        kind: Kind::Repeat,
        name: "repeat",
        requests: 32768,
        mean_gap: 2.0,
        tick: Duration::from_micros(5),
        members: 3,
    },
    Spec {
        kind: Kind::Strike,
        name: "strike",
        requests: 8192,
        mean_gap: 2.0,
        tick: Duration::from_micros(40),
        members: 3,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

const MEMBER_NAMES: [&str; 3] = ["alpha", "beta", "gamma"];
/// Distinct payloads the `repeat` workload draws most requests from.
const HOT_SET: usize = 32;
/// Share of `repeat` requests (percent) that carry a new, cold input.
/// Their misses (and the hot entries their inserts evict) keep a steady
/// few percent of requests on the backend path, so the p99 sits among
/// misses throughout instead of on the hit/miss boundary.
const COLD_PERCENT: usize = 3;

/// A workload bound to a seed: its trace and what bring-up needs.
pub struct Prepared {
    pub spec: Spec,
    pub seed: u64,
    pub trace: ArrivalTrace,
    pub blob: Vec<u8>,
    pub calibration: Vec<Vec<f32>>,
    /// The pristine model, for the answer check and the layer replay.
    pub pristine: Model,
}

fn mix(seed: u64, salt: u64) -> u64 {
    // splitmix64 finaliser: nearby seeds give unrelated streams.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A test image plus small seeded jitter: distinct from every other draw.
fn jittered(base: &[f32], rng: &mut DetRng) -> Vec<f32> {
    base.iter()
        .map(|&x| x + (rng.next_f32() - 0.5) * 0.02)
        .collect()
}

impl Prepared {
    pub fn new(spec: Spec, seed: u64, fixture: &Fixture) -> Self {
        let mut rng = DetRng::new(mix(seed, 0x1A));
        let test = &fixture.test;
        let draw = |rng: &mut DetRng| jittered(&test[rng.below_usize(test.len())], rng);
        let payloads: Vec<Vec<f32>> = match spec.kind {
            // Distinct inputs: the cache answers almost nothing, so the
            // median sits on the backend path, not on a hit/miss boundary.
            Kind::Fresh | Kind::Strike => (0..spec.requests).map(|_| draw(&mut rng)).collect(),
            Kind::Repeat => {
                let hot: Vec<Vec<f32>> = (0..HOT_SET).map(|_| draw(&mut rng)).collect();
                (0..spec.requests)
                    .map(|_| {
                        if rng.below_usize(100) < COLD_PERCENT {
                            draw(&mut rng)
                        } else {
                            hot[rng.below_usize(HOT_SET)].clone()
                        }
                    })
                    .collect()
            }
        };
        let trace = TrafficConfig {
            seed: mix(seed, 0x2B),
            requests: spec.requests,
            mean_interarrival: spec.mean_gap,
            deadline: 400,
            tier_weights: [2, 1, 1],
        }
        .synthesize(&payloads)
        .expect("valid traffic");
        let blob = fixture.mlp_blob.clone();
        let pristine = load_model(blob.as_slice()).expect("fixture blob loads");
        Prepared {
            spec,
            seed,
            trace,
            blob,
            calibration: fixture.calibration.clone(),
            pristine,
        }
    }

    pub fn harden_config(&self) -> HardenConfig {
        match self.spec.kind {
            Kind::Strike => HardenConfig {
                crc_strategy: CrcStrategy::Fused,
                repair: Some(EccConfig::default()),
                ..HardenConfig::default()
            },
            Kind::Fresh | Kind::Repeat => HardenConfig::default(),
        }
    }

    fn server_config(&self) -> ServerConfig {
        // One tick of service per batch: the simulated cost stays small
        // next to the measured dispatch, so paced latency is work, not
        // sleep.
        let base = ServerConfig::default()
            .with_policy(BatchPolicy::default().with_max_batch(16).with_queue_cap(64))
            .with_service(ServiceModel {
                batch_overhead: 1,
                per_item: 0,
            })
            .with_cache(CacheConfig::enabled(256))
            .with_campaign(self.spec.name);
        match self.spec.kind {
            Kind::Fresh | Kind::Repeat => base.with_routing(RoutingKind::TierLeastLoaded),
            Kind::Strike => base
                // Round-robin keeps routing onto the struck member so it
                // walks its whole ladder.
                .with_routing(RoutingKind::RoundRobin)
                .with_health(HealthConfig {
                    window: 8,
                    degrade_events: 2,
                    stop_events: 6,
                    recover_after: 16,
                    resume_after: 0,
                    warn_budget: 3,
                })
                .with_watchdog(WatchdogConfig::enabled(4096).with_proof_cadence(1024)),
        }
    }

    /// `(request id, seed, bits)` of each weight strike on member alpha:
    /// on `strike`, a correctable single-bit upset, then an uncorrectable
    /// double-bit one; none elsewhere.
    fn strikes(&self) -> Vec<(u64, u64, u32)> {
        if self.spec.kind != Kind::Strike {
            return Vec::new();
        }
        let n = self.spec.requests as u64;
        vec![
            (n / 5, mix(self.seed, 0x3C), 1),
            (n / 2, mix(self.seed, 0x4D), 2),
        ]
    }

    /// Brings the workload's server up from the serialised model blob.
    pub fn bring_up<M: Member>(&self, tracer: Option<&Tracer>) -> Rig<M> {
        let model = load_model(self.blob.as_slice()).expect("fixture blob loads");
        let mut engine = HardenedEngine::new(model, self.harden_config()).expect("harden");
        engine.calibrate(&self.calibration).expect("calibrate");
        let pool = || M::wrap(PoolBackend::new(&engine, WORKERS).expect("pool"), tracer);
        let fleet = MEMBER_NAMES[..self.spec.members]
            .iter()
            .fold(Fleet::builder(), |b, name| b.register(*name, pool()))
            .build()
            .expect("fleet");
        let config = self.server_config();
        let server = match tracer {
            None => Server::new(config, fleet),
            Some(tracer) => {
                let inner: Box<dyn RoutingPolicy> = match config.routing {
                    RoutingKind::RoundRobin => Box::new(RoundRobin),
                    _ => Box::new(TierLeastLoaded),
                };
                let router = TimedRouter {
                    inner,
                    tracer: Rc::clone(tracer),
                };
                Server::with_router(config, fleet, Box::new(router))
            }
        }
        .expect("server");
        let plan = match self.spec.kind {
            Kind::Strike => {
                let incoming = pool();
                let expected_digest = incoming.swap_digest();
                let n = self.spec.requests as u64;
                OpsPlan::none()
                    .with_snapshot_at(2 * n / 5)
                    .with_swap(SwapOp {
                        at_request: 3 * n / 4,
                        model: ModelId::new(0),
                        incoming,
                        expected_digest,
                    })
            }
            Kind::Fresh | Kind::Repeat => OpsPlan::none(),
        };
        Rig { server, plan }
    }

    /// Replays the trace once through a brought-up rig.
    pub fn run<M: Member>(&self, rig: Rig<M>, clock: &mut dyn ClockSource) -> Replay<M> {
        let Rig { mut server, plan } = rig;
        let strikes = self.strikes();
        let hook = |request: &Request, fleet: &mut Fleet<M>| {
            for &(at, seed, bits) in &strikes {
                if request.id == at {
                    fleet
                        .backend_mut(ModelId::new(0))
                        .expect("alpha exists")
                        .pool_mut()
                        .strike_weights(seed, 1, bits)
                        .expect("strike lands");
                }
            }
        };
        let start = Instant::now();
        let outcome = server
            .run_soak_with(&self.trace, plan, clock, hook)
            .expect("replay completes");
        let end = Instant::now();
        Replay {
            report: outcome.report,
            snapshot: outcome.snapshot,
            wall: end - start,
            end,
            server,
        }
    }
}

/// A server ready to replay, with its scripted operations.
pub struct Rig<M: Member> {
    pub server: Server<M>,
    pub plan: OpsPlan<M>,
}

/// One finished replay.
pub struct Replay<M: Member> {
    pub report: ServeReport,
    pub snapshot: Option<Vec<u8>>,
    pub wall: Duration,
    pub end: Instant,
    pub server: Server<M>,
}
