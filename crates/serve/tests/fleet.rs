//! Fleet-serving end-to-end tests: golden pinned reports across worker
//! counts × routing policies × cache settings, per-member degradation
//! under a mid-traffic strike, admission fairness under a low-tier
//! flood, pinned routing, and the cache evidence trail.

use safex_core::health::{HealthConfig, HealthState};
use safex_nn::model::ModelBuilder;
use safex_nn::{HardenConfig, HardenedEngine, Model};
use safex_serve::{
    Arrival, ArrivalTrace, BatchPolicy, CacheConfig, FairnessPolicy, Fleet, ModelId, Outcome,
    PoolBackend, Request, RoutingKind, ServeReport, Server, ServerConfig, Tier, TrafficConfig,
};
use safex_tensor::{DetRng, Shape};
use safex_trace::{input_digest, Fnv64, RecordKind, Value};

fn fixture() -> (Model, Vec<Vec<f32>>) {
    let mut rng = DetRng::new(0xF1EE7);
    let model = ModelBuilder::new(Shape::vector(6))
        .dense(10, &mut rng)
        .unwrap()
        .relu()
        .dense(4, &mut rng)
        .unwrap()
        .softmax()
        .build()
        .unwrap();
    let inputs: Vec<Vec<f32>> = (0..16)
        .map(|_| (0..6).map(|_| rng.next_f32()).collect())
        .collect();
    (model, inputs)
}

fn hardened(model: &Model, inputs: &[Vec<f32>]) -> HardenedEngine {
    let mut engine = HardenedEngine::new(model.clone(), HardenConfig::default()).unwrap();
    engine.calibrate(inputs).unwrap();
    engine
}

fn three_member_fleet(engine: &HardenedEngine, workers: usize) -> Fleet<PoolBackend> {
    Fleet::builder()
        .register("alpha", PoolBackend::new(engine, workers).unwrap())
        .register("beta", PoolBackend::new(engine, workers).unwrap())
        .register("gamma", PoolBackend::new(engine, workers).unwrap())
        .build()
        .unwrap()
}

/// FNV-1a over the canonical JSON artefact: the whole report, byte for
/// byte.
fn digest(report: &ServeReport) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(report.to_json().to_string_compact().as_bytes());
    h.finish()
}

/// The no-silent-drops audit: exactly one response per trace request,
/// ids dense and sorted.
fn assert_no_silent_drops(report: &ServeReport, trace: &ArrivalTrace) {
    assert_eq!(
        report.responses.len(),
        trace.len(),
        "every request must produce exactly one response"
    );
    for (i, r) in report.responses.iter().enumerate() {
        assert_eq!(r.id, i as u64, "response ids must be dense and sorted");
    }
    assert_eq!(
        report.snapshot.total(),
        trace.len() as u64,
        "metrics must account for every response"
    );
}

#[test]
fn golden_fleet_reports_pinned_across_workers_policies_and_cache() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    let trace = TrafficConfig {
        seed: 0xF1EE7,
        requests: 240,
        mean_interarrival: 3.0,
        deadline: 400,
        ..TrafficConfig::default()
    }
    .synthesize(&inputs)
    .unwrap();

    // Golden digests, one per (routing, cache) corner, computed from the
    // 1-worker reference run. These pin the full report artefact —
    // responses, routing decisions, per-member ladders, cache hits,
    // metrics — so any behavioural drift in the fleet scheduler shows up
    // as a digest mismatch here.
    let golden: [(RoutingKind, bool, u64); 4] = [
        (RoutingKind::TierLeastLoaded, false, 0x2b6b1de054ca656f),
        (RoutingKind::TierLeastLoaded, true, 0xcea14a9111e52a98),
        (RoutingKind::RoundRobin, false, 0x52cdb9efff17a7c3),
        (RoutingKind::RoundRobin, true, 0xf59d08d7c49b736c),
    ];
    for (routing, cache_on, pinned) in golden {
        let config = || {
            let cache = if cache_on {
                CacheConfig::enabled(256)
            } else {
                CacheConfig::default()
            };
            ServerConfig::default()
                .with_routing(routing)
                .with_cache(cache)
        };
        let mut server = Server::new(config(), three_member_fleet(&engine, 1)).unwrap();
        let reference = server.run_trace(&trace).unwrap();
        assert_no_silent_drops(&reference, &trace);
        if cache_on {
            assert!(
                reference.snapshot.cache_hits > 0,
                "cycling 16 inputs over 240 requests must hit the cache ({routing:?})"
            );
        } else {
            assert_eq!(reference.snapshot.cache_hits, 0);
            assert_eq!(reference.snapshot.cache_lookups, 0);
        }
        assert_eq!(
            digest(&reference),
            pinned,
            "golden digest drift ({routing:?}, cache={cache_on}): got {:#018x}",
            digest(&reference)
        );
        for workers in [2usize, 4, 8] {
            let mut server = Server::new(config(), three_member_fleet(&engine, workers)).unwrap();
            let parallel = server.run_trace(&trace).unwrap();
            assert_eq!(
                parallel, reference,
                "{workers}-worker report diverged from sequential ({routing:?}, cache={cache_on})"
            );
            assert_eq!(digest(&parallel), pinned, "{workers}-worker digest drift");
        }
    }
}

#[test]
fn struck_member_walks_its_own_ladder_while_fleet_serves() {
    let (model, inputs) = fixture();
    // Mostly-distinct inputs (repeats only in the tail): the cache gets
    // real hits without starving the backends of work — a fully cached
    // stream would never exercise the struck member.
    let mut rng = DetRng::new(0xD007);
    let mut many: Vec<Vec<f32>> = (0..180)
        .map(|_| (0..6).map(|_| rng.next_f32()).collect())
        .collect();
    many.extend(inputs.iter().cloned());
    let engine = hardened(&model, &many);
    let trace = TrafficConfig {
        seed: 0xD007,
        requests: 240,
        mean_interarrival: 3.0,
        deadline: 600,
        tier_weights: [3, 2, 1],
    }
    .synthesize(&many)
    .unwrap();
    let config = ServerConfig::default()
        .with_health(HealthConfig {
            window: 8,
            degrade_events: 2,
            stop_events: 6,
            recover_after: 16,
            resume_after: 0,
            warn_budget: 3,
        })
        .with_cache(CacheConfig::enabled(256));
    let struck = ModelId::new(1);
    let mut server = Server::new(config, three_member_fleet(&engine, 2)).unwrap();
    let report = server
        .run_trace_with(&trace, |request, fleet| {
            if request.id == 60 {
                fleet
                    .backend_mut(struck)
                    .unwrap()
                    .strike_weights(0xBAD5EED, 1, 2)
                    .unwrap();
            }
        })
        .unwrap();

    assert_no_silent_drops(&report, &trace);

    // The struck member walks its own full ladder…
    let walk: Vec<(HealthState, HealthState)> = report
        .transitions
        .iter()
        .filter(|t| t.model == struck)
        .map(|t| (t.from, t.to))
        .collect();
    assert_eq!(
        walk,
        vec![
            (HealthState::Nominal, HealthState::Degraded),
            (HealthState::Degraded, HealthState::SafeStop),
        ],
        "struck member must walk Nominal → Degraded → SafeStop: {:?}",
        report.transitions
    );
    assert_eq!(
        report.models[struck.index()].final_state,
        HealthState::SafeStop
    );
    assert!(report.models[struck.index()].time_stopped > 0);

    // …while its peers never leave Nominal and keep carrying load after
    // the strike.
    for peer in [ModelId::new(0), ModelId::new(2)] {
        assert_eq!(
            report.models[peer.index()].final_state,
            HealthState::Nominal,
            "peer {peer} must be untouched by m1's faults"
        );
        assert!(
            report.transitions.iter().all(|t| t.model != peer),
            "peer {peer} must record no transitions"
        );
        assert!(report.snapshot.models[peer.index()].batches > 0);
    }

    // Fleet-level guarantee: every high-criticality request completes —
    // one member failing must not cost the fleet its safety tier.
    for r in &report.responses {
        if r.tier == Tier::High {
            assert!(
                matches!(r.outcome, Outcome::Completed { .. }),
                "high-criticality request {} not served: {:?}",
                r.id,
                r.outcome
            );
        }
    }
    // After the struck member stops, nothing more completes on it.
    let stop_tick = report
        .transitions
        .iter()
        .find(|t| t.model == struck && t.to == HealthState::SafeStop)
        .unwrap()
        .at_tick;
    for r in &report.responses {
        if let Outcome::Completed { model, cached, .. } = &r.outcome {
            if *model == struck && !cached {
                assert!(
                    r.resolved_at <= stop_tick,
                    "request {} completed on the stopped member",
                    r.id
                );
            }
        }
    }
    // The evidence chain binds the whole story: ladder transitions and
    // cache hits, verifiable end to end.
    assert!(server.evidence().verify().is_ok());
    assert_eq!(
        server
            .evidence()
            .records_of_kind(RecordKind::HealthTransition)
            .len(),
        report.transitions.len()
    );
    assert_eq!(
        server
            .evidence()
            .records_of_kind(RecordKind::CacheHit)
            .len() as u64,
        report.snapshot.cache_hits
    );
    assert!(report.snapshot.cache_hits > 0);
}

#[test]
fn aging_and_reserved_slots_bound_starvation_under_low_tier_flood() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    // A sustained low-tier flood (one Low every 2 ticks) with a steady
    // high-criticality stream (one High every 8 ticks) — offered load
    // well beyond fleet capacity, so *something* must wait. Strict
    // priority starves the Lows; fairness must not, while still keeping
    // High p99 inside its deadline.
    let mut arrivals = Vec::new();
    let mut id = 0u64;
    for t in 1..=800u64 {
        if t % 2 == 0 {
            arrivals.push(Arrival {
                at: t,
                request: Request::new(
                    id,
                    inputs[id as usize % inputs.len()].clone(),
                    Tier::Low,
                    t + 300,
                ),
            });
            id += 1;
        }
        if t % 8 == 0 {
            arrivals.push(Arrival {
                at: t,
                request: Request::new(
                    id,
                    inputs[id as usize % inputs.len()].clone(),
                    Tier::High,
                    t + 300,
                ),
            });
            id += 1;
        }
    }
    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let deadline_budget = 300u64;
    let run = |fairness: FairnessPolicy| {
        let config = ServerConfig::default()
            .with_policy(
                BatchPolicy::default()
                    .with_max_batch(4)
                    .with_queue_cap(64)
                    .with_max_linger(16),
            )
            .with_fairness(fairness);
        let fleet = Fleet::builder()
            .register("alpha", PoolBackend::new(&engine, 1).unwrap())
            .register("beta", PoolBackend::new(&engine, 1).unwrap())
            .build()
            .unwrap();
        let mut server = Server::new(config, fleet).unwrap();
        let report = server.run_trace(&trace).unwrap();
        assert_no_silent_drops(&report, &trace);
        report
    };

    let fair = run(FairnessPolicy::default());
    let strict = run(FairnessPolicy::strict());

    // Fairness invariant 1: the flood must not push high-criticality
    // p99 past its deadline budget — reserved high slots see to that.
    let high = Tier::High.index();
    assert!(
        fair.snapshot.tier_latency[high].p99 <= deadline_budget,
        "high p99 {} exceeds the {}-tick deadline budget",
        fair.snapshot.tier_latency[high].p99,
        deadline_budget
    );
    assert_eq!(
        fair.snapshot.timeout[high] + fair.snapshot.safe_stop[high],
        0,
        "no high-criticality request may miss under the flood"
    );

    // Fairness invariant 2: aged low-tier work is eventually served —
    // starvation is bounded, not just unlikely.
    let low = Tier::Low.index();
    assert!(
        fair.snapshot.completed[low] > 0,
        "aging must eventually serve the flooded low tier"
    );
    assert!(
        fair.snapshot.completed[low] > strict.snapshot.completed[low],
        "fairness must serve strictly more low-tier work than strict \
         priority ({} vs {})",
        fair.snapshot.completed[low],
        strict.snapshot.completed[low]
    );
    // And the price was paid knowingly: strict priority leaves the low
    // tier to time out (or be displaced), never silently.
    assert_eq!(
        strict.snapshot.total(),
        trace.len() as u64,
        "strict mode must still account for every request"
    );
}

#[test]
fn pinned_requests_live_and_die_with_their_member() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    // Stop thresholds so tight the first flagged decision stops the
    // member; strike member 0 before any traffic.
    let config = ServerConfig::default().with_health(HealthConfig {
        window: 4,
        degrade_events: 1,
        stop_events: 1,
        recover_after: 16,
        resume_after: 0,
        warn_budget: 3,
    });
    let input = inputs[0].clone();
    let arrivals: Vec<Arrival> = (0..8u64)
        .map(|i| {
            let request = Request::new(i, input.clone(), Tier::High, 1_000 + i);
            // Even ids pinned to the doomed member, odd ids to the
            // healthy one.
            let request = request.pinned(ModelId::new((i % 2) as u16));
            Arrival { at: 1 + i, request }
        })
        .collect();
    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let fleet = Fleet::builder()
        .register("doomed", PoolBackend::new(&engine, 1).unwrap())
        .register("healthy", PoolBackend::new(&engine, 1).unwrap())
        .build()
        .unwrap();
    let mut server = Server::new(config, fleet).unwrap();
    let report = server
        .run_trace_with(&trace, |request, fleet| {
            if request.id == 0 {
                fleet
                    .backend_mut(ModelId::new(0))
                    .unwrap()
                    .strike_weights(1, 1, 1)
                    .unwrap();
            }
        })
        .unwrap();
    assert_no_silent_drops(&report, &trace);
    assert_eq!(
        server.model_state(ModelId::new(0)),
        Some(HealthState::SafeStop)
    );
    assert_eq!(
        server.model_state(ModelId::new(1)),
        Some(HealthState::Nominal)
    );
    for r in &report.responses {
        if r.id % 2 == 0 {
            // Pinned to the struck member: the pin's fate, by name.
            assert_eq!(
                r.outcome,
                Outcome::SafeStop {
                    model: Some(ModelId::new(0))
                },
                "request {} pinned to the struck member must fail safe, got {:?}",
                r.id,
                r.outcome
            );
        } else {
            match &r.outcome {
                Outcome::Completed { model, .. } => {
                    assert_eq!(*model, ModelId::new(1), "pin must be honoured")
                }
                other => panic!("request {} on the healthy pin failed: {other:?}", r.id),
            }
        }
    }
}

#[test]
fn cache_hits_are_exact_verified_and_on_evidence() {
    let (model, inputs) = fixture();
    let engine = hardened(&model, &inputs);
    // One single input repeated: after the first completion, every
    // admission can answer from the cache.
    let input = inputs[0].clone();
    let arrivals: Vec<Arrival> = (0..20u64)
        .map(|i| Arrival {
            at: 1 + i * 40,
            request: Request::new(i, input.clone(), Tier::Medium, 1 + i * 40 + 200),
        })
        .collect();
    let trace = ArrivalTrace::from_arrivals(arrivals).unwrap();
    let config = ServerConfig::default().with_cache(CacheConfig::enabled(16));
    let mut server = Server::new(config, three_member_fleet(&engine, 1)).unwrap();
    let report = server.run_trace(&trace).unwrap();
    assert_no_silent_drops(&report, &trace);

    let first = &report.responses[0];
    let Outcome::Completed {
        class: fresh_class,
        cached: false,
        model: fresh_model,
        ..
    } = first.outcome
    else {
        panic!("first request must execute fresh: {:?}", first.outcome);
    };
    let mut hits = 0u64;
    for r in &report.responses[1..] {
        if let Outcome::Completed {
            class,
            cached: true,
            model,
            ..
        } = r.outcome
        {
            hits += 1;
            assert_eq!(class, fresh_class, "a hit must return the verified class");
            assert_eq!(model, fresh_model, "a hit names the computing model");
            assert_eq!(r.arrived_at, r.resolved_at, "hits answer at admission");
        }
    }
    assert!(hits > 0, "repeated input must hit the cache");
    assert_eq!(report.snapshot.cache_hits, hits);
    assert_eq!(report.snapshot.total_cached(), hits);
    assert_eq!(report.snapshot.cache_lookups, trace.len() as u64);
    assert!(report.snapshot.cache_hit_rate() > 0.5);
    // Every hit is an evidence record; the chain verifies end to end.
    assert_eq!(
        server
            .evidence()
            .records_of_kind(RecordKind::CacheHit)
            .len() as u64,
        hits
    );
    // Each hit names the evidence digest of the very input it answered.
    for record in server.evidence().records_of_kind(RecordKind::CacheHit) {
        let Some(Value::U64(id)) = record.field("request") else {
            panic!("CacheHit without a request id: {record:?}");
        };
        let request = &trace.arrivals()[*id as usize].request;
        assert_eq!(
            record.field("digest"),
            Some(&Value::Str(format!(
                "{:016x}",
                input_digest(&request.input)
            ))),
            "request {id}"
        );
    }
    assert!(server.evidence().verify().is_ok());

    // The same trace with the cache off executes everything fresh and
    // emits no cache evidence.
    let config = ServerConfig::default();
    let mut server = Server::new(config, three_member_fleet(&engine, 1)).unwrap();
    let report = server.run_trace(&trace).unwrap();
    assert_eq!(report.snapshot.cache_hits, 0);
    assert_eq!(report.snapshot.cache_lookups, 0);
    assert!(server
        .evidence()
        .records_of_kind(RecordKind::CacheHit)
        .is_empty());
}
