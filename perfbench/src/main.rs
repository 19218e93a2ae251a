//! Open-loop fleet-serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fresh|repeat|strike> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Serves one workload through the real `safex-serve` stack. With
//! `--trace 0` it prints the end-to-end metrics: capacity from unpaced
//! replays, latency from replays paced at the workload's fixed arrival
//! rate, bring-up time and peak memory. With `--trace 1` it serves the
//! workload again through timing shims and prints the per-layer metrics.
//! The last line of standard output is one JSON object; any failed
//! output check makes it `"correct": false` and the exit code 1.

mod checks;
mod fixture;
mod layers;
mod rig;
mod shims;

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};

use safex_nn::io::load_model;
use safex_serve::{Outcome, PoolBackend, ServeReport, ServerSnapshot, SimClock};
use safex_trace::RecordKind;

use checks::Checks;
use layers::Metric;
use rig::{Prepared, Replay, Spec};
use shims::{Member, RecordingClock, Spans, Timed};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.unwrap_or(10).max(1)),
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
    })
}

/// What one run measured.
#[derive(Default)]
struct Measured {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks: Checks,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn completed(report: &ServeReport) -> u64 {
    report.snapshot.total_completed()
}

/// Peak resident memory of this process (Linux `VmHWM`), if readable.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
}

/// Brings a rig up, timing the bring-up into `setups`.
fn timed_bring_up<M: Member>(
    p: &Prepared,
    tracer: Option<&shims::Tracer>,
    setups: &mut Vec<f64>,
) -> rig::Rig<M> {
    let start = Instant::now();
    let rig = p.bring_up(tracer);
    setups.push(start.elapsed().as_secs_f64());
    rig
}

/// Completed requests per latency window. Percentiles are taken per
/// window and the median window reported, so a host stall spoils one
/// window, not the run; 1024 leaves ten samples beyond the p99.
const WINDOW: usize = 1024;

/// Recorded batches replayed layer by layer in a traced run.
const LAYER_BATCHES: usize = 48;

/// Per-request wall latency of a paced replay, in ns, for completed
/// requests in id order: from the instant the arrival tick was due to the
/// instant the loop left the tick the request resolved at. Also returns
/// the share of that time the tick axis itself accounts for.
fn latencies<M: Member>(
    p: &Prepared,
    replay: &Replay<M>,
    clock: &RecordingClock,
) -> (Vec<f64>, f64) {
    let tick_ns = p.spec.tick.as_nanos() as f64;
    let (mut out, mut sim) = (Vec::new(), 0.0);
    for r in &replay.report.responses {
        if !matches!(r.outcome, Outcome::Completed { .. }) {
            continue;
        }
        let at = p.trace.arrivals()[r.id as usize].at;
        let took = clock.left(r.resolved_at, replay.end) - clock.due(at);
        out.push(took.as_nanos() as f64);
        sim += (r.resolved_at - at) as f64 * tick_ns;
    }
    let total: f64 = out.iter().sum();
    (out, sim / total.max(1.0))
}

/// The untraced reference replay every other replay must reproduce,
/// with the full set of checks applied to it.
fn reference(p: &Prepared, out: &mut Measured, setups: &mut Vec<f64>) -> Replay<PoolBackend> {
    let rig = timed_bring_up::<PoolBackend>(p, None, setups);
    let replay = p.run(rig, &mut SimClock);
    out.checks.conservation(p, &replay.report);
    out.checks.answers(p, &replay.report);
    out.checks.pinned(p, &replay.report);
    if let Some(bytes) = &replay.snapshot {
        out.checks.snapshot(bytes);
    }
    replay
}

/// One unpaced replay: its completed requests per wall second.
fn unpaced(
    p: &Prepared,
    reference: &ServeReport,
    out: &mut Measured,
    setups: &mut Vec<f64>,
) -> f64 {
    let rig = timed_bring_up::<PoolBackend>(p, None, setups);
    let replay = p.run(rig, &mut SimClock);
    out.checks.same("unpaced replay", &replay.report, reference);
    out.attempted += p.trace.len() as u64;
    out.failed += p.trace.len() as u64 - completed(&replay.report);
    completed(&replay.report) as f64 / replay.wall.as_secs_f64()
}

/// Unpaced and paced replays alternate for the whole run, so a slow
/// phase of the host weighs on capacity and latency alike.
fn end_to_end(p: &Prepared, seconds: f64) -> Measured {
    let mut out = Measured::default();
    let mut setups = Vec::new();
    let reference = reference(p, &mut out, &mut setups).report;
    let stop = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut caps, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    while caps.len() < 3 || Instant::now() < stop {
        caps.push(unpaced(p, &reference, &mut out, &mut setups));
        // A bring-up that serves nothing: more set-up samples.
        timed_bring_up::<PoolBackend>(p, None, &mut setups);

        let rig = timed_bring_up::<PoolBackend>(p, None, &mut setups);
        let mut clock = RecordingClock::new(p.spec.tick, 2 * p.trace.len());
        let replay = p.run(rig, &mut clock);
        out.checks.same("paced replay", &replay.report, &reference);
        let (lat, _) = latencies(p, &replay, &clock);
        for window in lat.chunks_exact(WINDOW) {
            let mut window = window.to_vec();
            window.sort_by(f64::total_cmp);
            p50s.push(percentile(&window, 0.50));
            p99s.push(percentile(&window, 0.99));
        }
        out.attempted += p.trace.len() as u64;
        out.failed += p.trace.len() as u64 - completed(&replay.report);
    }
    let share = completed(&reference) as f64 / p.trace.len() as f64;
    let rss = peak_rss_mib().unwrap_or_else(|| {
        out.checks
            .failures
            .push("peak resident memory is unreadable".into());
        0.0
    });
    eprintln!(
        "{}: {} unpaced and as many paced replays of {} requests ({} latency windows); paced rate {:.0} req/s (tick {} ns, mean gap {} ticks); {} bring-ups; available_parallelism {}",
        p.spec.name,
        caps.len(),
        p.trace.len(),
        p99s.len(),
        p.spec.rate_per_s(),
        p.spec.tick.as_nanos(),
        p.spec.mean_gap,
        setups.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    out.metrics = vec![
        ("capacity_rps".into(), median(caps), "req/s"),
        ("latency_p50_ns".into(), median(p50s), "ns"),
        ("latency_p99_ns".into(), median(p99s), "ns"),
        ("completed_share".into(), share, "ratio"),
        ("setup_s".into(), median(setups), "s"),
        ("peak_rss_mib".into(), rss, "MiB"),
    ];
    out
}

/// Sums of the spans of several traced replays.
#[derive(Default)]
struct Traced {
    replays: u64,
    wall: Duration,
    serve: Duration,
    serve_calls: usize,
    items: usize,
    route: Duration,
    decisions: usize,
    swaps: Vec<Duration>,
    batches: Vec<Vec<Vec<f32>>>,
}

impl Traced {
    fn add(&mut self, wall: Duration, spans: Spans) {
        self.replays += 1;
        self.wall += wall;
        self.serve += spans.serve_total();
        self.serve_calls += spans.serve.len();
        self.items += spans.items();
        self.route += spans.route_total();
        self.decisions += spans.route.len();
        self.swaps.extend(spans.swap);
        if self.batches.is_empty() {
            self.batches = spans.batches;
        }
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn traced(p: &Prepared, fixture: &fixture::Fixture, seconds: f64) -> Measured {
    let mut out = Measured::default();
    let mut setups = Vec::new();
    let base = reference(p, &mut out, &mut setups);
    let reference = &base.report;
    let new_tracer = |keep_batches| {
        Rc::new(RefCell::new(Spans {
            keep_batches,
            ..Spans::default()
        }))
    };
    // Plain and traced unpaced replays alternate, so the tracing
    // overhead is not confounded with a slow phase of the host.
    let mut sums = Traced::default();
    let (mut plain, mut caps) = (Vec::new(), Vec::new());
    let stop = Instant::now() + Duration::from_secs_f64(seconds * 0.6);
    while caps.len() < 3 || Instant::now() < stop {
        plain.push(unpaced(p, reference, &mut out, &mut setups));
        let tracer = new_tracer(caps.is_empty());
        let rig = timed_bring_up::<Timed>(p, Some(&tracer), &mut setups);
        let replay = p.run(rig, &mut SimClock);
        out.checks.same("traced replay", &replay.report, reference);
        caps.push(completed(&replay.report) as f64 / replay.wall.as_secs_f64());
        out.attempted += p.trace.len() as u64;
        out.failed += p.trace.len() as u64 - completed(&replay.report);
        drop(replay.server);
        let spans = Rc::try_unwrap(tracer)
            .map(RefCell::into_inner)
            .unwrap_or_else(|_| panic!("tracer outlives its server"));
        sums.add(replay.wall, spans);
    }
    let plain = median(plain);
    let traced_cap = median(caps);

    // One paced traced replay: pacing validity.
    let tracer = new_tracer(false);
    let rig = timed_bring_up::<Timed>(p, Some(&tracer), &mut setups);
    let mut clock = RecordingClock::new(p.spec.tick, 2 * p.trace.len());
    let paced = p.run(rig, &mut clock);
    out.checks
        .same("paced traced replay", &paced.report, reference);
    let (_, sim_share) = latencies(p, &paced, &clock);
    let mut late: Vec<f64> = clock
        .entries
        .iter()
        .filter(|(t, _)| p.trace.arrivals().binary_search_by_key(t, |a| a.at).is_ok())
        .map(|&(t, at)| ns(at.saturating_duration_since(clock.due(t))))
        .collect();
    late.sort_by(f64::total_cmp);
    let idle_share = ns(clock.idle) / ns(paced.wall);

    let n = p.trace.len() as f64;
    let reps = 5;
    // The first batches suffice for per-item layer costs.
    sums.batches.truncate(LAYER_BATCHES);
    let items: Vec<Vec<f32>> = sums.batches.iter().flatten().cloned().collect();
    // Every workload serves the MLP; the convnet is replayed for its kernels.
    let conv = load_model(fixture.conv_blob.as_slice()).expect("conv blob");
    let (mlp_ops, mlp_sum) = layers::kernels("mlp", &p.pristine, &items, reps);
    let (conv_ops, _) = layers::kernels("conv", &conv, &items, reps);
    let (crc_ns, ecc_ns, parametric) = layers::digests(&p.pristine, reps * 20);
    let explained = sums.items as f64 * (mlp_sum + crc_ns * parametric as f64);
    let busy = ns(sums.serve) * rig::WORKERS as f64;

    let (snap_bytes, encode_ns, decode_ns) = match &base.snapshot {
        Some(bytes) => {
            let t = Instant::now();
            for _ in 0..reps * 4 {
                std::hint::black_box(ServerSnapshot::decode(bytes).expect("decode"));
            }
            let decode = ns(t.elapsed()) / (reps * 4) as f64;
            let snap = ServerSnapshot::decode(bytes).expect("decode");
            let t = Instant::now();
            for _ in 0..reps * 4 {
                std::hint::black_box(snap.encode());
            }
            (
                bytes.len() as f64,
                ns(t.elapsed()) / (reps * 4) as f64,
                decode,
            )
        }
        None => (0.0, 0.0, 0.0),
    };
    let snapshot = &reference.snapshot;
    let evidence = base.server.evidence();
    let mut m: Vec<Metric> = vec![
        (
            "server.self_ns_per_req".into(),
            ns(sums.wall.saturating_sub(sums.serve + sums.route)) / (n * sums.replays as f64),
            "ns",
        ),
        (
            "chain.records_per_req".into(),
            evidence.len() as f64 / n,
            "ratio",
        ),
        (
            "cache.hit_ratio".into(),
            snapshot.cache_hits as f64 / snapshot.cache_lookups.max(1) as f64,
            "ratio",
        ),
        (
            "route.decisions".into(),
            sums.decisions as f64 / sums.replays as f64,
            "count",
        ),
        (
            "route.ns_per_decision".into(),
            ns(sums.route) / sums.decisions.max(1) as f64,
            "ns",
        ),
        (
            "backend.ns_per_item".into(),
            ns(sums.serve) / sums.items.max(1) as f64,
            "ns",
        ),
        (
            "backend.busy_share".into(),
            ns(sums.serve) / ns(sums.wall),
            "ratio",
        ),
        (
            "backend.batch_mean".into(),
            sums.items as f64 / sums.serve_calls.max(1) as f64,
            "items",
        ),
        (
            "backend.swap_ns".into(),
            sums.swaps.iter().map(|d| ns(*d)).sum::<f64>() / sums.swaps.len().max(1) as f64,
            "ns",
        ),
        (
            "queue.peak_depth".into(),
            snapshot.peak_queue_depth as f64,
            "count",
        ),
        ("clock.idle_share".into(), idle_share, "ratio"),
        ("clock.late_p99_ns".into(), percentile(&late, 0.99), "ns"),
        ("latency.sim_share".into(), sim_share, "ratio"),
        ("snapshot.bytes".into(), snap_bytes, "B"),
        ("snapshot.encode_ns".into(), encode_ns, "ns"),
        ("snapshot.decode_ns".into(), decode_ns, "ns"),
        (
            "health.transitions".into(),
            reference.transitions.len() as f64,
            "count",
        ),
        (
            "health.corrected".into(),
            evidence.records_of_kind(RecordKind::FaultCorrected).len() as f64,
            "count",
        ),
    ];
    m.extend(layers::hardening(
        &p.pristine,
        p.harden_config(),
        &p.calibration,
        &sums.batches,
        reps,
    ));
    m.extend(mlp_ops);
    m.extend(conv_ops);
    m.push(("crc.ns_per_layer".into(), crc_ns, "ns"));
    m.push(("ecc.check_ns".into(), ecc_ns, "ns"));
    m.push((
        "trace.unexplained_share".into(),
        1.0 - explained / busy.max(1.0),
        "ratio",
    ));
    m.push((
        "trace.overhead_share".into(),
        1.0 - traced_cap / plain,
        "ratio",
    ));
    out.metrics = m;
    out
}

/// Prints `PINNED` rows for every workload over a seed range.
fn pin(fixture: &fixture::Fixture, from: u64, to: u64) {
    for spec in rig::SPECS {
        for seed in from..=to {
            let p = Prepared::new(spec, seed, fixture);
            let replay = p.run(p.bring_up::<PoolBackend>(None), &mut SimClock);
            println!(
                "    (\"{}\", {seed}, 0x{:016x}),",
                spec.name,
                replay.report.replay_digest()
            );
        }
    }
}

fn json(out: &Measured) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pin") {
        let bound = |i: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
        pin(&fixture::build(), bound(1), bound(2));
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec): Option<Spec> = rig::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let fixture = fixture::build();
    let prepared = Prepared::new(spec, args.seed, &fixture);
    eprintln!(
        "fixture and trace built in {:.2} s (not measured)",
        start.elapsed().as_secs_f64()
    );
    let out = if args.trace {
        traced(&prepared, &fixture, args.seconds)
    } else {
        end_to_end(&prepared, args.seconds)
    };
    for failure in &out.checks.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", json(&out));
    if out.checks.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing cannot change behaviour: on every workload, a traced
    /// server — unpaced and paced — reports byte-for-byte what the
    /// untraced one does, and the reference passes every output check.
    #[test]
    fn tracing_does_not_change_the_report() {
        let fixture = fixture::build();
        for spec in rig::SPECS {
            let spec = Spec {
                requests: 1024,
                ..spec
            };
            let p = Prepared::new(spec, 7, &fixture);
            let plain = p.run(p.bring_up::<PoolBackend>(None), &mut SimClock);
            let mut checks = Checks::default();
            checks.conservation(&p, &plain.report);
            checks.answers(&p, &plain.report);
            assert!(
                checks.failures.is_empty(),
                "{}: {:?}",
                spec.name,
                checks.failures
            );

            let tracer = Rc::new(RefCell::new(Spans::default()));
            let traced = p.run(p.bring_up::<Timed>(Some(&tracer)), &mut SimClock);
            assert_eq!(
                traced.report.replay_digest(),
                plain.report.replay_digest(),
                "{}: traced digest",
                spec.name
            );
            assert_eq!(traced.report, plain.report, "{}: traced report", spec.name);
            assert!(
                !tracer.borrow().serve.is_empty(),
                "{}: spans recorded",
                spec.name
            );

            let mut clock = RecordingClock::new(spec.tick, 2 * p.trace.len());
            let paced = p.run(p.bring_up::<Timed>(Some(&tracer)), &mut clock);
            assert_eq!(paced.report, plain.report, "{}: paced report", spec.name);
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| {
            s.split(' ')
                .map(String::from)
                .collect::<Vec<_>>()
                .into_iter()
        };
        let args = parse(argv("--workload fresh --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("fresh", 3, 5.0, true)
        );
        assert!(parse(argv("--workload fresh --seed x")).is_err());
        assert!(parse(argv("--workload fresh --seed 1 --trace 2")).is_err());
        assert!(parse(argv("--seed 1")).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
