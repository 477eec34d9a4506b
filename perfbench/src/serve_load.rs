//! The open-loop `serve-paced` workload: a 3-tenant conference-churn trace
//! submitted tick by tick on a fixed wall-clock schedule to a warm-started
//! [`Server`], whatever the server's progress.

use crate::layers::{route_batch_layers, set_layer_metrics, Checked};
use crate::spans::Tracer;
use crate::stats::{median, percentile, sorted, windowed_median};
use crate::{set_setup_metrics, sys, Args, Metrics, Outcome, Phases, Scale, END_TO_END, PER_LAYER};
use brsmn_core::{Brsmn, Engine, EngineConfig, MulticastAssignment};
use brsmn_serve::{ChurnTraceSpec, ServeConfig, ServeReport, Server, TenantSpec, Trace};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-tenant queue quota: far above what a tick offers, so only a stalled
/// server could refuse a request.
const TENANT_QUOTA: usize = 1024;

/// Ticks a request may wait before it is shed: 25 ticks (300 ms at full
/// scale), so only a stall of the host, not ordinary queueing, sheds.
const DEADLINE_SLACK_TICKS: u64 = 25;

/// How long before a tick is due the generator stops sleeping, times a
/// yardstick slice and spins: a sleeping thread on a virtual machine's idle
/// CPU can wake a millisecond or more late when the host is busy, and that
/// delay would be charged to every request of the tick.
const SPIN_AHEAD: Duration = Duration::from_millis(3);

/// The churn trace for a run of `seconds`: the fewest whole ticks that
/// hold `seconds × Scale::serve_rate_per_s` requests, so every seed offers
/// the same load for the same time and keeps about as much in memory.
pub fn churn_trace(scale: &Scale, seed: u64, seconds: f64) -> Result<Trace, String> {
    let want = (seconds * scale.serve_rate_per_s).round().max(1.0) as usize;
    // A quarter more ticks than the nominal length; doubled if too few.
    let mut rounds = (seconds / scale.tick.as_secs_f64() * 1.25).ceil() as usize + 1;
    loop {
        let spec = ChurnTraceSpec {
            rounds,
            deadline_slack: DEADLINE_SLACK_TICKS,
            ..ChurnTraceSpec::default_for(scale.n)
        };
        let mut trace = Trace::from_churn(spec, seed)?;
        if let Some(last) = trace.requests.get(want - 1).map(|r| r.tick) {
            trace.requests.retain(|r| r.tick <= last);
            return Ok(trace);
        }
        if rounds > want {
            return Err(format!(
                "{rounds} churn ticks hold fewer than {want} requests"
            ));
        }
        rounds *= 2;
    }
}

/// Request index ranges of each tick (`from_churn` emits requests in tick
/// order).
pub fn tick_ranges(trace: &Trace) -> Vec<Range<usize>> {
    let ticks = trace.requests.last().map_or(0, |r| r.tick as usize + 1);
    let mut ranges = Vec::with_capacity(ticks);
    let mut start = 0;
    for t in 0..ticks as u64 {
        let end = start
            + trace.requests[start..]
                .iter()
                .take_while(|r| r.tick == t)
                .count();
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// The tick period at which `requests` spread over `ticks` ticks arrive at
/// `rate` per second on average.
pub fn tick_period(requests: usize, ticks: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(requests as f64 / (rate * ticks.max(1) as f64))
}

/// The frame the server builds for one request: `source → dests`.
pub fn frame(n: usize, source: usize, dests: &[usize]) -> MulticastAssignment {
    let mut sets = vec![Vec::new(); n];
    sets[source] = dests.to_vec();
    MulticastAssignment::from_sets(n, sets).expect("trace requests are valid frames")
}

/// The serving configuration: one shard, one worker, a tenant per trace
/// tenant, fanout up to the whole fabric, and a batch window of one engine
/// batch.
pub fn serve_config(scale: &Scale, tenants: u32) -> ServeConfig {
    let mut cfg = ServeConfig::new(scale.n);
    cfg.queue.max_fanout = scale.n;
    cfg.queue_capacity = TENANT_QUOTA * tenants as usize;
    cfg.batch_window = scale.batch;
    cfg.plan_cache = scale.serve_cache;
    cfg.tenants = vec![
        TenantSpec {
            quota: TENANT_QUOTA,
            weight: 1
        };
        tenants as usize
    ];
    cfg
}

/// FNV-1a digest of one correctly delivered request, folded the way
/// `ServeReport.output_hash` folds a completion: the request id, then every
/// reached output with its source plus one, in output order.
pub fn delivery_hash(id: u64, source: usize, dests: &[usize]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = BASIS;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(id);
    let mut outputs = dests.to_vec();
    outputs.sort_unstable();
    outputs.dedup();
    for o in outputs {
        eat(o as u64);
        eat(source as u64 + 1);
    }
    h
}

/// The `output_hash` a correct server reports after serving `ids` of
/// `trace` (request id = trace index).
pub fn expected_output_hash(trace: &Trace, ids: impl IntoIterator<Item = u64>) -> u64 {
    ids.into_iter()
        .map(|id| {
            let r = &trace.requests[id as usize];
            delivery_hash(id, r.source, &r.dests)
        })
        .fold(0, u64::wrapping_add)
}

/// A warm server and the trace it will be fed.
pub struct Setup {
    /// The requests, in submission order.
    pub trace: Trace,
    /// Request ranges of each tick.
    pub ticks: Vec<Range<usize>>,
    /// Wall time between two ticks: the trace's requests spread at
    /// `Scale::serve_rate_per_s`.
    pub tick: Duration,
    /// The engine that pre-warmed the server's plan cache (it shares it).
    pub engine: Engine,
    /// The running server.
    pub server: Server,
    /// Thread id of the serving thread, when it could be told apart.
    pub server_tid: Option<u64>,
    /// How long each set-up phase took.
    pub phases: Phases,
}

/// Generates the trace, pre-warms a plan cache through an [`Engine`] that
/// shares it, and starts the server on it. A single-source request's
/// relabeling class is fixed by its fanout, so routing one request per
/// fanout seen in the trace leaves every request a cache hit.
pub fn setup(scale: &Scale, seed: u64, seconds: f64) -> Result<Setup, String> {
    let t = Instant::now();
    let trace = churn_trace(scale, seed, seconds)?;
    let ticks = tick_ranges(&trace);
    let tick = tick_period(trace.len(), ticks.len(), scale.serve_rate_per_s);
    let mut by_fanout = BTreeMap::new();
    for r in &trace.requests {
        by_fanout.entry(r.dests.len()).or_insert(r);
    }
    let reps: Vec<MulticastAssignment> = by_fanout
        .values()
        .map(|r| frame(scale.n, r.source, &r.dests))
        .collect();
    let inputs = t.elapsed();

    let t = Instant::now();
    let engine = Engine::with_config(
        scale.n,
        EngineConfig::batch(1).with_plan_cache(scale.serve_cache),
    )
    .map_err(|e| format!("engine: {e}"))?;
    let cache = Arc::clone(engine.plan_cache().expect("plan cache is on"));
    let mut build = t.elapsed();

    let t = Instant::now();
    for b in reps.chunks(scale.batch) {
        let failed = engine.route_batch(b).stats.frames_failed;
        if failed > 0 {
            return Err(format!("cache pre-warm: {failed} frames failed"));
        }
    }
    let prewarm = t.elapsed();

    let before = sys::thread_ids();
    let t = Instant::now();
    let server = Server::start_warm(serve_config(scale, trace.tenant_count()), cache)
        .map_err(|e| format!("server: {e}"))?;
    build += t.elapsed();
    let spawned: Vec<u64> = sys::thread_ids()
        .into_iter()
        .filter(|t| !before.contains(t))
        .collect();
    Ok(Setup {
        trace,
        ticks,
        tick,
        engine,
        server,
        server_tid: (spawned.len() == 1).then(|| spawned[0]),
        phases: [inputs, build, prewarm],
    })
}

/// Each non-empty tick's requests as one engine batch, built only when the
/// iterator reaches it so one tick's frames are alive at a time.
fn tick_batches(s: &Setup, n: usize) -> impl Iterator<Item = Vec<MulticastAssignment>> + '_ {
    s.ticks.iter().filter(|r| !r.is_empty()).map(move |r| {
        s.trace.requests[r.clone()]
            .iter()
            .map(|q| frame(n, q.source, &q.dests))
            .collect()
    })
}

/// Waits until `due` after `t0`: sleeps until [`SPIN_AHEAD`] before it,
/// times one yardstick slice (the host's speed just before the tick, while
/// the serving thread is idle), then spins until `due`, yielding to any
/// thread that shares the CPU. Returns the slice's time, or `None` when too
/// little time was left to run one.
fn pace_until(t0: Instant, due: Duration) -> Option<f64> {
    let due = t0 + due;
    let left = due.checked_duration_since(Instant::now())?;
    if left < SPIN_AHEAD {
        while Instant::now() < due {
            std::thread::yield_now();
        }
        return None;
    }
    std::thread::sleep(left - SPIN_AHEAD);
    let slice = sys::yardstick_slice_time().as_secs_f64();
    while Instant::now() < due {
        std::thread::yield_now();
    }
    Some(slice)
}

/// What one paced run saw.
pub struct Paced {
    /// Due → completion latency of every request, in milliseconds;
    /// infinite for a request that was refused, shed or failed.
    pub latency_ms: Vec<f64>,
    /// The same latencies at the reference host speed
    /// ([`sys::window_speeds`] over the ticks' yardstick slices).
    pub ref_latency_ms: Vec<f64>,
    /// How late the generator started each non-empty tick, in microseconds.
    pub late_us: Vec<f64>,
    /// Completed requests per second, first due time to last completion.
    pub throughput_per_s: f64,
    /// The host's median speed over the run's windows, relative to
    /// [`sys::REFERENCE_YARDSTICK_PER_S`].
    pub host_speed: f64,
    /// Serving thread `(on-CPU, run-queue)` nanoseconds during the run.
    pub loop_sched: Option<(u64, u64)>,
    /// The server's report.
    pub report: ServeReport,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
}

/// Submits tick `t`'s requests at `t × s.tick` after the start, each with
/// its trace deadline converted to wall time, then shuts the server down
/// and checks its report.
pub fn run_paced(s: Setup, tr: &mut Tracer) -> Paced {
    let Setup {
        trace,
        ticks,
        tick,
        mut server,
        server_tid,
        ..
    } = s;
    let tick_ns = tick.as_nanos() as u64;
    let mut submitted_at = vec![0u64; trace.requests.len()];
    let mut late_us = Vec::with_capacity(ticks.len());
    let mut slice_s = Vec::with_capacity(ticks.len());
    let sched0 = server_tid.and_then(sys::schedstat);
    let t0 = Instant::now();
    for (t, range) in ticks.iter().enumerate() {
        if range.is_empty() {
            continue;
        }
        let due = t as u64 * tick_ns;
        slice_s.push(pace_until(t0, Duration::from_nanos(due)));
        let tick_span = tr.open("serve.tick", None, t as u64);
        for idx in range.clone() {
            let req = &trace.requests[idx];
            let at = t0.elapsed().as_nanos() as u64;
            if idx == range.start {
                late_us.push((at - due) as f64 / 1e3);
            }
            let deadline = req.deadline.map(|d| (d * tick_ns).saturating_sub(at));
            let span = tr.open("serve.submit", Some(tick_span), idx as u64);
            // Refusals are counted in the report; request ids are trace
            // indexes because every request is offered once, in order.
            let _ = server.submit_for(req.tenant_id(), req.source, &req.dests, deadline);
            tr.close(span);
            submitted_at[idx] = at;
        }
        tr.close(tick_span);
    }
    let sched1 = server_tid.and_then(sys::schedstat);
    let span = tr.open("serve.shutdown", None, 0);
    let report = server.shutdown();
    tr.close(span);

    let mut problems = Vec::new();
    let mut latency_ms = vec![f64::INFINITY; trace.requests.len()];
    let mut last_done = 0u64;
    let mut served_ids = Vec::with_capacity(report.completions.len());
    for c in &report.completions {
        let Some(req) = trace.requests.get(c.id as usize) else {
            problems.push(format!("completion for unknown request {}", c.id));
            continue;
        };
        served_ids.push(c.id);
        if c.ok {
            let done = submitted_at[c.id as usize] + c.latency_ns;
            latency_ms[c.id as usize] = (done - req.tick * tick_ns) as f64 / 1e6;
            last_done = last_done.max(done);
        }
    }
    if report.submitted != trace.requests.len() as u64 {
        problems.push(format!(
            "{} of {} requests submitted",
            report.submitted,
            trace.requests.len()
        ));
    }
    if !report.conserves() {
        problems.push("report breaks the conservation law".to_string());
    }
    if !report.quotas_respected() {
        problems.push("a tenant queue exceeded its quota".to_string());
    }
    if report.served_err > 0 {
        problems.push(format!(
            "{} served requests failed to route",
            report.served_err
        ));
    }
    let want = expected_output_hash(&trace, served_ids);
    if report.output_hash != want {
        problems.push(format!(
            "output hash {:#x} differs from the correct deliveries' {want:#x}",
            report.output_hash
        ));
    }
    // Each request's latency at the speed the host ran at before its tick.
    let speeds = sys::window_speeds(&slice_s);
    let ref_latency_ms = ticks
        .iter()
        .filter(|r| !r.is_empty())
        .zip(&speeds)
        .flat_map(|(r, &speed)| latency_ms[r.clone()].iter().map(move |l| l * speed))
        .collect();
    let first_due = ticks.iter().position(|r| !r.is_empty()).unwrap_or(0) as u64 * tick_ns;
    let span_s = last_done.saturating_sub(first_due) as f64 / 1e9;
    Paced {
        latency_ms,
        ref_latency_ms,
        late_us,
        throughput_per_s: report.served_ok as f64 / span_s,
        host_speed: median(&speeds),
        loop_sched: sched0.zip(sched1).map(|(a, b)| (b.0 - a.0, b.1 - a.1)),
        report,
        problems,
    }
}

/// The untraced run: set up several times (each extra server is shut down
/// unused), then one paced run on the last set-up.
pub fn measure(args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready: Option<Setup> = None;
    for _ in 0..scale.setups.max(1) {
        if let Some(old) = ready.take() {
            old.server.shutdown();
        }
        let (s, secs) = sys::time_at_reference(|| setup(scale, args.seed, args.seconds));
        ready = Some(s?);
        setup_s.push(secs);
    }
    let run = run_paced(ready.expect("at least one set-up"), &mut Tracer::off());
    let p50 = |ms: &[f64]| percentile(&sorted(ms.to_vec()), 0.5);
    let p90 = |ms: &[f64]| percentile(&sorted(ms.to_vec()), 0.9);
    let wall = &run.latency_ms;
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&setup_s));
    m.set("throughput_per_s", run.throughput_per_s);
    m.set("latency_p50_ms", windowed_median(&run.ref_latency_ms, p50));
    m.set("latency_p90_ms", windowed_median(&run.ref_latency_ms, p90));
    Ok(Outcome {
        attempted: run.report.submitted,
        failed: run.report.rejected + run.report.served_err,
        problems: run.problems,
        metrics: m,
        notes: vec![
            ("requests".to_string(), wall.len() as f64),
            ("rejected".to_string(), run.report.rejected as f64),
            (
                "shed".to_string(),
                run.report.rejections.deadline_exceeded as f64,
            ),
            ("served_err".to_string(), run.report.served_err as f64),
            ("host_speed".to_string(), run.host_speed),
            ("wall.latency_p50_ms".to_string(), p50(wall)),
            ("wall.latency_p90_ms".to_string(), p90(wall)),
        ],
    })
}

/// The traced run. Four identical set-ups from the same seed:
///
/// 1. an untraced paced run, the reference for `trace.overhead_ratio`;
/// 2. the paced run with spans around `submit_for` and `shutdown`, plus the
///    serving thread's scheduler statistics;
/// 3. the same requests, one tick per batch, through the pre-warm engine's
///    `route_batch` (the server's own calls run on its thread, out of the
///    benchmark's reach);
/// 4. those batches through [`route_batch_layers`].
pub fn trace(args: &Args, scale: &Scale, spans_dir: Option<&Path>) -> Result<Outcome, String> {
    let mut phases = Vec::new();
    let mut problems = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;

    let s = setup(scale, args.seed, args.seconds)?;
    phases.push(s.phases);
    let plain = run_paced(s, &mut Tracer::off());
    problems.extend(plain.problems);

    let s = setup(scale, args.seed, args.seconds)?;
    phases.push(s.phases);
    let mut paced = Tracer::on();
    let real = run_paced(s, &mut paced);
    problems.extend(real.problems.iter().cloned());
    for r in [&plain.report, &real.report] {
        attempted += r.submitted;
        failed += r.rejected + r.served_err;
    }

    let mut checked = Checked::default();
    let mut calls = Tracer::on();
    let s = setup(scale, args.seed, args.seconds)?;
    phases.push(s.phases);
    for (k, batch) in tick_batches(&s, scale.n).enumerate() {
        let span = calls.open("engine.route_batch", None, k as u64);
        let out = s.engine.route_batch(&batch);
        calls.close(span);
        checked.batch(k, &batch, &out.results);
    }
    s.server.shutdown();

    let mut layers = Tracer::on();
    let s = setup(scale, args.seed, args.seconds)?;
    phases.push(s.phases);
    let net = Brsmn::new(scale.n).map_err(|e| e.to_string())?;
    let cache = s.engine.plan_cache().expect("plan cache is on");
    for (k, batch) in tick_batches(&s, scale.n).enumerate() {
        let span = layers.open("engine.layers", None, k as u64);
        let results = route_batch_layers(&net, cache, &batch, &mut layers, span)?;
        layers.close(span);
        checked.batch(k, &batch, &results);
    }
    s.server.shutdown();
    problems.extend(checked.problems);
    attempted += checked.frames;
    failed += checked.failed;

    let mut m = Metrics::new(PER_LAYER);
    set_setup_metrics(&mut m, &phases);
    let rep = &real.report;
    set_layer_metrics(&mut m, &rep.engine, &calls, &layers);
    let submit_us = sorted(
        paced
            .durations_ms("serve.submit")
            .iter()
            .map(|v| v * 1e3)
            .collect(),
    );
    m.set("serve.submit.ms", submit_us.iter().sum::<f64>() / 1e3);
    if !submit_us.is_empty() {
        m.set("serve.submit.p99_us", percentile(&submit_us, 0.99));
    }
    if let Some((cpu, runq)) = real.loop_sched {
        m.set("serve.loop.cpu_ms", cpu as f64 / 1e6);
        m.set("serve.loop.runq_ms", runq as f64 / 1e6);
    }
    let served = rep.accepted + rep.drained;
    m.set("serve.rounds", rep.rounds as f64);
    m.set(
        "serve.frames_per_round",
        served as f64 / rep.rounds.max(1) as f64,
    );
    m.set(
        "serve.shutdown.ms",
        paced.durations_ms("serve.shutdown").iter().sum(),
    );
    m.set("serve.rejected", rep.rejected as f64);
    m.set("serve.shed", rep.rejections.deadline_exceeded as f64);
    let late = sorted(real.late_us.clone());
    if !late.is_empty() {
        m.set("serve.gen.late_p50_us", percentile(&late, 0.5));
        m.set("serve.gen.late_p99_us", percentile(&late, 0.99));
    }
    let lat = sorted(real.latency_ms.clone());
    m.set("serve.latency_p99_ms", percentile(&lat, 0.99));
    let plain_p50 = percentile(&sorted(plain.latency_ms), 0.5);
    m.set("trace.overhead_ratio", percentile(&lat, 0.5) / plain_p50);

    if let Some(dir) = spans_dir {
        let stem = "serve-paced";
        paced
            .write_jsonl(&dir.join(format!("{stem}-serve.jsonl")))
            .and_then(|_| calls.write_jsonl(&dir.join(format!("{stem}-calls.jsonl"))))
            .and_then(|_| layers.write_jsonl(&dir.join(format!("{stem}-layers.jsonl"))))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        metrics: m,
        notes: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_hash_fold_matches_the_server() {
        let scale = Scale::tiny();
        let trace = churn_trace(&scale, 9, 0.01).unwrap();
        assert!(trace.len() > 10);
        let mut cfg = serve_config(&scale, trace.tenant_count());
        cfg.queue_capacity = 4;
        let report = brsmn_serve::serve_trace(cfg, &trace).unwrap();
        assert_eq!(report.served_ok, trace.len() as u64);
        let ids = report.completions.iter().map(|c| c.id);
        assert_eq!(expected_output_hash(&trace, ids), report.output_hash);
        // A wrong delivery changes the digest.
        assert_ne!(delivery_hash(0, 1, &[2, 3]), delivery_hash(0, 1, &[2, 4]));
    }

    #[test]
    fn ticks_pace_the_trace_deterministically() {
        let scale = Scale::tiny();
        let a = churn_trace(&scale, 4, 0.02).unwrap();
        assert_eq!(a, churn_trace(&scale, 4, 0.02).unwrap());
        assert_ne!(a, churn_trace(&scale, 5, 0.02).unwrap());
        let ticks = tick_ranges(&a);
        assert_eq!(ticks, tick_ranges(&a.clone()));
        // 20 ms at 4,000 requests per second, cut after a whole tick.
        let last = ticks.last().unwrap();
        assert_eq!(last.end, a.len());
        assert!(a.len() >= 80 && last.start < 80, "{} requests", a.len());
        for (t, r) in ticks.iter().enumerate() {
            assert!(a.requests[r.clone()].iter().all(|q| q.tick == t as u64));
        }
        // Whatever the seed's request count, the ticks offer the set rate.
        let period = tick_period(a.len(), ticks.len(), scale.serve_rate_per_s);
        let rate = a.len() as f64 / (period.as_secs_f64() * ticks.len() as f64);
        assert!((rate / scale.serve_rate_per_s - 1.0).abs() < 1e-6);
    }
}
