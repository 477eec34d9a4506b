//! Shared harness code for the experiment binaries and Criterion benches:
//! workload construction, table formatting, and the measurement sweeps that
//! regenerate the paper's Table 2 and complexity figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use brsmn_baselines::{BatcherBanyan, BenesNetwork, ComplexityModel, CopyBenesMulticast, NetworkKind};
use brsmn_core::{
    metrics, Brsmn, Engine, EngineConfig, EngineStats, FeedbackBrsmn,
    MulticastAssignment, PlanOpProfile, RoutingResult, StageTimer,
};
use brsmn_rbn::par;
use brsmn_sim::{brsmn_routing_time, feedback_routing_time, looping_routing_time};
use brsmn_workloads::{random_multicast, random_permutation, RandomSpec};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One measured row of the Table 2 sweep at a concrete size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasuredRow {
    /// Network label.
    pub network: String,
    /// Network size.
    pub n: usize,
    /// Gate cost (exact for our designs, modeled for the published
    /// comparators).
    pub cost_gates: f64,
    /// Depth in stages.
    pub depth: f64,
    /// Routing time in gate delays.
    pub routing_time: f64,
}

/// Evaluates all four Table 2 networks at size `n`, using *measured*
/// gate-delay routing times for the paper's designs (from `brsmn-sim`) and
/// the calibrated models for the published comparators.
pub fn table2_at(n: usize) -> Vec<MeasuredRow> {
    NetworkKind::ALL
        .iter()
        .map(|&kind| {
            let model = ComplexityModel::eval(kind, n);
            let routing_time = match kind {
                NetworkKind::NewDesign => brsmn_routing_time(n).total as f64,
                NetworkKind::Feedback => feedback_routing_time(n).total as f64,
                _ => model.routing_time_gd,
            };
            MeasuredRow {
                network: kind.label().to_string(),
                n,
                cost_gates: model.cost_gates,
                depth: model.depth_stages,
                routing_time,
            }
        })
        .collect()
}

/// Measured routing time (gate delays) of the classical copy-then-route
/// baseline at size `n`: dominated by the Beneš distributor's serial looping
/// on a full permutation.
pub fn classical_looping_time(n: usize, seed: u64) -> u64 {
    let benes = BenesNetwork::new(n).expect("valid size");
    let asg = random_permutation(n, seed);
    let perm: Vec<Option<usize>> = (0..n)
        .map(|i| asg.dests(i).first().copied())
        .collect();
    let (_, stats) = benes.route(&perm).expect("permutation routes");
    looping_routing_time(stats.steps)
}

/// A standard dense multicast workload for throughput benches.
pub fn dense_workload(n: usize, seed: u64) -> MulticastAssignment {
    random_multicast(RandomSpec::dense(n), seed)
}

/// Runs one end-to-end routed comparison at size `n` and returns
/// `(brsmn_ok, feedback_ok, classical_ok)` — used as a smoke check by the
/// harness binaries before printing results.
pub fn verify_all_engines(n: usize, seed: u64) -> (bool, bool, bool) {
    let asg = dense_workload(n, seed);
    let a = Brsmn::new(n)
        .unwrap()
        .route(&asg)
        .map(|r| r.realizes(&asg))
        .unwrap_or(false);
    let b = FeedbackBrsmn::new(n)
        .unwrap()
        .route(&asg)
        .map(|(r, _)| r.realizes(&asg))
        .unwrap_or(false);
    let c = CopyBenesMulticast::new(n)
        .unwrap()
        .route(&asg)
        .map(|(r, _)| r.realizes(&asg))
        .unwrap_or(false);
    (a, b, c)
}

/// Exact hardware counts for the cost-scaling figure.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CostPoint {
    /// Network size.
    pub n: usize,
    /// Unfolded BRSMN switches.
    pub brsmn_switches: u64,
    /// Feedback-implementation switches.
    pub feedback_switches: u64,
    /// Classical copy-then-route switches.
    pub classical_switches: u64,
    /// Batcher–banyan comparators + switches (unicast-only fabric).
    pub batcher_elements: u64,
    /// Crossbar crosspoints.
    pub crossbar_points: u64,
}

/// Sweeps exact switch counts over sizes `2^min_pow … 2^max_pow`.
pub fn cost_sweep(min_pow: u32, max_pow: u32) -> Vec<CostPoint> {
    (min_pow..=max_pow)
        .map(|m| {
            let n = 1usize << m;
            let batcher = BatcherBanyan::new(n).unwrap();
            CostPoint {
                n,
                brsmn_switches: metrics::brsmn_switches(n),
                feedback_switches: metrics::feedback_switches(n),
                classical_switches: CopyBenesMulticast::new(n).unwrap().switches(),
                batcher_elements: batcher.comparators() + batcher.banyan_switches(),
                crossbar_points: (n as u64) * (n as u64),
            }
        })
        .collect()
}

/// A batch of dense multicast frames with distinct seeds — the standard
/// input of the parallel-throughput experiments.
pub fn dense_batch(n: usize, frames: usize, seed: u64) -> Vec<MulticastAssignment> {
    (0..frames)
        .map(|f| dense_workload(n, seed.wrapping_add(f as u64)))
        .collect()
}

/// One measured point of the parallel-throughput sweep: the batched engine
/// at a given worker count, with its full per-stage instrumentation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelPoint {
    /// Worker threads used.
    pub workers: usize,
    /// Wall time for the batch, nanoseconds.
    pub wall_nanos: u64,
    /// Frames per second of wall time.
    pub frames_per_sec: f64,
    /// Measured speedup over the 1-worker run of the same sweep.
    pub speedup_vs_one: f64,
    /// Full engine instrumentation (per-level time, switch settings, sweeps).
    pub stats: EngineStats,
}

/// Full report of one parallel-throughput sweep, serializable to JSON for
/// `EXPERIMENTS.md` and the CI artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParallelReport {
    /// Network size.
    pub n: usize,
    /// Frames per batch.
    pub frames: usize,
    /// Workload seed.
    pub seed: u64,
    /// Modeled speedup of 4 replicated hardware fabrics on the same batch
    /// (`brsmn-sim`), for comparison against the software numbers.
    pub modeled_speedup_4_fabrics: f64,
    /// One measurement per worker count, ascending.
    pub points: Vec<ParallelPoint>,
}

/// Routes the same dense batch at each worker count and reports wall time,
/// throughput and speedup. The batch is routed once per worker count; all
/// runs produce bit-identical results (asserted), so the comparison is pure
/// scheduling.
pub fn parallel_sweep(n: usize, frames: usize, seed: u64, worker_counts: &[usize]) -> ParallelReport {
    let batch = dense_batch(n, frames, seed);
    let mut reference: Option<Vec<_>> = None;
    let mut points = Vec::with_capacity(worker_counts.len());
    let mut one_worker_wall = None;
    for &workers in worker_counts {
        let engine = Engine::with_config(n, EngineConfig::batch(workers)).expect("valid size");
        let out = engine.route_batch(&batch);
        let routed: Vec<_> = out
            .results
            .into_iter()
            .map(|r| r.expect("dense workload routes"))
            .collect();
        match &reference {
            None => reference = Some(routed),
            Some(want) => assert_eq!(want, &routed, "worker count changed the results"),
        }
        let stats = out.stats;
        if stats.workers == 1 {
            one_worker_wall = Some(stats.wall_nanos);
        }
        let speedup_vs_one = match one_worker_wall {
            Some(base) if stats.wall_nanos > 0 => base as f64 / stats.wall_nanos as f64,
            _ => 1.0,
        };
        points.push(ParallelPoint {
            workers: stats.workers,
            wall_nanos: stats.wall_nanos,
            frames_per_sec: stats.frames_per_sec(),
            speedup_vs_one,
            stats,
        });
    }
    ParallelReport {
        n,
        frames,
        seed,
        modeled_speedup_4_fabrics: brsmn_sim::simulate_replicated_pipeline(n, frames as u64, 4)
            .speedup(),
        points,
    }
}

/// One measured configuration of the fast-path bench trajectory
/// (`bench_report` / `BENCH_route.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutePoint {
    /// Network size.
    pub n: usize,
    /// Worker threads used.
    pub workers: usize,
    /// What was timed: `"reference"` ([`Brsmn::route_reference`]),
    /// `"batch-cold"` (a cache-less engine: every frame planned fresh),
    /// `"capture-cold"` or `"replay-warm"` (an engine with a plan cache).
    pub path: String,
    /// Frames per second of wall time (best of the repeats).
    pub frames_per_sec: f64,
    /// Nanoseconds per frame (best of the repeats).
    pub ns_per_frame: f64,
    /// Largest per-worker scratch footprint observed, bytes (0 on the
    /// reference path).
    pub scratch_bytes: u64,
    /// Frames served by plan-cache replay during the best run (0 when the
    /// cache is off).
    pub plan_hits: u64,
    /// Frames that planned fresh (capturing a plan when the cache is on)
    /// during the best run.
    pub plan_misses: u64,
    /// Achieved parallelism of the best run (`busy_nanos / wall_nanos`).
    /// On a 1-hardware-thread host this stays ≈ 1.0 at every requested
    /// worker count — the honest explanation of flat multi-worker scaling.
    /// With the `plan-profile` feature and per-thread timers, the profiled
    /// nano totals likewise sum across workers, so a derived busy/wall
    /// ratio **above 1.0 is expected**, not double counting.
    pub busy_over_wall: f64,
    /// Per-op planning profile of the best run (where cold-path planning
    /// time went). Op counts are always exact; nanosecond totals are zero
    /// unless the crate was built with the `plan-profile` feature.
    pub plan_profile: PlanOpProfile,
}

impl RoutePoint {
    /// The point for the best run's `stats` of `frames`-frame batches.
    fn from_stats(path: &str, frames: usize, stats: EngineStats) -> Self {
        RoutePoint {
            n: stats.n,
            workers: stats.workers,
            path: path.into(),
            frames_per_sec: stats.frames_per_sec(),
            ns_per_frame: stats.wall_nanos as f64 / frames as f64,
            scratch_bytes: stats.scratch_bytes,
            plan_hits: stats.plan_hits,
            plan_misses: stats.plan_misses,
            busy_over_wall: stats.speedup(),
            plan_profile: stats.stages.plan_profile,
        }
    }
}

/// Unmeasured passes each `measure_*` function runs before its timed
/// best-of-N repeats: they populate the per-worker thread-local arenas and
/// warm the branch predictors so the first timed repeat is not an outlier.
pub const WARMUP_PASSES: usize = 1;

/// Runs `route` over `batch` on `workers` scoped threads (the engine's
/// worker pool, without the engine), [`WARMUP_PASSES`] times unmeasured
/// and then `repeats` times, and returns the results with the stats of
/// the fastest repeat. `route` gets each frame with that frame's timer and
/// returns its result and arena footprint; the stats hold wall and busy
/// time, the merged timers and the largest footprint.
fn time_frames(
    n: usize,
    batch: &[MulticastAssignment],
    workers: usize,
    repeats: usize,
    route: impl Fn(&MulticastAssignment, &mut StageTimer) -> (RoutingResult, u64) + Sync,
) -> (Vec<RoutingResult>, EngineStats) {
    let workers = par::effective_workers(workers).min(batch.len().max(1));
    let mut best: Option<(Vec<RoutingResult>, EngineStats)> = None;
    for pass in 0..WARMUP_PASSES + repeats.max(1) {
        let wall = Instant::now();
        let frames = par::par_map(batch, workers, |_, asg| {
            let t0 = Instant::now();
            let mut timer = StageTimer::new();
            let (result, bytes) = route(asg, &mut timer);
            (result, timer, bytes, t0.elapsed().as_nanos() as u64)
        });
        let mut stats = EngineStats::empty(n);
        stats.wall_nanos = wall.elapsed().as_nanos() as u64;
        stats.batch = batch.len();
        stats.workers = workers;
        stats.frames_ok = batch.len();
        let mut results = Vec::with_capacity(frames.len());
        for (result, timer, bytes, nanos) in frames {
            stats.stages.merge(&timer);
            stats.scratch_bytes = stats.scratch_bytes.max(bytes);
            stats.busy_nanos += nanos;
            results.push(result);
        }
        if pass >= WARMUP_PASSES
            && best
                .as_ref()
                .is_none_or(|(_, b)| stats.wall_nanos < b.wall_nanos)
        {
            best = Some((results, stats));
        }
    }
    best.expect("at least one repeat")
}

/// Routes `repeats` batches of `frames` dense frames through the allocating
/// reference router ([`Brsmn::route_reference`], the recursion the fast
/// path replaced) on `workers` threads and returns the best-run
/// measurement; results are asserted identical to [`Brsmn::route`].
pub fn measure_reference_path(
    n: usize,
    frames: usize,
    seed: u64,
    workers: usize,
    repeats: usize,
) -> RoutePoint {
    let batch = dense_batch(n, frames, seed);
    let net = Brsmn::new(n).expect("valid size");
    let (results, stats) = time_frames(n, &batch, workers, repeats, |asg, _| {
        (net.route_reference(asg).expect("dense workload routes"), 0)
    });
    for (asg, got) in batch.iter().zip(&results) {
        assert_eq!(got, &net.route(asg).expect("dense workload routes"));
    }
    RoutePoint::from_stats("reference", frames, stats)
}

/// Measures pure **cold planning** throughput on a dense batch, every
/// frame planned fresh through a cache-less engine (the `"batch-cold"`
/// point). Results are asserted bit-identical to [`Brsmn::route`], and the
/// engine is asserted to have batch-planned every frame.
pub fn measure_cold_path(
    n: usize,
    frames: usize,
    seed: u64,
    workers: usize,
    repeats: usize,
) -> RoutePoint {
    let batch = dense_batch(n, frames, seed);
    let net = Brsmn::new(n).expect("valid size");
    let want: Vec<RoutingResult> = batch
        .iter()
        .map(|asg| net.route(asg).expect("dense workload routes"))
        .collect();
    let check = |results: &[RoutingResult]| {
        assert!(
            results.iter().eq(&want),
            "the cold planner changed a routing result"
        );
    };

    // Cold refers to the (absent) plan cache, not the arenas: unmeasured
    // warm-up passes populate the per-worker scratch before timing.
    let engine = Engine::with_config(n, EngineConfig::batch(workers)).expect("valid size");
    for _ in 0..WARMUP_PASSES {
        let out = engine.route_batch(&batch);
        assert!(out.results.iter().all(|r| r.is_ok()), "warm-up routes");
    }
    let mut best: Option<EngineStats> = None;
    for _ in 0..repeats.max(1) {
        let out = engine.route_batch(&batch);
        let results: Vec<RoutingResult> = out
            .results
            .into_iter()
            .map(|r| r.expect("dense workload routes"))
            .collect();
        check(&results);
        assert_eq!(
            out.stats.batch_planned_frames, frames as u64,
            "a cache-less engine batch-plans every frame"
        );
        if best
            .as_ref()
            .is_none_or(|b| out.stats.wall_nanos < b.wall_nanos)
        {
            best = Some(out.stats);
        }
    }
    RoutePoint::from_stats("batch-cold", frames, best.expect("at least one repeat"))
}

/// Measures the plan-capture cache on a batch of `frames` frames cycling
/// `distinct` dense assignments.
///
/// * `warm = true` — the cache is pre-warmed with every distinct assignment
///   (one unmeasured pass), so each measured run is **pure replay**: every
///   frame hits, no planner sweep executes. The `"replay-warm"` point is the
///   steady state of serving traffic with recurring frames.
/// * `warm = false` — a fresh engine per repeat routes an all-distinct
///   batch, so every frame misses, plans fresh, and pays the capture +
///   insert overhead on top. The `"capture-cold"` point bounds the cost of
///   the cache when it never helps.
///
/// Results are asserted bit-identical to a cache-less engine.
pub fn measure_replay_path(
    n: usize,
    frames: usize,
    seed: u64,
    workers: usize,
    distinct: usize,
    warm: bool,
    repeats: usize,
) -> RoutePoint {
    let distinct = distinct.max(1).min(frames);
    let batch: Vec<MulticastAssignment> = if warm {
        let pool = dense_batch(n, distinct, seed);
        (0..frames).map(|f| pool[f % distinct].clone()).collect()
    } else {
        dense_batch(n, frames, seed)
    };

    // Bit-identity oracle: the same batch through a cache-less engine.
    let want = Engine::with_config(n, EngineConfig::batch(workers))
        .expect("valid size")
        .route_batch(&batch);

    let cfg = EngineConfig::batch(workers).with_plan_cache((2 * distinct).max(frames));
    let mut best: Option<EngineStats> = None;
    let mut engine = Engine::with_config(n, cfg).expect("valid size");
    if warm {
        // Unmeasured passes capture every distinct plan (doubling as the
        // arena warm-up the other measure functions run).
        for _ in 0..WARMUP_PASSES {
            let out = engine.route_batch(&batch);
            assert!(out.results.iter().all(|r| r.is_ok()), "warm-up routes");
        }
    }
    // The cold arm deliberately skips warm-up: a fresh engine per repeat is
    // the point (capture + insert on every frame, arenas included).
    for _ in 0..repeats.max(1) {
        if !warm {
            // Cold means cold: a fresh cache every repeat.
            engine = Engine::with_config(n, cfg).expect("valid size");
        }
        let out = engine.route_batch(&batch);
        for (a, b) in want.results.iter().zip(&out.results) {
            assert_eq!(
                a.as_ref().expect("dense workload routes"),
                b.as_ref().expect("dense workload routes"),
                "cache changed a routing result"
            );
        }
        if warm {
            assert_eq!(out.stats.plan_hits, frames as u64, "warm run must be all hits");
        } else {
            assert_eq!(out.stats.plan_misses, frames as u64, "cold run must be all misses");
        }
        if best
            .as_ref()
            .is_none_or(|b| out.stats.wall_nanos < b.wall_nanos)
        {
            best = Some(out.stats);
        }
    }
    let path = if warm { "replay-warm" } else { "capture-cold" };
    RoutePoint::from_stats(path, frames, best.expect("at least one repeat"))
}

/// Renders rows of `(label, values…)` as a GitHub-flavored markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        headers.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_rows_have_expected_order() {
        let rows = table2_at(256);
        assert_eq!(rows.len(), 4);
        // New design's routing time beats both published comparators.
        assert!(rows[2].routing_time < rows[0].routing_time);
        assert!(rows[2].routing_time < rows[1].routing_time);
        // Feedback's cost beats everything among the log-cost rows.
        assert!(rows[3].cost_gates < rows[2].cost_gates);
    }

    #[test]
    fn engines_verify() {
        assert_eq!(verify_all_engines(64, 1), (true, true, true));
    }

    #[test]
    fn classical_looping_time_grows_superlinearly() {
        let t1 = classical_looping_time(64, 1) as f64;
        let t2 = classical_looping_time(512, 1) as f64;
        assert!(t2 / t1 > 8.0, "t1={t1} t2={t2}");
    }

    #[test]
    fn cost_sweep_monotone() {
        let pts = cost_sweep(3, 10);
        assert_eq!(pts.len(), 8);
        for w in pts.windows(2) {
            assert!(w[1].brsmn_switches > w[0].brsmn_switches);
            assert!(w[1].feedback_switches > w[0].feedback_switches);
        }
        // Crossbar overtakes everything quickly.
        let last = pts.last().unwrap();
        assert!(last.crossbar_points > last.brsmn_switches);
    }

    #[test]
    fn parallel_sweep_is_deterministic_and_complete() {
        let report = parallel_sweep(16, 12, 3, &[1, 2]);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[0].workers, 1);
        assert_eq!(report.points[1].workers, 2);
        for p in &report.points {
            assert_eq!(p.stats.frames_ok, 12);
            assert_eq!(p.stats.frames_failed, 0);
            assert!(p.wall_nanos > 0);
        }
        assert!(report.modeled_speedup_4_fabrics > 1.0);
        // Report serializes to JSON.
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("modeled_speedup_4_fabrics"));
        let back: ParallelReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.points.len(), 2);
    }

    #[test]
    fn markdown_renders() {
        let t = markdown_table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 3 | 4 |"));
    }
}
