//! `bench_report` — records the fast-path bench trajectory as
//! `BENCH_route.json`: frames/s and ns/frame for the allocating reference
//! router, the cache-less cold path (`batch-cold`: every frame planned by
//! the engine's level pass), and the plan-capture cache (cold capture /
//! warm replay) at n ∈ {64, 256, 1024}, sequential and on 4 workers, over
//! dense 64-frame batches.
//!
//! ```text
//! cargo run --release -p brsmn-bench --bin bench_report             # writes ./BENCH_route.json
//! cargo run --release -p brsmn-bench --bin bench_report out.json 5  # path + repeats
//! ```
//!
//! Headline numbers, all sequential:
//! * `speedup_batch_cold_vs_reference_seq_n256` — the engine's cold path
//!   over the reference router at n = 256 (the fast-path acceptance bar:
//!   ≥ 2×);
//! * `speedup_batch_cold_vs_reference_seq_n1024` — the same ratio at
//!   n = 1024;
//! * `speedup_replay_warm_vs_batch_cold_seq_n256` — warm plan-cache replay
//!   over the engine's cold path at n = 256 (the plan-cache acceptance bar:
//!   ≥ 2×; the 1.5× cold-vs-warm target itself is gated by
//!   `tests/cold_speedup.rs`).
//!
//! `hardware_threads` records the host's available parallelism: when it is
//! 1, the 4-worker points time-slice one core and their throughput matching
//! the sequential points (busy/wall ≈ 1.0 per point) is expected, not a
//! scheduling defect.

use brsmn_bench::{measure_cold_path, measure_reference_path, measure_replay_path, RoutePoint};
use brsmn_core::PlanOpProfile;
use serde::{Deserialize, Serialize};

const FRAMES: usize = 64;
const SEED: u64 = 7;
/// Distinct assignments cycled by the warm-replay batch.
const DISTINCT: usize = 8;

/// The recorded trajectory (`BENCH_route.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RouteBenchReport {
    /// Frames per batch.
    batch: usize,
    /// Workload seed.
    seed: u64,
    /// Best-of-N repeats per point.
    repeats: usize,
    /// Hardware threads available to this run
    /// (`std::thread::available_parallelism`).
    hardware_threads: usize,
    /// Batch-cold over reference frames/s at n = 256, sequential — the
    /// fast-path acceptance headline.
    speedup_batch_cold_vs_reference_seq_n256: f64,
    /// Batch-cold over reference frames/s at n = 1024, sequential.
    speedup_batch_cold_vs_reference_seq_n1024: f64,
    /// Warm plan-cache replay over batch-cold at n = 256, sequential — the
    /// plan-cache acceptance headline.
    speedup_replay_warm_vs_batch_cold_seq_n256: f64,
    /// Where cold planning time goes, per op category, at n = 256
    /// sequential. Op counts are always exact; nanosecond columns need the
    /// `plan-profile` cargo feature.
    plan_profile_batch_cold_seq_n256: PlanOpProfile,
    /// One measurement per (n, workers, path); every point also embeds its
    /// own `plan_profile`.
    points: Vec<RoutePoint>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("BENCH_route.json");
    let repeats: usize = args.get(1).map_or(5, |s| s.parse().expect("repeats"));

    let mut points = Vec::new();
    for n in [64usize, 256, 1024] {
        for workers in [1usize, 4] {
            points.push(measure_reference_path(n, FRAMES, SEED, workers, repeats));
            points.push(measure_cold_path(n, FRAMES, SEED, workers, repeats));
            for warm in [false, true] {
                points.push(measure_replay_path(
                    n, FRAMES, SEED, workers, DISTINCT, warm, repeats,
                ));
            }
            for p in &points[points.len() - 4..] {
                print_point(p);
            }
        }
    }

    let seq = |n: usize, path: &str| {
        points
            .iter()
            .find(|p| p.n == n && p.workers == 1 && p.path == path)
            .expect("every sequential point is measured")
    };
    let ratio = |n: usize, a: &str, b: &str| {
        let (a, b) = (seq(n, a).frames_per_sec, seq(n, b).frames_per_sec);
        if b > 0.0 {
            a / b
        } else {
            0.0
        }
    };
    let report = RouteBenchReport {
        batch: FRAMES,
        seed: SEED,
        repeats,
        hardware_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        speedup_batch_cold_vs_reference_seq_n256: ratio(256, "batch-cold", "reference"),
        speedup_batch_cold_vs_reference_seq_n1024: ratio(1024, "batch-cold", "reference"),
        speedup_replay_warm_vs_batch_cold_seq_n256: ratio(256, "replay-warm", "batch-cold"),
        plan_profile_batch_cold_seq_n256: seq(256, "batch-cold").plan_profile.clone(),
        points,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(out_path, format!("{json}\n")).expect("write report");
    eprintln!(
        "wrote {out_path}: batch-cold/reference n=256 = {:.2}x, n=1024 = {:.2}x, \
         replay-warm/batch-cold n=256 = {:.2}x",
        report.speedup_batch_cold_vs_reference_seq_n256,
        report.speedup_batch_cold_vs_reference_seq_n1024,
        report.speedup_replay_warm_vs_batch_cold_seq_n256,
    );
}

fn print_point(p: &RoutePoint) {
    eprintln!(
        "n={:5} workers={} path={:12}: {:>12.0} frames/s, {:>10.0} ns/frame, busy/wall {:.2}",
        p.n, p.workers, p.path, p.frames_per_sec, p.ns_per_frame, p.busy_over_wall
    );
}
