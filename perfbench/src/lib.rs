//! End-to-end and per-layer benchmark of the BRSMN routing engine and its
//! serving loop.
//!
//! One command runs a named workload from a seed, checks every output, and
//! prints the metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics ([`END_TO_END`]) with no
//! tracing. `--trace 1` is a separate run of the same workload and seed that
//! times the calls into each layer from this crate's own code and reports
//! [`PER_LAYER`]; its spans are written to `spans/<workload>-*.jsonl`
//! beside the executable, replacing the previous traced run's.

pub mod engine_load;
pub mod layers;
pub mod rng;
pub mod serve_load;
pub mod spans;
pub mod stats;
pub mod sys;

use std::fmt::Write as _;
use std::time::Duration;

/// The end-to-end metrics, with their units, printed by every untraced run:
///
/// * `setup_s`: median over several set-ups of input generation,
///   construction and cache pre-fill, each read at the host speed measured
///   just before and after it ([`sys::time_at_reference`]);
/// * `throughput_per_s`: frames routed per second of `route_batch` time
///   (engine workloads); completed requests per second from the first due
///   time to the last completion (serve-paced);
/// * `latency_p50_ms`, `latency_p90_ms`: per `route_batch` call of one
///   batch (engine workloads, closed loop); from each request's due time to
///   its completion, a refused or shed request counting as infinite
///   (serve-paced, open loop);
/// * `peak_rss_mb`: the process's `VmHWM` at exit.
///
/// Times are given at a reference host speed ([`sys::window_speeds`]): a
/// yardstick slice after every engine batch, and before every tick of the
/// serving trace, measures how fast the host runs at that moment, which on
/// a shared host drifts by a third within a minute. serve-paced offers a
/// load low enough that its latency stays proportional to the host's
/// speed. Throughput and latency percentiles are medians over ten windows
/// of the run ([`stats::windowed_median`]). The wall-clock figures print
/// beside the metrics on standard error.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, with their units, printed by every traced run. A
/// layer the workload bypasses reads 0. Times (`ms`) and counts are totals
/// over the traced pass. What each group should move:
///
/// * `serve.*`: latency on serve-paced; nothing elsewhere.
/// * `engine.*`: throughput on warm-zipf (largest dispatch share) and
///   cold-capture; latency on serve-paced through its tick-sized rounds.
/// * `plancache.probe`, `lookup_canonical`: warm-zipf throughput,
///   serve-paced latency. `plancache.insert`, `evictions`: cold-capture
///   throughput. `plancache.bytes`: `peak_rss_mb`.
/// * `canonical.*`: cold-capture and warm-zipf throughput, serve-paced
///   latency.
/// * `batch.*`, `rbn.*`: cold-capture throughput only; zero elsewhere.
/// * `fastpath.*`: warm-zipf throughput, serve-paced latency.
/// * `setup.*`: `setup_s`.
/// * `trace.overhead_ratio` (traced over untraced route time; p50 latency
///   on serve-paced) and `machine.yardstick_per_s`: diagnostics only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit.ms", "ms"),
    ("serve.submit.p99_us", "us"),
    ("serve.loop.cpu_ms", "ms"),
    ("serve.loop.runq_ms", "ms"),
    ("serve.rounds", "count"),
    ("serve.frames_per_round", "frames"),
    ("serve.shutdown.ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.gen.late_p50_us", "us"),
    ("serve.gen.late_p99_us", "us"),
    ("serve.latency_p99_ms", "ms"),
    ("engine.route_batch.ms", "ms"),
    ("engine.route_batch.p90_ms", "ms"),
    ("engine.busy_ms", "ms"),
    ("engine.dispatch.ms", "ms"),
    ("engine.level1_ms", "ms"),
    ("engine.level2_ms", "ms"),
    ("engine.level3_ms", "ms"),
    ("engine.level4_ms", "ms"),
    ("engine.level5_ms", "ms"),
    ("engine.level6_ms", "ms"),
    ("engine.level7_ms", "ms"),
    ("engine.final_ms", "ms"),
    ("engine.frames_failed", "count"),
    ("plancache.probe.ms", "ms"),
    ("plancache.lookup_canonical.ms", "ms"),
    ("plancache.insert.ms", "ms"),
    ("plancache.exact_hits", "count"),
    ("plancache.canonical_hits", "count"),
    ("plancache.misses", "count"),
    ("plancache.evictions", "count"),
    ("plancache.bytes", "bytes"),
    ("canonical.calls", "count"),
    ("canonical.ms", "ms"),
    ("batch.route_frames.ms", "ms"),
    ("batch.planned_frames", "count"),
    ("rbn.tag_derive_ops", "count"),
    ("rbn.rank_ops", "count"),
    ("rbn.scatter_ops", "count"),
    ("rbn.quasisort_ops", "count"),
    ("rbn.sweep_passes", "count"),
    ("fastpath.replay.ms", "ms"),
    ("fastpath.replay_permuted.ms", "ms"),
    ("fastpath.scratch_bytes", "bytes"),
    ("setup.inputs_ms", "ms"),
    ("setup.build_ms", "ms"),
    ("setup.prewarm_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("machine.yardstick_per_s", "1/s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one client: every frame misses both cache tiers, so the
    /// SoA planner and the cache's write path do the work.
    ColdCapture,
    /// Closed loop, one client: Zipf-drawn recurring shapes, half of them
    /// relabeled, all served by the cache's two tiers and replay.
    WarmZipf,
    /// Open loop: a paced multi-tenant conference trace through the
    /// serving front end.
    ServePaced,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ColdCapture,
        Workload::WarmZipf,
        Workload::ServePaced,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCapture => "cold-capture",
            Workload::WarmZipf => "warm-zipf",
            Workload::ServePaced => "serve-paced",
        }
    }

    fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                format!("unknown workload {s:?} (expected cold-capture, warm-zipf or serve-paced)")
            })
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// `true` for the per-layer traced run.
    pub trace: bool,
}

/// Usage line printed on a bad command line.
pub const USAGE: &str =
    "usage: perfbench --workload <cold-capture|warm-zipf|serve-paced> --seed <u64> --seconds <s> --trace <0|1>";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`; all four
    /// are required and anything else is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Sizes of every workload. [`Scale::full`] is what the command runs;
/// [`Scale::tiny`] keeps the smoke tests fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Network size.
    pub n: usize,
    /// Frames per engine batch.
    pub batch: usize,
    /// cold-capture: distinct frames cycled through (a multiple of `batch`).
    pub cold_pool: usize,
    /// cold-capture: plan-cache capacity, well below `cold_pool`.
    pub cold_cache: usize,
    /// warm-zipf: distinct shapes the Zipf stream draws from.
    pub zipf_pool: usize,
    /// warm-zipf: plan-cache capacity, large enough for the whole pool.
    pub zipf_cache: usize,
    /// warm-zipf: pre-generated batches cycled through.
    pub zipf_batches: usize,
    /// Engine batches each pass of the traced run routes per second of
    /// `--seconds`: cold-capture, then warm-zipf. Fixed work, so the
    /// traced counts repeat exactly for a seed; at full scale the three
    /// passes together take about `--seconds` on a 2.1 GHz Xeon.
    pub trace_batches_per_s: [f64; 2],
    /// serve-paced: about the wall time between two ticks; it sizes the
    /// trace generated before it is cut to `--seconds` worth of requests.
    pub tick: Duration,
    /// serve-paced: mean offered rate in requests per second. Each seed's
    /// tick period is set so its trace offers exactly this rate on
    /// average, whatever its request count.
    pub serve_rate_per_s: f64,
    /// serve-paced: plan-cache capacity.
    pub serve_cache: usize,
    /// Times the untraced run repeats set-up (the median is reported).
    pub setups: usize,
    /// Fewest batches an untraced engine run times, however short.
    pub min_batches: usize,
    /// Yardstick slices timed at the start of a run.
    pub yardstick_slices: usize,
}

impl Scale {
    /// The benchmark as recorded.
    pub fn full() -> Scale {
        Scale {
            n: 256,
            batch: 64,
            cold_pool: 1024,
            cold_cache: 256,
            zipf_pool: 512,
            zipf_cache: 1024,
            zipf_batches: 32,
            trace_batches_per_s: [12.0, 30.0],
            tick: Duration::from_millis(12),
            serve_rate_per_s: 1500.0,
            serve_cache: 1024,
            setups: 5,
            min_batches: 8,
            yardstick_slices: 200,
        }
    }

    /// A few milliseconds of each workload, for tests.
    pub fn tiny() -> Scale {
        Scale {
            n: 16,
            batch: 8,
            cold_pool: 64,
            cold_cache: 16,
            zipf_pool: 16,
            zipf_cache: 64,
            zipf_batches: 4,
            trace_batches_per_s: [100.0, 100.0],
            tick: Duration::from_micros(500),
            serve_rate_per_s: 4_000.0,
            serve_cache: 256,
            setups: 3,
            min_batches: 2,
            yardstick_slices: 1,
        }
    }
}

/// Set-up phase durations: input generation, construction, cache pre-fill.
pub type Phases = [Duration; 3];

/// Sets the `setup.*` metrics to the median phase times of several set-ups,
/// in milliseconds.
pub fn set_setup_metrics(m: &mut Metrics, phases: &[Phases]) {
    let names = ["setup.inputs_ms", "setup.build_ms", "setup.prewarm_ms"];
    for (k, name) in names.iter().enumerate() {
        let v: Vec<f64> = phases.iter().map(|p| p[k].as_secs_f64() * 1e3).collect();
        m.set(name, stats::median(&v));
    }
}

/// Named metric values in the order of a metric list.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    list: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    /// All of `list`, each 0 until set.
    pub fn new(list: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            list,
            values: vec![0.0; list.len()],
        }
    }

    /// Sets metric `name`, which must be in the list.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .list
            .iter()
            .position(|(m, _)| *m == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the list"));
        // An empty float sum is -0.0; print it as 0.
        self.values[i] = value + 0.0;
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        let i = self.list.iter().position(|(m, _)| *m == name)?;
        Some(self.values[i])
    }

    /// `(name, unit, value)` in list order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.list
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), &v)| (name, unit, v))
    }
}

/// What one run produced: the result line plus every failed
/// output check.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations offered (frames or requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Output checks that did not hold; empty when every output is correct.
    pub problems: Vec<String>,
    /// The metrics.
    pub metrics: Metrics,
    /// Diagnostics printed beside the metrics but not part of them.
    pub notes: Vec<(String, f64)>,
}

impl Outcome {
    /// `true` when every output check held.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            // JSON has no infinity: a percentile that lands on a refused
            // request reads as the largest finite number.
            let v = if v.is_finite() { v } else { f64::MAX };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        s.push_str("}}");
        s
    }
}

/// Runs `args.workload` at `scale`. `spans_dir` receives the traced run's
/// spans.
pub fn run(
    args: &Args,
    scale: &Scale,
    spans_dir: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let yardstick = sys::yardstick_per_s(scale.yardstick_slices);
    let mut out = match (args.workload, args.trace) {
        (Workload::ServePaced, false) => serve_load::measure(args, scale)?,
        (Workload::ServePaced, true) => serve_load::trace(args, scale, spans_dir)?,
        (w, false) => engine_load::measure(w, args, scale)?,
        (w, true) => engine_load::trace(w, args, scale, spans_dir)?,
    };
    if args.trace {
        out.metrics.set("machine.yardstick_per_s", yardstick);
    } else {
        out.metrics.set("peak_rss_mb", sys::peak_rss_mb()?);
        out.notes
            .push(("machine.yardstick_per_s".to_string(), yardstick));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(argv(
            "--workload warm-zipf --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::WarmZipf);
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload warm-zipf --seed 1 --seconds 1",
            "--workload warm-zipf --seed 1 --seconds 1 --trace 2",
            "--workload warm-zipf --seed x --seconds 1 --trace 0",
            "--workload warm-zipf --seed 1 --seconds 0 --trace 0",
            "--workload warm-zipf --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(Args::parse(argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 0.25);
        metrics.set("latency_p90_ms", f64::INFINITY);
        let o = Outcome {
            attempted: 10,
            failed: 1,
            problems: vec![],
            metrics,
            notes: vec![],
        };
        let j = o.to_json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {")
        );
        assert!(j.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(!j.contains("inf"));
        assert!(j.ends_with("}}"));
    }
}
