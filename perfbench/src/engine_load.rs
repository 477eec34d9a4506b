//! The closed-loop engine workloads, `cold-capture` and `warm-zipf`: one
//! client hands the [`Engine`] a batch, waits for its delivery, and hands it
//! the next.

use crate::layers::{route_batch_layers, set_layer_metrics, Checked};
use crate::rng::{SplitMix64, Zipf};
use crate::spans::Tracer;
use crate::stats::{median, percentile, sorted, windowed_median};
use crate::{
    set_setup_metrics, sys, Args, Metrics, Outcome, Phases, Scale, Workload, END_TO_END, PER_LAYER,
};
use brsmn_core::{
    canonicalize, relabel_inputs, relabel_outputs, Brsmn, Engine, EngineConfig, EngineStats,
    MulticastAssignment,
};
use brsmn_workloads::random::{random_multicast, RandomSpec};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// Zipf exponent of the warm-zipf shape stream.
pub const ZIPF_S: f64 = 1.1;
/// Share of warm-zipf frames relabeled by random input and output
/// permutations (served by the cache's canonical tier).
pub const RELABEL_SHARE: f64 = 0.5;

const STREAM_COLD_POOL: u64 = 1;
const STREAM_ZIPF_POOL: u64 = 2;
const STREAM_ZIPF_DRAWS: u64 = 3;

/// A ready engine and the batches the timed loop cycles through.
pub struct Setup {
    /// The engine under test, plan cache on.
    pub engine: Engine,
    /// Timed batches, cycled in order.
    pub batches: Vec<Vec<MulticastAssignment>>,
    /// How long each set-up phase took.
    pub phases: Phases,
}

/// `count` dense frames with pairwise distinct relabeling classes (so no
/// frame can be served from another's canonical-tier entry).
pub fn distinct_dense(
    n: usize,
    count: usize,
    seed: u64,
    stream: u64,
) -> Result<Vec<MulticastAssignment>, String> {
    let mut g = SplitMix64::new(seed, stream);
    let mut classes = HashSet::new();
    let mut pool = Vec::with_capacity(count);
    for _ in 0..count.saturating_mul(20) {
        if pool.len() == count {
            break;
        }
        let asg = random_multicast(RandomSpec::dense(n), g.next_u64());
        if classes.insert(canonicalize(&asg).fingerprint()) {
            pool.push(asg);
        }
    }
    if pool.len() < count {
        return Err(format!(
            "only {} distinct dense classes at n={n}",
            pool.len()
        ));
    }
    Ok(pool)
}

/// The warm-zipf stream: `batches` batches of `batch` frames, each drawn
/// Zipf([`ZIPF_S`]) from `pool` and, with probability [`RELABEL_SHARE`],
/// relabeled by fresh random input and output permutations.
pub fn zipf_stream(
    pool: &[MulticastAssignment],
    batches: usize,
    batch: usize,
    seed: u64,
) -> Vec<Vec<MulticastAssignment>> {
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut g = SplitMix64::new(seed, STREAM_ZIPF_DRAWS);
    (0..batches)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    let shape = &pool[zipf.sample(&mut g)];
                    if g.unit() < RELABEL_SHARE {
                        let n = shape.n();
                        let outputs = g.permutation(n);
                        let inputs = g.permutation(n);
                        relabel_inputs(&relabel_outputs(shape, &outputs), &inputs)
                    } else {
                        shape.clone()
                    }
                })
                .collect()
        })
        .collect()
}

/// Builds the workload's engine and inputs from `seed`, and fills its cache.
///
/// * cold-capture: a pool of distinct frames, cycled in batches through a
///   cache that holds a quarter of them. Set-up routes the whole pool once,
///   so the cache holds the pool's tail and every timed frame — the oldest
///   again — misses both tiers and evicts.
/// * warm-zipf: set-up routes every shape of the pool once, so the cache
///   holds them all and every timed frame hits.
pub fn setup(w: Workload, scale: &Scale, seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let (pool, batches, capacity) = match w {
        Workload::ColdCapture => {
            let pool = distinct_dense(scale.n, scale.cold_pool, seed, STREAM_COLD_POOL)?;
            let batches = pool.chunks(scale.batch).map(|c| c.to_vec()).collect();
            (Vec::new(), batches, scale.cold_cache)
        }
        Workload::WarmZipf => {
            let pool = distinct_dense(scale.n, scale.zipf_pool, seed, STREAM_ZIPF_POOL)?;
            let batches = zipf_stream(&pool, scale.zipf_batches, scale.batch, seed);
            (pool, batches, scale.zipf_cache)
        }
        Workload::ServePaced => unreachable!("serve-paced is not an engine workload"),
    };
    let inputs = t.elapsed();

    let t = Instant::now();
    let engine = Engine::with_config(scale.n, EngineConfig::batch(1).with_plan_cache(capacity))
        .map_err(|e| format!("engine: {e}"))?;
    let build = t.elapsed();

    let t = Instant::now();
    let prefill: Vec<&[MulticastAssignment]> = if pool.is_empty() {
        batches.iter().map(Vec::as_slice).collect()
    } else {
        pool.chunks(scale.batch).collect()
    };
    for b in prefill {
        let failed = engine.route_batch(b).stats.frames_failed;
        if failed > 0 {
            return Err(format!("cache pre-fill: {failed} frames failed"));
        }
    }
    let prewarm = t.elapsed();
    Ok(Setup {
        engine,
        batches,
        phases: [inputs, build, prewarm],
    })
}

/// What a pass of the closed loop saw.
pub struct Pass {
    /// Wall time of each `route_batch` call, in milliseconds.
    pub batch_ms: Vec<f64>,
    /// Wall time of the yardstick slice run after each batch, in seconds
    /// (empty in the traced run, which does not sample the host's speed).
    pub slice_s: Vec<Option<f64>>,
    /// Every frame's result, checked.
    pub checked: Checked,
    /// The engine's stats, merged over every batch.
    pub stats: EngineStats,
}

impl Pass {
    /// An empty pass over an `n`-port engine.
    pub fn new(n: usize) -> Pass {
        Pass {
            batch_ms: Vec::new(),
            slice_s: Vec::new(),
            checked: Checked::default(),
            stats: EngineStats::empty(n),
        }
    }

    /// Routes batch `k` through `engine`, timing only the `route_batch`
    /// call, and checks every result.
    pub fn route(
        &mut self,
        engine: &Engine,
        k: usize,
        batch: &[MulticastAssignment],
        tr: &mut Tracer,
    ) {
        let span = tr.open("engine.route_batch", None, k as u64);
        let t0 = Instant::now();
        let out = engine.route_batch(batch);
        let dt = t0.elapsed();
        tr.close(span);
        self.batch_ms.push(dt.as_secs_f64() * 1e3);
        self.checked.batch(k, batch, &out.results);
        self.stats.merge(&out.stats);
    }
}

/// Drives the closed loop for `seconds`, and at least `min` batches: route
/// a batch, check every result, then time a yardstick slice, so each
/// batch's time can be read against the host's speed at that moment. Only
/// the `route_batch` call is timed.
pub fn drive(s: &Setup, seconds: f64, min: usize) -> Pass {
    let mut pass = Pass::new(s.engine.n());
    let start = Instant::now();
    for k in 0.. {
        if k >= min && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let batch = &s.batches[k % s.batches.len()];
        pass.route(&s.engine, k, batch, &mut Tracer::off());
        pass.slice_s
            .push(Some(sys::yardstick_slice_time().as_secs_f64()));
    }
    pass
}

/// `times` as they would read on a host running the yardstick at
/// [`sys::REFERENCE_YARDSTICK_PER_S`]: each is multiplied by the host's
/// speed in its window ([`sys::window_speeds`]). A host state that slows
/// the routing code and the yardstick alike thus cancels out, while a
/// change to the routing code does not.
pub fn at_reference_speed(times: &[f64], slice_s: &[Option<f64>]) -> Vec<f64> {
    assert_eq!(times.len(), slice_s.len(), "one slice per sample");
    times
        .iter()
        .zip(sys::window_speeds(slice_s))
        .map(|(t, speed)| t * speed)
        .collect()
}

/// The untraced run: set up several times (median reported), then the
/// timed closed loop with a yardstick slice after every batch. Every time
/// is read at [`sys::REFERENCE_YARDSTICK_PER_S`]; throughput and latency
/// are medians over the run's windows; the wall-clock figures and the
/// host's median speed go into the notes.
pub fn measure(w: Workload, args: &Args, scale: &Scale) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..scale.setups.max(1) {
        drop(ready.take());
        let (s, secs) = sys::time_at_reference(|| setup(w, scale, args.seed));
        ready = Some(s?);
        setup_s.push(secs);
    }
    let s = ready.expect("at least one set-up");
    let pass = drive(&s, args.seconds, scale.min_batches);
    let ref_ms = at_reference_speed(&pass.batch_ms, &pass.slice_s);

    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", median(&setup_s));
    let per_s = |ms: &[f64]| (ms.len() * scale.batch) as f64 * 1e3 / ms.iter().sum::<f64>();
    let p50 = |ms: &[f64]| percentile(&sorted(ms.to_vec()), 0.5);
    let p90 = |ms: &[f64]| percentile(&sorted(ms.to_vec()), 0.9);
    m.set("throughput_per_s", windowed_median(&ref_ms, per_s));
    m.set("latency_p50_ms", windowed_median(&ref_ms, p50));
    m.set("latency_p90_ms", windowed_median(&ref_ms, p90));
    let wall = &pass.batch_ms;
    let host_speed = median(&sys::window_speeds(&pass.slice_s));
    Ok(Outcome {
        attempted: pass.checked.frames,
        failed: pass.checked.failed,
        problems: pass.checked.problems,
        metrics: m,
        notes: vec![
            ("batches".to_string(), wall.len() as f64),
            ("host_speed".to_string(), host_speed),
            ("wall.throughput_per_s".to_string(), per_s(wall)),
            ("wall.latency_p50_ms".to_string(), p50(wall)),
            ("wall.latency_p90_ms".to_string(), p90(wall)),
        ],
    })
}

/// The traced run. Three identical set-ups from the same seed route the
/// same batches, as many as `Scale::trace_batches_per_s` gives for
/// `--seconds`, taking turns batch by batch so that a change in the host's
/// speed reaches all three alike:
///
/// 1. untraced, as the reference for `trace.overhead_ratio`;
/// 2. with a span around every `route_batch` call (the engine's own stats
///    give the counts and per-level times);
/// 3. through [`route_batch_layers`], a span around every layer call.
pub fn trace(
    w: Workload,
    args: &Args,
    scale: &Scale,
    spans_dir: Option<&Path>,
) -> Result<Outcome, String> {
    let per_s = scale.trace_batches_per_s[usize::from(w == Workload::WarmZipf)];
    let count = (args.seconds * per_s).round().max(1.0) as usize;
    let plain_setup = setup(w, scale, args.seed)?;
    let real_setup = setup(w, scale, args.seed)?;
    let mirror_setup = setup(w, scale, args.seed)?;
    let phases = [&plain_setup, &real_setup, &mirror_setup].map(|s| s.phases);
    let net = Brsmn::new(scale.n).map_err(|e| e.to_string())?;
    let cache = mirror_setup
        .engine
        .plan_cache()
        .expect("engine workloads run with the plan cache on");

    let (mut plain, mut real) = (Pass::new(scale.n), Pass::new(scale.n));
    let (mut calls, mut layers) = (Tracer::on(), Tracer::on());
    let mut checked = Checked::default();
    let batches = &plain_setup.batches;
    for k in 0..count {
        let batch = &batches[k % batches.len()];
        plain.route(&plain_setup.engine, k, batch, &mut Tracer::off());
        real.route(&real_setup.engine, k, batch, &mut calls);
        let span = layers.open("engine.layers", None, k as u64);
        let results = route_batch_layers(&net, cache, batch, &mut layers, span)?;
        layers.close(span);
        checked.batch(k, batch, &results);
    }
    checked.add(&plain.checked);
    checked.add(&real.checked);

    let mut m = Metrics::new(PER_LAYER);
    set_setup_metrics(&mut m, &phases);
    set_layer_metrics(&mut m, &real.stats, &calls, &layers);
    let plain_ms: f64 = plain.batch_ms.iter().sum();
    let traced_ms: f64 = real.batch_ms.iter().sum();
    m.set("trace.overhead_ratio", traced_ms / plain_ms);
    if let Some(dir) = spans_dir {
        let stem = w.name();
        calls
            .write_jsonl(&dir.join(format!("{stem}-calls.jsonl")))
            .and_then(|_| layers.write_jsonl(&dir.join(format!("{stem}-layers.jsonl"))))
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(Outcome {
        attempted: checked.frames,
        failed: checked.failed,
        problems: checked.problems,
        metrics: m,
        notes: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_scale_with_the_hosts_speed() {
        // The host runs the yardstick at the reference speed for one
        // window and at half of it for the next.
        let r = 1.0 / sys::REFERENCE_YARDSTICK_PER_S;
        let w = sys::HOST_WINDOW;
        let slices: Vec<Option<f64>> = (0..2 * w)
            .map(|i| Some(if i < w { r } else { 2.0 * r }))
            .collect();
        let t = at_reference_speed(&vec![6.0; 2 * w], &slices);
        assert_eq!(t[..w], vec![6.0; w][..]);
        assert_eq!(t[w..], vec![3.0; w][..]);
    }

    #[test]
    fn zipf_stream_repeats_per_seed() {
        let pool = distinct_dense(32, 16, 1, STREAM_ZIPF_POOL).unwrap();
        let a = zipf_stream(&pool, 4, 8, 5);
        assert_eq!(a, zipf_stream(&pool, 4, 8, 5));
        assert_ne!(a, zipf_stream(&pool, 4, 8, 6));
        let frames: Vec<&MulticastAssignment> = a.iter().flatten().collect();
        assert_eq!(frames.len(), 32);
        let relabeled = frames.iter().filter(|f| !pool.contains(f)).count();
        assert!(
            relabeled > 4 && relabeled < 28,
            "about half are relabeled: {relabeled}"
        );
        let classes: HashSet<u64> = pool.iter().map(|p| canonicalize(p).fingerprint()).collect();
        assert!(frames
            .iter()
            .all(|f| classes.contains(&canonicalize(f).fingerprint())));
    }
}
