//! What `Engine::route_batch` hides, timed layer by layer.
//!
//! [`route_batch_layers`] drives a batch through the public layer functions
//! in the order the engine's batched fast path calls them (one
//! worker, plan cache on), with a span around every call:
//!
//! 1. per frame: `plan_fingerprint` + `PlanCache::lookup`, then on an exact
//!    miss `canonicalize` and `PlanCache::lookup_canonical`;
//! 2. the frames that missed both tiers, in SoA chunks:
//!    `BatchPlanner::route_frames` with captures, then `PlanCache::insert`
//!    and `insert_canonical` (which canonicalizes a second time);
//! 3. the hits: `Brsmn::route_replay` or `Brsmn::route_replay_permuted`.
//!
//! The engine's own time beyond these calls — pass bookkeeping, result
//! collection, statistics — is reported as `engine.dispatch.ms`.

use crate::spans::Tracer;
use crate::Metrics;
use brsmn_core::{
    canonicalize, plan_fingerprint, with_thread_batch_planner, with_thread_scratch, Brsmn,
    CanonicalHit, CapturedPlan, CoreError, EngineStats, MulticastAssignment, PlanCache,
    RoutingResult, MAX_BATCH_FRAMES,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Layer spans whose self times add up to the mirrored `route_batch`.
const LAYER_SPANS: [&str; 7] = [
    "plancache.probe",
    "canonical",
    "plancache.lookup_canonical",
    "batch.route_frames",
    "plancache.insert",
    "fastpath.replay",
    "fastpath.replay_permuted",
];

/// `true` when `r` delivers exactly what `asg` asks for: the same check as
/// `RoutingResult::realizes`, in one pass over the assignment instead of a
/// search per output.
pub fn delivers(asg: &MulticastAssignment, r: &RoutingResult) -> bool {
    let n = asg.n();
    if r.n() != n {
        return false;
    }
    let mut want = vec![None; n];
    for (i, dests) in asg.iter() {
        for &d in dests {
            want[d] = Some(i);
        }
    }
    want.iter()
        .enumerate()
        .all(|(o, &w)| r.output_source(o) == w)
}

/// Frames checked against what they asked for.
#[derive(Debug, Default)]
pub struct Checked {
    /// Frames checked.
    pub frames: u64,
    /// Frames whose result was an error or a wrong delivery.
    pub failed: u64,
    /// The first few wrong deliveries: output checks that did not hold.
    pub problems: Vec<String>,
}

impl Checked {
    /// Checks the results of batch `k`, one per frame.
    pub fn batch(
        &mut self,
        k: usize,
        batch: &[MulticastAssignment],
        results: &[Result<RoutingResult, CoreError>],
    ) {
        self.frames += batch.len() as u64;
        if results.len() != batch.len() {
            self.failed += batch.len() as u64;
            self.problems.push(format!(
                "batch {k}: {} results for {} frames",
                results.len(),
                batch.len()
            ));
            return;
        }
        for (f, (asg, r)) in batch.iter().zip(results).enumerate() {
            match r {
                Ok(r) if delivers(asg, r) => {}
                Ok(_) => {
                    self.failed += 1;
                    if self.problems.len() < 8 {
                        self.problems.push(format!(
                            "batch {k} frame {f}: delivery does not realize the frame"
                        ));
                    }
                }
                Err(_) => self.failed += 1,
            }
        }
    }

    /// Adds `other`'s tally to this one.
    pub fn add(&mut self, other: &Checked) {
        self.frames += other.frames;
        self.failed += other.failed;
        self.problems.extend(other.problems.iter().cloned());
    }
}

enum Probe {
    Exact(Arc<CapturedPlan>),
    Canon(CanonicalHit),
    /// An earlier miss of this batch claimed the frame's fingerprint or
    /// class; it is served after that miss is planned and inserted.
    Deferred,
}

/// Routes `batch` through the layer functions under span `parent`, returning
/// one result per frame. An error means the batch left the paths the
/// benchmark's workloads take (a failed SoA chunk, or a deferred frame that
/// found no plan).
pub fn route_batch_layers(
    net: &Brsmn,
    cache: &PlanCache,
    batch: &[MulticastAssignment],
    tr: &mut Tracer,
    parent: usize,
) -> Result<Vec<Result<RoutingResult, CoreError>>, String> {
    let n = net.n();
    let mut results: Vec<Option<Result<RoutingResult, CoreError>>> =
        (0..batch.len()).map(|_| None).collect();

    // Pass A: classify each frame with at most one probe per tier.
    let mut probes = Vec::new();
    let mut misses = Vec::new();
    let (mut claimed_fp, mut claimed_class) = (HashSet::new(), HashSet::new());
    for (i, asg) in batch.iter().enumerate() {
        let id = i as u64;
        let s = tr.open("plancache.probe", Some(parent), id);
        let fp = plan_fingerprint(asg);
        let claimed = claimed_fp.contains(&fp);
        let exact = if claimed { None } else { cache.lookup(fp, asg) };
        tr.close(s);
        if claimed {
            probes.push((i, Probe::Deferred));
            continue;
        }
        if let Some(plan) = exact {
            probes.push((i, Probe::Exact(plan)));
            continue;
        }
        let s = tr.open("canonical", Some(parent), id);
        let canon = canonicalize(asg);
        tr.close(s);
        if claimed_class.contains(&canon.fingerprint()) {
            probes.push((i, Probe::Deferred));
            continue;
        }
        let s = tr.open("plancache.lookup_canonical", Some(parent), id);
        let hit = cache.lookup_canonical(&canon);
        tr.close(s);
        if let Some(hit) = hit {
            probes.push((i, Probe::Canon(hit)));
            continue;
        }
        claimed_fp.insert(fp);
        claimed_class.insert(canon.fingerprint());
        misses.push(i);
    }

    // Pass B: plan the misses in lockstep, capture, insert into both tiers.
    for chunk in misses.chunks(MAX_BATCH_FRAMES) {
        let s = tr.open("batch.route_frames", Some(parent), chunk[0] as u64);
        let planned = with_thread_batch_planner(n, chunk.len(), |bp| {
            let refs: Vec<&MulticastAssignment> = chunk.iter().map(|&i| &batch[i]).collect();
            let mut caps = (0..chunk.len())
                .map(|_| CapturedPlan::new(n))
                .collect::<Result<Vec<_>, _>>()?;
            let mut timer = brsmn_core::StageTimer::new();
            bp.route_frames(net.wiring(), &refs, &mut timer, Some(&mut caps))?;
            let delivered: Vec<RoutingResult> =
                (0..chunk.len()).map(|k| bp.frame_result(k)).collect();
            Ok::<_, CoreError>((delivered, caps))
        });
        tr.close(s);
        let (delivered, caps) =
            planned.map_err(|e| format!("SoA chunk at frame {} failed: {e}", chunk[0]))?;
        for ((&i, r), plan) in chunk.iter().zip(delivered).zip(caps) {
            let asg = &batch[i];
            let plan = Arc::new(plan);
            let s = tr.open("plancache.insert", Some(parent), i as u64);
            cache.insert(plan_fingerprint(asg), asg, Arc::clone(&plan));
            let c = tr.open("canonical", Some(s), i as u64);
            let canon = canonicalize(asg);
            tr.close(c);
            cache.insert_canonical(&canon, plan);
            tr.close(s);
            results[i] = Some(Ok(r));
        }
    }

    // Pass C: replay the hits; deferred frames probe again and replay.
    for (i, probe) in probes {
        let asg = &batch[i];
        let id = i as u64;
        let probe = match probe {
            Probe::Deferred => {
                let s = tr.open("plancache.probe", Some(parent), id);
                let exact = cache.lookup(plan_fingerprint(asg), asg);
                tr.close(s);
                match exact {
                    Some(plan) => Probe::Exact(plan),
                    None => {
                        let s = tr.open("canonical", Some(parent), id);
                        let canon = canonicalize(asg);
                        tr.close(s);
                        let s = tr.open("plancache.lookup_canonical", Some(parent), id);
                        let hit = cache.lookup_canonical(&canon);
                        tr.close(s);
                        Probe::Canon(hit.ok_or(format!("deferred frame {i} found no plan"))?)
                    }
                }
            }
            p => p,
        };
        let r = match probe {
            Probe::Exact(plan) => {
                let s = tr.open("fastpath.replay", Some(parent), id);
                let r = with_thread_scratch(n, |sc| net.route_replay(asg, &plan, sc));
                tr.close(s);
                r
            }
            Probe::Canon(hit) => {
                let s = tr.open("fastpath.replay_permuted", Some(parent), id);
                let r = with_thread_scratch(n, |sc| {
                    net.route_replay_permuted(asg, &hit.plan, &hit.input_map, &hit.output_map, sc)
                });
                tr.close(s);
                r
            }
            Probe::Deferred => unreachable!("deferred frames were resolved above"),
        };
        results[i] = Some(r);
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("every frame is routed by one pass"))
        .collect())
}

/// Sets the engine-side per-layer metrics: counts and per-level times from
/// the stats of the real `route_batch` calls, call times from `calls`
/// (spans named `engine.route_batch`) and layer times from `mirror` (the
/// same frames through [`route_batch_layers`]).
pub fn set_layer_metrics(m: &mut Metrics, stats: &EngineStats, calls: &Tracer, mirror: &Tracer) {
    let ms = |nanos: u64| nanos as f64 / 1e6;
    let route = crate::stats::sorted(calls.durations_ms("engine.route_batch"));
    let route_total: f64 = route.iter().sum();
    m.set("engine.route_batch.ms", route_total);
    if !route.is_empty() {
        m.set(
            "engine.route_batch.p90_ms",
            crate::stats::percentile(&route, 0.9),
        );
    }
    m.set("engine.busy_ms", ms(stats.busy_nanos));
    let layer_total: f64 = LAYER_SPANS.iter().map(|l| mirror.self_ms(l)).sum();
    m.set("engine.dispatch.ms", route_total - layer_total);
    for (k, level) in stats.stages.levels.iter().enumerate().take(7) {
        m.set(&format!("engine.level{}_ms", k + 1), ms(level.nanos));
    }
    m.set("engine.final_ms", ms(stats.stages.final_nanos));
    m.set("engine.frames_failed", stats.frames_failed as f64);

    m.set("plancache.probe.ms", mirror.self_ms("plancache.probe"));
    m.set(
        "plancache.lookup_canonical.ms",
        mirror.self_ms("plancache.lookup_canonical"),
    );
    m.set("plancache.insert.ms", mirror.self_ms("plancache.insert"));
    m.set("plancache.exact_hits", stats.plan_exact_hits as f64);
    m.set("plancache.canonical_hits", stats.plan_canonical_hits as f64);
    m.set("plancache.misses", stats.plan_misses as f64);
    m.set("plancache.evictions", stats.plan_evictions as f64);
    m.set("plancache.bytes", stats.plan_cache_bytes as f64);

    m.set("canonical.calls", mirror.count("canonical") as f64);
    m.set("canonical.ms", mirror.self_ms("canonical"));

    let prof = &stats.stages.plan_profile;
    m.set(
        "batch.route_frames.ms",
        mirror.self_ms("batch.route_frames"),
    );
    m.set("batch.planned_frames", stats.batch_planned_frames as f64);
    m.set("rbn.tag_derive_ops", prof.tag_derive_ops as f64);
    m.set("rbn.rank_ops", prof.rank_ops as f64);
    m.set("rbn.scatter_ops", prof.scatter_ops as f64);
    m.set("rbn.quasisort_ops", prof.quasisort_ops as f64);
    m.set("rbn.sweep_passes", stats.stages.sweep_passes as f64);

    m.set("fastpath.replay.ms", mirror.self_ms("fastpath.replay"));
    m.set(
        "fastpath.replay_permuted.ms",
        mirror.self_ms("fastpath.replay_permuted"),
    );
    m.set("fastpath.scratch_bytes", stats.scratch_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_flag_wrong_deliveries_and_errors() {
        let asg = MulticastAssignment::from_sets(
            8,
            vec![
                vec![0, 1],
                vec![],
                vec![3, 4, 7],
                vec![2],
                vec![],
                vec![],
                vec![],
                vec![5, 6],
            ],
        )
        .unwrap();
        let good = Brsmn::new(8).unwrap().route(&asg).unwrap();
        assert!(good.realizes(&asg) && delivers(&asg, &good));
        let mut table: Vec<Option<usize>> = (0..8).map(|o| good.output_source(o)).collect();
        table.swap(0, 2);
        let bad = RoutingResult::new(table);
        assert!(!bad.realizes(&asg) && !delivers(&asg, &bad));
        let short = RoutingResult::new(vec![None; 4]);
        assert!(!delivers(&asg, &short));

        let mut checked = Checked::default();
        let results = vec![Ok(good), Ok(bad), Err(CoreError::Config("x".into()))];
        checked.batch(0, &[asg.clone(), asg.clone(), asg], &results);
        assert_eq!((checked.frames, checked.failed), (3, 2));
        assert_eq!(
            checked.problems.len(),
            1,
            "only the wrong delivery is an incorrect output"
        );
    }
}
