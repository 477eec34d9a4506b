//! Property suite pinning that neither the `[u64; 4]` lane kernels nor the
//! batch planner may change a single observable bit. Three angles:
//!
//! * the wide-lane fast path agrees with the allocating reference router on
//!   every routing result across dense, sparse, and α-heavy shapes at
//!   n ∈ {8, 16, 64, 256} (the word-level scalar loops themselves are
//!   oracle-checked in `brsmn-rbn`'s unit tests);
//! * `BatchPlanner::route_frames` agrees with routing each frame on its own
//!   on **results, switch settings, and per-level traces** — captured plans
//!   compare equal as whole setting tensors, and traced replay through a
//!   batch-captured plan reproduces the per-frame trace — including ragged
//!   batches down to a single frame. Both run the same level pass, so this
//!   pins the batch bookkeeping (slots, captures, timers);
//!   `crates/core/tests/capture_fixture.rs` pins the planner itself
//!   against committed bytes;
//! * the engine's batched dispatch agrees with the router frame by frame
//!   under **mixed cache hit/miss traffic** (duplicated frames, pre-warmed
//!   entries) on results, and with a twin engine fed one frame at a time on
//!   every cache counter; its eviction tally matches the cache's own.

use brsmn_core::{
    with_thread_batch_planner, with_thread_scratch, Brsmn, CapturedPlan, CoreError, Engine,
    EngineConfig, EngineStats, MulticastAssignment, StageTimer,
};
use brsmn_workloads::{random_multicast, RandomSpec};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

/// Builds a valid multicast assignment from a per-output source choice
/// (each output claimed by at most one input — always realizable).
fn assignment_from_choices(n: usize, choices: &[Option<usize>]) -> MulticastAssignment {
    let mut sets = vec![Vec::new(); n];
    for (o, c) in choices.iter().enumerate() {
        if let Some(src) = c {
            sets[*src].push(o);
        }
    }
    MulticastAssignment::from_sets(n, sets).expect("choices form a valid assignment")
}

/// One frame drawn from three load shapes: **dense**, **sparse**, and
/// **α-heavy** (a handful of sources share all outputs).
fn shaped(n: usize) -> impl Strategy<Value = MulticastAssignment> {
    (
        0u8..3,
        vec(option::weighted(0.9, 0..n), n),
        1usize..=4,
        vec(0usize..4, n),
    )
        .prop_map(move |(shape, choices, k, picks)| match shape {
            0 => assignment_from_choices(n, &choices),
            1 => {
                let thinned: Vec<Option<usize>> = choices
                    .iter()
                    .enumerate()
                    .map(|(o, c)| if o % 3 == 0 { *c } else { None })
                    .collect();
                assignment_from_choices(n, &thinned)
            }
            _ => {
                let choices: Vec<Option<usize>> =
                    picks.iter().map(|&i| Some((i % k) * n / 4)).collect();
                assignment_from_choices(n, &choices)
            }
        })
}

fn sizes() -> impl Strategy<Value = usize> {
    prop_oneof![Just(8usize), Just(16), Just(64), Just(256)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn wide_lanes_match_the_reference_router_across_shapes(
        (n, asg) in sizes().prop_flat_map(|n| (Just(n), shaped(n)))
    ) {
        let net = Brsmn::new(n).expect("valid size");
        let fast = net.route(&asg).expect("fast path routes");
        let reference = net.route_reference(&asg).expect("reference routes");
        prop_assert_eq!(&fast, &reference);
        prop_assert!(fast.realizes(&asg));
    }

    #[test]
    fn batch_planner_matches_per_frame_on_results_settings_and_traces(
        (n, frames) in prop_oneof![Just(8usize), Just(16), Just(64)]
            .prop_flat_map(|n| (Just(n), vec(shaped(n), 1..=9)))
    ) {
        let net = Brsmn::new(n).expect("valid size");
        let fr = frames.len();
        let refs: Vec<&MulticastAssignment> = frames.iter().collect();
        let mut caps: Vec<CapturedPlan> = (0..fr)
            .map(|_| CapturedPlan::new(n).expect("valid size"))
            .collect();
        let mut timer = StageTimer::new();
        let results = with_thread_batch_planner(n, fr, |bp| {
            bp.route_frames(net.wiring(), &refs, &mut timer, Some(&mut caps))?;
            Ok::<_, CoreError>((0..fr).map(|f| bp.frame_result(f)).collect::<Vec<_>>())
        })
        .expect("batch routes");

        for (f, asg) in frames.iter().enumerate() {
            let (want_r, want_plan) =
                with_thread_scratch(n, |s| net.route_capture(asg, s)).expect("capture routes");
            prop_assert_eq!(&results[f], &want_r);
            // Whole setting tensors compare equal: every switch of every
            // stage of every level, plus the final column.
            prop_assert_eq!(&caps[f], &want_plan);
            // And the traced replay of the batch-captured plan reproduces
            // the per-frame trace exactly.
            let (replay_r, replay_trace) =
                with_thread_scratch(n, |s| net.route_replay_traced(asg, &caps[f], s))
                    .expect("replay routes");
            let (traced_r, want_trace) = net.route_traced(asg).expect("traced route");
            prop_assert_eq!(&replay_r, &traced_r);
            prop_assert_eq!(&replay_trace, &want_trace);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn batched_dispatch_matches_per_frame_under_mixed_cache_traffic(
        (n, pool, picks) in sizes().prop_flat_map(|n| {
            (Just(n), vec(shaped(n), 3..=5), vec(any::<u8>(), 1..=20))
        })
    ) {
        // Duplicated picks from a small pool + a pre-warmed first frame
        // make the measured batch a genuine hit/miss mix for the cache.
        let batch: Vec<MulticastAssignment> = picks
            .iter()
            .map(|&i| pool[i as usize % pool.len()].clone())
            .collect();
        let warm = vec![pool[0].clone()];

        let cfg = EngineConfig::batch(1).with_plan_cache(64);
        let batched = Engine::with_config(n, cfg).expect("valid size");
        let twin = Engine::with_config(n, cfg).expect("valid size");
        let net = Brsmn::new(n).expect("valid size");

        assert!(batched.route_batch(&warm).results[0].is_ok());
        assert!(twin.route_batch(&warm).results[0].is_ok());

        let a = batched.route_batch(&batch);
        let mut b = EngineStats::empty(n);
        for (asg, got) in batch.iter().zip(&a.results) {
            let want = net.route(asg).expect("shaped frames route");
            prop_assert_eq!(got.as_ref().expect("shaped frames route"), &want);
            let (one, stats) = twin.route_one(asg);
            prop_assert_eq!(&one.expect("shaped frames route"), &want);
            b.merge(&stats);
        }
        // The batched dispatch must preserve the cache accounting of
        // routing one frame at a time exactly, not just its outputs.
        prop_assert_eq!(a.stats.plan_hits, b.plan_hits);
        prop_assert_eq!(a.stats.plan_canonical_hits, b.plan_canonical_hits);
        prop_assert_eq!(a.stats.plan_misses, b.plan_misses);
        prop_assert_eq!(a.stats.stages.switch_settings, b.stages.switch_settings);
        prop_assert_eq!(a.stats.stages.sweep_passes, b.stages.sweep_passes);
    }
}

#[test]
fn eviction_tally_matches_the_cache_under_pressure() {
    // Sparse frames through a cache far smaller than the batch: every miss
    // inserts into both tiers and most inserts evict. The engine's tally
    // must count every evicted entry of either tier, whichever pass (batch
    // chunk or per-frame ladder) did the insert.
    let n = 64;
    let batch: Vec<MulticastAssignment> = (9..49)
        .map(|seed| random_multicast(RandomSpec::sparse(n), seed))
        .collect();
    let engine =
        Engine::with_config(n, EngineConfig::batch(1).with_plan_cache(8)).expect("valid size");
    let cache = engine.plan_cache().expect("cache is on");
    let evicted = || {
        let s = cache.stats();
        s.evictions + s.canonical_evictions
    };
    let before = evicted();
    let out = engine.route_batch(&batch);
    assert_eq!(out.stats.frames_ok, batch.len());
    let grown = evicted() - before;
    assert!(grown > 0, "a capacity-8 cache must evict");
    assert_eq!(out.stats.plan_evictions, grown);
}
