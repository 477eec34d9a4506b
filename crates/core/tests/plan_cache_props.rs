//! Acceptance properties of the plan-capture cache: a replayed plan is
//! **bit-identical** to fresh planning — same routing result, same per-level
//! trace, same final settings table — across dense, sparse and α-heavy
//! multicasts; the assignment fingerprint is order-independent but never
//! trusted alone (a colliding fingerprint with a different assignment is a
//! miss, not a wrong plan); and an [`Engine`] under LRU pressure (capacity 1,
//! capacity < distinct frames) stays correct while evicting.

use brsmn_core::plancache::fingerprint_inputs;
use brsmn_core::{
    plan_fingerprint, Brsmn, Engine, EngineConfig, MulticastAssignment, PlanCache,
    PlanCacheSnapshot, RouteScratch,
};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use std::sync::Arc;

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
/// **α-heavy** (a handful of sources share all outputs, so destination sets
/// straddle both halves at every level).
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

/// One frame over n ∈ {8, 16, 64}.
fn frames() -> impl Strategy<Value = (usize, MulticastAssignment)> {
    prop_oneof![Just(8usize), Just(16), Just(64)].prop_flat_map(|n| (Just(n), shaped(n)))
}

/// A batch of frames over one shared size.
fn frame_batches() -> impl Strategy<Value = (usize, Vec<MulticastAssignment>)> {
    prop_oneof![Just(8usize), Just(16), Just(64)]
        .prop_flat_map(|n| (Just(n), vec(shaped(n), 6..=10)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Capture → replay reproduces the fresh route bit for bit: result,
    /// full per-level trace, and the settings table left in the scratch
    /// arena all coincide.
    #[test]
    fn replay_is_bit_identical_to_fresh_planning((n, asg) in frames()) {
        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();

        let (want_r, want_t) = net.route_traced(&asg).unwrap();
        let want_settings = {
            net.route_into(&asg, &mut scratch).unwrap();
            scratch.settings_table().clone()
        };

        let (captured_r, plan) = net.route_capture(&asg, &mut scratch).unwrap();
        prop_assert_eq!(&captured_r, &want_r, "capturing perturbed the route");

        let (replay_r, replay_t) = net.route_replay_traced(&asg, &plan, &mut scratch).unwrap();
        prop_assert_eq!(&replay_r, &want_r);
        prop_assert_eq!(&replay_t, &want_t);
        prop_assert_eq!(scratch.settings_table(), &want_settings);

        // The lean (untraced) replay delivers the same source table.
        net.route_replay_into(&asg, &plan, &mut scratch).unwrap();
        let from_arena: Vec<Option<usize>> = scratch.output_sources().collect();
        let explicit: Vec<Option<usize>> = (0..n).map(|o| want_r.output_source(o)).collect();
        prop_assert_eq!(from_arena, explicit);
    }

    /// The fingerprint hashes the *set* of (input, destination-set) pairs:
    /// feeding the inputs in any order gives the same key, while nearby
    /// assignments (one destination moved) get different keys — and even a
    /// forced key collision cannot produce a wrong plan, because lookup
    /// compares the full assignment.
    #[test]
    fn fingerprint_is_order_independent_but_collision_checked(
        (n, asg) in frames(),
        rot in 0usize..64,
    ) {
        let inputs: Vec<(usize, &[usize])> = asg.iter().filter(|(_, d)| !d.is_empty()).collect();
        prop_assume!(!inputs.is_empty());
        let mut rotated = inputs.clone();
        rotated.rotate_left(rot % inputs.len());
        let mut reversed = inputs.clone();
        reversed.reverse();
        let fp = plan_fingerprint(&asg);
        prop_assert_eq!(fingerprint_inputs(n, inputs), fp);
        prop_assert_eq!(fingerprint_inputs(n, rotated), fp);
        prop_assert_eq!(fingerprint_inputs(n, reversed), fp);

        // Move one destination to a different output: the assignment
        // differs, and whatever its fingerprint, a lookup under the
        // original key must refuse to serve the original plan for it.
        let (src, dests) = asg
            .iter()
            .find(|(_, d)| !d.is_empty())
            .map(|(i, d)| (i, d.to_vec()))
            .unwrap();
        let vacant = (0..n).find(|o| asg.source_of_output(*o).is_none());
        prop_assume!(vacant.is_some());
        let mut sets: Vec<Vec<usize>> = (0..n).map(|i| asg.dests(i).to_vec()).collect();
        sets[src] = {
            let mut d = dests.clone();
            d[0] = vacant.unwrap();
            d.sort_unstable();
            d
        };
        let other = MulticastAssignment::from_sets(n, sets).unwrap();
        prop_assert_ne!(&other, &asg);

        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        let (_, plan) = net.route_capture(&asg, &mut scratch).unwrap();
        let cache = PlanCache::new(8);
        cache.insert(fp, &asg, Arc::new(plan));
        // Same key, different assignment: the equality check turns the
        // would-be collision into a miss.
        prop_assert!(cache.lookup(fp, &other).is_none());
        prop_assert!(cache.lookup(fp, &asg).is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// An engine whose cache is far too small (capacity 1, then capacity
    /// below the number of distinct frames) keeps evicting and re-capturing
    /// — and every delivered frame still matches the cache-less engine.
    #[test]
    fn eviction_pressure_never_corrupts_results((n, batch) in frame_batches()) {
        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        // Cycle the batch three times so evicted plans get re-requested.
        let cycled: Vec<MulticastAssignment> = batch
            .iter()
            .cycle()
            .take(batch.len() * 3)
            .cloned()
            .collect();
        let want = plain.route_batch(&cycled);
        for capacity in [1usize, (batch.len() / 2).max(1)] {
            let cached = Engine::with_config(
                n,
                EngineConfig::sequential().with_plan_cache(capacity),
            )
            .unwrap();
            let got = cached.route_batch(&cycled);
            for (a, b) in want.results.iter().zip(&got.results) {
                prop_assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
            }
            prop_assert_eq!(
                got.stats.plan_hits + got.stats.plan_misses,
                cycled.len() as u64
            );
            let resident = cached.plan_cache().unwrap().len();
            prop_assert!(resident <= capacity, "{} plans in a {}-plan cache", resident, capacity);
        }
    }
}

/// The snapshot wire format, pinned by a file written before assignments
/// were stored flat: `brsmn-cli route --parallel --n 16 --workload dense
/// --seed 3 --batch 4 --workers 1 --cache-save F` (four dense frames, the
/// CLI's default capacity of 256). Loading it and snapshotting the cache
/// again must reproduce the file byte for byte, and every loaded plan must
/// still replay its own assignment.
#[test]
fn committed_snapshot_fixture_round_trips_byte_identically() {
    let text = include_str!("fixtures/snapshot_n16_dense.json");
    let snap: PlanCacheSnapshot = serde_json::from_str(text).unwrap();
    let cache = PlanCache::new(256);
    assert_eq!(cache.load_snapshot(&snap).unwrap().loaded, 4);
    assert_eq!(serde_json::to_string(&cache.snapshot()).unwrap(), text);

    let net = Brsmn::new(16).unwrap();
    let mut scratch = RouteScratch::new(16).unwrap();
    for e in &snap.entries {
        let asg = MulticastAssignment::from_sets(e.n, e.sets.clone()).unwrap();
        let plan = cache.lookup(plan_fingerprint(&asg), &asg).expect("loaded");
        let r = net.route_replay(&asg, &plan, &mut scratch).unwrap();
        assert!(r.realizes(&asg));
    }
}
