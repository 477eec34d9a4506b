//! Acceptance properties of the canonical cache tier: canonicalization is
//! a **total, idempotent** map whose fibers are exactly the relabeling
//! classes (any two input/output relabelings of a frame share one
//! representative and one fingerprint); the fanout profile the tier is
//! keyed on separates exactly the classes canonicalization separates, and
//! its counting-sort maps are canonicalization's permutations; the permuted
//! replay path serves a relabeled frame **bit-identically** to fresh
//! planning from another member's captured plan; and the whole working set
//! survives a snapshot round-trip — a warm-started engine replays every
//! frame on first sight.

use brsmn_core::{
    canonicalize, relabel_inputs, relabel_outputs, Brsmn, CapturedPlan, Engine, EngineConfig,
    FanoutProfile, MulticastAssignment, PlanCache, RouteScratch,
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

/// A uniformly shuffled permutation of `0..n` (Fisher–Yates driven by
/// sampled swap keys).
fn permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    vec(0u64..u64::MAX, n).prop_map(move |keys| {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            idx.swap(i, (keys[i] % (i as u64 + 1)) as usize);
        }
        idx
    })
}

/// A frame plus two independent (input, output) relabeling pairs.
fn frame_with_relabelings() -> impl Strategy<
    Value = (
        usize,
        MulticastAssignment,
        (Vec<usize>, Vec<usize>),
        (Vec<usize>, Vec<usize>),
    ),
> {
    prop_oneof![Just(8usize), Just(16), Just(64)].prop_flat_map(|n| {
        (
            Just(n),
            shaped(n),
            (permutation(n), permutation(n)),
            (permutation(n), permutation(n)),
        )
    })
}

/// Applies an (input, output) relabeling pair to a frame.
fn relabel(a: &MulticastAssignment, (ip, op): &(Vec<usize>, Vec<usize>)) -> MulticastAssignment {
    relabel_inputs(&relabel_outputs(a, op), ip)
}

/// Two frames at one size from {2, 8, 64, 256}: the second is a
/// relabeling of the first, an independent draw, or the first with one
/// destination moved to another input (a near miss whose profile usually,
/// but not always, differs).
fn frame_pairs() -> impl Strategy<Value = (MulticastAssignment, MulticastAssignment)> {
    prop_oneof![Just(2usize), Just(8), Just(64), Just(256)].prop_flat_map(|n| {
        (
            shaped(n),
            shaped(n),
            (permutation(n), permutation(n)),
            0u8..3,
            0usize..n,
        )
            .prop_map(move |(a, other, pair, kind, pick)| {
                let b = match kind {
                    0 => relabel(&a, &pair),
                    1 => other,
                    _ => {
                        let mut sets: Vec<Vec<usize>> =
                            (0..n).map(|i| a.dests(i).to_vec()).collect();
                        if let Some(from) = (0..n).find(|&i| !sets[(pick + i) % n].is_empty()) {
                            let from = (pick + from) % n;
                            let d = sets[from].pop().unwrap();
                            sets[(from + 1 + pick % (n - 1)) % n].push(d);
                        }
                        MulticastAssignment::from_sets(n, sets).unwrap()
                    }
                };
                (a, b)
            })
    })
}

/// `true` when `map` is a bijection on `0..map.len()`.
fn is_bijection(map: &[u32]) -> bool {
    let mut seen = vec![false; map.len()];
    map.iter()
        .all(|&p| (p as usize) < map.len() && !std::mem::replace(&mut seen[p as usize], true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is idempotent, and its output permutations really
    /// do map the live frame onto the representative — the defining law
    /// `relabel_inputs(relabel_outputs(a, output_perm), input_perm) == canonical`.
    #[test]
    fn canonicalize_is_idempotent_and_its_perms_reach_the_representative(
        (n, asg, _, _) in frame_with_relabelings(),
    ) {
        let c = canonicalize(&asg);
        prop_assert_eq!(
            relabel(&asg, &(c.input_perm.clone(), c.output_perm.clone())),
            c.canonical.clone()
        );

        let again = canonicalize(&c.canonical);
        prop_assert_eq!(&again.canonical, &c.canonical);
        let identity: Vec<usize> = (0..n).collect();
        prop_assert_eq!(&again.input_perm, &identity);
        prop_assert_eq!(&again.output_perm, &identity);
    }

    /// Any two relabelings of one frame canonicalize to the same
    /// representative and the same fingerprint — the soundness of keying a
    /// cache tier on the canonical form.
    #[test]
    fn relabelings_share_representative_and_fingerprint(
        (_, asg, pair1, pair2) in frame_with_relabelings(),
    ) {
        let (a, b) = (relabel(&asg, &pair1), relabel(&asg, &pair2));
        let (ca, cb) = (canonicalize(&a), canonicalize(&b));
        prop_assert_eq!(&ca.canonical, &cb.canonical);
        prop_assert_eq!(ca.fingerprint(), cb.fingerprint());
        prop_assert_eq!(&ca.canonical, &canonicalize(&asg).canonical);
    }

    /// One member's captured plan serves any other member through the
    /// cache's composed permutation maps, bit-identical to fresh planning
    /// of the live frame.
    #[test]
    fn permuted_replay_is_bit_identical_to_fresh_planning(
        (n, asg, pair1, pair2) in frame_with_relabelings(),
    ) {
        let donor = relabel(&asg, &pair1);
        let live = relabel(&asg, &pair2);

        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        let (_, plan) = net.route_capture(&donor, &mut scratch).unwrap();

        // Store the donor's plan under the class key, then probe with the
        // live member exactly as the engine does.
        let cache = PlanCache::new(8);
        cache.insert_canonical(&canonicalize(&donor), Arc::new(plan));
        let hit = cache.lookup_canonical(&canonicalize(&live)).unwrap();

        let replayed = net
            .route_replay_permuted(&live, &hit.plan, &hit.input_map, &hit.output_map, &mut scratch)
            .unwrap();
        let fresh = net.route(&live).unwrap();
        prop_assert_eq!(&replayed, &fresh);
        prop_assert!(replayed.realizes(&live));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equal fanout profiles ⇔ equal canonical representatives, so keying
    /// the tier on the profile is exactly as strong as keying it on the
    /// representative; a representative's own profile is its class's.
    #[test]
    fn profile_equality_is_canonical_equality((a, b) in frame_pairs()) {
        let (pa, pb) = (FanoutProfile::of(&a), FanoutProfile::of(&b));
        let (ca, cb) = (canonicalize(&a), canonicalize(&b));
        prop_assert_eq!(pa == pb, ca.canonical == cb.canonical);
        if pa == pb {
            prop_assert_eq!(pa.key(), pb.key());
        }
        prop_assert_eq!(&FanoutProfile::of(&ca.canonical), &pa);
        // Runs: fanouts strictly descending, counts positive, totals right.
        prop_assert!(pa.runs().windows(2).all(|w| w[0].0 > w[1].0));
        prop_assert!(pa.runs().iter().all(|&(f, c)| f > 0 && c > 0));
        let active: u32 = pa.runs().iter().map(|&(_, c)| c).sum();
        let total: u32 = pa.runs().iter().map(|&(f, c)| f * c).sum();
        prop_assert_eq!(active as usize, a.active_inputs());
        prop_assert_eq!(total as usize, a.total_connections());
    }

    /// The counting sort behind a class hit ranks inputs and outputs
    /// exactly as `canonicalize` does. The representative is its own
    /// canonical form (identity permutations), so a class entry stored from
    /// it composes with the identity and a hit leaves the bare live →
    /// canonical maps in the scratch.
    #[test]
    fn counting_sort_maps_are_canonicalize_perms((n, asg, pair, _) in frame_with_relabelings()) {
        let live = relabel(&asg, &pair);
        let c = canonicalize(&live);
        let cache = PlanCache::new(4);
        cache.insert_canonical(&canonicalize(&c.canonical), Arc::new(CapturedPlan::new(n).unwrap()));
        let mut scratch = RouteScratch::new(n).unwrap();
        prop_assert!(cache.lookup_class(&live, &mut scratch).is_some());
        let (im, om) = scratch.class_maps().expect("a hit leaves its maps");
        let widen = |m: &[u32]| m.iter().map(|&p| p as usize).collect::<Vec<_>>();
        prop_assert_eq!(widen(im), c.input_perm);
        prop_assert_eq!(widen(om), c.output_perm);
    }

    /// A class hit's composed maps are bijections and equal the maps the
    /// `Canonicalized` adapter composes — whether the entry was stored by
    /// the adapter or by the engine's own insert.
    #[test]
    fn composed_maps_are_bijections_and_match_the_adapter(
        (n, asg, pair1, pair2) in frame_with_relabelings(),
    ) {
        let donor = relabel(&asg, &pair1);
        let live = relabel(&asg, &pair2);
        let adapter = PlanCache::new(4);
        adapter.insert_canonical(&canonicalize(&donor), Arc::new(CapturedPlan::new(n).unwrap()));
        let engine = Engine::with_config(n, EngineConfig::sequential().with_plan_cache(4)).unwrap();
        prop_assert_eq!(engine.route_batch(std::slice::from_ref(&donor)).stats.plan_misses, 1);
        let mut scratch = RouteScratch::new(n).unwrap();
        for cache in [&adapter, engine.plan_cache().unwrap()] {
            let want = cache.lookup_canonical(&canonicalize(&live)).expect("adapter hit");
            prop_assert!(cache.lookup_class(&live, &mut scratch).is_some());
            let (im, om) = scratch.class_maps().unwrap();
            prop_assert!(is_bijection(im) && is_bijection(om));
            let widen = |m: &[u32]| m.iter().map(|&p| p as usize).collect::<Vec<_>>();
            prop_assert_eq!(widen(im), want.input_map);
            prop_assert_eq!(widen(om), want.output_map);
        }
        // A frame of another class misses and leaves no maps behind.
        let other = MulticastAssignment::empty(n).unwrap();
        if FanoutProfile::of(&other) != FanoutProfile::of(&live) {
            prop_assert!(adapter.lookup_class(&other, &mut scratch).is_none());
            prop_assert!(scratch.class_maps().is_none());
        }
    }

    /// The zero-allocation pair — `lookup_class` then
    /// `route_replay_permuted_into` — delivers exactly what fresh planning
    /// of the live frame delivers, and rejects nothing fresh planning
    /// accepts.
    #[test]
    fn class_pair_is_bit_identical_to_fresh_planning(
        (n, asg, pair1, pair2) in frame_with_relabelings(),
    ) {
        let donor = relabel(&asg, &pair1);
        let live = relabel(&asg, &pair2);
        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        let (_, plan) = net.route_capture(&donor, &mut scratch).unwrap();
        let cache = PlanCache::new(8);
        cache.insert_canonical(&canonicalize(&donor), Arc::new(plan));

        let plan = cache.lookup_class(&live, &mut scratch).expect("class hit");
        net.route_replay_permuted_into(&live, &plan, &mut scratch).unwrap();
        let fresh = net.route(&live).unwrap();
        for (o, src) in scratch.output_sources().enumerate() {
            prop_assert_eq!(src, fresh.output_source(o), "output {}", o);
        }
        prop_assert_eq!(cache.stats().canonical_hits, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// End to end through the engine: a churn batch (every frame a distinct
    /// relabeling of one shape) misses the exact tier but rides the
    /// canonical tier, with results identical to a cache-less engine — and
    /// after a snapshot round-trip a warm engine replays every frame on
    /// first sight.
    #[test]
    fn churn_batches_ride_the_canonical_tier_and_survive_snapshots(
        (n, asg, _, _) in frame_with_relabelings(),
        shifts in vec(1usize..8, 4..=6),
    ) {
        // Distinct relabelings by rotating ports with coprime-ish shifts;
        // dedup below keeps the accounting exact even when two coincide.
        let mut batch = vec![asg.clone()];
        for (k, s) in shifts.iter().enumerate() {
            let rot: Vec<usize> = (0..n).map(|i| (i + s + k) % n).collect();
            batch.push(relabel(&asg, &(rot.clone(), rot)));
        }

        let plain = Engine::with_config(n, EngineConfig::sequential()).unwrap();
        let cached =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let want = plain.route_batch(&batch);
        let cold = cached.route_batch(&batch);
        for (a, b) in want.results.iter().zip(&cold.results) {
            prop_assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }

        // One class: exactly one fresh plan (frame 0's, the only exact-tier
        // resident). Every later frame equal to frame 0 hits exactly;
        // everything else — including repeats of canonically-served frames,
        // which are never promoted into the exact tier — hits canonically.
        let repeats_of_first = batch[1..].iter().filter(|f| **f == batch[0]).count() as u64;
        prop_assert_eq!(cold.stats.plan_misses, 1);
        prop_assert_eq!(cold.stats.plan_exact_hits, repeats_of_first);
        prop_assert_eq!(
            cold.stats.plan_canonical_hits,
            batch.len() as u64 - 1 - repeats_of_first,
            "every relabeled frame must hit canonically"
        );
        prop_assert_eq!(
            cold.stats.plan_hits + cold.stats.plan_misses,
            batch.len() as u64
        );

        // Snapshot → fresh cache → warm engine: zero fresh planning, and
        // identical hit behavior on a probe batch.
        let snap = cached.plan_cache().unwrap().snapshot();
        let warmed = Arc::new(PlanCache::new(64));
        let loaded = warmed.load_snapshot(&snap).unwrap();
        prop_assert_eq!(loaded.loaded, 1);

        let mut warm_engine =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        warm_engine.share_plan_cache(Arc::clone(&warmed));
        let warm = warm_engine.route_batch(&batch);
        for (a, b) in want.results.iter().zip(&warm.results) {
            prop_assert_eq!(a.as_ref().unwrap(), b.as_ref().unwrap());
        }
        prop_assert_eq!(warm.stats.plan_misses, 0, "snapshot-warmed engine plans nothing");
        prop_assert_eq!(warm.stats.plan_hits, batch.len() as u64);
        prop_assert_eq!(warm.stats.plan_snapshot_loaded, 1);
    }
}
