//! Acceptance property: the parallel batched engine is **bit-identical** to
//! the sequential router, for both message models, network sizes in
//! {8, 16, 64}, and batches of ≥ 32 random frames.

use brsmn_core::{Brsmn, Engine, EngineConfig, MulticastAssignment};
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

/// Strategy: a batch of 32–40 random frames over a shared size n ∈ {8, 16, 64}.
fn batches() -> impl Strategy<Value = (usize, Vec<MulticastAssignment>)> {
    prop_oneof![Just(8usize), Just(16), Just(64)].prop_flat_map(|n| {
        (
            Just(n),
            vec(
                vec(option::weighted(0.8, 0..n), n)
                    .prop_map(move |choices| assignment_from_choices(n, &choices)),
                32..=40,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_batch_bit_identical_to_sequential((n, batch) in batches()) {
        let net = Brsmn::new(n).unwrap();
        let reference: Vec<_> = batch.iter().map(|asg| net.route(asg).unwrap()).collect();

        // Frame-level parallelism across 1, 2 and 4 workers, with the plan
        // cache off and on (frames repeat within a batch only by chance, so
        // the cached engine mostly plans).
        for workers in [1, 2, 4] {
            for cache in [0, 64] {
                let cfg = EngineConfig::batch(workers).with_plan_cache(cache);
                let pooled = Engine::with_config(n, cfg).unwrap();
                let out = pooled.route_batch(&batch);
                prop_assert_eq!(out.results.len(), batch.len());
                for (got, want) in out.results.iter().zip(&reference) {
                    prop_assert_eq!(got.as_ref().unwrap(), want);
                }
                prop_assert_eq!(out.stats.frames_ok, batch.len());
                prop_assert_eq!(out.stats.frames_failed, 0);
            }
        }
    }

    #[test]
    fn self_routing_batch_bit_identical((n, batch) in batches()) {
        let net = Brsmn::new(n).unwrap();
        let engine = Engine::with_config(n, EngineConfig::batch(4)).unwrap();
        let out = engine.route_batch_self_routing(&batch);
        for (asg, got) in batch.iter().zip(&out.results) {
            prop_assert_eq!(got.as_ref().unwrap(), &net.route_self_routing(asg).unwrap());
        }
    }

    #[test]
    fn stats_invariants_hold((n, batch) in batches()) {
        let engine = Engine::with_config(n, EngineConfig::batch(2)).unwrap();
        let out = engine.route_batch(&batch);
        let stats = &out.stats;
        prop_assert_eq!(stats.n, n);
        prop_assert_eq!(stats.batch, batch.len());
        prop_assert_eq!(stats.frames_ok + stats.frames_failed, batch.len());

        // Exact per-level block counts: level i holds 2^{i-1} BSNs per frame,
        // and the final stage n/2 switches per frame.
        let m = n.trailing_zeros() as usize;
        prop_assert_eq!(stats.stages.levels.len(), m - 1);
        for (i, level) in stats.stages.levels.iter().enumerate() {
            prop_assert_eq!(level.blocks, (batch.len() << i) as u64);
        }
        prop_assert_eq!(stats.stages.final_switches, (batch.len() * n / 2) as u64);

        // Switch settings: sum over levels of 2^{i-1} · s·log2(s) + n/2 final.
        let mut per_frame = n as u64 / 2;
        for i in 1..m {
            let s = (n >> (i - 1)) as u64;
            per_frame += (1u64 << (i - 1)) * s * (s.trailing_zeros() as u64);
        }
        prop_assert_eq!(stats.stages.switch_settings, per_frame * batch.len() as u64);
        prop_assert!(stats.busy_nanos > 0);
        prop_assert!(stats.wall_nanos > 0);
    }
}
