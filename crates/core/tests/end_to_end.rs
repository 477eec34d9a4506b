//! End-to-end nonblocking verification: arbitrary multicast assignments are
//! realized exactly, by both engines and by the feedback implementation,
//! across network sizes.

use brsmn_core::{Brsmn, FeedbackBrsmn, MulticastAssignment, RouteScratch};
use proptest::prelude::*;

/// Strategy: a random valid multicast assignment of size `2^m`, built by
/// assigning each output an independent random source (or none).
fn arb_assignment(max_pow: u32) -> impl Strategy<Value = MulticastAssignment> {
    (1u32..=max_pow)
        .prop_flat_map(|m| {
            let n = 1usize << m;
            proptest::collection::vec(proptest::option::weighted(0.8, 0..n), n)
        })
        .prop_map(|owners| {
            let n = owners.len();
            let mut sets = vec![Vec::new(); n];
            for (output, owner) in owners.into_iter().enumerate() {
                if let Some(src) = owner {
                    sets[src].push(output);
                }
            }
            MulticastAssignment::from_sets(n, sets).expect("by construction disjoint")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline theorem: every multicast assignment is realized exactly
    /// (nonblocking), up to n = 256.
    #[test]
    fn brsmn_realizes_every_assignment(asg in arb_assignment(8)) {
        let net = Brsmn::new(asg.n()).unwrap();
        let result = net.route(&asg).unwrap();
        prop_assert!(result.realizes(&asg));
    }

    /// The self-routing engine — switches see only SEQ tag streams — always
    /// agrees with the semantic reference engine.
    #[test]
    fn self_routing_engine_agrees(asg in arb_assignment(7)) {
        let net = Brsmn::new(asg.n()).unwrap();
        let sem = net.route(&asg).unwrap();
        let slf = net.route_self_routing(&asg).unwrap();
        prop_assert_eq!(&sem, &slf);
        prop_assert!(slf.realizes(&asg));
    }

    /// The feedback implementation (one physical RBN) realizes the same
    /// connections as the unfolded network.
    #[test]
    fn feedback_agrees_with_unfolded(asg in arb_assignment(7)) {
        let n = asg.n();
        let unfolded = Brsmn::new(n).unwrap().route(&asg).unwrap();
        let (fed, stats) = FeedbackBrsmn::new(n).unwrap().route(&asg).unwrap();
        prop_assert_eq!(&unfolded, &fed);
        prop_assert!(fed.realizes(&asg));
        let m = n.trailing_zeros() as u64;
        prop_assert_eq!(stats.passes, 2 * (m - 1) + 1);
    }

    /// Feedback + self-routing: the fully faithful low-cost configuration.
    #[test]
    fn feedback_self_routing(asg in arb_assignment(6)) {
        let (r, _) = FeedbackBrsmn::new(asg.n()).unwrap().route_self_routing(&asg).unwrap();
        prop_assert!(r.realizes(&asg));
    }

    /// Permutation assignments (the classical special case) route exactly.
    #[test]
    fn permutations_route(m in 1u32..=8, seed in proptest::collection::vec(any::<u32>(), 256)) {
        let n = 1usize << m;
        // Fisher–Yates from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = seed[i % seed.len()] as usize % (i + 1);
            perm.swap(i, j);
        }
        let asg = MulticastAssignment::from_permutation(
            &perm.iter().map(|&o| Some(o)).collect::<Vec<_>>()
        ).unwrap();
        let net = Brsmn::new(n).unwrap();
        let r = net.route(&asg).unwrap();
        prop_assert!(r.realizes(&asg));
        let r2 = net.route_self_routing(&asg).unwrap();
        prop_assert_eq!(r, r2);
    }
}

/// Exhaustive check at n = 4: every function from outputs to
/// sources-or-nobody (5^4 = 625 assignments), all realized by all engines,
/// with the fast path's trace equal to the reference's and to a traced
/// replay's.
#[test]
fn exhaustive_n4_all_assignments() {
    let n = 4usize;
    let net = Brsmn::new(n).unwrap();
    let fed = FeedbackBrsmn::new(n).unwrap();
    let mut scratch = RouteScratch::new(n).unwrap();
    for code in 0..5usize.pow(4) {
        let mut sets = vec![Vec::new(); n];
        let mut c = code;
        for output in 0..n {
            let owner = c % 5;
            c /= 5;
            if owner < 4 {
                sets[owner].push(output);
            }
        }
        let asg = MulticastAssignment::from_sets(n, sets).unwrap();
        let sem = net.route(&asg).unwrap_or_else(|e| panic!("{asg}: {e}"));
        assert!(sem.realizes(&asg), "{asg}");
        let slf = net.route_self_routing(&asg).unwrap();
        assert_eq!(sem, slf, "{asg}");
        let (fb, _) = fed.route(&asg).unwrap();
        assert_eq!(sem, fb, "{asg}");
        assert_traces_agree(&net, &mut scratch, &asg);
    }
}

/// The fast path's traced route equals the reference router's, result and
/// full trace (every level's entry, post-scatter and output tags, the final
/// stage's tags and settings), and a captured plan replayed traced
/// reproduces both: the smallest-n, every-case guard on the entry tags and
/// α splits of the level pass.
fn assert_traces_agree(net: &Brsmn, scratch: &mut RouteScratch, asg: &MulticastAssignment) {
    let fast = net
        .route_traced(asg)
        .unwrap_or_else(|e| panic!("{asg}: {e}"));
    assert_eq!(
        fast,
        net.route_reference_traced(asg).unwrap(),
        "reference, {asg}"
    );
    let (result, plan) = net.route_capture(asg, scratch).unwrap();
    assert_eq!(result, fast.0, "capture, {asg}");
    assert_eq!(
        net.route_replay_traced(asg, &plan, scratch).unwrap(),
        fast,
        "traced replay, {asg}"
    );
}

/// Exhaustive check at n = 8 over single-source multicasts: every input ×
/// every non-empty destination subset (8 × 255), each realized, with the
/// fast path's trace equal to the reference's and to a traced replay's.
#[test]
fn exhaustive_n8_single_source() {
    let n = 8usize;
    let net = Brsmn::new(n).unwrap();
    let mut scratch = RouteScratch::new(n).unwrap();
    for src in 0..n {
        for mask in 1u32..256 {
            let dests: Vec<usize> = (0..n).filter(|&o| mask >> o & 1 == 1).collect();
            let mut sets = vec![Vec::new(); n];
            sets[src] = dests;
            let asg = MulticastAssignment::from_sets(n, sets).unwrap();
            let r = net.route(&asg).unwrap();
            assert!(r.realizes(&asg), "src={src} mask={mask:#010b}");
            assert_traces_agree(&net, &mut scratch, &asg);
        }
    }
}

/// Stress: a dense random multicast assignment at n = 1024 through all three
/// configurations.
#[test]
fn large_network_smoke() {
    let n = 1024usize;
    let mut sets = vec![Vec::new(); n];
    for output in 0..n {
        // Deterministic hash-based owner; ~87% of outputs covered.
        let h = output.wrapping_mul(0x9E3779B97F4A7C15u64 as usize) >> 7;
        if h % 8 != 0 {
            sets[h % n].push(output);
        }
    }
    let asg = MulticastAssignment::from_sets(n, sets).unwrap();
    let net = Brsmn::new(n).unwrap();
    let sem = net.route(&asg).unwrap();
    assert!(sem.realizes(&asg));
    let slf = net.route_self_routing(&asg).unwrap();
    assert_eq!(sem, slf);
    let (fb, stats) = FeedbackBrsmn::new(n).unwrap().route(&asg).unwrap();
    assert_eq!(sem, fb);
    assert_eq!(stats.passes, 19);
    assert_eq!(stats.physical_switches, 512 * 10);
}
