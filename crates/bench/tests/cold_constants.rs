//! Acceptance gate for the cold-path constant shrink: carried-rank sweeps
//! must cut the per-planning-op constants, verified from the profiler's
//! exact op tallies (machine-independent).
//!
//! The planners' own op counters model the shrink: the pre-carried
//! scatter wave answered every node's forward value through three `(l,
//! type)` evaluations of 4 rank queries each (12 per settled node, plus 4
//! per tie-walk step), and the fused quasisort wave issued 4 plane-rank
//! queries per node. The carried form issues 2 aligned segment counts per
//! node above tree level 1 (+2 per tie-walk step in a scatter), a ladder
//! read counting as one and the scatter's j = 2 table lookup as a node's
//! two, and none for the two-leaf nodes, which settle 32 per plane word
//! from boolean formulas — everything else rides down from the parent. The profiler records the *actual* query count (`rank_ops`)
//! and the settled-node counts (`scatter_ops`, `quasisort_ops`), so the
//! modeled old-to-new query ratio is computed from a real run and must
//! stay ≥ 2×.

use brsmn_bench::dense_batch;
use brsmn_core::{Brsmn, MulticastAssignment, RouteScratch, StageTimer};

const SEED: u64 = 7;

#[test]
fn carried_rank_sweeps_shrink_planning_queries_at_least_2x() {
    for n in [64usize, 256, 1024] {
        let net = Brsmn::new(n).unwrap();
        let batch = dense_batch(n, 8, SEED);
        let refs: Vec<&MulticastAssignment> = batch.iter().collect();
        let mut scratch = RouteScratch::new(n).unwrap();
        let mut timer = StageTimer::new();
        for asg in &refs {
            net.route_into_timed(asg, &mut scratch, &mut timer).unwrap();
        }
        let p = &timer.plan_profile;
        assert!(p.scatter_ops > 0 && p.quasisort_ops > 0 && p.rank_ops > 0);

        // What the same waves would have issued before the carried-rank
        // rewrite (12 queries per scatter node, 4 per quasisort node; the
        // tie-walk term only adds to the old side, so dropping it keeps the
        // model conservative).
        let old_queries = (12 * p.scatter_ops + 4 * p.quasisort_ops) as f64;
        let ratio = old_queries / p.rank_ops as f64;
        assert!(
            ratio >= 2.0,
            "n={n}: modeled query shrink {ratio:.2}x < 2x \
             (rank_ops={}, scatter_ops={}, quasisort_ops={})",
            p.rank_ops,
            p.scatter_ops,
            p.quasisort_ops
        );
    }
}
