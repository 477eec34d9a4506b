//! Per-op planning profiler: where does cold-path planning time go?
//!
//! The packed planners spend their time in four places — packing tag planes,
//! extracting rank-queryable planes, the scatter backward wave, and the
//! (fused) quasisort backward wave. [`PlanOpProfile`] tallies each:
//!
//! * **op counts are always on** — they are closed-form per wave (so many
//!   plane words packed, so many segment counts per level, so many tree
//!   nodes settled) plus an increment per tie-resolution walk step, and cost
//!   a handful of adds per *sweep*, not per op;
//! * **nanosecond totals are feature-gated** behind the `plan-profile`
//!   cargo feature. Without the feature every timestamp read compiles to a
//!   zero constant, keeping the planners byte-for-byte as fast as before
//!   (pinned by the `alloc-count` gate running with the feature both on and
//!   off). With the feature, each phase is timed at *wave* granularity — one
//!   clock read per phase per sweep call (a whole level on the fast path) —
//!   so the profile overhead never perturbs the ops it measures.
//!
//! Category map (documented here once; the planners reference it):
//!
//! | category     | ops                                            | nanos |
//! |--------------|------------------------------------------------|-------|
//! | `tag_derive` | tags packed into the two bit planes            | `SweepScratch::set_tags`: the level pass's entry step, which it runs inside its clock, and the packing of the planes from the tokens, 64 tags per word (the post-scatter reload packs only) |
//! | `rank`       | count queries of the nodes above tree level 1: two per node (a ladder read is one, and the scatter's j = 2 table lookup stands for a node's two) plus two per tie-walk step, so `2(len/2 − len/seg) + 2·steps` per scatter sweep and `2(len/2 − len/seg)` per quasisort sweep; the word-parallel j = 1 step issues none | plane extraction and popcount-ladder builds (the count infrastructure the queries run on) |
//! | `scatter`    | tree nodes settled by Table 4 waves            | scatter backward waves |
//! | `quasisort`  | tree nodes settled by Table 6 + 3 fused waves  | quasisort backward waves (incl. the Eq. 2 pre-checks) |
//!
//! The profile rides [`StageTimer`](../../brsmn_core/engine/struct.StageTimer.html)
//! through every merge the engine already does, so it flows `bitplan` →
//! `BatchPlanner` → `EngineStats` → `ServeReport` → `bench_report` without
//! any new plumbing at the aggregation layers.

use serde::{Deserialize, Serialize};

/// Tallies of the four planning-op categories: counts (always exact) and
/// nanosecond totals (zero unless the `plan-profile` feature is enabled).
/// See the [module docs](self) for what each category covers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanOpProfile {
    /// Tags packed into the two bit planes.
    pub tag_derive_ops: u64,
    /// Nanoseconds spent deriving tags (the entry step a load runs) and
    /// packing them into the planes (0 unless `plan-profile`).
    pub tag_derive_nanos: u64,
    /// Count queries issued by the backward waves for the nodes above tree
    /// level 1 (two per node, a ladder read counting as one and the
    /// scatter's j = 2 table lookup as a node's two), including every
    /// tie-resolution walk step; the word-parallel j = 1 step issues none.
    pub rank_ops: u64,
    /// Nanoseconds spent extracting the count planes and building their
    /// popcount ladders (0 unless `plan-profile`).
    pub rank_nanos: u64,
    /// Tree nodes settled by scatter (Table 4) backward waves.
    pub scatter_ops: u64,
    /// Nanoseconds spent in scatter backward waves (0 unless `plan-profile`).
    pub scatter_nanos: u64,
    /// Tree nodes settled by quasisort (Table 6 + Table 3 fused) waves.
    pub quasisort_ops: u64,
    /// Nanoseconds spent in quasisort waves (0 unless `plan-profile`).
    pub quasisort_nanos: u64,
}

impl PlanOpProfile {
    /// An all-zero profile.
    pub fn new() -> Self {
        PlanOpProfile::default()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        *self == PlanOpProfile::default()
    }

    /// Total op count across all four categories.
    pub fn total_ops(&self) -> u64 {
        self.tag_derive_ops + self.rank_ops + self.scatter_ops + self.quasisort_ops
    }

    /// Total nanoseconds across all four categories (0 unless the
    /// `plan-profile` feature timed them).
    pub fn total_nanos(&self) -> u64 {
        self.tag_derive_nanos + self.rank_nanos + self.scatter_nanos + self.quasisort_nanos
    }

    /// Adds `other`'s tallies into `self` (the engine's stats merges).
    pub fn merge(&mut self, other: &PlanOpProfile) {
        self.tag_derive_ops += other.tag_derive_ops;
        self.tag_derive_nanos += other.tag_derive_nanos;
        self.rank_ops += other.rank_ops;
        self.rank_nanos += other.rank_nanos;
        self.scatter_ops += other.scatter_ops;
        self.scatter_nanos += other.scatter_nanos;
        self.quasisort_ops += other.quasisort_ops;
        self.quasisort_nanos += other.quasisort_nanos;
    }
}

/// A phase clock that is a real [`std::time::Instant`] with the
/// `plan-profile` feature and a zero-sized no-op without it — the planners
/// call it unconditionally and the compiler erases it when the feature is
/// off.
#[derive(Clone, Copy)]
pub(crate) struct ProfClock {
    #[cfg(feature = "plan-profile")]
    t0: std::time::Instant,
}

impl ProfClock {
    /// Reads the clock (a no-op without `plan-profile`).
    #[inline]
    pub(crate) fn start() -> Self {
        ProfClock {
            #[cfg(feature = "plan-profile")]
            t0: std::time::Instant::now(),
        }
    }

    /// Nanoseconds since [`ProfClock::start`] (always 0 without
    /// `plan-profile`).
    #[inline]
    pub(crate) fn elapsed_nanos(self) -> u64 {
        #[cfg(feature = "plan-profile")]
        {
            self.t0.elapsed().as_nanos() as u64
        }
        #[cfg(not(feature = "plan-profile"))]
        {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_field() {
        let a = PlanOpProfile {
            tag_derive_ops: 1,
            tag_derive_nanos: 2,
            rank_ops: 3,
            rank_nanos: 4,
            scatter_ops: 5,
            scatter_nanos: 6,
            quasisort_ops: 7,
            quasisort_nanos: 8,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.total_ops(), 2 * (1 + 3 + 5 + 7));
        assert_eq!(b.total_nanos(), 2 * (2 + 4 + 6 + 8));
        assert!(!b.is_empty());
        assert!(PlanOpProfile::new().is_empty());
    }

    #[test]
    fn serde_round_trips() {
        let p = PlanOpProfile {
            rank_ops: 42,
            ..PlanOpProfile::default()
        };
        let json = serde_json::to_string(&p).unwrap();
        let back: PlanOpProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
