//! The feedback implementation of the BRSMN (Section 7.3, Fig. 13).
//!
//! All functional components of the BRSMN are recursively constructed
//! reverse banyan networks, so one **physical** `n × n` RBN suffices: its
//! outputs feed back to the inputs with the same addresses, and each pass
//! re-programs (part of) the switch array:
//!
//! * level 1: pass 1 = the full RBN as the scatter network, pass 2 = the full
//!   RBN as the quasisorting network;
//! * level `i > 1`: the `2^{i−1}` sub-RBNs of size `n/2^{i−1}` — which are
//!   physically the *first* `m − i + 1` stages of the same array — serve as
//!   the scatter / quasisorting networks of the level-`i` BSNs, two more
//!   passes;
//! * final level: blocks of size 2 are realized by the stage-0 switches in a
//!   single last pass.
//!
//! Hardware drops from `Θ(n log² n)` gates to `Θ(n log n)` while the routing
//! still takes `2(m−1)+1 = O(log n)` passes of `O(log n)` stages each — the
//! same `O(log² n)` time as the unfolded network.

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::brsmn::{extract_result, final_switch};
use crate::error::CoreError;
use crate::metrics;
use crate::payload::{payload_lines, RoutePayload, SelfRoutedMsg, SemanticMsg};
use brsmn_rbn::{plan_quasisort, plan_scatter, RbnSettings};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::{Line, Tag};
use brsmn_topology::{check_size, log2_exact};
use serde::{Deserialize, Serialize};

/// Execution statistics of one feedback-mode routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedbackStats {
    /// Passes made through the physical RBN (`2(m−1) + 1`).
    pub passes: u64,
    /// Switches in the physical RBN (`(n/2)·m` — the hardware cost driver).
    pub physical_switches: u64,
    /// Total switch-stage traversals experienced (each pass crosses all `m`
    /// stages of the array; unused trailing stages sit at parallel).
    pub stage_traversals: u64,
    /// Individual switch-setting writes performed across all passes.
    pub reprogrammed_switches: u64,
}

/// The feedback implementation: one physical RBN realizing a whole BRSMN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeedbackBrsmn {
    n: usize,
    m: usize,
}

impl FeedbackBrsmn {
    /// Creates a feedback network of size `n = 2^m`.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        check_size(n)?;
        Ok(FeedbackBrsmn {
            n,
            m: log2_exact(n) as usize,
        })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Routes `asg` with destination-set payloads (semantic engine).
    pub fn route(
        &self,
        asg: &MulticastAssignment,
    ) -> Result<(RoutingResult, FeedbackStats), CoreError> {
        assert_eq!(asg.n(), self.n);
        let lines = payload_lines(asg, |i, dests| SemanticMsg::new(i, dests.to_vec()));
        let (out, stats) = self.route_lines(lines)?;
        Ok((extract_result(out)?, stats))
    }

    /// Routes `asg` with `SEQ` tag-stream payloads (self-routing engine).
    pub fn route_self_routing(
        &self,
        asg: &MulticastAssignment,
    ) -> Result<(RoutingResult, FeedbackStats), CoreError> {
        assert_eq!(asg.n(), self.n);
        let lines = payload_lines(asg, |i, dests| SelfRoutedMsg::prepare(self.n, i, dests));
        let (out, stats) = self.route_lines(lines)?;
        Ok((extract_result(out)?, stats))
    }

    /// The multi-pass engine over pre-built lines.
    pub fn route_lines<P: RoutePayload>(
        &self,
        mut lines: Vec<Line<P>>,
    ) -> Result<(Vec<Line<P>>, FeedbackStats), CoreError> {
        let n = self.n;
        let m = self.m;
        let mut physical = RbnSettings::identity(n);
        let mut stats = FeedbackStats {
            passes: 0,
            physical_switches: metrics::feedback_switches(n),
            stage_traversals: 0,
            reprogrammed_switches: 0,
        };

        for level in 1..m {
            let bs = n >> (level - 1);

            // ---- Scatter pass -------------------------------------------
            physical.reset_parallel();
            for base in (0..n).step_by(bs) {
                // Tag every line of the block from its payload.
                for line in lines[base..base + bs].iter_mut() {
                    line.tag = match &line.payload {
                        Some(p) => p.entry_tag(base, bs),
                        None => Tag::Eps,
                    };
                }
                let tags: Vec<Tag> = lines[base..base + bs].iter().map(|l| l.tag).collect();
                let counts = TagCounts::of(&tags);
                if !counts.satisfies_bsn_input_constraints() {
                    return Err(CoreError::HalfCapacityExceeded {
                        n: bs,
                        n0: counts.n0,
                        n1: counts.n1,
                        na: counts.na,
                    });
                }
                let plan = plan_scatter(&tags, 0);
                physical.program_subnetwork(base, &plan.settings);
                stats.reprogrammed_switches += (bs as u64 / 2) * log2_exact(bs) as u64;
            }
            for base in (0..n).step_by(bs) {
                let mut split = |p: P| p.split(base, bs);
                physical.run_block(&mut lines, base, bs, &mut split)?;
            }
            stats.passes += 1;
            stats.stage_traversals += m as u64;

            // ---- Quasisort pass -----------------------------------------
            physical.reset_parallel();
            for base in (0..n).step_by(bs) {
                let tags: Vec<Tag> = lines[base..base + bs].iter().map(|l| l.tag).collect();
                let (_, sort) = plan_quasisort(&tags)?;
                physical.program_subnetwork(base, &sort.settings);
                stats.reprogrammed_switches += (bs as u64 / 2) * log2_exact(bs) as u64;
            }
            for base in (0..n).step_by(bs) {
                let mut split = |p: P| p.split(base, bs);
                physical.run_block(&mut lines, base, bs, &mut split)?;
            }
            stats.passes += 1;
            stats.stage_traversals += m as u64;

            // ---- Descend into halves ------------------------------------
            for (pos, line) in lines.iter_mut().enumerate() {
                if line.tag != Tag::Eps {
                    let base = pos / bs * bs;
                    let branch = line.tag;
                    let payload = line.payload.take().expect("tagged line has a payload");
                    line.payload = Some(payload.descend(branch, base, bs));
                }
            }
        }

        // ---- Final pass: stage-0 switches realize the last bit ----------
        let mut out = Vec::with_capacity(n);
        for base in (0..n).step_by(2) {
            let pair = vec![
                std::mem::replace(&mut lines[base], Line::empty()),
                std::mem::replace(&mut lines[base + 1], Line::empty()),
            ];
            out.extend(final_switch(pair, base, &mut None)?);
        }
        stats.passes += 1;
        stats.stage_traversals += m as u64;
        stats.reprogrammed_switches += n as u64 / 2;

        Ok((out, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brsmn::Brsmn;

    fn paper_assignment() -> MulticastAssignment {
        MulticastAssignment::from_sets(
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
        .unwrap()
    }

    #[test]
    fn feedback_realizes_paper_example() {
        let net = FeedbackBrsmn::new(8).unwrap();
        let (result, stats) = net.route(&paper_assignment()).unwrap();
        assert!(result.realizes(&paper_assignment()));
        assert_eq!(stats.passes, 5); // 2·(3−1) + 1
        assert_eq!(stats.physical_switches, 12); // (8/2)·3
    }

    #[test]
    fn feedback_agrees_with_unfolded_network() {
        let asg = paper_assignment();
        let unfolded = Brsmn::new(8).unwrap().route(&asg).unwrap();
        let (fed, _) = FeedbackBrsmn::new(8).unwrap().route(&asg).unwrap();
        assert_eq!(unfolded, fed);
    }

    #[test]
    fn feedback_self_routing_engine() {
        let asg = paper_assignment();
        let (r, _) = FeedbackBrsmn::new(8)
            .unwrap()
            .route_self_routing(&asg)
            .unwrap();
        assert!(r.realizes(&asg));
    }

    #[test]
    fn feedback_n2() {
        let asg = MulticastAssignment::from_sets(2, vec![vec![0, 1], vec![]]).unwrap();
        let (r, stats) = FeedbackBrsmn::new(2).unwrap().route(&asg).unwrap();
        assert!(r.realizes(&asg));
        assert_eq!(stats.passes, 1);
    }

    #[test]
    fn stats_match_metrics_formulas() {
        for n in [4usize, 8, 16, 64] {
            let asg = MulticastAssignment::empty(n).unwrap();
            let (_, stats) = FeedbackBrsmn::new(n).unwrap().route(&asg).unwrap();
            assert_eq!(stats.passes, metrics::feedback_passes(n));
            assert_eq!(
                stats.stage_traversals,
                metrics::feedback_depth_traversed(n)
            );
            assert_eq!(stats.physical_switches, metrics::feedback_switches(n));
        }
    }

    #[test]
    fn broadcast_through_feedback() {
        let n = 16;
        let mut sets = vec![Vec::new(); n];
        sets[9] = (0..n).collect();
        let asg = MulticastAssignment::from_sets(n, sets).unwrap();
        let (r, _) = FeedbackBrsmn::new(n).unwrap().route(&asg).unwrap();
        assert!(r.realizes(&asg));
    }
}
