//! The binary splitting network (BSN) — Section 3 of the paper.
//!
//! An `n × n` BSN transforms its input tags so that at the outputs all `α`s
//! are eliminated, all `0`s occupy the upper half and all `1`s the lower half
//! (`ε`s fill the remainder). It is built by cascading two reverse banyan
//! networks: a *scatter network* (splits every `α` into a `0` and a `1`,
//! Theorem 2) and a *quasisorting network* (routes `0`s up and `1`s down,
//! Section 5.2). Both are planned by the distributed algorithms of
//! `brsmn-rbn`.

use crate::error::CoreError;
use crate::payload::RoutePayload;
use brsmn_rbn::{plan_quasisort, plan_scatter};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::{Line, Tag};
use brsmn_topology::check_size;
use serde::{Deserialize, Serialize};

/// Snapshot of a BSN traversal (for traces / Fig. 4b reproduction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BsnTrace {
    /// Tags on the BSN inputs.
    pub input_tags: Vec<Tag>,
    /// Tags between the scatter and quasisorting networks.
    pub after_scatter: Vec<Tag>,
    /// Tags on the BSN outputs.
    pub output_tags: Vec<Tag>,
}

/// An `n × n` binary splitting network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bsn {
    n: usize,
}

impl Bsn {
    /// Creates a BSN of size `n = 2^m`.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        check_size(n)?;
        Ok(Bsn { n })
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of 2×2 switches: two RBNs of `(n/2)·log n` each.
    pub fn switch_count(&self) -> usize {
        2 * brsmn_topology::stage::rbn_switch_count(self.n)
    }

    /// Routes one load of lines through the BSN with the array planners —
    /// the block step of the reference router, and the oracle the level
    /// pass is compared against. `lo` is the absolute output address of
    /// this BSN's first output (the BSN at level `i`, block `b` of a BRSMN
    /// spans outputs `[lo, lo + n)`).
    ///
    /// On return: upper-half lines carry tags in `{0, ε}`, lower-half lines
    /// in `{1, ε}`; `α` payloads have been split via
    /// [`RoutePayload::split`]; **no** [`RoutePayload::descend`] has happened
    /// yet (the BRSMN engine descends when handing lines to the next level).
    pub fn route_reference<P: RoutePayload>(
        &self,
        mut lines: Vec<Line<P>>,
        lo: usize,
    ) -> Result<(Vec<Line<P>>, BsnTrace), CoreError> {
        assert_eq!(lines.len(), self.n);

        // Tag each line from its payload (the self-routing engine reads the
        // head of the SEQ stream here; the semantic engine inspects the
        // destination set).
        for line in lines.iter_mut() {
            line.tag = match &line.payload {
                Some(p) => p.entry_tag(lo, self.n),
                None => Tag::Eps,
            };
        }
        let input_tags: Vec<Tag> = lines.iter().map(|l| l.tag).collect();

        // Eq. (2): a realizable load never requests more than n/2 outputs
        // per half.
        let counts = TagCounts::of(&input_tags);
        if !counts.satisfies_bsn_input_constraints() {
            return Err(CoreError::HalfCapacityExceeded {
                n: self.n,
                n0: counts.n0,
                n1: counts.n1,
                na: counts.na,
            });
        }

        // Scatter network: eliminate αs (Theorem 2; nα ≤ nε by Eq. 3).
        let scatter = plan_scatter(&input_tags, 0);
        let mut split = |p: P| p.split(lo, self.n);
        let mid = scatter.settings.run(lines, &mut split)?;
        let after_scatter: Vec<Tag> = mid.iter().map(|l| l.tag).collect();

        // Quasisorting network: ε-divide then bit-sort (only unicast
        // settings, so the splitter is never invoked).
        let (_, sort) = plan_quasisort(&after_scatter)?;
        let out = sort.settings.run(mid, &mut split)?;
        let output_tags: Vec<Tag> = out.iter().map(|l| l.tag).collect();

        // Eq. (4) postconditions, cheap enough to keep on in release builds.
        debug_assert_eq!(
            output_tags.iter().filter(|&&t| t == Tag::Zero).count(),
            counts.n0 + counts.na
        );
        debug_assert_eq!(
            output_tags.iter().filter(|&&t| t == Tag::One).count(),
            counts.n1 + counts.na
        );
        for (pos, &t) in output_tags.iter().enumerate() {
            let ok = if pos < self.n / 2 {
                t != Tag::One && t != Tag::Alpha
            } else {
                t != Tag::Zero && t != Tag::Alpha
            };
            if !ok {
                return Err(CoreError::Internal(format!(
                    "BSN postcondition violated: tag {t} at output {pos} of {}",
                    self.n
                )));
            }
        }

        Ok((
            out,
            BsnTrace {
                input_tags,
                after_scatter,
                output_tags,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::SemanticMsg;

    fn inject(n: usize, sets: &[(usize, Vec<usize>)]) -> Vec<Line<SemanticMsg>> {
        let mut lines: Vec<Line<SemanticMsg>> = (0..n).map(|_| Line::empty()).collect();
        for (src, dests) in sets {
            lines[*src] = Line {
                tag: Tag::Eps, // overwritten by Bsn::route_reference
                payload: Some(SemanticMsg::new(*src, dests.clone())),
            };
        }
        lines
    }

    #[test]
    fn paper_example_level1_split() {
        // The 8×8 running example: inputs 0:{0,1}, 2:{3,4,7}, 3:{2}, 7:{5,6}.
        let bsn = Bsn::new(8).unwrap();
        let lines = inject(
            8,
            &[
                (0, vec![0, 1]),
                (2, vec![3, 4, 7]),
                (3, vec![2]),
                (7, vec![5, 6]),
            ],
        );
        let (out, trace) = bsn.route_reference(lines, 0).unwrap();
        assert_eq!(
            trace.input_tags,
            vec![
                Tag::Zero,
                Tag::Eps,
                Tag::Alpha,
                Tag::Zero,
                Tag::Eps,
                Tag::Eps,
                Tag::Eps,
                Tag::One // {5,6} lies entirely in the lower half
            ]
        );
        // After the BSN: input 2's α splits {3,4,7} into {3} up + {4,7}
        // down. Upper half: {0,1}, {3}, {2}; lower half: {4,7}, {5,6}.
        let upper_sets: Vec<Vec<usize>> = out[..4]
            .iter()
            .filter_map(|l| l.payload.as_ref().map(|p| p.dests.clone()))
            .collect();
        let lower_sets: Vec<Vec<usize>> = out[4..]
            .iter()
            .filter_map(|l| l.payload.as_ref().map(|p| p.dests.clone()))
            .collect();
        assert_eq!(upper_sets.len(), 3);
        assert_eq!(lower_sets.len(), 2);
        assert!(upper_sets.iter().all(|d| d.iter().all(|&x| x < 4)));
        assert!(lower_sets.iter().all(|d| d.iter().all(|&x| x >= 4)));
    }

    #[test]
    fn input_tags_match_running_example() {
        // Input 7 has {5,6}: both in the lower half → tag 1, single connection.
        let bsn = Bsn::new(8).unwrap();
        let lines = inject(8, &[(7, vec![5, 6])]);
        let (_, trace) = bsn.route_reference(lines, 0).unwrap();
        assert_eq!(trace.input_tags[7], Tag::One);
    }

    #[test]
    fn full_broadcast_from_one_input() {
        let bsn = Bsn::new(8).unwrap();
        let lines = inject(8, &[(3, vec![0, 1, 2, 3, 4, 5, 6, 7])]);
        let (out, _) = bsn.route_reference(lines, 0).unwrap();
        // One α split into exactly two copies.
        let msgs: Vec<&SemanticMsg> = out.iter().filter_map(|l| l.payload.as_ref()).collect();
        assert_eq!(msgs.len(), 2);
        assert!(msgs.iter().all(|m| m.source == 3));
    }

    #[test]
    fn capacity_violation_detected() {
        // Hand-built illegal load: 5 messages all bound for the upper half.
        let bsn = Bsn::new(8).unwrap();
        let lines = inject(
            8,
            &[
                (0, vec![0]),
                (1, vec![1]),
                (2, vec![2]),
                (3, vec![3]),
                (4, vec![0]), // duplicate target: invalid as an assignment,
                              // but exercises the Eq. (2) guard
            ],
        );
        // 5 × tag 0 in an 8-wide BSN exceeds n/2 = 4.
        let err = bsn.route_reference(lines, 0).unwrap_err();
        assert!(matches!(err, CoreError::HalfCapacityExceeded { n0: 5, .. }));
    }

    #[test]
    fn offset_block_addresses() {
        // A 4-wide BSN covering absolute outputs [4, 8).
        let bsn = Bsn::new(4).unwrap();
        let mut lines: Vec<Line<SemanticMsg>> = (0..4).map(|_| Line::empty()).collect();
        lines[1] = Line {
            tag: Tag::Eps,
            payload: Some(SemanticMsg::new(9, vec![4, 7])),
        };
        let (out, trace) = bsn.route_reference(lines, 4).unwrap();
        assert_eq!(trace.input_tags[1], Tag::Alpha);
        let upper: Vec<&SemanticMsg> = out[..2].iter().filter_map(|l| l.payload.as_ref()).collect();
        let lower: Vec<&SemanticMsg> = out[2..].iter().filter_map(|l| l.payload.as_ref()).collect();
        assert_eq!(upper.len(), 1);
        assert_eq!(lower.len(), 1);
        assert_eq!(upper[0].dests, vec![4]);
        assert_eq!(lower[0].dests, vec![7]);
    }
}
