//! Multicast assignments and routing results (Section 2 of the paper).
//!
//! A multicast assignment on an `n × n` network is a set `{I_0, …, I_{n−1}}`
//! of pairwise-disjoint *destination sets*: input `i` must be connected to
//! every output in `I_i`, over edge-disjoint trees. A permutation assignment
//! is the special case where every `I_i` has at most one element.

use brsmn_topology::{check_size, SizeError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors constructing a multicast assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssignmentError {
    /// `n` is not a power of two.
    Size(SizeError),
    /// Wrong number of destination sets.
    WrongInputCount {
        /// Sets provided.
        got: usize,
        /// Sets expected (= n).
        expected: usize,
    },
    /// A destination address is out of range.
    DestOutOfRange {
        /// The input whose set contains it.
        input: usize,
        /// The offending destination.
        dest: usize,
    },
    /// Two inputs both claim the same output (destination sets must be
    /// disjoint: each output hears at most one input).
    OverlappingDest {
        /// The contested output.
        dest: usize,
        /// First input claiming it.
        first: usize,
        /// Second input claiming it.
        second: usize,
    },
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::Size(e) => e.fmt(f),
            AssignmentError::WrongInputCount { got, expected } => {
                write!(f, "expected {expected} destination sets, got {got}")
            }
            AssignmentError::DestOutOfRange { input, dest } => {
                write!(f, "input {input}: destination {dest} out of range")
            }
            AssignmentError::OverlappingDest {
                dest,
                first,
                second,
            } => write!(
                f,
                "output {dest} claimed by both input {first} and input {second}"
            ),
        }
    }
}

impl std::error::Error for AssignmentError {}

impl From<SizeError> for AssignmentError {
    fn from(e: SizeError) -> Self {
        AssignmentError::Size(e)
    }
}

/// A validated multicast assignment `{I_0, …, I_{n−1}}`.
///
/// Destination sets are pairwise disjoint and sorted; construction rejects
/// anything else, so every `MulticastAssignment` in the workspace is
/// routable by the nonblocking theorem.
///
/// ```
/// use brsmn_core::MulticastAssignment;
///
/// // The paper's running example (Fig. 2): input 2 multicasts to {3,4,7}.
/// let asg = MulticastAssignment::from_sets(8, vec![
///     vec![0, 1], vec![], vec![3, 4, 7], vec![2],
///     vec![],     vec![], vec![],        vec![5, 6],
/// ]).unwrap();
/// assert_eq!(asg.n(), 8);
/// assert_eq!(asg.dests(2), &[3, 4, 7]);
/// assert_eq!(asg.total_connections(), 8);
/// assert_eq!(asg.source_of_output(4), Some(2));
/// assert!(!asg.is_permutation()); // input 2 has fanout 3
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MulticastAssignment {
    n: usize,
    /// `dests[i]` is `I_i`, sorted ascending.
    dests: Vec<Vec<usize>>,
}

impl MulticastAssignment {
    /// Builds and validates an assignment from raw destination sets.
    /// Duplicate entries within one set are merged.
    ///
    /// Each set is sorted and deduplicated in place (a set that is already
    /// strictly increasing is left alone) and stored exactly sized. The
    /// first error reported is the one met walking the inputs in order and
    /// each set's distinct destinations in ascending order.
    pub fn from_sets(n: usize, mut sets: Vec<Vec<usize>>) -> Result<Self, AssignmentError> {
        check_size(n)?;
        if sets.len() != n {
            return Err(AssignmentError::WrongInputCount {
                got: sets.len(),
                expected: n,
            });
        }
        let mut claimed: Vec<Option<usize>> = vec![None; n];
        for (input, set) in sets.iter_mut().enumerate() {
            if !set.windows(2).all(|w| w[0] < w[1]) {
                set.sort_unstable();
                set.dedup();
            }
            for &d in set.iter() {
                if d >= n {
                    return Err(AssignmentError::DestOutOfRange { input, dest: d });
                }
                if let Some(first) = claimed[d] {
                    return Err(AssignmentError::OverlappingDest {
                        dest: d,
                        first,
                        second: input,
                    });
                }
                claimed[d] = Some(input);
            }
            if set.capacity() != set.len() {
                // A fresh exact allocation, not `shrink_to_fit`: shrinking
                // in place leaves a small set in its grown allocator chunk.
                *set = set.to_vec();
            }
        }
        sets.shrink_to_fit();
        Ok(MulticastAssignment { n, dests: sets })
    }

    /// The empty assignment (no input carries a message).
    pub fn empty(n: usize) -> Result<Self, AssignmentError> {
        Self::from_sets(n, vec![Vec::new(); n])
    }

    /// Builds a (partial) permutation assignment: `perm[i] = Some(o)` sends
    /// input `i` to output `o`.
    pub fn from_permutation(perm: &[Option<usize>]) -> Result<Self, AssignmentError> {
        let sets = perm
            .iter()
            .map(|p| p.map(|o| vec![o]).unwrap_or_default())
            .collect();
        Self::from_sets(perm.len(), sets)
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The destination set of input `i` (sorted ascending).
    pub fn dests(&self, i: usize) -> &[usize] {
        &self.dests[i]
    }

    /// Iterates `(input, destination set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.dests.iter().enumerate().map(|(i, d)| (i, d.as_slice()))
    }

    /// Number of inputs carrying a message.
    pub fn active_inputs(&self) -> usize {
        self.dests.iter().filter(|d| !d.is_empty()).count()
    }

    /// Total number of point-to-point connections (`Σ |I_i|`).
    pub fn total_connections(&self) -> usize {
        self.dests.iter().map(|d| d.len()).sum()
    }

    /// The *fanout* of the assignment: the largest destination-set size.
    pub fn max_fanout(&self) -> usize {
        self.dests.iter().map(|d| d.len()).max().unwrap_or(0)
    }

    /// `true` if every destination set has at most one element.
    pub fn is_permutation(&self) -> bool {
        self.max_fanout() <= 1
    }

    /// Which input (if any) must reach output `o`.
    pub fn source_of_output(&self, o: usize) -> Option<usize> {
        self.dests
            .iter()
            .position(|d| d.binary_search(&o).is_ok())
    }

    /// Renders the assignment in the paper's set notation, e.g.
    /// `{{0,1}, φ, {3,4,7}, {2}, φ, φ, φ, {5,6}}`.
    pub fn set_notation(&self) -> String {
        let parts: Vec<String> = self
            .dests
            .iter()
            .map(|d| {
                if d.is_empty() {
                    "φ".to_string()
                } else {
                    format!(
                        "{{{}}}",
                        d.iter()
                            .map(|x| x.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    )
                }
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Written by hand rather than derived: the derived `==` hands all `n`
/// sets to `memcmp`, and comparing two *empty* `Vec`s through their
/// dangling pointers can take a slow path in some `memcmp`s (see
/// EXPERIMENTS.md). A frame holds mostly empty sets, and both plan-cache
/// tiers guard every hit with this comparison, so it checks `n`, then every
/// set's length, then the contents of the non-empty sets only.
impl PartialEq for MulticastAssignment {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.dests.len() == other.dests.len()
            && self
                .dests
                .iter()
                .zip(&other.dests)
                .all(|(a, b)| a.len() == b.len())
            && self
                .dests
                .iter()
                .zip(&other.dests)
                .all(|(a, b)| a.is_empty() || a[..] == b[..])
    }
}

impl Eq for MulticastAssignment {}

impl fmt::Display for MulticastAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.set_notation())
    }
}

/// The outcome of routing an assignment through a network: which input's
/// message arrived at each output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingResult {
    n: usize,
    source_of: Vec<Option<usize>>,
}

impl RoutingResult {
    /// Builds a result from the per-output source table.
    pub fn new(source_of: Vec<Option<usize>>) -> Self {
        RoutingResult {
            n: source_of.len(),
            source_of,
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The input whose message arrived at output `o` (`None` = idle output).
    pub fn output_source(&self, o: usize) -> Option<usize> {
        self.source_of[o]
    }

    /// `true` iff this result realizes `asg` *exactly*: every output in `I_i`
    /// received input `i`'s message, and outputs in no destination set
    /// received nothing.
    pub fn realizes(&self, asg: &MulticastAssignment) -> bool {
        self.n == asg.n() && (0..self.n).all(|o| self.source_of[o] == asg.source_of_output(o))
    }

    /// Outputs that received a message.
    pub fn active_outputs(&self) -> usize {
        self.source_of.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> MulticastAssignment {
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
    fn paper_example_validates() {
        let asg = paper_example();
        assert_eq!(asg.n(), 8);
        assert_eq!(asg.active_inputs(), 4);
        assert_eq!(asg.total_connections(), 8);
        assert_eq!(asg.max_fanout(), 3);
        assert!(!asg.is_permutation());
    }

    #[test]
    fn set_notation_matches_paper() {
        assert_eq!(
            paper_example().set_notation(),
            "{{0,1}, φ, {3,4,7}, {2}, φ, φ, φ, {5,6}}"
        );
    }

    #[test]
    fn source_of_output_inverts_sets() {
        let asg = paper_example();
        assert_eq!(asg.source_of_output(0), Some(0));
        assert_eq!(asg.source_of_output(4), Some(2));
        assert_eq!(asg.source_of_output(5), Some(7));
        // No input owns... all outputs are claimed in this example:
        for o in 0..8 {
            assert!(asg.source_of_output(o).is_some());
        }
    }

    #[test]
    fn rejects_overlap() {
        let err = MulticastAssignment::from_sets(4, vec![vec![1], vec![1], vec![], vec![]])
            .unwrap_err();
        assert_eq!(
            err,
            AssignmentError::OverlappingDest {
                dest: 1,
                first: 0,
                second: 1
            }
        );
    }

    #[test]
    fn rejects_out_of_range() {
        let err =
            MulticastAssignment::from_sets(4, vec![vec![4], vec![], vec![], vec![]]).unwrap_err();
        assert_eq!(err, AssignmentError::DestOutOfRange { input: 0, dest: 4 });
    }

    #[test]
    fn rejects_wrong_count_and_bad_size() {
        assert!(matches!(
            MulticastAssignment::from_sets(4, vec![vec![]; 3]),
            Err(AssignmentError::WrongInputCount { got: 3, expected: 4 })
        ));
        assert!(matches!(
            MulticastAssignment::from_sets(6, vec![vec![]; 6]),
            Err(AssignmentError::Size(_))
        ));
    }

    #[test]
    fn duplicates_within_a_set_merge() {
        let asg =
            MulticastAssignment::from_sets(4, vec![vec![2, 2, 1], vec![], vec![], vec![]]).unwrap();
        assert_eq!(asg.dests(0), &[1, 2]);
    }

    #[test]
    fn permutation_constructor() {
        let asg =
            MulticastAssignment::from_permutation(&[Some(3), None, Some(0), Some(1)]).unwrap();
        assert!(asg.is_permutation());
        assert_eq!(asg.dests(0), &[3]);
        assert_eq!(asg.dests(1), &[] as &[usize]);
        assert_eq!(asg.active_inputs(), 3);
    }

    #[test]
    fn routing_result_realizes() {
        let asg = paper_example();
        let correct = RoutingResult::new(vec![
            Some(0),
            Some(0),
            Some(3),
            Some(2),
            Some(2),
            Some(7),
            Some(7),
            Some(2),
        ]);
        assert!(correct.realizes(&asg));
        assert_eq!(correct.active_outputs(), 8);

        let wrong = RoutingResult::new(vec![
            Some(0),
            Some(0),
            Some(3),
            Some(2),
            Some(2),
            Some(7),
            Some(7),
            None, // output 7 lost its message
        ]);
        assert!(!wrong.realizes(&asg));
    }

    #[test]
    fn empty_assignment() {
        let asg = MulticastAssignment::empty(8).unwrap();
        assert_eq!(asg.active_inputs(), 0);
        let idle = RoutingResult::new(vec![None; 8]);
        assert!(idle.realizes(&asg));
    }

    #[test]
    fn serde_round_trip() {
        let asg = paper_example();
        let json = serde_json::to_string(&asg).unwrap();
        let back: MulticastAssignment = serde_json::from_str(&json).unwrap();
        assert_eq!(asg, back);
    }
}
