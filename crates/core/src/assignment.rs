//! Multicast assignments and routing results (Section 2 of the paper).
//!
//! A multicast assignment on an `n × n` network is a set `{I_0, …, I_{n−1}}`
//! of pairwise-disjoint *destination sets*: input `i` must be connected to
//! every output in `I_i`, over edge-disjoint trees. A permutation assignment
//! is the special case where every `I_i` has at most one element.

use brsmn_topology::{check_size, SizeError};
use serde::{DeError, Deserialize, Serialize, Value};
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
    /// A source input is out of range (the single-source constructor).
    InputOutOfRange {
        /// The offending input.
        input: usize,
        /// The network size.
        n: usize,
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
            AssignmentError::InputOutOfRange { input, n } => {
                write!(f, "input {input} out of range for n = {n}")
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
/// # Storage
///
/// The sets are stored flat, in compressed-sparse-row form: one array
/// holding every destination set back to back in input order, and `n + 1`
/// offsets into it (`I_i` is `dests[offsets[i]..offsets[i+1]]`). That is
/// the paper's §2 object held as one mapping rather than `n` separate sets:
/// an assignment costs two allocations whatever its shape, a fanout is an
/// offset difference, and equality is two slice compares.
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
#[derive(Clone)]
pub struct MulticastAssignment {
    n: usize,
    /// `n + 1` offsets into `dests`: input `i`'s set is
    /// `dests[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Every destination set, concatenated in input order; each set is
    /// sorted ascending.
    dests: Vec<usize>,
}

impl MulticastAssignment {
    /// Builds and validates an assignment from raw destination sets.
    /// Duplicate entries within one set are merged.
    ///
    /// Each set is sorted and deduplicated in place (a set that is already
    /// strictly increasing is left alone) and appended to the flat
    /// destination array. The first error reported is the one met walking
    /// the inputs in order and each set's distinct destinations in
    /// ascending order.
    pub fn from_sets(n: usize, mut sets: Vec<Vec<usize>>) -> Result<Self, AssignmentError> {
        check_size(n)?;
        if sets.len() != n {
            return Err(AssignmentError::WrongInputCount {
                got: sets.len(),
                expected: n,
            });
        }
        // One claimed bit per output, on the stack up to n = 4096 (building
        // a frame is on the serving path); the claimant of a contested
        // output is looked up in the sets already appended (error path
        // only).
        let words = n.div_ceil(64);
        let mut on_stack = [0u64; 64];
        let mut on_heap = Vec::new();
        let claimed = if words <= on_stack.len() {
            &mut on_stack[..words]
        } else {
            on_heap.resize(words, 0u64);
            &mut on_heap[..]
        };
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut dests = Vec::with_capacity(sets.iter().map(Vec::len).sum());
        let mut end = 0u32;
        for (input, set) in sets.iter_mut().enumerate() {
            // Most inputs of a frame are idle: an empty set only repeats
            // the running offset.
            if !set.is_empty() {
                if !set.windows(2).all(|w| w[0] < w[1]) {
                    set.sort_unstable();
                    set.dedup();
                }
                for &d in set.iter() {
                    if d >= n {
                        return Err(AssignmentError::DestOutOfRange { input, dest: d });
                    }
                    let (word, bit) = (d / 64, 1u64 << (d % 64));
                    if claimed[word] & bit != 0 {
                        let at = dests.iter().position(|&x| x == d).expect("claimed earlier");
                        return Err(AssignmentError::OverlappingDest {
                            dest: d,
                            first: offsets.partition_point(|&o| o as usize <= at) - 1,
                            second: input,
                        });
                    }
                    claimed[word] |= bit;
                }
                dests.extend_from_slice(set);
                end = dests.len() as u32;
            }
            offsets.push(end);
        }
        // Merged duplicates leave spare capacity; drop it so a stored
        // assignment holds exactly its connections.
        dests.shrink_to_fit();
        Ok(MulticastAssignment { n, offsets, dests })
    }

    /// The assignment in which only `source` carries a message, to `dests`:
    /// what [`MulticastAssignment::from_sets`] builds from `n` sets that are
    /// empty but for `dests` at `source`, with the same value and the same
    /// first error (plus [`AssignmentError::InputOutOfRange`] for a
    /// `source ≥ n`, which `from_sets` cannot express). It is built straight
    /// into the flat form — `dests` sorted and deduplicated in place becomes
    /// the destination array — with no `n`-long list of sets on the way, as
    /// a served request's frame is.
    pub fn single_source(
        n: usize,
        source: usize,
        mut dests: Vec<usize>,
    ) -> Result<Self, AssignmentError> {
        check_size(n)?;
        if source >= n {
            return Err(AssignmentError::InputOutOfRange { input: source, n });
        }
        if !dests.windows(2).all(|w| w[0] < w[1]) {
            dests.sort_unstable();
            dests.dedup();
            dests.shrink_to_fit();
        }
        // Sorted: the first destination past `n − 1` is the first error in
        // ascending order.
        if let Some(&dest) = dests.iter().find(|&&d| d >= n) {
            return Err(AssignmentError::DestOutOfRange {
                input: source,
                dest,
            });
        }
        let mut offsets = vec![0u32; n + 1];
        offsets[source + 1..].fill(dests.len() as u32);
        Ok(MulticastAssignment { n, offsets, dests })
    }

    /// Builds an assignment from CSR parts that are valid by construction
    /// (the canonical representative). Checked in debug builds only.
    pub(crate) fn from_csr(n: usize, offsets: Vec<u32>, dests: Vec<usize>) -> Self {
        debug_assert_eq!(offsets.len(), n + 1);
        debug_assert_eq!(offsets[n] as usize, dests.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(offsets
            .windows(2)
            .all(|w| dests[w[0] as usize..w[1] as usize]
                .windows(2)
                .all(|p| p[0] < p[1])));
        MulticastAssignment { n, offsets, dests }
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
    #[inline]
    pub fn dests(&self, i: usize) -> &[usize] {
        &self.dests[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The `n + 1` CSR offsets: input `i`'s fanout is
    /// `offsets[i + 1] − offsets[i]`.
    #[inline]
    pub(crate) fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every destination set back to back, in input order (index it with
    /// [`MulticastAssignment::offsets`]).
    #[inline]
    pub(crate) fn flat_dests(&self) -> &[usize] {
        &self.dests
    }

    /// Iterates `(input, destination set)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.offsets
            .windows(2)
            .enumerate()
            .map(|(i, w)| (i, &self.dests[w[0] as usize..w[1] as usize]))
    }

    /// Number of inputs carrying a message.
    pub fn active_inputs(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Total number of point-to-point connections (`Σ |I_i|`).
    pub fn total_connections(&self) -> usize {
        self.dests.len()
    }

    /// The *fanout* of the assignment: the largest destination-set size.
    pub fn max_fanout(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// `true` if every destination set has at most one element.
    pub fn is_permutation(&self) -> bool {
        self.max_fanout() <= 1
    }

    /// Which input (if any) must reach output `o`.
    pub fn source_of_output(&self, o: usize) -> Option<usize> {
        let at = self.dests.iter().position(|&d| d == o)?;
        Some(self.offsets.partition_point(|&x| x as usize <= at) - 1)
    }

    /// Heap bytes held by the two flat arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.dests.capacity() * std::mem::size_of::<usize>()
    }

    /// Renders the assignment in the paper's set notation, e.g.
    /// `{{0,1}, φ, {3,4,7}, {2}, φ, φ, φ, {5,6}}`.
    pub fn set_notation(&self) -> String {
        let parts: Vec<String> = self
            .iter()
            .map(|(_, d)| {
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

/// Two slice compares: the offsets fix every set's length and position,
/// the flat array their contents. (An empty destination array is not
/// handed to `memcmp` at all: comparing two dangling pointers can take a
/// slow path in some `memcmp`s, see EXPERIMENTS.md.)
impl PartialEq for MulticastAssignment {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.offsets == other.offsets
            && (self.dests.is_empty() || self.dests == other.dests)
    }
}

impl Eq for MulticastAssignment {}

/// Lists the sets as nested lists, the shape the assignment had before
/// its storage went flat.
impl fmt::Debug for MulticastAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Sets<'a>(&'a MulticastAssignment);
        impl fmt::Debug for Sets<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries(self.0.iter().map(|(_, d)| d))
                    .finish()
            }
        }
        f.debug_struct("MulticastAssignment")
            .field("n", &self.n)
            .field("dests", &Sets(self))
            .finish()
    }
}

/// Written by hand because the storage is flat but the wire format is not:
/// `{"n": …, "dests": [[…], …]}`, one list per input, exactly as before the
/// storage changed (snapshots, traces and `gen` output stay byte-identical).
impl Serialize for MulticastAssignment {
    fn to_value(&self) -> Value {
        let sets = self.iter().map(|(_, d)| d.to_value()).collect();
        Value::Object(vec![
            ("n".to_string(), self.n.to_value()),
            ("dests".to_string(), Value::Array(sets)),
        ])
    }
}

/// Builds through [`MulticastAssignment::from_sets`], so a file can carry
/// nothing the constructor would reject: unsorted sets are sorted,
/// duplicates merged, and a wrong set count, an out-of-range destination or
/// an output claimed twice is the constructor's typed error.
impl Deserialize for MulticastAssignment {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        const TY: &str = "MulticastAssignment";
        let obj = serde::__private::as_object(v, TY)?;
        let n = usize::from_value(serde::__private::field(obj, "n", TY)?)?;
        let sets = Vec::<Vec<usize>>::from_value(serde::__private::field(obj, "dests", TY)?)?;
        MulticastAssignment::from_sets(n, sets).map_err(|e| DeError::new(format!("{TY}: {e}")))
    }
}

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

    /// The wire format of the Fig. 2 assignment, compact and pretty, as
    /// written before the storage went flat.
    #[test]
    fn fig2_json_text_is_pinned() {
        let asg = paper_example();
        assert_eq!(
            serde_json::to_string(&asg).unwrap(),
            r#"{"n":8,"dests":[[0,1],[],[3,4,7],[2],[],[],[],[5,6]]}"#
        );
        let pretty = "{\n  \"n\": 8,\n  \"dests\": [\n    [\n      0,\n      1\n    ],\n    [],\n    [\n      3,\n      4,\n      7\n    ],\n    [\n      2\n    ],\n    [],\n    [],\n    [],\n    [\n      5,\n      6\n    ]\n  ]\n}";
        assert_eq!(serde_json::to_string_pretty(&asg).unwrap(), pretty);
    }

    #[test]
    fn deserialize_goes_through_from_sets() {
        let parse = |s: &str| serde_json::from_str::<MulticastAssignment>(s);
        // Valid but unsorted: sorted on the way in.
        let a = parse(r#"{"n":4,"dests":[[3,0],[],[],[]]}"#).unwrap();
        assert_eq!(a.dests(0), &[0, 3]);
        // Every rejection is the constructor's typed error.
        for (text, want) in [
            (
                r#"{"n":4,"dests":[[0],[]]}"#,
                "expected 4 destination sets, got 2",
            ),
            (
                r#"{"n":4,"dests":[[9],[],[],[]]}"#,
                "destination 9 out of range",
            ),
            (
                r#"{"n":4,"dests":[[1],[1],[],[]]}"#,
                "output 1 claimed by both",
            ),
            (r#"{"n":6,"dests":[[],[],[],[],[],[]]}"#, "power of two"),
        ] {
            let err = parse(text).unwrap_err().to_string();
            assert!(err.contains(want), "{text}: {err}");
        }
    }

    #[test]
    fn debug_lists_the_sets() {
        let a =
            MulticastAssignment::from_sets(4, vec![vec![1, 2], vec![], vec![0], vec![]]).unwrap();
        assert_eq!(
            format!("{a:?}"),
            "MulticastAssignment { n: 4, dests: [[1, 2], [], [0], []] }"
        );
    }
}
