//! Message payload models for the two routing engines.
//!
//! The BRSMN is simulated with two interchangeable engines that must agree:
//!
//! * [`SemanticMsg`] — the *reference* engine: each message carries its
//!   absolute destination set; tags are recomputed from the set at every
//!   level. Easy to see correct, used as ground truth.
//! * [`SelfRoutedMsg`] — the *faithful* engine: each message carries only its
//!   `SEQ` routing-tag stream (Section 7.1); the network reads nothing but
//!   the head tag of each stream, exactly like the paper's hardware.
//!
//! The [`RoutePayload`] protocol: when a BSN over outputs `[lo, lo+size)`
//! processes a message, [`RoutePayload::entry_tag`] yields its four-value
//! tag; if the tag is `α`, a broadcast switch calls [`RoutePayload::split`]
//! to create the two copies (not yet descended); after the BSN completes,
//! every message is [`RoutePayload::descend`]ed into its half by its final
//! tag (`0` or `1`).

use crate::assignment::MulticastAssignment;
use crate::tags::{seq_for_dests, TagSeq};
use brsmn_switch::{Line, Tag};
use serde::{Deserialize, Serialize};

/// The message-model protocol used by the routing engines (see module docs).
pub trait RoutePayload: Sized + Clone {
    /// Originating network input.
    fn source(&self) -> usize;

    /// The four-value tag for entering the BSN over outputs
    /// `[lo, lo + size)`; never `ε` (empty lines have no payload at all).
    fn entry_tag(&self, lo: usize, size: usize) -> Tag;

    /// Produces the two copies created when an `α` is broadcast, in
    /// `(0-copy, 1-copy)` order. Copies are descended later like every other
    /// message.
    fn split(&self, lo: usize, size: usize) -> (Self, Self);

    /// Commits the message to the `branch` half (`0` = upper, `1` = lower)
    /// after the BSN over `[lo, lo + size)` has routed it.
    fn descend(self, branch: Tag, lo: usize, size: usize) -> Self;

    /// Whether the message, having reached output `o`, is the one that
    /// belongs there (used for end-to-end verification).
    fn delivered_ok(&self, o: usize) -> bool;
}

/// The input lines of `asg` for a payload routing engine: an idle input's
/// line is empty, and live input `i` carries `make(i, asg.dests(i))`, its
/// tag left `ε` until a BSN tags it.
pub fn payload_lines<P>(
    asg: &MulticastAssignment,
    mut make: impl FnMut(usize, &[usize]) -> P,
) -> Vec<Line<P>> {
    (0..asg.n())
        .map(|i| match asg.dests(i) {
            [] => Line::empty(),
            dests => Line {
                tag: Tag::Eps,
                payload: Some(make(i, dests)),
            },
        })
        .collect()
}

/// Reference payload: the absolute destination set travels with the message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SemanticMsg {
    /// Originating input.
    pub source: usize,
    /// Remaining destinations (absolute output addresses, sorted).
    pub dests: Vec<usize>,
}

impl SemanticMsg {
    /// Creates the message injected at `source` with destination set `dests`
    /// (must be non-empty and sorted).
    pub fn new(source: usize, dests: Vec<usize>) -> Self {
        debug_assert!(!dests.is_empty());
        debug_assert!(dests.windows(2).all(|w| w[0] < w[1]));
        SemanticMsg { source, dests }
    }
}

impl RoutePayload for SemanticMsg {
    fn source(&self) -> usize {
        self.source
    }

    fn entry_tag(&self, lo: usize, size: usize) -> Tag {
        let mid = lo + size / 2;
        debug_assert!(
            self.dests.iter().all(|&d| d >= lo && d < lo + size),
            "message at block [{lo}, {}) holds out-of-block dest: {:?}",
            lo + size,
            self.dests
        );
        let has_low = self.dests.iter().any(|&d| d < mid);
        let has_high = self.dests.iter().any(|&d| d >= mid);
        match (has_low, has_high) {
            (true, false) => Tag::Zero,
            (false, true) => Tag::One,
            (true, true) => Tag::Alpha,
            (false, false) => unreachable!("dests are non-empty"),
        }
    }

    fn split(&self, lo: usize, size: usize) -> (Self, Self) {
        let mid = lo + size / 2;
        let (low, high): (Vec<usize>, Vec<usize>) =
            self.dests.iter().partition(|&&d| d < mid);
        debug_assert!(!low.is_empty() && !high.is_empty(), "split of a non-α");
        (
            SemanticMsg {
                source: self.source,
                dests: low,
            },
            SemanticMsg {
                source: self.source,
                dests: high,
            },
        )
    }

    fn descend(self, branch: Tag, lo: usize, size: usize) -> Self {
        // Destinations are absolute; nothing to rewrite. Assert consistency.
        let mid = lo + size / 2;
        debug_assert!(match branch {
            Tag::Zero => self.dests.iter().all(|&d| d >= lo && d < mid),
            Tag::One => self.dests.iter().all(|&d| d >= mid && d < lo + size),
            _ => false,
        });
        self
    }

    fn delivered_ok(&self, o: usize) -> bool {
        self.dests == [o]
    }
}

/// Faithful payload: only the `SEQ` tag stream travels with the message; the
/// network never sees the destination set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelfRoutedMsg {
    /// Originating input.
    pub source: usize,
    /// Remaining routing-tag stream (length `size − 1` on entering a BSN of
    /// size `size`).
    pub seq: TagSeq,
}

impl SelfRoutedMsg {
    /// Prepares the message for `source` targeting `dests` in an `n × n`
    /// network: builds the tag tree and serializes it (done *before* the
    /// message enters the network, Section 7.1).
    pub fn prepare(n: usize, source: usize, dests: &[usize]) -> Self {
        SelfRoutedMsg {
            source,
            seq: seq_for_dests(n, dests).expect("valid size"),
        }
    }
}

impl RoutePayload for SelfRoutedMsg {
    fn source(&self) -> usize {
        self.source
    }

    fn entry_tag(&self, _lo: usize, size: usize) -> Tag {
        debug_assert_eq!(self.seq.network_size(), size, "SEQ length drift");
        self.seq.head()
    }

    fn split(&self, _lo: usize, _size: usize) -> (Self, Self) {
        // Copies keep the full stream; `descend` selects each copy's
        // subsequence once its final tag is known.
        (self.clone(), self.clone())
    }

    fn descend(self, branch: Tag, _lo: usize, _size: usize) -> Self {
        SelfRoutedMsg {
            source: self.source,
            seq: self.seq.descend(branch),
        }
    }

    fn delivered_ok(&self, _o: usize) -> bool {
        // Delivery correctness of the self-routing engine is established by
        // comparing against the semantic engine; the stream itself retains no
        // destination information to check here.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semantic_entry_tags() {
        let msg = SemanticMsg::new(3, vec![2, 5]);
        assert_eq!(msg.entry_tag(0, 8), Tag::Alpha);
        let low = SemanticMsg::new(3, vec![2]);
        assert_eq!(low.entry_tag(0, 8), Tag::Zero);
        assert_eq!(low.entry_tag(0, 4), Tag::One); // 2 is in the upper half's lower... range [0,4): mid=2, 2 >= mid
        let high = SemanticMsg::new(3, vec![5, 6, 7]);
        assert_eq!(high.entry_tag(0, 8), Tag::One);
        assert_eq!(high.entry_tag(4, 4), Tag::Alpha);
    }

    #[test]
    fn semantic_split_partitions() {
        let msg = SemanticMsg::new(0, vec![1, 4, 6]);
        let (a, b) = msg.split(0, 8);
        assert_eq!(a.dests, vec![1]);
        assert_eq!(b.dests, vec![4, 6]);
        assert_eq!(a.source, 0);
        assert_eq!(b.source, 0);
    }

    #[test]
    fn semantic_delivery_check() {
        assert!(SemanticMsg::new(0, vec![3]).delivered_ok(3));
        assert!(!SemanticMsg::new(0, vec![3]).delivered_ok(2));
        assert!(!SemanticMsg::new(0, vec![2, 3]).delivered_ok(3));
    }

    #[test]
    fn self_routed_head_matches_semantic_tag() {
        // For any destination set the SEQ head equals the semantic tag at
        // the top level.
        for dests in [vec![0usize], vec![7], vec![0, 7], vec![2, 3], vec![4, 5, 6]] {
            let sem = SemanticMsg::new(1, dests.clone());
            let sr = SelfRoutedMsg::prepare(8, 1, &dests);
            assert_eq!(sr.entry_tag(0, 8), sem.entry_tag(0, 8), "{dests:?}");
        }
    }

    #[test]
    fn self_routed_descend_tracks_subtrees() {
        let sr = SelfRoutedMsg::prepare(8, 2, &[3, 4, 7]);
        assert_eq!(sr.entry_tag(0, 8), Tag::Alpha);
        let (c0, c1) = sr.split(0, 8);
        let up = c0.descend(Tag::Zero, 0, 8);
        let down = c1.descend(Tag::One, 0, 8);
        // Upper copy now routes {3} within [0,8)/upper = outputs 0..4.
        assert_eq!(up.entry_tag(0, 4), Tag::One);
        // Lower copy routes {4,7} within outputs 4..8.
        assert_eq!(down.entry_tag(4, 4), Tag::Alpha);
    }
}
