//! Oracle-equivalence suite for the cold-path constant shrink: the
//! carried-rank sweeps and the branchless code packing must be bit-identical
//! to the retained oracles (`rank_scalar`, from-assignment derivation) at
//! awkward lengths — word boundaries, single bits, partial tail words. The
//! forest form of the sweeps (a whole BSN level at once) is checked against
//! the per-block calls in `brsmn-core`'s `tests/level_pass.rs`.

use brsmn_rbn::{BitVec, SweepScratch};
use brsmn_switch::Tag;
use proptest::prelude::*;

/// The lengths the carried-rank machinery must get right: 1 (degenerate),
/// 63/64/65 (word boundary), 127 (partial tail), 256 (whole lane block).
const LENS: [usize; 6] = [1, 63, 64, 65, 127, 256];

fn tag_of(code: u8) -> Tag {
    match code & 3 {
        0 => Tag::Zero,
        1 => Tag::One,
        2 => Tag::Alpha,
        _ => Tag::Eps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lazy-index `rank` answers exactly like the scalar word-scan oracle,
    /// before and after the index is built.
    #[test]
    fn carried_rank_matches_rank_scalar(bits in proptest::collection::vec(any::<bool>(), 256)) {
        for &len in &LENS {
            let mut v = BitVec::new();
            v.fill_from(len, |i| bits[i]);
            for i in 0..=len {
                prop_assert_eq!(v.rank(i), v.rank_scalar(i), "len={} i={} (no index)", len, i);
            }
            v.ensure_rank_index();
            for i in 0..=len {
                prop_assert_eq!(v.rank(i), v.rank_scalar(i), "len={} i={} (indexed)", len, i);
            }
        }
    }

    /// Every aligned segment count equals the `rank_scalar` difference over
    /// the same range — the queries the carried sweeps actually issue.
    #[test]
    fn seg_count_matches_rank_scalar(bits in proptest::collection::vec(any::<bool>(), 256)) {
        for &len in &LENS {
            let mut v = BitVec::new();
            v.fill_from(len, |i| bits[i]);
            let cap = len.next_power_of_two();
            let mut seg = 1usize;
            while seg <= cap {
                for b in 0..len.div_ceil(seg) {
                    let (lo, hi) = (b * seg, ((b + 1) * seg).min(len));
                    prop_assert_eq!(
                        v.seg_count(lo, seg),
                        v.rank_scalar(hi) - v.rank_scalar(lo),
                        "len={} seg={} b={}", len, seg, b
                    );
                }
                seg *= 2;
            }
        }
    }

    /// Branchless discriminant packing (the incremental derivation) equals
    /// the from-assignment match oracle.
    #[test]
    fn code_packing_matches_from_assignment(raw in proptest::collection::vec(0u8..4, 256)) {
        for &len in &LENS {
            let mut want = SweepScratch::new();
            let mut got = SweepScratch::new();
            want.set_tags(len, |i| tag_of(raw[i]));
            got.set_tags_from_codes(len, |i| tag_of(raw[i]) as u8);
            prop_assert_eq!(want.tags(), got.tags(), "len={}", len);
            prop_assert_eq!(want.counts(), got.counts(), "len={}", len);
        }
    }
}
