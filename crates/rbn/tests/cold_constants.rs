//! Oracle-equivalence suite for the cold-path constant shrink: the aligned
//! segment counts and the word-parallel packing of tag codes from tokens
//! must be bit-identical to naive oracles (a bit-at-a-time count, the
//! per-tag match packing) at awkward lengths — word boundaries, single
//! bits, partial tail words. The forest form of the sweeps (a whole BSN
//! level at once) is checked against the per-block calls in
//! `brsmn-core`'s `tests/level_pass.rs`.

use brsmn_rbn::{BitVec, SweepScratch, TagVec};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::Tag;
use proptest::prelude::*;

/// The lengths the segment-count machinery must get right: 1 (degenerate),
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

    /// Every aligned segment count equals a naive count of the input bits
    /// over the same range — the queries the sweeps actually issue.
    #[test]
    fn seg_count_matches_naive_count(bits in proptest::collection::vec(any::<bool>(), 256)) {
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
                        bits[lo..hi].iter().filter(|&&x| x).count(),
                        "len={} seg={} b={}", len, seg, b
                    );
                }
                seg *= 2;
            }
        }
    }

    /// The planners' packer, which reads each tag's code from the low two
    /// bits of a token and nothing above them, equals the per-tag match
    /// oracle, and so do its aligned segment tallies.
    #[test]
    fn code_packing_matches_per_tag_packing(raw in proptest::collection::vec(any::<u32>(), 256)) {
        for &len in &LENS {
            let tags: Vec<Tag> = raw[..len].iter().map(|&t| tag_of(t as u8)).collect();
            let mut want = TagVec::new();
            want.fill_from(len, |i| tags[i]);
            let mut got = SweepScratch::new();
            let mut tokens = raw[..len].to_vec();
            got.set_tags(&mut tokens, |_| {});
            prop_assert_eq!(got.tags(), &want, "len={}", len);
            let seg = 1usize << len.ilog2();
            prop_assert_eq!(got.tags().seg_counts(0, seg), TagCounts::of(&tags[..seg]), "len={}", len);
        }
    }
}
