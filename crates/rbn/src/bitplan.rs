//! Word-packed, allocation-free implementations of the distributed sweeps
//! (Tables 3, 4 and 6), each run over every block of a BSN level at once.
//!
//! The planners in [`crate::plan`] materialize the Fig. 8 tree as
//! `Vec<Vec<usize>>` per route — correct and readable, but the sweeps are
//! prefix-sum shaped, so every per-node forward value is a count over the
//! node's leaves. This module packs the leaf tags into `u64` words (two bit
//! planes, two bits per tag) and answers every forward-phase query with a
//! popcount:
//!
//! * scatter (Table 4): the `(l, type)` pair of a node is the sign and
//!   magnitude of `nα − nε` over its leaf range (ties resolved along the
//!   upper-child spine, matching the combine rule of Table 4 exactly);
//! * quasisort (Tables 6 and 3, fused): the ε₀ quota of a node travels down
//!   the ε-divide wave, and the bit sort's forward value — the sort-down
//!   leaves under the node — is `n₁ + n_ε − ε₀` over its leaf range, so both
//!   backward waves ride one pass.
//!
//! Both planners sweep a *forest*: the `n` tags of a BSN level, one tree
//! per block (§7.3: one pass programs every BSN of a level). The backward
//! phases keep only one tree level alive at a time in a pair of ping-pong
//! buffers, and the switch-setting phase writes straight into a
//! caller-provided [`RbnSettings`] table via the slice-filling variants of
//! Table 5 ([`crate::setting::binary_compact_setting_into`]). After a
//! one-time warm-up of the [`SweepScratch`], planning a level performs **no
//! heap allocation** — the property the `brsmn-bench` `alloc-count` test
//! pins down end to end.
//!
//! ## Aligned segment counts
//!
//! Every forward-phase query the waves issue is an **aligned segment
//! count**: node `(j, b)` covers exactly `[b·2^j, (b+1)·2^j)`, never an
//! arbitrary prefix, so no rank index is ever built. A node settles from
//! its upper child's counts: the scatter wave *carries* each node's own
//! (α, ε) counts down from its parent, so the lower child's are two
//! subtractions, and a subtree with no α and no ε at all short-circuits its
//! tie walk to ε immediately. How a node settles depends on its tree
//! level:
//!
//! * **j ≥ 8** (a child of 128 leaves or more): counts from
//!   [`BitVec::seg_count`], whole-word popcounts.
//! * **j = 3 … 7**: counts from a SWAR popcount *ladder*, built once per
//!   plane word next to the plane extraction. Rung `k` of a word's ladder
//!   holds the counts of all its aligned `2^k`-leaf segments, each in its
//!   own bit field, so every node count of tree levels 1 … 6 under the
//!   word is one shift and mask: every node of a tree level answered by
//!   the same few word operations, as the paper's per-level adders (§7.2,
//!   Fig. 12) all work at once.
//! * **j = 2**: a node's whole outcome is a function of its four leaf
//!   tags and its start `s < 4`. The scatter looks it up in a 1,024-entry
//!   table built once from the same setting step; the quasisort evaluates
//!   Lemma 1 at n′ = 4 in closed form from the ladder's two-leaf rung.
//!   Neither writes through Table 5's slice fillers.
//! * **j = 1** needs no count. A two-leaf node's setting is a boolean
//!   function of its two leaf tags and the parity of its start (and, in a
//!   quasisort, whether its ε₀ quota is zero). The j = 2 nodes write those
//!   inputs as bit planes, and the j = 1 step then settles 32 nodes per
//!   64-leaf word, each node's 2-bit switch code at its own two leaf bits:
//!   exactly the [`crate::packed::PackedSettings`] layout.
//!
//! ## Per-op profiler
//!
//! Each scratch tallies a [`crate::profile::PlanOpProfile`]
//! (op counts always on, nanos behind the `plan-profile` feature); callers
//! drain it with [`SweepScratch::take_profile`].
//!
//! Equivalence with the reference planners is exhaustively tested here and
//! property-tested end to end in `brsmn-core`.

use crate::fabric::RbnSettings;
use crate::packed::setting_from_code;
use crate::plan::{DomType, PlanError};
use crate::profile::{PlanOpProfile, ProfClock};
use crate::setting::{binary_compact_setting_into, trinary_compact_setting_into};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::{SwitchSetting, Tag};
use brsmn_topology::log2_exact;
use std::sync::OnceLock;

/// Number of `u64` lanes per block. The sweep kernels below operate on
/// `[u64; LANES]` blocks with fixed-width array ops, which the compiler
/// autovectorizes on stable Rust (u64x4 ≙ one AVX2 register, two NEON
/// registers) — no nightly / portable-SIMD dependency.
pub const LANES: usize = 4;

/// Bits covered by one `[u64; LANES]` lane block.
pub const BLOCK_BITS: usize = LANES * 64;

/// Mask selecting the bits of word `w` that fall below `len` (all-ones for
/// interior words, a partial mask for the tail word, zero past the end).
/// Written so `1u64 << r` is never evaluated at `r == 64`.
#[inline]
pub(crate) fn lane_tail_mask(len: usize, w: usize) -> u64 {
    let start = w << 6;
    if len >= start + 64 {
        !0u64
    } else if len <= start {
        0
    } else {
        (1u64 << (len - start)) - 1
    }
}

/// A bit vector packed into `[u64; LANES]` lane blocks. The packed planners
/// only ever issue aligned segment counts ([`BitVec::seg_count`]), which
/// need no rank index. Lanes past the last word are zeroed by every fill
/// path, so equal bits compare equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    blocks: Vec<[u64; LANES]>,
    total_ones: usize,
    nwords: usize,
    len: usize,
}

impl BitVec {
    /// An empty bit vector (fill it with [`BitVec::fill_from`]).
    pub fn new() -> Self {
        BitVec::default()
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self, len: usize) {
        self.blocks.clear();
        self.total_ones = 0;
        self.nwords = 0;
        self.len = len;
    }

    /// Appends word `nwords`, extending the lane block.
    #[inline]
    fn push_word(&mut self, x: u64) {
        let lane = self.nwords & (LANES - 1);
        if lane == 0 {
            self.blocks.push([0u64; LANES]);
        }
        let blk = self.nwords / LANES;
        self.blocks[blk][lane] = x;
        self.total_ones += x.count_ones() as usize;
        self.nwords += 1;
    }

    /// Rebuilds the vector as `len` bits produced by `f`, packing 64 at a
    /// time. Reuses the block buffers: no allocation once capacity has
    /// grown to `len` bits.
    pub fn fill_from<F: FnMut(usize) -> bool>(&mut self, len: usize, mut f: F) {
        self.clear(len);
        let mut acc = 0u64;
        for i in 0..len {
            if f(i) {
                acc |= 1u64 << (i & 63);
            }
            if i & 63 == 63 {
                self.push_word(acc);
                acc = 0;
            }
        }
        if len & 63 != 0 {
            self.push_word(acc);
        }
    }

    /// Rebuilds from whole pre-packed words: `word(w)` must return word `w`
    /// with any bits at positions `≥ len` already zero.
    pub fn fill_from_words<F: FnMut(usize) -> u64>(&mut self, len: usize, mut word: F) {
        self.clear(len);
        for w in 0..len.div_ceil(64) {
            self.push_word(word(w));
        }
    }

    /// Rebuilds from whole pre-packed lane blocks: `block(b)` must return
    /// lane block `b` with any bits at positions `≥ len` already zero in the
    /// tail *word* (whole lanes past the end are cleared here). This is how
    /// [`TagVec::extract_plane`] derives a plane block-parallel: the
    /// popcount below is a fixed-width array op.
    pub fn fill_from_blocks<F: FnMut(usize) -> [u64; LANES]>(&mut self, len: usize, mut block: F) {
        self.clear(len);
        self.nwords = len.div_ceil(64);
        let nblocks = self.nwords.div_ceil(LANES);
        for b in 0..nblocks {
            let mut blk = block(b);
            for (l, lane) in blk.iter_mut().enumerate() {
                // Lanes past the last word stay 0, matching `push_word`, so
                // the block comparison in `PartialEq` is canonical.
                if b * LANES + l >= self.nwords {
                    *lane = 0;
                }
            }
            let mut acc = 0u32;
            for lane in &blk {
                acc += lane.count_ones();
            }
            self.total_ones += acc as usize;
            self.blocks.push(blk);
        }
    }

    /// Bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = i >> 6;
        self.blocks[w / LANES][w & (LANES - 1)] >> (i & 63) & 1 == 1
    }

    /// Word `w` (bits `64w … 64w + 63`); `w` must be below `len/64`
    /// rounded up.
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.blocks[w / LANES][w & (LANES - 1)]
    }

    /// Number of set bits in the aligned segment `[pos, pos + seg)` —
    /// `pos` must be a multiple of `seg`, and `seg` a power of two. Every
    /// forward-phase tree query has this shape (node `(j, b)` covers
    /// exactly `[b·2^j, (b+1)·2^j)`), so it needs no rank index: a sub-word
    /// segment is one shift + masked popcount (alignment guarantees it
    /// never straddles a word), and a multi-word segment is a short run of
    /// whole-word popcounts.
    #[inline]
    pub fn seg_count(&self, pos: usize, seg: usize) -> usize {
        debug_assert!(seg.is_power_of_two(), "seg={seg}");
        debug_assert!(pos % seg == 0, "pos={pos} seg={seg}");
        debug_assert!(pos + seg <= self.len.next_multiple_of(seg.max(1)));
        if seg < 64 {
            let w = pos >> 6;
            if w >= self.nwords {
                return 0;
            }
            let word = self.blocks[w / LANES][w & (LANES - 1)];
            ((word >> (pos & 63)) & ((1u64 << seg) - 1)).count_ones() as usize
        } else {
            let w1 = ((pos + seg) >> 6).min(self.nwords);
            let mut acc = 0u32;
            for w in (pos >> 6)..w1 {
                acc += self.blocks[w / LANES][w & (LANES - 1)].count_ones();
            }
            acc as usize
        }
    }

    /// Total number of set bits.
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    /// Heap bytes currently reserved (capacity, not length).
    pub fn footprint_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<[u64; LANES]>()
    }
}

/// One of the four tag values as a bit plane of a [`TagVec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagPlane {
    /// Positions holding `0`.
    Zero,
    /// Positions holding `1`.
    One,
    /// Positions holding `α`.
    Alpha,
    /// Positions holding `ε`.
    Eps,
}

/// A tag vector packed two bits per tag into two bit planes stored as
/// `[u64; LANES]` lane blocks.
///
/// Encoding (`lo`, `hi`): `0 = (0,0)`, `1 = (1,0)`, `α = (0,1)`,
/// `ε = (1,1)`. Any single-tag plane is one boolean expression over the two
/// planes, evaluated a whole lane block at a time (`plane_block`); the
/// single-word scalar form (`plane_word`) is retained as the oracle the
/// wide kernels are tested against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TagVec {
    lo: Vec<[u64; LANES]>,
    hi: Vec<[u64; LANES]>,
    nwords: usize,
    len: usize,
}

impl TagVec {
    /// An empty tag vector.
    pub fn new() -> Self {
        TagVec::default()
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no tags are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn push_words(&mut self, wlo: u64, whi: u64) {
        let lane = self.nwords & (LANES - 1);
        if lane == 0 {
            self.lo.push([0u64; LANES]);
            self.hi.push([0u64; LANES]);
        }
        let blk = self.nwords / LANES;
        self.lo[blk][lane] = wlo;
        self.hi[blk][lane] = whi;
        self.nwords += 1;
    }

    /// Rebuilds the vector as `len` tags produced by `f`, packing both
    /// planes 64 tags at a time. No allocation once capacity suffices.
    pub fn fill_from<F: FnMut(usize) -> Tag>(&mut self, len: usize, mut f: F) {
        self.lo.clear();
        self.hi.clear();
        self.nwords = 0;
        self.len = len;
        let (mut alo, mut ahi) = (0u64, 0u64);
        for i in 0..len {
            let (blo, bhi) = match f(i) {
                Tag::Zero => (0, 0),
                Tag::One => (1, 0),
                Tag::Alpha => (0, 1),
                Tag::Eps => (1, 1),
            };
            let sh = i & 63;
            alo |= (blo as u64) << sh;
            ahi |= (bhi as u64) << sh;
            if sh == 63 {
                self.push_words(alo, ahi);
                (alo, ahi) = (0, 0);
            }
        }
        if len & 63 != 0 {
            self.push_words(alo, ahi);
        }
    }

    /// Rebuilds the vector from one token per tag: the low two bits of
    /// `tokens[i]` are tag `i`'s discriminant code (`tag as u32`), and the
    /// bits above them are never read. The declaration order of [`Tag`]
    /// makes the code exactly the `(lo, hi)` plane encoding, so each plane
    /// word gathers one bit of 64 codes with no per-tag branch
    /// (`pack_codes`). [`TagVec::fill_from`] is its oracle.
    pub fn fill_from_tokens(&mut self, tokens: &[u32]) {
        self.lo.clear();
        self.hi.clear();
        self.nwords = 0;
        self.len = tokens.len();
        let mut words = tokens.chunks_exact(64);
        for word in &mut words {
            let (lo, hi) = pack_codes(word.try_into().expect("a 64-token word"));
            self.push_words(lo, hi);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            // Code 0 pads the tail word: both plane bits stay clear past
            // `len`, as in every other fill.
            let mut padded = [0u32; 64];
            padded[..tail.len()].copy_from_slice(tail);
            let (lo, hi) = pack_codes(&padded);
            self.push_words(lo, hi);
        }
    }

    /// The `(lo, hi)` plane words of word `w`.
    #[inline]
    fn words(&self, w: usize) -> (u64, u64) {
        let (blk, lane) = (w / LANES, w & (LANES - 1));
        (self.lo[blk][lane], self.hi[blk][lane])
    }

    /// Tag at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Tag {
        debug_assert!(i < self.len);
        let (w, sh) = (i >> 6, i & 63);
        let (blk, lane) = (w / LANES, w & (LANES - 1));
        match (self.lo[blk][lane] >> sh & 1, self.hi[blk][lane] >> sh & 1) {
            (0, 0) => Tag::Zero,
            (1, 0) => Tag::One,
            (0, 1) => Tag::Alpha,
            _ => Tag::Eps,
        }
    }

    /// Word `w` of the requested plane, with bits beyond `len` cleared —
    /// the scalar oracle for [`TagVec::plane_block`].
    #[inline]
    fn plane_word(&self, plane: TagPlane, w: usize) -> u64 {
        let (blk, lane) = (w / LANES, w & (LANES - 1));
        let (lo, hi) = (self.lo[blk][lane], self.hi[blk][lane]);
        let raw = match plane {
            TagPlane::Zero => !lo & !hi,
            TagPlane::One => lo & !hi,
            TagPlane::Alpha => !lo & hi,
            TagPlane::Eps => lo & hi,
        };
        raw & lane_tail_mask(self.len, w)
    }

    /// Lane block `b` of the requested plane, with bits beyond `len`
    /// cleared. Interior blocks are four unmasked boolean lane ops; only the
    /// final block pays the per-lane tail mask.
    #[inline]
    fn plane_block(&self, plane: TagPlane, b: usize) -> [u64; LANES] {
        let (lo, hi) = (&self.lo[b], &self.hi[b]);
        let mut out = [0u64; LANES];
        for l in 0..LANES {
            out[l] = match plane {
                TagPlane::Zero => !lo[l] & !hi[l],
                TagPlane::One => lo[l] & !hi[l],
                TagPlane::Alpha => !lo[l] & hi[l],
                TagPlane::Eps => lo[l] & hi[l],
            };
        }
        if (b + 1) * BLOCK_BITS > self.len {
            for (l, lane) in out.iter_mut().enumerate() {
                *lane &= lane_tail_mask(self.len, b * LANES + l);
            }
        }
        out
    }

    /// Tallies the four tags over the aligned segment `[pos, pos + seg)`
    /// (`seg` a power of two, `pos` a multiple of it, the segment inside
    /// the loaded length): one masked word for a sub-word segment, whole
    /// words otherwise.
    pub fn seg_counts(&self, pos: usize, seg: usize) -> TagCounts {
        debug_assert!(seg.is_power_of_two() && pos.is_multiple_of(seg) && pos + seg <= self.len);
        let word = |w: usize| {
            (
                self.lo[w / LANES][w & (LANES - 1)],
                self.hi[w / LANES][w & (LANES - 1)],
            )
        };
        let mut c = TagCounts::default();
        let mut tally = |lo: u64, hi: u64, m: u64| {
            c.n0 += (!lo & !hi & m).count_ones() as usize;
            c.n1 += (lo & !hi & m).count_ones() as usize;
            c.na += (!lo & hi & m).count_ones() as usize;
            c.ne += (lo & hi & m).count_ones() as usize;
        };
        if seg < 64 {
            let (lo, hi) = word(pos >> 6);
            tally(lo, hi, ((1u64 << seg) - 1) << (pos & 63));
        } else {
            for w in (pos >> 6)..((pos + seg) >> 6) {
                let (lo, hi) = word(w);
                tally(lo, hi, !0);
            }
        }
        c
    }

    /// Position of the first tag in `plane`, if any. Whole lane blocks with
    /// no hit are rejected with one wide OR before any scalar scan.
    pub fn first_in_plane(&self, plane: TagPlane) -> Option<usize> {
        for b in 0..self.lo.len() {
            let blk = self.plane_block(plane, b);
            let mut any = 0u64;
            for lane in &blk {
                any |= lane;
            }
            if any == 0 {
                continue;
            }
            for (l, &x) in blk.iter().enumerate() {
                if x != 0 {
                    return Some(((b * LANES + l) << 6) + x.trailing_zeros() as usize);
                }
            }
        }
        None
    }

    /// Extracts one plane into `out`, one lane block at a time.
    pub fn extract_plane(&self, plane: TagPlane, out: &mut BitVec) {
        out.fill_from_blocks(self.len, |b| self.plane_block(plane, b));
    }

    /// Scalar oracle for [`TagVec::extract_plane`]: the retained word-at-a-
    /// time path through [`BitVec::fill_from_words`].
    pub fn extract_plane_scalar(&self, plane: TagPlane, out: &mut BitVec) {
        out.fill_from_words(self.len, |w| self.plane_word(plane, w));
    }

    /// Heap bytes currently reserved.
    pub fn footprint_bytes(&self) -> usize {
        (self.lo.capacity() + self.hi.capacity()) * std::mem::size_of::<[u64; LANES]>()
    }
}

/// The two plane words of 64 tokens' codes: bit `k` of `lo` is bit 0 of
/// `tokens[k]`, bit `k` of `hi` its bit 1. The tokens narrow to one byte
/// each, and every 8 bytes gather into 8 plane bits with one multiply per
/// plane: each byte's bit lands in the product's top byte at its own
/// position, and no two partial products meet there.
#[inline]
fn pack_codes(tokens: &[u32; 64]) -> (u64, u64) {
    const BYTE_LOW_BITS: u64 = 0x0101_0101_0101_0101;
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut bytes = [0u8; 64];
    for (b, &t) in bytes.iter_mut().zip(tokens) {
        *b = t as u8;
    }
    let (mut lo, mut hi) = (0u64, 0u64);
    for (j, eight) in bytes.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(eight.try_into().expect("8 bytes"));
        lo |= ((w & BYTE_LOW_BITS).wrapping_mul(GATHER) >> 56) << (8 * j);
        hi |= ((w >> 1 & BYTE_LOW_BITS).wrapping_mul(GATHER) >> 56) << (8 * j);
    }
    (lo, hi)
}

/// Even bit positions of a plane word: the upper leaf of each of the 32
/// two-leaf (tree level j = 1) nodes one word holds.
const EVEN: u64 = 0x5555_5555_5555_5555;

/// The SWAR popcount ladder of one plane word: rung `k − 1` (k = 1 … 6)
/// holds the set-bit count of every aligned `2^k`-bit segment of the word,
/// each in that segment's own bit field. These partial sums are the counts
/// of every tree node of levels 1 … 6 under the word at once: the
/// word-parallel form of a tree level's adders all working together
/// (§7.2).
type Ladder = [u64; 6];

/// The [`Ladder`] of `x`: the six add-and-mask steps of a popcount, each
/// step's partial sums kept.
#[inline]
fn ladder(x: u64) -> Ladder {
    let c2 = (x & 0x5555_5555_5555_5555) + (x >> 1 & 0x5555_5555_5555_5555);
    let c4 = (c2 & 0x3333_3333_3333_3333) + (c2 >> 2 & 0x3333_3333_3333_3333);
    let c8 = (c4 & 0x0F0F_0F0F_0F0F_0F0F) + (c4 >> 4 & 0x0F0F_0F0F_0F0F_0F0F);
    let c16 = (c8 & 0x00FF_00FF_00FF_00FF) + (c8 >> 8 & 0x00FF_00FF_00FF_00FF);
    let c32 = (c16 & 0x0000_FFFF_0000_FFFF) + (c16 >> 16 & 0x0000_FFFF_0000_FFFF);
    let c64 = (c32 & 0xFFFF_FFFF) + (c32 >> 32);
    [c2, c4, c8, c16, c32, c64]
}

/// Stores the 2-bit switch codes of `codes` (code `k` in bits `2k` and
/// `2k + 1`, the [`crate::packed::PackedSettings`] layout) into `out`, one
/// switch per code.
#[inline]
fn store_codes(out: &mut [SwitchSetting], codes: u64) {
    for (k, o) in out.iter_mut().enumerate() {
        *o = setting_from_code(codes >> (2 * k));
    }
}

/// Lemma 1's setting of one node (Table 3, and Table 4's ε/α-addition):
/// with start `s` and `l0` marked leaves under its upper child, writes
/// `W_{0, s1; b̄, b}` into the node's merging-stage `slice` and returns the
/// children's starts `(s0, s1)`.
#[inline]
fn bitsort_node(slice: &mut [SwitchSetting], s: usize, l0: usize) -> (usize, usize) {
    // The slice holds a power of two of switches: `% half` is a mask, and
    // `((s + l0) div half) mod 2` one bit.
    let half = slice.len();
    let s1 = (s + l0) & (half - 1);
    let (b_val, b_comp) = if (s + l0) & half != 0 {
        (SwitchSetting::Crossing, SwitchSetting::Parallel)
    } else {
        (SwitchSetting::Parallel, SwitchSetting::Crossing)
    };
    binary_compact_setting_into(slice, 0, s1, b_comp, b_val);
    (s & (half - 1), s1)
}

/// Table 4's switch-setting step of one scatter node: from its start
/// `s_node`, its run length `l_node` and its children's forward pairs,
/// writes the node's merging-stage `slice` and returns the children's
/// starts `(s0, s1)`.
#[inline]
fn scatter_node(
    slice: &mut [SwitchSetting],
    s_node: usize,
    l_node: usize,
    (l0, ty0): (usize, DomType),
    (l1, ty1): (usize, DomType),
) -> (usize, usize) {
    if ty0 == ty1 {
        // ε/α-addition: Lemma 1, same as the bit-sorting setting.
        return bitsort_node(slice, s_node, l0);
    }
    // ε/α-elimination: Lemmas 2–5.
    let half = slice.len();
    let bcast = if ty0 == DomType::Alpha {
        SwitchSetting::UpperBroadcast
    } else {
        SwitchSetting::LowerBroadcast
    };
    let (s0, s1, s_tmp, l_tmp, ucast);
    if l0 >= l1 {
        s0 = s_node & (half - 1);
        s1 = (s_node + l_node) & (half - 1);
        s_tmp = s1;
        l_tmp = l1;
        ucast = SwitchSetting::Parallel;
    } else {
        s0 = (s_node + l_node) & (half - 1);
        s1 = s_node & (half - 1);
        s_tmp = s0;
        l_tmp = l0;
        ucast = SwitchSetting::Crossing;
    }
    let ucomp = ucast.complement();
    if s_node + l_node < half {
        binary_compact_setting_into(slice, s_tmp, l_tmp, ucast, bcast);
    } else if s_node < half {
        trinary_compact_setting_into(slice, s_tmp, l_tmp, ucomp, bcast, ucast);
    } else if s_node + l_node < 2 * half {
        binary_compact_setting_into(slice, s_tmp, l_tmp, ucomp, bcast);
    } else {
        trinary_compact_setting_into(slice, s_tmp, l_tmp, ucast, bcast, ucomp);
    }
    (s0, s1)
}

/// Tree level j = 2 of a scatter as a table. Entry `L | H << 4 | s << 8`
/// — the `lo` and `hi` plane bits of a node's four leaves and its start
/// `s < 4` — holds the codes of the node's two switches (bits 0–3), its
/// children's start parities (bits 4 and 5) and the tie-walk steps its
/// children take (bits 6 and 7). Each entry is [`scatter_node`] run once,
/// at first use, on the counts of those four leaves; a tied two-leaf child
/// (one α, one ε) takes its upper leaf's type after one step, as the tie
/// walk does.
fn j2_scatter_table() -> &'static [u8; 1024] {
    static TABLE: OnceLock<[u8; 1024]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u8; 1024];
        for (i, entry) in table.iter_mut().enumerate() {
            // Tag code of leaf k: its lo bit, plus its hi bit doubled.
            let tag = |k: usize| (i >> k & 1) | (i >> (4 + k) & 1) << 1;
            let (alpha, eps) = (|k| usize::from(tag(k) == 2), |k| usize::from(tag(k) == 3));
            let child = |u: usize| {
                let (a, e) = (alpha(u) + alpha(u + 1), eps(u) + eps(u + 1));
                let ty = if a > e || (a == e && alpha(u) == 1) {
                    DomType::Alpha
                } else {
                    DomType::Eps
                };
                ((a.abs_diff(e), ty), u8::from(a == e && a > 0))
            };
            let ((up, up_steps), (dn, dn_steps)) = (child(0), child(2));
            let a: usize = (0..4).map(alpha).sum();
            let e: usize = (0..4).map(eps).sum();
            let mut slice = [SwitchSetting::Parallel; 2];
            let (s0, s1) = scatter_node(&mut slice, i >> 8, a.abs_diff(e), up, dn);
            *entry = slice[0].code()
                | slice[1].code() << 2
                | (s0 as u8) << 4
                | (s1 as u8) << 5
                | (up_steps + dn_steps) << 6;
        }
        table
    })
}

/// Reusable state for the packed planners: the loaded tag planes, the two
/// count planes a sweep reads with their popcount ladders, the bit planes
/// that carry the inputs of the j = 1 step, and the ping-pong buffers that
/// hold the one live tree level of each backward phase above it.
///
/// Size once (first use at a given length grows the buffers), then plan
/// any number of levels with zero heap allocation. One `SweepScratch` plans
/// both networks of a BSN level in sequence: [`SweepScratch::plan_scatter`]
/// on the entry tags, then [`SweepScratch::plan_quasisort_fused`] on the
/// post-scatter tags.
#[derive(Debug, Clone, Default)]
pub struct SweepScratch {
    tags: TagVec,
    /// The α plane in a scatter, the 1 plane in a quasisort.
    x: BitVec,
    eps: BitVec,
    /// The [`Ladder`]s of `x` and `eps`, one pair per plane word.
    ladders: Vec<[Ladder; 2]>,
    /// The start parity of every j = 1 node, at its upper leaf's bit.
    par: Vec<u64>,
    /// `[ε₀ > 0]` of every j = 1 node of a quasisort, at its upper leaf's
    /// bit.
    quota: Vec<u64>,
    cur: Vec<usize>,
    next: Vec<usize>,
    cur_q: Vec<usize>,
    next_q: Vec<usize>,
    /// Carried (α, ε) counts of the live scatter level (see
    /// [`SweepScratch::plan_scatter`]).
    cur_a: Vec<usize>,
    next_a: Vec<usize>,
    cur_e: Vec<usize>,
    next_e: Vec<usize>,
    profile: PlanOpProfile,
}

impl SweepScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SweepScratch::default()
    }

    /// Loads one tag per token (a multiple of the block size) from the
    /// tokens' low two bits ([`TagVec::fill_from_tokens`]), after `derive`
    /// has written them. `derive` runs inside the `tag_derive` clock: it is
    /// the level pass's entry step, or nothing when the tokens already hold
    /// their tags. Call before [`SweepScratch::plan_scatter`] with the entry
    /// tags, and again with the post-scatter tags before
    /// [`SweepScratch::plan_quasisort_fused`].
    pub fn set_tags<F: FnOnce(&mut [u32])>(&mut self, tokens: &mut [u32], derive: F) {
        let clock = ProfClock::start();
        derive(tokens);
        self.tags.fill_from_tokens(tokens);
        self.profile.tag_derive_ops += tokens.len() as u64;
        self.profile.tag_derive_nanos += clock.elapsed_nanos();
    }

    /// The per-op profile accumulated since the last take, leaving zeros
    /// behind. Counts are always exact; nanos are nonzero only with the
    /// `plan-profile` feature (see [`crate::profile`]).
    pub fn take_profile(&mut self) -> PlanOpProfile {
        std::mem::take(&mut self.profile)
    }

    /// The per-op profile accumulated so far (see
    /// [`SweepScratch::take_profile`]).
    pub fn profile(&self) -> &PlanOpProfile {
        &self.profile
    }

    /// The currently loaded tags.
    pub fn tags(&self) -> &TagVec {
        &self.tags
    }

    /// Heap bytes currently reserved by all buffers.
    pub fn footprint_bytes(&self) -> usize {
        self.tags.footprint_bytes()
            + self.x.footprint_bytes()
            + self.eps.footprint_bytes()
            + self.ladders.capacity() * std::mem::size_of::<[Ladder; 2]>()
            + (self.par.capacity() + self.quota.capacity()) * std::mem::size_of::<u64>()
            + (self.cur.capacity()
                + self.next.capacity()
                + self.cur_q.capacity()
                + self.next_q.capacity()
                + self.cur_a.capacity()
                + self.next_a.capacity()
                + self.cur_e.capacity()
                + self.next_e.capacity())
                * std::mem::size_of::<usize>()
    }

    fn ensure_levels(&mut self, len: usize) {
        if self.cur.len() < len {
            self.cur.resize(len, 0);
            self.next.resize(len, 0);
        }
    }

    fn ensure_quota_levels(&mut self, len: usize) {
        if self.cur_q.len() < len {
            self.cur_q.resize(len, 0);
            self.next_q.resize(len, 0);
        }
    }

    fn ensure_count_levels(&mut self, len: usize) {
        if self.cur_a.len() < len {
            self.cur_a.resize(len, 0);
            self.next_a.resize(len, 0);
            self.cur_e.resize(len, 0);
            self.next_e.resize(len, 0);
        }
    }

    /// Extracts the `x` plane (α or 1) and the ε plane of the loaded tags
    /// and builds their ladders, booked under `rank` (the count
    /// infrastructure the waves query), then clears the j = 1 start-parity
    /// plane.
    fn load_planes(&mut self, x: TagPlane) {
        let clock = ProfClock::start();
        self.tags.extract_plane(x, &mut self.x);
        self.tags.extract_plane(TagPlane::Eps, &mut self.eps);
        let words = self.tags.len().div_ceil(64);
        self.ladders.clear();
        self.ladders
            .extend((0..words).map(|w| [ladder(self.x.word(w)), ladder(self.eps.word(w))]));
        self.profile.rank_nanos += clock.elapsed_nanos();
        self.par.clear();
        self.par.resize(words, 0);
    }

    /// The `(x, ε)` counts of the aligned `2^k`-leaf segment at `pos`: two
    /// leaf bits, two ladder rungs (`k ≤ 6`, where the nodes of tree levels
    /// 3 … 7 and the quasisort's j = 2 nodes ask their upper child's
    /// counts), or whole-word popcounts.
    #[inline(always)]
    fn counts(&self, pos: usize, k: usize) -> (usize, usize) {
        match k {
            0 => (self.x.get(pos) as usize, self.eps.get(pos) as usize),
            1..=6 => {
                let [lx, le] = &self.ladders[pos >> 6];
                let (sh, mask) = (pos & 63, (2u64 << k) - 1);
                (
                    (lx[k - 1] >> sh & mask) as usize,
                    (le[k - 1] >> sh & mask) as usize,
                )
            }
            _ => (
                self.x.seg_count(pos, 1 << k),
                self.eps.seg_count(pos, 1 << k),
            ),
        }
    }

    /// The `(l, type)` forward pair of a child node whose (α, ε) leaf
    /// counts are already known. For `nα = nε` the reference combine rule
    /// inherits the upper child's type, so the tie is resolved by
    /// [`SweepScratch::tie_type`] — unless the subtree holds no α and no ε
    /// at all, in which case every spine descendant is also empty and the
    /// walk provably ends at a χ/ε leaf: ε, immediately. Dense blocks (all
    /// tags χ after a scatter has consumed the α/ε pairs) hit that
    /// shortcut at every node.
    #[inline]
    fn child_pair(&self, a: usize, e: usize, j: usize, b: usize, steps: &mut u64) -> (usize, DomType) {
        if a == e && a != 0 {
            return (0, self.tie_type(j, b, steps));
        }
        let ty = if a > e { DomType::Alpha } else { DomType::Eps };
        (a.abs_diff(e), ty)
    }

    /// Tie resolution for a node with `nα = nε > 0`: walk the upper-child
    /// spine down to the first non-zero value (a χ leaf yields ε), exactly
    /// the reference combine rule. Each step is two aligned segment
    /// counts; an empty subtree (`nα = nε = 0`) exits to ε at once.
    fn tie_type(&self, j: usize, b: usize, steps: &mut u64) -> DomType {
        let (mut jj, mut bb) = (j, b);
        while jj > 0 {
            jj -= 1;
            bb <<= 1;
            *steps += 1;
            let (a, e) = self.counts(bb << jj, jj);
            if a > e {
                return DomType::Alpha;
            }
            if e > a {
                return DomType::Eps;
            }
            if a == 0 {
                return DomType::Eps;
            }
        }
        DomType::Eps
    }

    /// Word-parallel Table 4 over a forest: plans a scatter with target
    /// start `s_target` for every block of `seg` loaded tags (the loaded
    /// length is a multiple of `seg`), writing each block's merging-stage
    /// settings into `settings` (stages `[0, log2 seg)`, the mapping of
    /// [`RbnSettings::program_subnetwork`]). Loaded tag `i` sits on line
    /// `base + i`, so node `(j, b)` — global index `b` among the loaded
    /// tags' tree level `j` — writes `settings.block_mut(j − 1, (base >>
    /// j) + b)`. With `seg` equal to the loaded length this is the
    /// per-block planner; with the `n` tags of a whole BSN level and `seg`
    /// its block size it plans every block of the level in one top-down
    /// wave (§7.3: one pass programs every BSN of a level). Each block is
    /// bit-for-bit [`crate::plan::plan_scatter`] of its own tags.
    ///
    /// The wave carries each node's own (α, ε) counts down from its parent
    /// (`cur_a`/`cur_e`, seeded with each block's segment counts at its
    /// root), so settling a node above j = 2 costs two counts — the upper
    /// child's, ladder rungs up to j = 7 — and two subtractions for the
    /// lower child. A j = 2 node is one table lookup on its four leaf tags
    /// and its start, which also writes its children's start parities into
    /// a bit plane, and the j = 1 step then settles 32 nodes per plane word
    /// from Table 4's two-leaf rule (see the module docs).
    pub fn plan_scatter(
        &mut self,
        s_target: usize,
        seg: usize,
        base: usize,
        settings: &mut RbnSettings,
    ) {
        let len = self.tags.len();
        let m = log2_exact(seg) as usize;
        assert!(s_target < seg);
        assert!(len.is_multiple_of(seg) && base.is_multiple_of(seg) && base + len <= settings.n());
        self.load_planes(TagPlane::Alpha);
        self.ensure_levels(len);
        self.ensure_count_levels(len);
        let clock = ProfClock::start();
        let mut steps = 0u64;
        for r in 0..len / seg {
            self.cur[r] = s_target;
            (self.cur_a[r], self.cur_e[r]) = self.counts(r * seg, m);
        }
        if m == 1 {
            // The roots are the j = 1 nodes.
            self.par.fill(if s_target == 1 { EVEN } else { 0 });
        }
        for j in (3..=m).rev() {
            for b in 0..(len >> j) {
                let pos = b << j;
                let (a_node, e_node) = (self.cur_a[b], self.cur_e[b]);
                let (a_up, e_up) = self.counts(pos, j - 1);
                let (a_dn, e_dn) = (a_node - a_up, e_node - e_up);
                let up = self.child_pair(a_up, e_up, j - 1, 2 * b, &mut steps);
                let dn = self.child_pair(a_dn, e_dn, j - 1, 2 * b + 1, &mut steps);
                let (s0, s1) = scatter_node(
                    settings.block_mut(j - 1, (base >> j) + b),
                    self.cur[b],
                    a_node.abs_diff(e_node),
                    up,
                    dn,
                );
                self.next[2 * b] = s0;
                self.next[2 * b + 1] = s1;
                self.next_a[2 * b] = a_up;
                self.next_e[2 * b] = e_up;
                self.next_a[2 * b + 1] = a_dn;
                self.next_e[2 * b + 1] = e_dn;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.cur_a, &mut self.next_a);
            std::mem::swap(&mut self.cur_e, &mut self.next_e);
        }
        if m >= 2 {
            self.scatter_j2(base, settings, &mut steps);
        }
        if m > 0 {
            self.scatter_j1(base, settings);
        }
        // Closed form: seg − 1 nodes settled per block (len − len/seg in
        // all); two counts per node above j = 1 (len/2 − len/seg of them,
        // the j = 2 table standing for its nodes' two) plus two per
        // tie-walk step, none at j = 1.
        let nodes = (len - len / seg) as u64;
        self.profile.scatter_ops += nodes;
        self.profile.rank_ops += 2 * nodes.saturating_sub(len as u64 / 2) + 2 * steps;
        self.profile.scatter_nanos += clock.elapsed_nanos();
    }

    /// The j = 2 step of a scatter: one [`j2_scatter_table`] lookup per
    /// node sets its two switches, writes its children's start parities
    /// into the j = 1 plane and counts its children's tie-walk steps.
    fn scatter_j2(&mut self, base: usize, settings: &mut RbnSettings, steps: &mut u64) {
        let table = j2_scatter_table();
        let stage = settings.stage_mut(1);
        for b in 0..self.tags.len() >> 2 {
            let pos = b << 2;
            let sh = pos & 63;
            let (lo, hi) = self.tags.words(pos >> 6);
            let leaves = (lo >> sh & 15 | (hi >> sh & 15) << 4) as usize;
            let t = u64::from(table[leaves | self.cur[b] << 8]);
            stage[base / 2 + 2 * b] = setting_from_code(t);
            stage[base / 2 + 2 * b + 1] = setting_from_code(t >> 2);
            self.par[pos >> 6] |= (t >> 4 & 1) << sh | (t >> 5 & 1) << (sh | 2);
            *steps += t >> 6;
        }
    }

    /// The j = 1 step of a scatter, 32 nodes per plane word. At n′ = 2,
    /// Table 4 with Lemmas 1–5 is a boolean function of a node's upper leaf
    /// `u`, lower leaf `d` and start parity `s`: (α, ε) broadcasts the
    /// upper input, (ε, α) the lower, and otherwise the switch crosses iff
    /// `s = 1` when `u = α`, and iff `s = [u = ε]` when `u ≠ α`. The codes
    /// land at stage-0 switch `base/2 + i` for node `i`.
    fn scatter_j1(&self, base: usize, settings: &mut RbnSettings) {
        let len = self.tags.len();
        let stage = settings.stage_mut(0);
        for (w, &s) in self.par.iter().enumerate() {
            let (a, e) = (self.x.word(w), self.eps.word(w));
            let (au, ad, eu, ed) = (a & EVEN, a >> 1 & EVEN, e & EVEN, e >> 1 & EVEN);
            let (ub, lb) = (au & ed, eu & ad);
            let cross = (au & s) | (!au & !(s ^ eu));
            let codes = ((lb | !(ub | lb) & cross) & EVEN) | (ub | lb) << 1;
            let at = base / 2 + 32 * w;
            store_codes(&mut stage[at..at + (len - 64 * w).min(64) / 2], codes);
        }
    }

    /// Fused Table 6 + Table 3: the complete quasisort plan (ε-divide, then
    /// bit-sort with target `seg/2`) of every block of `seg` loaded tags in
    /// a **single** backward wave, written at line offset `base` like
    /// [`SweepScratch::plan_scatter`] (whose forest layout it shares: `seg`
    /// equal to the loaded length is the per-block planner).
    ///
    /// The reference [`crate::plan::plan_quasisort`] runs two tree sweeps
    /// and materializes the sort bits γ leaf by leaf between them: the
    /// ε-divide wave resolves every ε, and the bit-sort wave re-aggregates
    /// the sort bits into range counts. The fusion exploits the identity
    ///
    /// ```text
    /// γ(j, b) = n₁(j, b) + (n_ε(j, b) − ε₀(j, b))
    /// ```
    ///
    /// — the sort-bit count under a node is fully determined by the `1`/ε
    /// range counts (ladder rungs up to j = 7) and the ε₀ quota *already
    /// travelling down* the ε-divide wave — so both backward phases ride one
    /// top-down pass and the γ plane is never materialized. The j = 2 nodes
    /// evaluate Lemma 1 in closed form and write their children's start
    /// parities and `[ε₀ > 0]` into bit planes for the word-parallel j = 1
    /// step (see the module docs).
    /// Settings and error values are bit-for-bit those of
    /// [`crate::plan::plan_quasisort`] on each block (pinned by the tests
    /// below and by the fast-path equivalence suite in `brsmn-core`); the
    /// blocks are checked in order, α before half-overflow, so a failing
    /// load reports the first failing block's error, its α position
    /// relative to the block.
    pub fn plan_quasisort_fused(
        &mut self,
        seg: usize,
        base: usize,
        settings: &mut RbnSettings,
    ) -> Result<(), PlanError> {
        let len = self.tags.len();
        let m = log2_exact(seg) as usize;
        assert!(len.is_multiple_of(seg) && base.is_multiple_of(seg) && base + len <= settings.n());
        let first_alpha = self.tags.first_in_plane(TagPlane::Alpha);
        self.load_planes(TagPlane::One);
        self.quota.clear();
        self.quota.resize(self.par.len(), 0);
        self.ensure_levels(len);
        self.ensure_quota_levels(len);
        let clock = ProfClock::start();
        // Roots of both waves, one per block: the bit-sort target is seg/2,
        // and the ε₀ quota is n_ε − (seg/2 − n₁) exactly as in Table 6.
        for r in 0..len / seg {
            if let Some(position) = first_alpha.filter(|&p| p / seg == r) {
                return Err(PlanError::AlphaInQuasisort {
                    position: position - r * seg,
                });
            }
            // No α in this block, so n₀ is what 1 and ε leave.
            let (n1, ne) = self.counts(r * seg, m);
            let n0 = seg - n1 - ne;
            if n0 > seg / 2 || n1 > seg / 2 {
                return Err(PlanError::HalfOverflow {
                    n0,
                    n1,
                    half: seg / 2,
                });
            }
            self.cur[r] = seg / 2;
            self.cur_q[r] = ne - (seg / 2 - n1);
        }
        if m == 1 {
            // The roots are the j = 1 nodes: start seg/2 = 1, own quotas.
            self.par.fill(EVEN);
            for r in 0..len / 2 {
                self.quota[r >> 5] |= u64::from(self.cur_q[r] > 0) << ((2 * r) & 63);
            }
        }
        for j in (3..=m).rev() {
            for b in 0..(len >> j) {
                let (s_node, e0) = (self.cur[b], self.cur_q[b]);
                let pos = b << j;
                let (ones_up, eps_up) = self.counts(pos, j - 1);
                // ε-divide split (Table 6): the upper child takes as many ε₀
                // as it has ε leaves.
                let u_e0 = e0.min(eps_up);
                // Bit-sort forward value (Table 3) without the γ plane:
                // sort-down leaves under the upper child are its 1s plus its
                // ε₁s, and ε₁ = ε − ε₀.
                let l0 = ones_up + (eps_up - u_e0);
                let (s0, s1) = bitsort_node(settings.block_mut(j - 1, (base >> j) + b), s_node, l0);
                self.next[2 * b] = s0;
                self.next[2 * b + 1] = s1;
                self.next_q[2 * b] = u_e0;
                self.next_q[2 * b + 1] = e0 - u_e0;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.cur_q, &mut self.next_q);
        }
        if m >= 2 {
            self.quasisort_j2(base, settings);
        }
        if m > 0 {
            self.quasisort_j1(base, settings);
        }
        // Closed form: seg − 1 nodes per block (len − len/seg in all); two
        // counts (ε and 1) per node above j = 1, none at j = 1.
        let nodes = (len - len / seg) as u64;
        self.profile.quasisort_ops += nodes;
        self.profile.rank_ops += 2 * nodes.saturating_sub(len as u64 / 2);
        self.profile.quasisort_nanos += clock.elapsed_nanos();
        Ok(())
    }

    /// The j = 2 step of a quasisort, Lemma 1 at n′ = 4 in closed form:
    /// with `t = s + l0` (start plus the upper child's sort-down leaves),
    /// `s1 = t mod 2` and `b = ⌊t/2⌋ mod 2`, switch 0 crosses iff
    /// `s1 = b` and switch 1 iff `b = 0`. Each node writes its children's
    /// start parities and `[ε₀ > 0]` into the j = 1 planes.
    fn quasisort_j2(&mut self, base: usize, settings: &mut RbnSettings) {
        let stage = settings.stage_mut(1);
        for b in 0..self.tags.len() >> 2 {
            let pos = b << 2;
            let (s, e0) = (self.cur[b], self.cur_q[b]);
            let (ones_up, eps_up) = self.counts(pos, 1);
            let u_e0 = e0.min(eps_up);
            let t = s + ones_up + eps_up - u_e0;
            let (s1, bit) = (t & 1, t >> 1 & 1);
            stage[base / 2 + 2 * b] = setting_from_code(u64::from(s1 == bit));
            stage[base / 2 + 2 * b + 1] = setting_from_code(u64::from(bit == 0));
            let sh = pos & 63;
            self.par[pos >> 6] |= ((s & 1) as u64) << sh | (s1 as u64) << (sh | 2);
            self.quota[pos >> 6] |= u64::from(u_e0 > 0) << sh | u64::from(e0 > u_e0) << (sh | 2);
        }
    }

    /// The j = 1 step of a quasisort, 32 nodes per plane word. At n′ = 2
    /// the fused Tables 6 + 3 set a node parallel iff
    /// `s + [u = 1] + [u = ε ∧ ε₀ = 0]` is odd (its upper leaf `u` sorts
    /// down when it is a 1 or an ε₁), and crossing otherwise.
    fn quasisort_j1(&self, base: usize, settings: &mut RbnSettings) {
        let len = self.tags.len();
        let stage = settings.stage_mut(0);
        for (w, (&s, &q)) in self.par.iter().zip(&self.quota).enumerate() {
            let down = (self.x.word(w) | self.eps.word(w) & !q) & EVEN;
            let codes = !(s ^ down) & EVEN;
            let at = base / 2 + 32 * w;
            store_codes(&mut stage[at..at + (len - 64 * w).min(64) / 2], codes);
        }
    }

    /// Eq. (2) per block: the tag counts of the first block of `seg` loaded
    /// tags that asks more than `seg/2` outputs of one half (`n₀ + n_α` or
    /// `n₁ + n_α` above `seg/2`), or `None` when every block is routable.
    /// The blocks are checked in order from segment counts, so a level
    /// reports the block a block-by-block walk would stop at.
    pub fn first_overloaded_block(&self, seg: usize) -> Option<TagCounts> {
        (0..self.tags.len() / seg)
            .map(|r| self.tags.seg_counts(r * seg, seg))
            .find(|c| !c.satisfies_bsn_input_constraints())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_quasisort, plan_scatter};

    fn tag_of(code: usize) -> Tag {
        match code & 3 {
            0 => Tag::Zero,
            1 => Tag::One,
            2 => Tag::Alpha,
            _ => Tag::Eps,
        }
    }

    /// Loads `tags` through the planners' own packing.
    fn load(scratch: &mut SweepScratch, tags: &[Tag]) {
        let mut tokens: Vec<u32> = tags.iter().map(|&t| t as u32).collect();
        scratch.set_tags(&mut tokens, |_| {});
    }

    #[test]
    fn bitvec_fill_matches_naive() {
        let mut bv = BitVec::new();
        for len in [1usize, 2, 63, 64, 65, 128, 130, 200] {
            let bits: Vec<bool> = (0..len).map(|i| (i * 7 + len) % 3 == 0).collect();
            bv.fill_from(len, |i| bits[i]);
            assert_eq!(bv.len(), len);
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(bv.get(i), b, "len={len} i={i}");
            }
            assert_eq!(bv.count_ones(), bits.iter().filter(|&&b| b).count());
        }
    }

    #[test]
    fn seg_count_matches_naive_count_at_every_node() {
        let mut bv = BitVec::new();
        for len in [1usize, 2, 63, 64, 65, 127, 128, 256, 512] {
            let bits: Vec<bool> = (0..len).map(|i| (i * 7 + len) % 3 == 0).collect();
            bv.fill_from(len, |i| bits[i]);
            let cap = len.next_power_of_two();
            let mut seg = 1usize;
            while seg <= cap {
                for b in 0..len.div_ceil(seg) {
                    let (lo, hi) = (b * seg, ((b + 1) * seg).min(len));
                    let want = bits[lo..hi].iter().filter(|&&b| b).count();
                    assert_eq!(bv.seg_count(lo, seg), want, "len={len} seg={seg} b={b}");
                }
                seg *= 2;
            }
        }
    }

    #[test]
    fn token_packing_matches_fill_from() {
        // The packer relies on Tag's declaration order matching the
        // (lo, hi) plane encoding — pin the discriminants first.
        assert_eq!(
            [
                Tag::Zero as u8,
                Tag::One as u8,
                Tag::Alpha as u8,
                Tag::Eps as u8
            ],
            [0, 1, 2, 3]
        );
        let mut rng = xorshift(0x70C3_9ACC);
        let (mut oracle, mut packed) = (TagVec::new(), TagVec::new());
        for len in [1usize, 2, 63, 64, 65, 127, 128, 256, 1000] {
            for _ in 0..4 {
                // Random bits above the low two: only the code may be read.
                let tokens: Vec<u32> = (0..len).map(|_| rng() as u32).collect();
                let tags: Vec<Tag> = tokens.iter().map(|&t| tag_of(t as usize)).collect();
                assert!(
                    tokens.iter().any(|&t| t > 3),
                    "len={len}: no high bits drawn"
                );
                oracle.fill_from(len, |i| tags[i]);
                packed.fill_from_tokens(&tokens);
                assert_eq!(packed, oracle, "len={len}");
                for (i, &t) in tags.iter().enumerate() {
                    assert_eq!(packed.get(i), t, "len={len} i={i}");
                }
            }
        }
    }

    /// The tie-walk steps of a scatter over one block, counted naively:
    /// each child of a node above j = 1 whose α and ε counts tie (and are
    /// not zero) walks its upper spine, one step per tree level, until the
    /// counts differ or run out.
    fn tie_walk_steps(tags: &[Tag]) -> u64 {
        let count = |j: usize, b: usize, t: Tag| {
            tags[b << j..(b + 1) << j]
                .iter()
                .filter(|&&x| x == t)
                .count()
        };
        let m = tags.len().ilog2() as usize;
        let mut steps = 0;
        for j in 2..=m {
            for child in 0..tags.len() >> (j - 1) {
                let (mut jj, mut bb) = (j - 1, child);
                let tied = |jj, bb| {
                    let a = count(jj, bb, Tag::Alpha);
                    a == count(jj, bb, Tag::Eps) && a > 0
                };
                if !tied(jj, bb) {
                    continue;
                }
                while jj > 0 {
                    (jj, bb) = (jj - 1, 2 * bb);
                    steps += 1;
                    if !tied(jj, bb) {
                        break;
                    }
                }
            }
        }
        steps
    }

    #[test]
    fn sweep_profile_counts_are_exact_closed_forms() {
        let n = 64usize;
        let mut scratch = SweepScratch::new();
        let mut table = RbnSettings::identity(n);
        let mut rng = xorshift(0x7135_5EED);
        for round in 0..8 {
            let tags: Vec<Tag> = match round {
                0 => (0..n).map(|i| tag_of(i * 11 + 2)).collect(),
                _ => (0..n).map(|_| tag_of(rng() as usize)).collect(),
            };
            load(&mut scratch, &tags);
            scratch.plan_scatter(0, n, 0, &mut table);
            let p = scratch.take_profile();
            assert_eq!(p.tag_derive_ops, n as u64);
            assert_eq!(p.scatter_ops, (n - 1) as u64);
            // Two counts per settled node above j = 1 (n/2 − 1 of them),
            // plus two per tie-walk step; the j = 1 step issues none.
            let steps = tie_walk_steps(&tags);
            assert!(steps > 0, "round {round}: no tie walks to count");
            assert_eq!(p.rank_ops, (n - 2) as u64 + 2 * steps, "round {round}");
            assert_eq!(p.quasisort_ops, 0);
            // Draining left zeros behind.
            assert!(scratch.profile().is_empty());
        }
        // A fused quasisort wave books under the quasisort category.
        let tags: Vec<Tag> = (0..n)
            .map(|i| [Tag::Zero, Tag::One, Tag::Eps][i % 3])
            .collect();
        load(&mut scratch, &tags);
        scratch.plan_quasisort_fused(n, 0, &mut table).unwrap();
        let p = scratch.take_profile();
        assert_eq!(p.tag_derive_ops, n as u64);
        assert_eq!(p.quasisort_ops, (n - 1) as u64);
        assert_eq!(p.rank_ops, (n - 2) as u64);
        assert_eq!(p.scatter_ops, 0);
    }

    #[test]
    fn tagvec_round_trips_through_planes_and_segments() {
        let mut tv = TagVec::new();
        for len in [2usize, 8, 64, 65, 100] {
            let tags: Vec<Tag> = (0..len).map(|i| tag_of(i * 5 + 3)).collect();
            tv.fill_from(len, |i| tags[i]);
            for (i, &t) in tags.iter().enumerate() {
                assert_eq!(tv.get(i), t);
            }
            let mut plane = BitVec::new();
            for (p, want) in [
                (TagPlane::Zero, Tag::Zero),
                (TagPlane::One, Tag::One),
                (TagPlane::Alpha, Tag::Alpha),
                (TagPlane::Eps, Tag::Eps),
            ] {
                tv.extract_plane(p, &mut plane);
                for (i, &t) in tags.iter().enumerate() {
                    assert_eq!(plane.get(i), t == want, "len={len} i={i} {want:?}");
                }
                assert_eq!(
                    plane.count_ones(),
                    tags.iter().filter(|&&t| t == want).count()
                );
                assert_eq!(tv.first_in_plane(p), tags.iter().position(|&t| t == want));
            }
            let mut seg = 1usize;
            while seg <= len {
                for pos in (0..len / seg * seg).step_by(seg) {
                    let want = TagCounts::of(&tags[pos..pos + seg]);
                    assert_eq!(
                        tv.seg_counts(pos, seg),
                        want,
                        "len={len} pos={pos} seg={seg}"
                    );
                }
                seg *= 2;
            }
        }
    }

    /// Satellite audit: every `1u64 << r`-style mask in this module must be
    /// guarded against `r == 64` (full tail word) and against tail words at
    /// lengths not a multiple of 64. Pin the boundary lengths, including the
    /// all-ones pattern that maximizes the damage of an unmasked tail.
    #[test]
    fn shift_overflow_boundaries_pinned() {
        let mut bv = BitVec::new();
        let mut tv = TagVec::new();
        let mut plane = BitVec::new();
        for len in [1usize, 63, 64, 65, 127, 128, 191, 192, 255, 256, 257] {
            // All-ones: the word-sized segments, the tail word included,
            // count only the bits below `len`.
            bv.fill_from(len, |_| true);
            assert_eq!(bv.count_ones(), len, "len={len}");
            for pos in (0..len).step_by(64) {
                assert_eq!(
                    bv.seg_count(pos, 64),
                    (len - pos).min(64),
                    "len={len} pos={pos}"
                );
            }
            // All-Zero tags: the Zero plane is computed by negation, the
            // worst case for tail masking (bits past `len` read as Zero).
            tv.fill_from(len, |_| Tag::Zero);
            tv.extract_plane(TagPlane::Zero, &mut plane);
            assert_eq!(plane.count_ones(), len, "len={len}");
            assert_eq!(tv.first_in_plane(TagPlane::Zero), Some(0));
            assert_eq!(tv.first_in_plane(TagPlane::Eps), None);
            // All-ε: both planes all-ones in the tail word.
            tv.fill_from(len, |_| Tag::Eps);
            tv.extract_plane(TagPlane::Eps, &mut plane);
            assert_eq!(plane.count_ones(), len, "len={len}");
            tv.extract_plane(TagPlane::Zero, &mut plane);
            assert_eq!(plane.count_ones(), 0, "len={len}");
        }
    }

    /// The lane-blocked kernels must agree with the retained scalar oracles
    /// at every boundary length (satellite n ∈ {1, 63, 64, 65, 127} plus the
    /// block-boundary lengths of the [u64; LANES] layout).
    #[test]
    fn wide_lanes_match_scalar_oracles() {
        let mut tv = TagVec::new();
        let (mut wide, mut scalar) = (BitVec::new(), BitVec::new());
        for len in [1usize, 63, 64, 65, 127, 255, 256, 257, 300] {
            let tags: Vec<Tag> = (0..len).map(|i| tag_of(i * 11 + len)).collect();
            tv.fill_from(len, |i| tags[i]);
            for plane in [
                TagPlane::Zero,
                TagPlane::One,
                TagPlane::Alpha,
                TagPlane::Eps,
            ] {
                tv.extract_plane(plane, &mut wide);
                tv.extract_plane_scalar(plane, &mut scalar);
                assert_eq!(wide, scalar, "len={len} {plane:?}");
            }
        }
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A table whose every switch reads `LowerBroadcast`, so a switch a
    /// planner fails to write shows up as a mismatch.
    fn poisoned(n: usize) -> RbnSettings {
        let mut table = RbnSettings::identity(n);
        for j in 0..table.num_stages() {
            table.stage_mut(j).fill(SwitchSetting::LowerBroadcast);
        }
        table
    }

    /// Length of the forests the small-tree oracles embed their blocks in.
    const FOREST: usize = 256;

    /// The block offsets of an `n`-tag forest block that start inside a
    /// plane word (not at a multiple of 64).
    fn interior_slots(n: usize) -> Vec<usize> {
        (0..FOREST).step_by(n).filter(|off| off % 64 != 0).collect()
    }

    /// Asserts that the block at `off` of a forest table holds `want`.
    fn assert_block(table: &RbnSettings, off: usize, want: &RbnSettings, tags: &[Tag]) {
        let w = want.n() / 2;
        for j in 0..want.num_stages() {
            assert_eq!(
                &table.stage(j)[off / 2..off / 2 + w],
                want.stage(j),
                "tags={tags:?} at {off}, stage {j}"
            );
        }
    }

    /// Every tag vector and every target start at n ∈ {2, 4, 8}, against
    /// the reference, twice: alone (a load shorter than a word), and as one
    /// block of a 256-tag forest at a word-interior offset among random
    /// neighbours, so the j = 1 step runs on partial and on full words.
    #[test]
    fn packed_scatter_matches_reference_exhaustively_small_trees() {
        let mut rng = xorshift(0x9E37_79B9_7F4A_7C15);
        let mut scratch = SweepScratch::new();
        for n in [2usize, 4, 8] {
            let slots = interior_slots(n);
            let patterns = 1usize << (2 * n);
            for s in 0..n {
                let mut batch = Vec::with_capacity(slots.len());
                for pattern in 0..patterns {
                    let tags: Vec<Tag> = (0..n).map(|i| tag_of(pattern >> (2 * i))).collect();
                    let want = plan_scatter(&tags, s).settings;
                    let mut got = poisoned(n);
                    load(&mut scratch, &tags);
                    scratch.plan_scatter(s, n, 0, &mut got);
                    assert_eq!(got, want, "tags={tags:?} s={s}");
                    batch.push((tags, want));
                    if batch.len() < slots.len() && pattern + 1 < patterns {
                        continue;
                    }
                    let mut forest: Vec<Tag> =
                        (0..FOREST).map(|_| tag_of(rng() as usize)).collect();
                    for ((tags, _), &off) in batch.iter().zip(&slots) {
                        forest[off..off + n].copy_from_slice(tags);
                    }
                    let mut table = poisoned(FOREST);
                    load(&mut scratch, &forest);
                    scratch.plan_scatter(s, n, 0, &mut table);
                    for ((tags, want), &off) in batch.iter().zip(&slots) {
                        assert_block(&table, off, want, tags);
                    }
                    batch.clear();
                }
            }
        }
    }

    #[test]
    fn packed_scatter_matches_reference_randomized() {
        let mut scratch = SweepScratch::new();
        let mut rng = xorshift(0x243F6A8885A308D3);
        for n in [8usize, 16, 64, 256] {
            for _ in 0..40 {
                let tags: Vec<Tag> = (0..n).map(|_| tag_of(rng() as usize)).collect();
                let s = rng() as usize % n;
                let want = plan_scatter(&tags, s).settings;
                let mut got = RbnSettings::identity(n);
                load(&mut scratch, &tags);
                scratch.plan_scatter(s, n, 0, &mut got);
                assert_eq!(got, want, "n={n} s={s} tags={tags:?}");
            }
        }
    }

    #[test]
    fn packed_planners_write_at_block_offsets() {
        // Plan a 4-wide scatter at base 4 of an 8-wide table: only switch
        // indices [2, 4) of stages 0–1 may change.
        let n = 8;
        let tags = [Tag::Alpha, Tag::Eps, Tag::Zero, Tag::One];
        let mut scratch = SweepScratch::new();
        let mut table = RbnSettings::identity(n);
        load(&mut scratch, &tags);
        scratch.plan_scatter(0, 4, 4, &mut table);
        let want_local = plan_scatter(&tags, 0).settings;
        for j in 0..2 {
            assert_eq!(&table.stage(j)[2..4], want_local.stage(j));
            assert_eq!(&table.stage(j)[..2], &[SwitchSetting::Parallel; 2]);
        }
        assert_eq!(table.stage(2), &[SwitchSetting::Parallel; 4]);
    }

    /// The fused wave against the reference planner: its settings, or its
    /// error.
    fn fused_vs_reference(
        scratch: &mut SweepScratch,
        tags: &[Tag],
    ) -> (
        Result<RbnSettings, PlanError>,
        Result<RbnSettings, PlanError>,
    ) {
        let n = tags.len();
        let want = plan_quasisort(tags).map(|(_, sort)| sort.settings);
        let mut got = poisoned(n);
        load(scratch, tags);
        let got = scratch.plan_quasisort_fused(n, 0, &mut got).map(|()| got);
        (got, want)
    }

    /// 256 random 0/1/ε tags in which no pair holds two 0s or two 1s, so
    /// every aligned block of two or more is a feasible quasisort load.
    fn feasible_forest(rng: &mut impl FnMut() -> u64) -> Vec<Tag> {
        use Tag::*;
        const PAIRS: [[Tag; 2]; 7] = [
            [Zero, One],
            [One, Zero],
            [Zero, Eps],
            [Eps, Zero],
            [One, Eps],
            [Eps, One],
            [Eps, Eps],
        ];
        (0..FOREST / 2)
            .flat_map(|_| PAIRS[rng() as usize % PAIRS.len()])
            .collect()
    }

    /// Every 0/1/ε vector at n ∈ {2, 4, 8} (α is rejected by both paths)
    /// against the reference, twice: alone, and as one block of a 256-tag
    /// forest at a word-interior offset among random feasible neighbours.
    /// A feasible vector must plan to the reference's settings, an
    /// infeasible one fail with the reference's error in both runs.
    #[test]
    fn fused_quasisort_matches_reference_exhaustively_small_trees() {
        let mut rng = xorshift(0xD1B5_4A32_D192_ED03);
        let mut scratch = SweepScratch::new();
        let mut planned = 0;
        for n in [2usize, 4, 8] {
            let slots = interior_slots(n);
            let patterns = 3usize.pow(n as u32);
            let mut batch = Vec::with_capacity(slots.len());
            for pattern in 0..patterns {
                let tags: Vec<Tag> = (0..n)
                    .map(|i| [Tag::Zero, Tag::One, Tag::Eps][pattern / 3usize.pow(i as u32) % 3])
                    .collect();
                let (got, want) = fused_vs_reference(&mut scratch, &tags);
                assert_eq!(got, want, "tags={tags:?}");
                match want {
                    Ok(want) => batch.push((tags, want)),
                    Err(e) => {
                        let off = slots[pattern % slots.len()];
                        let mut forest = feasible_forest(&mut rng);
                        forest[off..off + n].copy_from_slice(&tags);
                        load(&mut scratch, &forest);
                        let got = scratch.plan_quasisort_fused(n, 0, &mut poisoned(FOREST));
                        assert_eq!(got, Err(e), "tags={tags:?} at {off}");
                    }
                }
                if batch.is_empty() || (batch.len() < slots.len() && pattern + 1 < patterns) {
                    continue;
                }
                let mut forest = feasible_forest(&mut rng);
                for ((tags, _), &off) in batch.iter().zip(&slots) {
                    forest[off..off + n].copy_from_slice(tags);
                }
                let mut table = poisoned(FOREST);
                load(&mut scratch, &forest);
                scratch.plan_quasisort_fused(n, 0, &mut table).unwrap();
                for ((tags, want), &off) in batch.iter().zip(&slots) {
                    assert_block(&table, off, want, tags);
                }
                planned += batch.len();
                batch.clear();
            }
        }
        assert_eq!(planned, 5477, "feasible vectors at n ∈ {{2, 4, 8}}");
    }

    #[test]
    fn fused_quasisort_matches_reference_randomized() {
        let mut scratch = SweepScratch::new();
        let mut rng = xorshift(0xD1B54A32D192ED03);
        for n in [2usize, 16, 64, 256, 1024] {
            let mut checked = 0;
            while checked < 25 {
                let tags: Vec<Tag> = (0..n)
                    .map(|_| match rng() % 4 {
                        0 => Tag::Zero,
                        1 => Tag::One,
                        _ => Tag::Eps,
                    })
                    .collect();
                let (got, want) = fused_vs_reference(&mut scratch, &tags);
                if want.is_err() {
                    continue;
                }
                assert_eq!(got, want, "n={n}");
                checked += 1;
            }
        }
    }

    #[test]
    fn fused_quasisort_rejects_like_reference() {
        use Tag::*;
        let mut scratch = SweepScratch::new();
        let (got, want) = fused_vs_reference(&mut scratch, &[Alpha, Eps]);
        assert_eq!(got, want);
        assert_eq!(want, Err(PlanError::AlphaInQuasisort { position: 0 }));
        let (got, want) = fused_vs_reference(&mut scratch, &[One, One, One, Eps]);
        assert_eq!(got, want);
        assert!(matches!(want, Err(PlanError::HalfOverflow { n1: 3, .. })));
    }

    #[test]
    fn fused_quasisort_writes_at_block_offsets() {
        use Tag::*;
        let tags = [One, Eps, Zero, Eps];
        let mut scratch = SweepScratch::new();
        let mut table = RbnSettings::identity(8);
        load(&mut scratch, &tags);
        scratch.plan_quasisort_fused(4, 4, &mut table).unwrap();
        let mut want = RbnSettings::identity(8);
        want.program_subnetwork(4, &plan_quasisort(&tags).unwrap().1.settings);
        assert_eq!(table, want);
        // The other block's slice stays identity.
        for j in 0..2 {
            assert_eq!(&table.stage(j)[..2], &[SwitchSetting::Parallel; 2]);
        }
    }
}
