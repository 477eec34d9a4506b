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
//! arbitrary prefix. [`BitVec::seg_count`] answers those directly (one
//! masked popcount for a sub-word segment, whole-word popcounts otherwise),
//! so no rank index is ever built. The scatter wave additionally *carries*
//! each node's own (α, ε) counts down from its parent, so settling a node
//! costs two segment counts for the upper child and two subtractions for
//! the lower — and a subtree with no α and no ε at all short-circuits its
//! tie walk to ε immediately.
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
use crate::plan::{DomType, PlanError};
use crate::profile::{PlanOpProfile, ProfClock};
use crate::setting::{binary_compact_setting_into, trinary_compact_setting_into};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::{SwitchSetting, Tag};
use brsmn_topology::log2_exact;

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

    /// Branchless [`TagVec::fill_from`]: `f` returns the tag's discriminant
    /// code (`tag as u8`). The declaration order of [`Tag`] makes the two
    /// low bits of the code exactly the `(lo, hi)` plane encoding — `lo =
    /// t & 1`, `hi = (t >> 1) & 1` — so the per-element 4-way match of
    /// [`TagVec::fill_from`] (kept as the oracle) disappears from the
    /// packing loop. This is the incremental form of tag derivation used
    /// when the tags are already materialized (the post-scatter reload):
    /// the planes are rebuilt by shift/mask alone, with no per-tag
    /// branching.
    pub fn fill_from_codes<F: FnMut(usize) -> u8>(&mut self, len: usize, mut f: F) {
        self.lo.clear();
        self.hi.clear();
        self.nwords = 0;
        self.len = len;
        let (mut alo, mut ahi) = (0u64, 0u64);
        for i in 0..len {
            let t = f(i) as u64;
            debug_assert!(t < 4);
            let sh = i & 63;
            alo |= (t & 1) << sh;
            ahi |= ((t >> 1) & 1) << sh;
            if sh == 63 {
                self.push_words(alo, ahi);
                (alo, ahi) = (0, 0);
            }
        }
        if len & 63 != 0 {
            self.push_words(alo, ahi);
        }
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

/// Reusable state for the packed planners: the loaded tag planes, the α, ε
/// and 1 planes derived from them, and the ping-pong buffers that hold the
/// one live tree level of each backward phase.
///
/// Size once (first use at a given length grows the buffers), then plan
/// any number of levels with zero heap allocation. One `SweepScratch` plans
/// both networks of a BSN level in sequence: [`SweepScratch::plan_scatter`]
/// on the entry tags, then [`SweepScratch::plan_quasisort_fused`] on the
/// post-scatter tags.
#[derive(Debug, Clone, Default)]
pub struct SweepScratch {
    tags: TagVec,
    alpha: BitVec,
    eps: BitVec,
    ones: BitVec,
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

    /// Loads `len` tags (a multiple of the block size) from their
    /// discriminant codes (`tag as u8`) with the branchless
    /// [`TagVec::fill_from_codes`] packing. Call before
    /// [`SweepScratch::plan_scatter`] with the entry tags, and again with the
    /// post-scatter tags before [`SweepScratch::plan_quasisort_fused`].
    pub fn set_tags_from_codes<F: FnMut(usize) -> u8>(&mut self, len: usize, f: F) {
        let clock = ProfClock::start();
        self.tags.fill_from_codes(len, f);
        self.profile.tag_derive_ops += len as u64;
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
            + self.alpha.footprint_bytes()
            + self.eps.footprint_bytes()
            + self.ones.footprint_bytes()
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
        if a > e {
            return (a - e, DomType::Alpha);
        }
        if e > a {
            return (e - a, DomType::Eps);
        }
        if a == 0 {
            return (0, DomType::Eps);
        }
        (0, self.tie_type(j, b, steps))
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
            let seg = 1usize << jj;
            let a = self.alpha.seg_count(bb * seg, seg);
            let e = self.eps.seg_count(bb * seg, seg);
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
    /// root), so settling a node costs two segment counts — the upper
    /// child's — and two subtractions for the lower child, instead of six
    /// range counts from scratch.
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
        let clock = ProfClock::start();
        self.tags.extract_plane(TagPlane::Alpha, &mut self.alpha);
        self.tags.extract_plane(TagPlane::Eps, &mut self.eps);
        self.profile.rank_nanos += clock.elapsed_nanos();
        self.ensure_levels(len);
        self.ensure_count_levels(len);
        let clock = ProfClock::start();
        let mut steps = 0u64;
        for r in 0..len / seg {
            self.cur[r] = s_target;
            self.cur_a[r] = self.alpha.seg_count(r * seg, seg);
            self.cur_e[r] = self.eps.seg_count(r * seg, seg);
        }
        for j in (1..=m).rev() {
            let half = 1usize << (j - 1);
            let n_prime = 1usize << j;
            for b in 0..(len >> j) {
                let s_node = self.cur[b];
                let (a_node, e_node) = (self.cur_a[b], self.cur_e[b]);
                let a_up = self.alpha.seg_count(2 * b * half, half);
                let e_up = self.eps.seg_count(2 * b * half, half);
                let (a_dn, e_dn) = (a_node - a_up, e_node - e_up);
                let l_node = (a_node as isize - e_node as isize).unsigned_abs();
                let (l0, ty0) = self.child_pair(a_up, e_up, j - 1, 2 * b, &mut steps);
                let (l1, ty1) = self.child_pair(a_dn, e_dn, j - 1, 2 * b + 1, &mut steps);
                self.next_a[2 * b] = a_up;
                self.next_e[2 * b] = e_up;
                self.next_a[2 * b + 1] = a_dn;
                self.next_e[2 * b + 1] = e_dn;
                let slice = settings.block_mut(j - 1, (base >> j) + b);
                let (s0, s1);
                if ty0 == ty1 {
                    // ε/α-addition: Lemma 1, same as the bit-sorting setting.
                    s0 = s_node % half;
                    s1 = (s_node + l0) % half;
                    let bset = ((s_node + l0) / half) % 2;
                    let (b_val, b_comp) = if bset == 1 {
                        (SwitchSetting::Crossing, SwitchSetting::Parallel)
                    } else {
                        (SwitchSetting::Parallel, SwitchSetting::Crossing)
                    };
                    binary_compact_setting_into(slice, 0, s1, b_comp, b_val);
                } else {
                    // ε/α-elimination: Lemmas 2–5.
                    let bcast = if ty0 == DomType::Alpha {
                        SwitchSetting::UpperBroadcast
                    } else {
                        SwitchSetting::LowerBroadcast
                    };
                    let (s_tmp, l_tmp, ucast);
                    if l0 >= l1 {
                        s0 = s_node % half;
                        s1 = (s_node + l_node) % half;
                        s_tmp = s1;
                        l_tmp = l1;
                        ucast = SwitchSetting::Parallel;
                    } else {
                        s0 = (s_node + l_node) % half;
                        s1 = s_node % half;
                        s_tmp = s0;
                        l_tmp = l0;
                        ucast = SwitchSetting::Crossing;
                    }
                    let ucomp = ucast.complement();
                    if s_node + l_node < half {
                        binary_compact_setting_into(slice, s_tmp, l_tmp, ucast, bcast);
                    } else if s_node < half {
                        trinary_compact_setting_into(slice, s_tmp, l_tmp, ucomp, bcast, ucast);
                    } else if s_node + l_node < n_prime {
                        binary_compact_setting_into(slice, s_tmp, l_tmp, ucomp, bcast);
                    } else {
                        trinary_compact_setting_into(slice, s_tmp, l_tmp, ucast, bcast, ucomp);
                    }
                }
                self.next[2 * b] = s0;
                self.next[2 * b + 1] = s1;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.cur_a, &mut self.next_a);
            std::mem::swap(&mut self.cur_e, &mut self.next_e);
        }
        // Closed form: seg − 1 nodes settled per block (len − len/seg in
        // all), two segment counts per node plus two per tie-walk step.
        let nodes = (len - len / seg) as u64;
        self.profile.scatter_ops += nodes;
        self.profile.rank_ops += 2 * nodes + 2 * steps;
        self.profile.scatter_nanos += clock.elapsed_nanos();
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
    /// range counts (word-parallel popcounts) and the ε₀ quota *already
    /// travelling down* the ε-divide wave — so both backward phases ride one
    /// top-down pass and the γ plane is never materialized. Settings and
    /// error values are bit-for-bit those of [`crate::plan::plan_quasisort`]
    /// on each block (pinned by the tests below and by the fast-path
    /// equivalence suite in `brsmn-core`); the blocks are checked in order,
    /// α before half-overflow, so a failing load reports the first failing
    /// block's error, its α position relative to the block.
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
        let clock = ProfClock::start();
        self.tags.extract_plane(TagPlane::Eps, &mut self.eps);
        self.tags.extract_plane(TagPlane::One, &mut self.ones);
        self.profile.rank_nanos += clock.elapsed_nanos();
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
            let (n1, ne) = (
                self.ones.seg_count(r * seg, seg),
                self.eps.seg_count(r * seg, seg),
            );
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
        for j in (1..=m).rev() {
            let half = 1usize << (j - 1);
            for b in 0..(len >> j) {
                let s_node = self.cur[b];
                let e0 = self.cur_q[b];
                let u_lo = 2 * b * half;
                // ε-divide split (Table 6): the upper child takes as many ε₀
                // as it has ε leaves.
                let upper_eps = self.eps.seg_count(u_lo, half);
                let u_e0 = e0.min(upper_eps);
                // Bit-sort forward value (Table 3) without the γ plane:
                // sort-down leaves under the upper child are its 1s plus its
                // ε₁s, and ε₁ = ε − ε₀.
                let l0 = self.ones.seg_count(u_lo, half) + (upper_eps - u_e0);
                let s0 = s_node % half;
                let s1 = (s_node + l0) % half;
                let bset = ((s_node + l0) / half) % 2;
                let (b_val, b_comp) = if bset == 1 {
                    (SwitchSetting::Crossing, SwitchSetting::Parallel)
                } else {
                    (SwitchSetting::Parallel, SwitchSetting::Crossing)
                };
                binary_compact_setting_into(
                    settings.block_mut(j - 1, (base >> j) + b),
                    0,
                    s1,
                    b_comp,
                    b_val,
                );
                self.next[2 * b] = s0;
                self.next[2 * b + 1] = s1;
                self.next_q[2 * b] = u_e0;
                self.next_q[2 * b + 1] = e0 - u_e0;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            std::mem::swap(&mut self.cur_q, &mut self.next_q);
        }
        // Closed form: seg − 1 nodes per block (len − len/seg in all), two
        // segment counts (ε and 1 planes) per node.
        let nodes = (len - len / seg) as u64;
        self.profile.quasisort_ops += nodes;
        self.profile.rank_ops += 2 * nodes;
        self.profile.quasisort_nanos += clock.elapsed_nanos();
        Ok(())
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
        scratch.set_tags_from_codes(tags.len(), |i| tags[i] as u8);
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
    fn fill_from_codes_matches_fill_from() {
        // The branchless packing relies on Tag's declaration order matching
        // the (lo, hi) plane encoding — pin the discriminants first.
        assert_eq!(
            [Tag::Zero as u8, Tag::One as u8, Tag::Alpha as u8, Tag::Eps as u8],
            [0, 1, 2, 3]
        );
        let (mut branchy, mut branchless) = (TagVec::new(), TagVec::new());
        for len in [1usize, 63, 64, 65, 127, 256] {
            let tags: Vec<Tag> = (0..len).map(|i| tag_of(i * 5 + len)).collect();
            branchy.fill_from(len, |i| tags[i]);
            branchless.fill_from_codes(len, |i| tags[i] as u8);
            assert_eq!(branchless, branchy, "len={len}");
            for (i, &t) in tags.iter().enumerate() {
                assert_eq!(branchless.get(i), t, "len={len} i={i}");
            }
        }
    }

    #[test]
    fn sweep_profile_counts_are_exact_closed_forms() {
        let n = 64usize;
        let mut scratch = SweepScratch::new();
        let tags: Vec<Tag> = (0..n).map(|i| tag_of(i * 11 + 2)).collect();
        load(&mut scratch, &tags);
        let mut table = RbnSettings::identity(n);
        scratch.plan_scatter(0, n, 0, &mut table);
        let p = scratch.take_profile();
        assert_eq!(p.tag_derive_ops, n as u64);
        assert_eq!(p.scatter_ops, (n - 1) as u64);
        // Two segment counts per settled node, plus two per tie-walk step.
        assert!(p.rank_ops >= 2 * (n - 1) as u64, "rank_ops={}", p.rank_ops);
        assert_eq!(p.quasisort_ops, 0);
        // Draining left zeros behind.
        assert!(scratch.profile().is_empty());
        // A fused quasisort wave books under the quasisort category.
        scratch.set_tags_from_codes(n, |i| [0u8, 1, 3][i % 3]);
        scratch.plan_quasisort_fused(n, 0, &mut table).unwrap();
        let p = scratch.take_profile();
        assert_eq!(p.tag_derive_ops, n as u64);
        assert_eq!(p.quasisort_ops, (n - 1) as u64);
        assert_eq!(p.rank_ops, 2 * (n - 1) as u64);
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
            for plane in [TagPlane::Zero, TagPlane::One, TagPlane::Alpha, TagPlane::Eps] {
                tv.extract_plane(plane, &mut wide);
                tv.extract_plane_scalar(plane, &mut scalar);
                assert_eq!(wide, scalar, "len={len} {plane:?}");
            }
        }
    }

    #[test]
    fn packed_scatter_matches_reference_exhaustively_n4() {
        let n = 4;
        let mut scratch = SweepScratch::new();
        for pattern in 0..(1usize << (2 * n)) {
            let tags: Vec<Tag> = (0..n).map(|i| tag_of(pattern >> (2 * i))).collect();
            for s in 0..n {
                let want = plan_scatter(&tags, s).settings;
                let mut got = RbnSettings::identity(n);
                load(&mut scratch, &tags);
                scratch.plan_scatter(s, n, 0, &mut got);
                assert_eq!(got, want, "tags={tags:?} s={s}");
            }
        }
    }

    #[test]
    fn packed_scatter_matches_reference_randomized() {
        let mut scratch = SweepScratch::new();
        let mut state = 0x243F6A8885A308D3u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
        let mut got = RbnSettings::identity(n);
        load(scratch, tags);
        let got = scratch.plan_quasisort_fused(n, 0, &mut got).map(|()| got);
        (got, want)
    }

    #[test]
    fn fused_quasisort_matches_reference_exhaustively_n8() {
        // Every 0/1/ε pattern of length 8 (α is rejected by both paths).
        let n = 8;
        let mut scratch = SweepScratch::new();
        let mut planned = 0;
        for pattern in 0..3usize.pow(n as u32) {
            let tags: Vec<Tag> = (0..n)
                .map(|i| match pattern / 3usize.pow(i as u32) % 3 {
                    0 => Tag::Zero,
                    1 => Tag::One,
                    _ => Tag::Eps,
                })
                .collect();
            let (got, want) = fused_vs_reference(&mut scratch, &tags);
            planned += usize::from(want.is_ok());
            assert_eq!(got, want, "tags={tags:?}");
        }
        assert!(planned > 1000, "only {planned} feasible patterns");
    }

    #[test]
    fn fused_quasisort_matches_reference_randomized() {
        let mut scratch = SweepScratch::new();
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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
