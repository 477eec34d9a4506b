//! The zero-allocation routing fast path, and the one executor of a BSN
//! level.
//!
//! [`crate::brsmn`]'s reference router allocates on every frame: fresh
//! `Vec<Line<P>>` buffers per level, `Vec<Vec<usize>>` sweep state per plan,
//! and a settings table per RBN. This module routes with none of that:
//!
//! * a semantic message is a `FastLine`: its source input and the first
//!   and last destination it still has to reach. Destination sets never
//!   travel: inside a block the message's destinations are one contiguous
//!   run of its source's sorted list, so two compares against the block
//!   midpoint give its entry tag, only an α line searches the list (once,
//!   for the ends of its two halves), and a broadcast "split" is a plain
//!   `Copy` of the line;
//! * every BSN level is one **level pass** (`route_level`). By §7.3 /
//!   Fig. 13 the `2^(i−1)` sub-RBNs of level `i` are the first `m−i+1`
//!   stages of one `n`-wide array, so the pass treats the level as one
//!   unit: it derives the entry tags of all `n` lines, plans the scatter
//!   and the fused quasisort of every block as one forest sweep each
//!   ([`brsmn_rbn::bitplan::SweepScratch`], packed words + popcount,
//!   writing 2-bit switch codes into one persistent [`PackedStages`]
//!   table) or loads the level's planes whole from a [`CapturedPlan`],
//!   runs each stage plane once across all blocks, and captures the
//!   level's planes whole, word by word. The codes are the only settings
//!   form from the planner to the capture;
//! * execution moves *tokens*, not lines: the entry step writes line `i`'s
//!   `u32` `(i << 2) | tag` in one pass over the lines, and a swept level
//!   packs the tag planes from the tokens' low two bits, 64 tags per word.
//!   A stage pass reads each plane's code words as the replay kernel does
//!   and applies one matching of disjoint 2×2 exchanges to the tokens,
//!   branch-free, and after the quasisort output `o` gathers the
//!   level-entry line its token names (`run_tokens`). The final 2×2 stage
//!   of a swept route derives its codes 32 pairs per word
//!   (`final_codes`).
//!
//! The level pass has three callers, which differ only at its two ends
//! (`LevelLines`). Fresh semantic routes and traced replays move
//! `FastLine`s. Generic payload routes
//! ([`Brsmn::route_lines`](crate::Brsmn::route_lines), and so the
//! self-routing engine) move [`Line`]s: a line's entry tag comes from
//! [`RoutePayload::entry_tag`], and the gather splits each α payload once
//! and descends every payload.
//!
//! Replaying a captured plan untraced needs even less. Until delivery only
//! the source id on each line matters, so the untraced replay of both cache
//! tiers moves one `u32` per line through the captured planes, a whole
//! level's blocks per stage pass, 32 switches per packed word (see
//! `replay_sources`). The traced replay, the level pass on loaded planes, is
//! the kernel's oracle.
//!
//! Every route and replay ends in the same delivery check
//! (`check_delivery`): the assignment's owner table, built from its CSR
//! arrays without a search or a branch, compared with the delivery whole.
//!
//! Everything lives in a [`RouteScratch`] arena sized once from `n`; after
//! the first frame at a given size, semantic routing performs **zero** heap
//! allocations (pinned by the `alloc-count` test in `brsmn-bench`). The
//! result is bit-identical to the reference router — same routing result,
//! same trace, same final settings — which the equivalence property tests
//! in `brsmn-core/tests/fastpath_equivalence.rs` and `level_pass.rs`
//! verify.

use std::cell::RefCell;
use std::time::Instant;

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::brsmn::RouteTrace;
use crate::bsn::BsnTrace;
use crate::canonical::ClassScratch;
use crate::engine::StageTimer;
use crate::error::CoreError;
use crate::payload::RoutePayload;
use crate::plancache::{CapturedPlan, PHASE_QUASISORT, PHASE_SCATTER};
use brsmn_rbn::bitplan::{pack_codes, SweepScratch};
use brsmn_rbn::{setting_from_code, PackedSettings, PackedStages, PlanError, RbnSettings};
use brsmn_switch::{Line, SwitchError, SwitchSetting, Tag};
use brsmn_topology::{check_size, log2_exact};

/// Sentinel source id of an empty line.
pub(crate) const NO_SRC: u32 = u32::MAX;

/// Even bit positions of a code word: bit 0 of each of its 32 codes.
const EVEN: u64 = 0x5555_5555_5555_5555;

/// One line of the fast path: the source input of the message on it
/// (`NO_SRC` when idle), the first and last destination it still has to
/// reach inside its current block, and what each of its two copies keeps
/// of them should the line split there. Inside a block the message's
/// destinations are a contiguous run of its source's sorted list, so
/// `first` and `last` stand for the whole run.
///
/// The entry step sets `lo_last = last` and `hi_first = first`, and an α
/// line overwrites them with the largest destination below its block's
/// midpoint and the smallest at or above it. The gather then narrows every
/// line to the half it landed in without a branch: an upper output takes
/// `last ← lo_last`, a lower output `first ← hi_first`. `Copy`, so a
/// broadcast split is two struct writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FastLine {
    pub(crate) src: u32,
    pub(crate) first: u32,
    pub(crate) last: u32,
    /// The last destination of the copy that stays in the upper half.
    pub(crate) lo_last: u32,
    /// The first destination of the copy that goes to the lower half.
    pub(crate) hi_first: u32,
}

impl FastLine {
    pub(crate) const EMPTY: FastLine = FastLine {
        src: NO_SRC,
        first: 0,
        last: 0,
        lo_last: 0,
        hi_first: 0,
    };
}

/// Where the last routing call left its delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// In `lines` (fresh routing, traced replay).
    Lines,
    /// In `srcs`, output `o` at `srcs[o]` (untraced exact replay).
    Srcs,
    /// In `srcs` in plan space: output `o` at `srcs[output_map[o]]`, through
    /// the class maps (permuted replay).
    SrcsPermuted,
}

/// Reusable routing arena: the two line buffers of the level pass, its
/// token buffer, the replay kernel's source-id buffer, the packed sweep
/// scratch, the persistent live table of 2-bit switch codes, the delivery
/// check's owner table and run counts, and the canonical tier's class
/// scratch (fanout histogram, profile runs, live → plan maps), all sized
/// from `n` on first use and never reallocated while the size stays fixed.
///
/// Pass one to [`Brsmn::route_into`](crate::brsmn::Brsmn::route_into) /
/// [`Brsmn::route_buffered`](crate::brsmn::Brsmn::route_buffered), or let
/// [`with_thread_scratch`] manage a thread-local instance (what
/// [`Brsmn::route`](crate::brsmn::Brsmn::route) and the engine's workers do).
#[derive(Debug, Clone)]
pub struct RouteScratch {
    n: usize,
    /// The lines at the current level (and the delivery of a fresh route).
    lines: Vec<FastLine>,
    /// The level pass gathers the next level's lines here, then swaps the
    /// two buffers.
    next_lines: Vec<FastLine>,
    /// One token per line during a level pass (see `run_tokens`).
    tokens: Vec<u32>,
    /// One source id per line ([`NO_SRC`] when idle): all the untraced
    /// replay kernel moves.
    srcs: Vec<u32>,
    delivered: Delivery,
    sweep: SweepScratch,
    /// The live table: `log₂ n` stage planes of codes.
    settings: PackedStages,
    /// The input owning each output ([`NO_SRC`] when unclaimed), rebuilt
    /// by every delivery check.
    owner: Vec<u32>,
    /// How many inputs' destination runs start at each position of the
    /// assignment's destination array (`n + 1` slots).
    starts: Vec<u32>,
    class: ClassScratch,
}

impl Default for RouteScratch {
    fn default() -> Self {
        RouteScratch::empty()
    }
}

impl RouteScratch {
    /// An arena pre-sized for an `n × n` network.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        check_size(n)?;
        let mut s = RouteScratch::empty();
        s.ensure(n);
        Ok(s)
    }

    /// An unsized arena; buffers grow on first use.
    pub fn empty() -> Self {
        RouteScratch {
            n: 0,
            lines: Vec::new(),
            next_lines: Vec::new(),
            tokens: Vec::new(),
            srcs: Vec::new(),
            delivered: Delivery::Lines,
            sweep: SweepScratch::new(),
            // Placeholder with zero stages; replaced by `ensure`.
            settings: PackedStages::identity(1),
            owner: Vec::new(),
            starts: Vec::new(),
            class: ClassScratch::default(),
        }
    }

    /// The network size this arena is currently sized for (`0` if unused).
    pub fn n(&self) -> usize {
        self.n
    }

    /// (Re)sizes the arena for an `n × n` network. A no-op at the current
    /// size — the warm-up allocation happens exactly once per size.
    pub fn ensure(&mut self, n: usize) {
        if self.n != n {
            self.n = n;
            self.lines.clear();
            self.lines.resize(n, FastLine::EMPTY);
            self.next_lines.clear();
            self.next_lines.resize(n, FastLine::EMPTY);
            self.tokens.clear();
            self.tokens.resize(n, 0);
            self.srcs.clear();
            self.srcs.resize(n, NO_SRC);
            self.delivered = Delivery::Lines;
            self.settings = PackedStages::identity(n);
            self.owner.clear();
            self.owner.resize(n, NO_SRC);
            self.starts.clear();
            self.starts.resize(n + 1, 0);
            self.class.ensure(n);
        }
    }

    /// Sources delivered to each output by the last successful
    /// [`Brsmn::route_into`](crate::brsmn::Brsmn::route_into),
    /// [`Brsmn::route_replay_into`](crate::brsmn::Brsmn::route_replay_into)
    /// or
    /// [`Brsmn::route_replay_permuted_into`](crate::brsmn::Brsmn::route_replay_permuted_into)
    /// call. A permuted delivery is read through the class maps, so read it
    /// before the next [`crate::PlanCache::lookup_class`] on this arena.
    pub fn output_sources(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        (0..self.n).map(|o| {
            let src = match self.delivered {
                Delivery::Lines => self.lines[o].src,
                Delivery::Srcs => self.srcs[o],
                Delivery::SrcsPermuted => self.srcs[self.class.output_map()[o] as usize],
            };
            (src != NO_SRC).then_some(src as usize)
        })
    }

    /// The live → plan maps the last class hit
    /// ([`crate::PlanCache::lookup_class`]) left here — `(input_map,
    /// output_map)`: live input `i` enters the captured plan at
    /// `input_map[i]`, live output `d` reads its delivery at
    /// `output_map[d]` — or `None` when the last probe missed.
    pub fn class_maps(&self) -> Option<(&[u32], &[u32])> {
        self.class.maps()
    }

    /// The canonical tier's working set inside this arena.
    pub(crate) fn class_mut(&mut self) -> &mut ClassScratch {
        &mut self.class
    }

    /// Approximate heap bytes currently reserved by the arena.
    pub fn footprint_bytes(&self) -> usize {
        let u32s = self.tokens.capacity()
            + self.srcs.capacity()
            + self.owner.capacity()
            + self.starts.capacity();
        (self.lines.capacity() + self.next_lines.capacity()) * std::mem::size_of::<FastLine>()
            + u32s * std::mem::size_of::<u32>()
            + self.sweep.footprint_bytes()
            + self.settings.footprint_bytes()
            + self.class.footprint_bytes()
    }

    /// Collects the delivered sources into a fresh [`RoutingResult`] (the
    /// one allocation of [`Brsmn::route_buffered`](crate::brsmn::Brsmn::route_buffered)).
    pub(crate) fn to_result(&self) -> RoutingResult {
        RoutingResult::new(self.output_sources().collect())
    }

    /// A copy of the live switch table, as left by the last routing call,
    /// unpacked one [`SwitchSetting`] per switch (the arena holds 2-bit
    /// codes). After a traced plan replay this is bit-identical to the
    /// table a fresh plan of the same assignment would leave (the
    /// plan-cache property tests pin this).
    pub fn settings_table(&self) -> RbnSettings {
        self.settings.to_settings()
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::empty());
}

/// Runs `f` with this thread's [`RouteScratch`], sized for `n`. The arena
/// persists for the life of the thread, so repeated calls at a fixed size
/// reuse all buffers — this is how each engine worker owns its scratch.
pub fn with_thread_scratch<R>(n: usize, f: impl FnOnce(&mut RouteScratch) -> R) -> R {
    TLS_SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.ensure(n);
        f(&mut s)
    })
}

/// Entry tag of the message `dests` (sorted, absolute) at the block
/// `[lo, lo + size)`: which halves of the block it still has to reach.
/// Three binary searches over the full set — kept as the oracle for the
/// entry step's two compares (`FastLines::enter`).
#[inline]
pub(crate) fn entry_tag_fast(dests: &[usize], lo: usize, size: usize) -> Tag {
    let mid = lo + size / 2;
    let i_lo = dests.partition_point(|&d| d < lo);
    let i_mid = dests.partition_point(|&d| d < mid);
    let i_hi = dests.partition_point(|&d| d < lo + size);
    match (i_mid > i_lo, i_hi > i_mid) {
        (true, false) => Tag::Zero,
        (false, true) => Tag::One,
        (true, true) => Tag::Alpha,
        (false, false) => unreachable!("dests are non-empty within the block"),
    }
}

/// Sets what an α line's two copies keep: the largest of its source's
/// destinations below the block midpoint `mid` and the smallest at or
/// above it. One binary search over the sorted list; both exist, because
/// the line's first destination lies below `mid` and its last at or above.
#[inline]
fn split_alpha(dests: &[usize], line: &mut FastLine, mid: u32) {
    let p = dests.partition_point(|&d| d < mid as usize);
    line.lo_last = dests[p - 1] as u32;
    line.hi_first = dests[p] as u32;
}

/// The oracle of [`split_alpha`]: a scan of all of `dests` for the largest
/// destination in the upper half of the block `[lo, lo + size)` and the
/// smallest in its lower half.
fn split_by_scan(dests: &[usize], lo: usize, size: usize) -> (u32, u32) {
    let mid = lo + size / 2;
    let upper = dests.iter().filter(|&&d| (lo..mid).contains(&d)).max();
    let lower = dests
        .iter()
        .filter(|&&d| (mid..lo + size).contains(&d))
        .min();
    (
        *upper.expect("an α has an upper destination") as u32,
        *lower.expect("an α has a lower destination") as u32,
    )
}

/// Tags by discriminant code (`tag as u32`): the low two bits of a token.
const TAG_OF_CODE: [Tag; 4] = [Tag::Zero, Tag::One, Tag::Alpha, Tag::Eps];

/// The tag a token carries.
#[inline]
fn token_tag(token: u32) -> Tag {
    TAG_OF_CODE[(token & 3) as usize]
}

/// The tags the tokens carry, in line order (trace snapshots only).
fn token_tags(tokens: &[u32]) -> Vec<Tag> {
    tokens.iter().map(|&t| token_tag(t)).collect()
}

/// The two ends of a level pass, which depend on what the lines carry: the
/// entry step that derives every line's tag, and the gather that hands
/// what the level-entry lines carry to the outputs their tokens reached.
/// The final 2×2 stage derives its tags with the same entry step at block
/// size 2.
trait LevelLines {
    /// The entry step: writes every line `i`'s token `(i << 2) | tag`,
    /// with the line's entry tag at its block of `size` lines (the block
    /// starting at `i` rounded down to a multiple of `size`).
    fn enter(&mut self, tokens: &mut [u32], size: usize);

    /// Ends a level pass over blocks of `size` lines: output `o` takes
    /// what the level-entry line its token names carries, with the token's
    /// tag. A block whose tags break Eq. (4) fails with
    /// [`postcondition_error`].
    fn gather(&mut self, tokens: &[u32], size: usize) -> Result<(), CoreError>;

    /// Applies `pairs` final-stage codes of one word (pair `p`'s at bits
    /// `2p`, `2p + 1`) to the output pairs from line `lo` on.
    fn apply_final_word(&mut self, lo: usize, codes: u64, pairs: usize);
}

/// A frame's semantic lines: the lines of the current level (the delivery,
/// once routed) and the buffer the gather fills.
struct FastLines<'a> {
    asg: &'a MulticastAssignment,
    lines: &'a mut [FastLine],
    next: &'a mut [FastLine],
}

impl LevelLines for FastLines<'_> {
    /// Each line's tag from its first and last destination, with two
    /// compares and no branch: `lo = first < mid` and `hi = last ≥ mid` at
    /// its block's midpoint give the code `hi·(1 + lo)` (0, 1 or α), and
    /// an idle line's is ε. Every line hands its copies its own ends, and
    /// an α line alone searches its source's destinations for the ends of
    /// its two halves ([`split_alpha`]). Debug builds check each live
    /// line's tag against [`entry_tag_fast`] and each α's split against
    /// [`split_by_scan`].
    fn enter(&mut self, tokens: &mut [u32], size: usize) {
        let half = size / 2;
        for (i, (line, token)) in self.lines.iter_mut().zip(tokens.iter_mut()).enumerate() {
            let mid = ((i & !(size - 1)) + half) as u32;
            let lo = u32::from(line.first < mid);
            let hi = u32::from(line.last >= mid);
            let code = (hi * (1 + lo)) | (u32::from(line.src == NO_SRC) * 3);
            *token = (i as u32) << 2 | code;
            line.lo_last = line.last;
            line.hi_first = line.first;
            if code == Tag::Alpha as u32 {
                split_alpha(self.asg.dests(line.src as usize), line, mid);
            }
            if cfg!(debug_assertions) && line.src != NO_SRC {
                let (dests, base) = (self.asg.dests(line.src as usize), i & !(size - 1));
                assert_eq!(
                    token_tag(code),
                    entry_tag_fast(dests, base, size),
                    "line {i}, block size {size}"
                );
                if code == Tag::Alpha as u32 {
                    assert_eq!(
                        (line.lo_last, line.hi_first),
                        split_by_scan(dests, base, size),
                        "α line {i}, block size {size}"
                    );
                }
            }
        }
    }

    fn gather(&mut self, tokens: &[u32], size: usize) -> Result<(), CoreError> {
        gather_fast(self.lines, self.next, tokens, size)?;
        std::mem::swap(&mut self.lines, &mut self.next);
        Ok(())
    }

    /// Only the source of a line matters after the final stage, so each
    /// output takes its source, and nothing else, without a branch: the
    /// upper output reads the lower input's on crossing or lower broadcast
    /// (`c & 1`), the lower output the upper input's on crossing or upper
    /// broadcast (`(c ^ c >> 1) & 1`), as the replay kernel selects.
    fn apply_final_word(&mut self, lo: usize, codes: u64, pairs: usize) {
        let outputs = self.lines[lo..lo + 2 * pairs].chunks_exact_mut(2);
        for (p, pair) in outputs.enumerate() {
            let c = (codes >> (2 * p)) as u32;
            let take_lower = (c & 1).wrapping_neg();
            let take_upper = ((c ^ (c >> 1)) & 1).wrapping_neg();
            let (u, d) = (pair[0].src, pair[1].src);
            pair[0].src = u ^ ((u ^ d) & take_lower);
            pair[1].src = d ^ ((u ^ d) & take_upper);
        }
    }
}

/// Generic payload lines: the lines of the current level (the delivery,
/// once routed) and the buffer the gather fills.
struct PayloadLines<P> {
    lines: Vec<Line<P>>,
    next: Vec<Line<P>>,
}

impl<P: RoutePayload> LevelLines for PayloadLines<P> {
    fn enter(&mut self, tokens: &mut [u32], size: usize) {
        for (i, (line, token)) in self.lines.iter_mut().zip(tokens.iter_mut()).enumerate() {
            let base = i & !(size - 1);
            line.tag = line
                .payload
                .as_ref()
                .map_or(Tag::Eps, |p| p.entry_tag(base, size));
            *token = (i as u32) << 2 | line.tag as u32;
        }
    }

    /// Splits each α entry line once, with [`RoutePayload::split`] at its
    /// block: the first of its two outputs takes its own copy (the 0-copy
    /// for the 0-tagged output, the 1-copy for the 1-tagged one), and the
    /// other copy waits on the entry line for the other output. Every
    /// payload then descends into the half it landed in.
    fn gather(&mut self, tokens: &[u32], size: usize) -> Result<(), CoreError> {
        let blocks = self
            .next
            .chunks_exact_mut(size)
            .zip(tokens.chunks_exact(size));
        for (b, (outs, toks)) in blocks.enumerate() {
            if toks
                .iter()
                .enumerate()
                .any(|(pos, &t)| misplaced(pos, t, size))
            {
                return Err(postcondition_error(toks, size));
            }
            let base = b * size;
            for (out, &t) in outs.iter_mut().zip(toks) {
                let tag = token_tag(t);
                let entry = &mut self.lines[(t >> 2) as usize];
                let payload = if entry.tag == Tag::Alpha {
                    let alpha = entry.payload.take().expect("α line has a payload");
                    let (p0, p1) = alpha.split(base, size);
                    let (own, other, other_tag) = if tag == Tag::Zero {
                        (p0, p1, Tag::One)
                    } else {
                        (p1, p0, Tag::Zero)
                    };
                    *entry = Line::with(other_tag, other);
                    Some(own)
                } else {
                    entry.payload.take()
                };
                *out = Line {
                    tag,
                    payload: payload.map(|p| p.descend(tag, base, size)),
                };
            }
        }
        std::mem::swap(&mut self.lines, &mut self.next);
        Ok(())
    }

    /// Pair by pair: a broadcast splits the α's payload at its pair.
    fn apply_final_word(&mut self, lo: usize, codes: u64, pairs: usize) {
        use SwitchSetting::*;
        for at in (lo..lo + 2 * pairs).step_by(2) {
            let setting = setting_from_code(codes >> (at - lo));
            match setting {
                Parallel => {}
                Crossing => self.lines.swap(at, at + 1),
                UpperBroadcast | LowerBroadcast => {
                    let alpha = if setting == UpperBroadcast {
                        at
                    } else {
                        at + 1
                    };
                    let p = self.lines[alpha]
                        .payload
                        .take()
                        .expect("α line has a payload");
                    let (p0, p1) = p.split(at, 2);
                    self.lines[at] = Line::with(Tag::Zero, p0);
                    self.lines[at + 1] = Line::with(Tag::One, p1);
                }
            }
        }
    }
}

/// Where a level pass takes each phase's stage planes from.
enum Planes<'a> {
    /// Swept by the planner, and stored whole into the plan when one is
    /// given.
    Sweep(Option<&'a mut CapturedPlan>),
    /// Loaded whole from a captured plan (the traced replay).
    Load(&'a CapturedPlan),
}

impl Planes<'_> {
    /// Programs `(level, phase)` into the live table: `sweep` plans it,
    /// and a capture stores it whole, or the plan's planes are loaded
    /// whole.
    fn program(
        &mut self,
        level: usize,
        phase: usize,
        settings: &mut PackedStages,
        sweep: impl FnOnce(&mut PackedStages) -> Result<(), PlanError>,
    ) -> Result<(), PlanError> {
        match self {
            Planes::Sweep(capture) => {
                sweep(settings)?;
                if let Some(plan) = capture {
                    plan.store_phase(level, phase, settings);
                }
            }
            Planes::Load(plan) => plan.load_phase(level, phase, settings),
        }
        Ok(())
    }
}

/// Routes every BSN block of one level — `n / size` blocks of `size`
/// lines — in one pass: entry tags of all `n` lines, the Eq. (2) capacity
/// check per block, the scatter and the fused quasisort each planned as one
/// forest sweep (or loaded whole) and run stage plane by stage plane across
/// all blocks, then the gather with the Eq. (4) postcondition per block. It
/// allocates only for a trace.
///
/// The error is the one a block-by-block walk stops at. A swept level
/// checks Eq. (2) for every block before anything else, and when Eq. (2)
/// holds in a block its scatter leaves no α and its quasisort cannot
/// overflow (Theorem 2, Eqs. 3–4), so no later check fails. A loaded level
/// skips the capacity check: the kernel's broadcast checks, the gather's
/// postcondition and the frame's delivery verification reject a plan that
/// does not fit the lines.
///
/// When `planes` captures, each phase's freshly planned stages are
/// snapshotted whole, right after the phase's sweep (the live table is a
/// shared scratch, overwritten per phase). A traced route records each
/// block's [`BsnTrace`] from slices of the level's token tags, blocks left
/// to right.
#[allow(clippy::too_many_arguments)]
fn route_level(
    lines: &mut impl LevelLines,
    tokens: &mut [u32],
    sweep: &mut SweepScratch,
    settings: &mut PackedStages,
    planes: &mut Planes<'_>,
    level: usize,
    size: usize,
    trace: Option<&mut RouteTrace>,
) -> Result<(), CoreError> {
    let n = tokens.len();
    let k = log2_exact(size) as usize;

    // Entry tags with the tokens: one pass derives each line's tag at its
    // block and starts the line's token; a swept level then packs the tags
    // into the planner's bit planes from the tokens.
    if let Planes::Sweep(_) = planes {
        sweep.set_tags(tokens, |tokens| lines.enter(tokens, size));
        // Eq. (2): a realizable load never requests more than size/2
        // outputs per half of any block.
        if let Some(c) = sweep.first_overloaded_block(size) {
            return Err(CoreError::HalfCapacityExceeded {
                n: size,
                n0: c.n0,
                n1: c.n1,
                na: c.na,
            });
        }
    } else {
        lines.enter(tokens, size);
    }
    let input_tags = trace.is_some().then(|| token_tags(tokens));

    // Scatter networks: eliminate αs (Theorem 2; nα ≤ nε by Eq. 3).
    planes.program(level, PHASE_SCATTER, settings, |s| {
        sweep.plan_scatter(0, size, 0, s);
        Ok(())
    })?;
    run_tokens(tokens, settings, k)?;
    let after_scatter = trace.is_some().then(|| token_tags(tokens));

    // Quasisorting networks: ε-divide + bit-sort, both backward waves fused
    // into one pass (unicast only), planes reloaded from the token tags.
    planes.program(level, PHASE_QUASISORT, settings, |s| {
        sweep.set_tags(tokens, |_| {});
        sweep.plan_quasisort_fused(size, 0, s)
    })?;
    run_tokens(tokens, settings, k)?;
    let output_tags = trace.is_some().then(|| token_tags(tokens));

    lines.gather(tokens, size)?;

    if let (Some(t), Some(input_tags), Some(after_scatter), Some(output_tags)) =
        (trace, input_tags, after_scatter, output_tags)
    {
        for base in (0..n).step_by(size) {
            t.levels[level - 1].blocks.push(BsnTrace {
                input_tags: input_tags[base..base + size].to_vec(),
                after_scatter: after_scatter[base..base + size].to_vec(),
                output_tags: output_tags[base..base + size].to_vec(),
            });
        }
    }
    Ok(())
}

/// Whether output `pos` of a block of `size` lines holds a token whose tag
/// Eq. (4) forbids there: α anywhere, 1 in the upper half, 0 in the lower.
#[inline]
fn misplaced(pos: usize, token: u32, size: usize) -> bool {
    match token & 3 {
        2 => true,
        c => c != 3 && (pos < size / 2) == (c == 1),
    }
}

/// The error of a block whose output tokens `toks` break Eq. (4): it names
/// the first misplaced tag.
fn postcondition_error(toks: &[u32], size: usize) -> CoreError {
    let pos = (0..size)
        .find(|&pos| misplaced(pos, toks[pos], size))
        .expect("a bad output");
    CoreError::Internal(format!(
        "BSN postcondition violated: tag {} at output {pos} of {size}",
        token_tag(toks[pos])
    ))
}

/// The end of a level pass over semantic lines, block by block: output `o`
/// takes the level-entry line its token names and narrows it to the half
/// it landed in, without a branch: an upper output keeps `last ← lo_last`,
/// a lower one `first ← hi_first` (see [`FastLine`]). Both copies of a
/// broadcast carry the α's split and keep their own halves. The Eq. (4)
/// checks accumulate without a branch, and a failing block is rescanned
/// for its first bad output ([`postcondition_error`]).
fn gather_fast(
    lines: &[FastLine],
    next: &mut [FastLine],
    tokens: &[u32],
    size: usize,
) -> Result<(), CoreError> {
    let half = size / 2;
    for (outs, toks) in next.chunks_exact_mut(size).zip(tokens.chunks_exact(size)) {
        let (upper, lower) = outs.split_at_mut(half);
        let mut bad = 0u32;
        for (out, &t) in upper.iter_mut().zip(&toks[..half]) {
            // The upper half holds 0 or ε: codes 1 and 2 are bad.
            let c = t & 3;
            bad |= (c ^ (c >> 1)) & 1;
            let line = &lines[(t >> 2) as usize];
            *out = FastLine {
                last: line.lo_last,
                ..*line
            };
        }
        for (out, &t) in lower.iter_mut().zip(&toks[half..]) {
            // The lower half holds 1 or ε: codes 0 and 2 are bad.
            bad |= !t & 1;
            let line = &lines[(t >> 2) as usize];
            *out = FastLine {
                first: line.hi_first,
                ..*line
            };
        }
        if bad != 0 {
            return Err(postcondition_error(toks, size));
        }
    }
    Ok(())
}

/// Runs stages `[0, k)` of the live table on a level's tokens, each stage
/// plane once across every block of the level: blocks are disjoint line
/// ranges, so one pass per plane equals running each block's stages in
/// turn, and it applies one matching of disjoint 2×2 exchanges per step.
///
/// A token is `(entry line << 2) | tag`. Parallel keeps, crossing swaps,
/// and a broadcast copies the α's token to both outputs with the tags
/// forced to 0 (upper) and 1 (lower) — what [`RbnSettings::run_block`]
/// does to whole lines, on one `u32` each. The plane's code words are read
/// as the replay kernel reads a captured plane ([`token_word`]): a zero
/// word, 32 parallel switches, is skipped whole, and a plane shorter than
/// a word (`n < 64`) runs on a padded copy. A broadcast whose inputs break
/// its rule returns the [`SwitchError`] [`RbnSettings::run_block`] builds
/// for it.
fn run_tokens(tokens: &mut [u32], settings: &PackedStages, k: usize) -> Result<(), SwitchError> {
    let half = tokens.len() / 2;
    for j in 0..k {
        let plane = settings.stage(j);
        if half >= 32 {
            for (w, &codes) in plane.iter().enumerate() {
                if codes != 0 {
                    token_word(codes, j, 32 * w, tokens)?;
                }
            }
        } else {
            // Codes past the plane are masked to parallel, so the padding
            // is never touched.
            let codes = plane[0] & ((1u64 << (2 * half)) - 1);
            if codes != 0 {
                let mut padded = [0u32; 64];
                padded[..tokens.len()].copy_from_slice(tokens);
                token_word(codes, j, 0, &mut padded)?;
                tokens.copy_from_slice(&padded[..tokens.len()]);
            }
        }
    }
    Ok(())
}

/// The setting of the final 2×2 switch over outputs `{lo, lo+1}` for its
/// entry tags `(tu, tl)`, or the [`CoreError::OutputConflict`] of two
/// messages claiming one output. The reference router's `final_switch`
/// keeps its own copy of this table as the oracle, and [`final_codes`]
/// evaluates it 32 pairs at a time.
fn final_setting(tu: Tag, tl: Tag, lo: usize) -> Result<SwitchSetting, CoreError> {
    use SwitchSetting::*;
    Ok(match (tu, tl) {
        (Tag::Alpha, Tag::Eps) => UpperBroadcast,
        (Tag::Eps, Tag::Alpha) => LowerBroadcast,
        (Tag::Alpha, _) | (_, Tag::Alpha) => {
            return Err(CoreError::OutputConflict { output: lo });
        }
        (Tag::Zero, Tag::Zero) => return Err(CoreError::OutputConflict { output: lo }),
        (Tag::One, Tag::One) => return Err(CoreError::OutputConflict { output: lo + 1 }),
        (Tag::Zero, _) | (Tag::Eps, Tag::One) | (Tag::Eps, Tag::Eps) => Parallel,
        (Tag::One, _) | (Tag::Eps, Tag::Zero) => Crossing,
    })
}

/// The codes of the final 2×2 switches over up to 64 lines (pair `p`
/// joins `tokens[2p]` and `tokens[2p + 1]`), one code word, from the tags
/// of the lines' tokens. Both tag planes are packed from the tokens
/// ([`pack_codes`]; missing lines pad as ε, whose pairs stay parallel),
/// and [`final_setting`]'s table becomes boolean formulas over each pair's
/// upper (even) and lower (odd) plane bits: upper broadcast on (α, ε),
/// lower broadcast on (ε, α), crossing on an upper 1 or on (ε, 0), and a
/// conflict wherever an α meets anything but ε, or two 0s or two 1s meet.
/// `lo` is the first line's index: the first conflicting pair fails with
/// [`final_setting`]'s error. Packing here books nothing under
/// `tag_derive`.
fn final_codes(tokens: &[u32], lo: usize) -> Result<u64, CoreError> {
    let mut padded = [Tag::Eps as u32; 64];
    padded[..tokens.len()].copy_from_slice(tokens);
    let (tag_lo, tag_hi) = pack_codes(&padded);
    // Tag codes as (lo, hi) bits: 0 = (0, 0), 1 = (1, 0), α = (0, 1),
    // ε = (1, 1).
    let (ul, uh) = (tag_lo & EVEN, tag_hi & EVEN);
    let (dl, dh) = (tag_lo >> 1 & EVEN, tag_hi >> 1 & EVEN);
    let (u_alpha, d_alpha) = (!ul & uh, !dl & dh);
    let (u_eps, d_eps) = (ul & uh, dl & dh);
    let (u_one, d_one) = (ul & !uh, dl & !dh);
    let (u_zero, d_zero) = (!(ul | uh) & EVEN, !(dl | dh) & EVEN);
    let ub = u_alpha & d_eps;
    let lb = u_eps & d_alpha;
    let bad = (u_alpha | d_alpha) & !(ub | lb) | u_zero & d_zero | u_one & d_one;
    if bad != 0 {
        let p = bad.trailing_zeros() as usize / 2;
        let (tu, tl) = (token_tag(padded[2 * p]), token_tag(padded[2 * p + 1]));
        return Err(final_setting(tu, tl, lo + 2 * p).expect_err("a conflicting pair"));
    }
    let cross = u_one | u_eps & d_zero;
    Ok(cross | lb | (ub | lb) << 1)
}

/// Routes `lines` through every level of a BRSMN of `tokens.len()` lines:
/// one level pass per BSN level (traces list each level's blocks left to
/// right, the order the reference's depth-first recursion pushes them),
/// then the `n/2` final 2×2 switches, each phase taken from `planes`. The
/// final stage works a code word (32 pairs) at a time: a swept route
/// derives it ([`final_codes`]) and captures it whole, a loaded route reads
/// it from the plan, a traced route records each pair's tags and setting,
/// and the lines apply the word ([`LevelLines::apply_final_word`]).
/// A timer gets one clock pair per level and one for the final stage. The
/// sweep's per-op profile is drained at the end, so it never leaks into a
/// later, unrelated route, and folded into the timer.
fn route_network(
    lines: &mut impl LevelLines,
    tokens: &mut [u32],
    sweep: &mut SweepScratch,
    settings: &mut PackedStages,
    mut planes: Planes<'_>,
    mut trace: Option<&mut RouteTrace>,
    mut timer: Option<&mut StageTimer>,
) -> Result<(), CoreError> {
    let n = tokens.len();
    let mut size = n;
    let mut level = 1;
    while size > 2 {
        let t0 = timer.as_ref().map(|_| Instant::now());
        route_level(
            lines,
            tokens,
            sweep,
            settings,
            &mut planes,
            level,
            size,
            trace.as_deref_mut(),
        )?;
        if let (Some(tm), Some(t0)) = (timer.as_deref_mut(), t0) {
            let blocks = (n / size) as u64;
            if let Planes::Load(_) = planes {
                tm.record_bsns_replayed(level, size, blocks, t0.elapsed());
            } else {
                tm.record_bsns(level, size, blocks, t0.elapsed());
            }
        }
        size /= 2;
        level += 1;
    }

    let t0 = timer.as_ref().map(|_| Instant::now());
    lines.enter(tokens, 2);
    for (w, toks) in tokens.chunks(64).enumerate() {
        let lo = 64 * w;
        let codes = match &mut planes {
            Planes::Sweep(capture) => {
                let codes = final_codes(toks, lo)?;
                if let Some(plan) = capture {
                    plan.set_final_codes(w, codes);
                }
                codes
            }
            // The captured codes are the ones the tags imply; the trace
            // records the tags all the same.
            Planes::Load(plan) => plan.final_codes(w),
        };
        if let Some(t) = trace.as_deref_mut() {
            for (p, pair) in toks.chunks_exact(2).enumerate() {
                let at = lo + 2 * p;
                t.final_tags[at] = token_tag(pair[0]);
                t.final_tags[at + 1] = token_tag(pair[1]);
                t.final_settings[at / 2] = setting_from_code(codes >> (2 * p));
            }
        }
        lines.apply_final_word(lo, codes, toks.len() / 2);
    }
    if let (Some(tm), Some(t0)) = (timer.as_deref_mut(), t0) {
        tm.record_final_stage((n / 2) as u64, t0.elapsed());
    }

    let profile = sweep.take_profile();
    if let Some(tm) = timer {
        tm.plan_profile.merge(&profile);
    }
    Ok(())
}

/// Loads a frame's input lines into the arena: idle inputs get
/// [`FastLine::EMPTY`], live inputs start with the first and last of their
/// whole destination set.
fn init_lines(asg: &MulticastAssignment, lines: &mut [FastLine]) {
    for (i, line) in lines.iter_mut().enumerate() {
        let d = asg.dests(i);
        *line = match (d.first(), d.last()) {
            (Some(&first), Some(&last)) => FastLine {
                src: i as u32,
                first: first as u32,
                last: last as u32,
                ..FastLine::EMPTY
            },
            _ => FastLine::EMPTY,
        };
    }
}

/// The frame-final delivery check of every route and replay: `delivered`
/// yields the source id that reached each output, in output order
/// ([`NO_SRC`] for an idle output), and it must be exactly the
/// assignment's owner table. The table is built from the CSR arrays with
/// no search and no branch: each input's destination run is counted where
/// it starts (`starts`; an idle input's empty run counts where the next
/// run starts), a running sum of those counts is one past the input owning
/// each slot of the destination array, and that input is written at the
/// slot's output (`owner`). One pass then ORs each output's difference
/// from its owner. Destination sets are disjoint, so a served output holds
/// a message addressed to it exactly when it holds its owner's. A rejected
/// delivery is walked once more to word the error: the first output
/// holding a message not addressed to it, or else how many of the
/// assignment's destinations were served. On the replay path this is the
/// last line of defense against a corrupted or foreign plan.
fn check_delivery<I>(
    asg: &MulticastAssignment,
    owner: &mut [u32],
    starts: &mut [u32],
    delivered: I,
) -> Result<(), CoreError>
where
    I: Iterator<Item = u32> + Clone,
{
    let dests = asg.flat_dests();
    let total = dests.len();
    starts[..=total].fill(0);
    for &off in &asg.offsets()[..asg.n()] {
        starts[off as usize] += 1;
    }
    owner.fill(NO_SRC);
    let mut runs = 0u32;
    for (&d, &count) in dests.iter().zip(&starts[..total]) {
        runs += count;
        owner[d] = runs - 1;
    }
    let diff = delivered
        .clone()
        .zip(owner.iter())
        .fold(0, |diff, (src, &own)| diff | (src ^ own));
    if diff == 0 {
        return Ok(());
    }
    let mut served = 0usize;
    for (o, (src, &own)) in delivered.zip(owner.iter()).enumerate() {
        if src != NO_SRC && src != own {
            return Err(CoreError::Internal(format!(
                "message from input {src} misdelivered to output {o}"
            )));
        }
        served += usize::from(src != NO_SRC);
    }
    Err(CoreError::Internal(format!(
        "{served} of {total} destinations served"
    )))
}

/// Routes `asg` end to end on semantic lines, each level's phases taken
/// from `planes`, and leaves the delivered lines in `scratch`.
fn route_semantic(
    n: usize,
    asg: &MulticastAssignment,
    scratch: &mut RouteScratch,
    planes: Planes<'_>,
    trace: Option<&mut RouteTrace>,
    timer: Option<&mut StageTimer>,
) -> Result<(), CoreError> {
    assert_eq!(asg.n(), n, "assignment size mismatch");
    scratch.ensure(n);
    let RouteScratch {
        lines,
        next_lines,
        tokens,
        delivered,
        sweep,
        settings,
        owner,
        starts,
        ..
    } = scratch;
    *delivered = Delivery::Lines;
    init_lines(asg, lines);
    let next_ptr = next_lines.as_ptr();
    let mut fast = FastLines {
        asg,
        lines,
        next: next_lines,
    };
    route_network(&mut fast, tokens, sweep, settings, planes, trace, timer)?;
    // Each level's gather fills the other buffer; keep the delivery in
    // `lines`.
    if std::ptr::eq(fast.lines.as_ptr(), next_ptr) {
        std::mem::swap(lines, next_lines);
    }
    check_delivery(asg, owner, starts, lines.iter().map(|l| l.src))
}

/// Routes `asg` end to end on the fast path — one level pass per BSN
/// level, the only fresh-planning path — leaving the delivered lines in
/// `scratch` (read them via [`RouteScratch::output_sources`]). Optionally
/// fills a [`RouteTrace`] and/or a [`StageTimer`] (the timer records
/// exactly what the reference engine's instrumented recursion records),
/// and/or snapshots every planned setting into a [`CapturedPlan`] for later
/// replay.
pub(crate) fn route_assignment_fast(
    n: usize,
    asg: &MulticastAssignment,
    scratch: &mut RouteScratch,
    trace: Option<&mut RouteTrace>,
    timer: Option<&mut StageTimer>,
    capture: Option<&mut CapturedPlan>,
) -> Result<(), CoreError> {
    route_semantic(n, asg, scratch, Planes::Sweep(capture), trace, timer)
}

/// Routes and collects the result (one `Vec` allocation for the result).
pub(crate) fn route_assignment_fast_buffered(
    n: usize,
    asg: &MulticastAssignment,
    scratch: &mut RouteScratch,
    trace: Option<&mut RouteTrace>,
    timer: Option<&mut StageTimer>,
    capture: Option<&mut CapturedPlan>,
) -> Result<RoutingResult, CoreError> {
    route_assignment_fast(n, asg, scratch, trace, timer, capture)?;
    Ok(scratch.to_result())
}

/// Routes pre-built payload lines end to end through the level pass —
/// the generic route behind [`Brsmn::route_lines`](crate::Brsmn::route_lines)
/// — planning with `scratch`'s sweep and settings table. The only
/// allocations are the gather's second line buffer, the payloads' own
/// [`RoutePayload::split`]/[`RoutePayload::descend`] work and, when
/// tracing, the trace snapshots.
pub(crate) fn route_payload_lines<P: RoutePayload>(
    lines: Vec<Line<P>>,
    scratch: &mut RouteScratch,
    trace: Option<&mut RouteTrace>,
) -> Result<Vec<Line<P>>, CoreError> {
    let n = lines.len();
    scratch.ensure(n);
    let RouteScratch {
        tokens,
        sweep,
        settings,
        ..
    } = scratch;
    let next = (0..n).map(|_| Line::empty()).collect();
    let mut payloads = PayloadLines { lines, next };
    route_network(
        &mut payloads,
        tokens,
        sweep,
        settings,
        Planes::Sweep(None),
        trace,
        None,
    )?;
    Ok(payloads.lines)
}

/// Applies one full-width stage plane of a captured plan — the `n/2` codes
/// starting at setting `off` — to the source ids. Switch `idx` of stage `j`
/// joins lines `u = ((idx >> j) << (j + 1)) | (idx mod 2^j)` and
/// `u + 2^j` (the [`RbnWiring`](brsmn_rbn::RbnWiring) formula), and its
/// 2-bit code selects, without a branch, what each output reads
/// ([`LaneMasks::from_codes`]).
/// Codes are read 32 to a word, and a zero word — 32 parallel switches —
/// is skipped whole.
///
/// The plane spans every block of its level: blocks are disjoint line
/// ranges, so running stage `j` for all of them in one pass equals running
/// each block's stages in turn.
fn replay_plane(planes: &PackedSettings, off: usize, j: usize, srcs: &mut [u32]) {
    let half = srcs.len() / 2;
    if half >= 32 {
        for w0 in (0..half).step_by(32) {
            let codes = planes.codes_from(off + w0);
            if codes != 0 {
                replay_word(codes, j, w0, srcs);
            }
        }
    } else {
        // A plane shorter than a word (n < 64): run the same word step on
        // a padded copy. The codes past the plane are masked to parallel,
        // so the padding lines are never touched.
        let codes = planes.codes_from(off) & ((1u64 << (2 * half)) - 1);
        if codes != 0 {
            let mut padded = [NO_SRC; 64];
            padded[..srcs.len()].copy_from_slice(srcs);
            replay_word(codes, j, 0, &mut padded);
            srcs.copy_from_slice(&padded[..srcs.len()]);
        }
    }
}

/// What 32 switches do, one all-ones/all-zeros `u32` lane each: the upper
/// output reads the lower input (`take_lower`: crossing, lower broadcast),
/// and the lower output reads the upper input (`take_upper`: crossing,
/// upper broadcast).
struct LaneMasks {
    take_lower: [u32; 32],
    take_upper: [u32; 32],
}

impl LaneMasks {
    /// From 32 packed 2-bit codes (parallel 0, crossing 1, upper broadcast
    /// 2, lower broadcast 3): `take_lower` is `c & 1`, `take_upper` is
    /// `(c ^ c >> 1) & 1`.
    #[inline(always)]
    fn from_codes(codes: u64) -> Self {
        LaneMasks {
            take_lower: lane_masks(codes & EVEN),
            take_upper: lane_masks((codes ^ (codes >> 1)) & EVEN),
        }
    }
}

/// The upper line of switch `idx` of stage `j`: the switch joins lines
/// `u = ((idx >> j) << (j + 1)) | (idx mod 2^j)` and `u + 2^j` (the
/// [`RbnWiring`](brsmn_rbn::RbnWiring) formula).
#[inline]
fn upper_line(idx: usize, j: usize) -> usize {
    ((idx >> j) << (j + 1)) | (idx & ((1 << j) - 1))
}

/// The replay kernel's step: the 32 switches `w0 .. w0 + 32` of stage `j`,
/// coded in one packed word, applied to the source ids.
#[inline]
fn replay_word(codes: u64, j: usize, w0: usize, srcs: &mut [u32]) {
    exchange_word(&LaneMasks::from_codes(codes), j, w0, srcs);
}

/// The token kernel's step: the replay kernel's step on the tokens, with
/// the word's broadcasts (the set bits of `codes >> 1 & EVEN`, a few per
/// frame) handled one by one on either side of it. Before the exchange
/// each is checked: an upper broadcast (code 2) needs (α, ε) on its
/// (upper, lower) inputs, codes (2, 3), and a lower one (code 3) needs
/// (ε, α), codes (3, 2). The exchange copies the α's token to both
/// outputs, and after it the copies' tags are forced to 0 (upper) and 1
/// (lower). A word's switches read only lines that no other word of the
/// stage writes, so checking each word just before its exchange finds the
/// same first bad broadcast as a check of the whole stage before any
/// exchange.
#[inline]
fn token_word(codes: u64, j: usize, w0: usize, tokens: &mut [u32]) -> Result<(), SwitchError> {
    let broadcasts = codes >> 1 & EVEN;
    let lanes = || {
        let mut rest = broadcasts;
        std::iter::from_fn(move || {
            let t = (rest != 0).then(|| rest.trailing_zeros() as usize / 2)?;
            rest &= rest - 1;
            Some(t)
        })
    };
    for t in lanes() {
        // α is code 2 and ε code 3.
        let u = upper_line(w0 + t, j);
        let c = (codes >> (2 * t) & 3) as u32;
        let (a, b) = (tokens[u] & 3, tokens[u + (1 << j)] & 3);
        if a != c || b != c ^ 1 {
            return Err(SwitchError {
                setting: setting_from_code(u64::from(c)),
                found: (token_tag(a), token_tag(b)),
            });
        }
    }
    exchange_word(&LaneMasks::from_codes(codes), j, w0, tokens);
    for t in lanes() {
        let u = upper_line(w0 + t, j);
        tokens[u] &= !3;
        tokens[u + (1 << j)] = tokens[u + (1 << j)] & !3 | 1;
    }
    Ok(())
}

/// Applies the 32 switches `w0 .. w0 + 32` of stage `j` (`w0` a multiple
/// of 32) to one `u32` per line: source ids (replay) or tokens (the level
/// pass). For `j < 5` the switches join lines inside the 64-line window
/// `[2·w0, 2·w0 + 64)`, in groups of `2^(j+1)`; for `j ≥ 5` their upper
/// lines are one run of 32 and their lower lines the run `2^j` further
/// on. Either way the select runs over contiguous runs the compiler can
/// vectorize. Inlined into each word step, so the masks stay in the
/// step's own frame.
#[inline(always)]
fn exchange_word(m: &LaneMasks, j: usize, w0: usize, lines: &mut [u32]) {
    let window = || 2 * w0..2 * w0 + 64;
    match j {
        0 => exchange_groups::<1>(&mut lines[window()], m),
        1 => exchange_groups::<2>(&mut lines[window()], m),
        2 => exchange_groups::<4>(&mut lines[window()], m),
        3 => exchange_groups::<8>(&mut lines[window()], m),
        4 => exchange_groups::<16>(&mut lines[window()], m),
        _ => {
            let stride = 1usize << j;
            let group = (w0 >> j) << (j + 1);
            let at = w0 & (stride - 1);
            let (upper, lower) = lines[group..group + 2 * stride].split_at_mut(stride);
            exchange(
                &mut upper[at..at + 32],
                &mut lower[at..at + 32],
                &m.take_lower,
                &m.take_upper,
            );
        }
    }
}

/// Lane `t` is all ones when bit `2t` of `bits` is set, else zero.
#[inline(always)]
fn lane_masks(bits: u64) -> [u32; 32] {
    const PICK: [u32; 16] = {
        let mut p = [0u32; 16];
        let mut t = 0;
        while t < 16 {
            p[t] = 1 << (2 * t);
            t += 1;
        }
        p
    };
    let (lo, hi) = (bits as u32, (bits >> 32) as u32);
    let mut masks = [0u32; 32];
    for t in 0..16 {
        masks[t] = u32::from(lo & PICK[t] != 0).wrapping_neg();
        masks[t + 16] = u32::from(hi & PICK[t] != 0).wrapping_neg();
    }
    masks
}

/// [`exchange`] over a 64-line window split into groups of `2·S` lines: the
/// first `S` lines of a group are the upper inputs of its `S` switches, the
/// next `S` their lower inputs.
#[inline(always)]
fn exchange_groups<const S: usize>(window: &mut [u32], m: &LaneMasks) {
    for ((group, tl), tu) in window
        .chunks_exact_mut(2 * S)
        .zip(m.take_lower.chunks_exact(S))
        .zip(m.take_upper.chunks_exact(S))
    {
        let (upper, lower) = group.split_at_mut(S);
        exchange(upper, lower, tl, tu);
    }
}

/// `upper[t] ← take_lower[t] ? lower[t] : upper[t]` and
/// `lower[t] ← take_upper[t] ? upper[t] : lower[t]`, both from the old
/// values, with all-ones/all-zeros masks.
#[inline(always)]
fn exchange(upper: &mut [u32], lower: &mut [u32], take_lower: &[u32], take_upper: &[u32]) {
    let masks = take_lower.iter().zip(take_upper);
    for ((a, b), (&tl, &tu)) in upper.iter_mut().zip(lower.iter_mut()).zip(masks) {
        let diff = *a ^ *b;
        *a ^= diff & tl;
        *b ^= diff & tu;
    }
}

/// The untraced replay kernel, shared by the exact and canonical tiers:
/// every stage plane of `plan`, level by level and then the final stage,
/// applied to one source id per line. No tags, no planning, no checks —
/// the caller's delivery verification is the integrity check. One clock
/// pair per level and one for the final stage.
fn replay_sources(plan: &CapturedPlan, srcs: &mut [u32], mut timer: Option<&mut StageTimer>) {
    let n = srcs.len();
    let half = n / 2;
    let planes = plan.planes();
    let mut size = n;
    let mut level = 1;
    while size > 2 {
        let t0 = timer.as_ref().map(|_| Instant::now());
        let k = log2_exact(size) as usize;
        for phase in [PHASE_SCATTER, PHASE_QUASISORT] {
            let off = plan.phase_offset(level, phase);
            for j in 0..k {
                replay_plane(planes, off + j * half, j, srcs);
            }
        }
        if let (Some(tm), Some(t0)) = (timer.as_deref_mut(), t0) {
            tm.record_bsns_replayed(level, size, (n / size) as u64, t0.elapsed());
        }
        size /= 2;
        level += 1;
    }

    // The final stage pairs outputs {2p, 2p+1}: stage 0's wiring.
    let t0 = timer.as_ref().map(|_| Instant::now());
    replay_plane(planes, plan.final_offset(), 0, srcs);
    if let (Some(tm), Some(t0)) = (timer, t0) {
        tm.record_final_stage(half as u64, t0.elapsed());
    }
}

/// Rejects a plan captured for a different network size.
fn check_plan_size(plan: &CapturedPlan, n: usize) -> Result<(), CoreError> {
    if plan.n() == n {
        Ok(())
    } else {
        Err(CoreError::Config(format!(
            "captured plan is for n = {}, network is n = {n}",
            plan.n()
        )))
    }
}

/// Replays a captured plan for `asg` end to end, leaving the delivery in
/// `scratch`. Bit-identical to fresh routing of the same assignment: same
/// result, same trace (when requested), same final settings table (on the
/// traced path). The traced path is the level pass with every phase loaded
/// whole from the plan, on full semantic lines. The untraced path puts
/// input `i` on line `i` and runs the source-id kernel
/// ([`replay_sources`]) — the warm-cache fast path.
///
/// The plan must have been captured for an equal assignment; the frame-final
/// delivery verification rejects replays against a different one.
pub(crate) fn route_assignment_replay(
    n: usize,
    asg: &MulticastAssignment,
    plan: &CapturedPlan,
    scratch: &mut RouteScratch,
    trace: Option<&mut RouteTrace>,
    timer: Option<&mut StageTimer>,
) -> Result<(), CoreError> {
    assert_eq!(asg.n(), n, "assignment size mismatch");
    check_plan_size(plan, n)?;
    if trace.is_some() {
        return route_semantic(n, asg, scratch, Planes::Load(plan), trace, timer);
    }
    scratch.ensure(n);
    let RouteScratch {
        srcs,
        delivered,
        owner,
        starts,
        ..
    } = scratch;
    *delivered = Delivery::Srcs;
    for (src, (i, w)) in srcs.iter_mut().zip(asg.offsets().windows(2).enumerate()) {
        *src = if w[0] == w[1] { NO_SRC } else { i as u32 };
    }
    replay_sources(plan, srcs, timer);
    check_delivery(asg, owner, starts, srcs.iter().copied())
}

/// Replays a plan captured for a *relabeling* of `asg` — the canonical
/// cache tier's executor — through the live → plan maps in `scratch`'s
/// class scratch: left there by a class hit
/// ([`crate::PlanCache::lookup_class`]), or loaded by a caller. Both maps
/// are bijections on `0..n` by construction, so they are not re-checked
/// here.
///
/// Live input `i`'s source id enters at plan line `input_map[i]`, the
/// captured setting planes execute verbatim through the same kernel as an
/// exact replay ([`replay_sources`]), and each live output `d` reads its
/// delivered source back from plan line `output_map[d]`, which is where the
/// delivery stays (read it with [`RouteScratch::output_sources`]). The
/// result is **bit-identical to fresh planning of the live assignment**: a
/// routing result is a pure function of its assignment (every claimed
/// output receives exactly its unique owner), and the frame-final
/// delivery verification, read through `output_map`, rejects any
/// plan/permutation pair that violates it. The trace/settings side
/// channels are deliberately absent here — they describe the
/// *representative's* planes (shared by the whole equivalence class), so
/// traced requests take the fresh path instead.
pub(crate) fn route_assignment_replay_permuted(
    n: usize,
    asg: &MulticastAssignment,
    plan: &CapturedPlan,
    scratch: &mut RouteScratch,
    timer: Option<&mut StageTimer>,
) -> Result<(), CoreError> {
    assert_eq!(asg.n(), n, "assignment size mismatch");
    check_plan_size(plan, n)?;
    scratch.ensure(n);
    let RouteScratch {
        srcs,
        delivered,
        owner,
        starts,
        class,
        ..
    } = scratch;
    let Some((input_map, output_map)) = class.maps() else {
        return Err(CoreError::Config(
            "no class maps in the scratch: probe with PlanCache::lookup_class first".into(),
        ));
    };
    *delivered = Delivery::SrcsPermuted;

    // `input_map` is a bijection, so this writes every line exactly once.
    for (&q, (i, w)) in input_map.iter().zip(asg.offsets().windows(2).enumerate()) {
        srcs[q as usize] = if w[0] == w[1] { NO_SRC } else { i as u32 };
    }
    replay_sources(plan, srcs, timer);
    check_delivery(
        asg,
        owner,
        starts,
        output_map.iter().map(|&q| srcs[q as usize]),
    )
}

/// Replays and collects the result (one `Vec` allocation for the result).
pub(crate) fn route_assignment_replay_buffered(
    n: usize,
    asg: &MulticastAssignment,
    plan: &CapturedPlan,
    scratch: &mut RouteScratch,
    trace: Option<&mut RouteTrace>,
    timer: Option<&mut StageTimer>,
) -> Result<RoutingResult, CoreError> {
    route_assignment_replay(n, asg, plan, scratch, trace, timer)?;
    Ok(scratch.to_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use brsmn_rbn::{clone_split, RbnWiring};

    #[test]
    fn entry_tag_matches_semantic() {
        use crate::payload::SemanticMsg;
        let dests = vec![2usize, 5];
        let msg = SemanticMsg::new(0, dests.clone());
        assert_eq!(entry_tag_fast(&dests, 0, 8), msg.entry_tag(0, 8));
        // After a split the semantic message holds only the in-block subset;
        // the fast path intersects on the fly.
        assert_eq!(entry_tag_fast(&dests, 0, 4), Tag::One);
        assert_eq!(entry_tag_fast(&dests, 4, 4), Tag::Zero);
        assert_eq!(entry_tag_fast(&dests, 2, 2), Tag::Zero);
        assert_eq!(entry_tag_fast(&dests, 4, 2), Tag::One);
    }

    /// A xorshift stream for the kernel tests.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Random level-entry tags, drawn from all four values.
    fn entry_tags(n: usize, next: &mut impl FnMut() -> u64) -> Vec<Tag> {
        (0..n).map(|_| TAG_OF_CODE[(next() & 3) as usize]).collect()
    }

    /// The oracle executor: every block of `size` lines through
    /// [`RbnSettings::run_block`], each line carrying the index of its
    /// entry line (a broadcast clones it), read back as `(tag, entry line)`
    /// per output.
    fn run_blocks(
        entry: &[Tag],
        table: &RbnSettings,
        size: usize,
    ) -> Result<Vec<(Tag, usize)>, SwitchError> {
        let mut lines: Vec<Line<usize>> = entry
            .iter()
            .enumerate()
            .map(|(i, &tag)| Line {
                tag,
                payload: Some(i),
            })
            .collect();
        for base in (0..entry.len()).step_by(size) {
            table.run_block(&mut lines, base, size, &mut clone_split)?;
        }
        Ok(lines
            .iter()
            .map(|l| (l.tag, l.payload.expect("every line carries its entry")))
            .collect())
    }

    /// Stages `[0, k)` of every block of `size` lines, chosen at random but
    /// legal stage by stage: a broadcast only where its inputs are (α, ε)
    /// or (ε, α) after the stages before it. Each stage's inputs come from
    /// the oracle executor, run with the later stages still parallel.
    fn legal_settings(
        entry: &[Tag],
        size: usize,
        wiring: &RbnWiring,
        next: &mut impl FnMut() -> u64,
    ) -> RbnSettings {
        let n = entry.len();
        let k = log2_exact(size) as usize;
        let mut table = RbnSettings::identity(n);
        for j in 0..k {
            let cur = run_blocks(entry, &table, size).unwrap();
            for (idx, &(u, l)) in wiring.stage(j).iter().enumerate() {
                use SwitchSetting::*;
                let pick = next() % 3;
                table.stage_mut(j)[idx] = match (cur[u as usize].0, cur[l as usize].0, pick) {
                    (Tag::Alpha, Tag::Eps, 2) => UpperBroadcast,
                    (Tag::Eps, Tag::Alpha, 2) => LowerBroadcast,
                    (_, _, 0) => Crossing,
                    _ => Parallel,
                };
            }
        }
        table
    }

    /// Runs the token kernel over a level on `table`'s codes, read back as
    /// `(tag, entry line)` per output, as the gather reads it.
    fn run_level_tokens(
        entry: &[Tag],
        table: &RbnSettings,
        k: usize,
    ) -> Result<Vec<(Tag, usize)>, SwitchError> {
        let mut tokens: Vec<u32> = entry
            .iter()
            .enumerate()
            .map(|(i, &tag)| (i as u32) << 2 | tag as u32)
            .collect();
        run_tokens(&mut tokens, &PackedStages::from_settings(table), k)?;
        Ok(tokens
            .iter()
            .map(|&t| (token_tag(t), (t >> 2) as usize))
            .collect())
    }

    #[test]
    fn token_kernel_matches_run_block_on_legal_settings() {
        let mut next = rng(0xC0FF_EE11);
        for m in 1..=10u32 {
            let n = 1usize << m;
            let wiring = RbnWiring::new(n);
            for k in 1..=m as usize {
                let size = 1usize << k;
                for _ in 0..3 {
                    let entry = entry_tags(n, &mut next);
                    let table = legal_settings(&entry, size, &wiring, &mut next);
                    let want = run_blocks(&entry, &table, size).unwrap();
                    let got = run_level_tokens(&entry, &table, k).unwrap();
                    assert_eq!(got, want, "n={n} size={size}");
                }
            }
        }
    }

    #[test]
    fn token_kernel_reports_an_illegal_broadcast_like_run_block() {
        let mut next = rng(0xBAD_B0A7);
        for (n, size) in [(4usize, 4usize), (16, 8), (64, 64), (256, 16), (256, 256)] {
            let wiring = RbnWiring::new(n);
            let k = log2_exact(size) as usize;
            for _ in 0..20 {
                let entry = entry_tags(n, &mut next);
                let mut table = legal_settings(&entry, size, &wiring, &mut next);
                // One switch turned into the broadcast its inputs forbid:
                // an upper broadcast unless the inputs are (α, ε).
                let (j, idx) = ((next() as usize) % k, (next() as usize) % (n / 2));
                let mut before = table.clone();
                for jj in j..k {
                    before.stage_mut(jj).fill(SwitchSetting::Parallel);
                }
                let cur = run_blocks(&entry, &before, size).unwrap();
                let (u, l) = wiring.stage(j)[idx];
                let found = (cur[u as usize].0, cur[l as usize].0);
                let setting = if found == (Tag::Alpha, Tag::Eps) {
                    SwitchSetting::LowerBroadcast
                } else {
                    SwitchSetting::UpperBroadcast
                };
                table.stage_mut(j)[idx] = setting;
                let want_err = run_blocks(&entry, &table, size).unwrap_err();
                assert_eq!(want_err, SwitchError { setting, found });
                assert_eq!(
                    run_level_tokens(&entry, &table, k).unwrap_err(),
                    want_err,
                    "n={n} size={size}"
                );
            }
        }
    }

    /// Turns switch `idx` of stage `j` into the broadcast its inputs forbid
    /// (an upper broadcast unless they are (α, ε)), with the inputs the
    /// stages before `j` leave it, and returns the error that broadcast
    /// raises.
    fn break_broadcast(
        entry: &[Tag],
        table: &mut RbnSettings,
        size: usize,
        (j, idx): (usize, usize),
        wiring: &RbnWiring,
    ) -> SwitchError {
        let mut before = table.clone();
        for jj in j..before.num_stages() {
            before.stage_mut(jj).fill(SwitchSetting::Parallel);
        }
        let cur = run_blocks(entry, &before, size).unwrap();
        let (u, l) = wiring.stage(j)[idx];
        let found = (cur[u as usize].0, cur[l as usize].0);
        let setting = if found == (Tag::Alpha, Tag::Eps) {
            SwitchSetting::LowerBroadcast
        } else {
            SwitchSetting::UpperBroadcast
        };
        table.stage_mut(j)[idx] = setting;
        SwitchError { setting, found }
    }

    /// Two broadcasts of one stage that break their rule, in one code word
    /// and in two: the kernel, checking word by word, reports the first,
    /// as [`RbnSettings::run_block`] does.
    #[test]
    fn token_kernel_reports_the_first_of_two_illegal_broadcasts() {
        let mut next = rng(0x2BAD_B0A7);
        let (mut one_word, mut two_words) = (0, 0);
        for (n, size) in [(128usize, 8usize), (128, 128), (256, 32), (1024, 1024)] {
            let wiring = RbnWiring::new(n);
            let k = log2_exact(size) as usize;
            let words = n / 64;
            for round in 0..24 {
                let entry = entry_tags(n, &mut next);
                let mut table = legal_settings(&entry, size, &wiring, &mut next);
                let j = (next() as usize) % k;
                let (w1, w2) = if round % 2 == 0 {
                    let w = (next() as usize) % words;
                    (w, w)
                } else {
                    let w = (next() as usize) % (words - 1);
                    (w, w + 1 + (next() as usize) % (words - 1 - w))
                };
                let first = 32 * w1 + (next() as usize) % 32;
                let second = 32 * w2 + (next() as usize) % 32;
                if first == second {
                    continue;
                }
                let (first, second) = (first.min(second), first.max(second));
                // The later broadcast first: the earlier one's inputs do
                // not depend on it (same stage).
                break_broadcast(&entry, &mut table, size, (j, second), &wiring);
                let want = break_broadcast(&entry, &mut table, size, (j, first), &wiring);
                assert_eq!(run_blocks(&entry, &table, size).unwrap_err(), want);
                assert_eq!(
                    run_level_tokens(&entry, &table, k).unwrap_err(),
                    want,
                    "n={n} size={size} stage {j}: switches {first}, {second}"
                );
                if w1 == w2 {
                    one_word += 1;
                } else {
                    two_words += 1;
                }
            }
        }
        assert!(one_word > 30 && two_words > 30, "{one_word}, {two_words}");
    }

    /// The final-stage formulas against [`final_setting`]: every one of the
    /// 16 tag pairs in every lane of full and partial words (n = 2 … 64
    /// lines), the other lanes holding random pairs that do not conflict,
    /// and above each token's tag a random entry line. A conflicting lane
    /// fails with [`final_setting`]'s error, and of two conflicting lanes
    /// the first.
    #[test]
    fn final_codes_match_final_setting_in_every_lane() {
        let mut next = rng(0xF1_4A15);
        let pairs: Vec<(Tag, Tag)> = TAG_OF_CODE
            .iter()
            .flat_map(|&u| TAG_OF_CODE.iter().map(move |&d| (u, d)))
            .collect();
        let legal: Vec<(Tag, Tag)> = pairs
            .iter()
            .copied()
            .filter(|&(u, d)| final_setting(u, d, 0).is_ok())
            .collect();
        let conflicts: Vec<(Tag, Tag)> = pairs
            .iter()
            .copied()
            .filter(|&(u, d)| final_setting(u, d, 0).is_err())
            .collect();
        assert_eq!((legal.len(), conflicts.len()), (9, 7));
        let tokens_of = |tags: &[(Tag, Tag)], next: &mut dyn FnMut() -> u64| -> Vec<u32> {
            tags.iter()
                .flat_map(|&(u, d)| [u, d])
                .map(|t| (next() as u32) << 2 | t as u32)
                .collect()
        };
        for m in 1..=6 {
            let n = 1usize << m;
            for lane in 0..n / 2 {
                for &(tu, tl) in &pairs {
                    let mut tags: Vec<(Tag, Tag)> = (0..n / 2)
                        .map(|_| legal[(next() as usize) % legal.len()])
                        .collect();
                    tags[lane] = (tu, tl);
                    let tokens = tokens_of(&tags, &mut next);
                    let lo = 64 * ((next() as usize) % 4);
                    let got = final_codes(&tokens, lo);
                    if let Err(e) = final_setting(tu, tl, lo + 2 * lane) {
                        assert_eq!(got, Err(e), "n={n} lane {lane} ({tu}, {tl})");
                        continue;
                    }
                    let codes = got.unwrap();
                    for (p, &(u, d)) in tags.iter().enumerate() {
                        let want = final_setting(u, d, lo + 2 * p).unwrap();
                        assert_eq!(
                            setting_from_code(codes >> (2 * p)),
                            want,
                            "n={n} lane {p} ({u}, {d})"
                        );
                    }
                    if n < 64 {
                        assert_eq!(codes >> n, 0, "n={n}: codes past the pairs");
                    }
                }
            }
            // Two conflicting lanes: the first one's error.
            for _ in 0..20 {
                if n < 4 {
                    break;
                }
                let mut tags: Vec<(Tag, Tag)> = (0..n / 2)
                    .map(|_| legal[(next() as usize) % legal.len()])
                    .collect();
                let a = (next() as usize) % (n / 2 - 1);
                let b = a + 1 + (next() as usize) % (n / 2 - 1 - a);
                for lane in [a, b] {
                    tags[lane] = conflicts[(next() as usize) % conflicts.len()];
                }
                let (tu, tl) = tags[a];
                assert_eq!(
                    final_codes(&tokens_of(&tags, &mut next), 0),
                    Err(final_setting(tu, tl, 2 * a).unwrap_err()),
                    "n={n} lanes {a}, {b}"
                );
            }
        }
    }

    /// Random level-entry lines: every line live with its own source and
    /// random ends and split values.
    fn entry_lines(n: usize, next: &mut impl FnMut() -> u64) -> Vec<FastLine> {
        (0..n)
            .map(|i| FastLine {
                src: i as u32,
                first: next() as u32,
                last: next() as u32,
                lo_last: next() as u32,
                hi_first: next() as u32,
            })
            .collect()
    }

    /// The gather's oracle, one block of the copied lines at a time: the
    /// Eq. (4) postcondition check on the tags, then each line narrowed to
    /// the half it landed in.
    fn leave_block(
        lines: &mut [(Tag, FastLine)],
        base: usize,
        size: usize,
    ) -> Result<(), CoreError> {
        let half = size / 2;
        for (pos, (t, line)) in lines[base..base + size].iter_mut().enumerate() {
            let t = *t;
            let ok = if pos < half {
                t != Tag::One && t != Tag::Alpha
            } else {
                t != Tag::Zero && t != Tag::Alpha
            };
            if !ok {
                return Err(CoreError::Internal(format!(
                    "BSN postcondition violated: tag {t} at output {pos} of {size}"
                )));
            }
            if pos < half {
                line.last = line.lo_last;
            } else {
                line.first = line.hi_first;
            }
        }
        Ok(())
    }

    #[test]
    fn gather_matches_copy_then_leave_block() {
        // Random tokens (any entry line, any tag) hit the postcondition
        // error now and then; mostly-legal ones pass through.
        let mut next = rng(0x6A7E_4E12);
        let (mut ok, mut failed) = (0, 0);
        for m in 2..=8u32 {
            let n = 1usize << m;
            for k in 2..=m {
                let size = 1usize << k;
                for round in 0..20 {
                    let entry = entry_lines(n, &mut next);
                    let tokens: Vec<u32> = (0..n)
                        .map(|o| {
                            let legal = if o % size < size / 2 { [0, 3] } else { [1, 3] };
                            let code = if round % 4 == 0 {
                                next() & 3
                            } else {
                                legal[(next() & 1) as usize]
                            };
                            ((next() as usize % n) as u32) << 2 | code as u32
                        })
                        .collect();
                    let mut want: Vec<(Tag, FastLine)> = tokens
                        .iter()
                        .map(|&t| (token_tag(t), entry[(t >> 2) as usize]))
                        .collect();
                    let want_res = (0..n)
                        .step_by(size)
                        .try_for_each(|base| leave_block(&mut want, base, size));
                    let mut got = vec![FastLine::EMPTY; n];
                    let got_res = gather_fast(&entry, &mut got, &tokens, size);
                    assert_eq!(
                        format!("{got_res:?}"),
                        format!("{want_res:?}"),
                        "n={n} size={size}"
                    );
                    if want_res.is_ok() {
                        ok += 1;
                        let want: Vec<FastLine> = want.into_iter().map(|(_, l)| l).collect();
                        assert_eq!(got, want, "n={n} size={size}");
                    } else {
                        failed += 1;
                    }
                }
            }
        }
        assert!(ok > 100 && failed > 20, "ok {ok}, failed {failed}");
    }

    /// The entry step on one level of lines: each line's token, and the
    /// ends of its halves (what the gather would hand an upper and a lower
    /// copy).
    fn enter_level(
        asg: &MulticastAssignment,
        lines: &mut [FastLine],
        size: usize,
    ) -> Vec<(u32, u32, u32)> {
        let mut next = vec![FastLine::EMPTY; lines.len()];
        let mut tokens = vec![0u32; lines.len()];
        FastLines {
            asg,
            lines,
            next: &mut next,
        }
        .enter(&mut tokens, size);
        tokens
            .iter()
            .zip(lines.iter())
            .map(|(&t, l)| (t, l.lo_last, l.hi_first))
            .collect()
    }

    #[test]
    fn entry_step_derives_tags_and_splits_from_the_ends() {
        let mut sets = vec![Vec::new(); 8];
        sets[0] = vec![1, 2, 6];
        sets[2] = vec![4, 5];
        sets[3] = vec![0];
        sets[7] = vec![3, 7];
        let asg = MulticastAssignment::from_sets(8, sets).unwrap();
        let mut lines = vec![FastLine::EMPTY; 8];
        init_lines(&asg, &mut lines);
        let code = |i: u32, t: Tag| i << 2 | t as u32;
        let got = enter_level(&asg, &mut lines, 8);
        // Only the α lines (0 and 7, midpoint 4) search; the others hand
        // their copies their own ends.
        assert_eq!(got[0], (code(0, Tag::Alpha), 2, 6));
        assert_eq!(got[1].0, code(1, Tag::Eps));
        assert_eq!(got[2], (code(2, Tag::One), 5, 4));
        assert_eq!(got[3], (code(3, Tag::Zero), 0, 0));
        assert_eq!(got[7], (code(7, Tag::Alpha), 3, 7));

        // Line 0's copies after a gather: the upper one ends at its
        // `lo_last`, the lower one starts at its `hi_first`.
        let mut next = vec![FastLine::EMPTY; 8];
        next[1] = FastLine {
            last: lines[0].lo_last,
            ..lines[0]
        };
        next[6] = FastLine {
            first: lines[0].hi_first,
            ..lines[0]
        };
        let got = enter_level(&asg, &mut next, 4);
        // {1, 2} splits again at midpoint 2; {6} is a 1 at midpoint 6.
        assert_eq!(got[1], (code(1, Tag::Alpha), 1, 2));
        assert_eq!(got[6], (code(6, Tag::One), 6, 6));
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, g)| i == 1 || i == 6 || g.0 & 3 == Tag::Eps as u32));
    }

    /// A payload whose entry tag is fixed, to drive the reference final
    /// switch with any tag pair.
    #[derive(Debug, Clone, PartialEq)]
    struct Fixed(Tag);

    impl RoutePayload for Fixed {
        fn source(&self) -> usize {
            0
        }
        fn entry_tag(&self, _lo: usize, _size: usize) -> Tag {
            self.0
        }
        fn split(&self, _lo: usize, _size: usize) -> (Self, Self) {
            (Fixed(Tag::Zero), Fixed(Tag::One))
        }
        fn descend(self, _branch: Tag, _lo: usize, _size: usize) -> Self {
            self
        }
        fn delivered_ok(&self, _o: usize) -> bool {
            true
        }
    }

    #[test]
    fn final_setting_matches_the_reference_final_switch() {
        for tu in TAG_OF_CODE {
            for tl in TAG_OF_CODE {
                let line = |t: Tag| Line {
                    tag: Tag::Eps,
                    payload: (t != Tag::Eps).then_some(Fixed(t)),
                };
                let mut trace = RouteTrace::new(8);
                let want =
                    crate::brsmn::final_switch(vec![line(tu), line(tl)], 6, &mut Some(&mut trace))
                        .map(|_| trace.final_settings[3]);
                assert_eq!(final_setting(tu, tl, 6), want, "({tu}, {tl})");
            }
        }
    }

    /// The search-based delivery check the owner table replaced, as the
    /// oracle: every delivered message must belong at its output, and as
    /// many outputs must be served as the assignment has connections.
    fn search_check(
        asg: &MulticastAssignment,
        delivered: &[Option<usize>],
    ) -> Result<(), CoreError> {
        let mut served = 0usize;
        for (o, src) in delivered.iter().enumerate() {
            let Some(src) = *src else { continue };
            if asg.dests(src).binary_search(&o).is_err() {
                return Err(CoreError::Internal(format!(
                    "message from input {src} misdelivered to output {o}"
                )));
            }
            served += 1;
        }
        let wanted = asg.total_connections();
        if served != wanted {
            return Err(CoreError::Internal(format!(
                "{served} of {wanted} destinations served"
            )));
        }
        Ok(())
    }

    /// [`check_delivery`] on the arena's own buffers, for a delivery of one
    /// `Option` per output.
    fn check(
        scratch: &mut RouteScratch,
        asg: &MulticastAssignment,
        delivered: &[Option<usize>],
    ) -> Result<(), CoreError> {
        let sources = delivered.iter().map(|d| d.map_or(NO_SRC, |s| s as u32));
        check_delivery(asg, &mut scratch.owner, &mut scratch.starts, sources)
    }

    /// A dense (every output claimed), sparse (about a quarter claimed) or
    /// broadcast (a few sources share all outputs) frame.
    fn frame(n: usize, shape: u64, next: &mut impl FnMut() -> u64) -> MulticastAssignment {
        let mut below = |k: usize| (next() % k as u64) as usize;
        let mut sets = vec![Vec::new(); n];
        let sources = 1 + below(3);
        for d in 0..n {
            match shape {
                0 => sets[below(n)].push(d),
                1 if below(4) == 0 => sets[below(n)].push(d),
                1 => {}
                _ => sets[below(sources) * n / 4].push(d),
            }
        }
        MulticastAssignment::from_sets(n, sets).unwrap()
    }

    /// Applies one perturbation to a delivery: swaps two served outputs,
    /// idles a served output, serves an idle output, or hands a served
    /// output to an input that does not own it. A frame without a served
    /// (or idle) output is left as it is.
    fn perturb(delivered: &mut [Option<usize>], kind: u64, next: &mut impl FnMut() -> u64) {
        let n = delivered.len();
        let mut below = |k: usize| (next() % k as u64) as usize;
        let served: Vec<usize> = (0..n).filter(|&o| delivered[o].is_some()).collect();
        let idle: Vec<usize> = (0..n).filter(|&o| delivered[o].is_none()).collect();
        match kind {
            0 if served.len() >= 2 => {
                let a = served[below(served.len())];
                let b = served[below(served.len())];
                delivered.swap(a, b);
            }
            1 if !served.is_empty() => delivered[served[below(served.len())]] = None,
            2 if !idle.is_empty() => delivered[idle[below(idle.len())]] = Some(below(n)),
            3 if !served.is_empty() => {
                let o = served[below(served.len())];
                let owner = delivered[o].unwrap();
                delivered[o] = Some((owner + 1 + below(n - 1)) % n);
            }
            _ => {}
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The owner-table check accepts exactly what the search-based
        /// check accepts, and words every rejection the same way: dense,
        /// sparse and broadcast frames at n ∈ {4, 16, 256}, the true
        /// delivery and up to three perturbations of it, on one arena.
        #[test]
        fn owner_table_check_agrees_with_the_search(
            size in 0usize..3,
            shape in 0u64..3,
            seed in proptest::prelude::any::<u64>(),
            kinds in proptest::collection::vec(0u64..4, 0..4),
        ) {
            let n = [4usize, 16, 256][size];
            let mut next = rng(seed);
            let asg = frame(n, shape, &mut next);
            let mut delivered: Vec<Option<usize>> =
                (0..n).map(|o| asg.source_of_output(o)).collect();
            let mut scratch = RouteScratch::new(n).unwrap();
            proptest::prop_assert_eq!(check(&mut scratch, &asg, &delivered), Ok(()));
            for &kind in &kinds {
                perturb(&mut delivered, kind, &mut next);
                proptest::prop_assert_eq!(
                    check(&mut scratch, &asg, &delivered),
                    search_check(&asg, &delivered),
                    "n={} shape={} kinds={:?}", n, shape, kinds
                );
            }
        }
    }

    /// One perturbation at a time: the check rejects exactly the
    /// deliveries that differ from the true one (swapping two outputs of
    /// one owner changes nothing), and every kind is rejected at every
    /// size. Only the sparse frames have an idle output to serve.
    #[test]
    fn every_perturbation_is_rejected_at_every_size() {
        let mut next = rng(0xDE11_7E57);
        for n in [4usize, 16, 256] {
            let mut scratch = RouteScratch::new(n).unwrap();
            let mut rejected = [0usize; 4];
            for shape in 0..3 {
                for round in 0..200u64 {
                    let asg = frame(n, shape, &mut next);
                    let truth: Vec<Option<usize>> =
                        (0..n).map(|o| asg.source_of_output(o)).collect();
                    let kind = round % 4;
                    let mut delivered = truth.clone();
                    perturb(&mut delivered, kind, &mut next);
                    let got = check(&mut scratch, &asg, &delivered);
                    assert_eq!(got, search_check(&asg, &delivered), "n={n} shape={shape}");
                    assert_eq!(got.is_ok(), delivered == truth, "n={n} shape={shape}");
                    rejected[kind as usize] += usize::from(got.is_err());
                }
            }
            assert!(rejected.iter().all(|&r| r > 0), "n={n}: {rejected:?}");
        }
    }

    #[test]
    fn scratch_resizes_once_per_size() {
        let mut s = RouteScratch::new(8).unwrap();
        assert_eq!(s.n(), 8);
        let fp = s.footprint_bytes();
        s.ensure(8);
        assert_eq!(s.footprint_bytes(), fp);
        s.ensure(16);
        assert_eq!(s.n(), 16);
    }

    #[test]
    fn output_sources_reads_lines() {
        let mut s = RouteScratch::new(2).unwrap();
        s.lines[0] = FastLine {
            src: 1,
            first: 0,
            last: 0,
            lo_last: 0,
            hi_first: 0,
        };
        let v: Vec<Option<usize>> = s.output_sources().collect();
        assert_eq!(v, vec![Some(1), None]);
    }
}
