//! SoA batch-parallel planning: route up to [`MAX_BATCH_FRAMES`] same-`n`
//! frames with every plane sweep advanced in lockstep.
//!
//! Cold planning is the dominant cost of any workload the plan cache can't
//! absorb: warm replay skips the sweeps entirely and runs ~2.25x faster
//! than fresh planning. This module attacks the cold path itself. A batch
//! of frames at the same `n` executes the *identical* sweep schedule —
//! levels, blocks, tree nodes and word boundaries are functions of `n`
//! alone — so [`BatchPlanner`] transposes the frames into the
//! structure-of-arrays layout of [`brsmn_rbn::BatchSweep`] and advances one
//! `(level, block)` at a time for *all* frames: derive every frame's entry
//! tags into the SoA planes, check the Eq. (2) capacity constraint for all
//! frames from one word-major pass, plan the scatter and the fused
//! quasisort for all frames in lockstep, then execute each frame's block on
//! its own line buffer. Each frame keeps its own [`RbnSettings`] table and
//! (optionally) its own [`CapturedPlan`], so results, switch settings and
//! captured planes are **bit-for-bit** what the per-frame scalar fast path
//! produces — `crates/bench/tests/simd_equivalence.rs` pins this.
//!
//! Like [`RouteScratch`](crate::fastpath::RouteScratch), the planner is an
//! arena: sized once per `(n, frames)` shape, zero heap allocation per
//! batch thereafter (pinned by the `alloc-count` test in `brsmn-bench`).
//!
//! Error handling is all-or-nothing by design: if any frame fails (capacity
//! overflow, planner error, postcondition violation), the whole batch
//! returns that error and the caller re-routes every frame through the
//! scalar path — per-frame error values then stay byte-identical to
//! single-frame routing, at scalar cost only for the rare failing batch.

use std::cell::RefCell;
use std::time::Instant;

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::engine::StageTimer;
use crate::error::CoreError;
use crate::fastpath::{
    final_switch_fast, init_lines, leave_block, run_block_fast, verify_delivery, FastLine,
    NO_SRC,
};
use crate::fastpath::entry_tag_line;
use crate::plancache::{CapturedPlan, PHASE_QUASISORT, PHASE_SCATTER};
use brsmn_rbn::{BatchSweep, RbnSettings, RbnWiring};
use brsmn_switch::tag::TagCounts;
use brsmn_switch::Tag;

pub use brsmn_rbn::MAX_BATCH_FRAMES;

/// Reusable SoA batch-routing arena: per-frame line buffers (frame-major),
/// the lockstep [`BatchSweep`], one settings table per frame slot, and the
/// shared counts scratch.
#[derive(Debug, Clone, Default)]
pub struct BatchPlanner {
    n: usize,
    frame_capacity: usize,
    /// Frame-major line buffers: frame `f` owns `lines[f·n .. (f+1)·n]`.
    lines: Vec<FastLine>,
    sweep: BatchSweep,
    settings: Vec<RbnSettings>,
    counts: Vec<TagCounts>,
}

impl BatchPlanner {
    /// An unsized arena; buffers grow on first use.
    pub fn new() -> Self {
        BatchPlanner::default()
    }

    /// The network size this arena is currently sized for (`0` if unused).
    pub fn n(&self) -> usize {
        self.n
    }

    /// (Re)sizes the arena for `frames` frames of an `n × n` network. A
    /// no-op when the current shape already fits — the warm-up allocation
    /// happens once per shape.
    pub fn ensure(&mut self, n: usize, frames: usize) {
        let frames = frames.min(MAX_BATCH_FRAMES).max(1);
        if self.n != n {
            self.n = n;
            self.frame_capacity = 0;
            self.lines.clear();
            self.settings.clear();
        }
        if self.frame_capacity < frames {
            self.lines.resize(frames * n, FastLine::EMPTY);
            while self.settings.len() < frames {
                self.settings.push(RbnSettings::identity(n));
            }
            if self.counts.len() < frames {
                self.counts.resize(frames, TagCounts::default());
            }
            self.frame_capacity = frames;
        }
    }

    /// Approximate heap bytes currently reserved by the arena.
    pub fn footprint_bytes(&self) -> usize {
        let settings_bytes: usize = self
            .settings
            .first()
            .map(|s| {
                (0..s.num_stages())
                    .map(|j| s.stage(j).len() * std::mem::size_of::<brsmn_switch::SwitchSetting>())
                    .sum::<usize>()
                    * self.settings.len()
            })
            .unwrap_or(0);
        self.lines.capacity() * std::mem::size_of::<FastLine>()
            + self.sweep.footprint_bytes()
            + settings_bytes
            + self.counts.capacity() * std::mem::size_of::<TagCounts>()
    }

    /// The delivered sources of frame slot `f` after a successful
    /// [`BatchPlanner::route_frames`], as a fresh [`RoutingResult`].
    pub fn frame_result(&self, f: usize) -> RoutingResult {
        let lines = &self.lines[f * self.n..(f + 1) * self.n];
        RoutingResult::new(
            lines
                .iter()
                .map(|l| {
                    if l.src == NO_SRC {
                        None
                    } else {
                        Some(l.src as usize)
                    }
                })
                .collect(),
        )
    }

    /// [`BatchPlanner::frame_result`] without the allocation: the delivered
    /// source of each output line of frame slot `f`, straight out of the
    /// arena. The `alloc-count` test in `brsmn-bench` pins that reading a
    /// routed batch this way is heap-silent.
    pub fn frame_delivery(&self, f: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        self.lines[f * self.n..(f + 1) * self.n].iter().map(|l| {
            if l.src == NO_SRC {
                None
            } else {
                Some(l.src as usize)
            }
        })
    }

    /// Routes `asgs` end to end with lockstep SoA planning (all frames must
    /// share the arena's `n`). On success the delivered lines of frame `f`
    /// are readable via [`BatchPlanner::frame_result`], and `captures[f]`
    /// (when given) holds frame `f`'s complete captured plan. `timer`
    /// receives the counts the scalar path would produce for every frame,
    /// with one clock pair per level and one for the final stage covering
    /// all frames.
    ///
    /// On the first frame error the whole call aborts with that error; the
    /// caller falls back to scalar routing for every frame of the batch.
    pub fn route_frames(
        &mut self,
        wiring: &RbnWiring,
        asgs: &[&MulticastAssignment],
        timer: &mut StageTimer,
        mut captures: Option<&mut [CapturedPlan]>,
    ) -> Result<(), CoreError> {
        let fr = asgs.len();
        assert!(fr >= 1 && fr <= MAX_BATCH_FRAMES, "batch of {fr} frames");
        let n = self.n;
        assert!(n > 0, "ensure() the arena before routing");
        if let Some(caps) = captures.as_deref_mut() {
            assert!(caps.len() >= fr, "one capture slot per frame");
        }
        for asg in asgs {
            assert_eq!(asg.n(), n, "assignment size mismatch");
        }

        let BatchPlanner {
            lines,
            sweep,
            settings,
            counts,
            ..
        } = self;

        for (f, asg) in asgs.iter().enumerate() {
            init_lines(asg, &mut lines[f * n..(f + 1) * n]);
        }

        // Levels 1 … m−1: BSNs of halving size, blocks left to right, every
        // frame advanced through a block before any frame enters the next —
        // the lockstep transpose of the scalar level loop.
        let mut size = n;
        let mut level = 1;
        while size > 2 {
            let t0 = Instant::now();
            for b in 0..n / size {
                let base = b * size;
                let mid = base + size / 2;
                sweep.begin(fr, size);

                // Entry tags fused with the SoA tag packing, all frames in
                // one call (one profiler clock pair per block).
                sweep.load_frames(|f, i| {
                    let line = &mut lines[f * n + base + i];
                    if line.src == NO_SRC {
                        line.tag = Tag::Eps;
                    } else {
                        entry_tag_line(&asgs[f], line, mid);
                    }
                    line.tag
                });

                // Eq. (2) capacity check for all frames from one pass.
                sweep.counts_all(counts);
                for c in counts[..fr].iter() {
                    if !c.satisfies_bsn_input_constraints() {
                        return Err(CoreError::HalfCapacityExceeded {
                            n: size,
                            n0: c.n0,
                            n1: c.n1,
                            na: c.na,
                        });
                    }
                }

                // Scatter: one lockstep plan, then per-frame capture + run.
                sweep.plan_scatter_all(0, base, settings);
                for f in 0..fr {
                    if let Some(caps) = captures.as_deref_mut() {
                        caps[f].store_phase(level, PHASE_SCATTER, base, size, &settings[f]);
                    }
                    run_block_fast(&mut lines[f * n..(f + 1) * n], base, size, &settings[f], wiring)?;
                }

                // Quasisort: reload post-scatter tags, fused lockstep plan,
                // per-frame capture + run + postcondition.
                sweep.load_frames_codes(|f, i| lines[f * n + base + i].tag as u8);
                sweep
                    .plan_quasisort_fused_all(base, settings)
                    .map_err(|(_f, e)| CoreError::from(e))?;
                for f in 0..fr {
                    if let Some(caps) = captures.as_deref_mut() {
                        caps[f].store_phase(level, PHASE_QUASISORT, base, size, &settings[f]);
                    }
                    run_block_fast(&mut lines[f * n..(f + 1) * n], base, size, &settings[f], wiring)?;
                    leave_block(&mut lines[f * n..(f + 1) * n], base, size)?;
                }
            }
            // One clock pair per level for the whole chunk; the block count
            // is what the scalar path records, one BSN per (frame, block).
            timer.record_bsns(level, size, (fr * (n / size)) as u64, t0.elapsed());
            size /= 2;
            level += 1;
        }

        // Final level: n/2 plain 2×2 switches per frame, one clock pair for
        // the whole chunk's final stage.
        let t0 = Instant::now();
        for (f, asg) in asgs.iter().enumerate() {
            let frame_lines = &mut lines[f * n..(f + 1) * n];
            for lo in (0..n).step_by(2) {
                let setting = final_switch_fast(asg, frame_lines, lo, &mut None)?;
                if let Some(caps) = captures.as_deref_mut() {
                    caps[f].set_final(lo / 2, setting);
                }
            }
        }
        timer.record_final_stage((fr * n / 2) as u64, t0.elapsed());
        for (f, asg) in asgs.iter().enumerate() {
            verify_delivery(asg, lines[f * n..(f + 1) * n].iter().map(|l| l.src))?;
        }

        // Drain the lockstep sweep's per-op profile into the batch timer.
        timer.plan_profile.merge(&sweep.take_profile());
        Ok(())
    }
}

thread_local! {
    static TLS_BATCH: RefCell<BatchPlanner> = RefCell::new(BatchPlanner::new());
}

/// Runs `f` with this thread's [`BatchPlanner`], sized for `frames` frames
/// of an `n × n` network. The arena persists for the life of the thread —
/// each engine worker reuses its SoA buffers across batches.
pub fn with_thread_batch_planner<R>(
    n: usize,
    frames: usize,
    f: impl FnOnce(&mut BatchPlanner) -> R,
) -> R {
    TLS_BATCH.with(|s| {
        let mut s = s.borrow_mut();
        s.ensure(n, frames);
        f(&mut s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brsmn::Brsmn;

    fn dense_frames(n: usize, count: usize, seed: u64) -> Vec<MulticastAssignment> {
        let mut state = seed;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let mut sets = vec![Vec::new(); n];
                // Assign each output to a random input (full load; dests
                // stay sorted because d is ascending).
                for d in 0..n {
                    sets[rng() as usize % n].push(d);
                }
                MulticastAssignment::from_sets(n, sets).unwrap()
            })
            .collect()
    }

    #[test]
    fn batch_routing_matches_scalar_per_frame() {
        for n in [8usize, 16, 64] {
            let net = Brsmn::new(n).unwrap();
            let frames = dense_frames(n, 9, 0x1234_5678 + n as u64);
            let refs: Vec<&MulticastAssignment> = frames.iter().collect();
            let mut planner = BatchPlanner::new();
            planner.ensure(n, frames.len());
            let mut timer = StageTimer::new();
            planner
                .route_frames(net.wiring(), &refs, &mut timer, None)
                .unwrap();
            for (f, asg) in frames.iter().enumerate() {
                assert_eq!(planner.frame_result(f), net.route(asg).unwrap(), "n={n} f={f}");
            }
        }
    }

    #[test]
    fn batch_captures_replay_bit_identically() {
        let n = 16;
        let net = Brsmn::new(n).unwrap();
        let frames = dense_frames(n, 5, 0xBEEF);
        let refs: Vec<&MulticastAssignment> = frames.iter().collect();
        let mut planner = BatchPlanner::new();
        planner.ensure(n, frames.len());
        let mut captures: Vec<CapturedPlan> = (0..frames.len())
            .map(|_| CapturedPlan::new(n).unwrap())
            .collect();
        let mut timer = StageTimer::new();
        planner
            .route_frames(net.wiring(), &refs, &mut timer, Some(&mut captures))
            .unwrap();
        crate::fastpath::with_thread_scratch(n, |scratch| {
            for (f, asg) in frames.iter().enumerate() {
                // The captured plan must equal a scalar capture of the same
                // frame and replay to the same result.
                let (scalar_res, scalar_plan) = net.route_capture(asg, scratch).unwrap();
                assert_eq!(captures[f], scalar_plan, "f={f}");
                let replayed = net.route_replay(asg, &captures[f], scratch).unwrap();
                assert_eq!(replayed, scalar_res, "f={f}");
            }
        });
    }

    #[test]
    fn arena_reuses_buffers_across_shapes() {
        let mut planner = BatchPlanner::new();
        planner.ensure(16, 8);
        let fp = planner.footprint_bytes();
        planner.ensure(16, 4);
        assert_eq!(planner.footprint_bytes(), fp, "smaller batch reuses");
        planner.ensure(16, 8);
        assert_eq!(planner.footprint_bytes(), fp, "same shape is a no-op");
    }
}
