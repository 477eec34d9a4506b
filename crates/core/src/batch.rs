//! Batch planning: route up to [`MAX_BATCH_FRAMES`] same-`n` frames that
//! missed the plan cache, capturing a plan per frame.
//!
//! There is one fresh-planning path, the fast path's level pass (every
//! block of a BSN level swept, run and captured at once; see
//! [`crate::fastpath`]), and [`BatchPlanner`] runs it frame after frame on
//! one working set. What the planner adds is the batch's bookkeeping: one
//! [`RouteScratch`] sized once per `n`, each frame slot's delivered source
//! ids (a `u32` per output) kept for [`BatchPlanner::frame_result`], and a
//! capture per frame. A frame's results, switch settings and captured
//! planes are exactly what [`Brsmn::route_capture`](crate::Brsmn::route_capture)
//! produces for it — `crates/core/tests/capture_fixture.rs` pins both
//! against the same committed bytes.
//!
//! Like [`RouteScratch`], the planner is an arena: sized once per
//! `(n, frames)` shape, zero heap allocation per batch thereafter (pinned
//! by the `alloc-count` test in `brsmn-bench`).
//!
//! Error handling is all-or-nothing: the first frame that fails aborts the
//! batch with that error, and the caller re-routes the frames one at a time
//! (the engine's `plan_chunk` does), so each frame gets its own result or
//! error value.

use std::cell::RefCell;

use crate::assignment::{MulticastAssignment, RoutingResult};
use crate::engine::StageTimer;
use crate::error::CoreError;
use crate::fastpath::{route_assignment_fast, RouteScratch, NO_SRC};
use crate::plancache::CapturedPlan;
use brsmn_rbn::RbnWiring;

/// The most frames one [`BatchPlanner`] call routes. It bounds the
/// delivered-source buffer to one known shape per `n`.
pub const MAX_BATCH_FRAMES: usize = 64;

/// Reusable batch-routing arena: one frame's working set, reused frame
/// after frame, and the delivered source ids of every frame slot.
#[derive(Debug, Clone, Default)]
pub struct BatchPlanner {
    n: usize,
    frame_capacity: usize,
    scratch: RouteScratch,
    /// Frame-major delivered sources: slot `f` owns
    /// `delivered[f·n .. (f+1)·n]`, [`NO_SRC`] for an idle output.
    delivered: Vec<u32>,
}

impl BatchPlanner {
    /// An unsized arena; buffers grow on first use.
    pub fn new() -> Self {
        BatchPlanner::default()
    }

    /// (Re)sizes the arena for `frames` frames of an `n × n` network. A
    /// no-op when the current shape already fits — the warm-up allocation
    /// happens once per shape.
    pub fn ensure(&mut self, n: usize, frames: usize) {
        let frames = frames.clamp(1, MAX_BATCH_FRAMES);
        if self.n != n {
            self.n = n;
            self.frame_capacity = 0;
            self.delivered.clear();
            self.scratch.ensure(n);
        }
        if self.frame_capacity < frames {
            self.delivered.resize(frames * n, NO_SRC);
            self.frame_capacity = frames;
        }
    }

    /// Approximate heap bytes currently reserved by the arena.
    pub fn footprint_bytes(&self) -> usize {
        self.scratch.footprint_bytes() + self.delivered.capacity() * std::mem::size_of::<u32>()
    }

    /// The delivered sources of frame slot `f` after a successful
    /// [`BatchPlanner::route_frames`], as a fresh [`RoutingResult`].
    pub fn frame_result(&self, f: usize) -> RoutingResult {
        RoutingResult::new(self.frame_delivery(f).collect())
    }

    /// [`BatchPlanner::frame_result`] without the allocation: the delivered
    /// source of each output line of frame slot `f`, straight out of the
    /// arena. The `alloc-count` test in `brsmn-bench` pins that reading a
    /// routed batch this way is heap-silent.
    pub fn frame_delivery(&self, f: usize) -> impl Iterator<Item = Option<usize>> + '_ {
        self.delivered[f * self.n..(f + 1) * self.n]
            .iter()
            .map(|&src| (src != NO_SRC).then_some(src as usize))
    }

    /// Routes `asgs` end to end, one frame after another through the level
    /// pass (all frames must share the arena's `n`, and `wiring` must be
    /// the network's). On success the delivery of frame `f` is readable via
    /// [`BatchPlanner::frame_result`], and `captures[f]` (when given) holds
    /// frame `f`'s complete captured plan. `timer` receives what routing
    /// each frame alone records: one clock pair per level and one for the
    /// final stage, per frame.
    ///
    /// On the first frame error the whole call aborts with that error; the
    /// caller re-routes the batch's frames one at a time.
    pub fn route_frames(
        &mut self,
        wiring: &RbnWiring,
        asgs: &[&MulticastAssignment],
        timer: &mut StageTimer,
        mut captures: Option<&mut [CapturedPlan]>,
    ) -> Result<(), CoreError> {
        let fr = asgs.len();
        assert!((1..=MAX_BATCH_FRAMES).contains(&fr), "batch of {fr} frames");
        let n = self.n;
        assert!(
            n > 0 && fr <= self.frame_capacity,
            "ensure() the arena before routing"
        );
        assert_eq!(wiring.n(), n, "wiring size mismatch");
        if let Some(caps) = captures.as_deref_mut() {
            assert!(caps.len() >= fr, "one capture slot per frame");
        }
        for (f, asg) in asgs.iter().enumerate() {
            let capture = captures.as_deref_mut().map(|caps| &mut caps[f]);
            route_assignment_fast(n, asg, &mut self.scratch, None, Some(timer), capture)?;
            let slot = &mut self.delivered[f * n..(f + 1) * n];
            for (d, src) in slot.iter_mut().zip(self.scratch.output_sources()) {
                *d = src.map_or(NO_SRC, |s| s as u32);
            }
        }
        Ok(())
    }
}

thread_local! {
    static TLS_BATCH: RefCell<BatchPlanner> = RefCell::new(BatchPlanner::new());
}

/// Runs `f` with this thread's [`BatchPlanner`], sized for `frames` frames
/// of an `n × n` network. The arena persists for the life of the thread —
/// each engine worker reuses its buffers across batches.
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
