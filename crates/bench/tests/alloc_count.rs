//! Pins the zero-allocation invariant of the routing fast path: after one
//! warm-up frame at a given size, `Brsmn::route_into` performs **zero** heap
//! allocations per frame, measured by a counting global allocator.
//!
//! Gated behind the `alloc-count` feature because a global allocator is
//! process-wide state no other test should inherit:
//!
//! ```text
//! cargo test -q -p brsmn-bench --features alloc-count --test alloc_count
//! ```
//!
//! The count is process-wide, and the harness runs tests on parallel
//! threads, so every test holds [`one_at_a_time`]'s lock for its whole body:
//! no test body is charged another's allocations. The lock does not cover
//! the harness itself: its own threads (a finished test's reporting, the
//! main thread starting the next test) allocate while a test measures. In
//! release builds such a stray allocation lands in a measured window often
//! enough to fail a run, so a release run takes one test thread, as CI
//! runs it:
//!
//! ```text
//! cargo test -q --release -p brsmn-bench --features alloc-count --test alloc_count -- --test-threads=1
//! ```
#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use brsmn_bench::dense_batch;
use brsmn_core::{
    canonicalize, plan_fingerprint, relabel_inputs, relabel_outputs, BatchPlanner, Brsmn, Engine,
    EngineConfig, MulticastAssignment, PlanCache, RouteScratch, StageTimer,
};
use std::sync::Arc;

/// Wraps the system allocator, counting every allocation and reallocation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests of this binary. A test that fails while holding
/// the lock poisons it; the guarded value is `()`, so later tests take the
/// guard anyway and report their own result.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn fast_path_steady_state_allocates_nothing() {
    let _serial = one_at_a_time();
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, 8, 3);
    let mut scratch = RouteScratch::new(n).unwrap();

    // Warm up: the arena takes its one-time allocations for this size, and
    // every frame shape in the batch is exercised once.
    for asg in &batch {
        net.route_into(asg, &mut scratch).unwrap();
    }

    // Steady state: many frames, zero heap traffic — reading the delivery
    // out of the arena included.
    let mut delivered = 0usize;
    let before = allocs();
    for _ in 0..10 {
        for asg in &batch {
            net.route_into(asg, &mut scratch).unwrap();
            delivered += scratch.output_sources().flatten().count();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "fast path allocated in steady state at n={n}"
    );
    assert!(delivered > 0, "workload delivered nothing");
}

#[test]
fn warm_plan_cache_hit_allocates_nothing() {
    let _serial = one_at_a_time();
    // A warm hit is the engine's steady state for repeated frames:
    // fingerprint the assignment, look the plan up, replay it into the
    // arena. All three must be heap-silent at n = 256.
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, 8, 3);
    let mut scratch = RouteScratch::new(n).unwrap();

    let cache = PlanCache::new(64);
    for asg in &batch {
        let (_, plan) = net.route_capture(asg, &mut scratch).unwrap();
        cache.insert(plan_fingerprint(asg), asg, Arc::new(plan));
    }
    // The cache's residency is real, accounted memory — the plan-arena
    // analogue of the engine's `scratch_bytes`.
    assert!(cache.footprint_bytes() > 0, "warm cache reports no footprint");

    // Warm up the replay path once per frame shape.
    for asg in &batch {
        let plan = cache.lookup(plan_fingerprint(asg), asg).unwrap();
        net.route_replay_into(asg, &plan, &mut scratch).unwrap();
    }

    let mut delivered = 0usize;
    let before = allocs();
    for _ in 0..10 {
        for asg in &batch {
            let plan = cache
                .lookup(plan_fingerprint(asg), asg)
                .expect("warmed cache hits");
            net.route_replay_into(asg, &plan, &mut scratch).unwrap();
            delivered += scratch.output_sources().flatten().count();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warm plan-cache hit allocated in steady state at n={n}"
    );
    assert!(delivered > 0, "workload delivered nothing");
}

#[test]
fn warm_canonical_hit_allocates_nothing() {
    let _serial = one_at_a_time();
    // A canonical hit is the engine's steady state for relabeled frames:
    // the exact probe misses, the class probe counts the fanout profile and
    // writes the composed maps into the arena, and the permuted replay runs
    // from them. Heap-silent at n = 256 on dense frames and on single-source
    // frames of fanout 17.
    let n = 256;
    let net = Brsmn::new(n).unwrap();
    let mut scratch = RouteScratch::new(n).unwrap();
    let single: Vec<MulticastAssignment> = (0..8)
        .map(|k| {
            let mut sets = vec![Vec::new(); n];
            sets[k * 31 % n] = (0..17).map(|j| (j * 15 + k) % n).collect();
            MulticastAssignment::from_sets(n, sets).unwrap()
        })
        .collect();
    let rotate = |k: usize| -> Vec<usize> { (0..n).map(|i| (i + k) % n).collect() };
    for (shape, frames) in [("dense", dense_batch(n, 8, 3)), ("single-source", single)] {
        let cache = PlanCache::new(64);
        for asg in &frames {
            let (_, plan) = net.route_capture(asg, &mut scratch).unwrap();
            let plan = Arc::new(plan);
            cache.insert(plan_fingerprint(asg), asg, Arc::clone(&plan));
            cache.insert_canonical(&canonicalize(asg), plan);
        }
        // Other members of the same classes: every one misses the exact
        // tier and hits its class.
        let live: Vec<MulticastAssignment> = frames
            .iter()
            .map(|a| relabel_inputs(&relabel_outputs(a, &rotate(5)), &rotate(3)))
            .collect();
        let hit = |asg: &MulticastAssignment, scratch: &mut RouteScratch| {
            assert!(cache.lookup(plan_fingerprint(asg), asg).is_none());
            let plan = cache.lookup_class(asg, scratch).expect("warmed class hits");
            net.route_replay_permuted_into(asg, &plan, scratch).unwrap();
        };
        for asg in &live {
            hit(asg, &mut scratch);
        }

        let mut delivered = 0usize;
        let before = allocs();
        for _ in 0..10 {
            for asg in &live {
                hit(asg, &mut scratch);
                delivered += scratch.output_sources().flatten().count();
            }
        }
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "warm canonical hit allocated in steady state at n={n} ({shape})"
        );
        assert!(delivered > 0, "workload delivered nothing ({shape})");
        assert_eq!(cache.stats().canonical_hits, 11 * live.len() as u64);
    }
}

#[test]
fn batch_planner_steady_state_allocates_nothing() {
    let _serial = one_at_a_time();
    // The batch planner shares the invariant of the per-frame fast path:
    // after one warm-up batch at a fixed (n, frames) shape, planning and
    // executing a whole batch — and reading every delivery out of the
    // arena — is heap-silent. (StageTimer is warmed too: its per-level rows
    // are sized on its first record.)
    let n = 256;
    let frames = 8;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, frames, 3);
    let refs: Vec<&MulticastAssignment> = batch.iter().collect();
    let mut planner = BatchPlanner::new();
    planner.ensure(n, frames);
    let mut timer = StageTimer::new();

    // Warm up: the sweep planes, line and token buffers and the delivered
    // source ids take their one-time allocations for this shape.
    planner
        .route_frames(net.wiring(), &refs, &mut timer, None)
        .unwrap();
    assert!(planner.footprint_bytes() > 0, "arena reports no footprint");

    let mut delivered = 0usize;
    let before = allocs();
    for _ in 0..10 {
        planner
            .route_frames(net.wiring(), &refs, &mut timer, None)
            .unwrap();
        for f in 0..frames {
            delivered += planner.frame_delivery(f).flatten().count();
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "batch planner allocated in steady state at n={n}, frames={frames}"
    );
    assert!(delivered > 0, "workload delivered nothing");
}

#[test]
fn profiled_paths_stay_heap_silent() {
    let _serial = one_at_a_time();
    // The per-op planning profiler must be free in steady state, frame by
    // frame and through the batch planner: op tallies are plain adds on arena
    // state, and the ProfClock reads compile to constants without the
    // `plan-profile` feature. CI runs this suite with the feature both off
    // and on (`--features alloc-count` and `--features
    // alloc-count,plan-profile`); the assertion is identical.
    let n = 256;
    let frames = 8;
    let net = Brsmn::new(n).unwrap();
    let batch = dense_batch(n, frames, 3);
    let refs: Vec<&MulticastAssignment> = batch.iter().collect();
    let mut scratch = RouteScratch::new(n).unwrap();
    let mut planner = BatchPlanner::new();
    planner.ensure(n, frames);
    let mut timer = StageTimer::new();

    // Warm up both paths with the timer attached (its level rows take
    // their one-time allocations here).
    for asg in &batch {
        net.route_into_timed(asg, &mut scratch, &mut timer).unwrap();
    }
    planner
        .route_frames(net.wiring(), &refs, &mut timer, None)
        .unwrap();
    assert!(
        timer.plan_profile.total_ops() > 0,
        "profiler recorded no planning ops"
    );

    let before = allocs();
    for _ in 0..10 {
        for asg in &batch {
            net.route_into_timed(asg, &mut scratch, &mut timer).unwrap();
        }
        planner
            .route_frames(net.wiring(), &refs, &mut timer, None)
            .unwrap();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "profiled carried-rank paths allocated in steady state at n={n}"
    );
}

#[test]
fn warm_engine_batch_allocates_a_few_times_per_frame() {
    let _serial = one_at_a_time();
    // The engine's one dispatch path on warm traffic: 64 frames at
    // n = 256, half of them relabelings, so the batch is half exact and
    // half canonical hits. What may allocate is per frame (its result and
    // its stage timer's level rows, sized once) plus a handful per batch;
    // parking maps or results in per-frame buffers would break the bound.
    let n = 256;
    let distinct = dense_batch(n, 32, 11);
    let rotate = |k: usize| -> Vec<usize> { (0..n).map(|i| (i + k) % n).collect() };
    let mut batch = distinct.clone();
    batch.extend(
        distinct
            .iter()
            .map(|a| relabel_inputs(&relabel_outputs(a, &rotate(5)), &rotate(3))),
    );
    let engine = Engine::with_config(n, EngineConfig::batch(1).with_plan_cache(256)).unwrap();
    // Cold pass: captures every class; a second pass warms the arenas on
    // the hit path.
    for _ in 0..2 {
        assert!(engine.route_batch(&batch).results.iter().all(|r| r.is_ok()));
    }

    let before = allocs();
    let out = engine.route_batch(&batch);
    let spent = allocs() - before;
    assert_eq!(out.stats.plan_exact_hits, 32);
    assert_eq!(out.stats.plan_canonical_hits, 32);
    let frames = batch.len() as u64;
    assert!(
        spent <= 3 * frames,
        "a warm 64-frame batch allocated {spent} times (bound {})",
        3 * frames
    );
    drop(out);
}

#[test]
fn reference_path_allocates_per_frame() {
    let _serial = one_at_a_time();
    // Sanity check that the counter works at all: the PR-1 reference router
    // allocates heavily on every frame.
    let n = 64;
    let net = Brsmn::new(n).unwrap();
    let asg = &dense_batch(n, 1, 5)[0];
    net.route_reference(asg).unwrap();
    let before = allocs();
    net.route_reference(asg).unwrap();
    assert!(allocs() > before, "counting allocator saw no allocations");
}
