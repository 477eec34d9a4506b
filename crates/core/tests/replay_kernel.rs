//! The bit-sliced replay kernel against its two oracles — the traced replay
//! (full tagged lines through the level pass, on planes loaded from the
//! plan, with the token kernel's checks) and fresh planning — for exact and
//! permuted replay, at every size from n = 2 to n = 1,024, on dense,
//! sparse, single-source and permutation frames. Below n = 64 a stage plane
//! is shorter than one packed word, most planes start mid-word, and the
//! lines fill one partial row; from n = 64 up the planes are word-aligned,
//! from n = 128 the stages of stride 64 and more exchange whole rows, and
//! from n = 512 the source ids are wider than a byte.
//!
//! Also pins the per-level clocks' bookkeeping: whatever path routes a
//! batch, `StageTimer`'s block, final-switch and switch-setting totals are
//! the per-frame closed form, one BSN per (frame, block).

use brsmn_core::{
    canonicalize, relabel_inputs, relabel_outputs, BatchPlanner, Brsmn, Engine, EngineConfig,
    EngineStats, MulticastAssignment, PlanCache, RouteScratch, StageTimer,
};
use std::sync::Arc;

const SIZES: [usize; 10] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

#[derive(Debug, Clone, Copy)]
enum Shape {
    Dense,
    Sparse,
    SingleSource,
    Permutation,
}

const SHAPES: [Shape; 4] = [
    Shape::Dense,
    Shape::Sparse,
    Shape::SingleSource,
    Shape::Permutation,
];

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }

    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

fn frame(n: usize, shape: Shape, seed: u64) -> MulticastAssignment {
    let mut rng = Rng::new(seed + n as u64);
    let mut sets = vec![Vec::new(); n];
    match shape {
        Shape::Dense => {
            for d in 0..n {
                sets[rng.below(n)].push(d);
            }
        }
        Shape::Sparse => {
            for d in 0..n {
                if rng.below(4) == 0 {
                    sets[rng.below(n)].push(d);
                }
            }
        }
        Shape::SingleSource => {
            let src = rng.below(n);
            sets[src] = (0..n).filter(|_| rng.below(3) != 0).collect();
            if sets[src].is_empty() {
                sets[src].push(rng.below(n));
            }
        }
        Shape::Permutation => {
            for (i, o) in rng.permutation(n).into_iter().enumerate() {
                sets[i].push(o);
            }
        }
    }
    MulticastAssignment::from_sets(n, sets).unwrap()
}

fn relabel(asg: &MulticastAssignment, seed: u64) -> MulticastAssignment {
    let mut rng = Rng::new(seed ^ 0xABCD);
    let n = asg.n();
    relabel_inputs(
        &relabel_outputs(asg, &rng.permutation(n)),
        &rng.permutation(n),
    )
}

#[test]
fn kernel_matches_traced_replay_and_fresh_planning() {
    for n in SIZES {
        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        for shape in SHAPES {
            for seed in 0..4u64 {
                let ctx = format!("n={n} {shape:?} seed={seed}");
                let asg = frame(n, shape, seed);
                let fresh = net.route(&asg).unwrap();
                assert!(fresh.realizes(&asg), "{ctx}");
                let (captured, plan) = net.route_capture(&asg, &mut scratch).unwrap();
                assert_eq!(captured, fresh, "{ctx}");

                // Exact replay: the kernel, the traced oracle, and the
                // allocation-free variant read back from the arena.
                let (traced, _) = net.route_replay_traced(&asg, &plan, &mut scratch).unwrap();
                assert_eq!(traced, fresh, "{ctx}: traced replay");
                let lean = net.route_replay(&asg, &plan, &mut scratch).unwrap();
                assert_eq!(lean, fresh, "{ctx}: kernel replay");
                net.route_replay_into(&asg, &plan, &mut scratch).unwrap();
                let into: Vec<Option<usize>> = scratch.output_sources().collect();
                let want: Vec<Option<usize>> = (0..n).map(|o| fresh.output_source(o)).collect();
                assert_eq!(into, want, "{ctx}: output_sources after replay");
                // A fresh route afterwards reads its own delivery back.
                net.route_into(&asg, &mut scratch).unwrap();
                assert_eq!(scratch.output_sources().collect::<Vec<_>>(), want, "{ctx}");

                // Permuted replay of a relabeling, through the canonical tier.
                let live = relabel(&asg, seed);
                let cache = PlanCache::new(2);
                cache.insert_canonical(&canonicalize(&asg), Arc::new(plan));
                let hit = cache
                    .lookup_canonical(&canonicalize(&live))
                    .expect("same class");
                let permuted = net
                    .route_replay_permuted(
                        &live,
                        &hit.plan,
                        &hit.input_map,
                        &hit.output_map,
                        &mut scratch,
                    )
                    .unwrap();
                assert_eq!(
                    permuted,
                    net.route(&live).unwrap(),
                    "{ctx}: permuted replay"
                );
                // Read through the maps, it is the stored member's traced
                // replay.
                for d in 0..n {
                    assert_eq!(
                        traced.output_source(hit.output_map[d]),
                        permuted.output_source(d).map(|i| hit.input_map[i]),
                        "{ctx}: output {d}"
                    );
                }
            }
        }
    }
}

/// `(blocks per level, final switches, switch settings)` of one frame: the
/// level-`ℓ` BSNs have size `n >> (ℓ−1)`, and each sets
/// `size · log2(size)` switches over its two RBNs.
fn per_frame_counts(n: usize) -> (Vec<u64>, u64, u64) {
    let mut blocks = Vec::new();
    let mut settings = 0u64;
    let mut size = n;
    while size > 2 {
        let b = (n / size) as u64;
        blocks.push(b);
        settings += b * (size as u64) * u64::from(size.trailing_zeros());
        size /= 2;
    }
    let finals = (n / 2) as u64;
    (blocks, finals, settings + finals)
}

fn assert_counts(timer: &StageTimer, n: usize, frames: u64, ctx: &str) {
    let (blocks, finals, settings) = per_frame_counts(n);
    let got: Vec<u64> = timer.levels.iter().map(|l| l.blocks).collect();
    let want: Vec<u64> = blocks.iter().map(|b| b * frames).collect();
    assert_eq!(got, want, "{ctx}: blocks per level");
    assert_eq!(
        timer.final_switches,
        finals * frames,
        "{ctx}: final switches"
    );
    assert_eq!(
        timer.switch_settings,
        settings * frames,
        "{ctx}: switch settings"
    );
}

/// Routes `batch` through `engine` one frame per call, merging the stats.
fn route_one_at_a_time(engine: &Engine, batch: &[MulticastAssignment]) -> EngineStats {
    let mut total = EngineStats::empty(engine.n());
    for asg in batch {
        let (result, stats) = engine.route_one(asg);
        result.unwrap();
        total.merge(&stats);
    }
    total
}

#[test]
fn stage_counts_are_per_frame_closed_form_on_every_path() {
    let n = 64;
    let net = Brsmn::new(n).unwrap();
    // Distinct frames, then relabelings of them: the cached engine misses
    // on the first half and hits the canonical tier on the second.
    let distinct: Vec<MulticastAssignment> = (0..6)
        .map(|k| frame(n, SHAPES[k % SHAPES.len()], k as u64))
        .collect();
    let mut batch = distinct.clone();
    batch.extend(
        distinct
            .iter()
            .enumerate()
            .map(|(k, a)| relabel(a, k as u64)),
    );
    let frames = batch.len() as u64;

    // Per-frame fresh planning and the SoA planner, driven directly.
    let mut scratch = RouteScratch::new(n).unwrap();
    let mut timer = StageTimer::new();
    for asg in &batch {
        net.route_into_timed(asg, &mut scratch, &mut timer).unwrap();
    }
    assert_counts(&timer, n, frames, "route_into_timed");
    assert_eq!(timer.sweep_passes, 6 * frames * (n as u64 / 2 - 1));
    let mut planner = BatchPlanner::new();
    planner.ensure(n, batch.len());
    let refs: Vec<&MulticastAssignment> = batch.iter().collect();
    let mut timer = StageTimer::new();
    planner
        .route_frames(net.wiring(), &refs, &mut timer, None)
        .unwrap();
    assert_counts(&timer, n, frames, "BatchPlanner::route_frames");

    // The engine, cold and warm: without a cache (every frame in SoA
    // chunks), with one (misses in SoA chunks, relabelings deferred to the
    // per-frame ladder), and one frame at a time through a twin engine
    // (single-frame chunks, then per-frame hits).
    let configs = [
        ("plain", EngineConfig::sequential()),
        ("cached", EngineConfig::sequential().with_plan_cache(64)),
        (
            "cached, 2 workers",
            EngineConfig::batch(2).with_plan_cache(64),
        ),
    ];
    for (name, cfg) in configs {
        let engine = Engine::with_config(n, cfg).unwrap();
        let twin = Engine::with_config(n, cfg).unwrap();
        let cold = engine.route_batch(&batch);
        assert_eq!(cold.stats.frames_ok, batch.len(), "{name}");
        assert_counts(&cold.stats.stages, n, frames, &format!("{name}, cold"));
        let one_at_a_time = route_one_at_a_time(&twin, &batch);
        assert_counts(
            &one_at_a_time.stages,
            n,
            frames,
            &format!("{name}, one at a time"),
        );
        let warm = engine.route_batch(&batch);
        assert_counts(&warm.stats.stages, n, frames, &format!("{name}, warm"));
        if cfg.plan_cache > 0 {
            for (tally, got, want) in [
                ("misses", cold.stats.plan_misses, one_at_a_time.plan_misses),
                (
                    "canonical hits",
                    cold.stats.plan_canonical_hits,
                    one_at_a_time.plan_canonical_hits,
                ),
                (
                    "exact hits",
                    cold.stats.plan_exact_hits,
                    one_at_a_time.plan_exact_hits,
                ),
            ] {
                assert_eq!(got, want, "{name}: {tally} vs one frame at a time");
            }
            assert_eq!(cold.stats.plan_misses, distinct.len() as u64, "{name}");
            assert_eq!(
                cold.stats.plan_canonical_hits,
                distinct.len() as u64,
                "{name}"
            );
            // Only misses enter the exact tier; the relabelings keep
            // riding the canonical tier.
            assert_eq!(warm.stats.plan_exact_hits, distinct.len() as u64, "{name}");
            assert_eq!(
                warm.stats.plan_canonical_hits,
                distinct.len() as u64,
                "{name}"
            );
            assert_eq!(
                warm.stats.stages.sweep_passes, 0,
                "{name}: replay plans nothing"
            );
        }
    }
}
