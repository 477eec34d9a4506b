//! Captured plans, results and settings tables pinned by a committed
//! fixture.
//!
//! `fixtures/captures_n64_n256.json` was written by the block-by-block
//! planner that preceded the level pass (each BSN block swept, executed and
//! captured on its own). It holds ten frames, five shapes at each of
//! n ∈ {64, 256} (dense, sparse, α-heavy, single broadcast, permutation),
//! and for each frame its packed [`CapturedPlan`], its routing result and
//! the settings table an untraced route leaves behind.
//!
//! The test re-plans every frame three ways (a cold [`Engine`] with a plan
//! cache, [`Brsmn::route_capture`], and [`BatchPlanner::route_frames`]) and
//! requires byte-identical plans, equal results and equal tables. A
//! comparison between two planners in the tree cannot catch a change they
//! share; this one compares against bytes the old planner wrote.
//!
//! Regenerate (only when the expected outputs deliberately change) with
//! `cargo test -p brsmn-core --test capture_fixture -- --ignored
//! write_capture_fixture`.

use brsmn_core::{
    plan_fingerprint, BatchPlanner, Brsmn, CapturedPlan, Engine, EngineConfig, MulticastAssignment,
    RouteScratch, RoutingResult, StageTimer,
};
use brsmn_rbn::RbnSettings;
use serde::{Deserialize, Serialize};

const FIXTURE: &str = "tests/fixtures/captures_n64_n256.json";

/// One pinned frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct FixtureFrame {
    n: usize,
    shape: String,
    sets: Vec<Vec<usize>>,
    plan: CapturedPlan,
    /// Source delivered to each output (`None` = idle).
    result: Vec<Option<usize>>,
    /// The settings table after an untraced route, one string of setting
    /// codes (`0` parallel … `3` lower broadcast) per stage.
    settings: Vec<String>,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Fixture {
    frames: Vec<FixtureFrame>,
}

fn table_codes(table: &RbnSettings) -> Vec<String> {
    (0..table.num_stages())
        .map(|j| {
            table
                .stage(j)
                .iter()
                .map(|s| char::from(b'0' + s.code()))
                .collect()
        })
        .collect()
}

fn result_sources(r: &RoutingResult) -> Vec<Option<usize>> {
    (0..r.n()).map(|o| r.output_source(o)).collect()
}

/// A deterministic xorshift stream (the fixture stores the frames, so the
/// generator only has to be stable while writing it).
fn rng(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The five shapes at size `n`, as destination sets.
fn shapes(n: usize, seed: u64) -> Vec<(&'static str, Vec<Vec<usize>>)> {
    let mut next = rng(seed ^ n as u64);
    let mut dense = vec![Vec::new(); n];
    for d in 0..n {
        dense[next() as usize % n].push(d);
    }
    let mut sparse = vec![Vec::new(); n];
    for d in 0..n {
        if next().is_multiple_of(3) {
            sparse[next() as usize % n].push(d);
        }
    }
    // Three spread-out sources share every output: destination sets
    // straddle both halves at every level.
    let mut alpha_heavy = vec![Vec::new(); n];
    for d in 0..n {
        alpha_heavy[(next() as usize % 3) * n / 4 + 1].push(d);
    }
    let mut broadcast = vec![Vec::new(); n];
    broadcast[next() as usize % n] = (0..n).collect();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, next() as usize % (i + 1));
    }
    let permutation = perm.iter().map(|&o| vec![o]).collect();
    vec![
        ("dense", dense),
        ("sparse", sparse),
        ("alpha-heavy", alpha_heavy),
        ("single-broadcast", broadcast),
        ("permutation", permutation),
    ]
}

/// Writes the fixture from the planner in the tree.
#[test]
#[ignore = "writes the fixture; run only to re-pin deliberate output changes"]
fn write_capture_fixture() {
    let mut frames = Vec::new();
    for n in [64usize, 256] {
        let net = Brsmn::new(n).unwrap();
        let mut scratch = RouteScratch::new(n).unwrap();
        for (shape, sets) in shapes(n, 0x5EED_F1C5) {
            let asg = MulticastAssignment::from_sets(n, sets).unwrap();
            let (result, plan) = net.route_capture(&asg, &mut scratch).unwrap();
            frames.push(FixtureFrame {
                n,
                shape: shape.to_string(),
                sets: asg.iter().map(|(_, d)| d.to_vec()).collect(),
                plan,
                result: result_sources(&result),
                settings: table_codes(scratch.settings_table()),
            });
        }
    }
    let text = serde_json::to_string(&Fixture { frames }).unwrap();
    let path = format!("{}/{FIXTURE}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(path, format!("{text}\n")).unwrap();
}

fn load() -> Vec<(FixtureFrame, MulticastAssignment)> {
    let text = include_str!("fixtures/captures_n64_n256.json");
    let fixture: Fixture = serde_json::from_str(text).unwrap();
    assert_eq!(fixture.frames.len(), 10, "five shapes at two sizes");
    fixture
        .frames
        .into_iter()
        .map(|f| {
            let asg = MulticastAssignment::from_sets(f.n, f.sets.clone()).unwrap();
            (f, asg)
        })
        .collect()
}

fn same_plan(got: &CapturedPlan, want: &CapturedPlan, how: &str, f: &FixtureFrame) {
    assert_eq!(
        serde_json::to_string(got).unwrap(),
        serde_json::to_string(want).unwrap(),
        "{how}: plan bytes differ (n={}, {})",
        f.n,
        f.shape
    );
}

#[test]
fn route_capture_reproduces_the_pinned_plans_results_and_tables() {
    for (f, asg) in load() {
        let net = Brsmn::new(f.n).unwrap();
        let mut scratch = RouteScratch::new(f.n).unwrap();
        let (result, plan) = net.route_capture(&asg, &mut scratch).unwrap();
        same_plan(&plan, &f.plan, "route_capture", &f);
        assert_eq!(result_sources(&result), f.result, "n={} {}", f.n, f.shape);
        assert_eq!(
            table_codes(scratch.settings_table()),
            f.settings,
            "n={} {}",
            f.n,
            f.shape
        );
        // An untraced route without capture leaves the same table.
        let mut fresh = RouteScratch::new(f.n).unwrap();
        net.route_into(&asg, &mut fresh).unwrap();
        assert_eq!(
            table_codes(fresh.settings_table()),
            f.settings,
            "n={} {}",
            f.n,
            f.shape
        );
        // The pinned plan replays to the pinned result.
        let replayed = net.route_replay(&asg, &f.plan, &mut scratch).unwrap();
        assert_eq!(result_sources(&replayed), f.result, "n={} {}", f.n, f.shape);
    }
}

#[test]
fn cold_engine_captures_the_pinned_plans() {
    let frames = load();
    for n in [64usize, 256] {
        let of_n: Vec<&(FixtureFrame, MulticastAssignment)> =
            frames.iter().filter(|(f, _)| f.n == n).collect();
        let batch: Vec<MulticastAssignment> = of_n.iter().map(|(_, a)| a.clone()).collect();
        let engine =
            Engine::with_config(n, EngineConfig::sequential().with_plan_cache(64)).unwrap();
        let out = engine.route_batch(&batch);
        assert_eq!(
            out.stats.plan_misses,
            batch.len() as u64,
            "every shape is its own class"
        );
        let cache = engine.plan_cache().unwrap();
        for ((f, asg), result) in of_n.iter().zip(&out.results) {
            assert_eq!(
                result_sources(result.as_ref().unwrap()),
                f.result,
                "n={n} {}",
                f.shape
            );
            let plan = cache
                .lookup(plan_fingerprint(asg), asg)
                .expect("captured on the miss");
            same_plan(&plan, &f.plan, "cold engine", f);
        }
    }
}

#[test]
fn batch_planner_captures_the_pinned_plans() {
    let frames = load();
    for n in [64usize, 256] {
        let of_n: Vec<&(FixtureFrame, MulticastAssignment)> =
            frames.iter().filter(|(f, _)| f.n == n).collect();
        let refs: Vec<&MulticastAssignment> = of_n.iter().map(|(_, a)| a).collect();
        let net = Brsmn::new(n).unwrap();
        let mut planner = BatchPlanner::new();
        planner.ensure(n, refs.len());
        let mut caps: Vec<CapturedPlan> = (0..refs.len())
            .map(|_| CapturedPlan::new(n).unwrap())
            .collect();
        let mut timer = StageTimer::new();
        planner
            .route_frames(net.wiring(), &refs, &mut timer, Some(&mut caps))
            .unwrap();
        for (k, (f, _)) in of_n.iter().enumerate() {
            same_plan(&caps[k], &f.plan, "batch planner", f);
            assert_eq!(
                result_sources(&planner.frame_result(k)),
                f.result,
                "n={n} {}",
                f.shape
            );
        }
    }
}
