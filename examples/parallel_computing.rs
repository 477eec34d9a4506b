//! Domain scenario from the paper's introduction: hardware multicast for
//! parallel computing — row broadcasts in block matrix multiplication,
//! barrier-release broadcast, and replicated-database updates, all on one
//! 256-endpoint fabric.
//!
//! Run: `cargo run --example parallel_computing`

use brsmn::core::{Brsmn, Engine, EngineConfig, FeedbackBrsmn};
use brsmn::workloads::{
    barrier_broadcast, matrix_row_broadcast, random_multicast, replica_update, ring_shift,
    RandomSpec,
};

fn main() {
    let n = 256usize;
    let net = Brsmn::new(n).unwrap();
    let feedback = FeedbackBrsmn::new(n).unwrap();

    // Matrix multiplication (SUMMA-style): each row's diagonal holder
    // broadcasts its A-block along the 16-processor row.
    let mm = matrix_row_broadcast(16);
    let r = net.route(&mm).unwrap();
    assert!(r.realizes(&mm));
    println!(
        "matrix row broadcast (16×16 grid): {} broadcasts × fanout {} — routed ✓",
        mm.active_inputs(),
        mm.max_fanout()
    );

    // Barrier synchronization: the root wakes all 256 processors at once.
    let barrier = barrier_broadcast(n, 0);
    let r = net.route(&barrier).unwrap();
    assert!(r.realizes(&barrier));
    println!("barrier release broadcast: 1 → {n} — routed ✓");

    // Replicated database: 8 primaries push updates to disjoint replica sets.
    let db = replica_update(n, 8);
    let (r, stats) = feedback.route(&db).unwrap();
    assert!(r.realizes(&db));
    println!(
        "replicated-DB update via the FEEDBACK network: 8 primaries, {} replicas, \
         {} passes over {} switches — routed ✓",
        db.total_connections(),
        stats.passes,
        stats.physical_switches
    );

    // FFT-style data exchange: unicast ring shifts (multicast networks
    // subsume permutation networks).
    for k in [1usize, 64, 255] {
        let shift = ring_shift(n, k);
        let r = net.route(&shift).unwrap();
        assert!(r.realizes(&shift));
    }
    println!("ring shifts k ∈ {{1, 64, 255}} (permutation traffic) — routed ✓");

    // Sustained traffic: a parallel machine does not route one assignment
    // and stop — communication phases arrive back to back. The batched
    // engine spreads independent frames across a worker pool, bit-identical
    // to the sequential router, with per-stage instrumentation.
    let frames: Vec<_> = (0..64)
        .map(|f| random_multicast(RandomSpec::dense(n), 100 + f))
        .collect();
    let engine = Engine::with_config(n, EngineConfig::batch(4)).unwrap();
    let out = engine.route_batch(&frames);
    assert_eq!(out.stats.frames_ok, 64);
    for (asg, r) in frames.iter().zip(&out.results) {
        assert!(r.as_ref().unwrap().realizes(asg));
    }
    println!(
        "batched engine: {} frames on {} worker(s) — {:.0} frames/s, \
         {} switch settings, {} planner sweeps — routed ✓",
        out.stats.batch,
        out.stats.workers,
        out.stats.frames_per_sec(),
        out.stats.stages.switch_settings,
        out.stats.stages.sweep_passes,
    );

    // Cost note: the feedback fabric used above has (n/2)·log n = 1024
    // switches; the unfolded network would need 9,088.
    println!(
        "\nhardware: feedback {} switches vs unfolded {} switches",
        brsmn::core::metrics::feedback_switches(n),
        brsmn::core::metrics::brsmn_switches(n),
    );
}
