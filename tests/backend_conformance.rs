//! Backend conformance sweep: every [`RouterBackend`] in the workspace must
//! realize the same shared fixture set, and deliver the *same* source table
//! — the table is uniquely determined by the assignment, so any two correct
//! backends agree output-for-output. BRSMN-family backends must additionally
//! be **bit-identical** to the allocating reference planner
//! (`Brsmn::route_reference`), result struct and all.
//!
//! Fixtures cover dense, sparse and α-heavy random loads, a full broadcast,
//! a permutation, and the empty assignment, at n ∈ {8, 16, 64}.

use brsmn::baselines::{CopyBenesMulticast, Crossbar};
use brsmn::cluster::{DistributedEngine, NodeId};
use brsmn::core::{
    Brsmn, Engine, EngineConfig, FeedbackBrsmn, MulticastAssignment, ReferenceRouter,
    RouterBackend, ShardedEngine,
};
use brsmn::workloads::{barrier_broadcast, random_multicast, random_permutation, RandomSpec};

/// The fixture families from the issue, all seeded and deterministic.
fn fixtures(n: usize) -> Vec<(&'static str, MulticastAssignment)> {
    // α-heavy: a handful of sources between them claim every output.
    let k = 4.min(n);
    let alpha_heavy = {
        let mut sets = vec![Vec::new(); n];
        for o in 0..n {
            sets[(o % k) * (n / k)].push(o);
        }
        MulticastAssignment::from_sets(n, sets).unwrap()
    };
    vec![
        ("dense", random_multicast(RandomSpec::dense(n), 0xC0FF + n as u64)),
        ("sparse", random_multicast(RandomSpec::sparse(n), 0xBEEF + n as u64)),
        ("alpha-heavy", alpha_heavy),
        ("broadcast", barrier_broadcast(n, n / 2)),
        ("permutation", random_permutation(n, 7 + n as u64)),
        ("empty", MulticastAssignment::empty(n).unwrap()),
    ]
}

/// Every backend under test for one network size.
fn backends(n: usize) -> Vec<Box<dyn RouterBackend>> {
    vec![
        Box::new(Brsmn::new(n).unwrap()),
        Box::new(ReferenceRouter::new(n).unwrap()),
        Box::new(FeedbackBrsmn::new(n).unwrap()),
        Box::new(Crossbar::new(n)),
        Box::new(CopyBenesMulticast::new(n).unwrap()),
        Box::new(Engine::new(n).unwrap()),
        Box::new(ShardedEngine::new(n, 3).unwrap()),
        Box::new(DistributedEngine::new(n, 3).unwrap()),
    ]
}

#[test]
fn every_backend_realizes_every_fixture() {
    for n in [8usize, 16, 64] {
        let reference = Brsmn::new(n).unwrap();
        for backend in backends(n) {
            assert_eq!(backend.size(), n, "{}", backend.name());
            for (label, asg) in fixtures(n) {
                let result = backend
                    .route_assignment(&asg)
                    .unwrap_or_else(|e| panic!("{} failed {label}@{n}: {e}", backend.name()));

                // The delivered source table must match the assignment
                // exactly: each output hears precisely its assigned source.
                assert!(
                    result.realizes(&asg),
                    "{} does not realize {label}@{n}",
                    backend.name()
                );
                for o in 0..n {
                    assert_eq!(
                        result.output_source(o),
                        asg.source_of_output(o),
                        "{}: {label}@{n} output {o} hears the wrong source",
                        backend.name()
                    );
                }

                // BRSMN-family backends agree with the reference planner
                // bit for bit — not just semantically.
                if backend.is_brsmn() {
                    let expected = reference.route_reference(&asg).unwrap();
                    assert_eq!(
                        result,
                        expected,
                        "{} diverged from route_reference on {label}@{n}",
                        backend.name()
                    );
                }
            }
        }
    }
}

/// Satellite of the distributed-control-plane issue: the cluster backend,
/// batch for batch, is **bit-identical** to `ShardedEngine` across the
/// whole fixture matrix — striping across simulated nodes and the per-node
/// plan caches cannot move an output bit, because settings are a pure
/// function of the assignment.
#[test]
fn distributed_matches_sharded_bit_for_bit() {
    for n in [8usize, 16, 64] {
        let sharded = ShardedEngine::new(n, 3).unwrap();
        let cluster = DistributedEngine::new(n, 3).unwrap();
        let frames: Vec<MulticastAssignment> =
            fixtures(n).into_iter().map(|(_, asg)| asg).collect();

        // Frame level, through the uniform backend interface.
        for (label, asg) in fixtures(n) {
            let a = cluster.route_assignment(&asg).unwrap();
            let b = sharded.route_assignment(&asg).unwrap();
            assert_eq!(a, b, "cluster vs sharded diverged on {label}@{n}");
        }

        // Batch level, where the round-robin striping actually engages.
        let a = cluster.route_batch(&frames);
        let b = sharded.route_batch(&frames);
        assert_eq!(a.results.len(), b.results.len());
        for (i, (x, y)) in a.results.iter().zip(b.results.iter()).enumerate() {
            match (x, y) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "frame {i}@{n} diverged"),
                _ => panic!("frame {i}@{n}: unexpected routing error"),
            }
        }
        assert_eq!(a.stats.cluster_nodes, 3, "cluster stats must be threaded");

        // Batches no larger than the fleet, where the stripe count is the
        // frame count: every fleet, a two-node subset of the cluster
        // included, stripes through the same striper and reports one
        // worker per busy shard.
        for shards in [2usize, 3, 4] {
            let sharded =
                ShardedEngine::with_config(n, shards, EngineConfig::sequential()).unwrap();
            let cluster = DistributedEngine::new(n, shards).unwrap();
            let pair = [NodeId(0), NodeId(shards - 1)];
            for len in [0, 1, 2, shards, shards + 1] {
                let batch: Vec<MulticastAssignment> =
                    frames.iter().cycle().take(len).cloned().collect();
                let a = cluster.route_batch(&batch);
                let b = sharded.route_batch(&batch);
                let c = cluster.with_cluster(|c| c.route_batch_on(&batch, &pair));
                for (fleet, out, routers) in [
                    ("cluster", &a, shards),
                    ("sharded", &b, shards),
                    ("node pair", &c, pair.len()),
                ] {
                    let ctx = format!("{fleet}: {len} frames on {routers} shards @{n}");
                    assert_eq!(out.results.len(), len, "{ctx}");
                    for (i, (x, y)) in out.results.iter().zip(&b.results).enumerate() {
                        assert_eq!(x.as_ref().unwrap(), y.as_ref().unwrap(), "frame {i}, {ctx}");
                    }
                    assert_eq!(out.stats.batch, len, "{ctx}");
                    assert_eq!(out.stats.frames_ok, len, "{ctx}");
                    assert_eq!(out.stats.frames_failed, 0, "{ctx}");
                    assert_eq!(out.stats.workers, routers.min(len), "{ctx}");
                }
            }
        }
    }
}

#[test]
fn backend_names_are_distinct() {
    let names: Vec<&str> = backends(8).iter().map(|b| b.name()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "duplicate backend name: {names:?}");
}

#[test]
fn brsmn_flag_marks_exactly_the_fast_path_family() {
    let brsmn: Vec<&str> = backends(8)
        .iter()
        .filter(|b| b.is_brsmn())
        .map(|b| b.name())
        .collect();
    assert!(brsmn.contains(&"brsmn-fast"), "{brsmn:?}");
    assert!(!brsmn.contains(&"crossbar"), "{brsmn:?}");
    assert!(!brsmn.contains(&"copy-benes"), "{brsmn:?}");
}
