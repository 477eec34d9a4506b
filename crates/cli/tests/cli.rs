//! End-to-end tests driving the compiled `brsmn-cli` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_brsmn-cli"))
}

#[test]
fn info_prints_cost_sheet() {
    let out = bin().args(["info", "--n", "64"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("switches      : 1312"));
    assert!(text.contains("feedback implementation"));
}

#[test]
fn seq_matches_paper_example() {
    let out = bin()
        .args(["seq", "--n", "8", "--dests", "3,4,7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SEQ = α1αε011"), "{text}");
}

#[test]
fn gen_then_route_via_stdin() {
    let gen = bin()
        .args(["gen", "--n", "32", "--workload", "dense", "--seed", "5"])
        .output()
        .unwrap();
    assert!(gen.status.success());

    let mut route = bin()
        .args(["route", "--file", "-", "--engine", "self-routing"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    route
        .stdin
        .as_mut()
        .unwrap()
        .write_all(&gen.stdout)
        .unwrap();
    let out = route.wait_with_output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("realized"), "{err}");
}

#[test]
fn every_engine_routes_the_same_workload() {
    for engine in ["semantic", "self-routing", "feedback", "classical", "crossbar"] {
        let out = bin()
            .args([
                "route", "--n", "32", "--workload", "dense", "--seed", "9", "--engine", engine,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "engine {engine}");
    }
    // Permutation-only engine on a permutation workload.
    let out = bin()
        .args([
            "route",
            "--n",
            "32",
            "--workload",
            "permutation",
            "--engine",
            "chengchen",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn trace_renders_levels() {
    let out = bin()
        .args([
            "route", "--n", "8", "--workload", "broadcast", "--engine", "semantic", "--trace",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("L1 in"), "{text}");
    assert!(text.contains("final"));
}

#[test]
fn faults_campaign_detects_everything() {
    let out = bin()
        .args(["faults", "--n", "16", "--faults", "12", "--frames", "3", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("0 false negatives"), "{text}");
    assert!(text.contains("0 false positives"), "{text}");

    // --json emits the structured CampaignReport.
    let out = bin()
        .args(["faults", "--n", "16", "--faults", "4", "--seed", "7", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("\"false_negatives\": 0"), "{text}");
}

#[test]
fn serve_sim_reports_consistent_json() {
    let out = bin()
        .args([
            "serve-sim", "--n", "16", "--shards", "2", "--rounds", "8", "--seed", "3",
            "--capacity", "4096",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // stdout is the full machine-readable report; parse it back into the
    // typed struct and re-check the conservation law from outside.
    let report: brsmn_serve::ServeReport =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(report.conserves(), "{report:?}");
    assert_eq!(report.n, 16);
    assert_eq!(report.shards, 2);
    assert_eq!(report.backend, "brsmn");
    assert!(report.submitted > 0);
    assert_eq!(report.rejected, 0, "capacity 4096 admits the whole trace");
    assert_eq!(report.served_ok, report.submitted);
    assert!(report.frames_per_sec > 0.0);
    assert!(report.latency.p99_ns >= report.latency.p50_ns);
    assert!(report.wall_nanos > 0);

    // The human summary goes to stderr, not into the JSON stream.
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("frames/s"), "{err}");
}

#[test]
fn serve_sim_replays_committed_demo_trace() {
    // Integration tests run with the crate directory as cwd.
    let trace = "../../traces/serve_demo.json";
    let out = bin()
        .args([
            "serve-sim", "--trace-file", trace, "--shards", "4", "--capacity", "2048",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: brsmn_serve::ServeReport =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(report.conserves(), "{report:?}");
    assert_eq!(report.n, 64);
    assert_eq!(report.shards, 4);
    assert_eq!(report.submitted, 748, "demo trace length drifted");
    assert_eq!(report.served_err, 0);
}

/// Pull the `output-hash: 0x…` line out of serve-sim's stderr summary.
fn output_hash_line(stderr: &[u8]) -> String {
    String::from_utf8_lossy(stderr)
        .lines()
        .find(|l| l.starts_with("output-hash:"))
        .expect("serve-sim prints an output-hash line")
        .to_string()
}

#[test]
fn serve_sim_churn_builds_multi_tenant_report() {
    let out = bin()
        .args([
            "serve-sim", "--n", "32", "--churn", "--tenants", "3", "--rounds", "12",
            "--p-expired", "0.1", "--seed", "7", "--capacity", "64", "--quota", "24",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: brsmn_serve::ServeReport =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert!(report.conserves(), "{report:?}");
    assert!(report.quotas_respected(), "{report:?}");
    assert_eq!(report.tenants.len(), 3);
    assert!(report.rejections.deadline_exceeded > 0, "p-expired 0.1 must shed");
    for tr in &report.tenants {
        assert!(tr.submitted > 0, "tenant {} got no traffic", tr.tenant);
        assert_eq!(tr.quota, 24);
    }

    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("tenant 0:"), "{err}");
    assert!(err.contains("tenant 2:"), "{err}");
    assert!(err.contains("output-hash: 0x"), "{err}");
}

#[test]
fn serve_sim_committed_churn_trace_is_bit_deterministic() {
    // The committed 3-tenant churn trace must replay with identical
    // output hashes run to run and across queue capacities — the same
    // gate CI applies.
    let trace = "../../traces/churn_3tenants_n256.json";
    let run = |capacity: &str| {
        let out = bin()
            .args([
                "serve-sim", "--trace-file", trace, "--capacity", capacity, "--quota", "32",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let report: brsmn_serve::ServeReport =
            serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
        (report, output_hash_line(&out.stderr))
    };
    let (a, hash_a) = run("96");
    let (b, hash_b) = run("96");
    let (tiny, hash_tiny) = run("8");

    for r in [&a, &b, &tiny] {
        assert!(r.conserves(), "{r:?}");
        assert!(r.quotas_respected(), "{r:?}");
        assert_eq!(r.tenants.len(), 3, "tenant count inferred from the trace");
        assert_eq!(r.submitted, a.submitted, "trace replay lost requests");
        assert!(r.rejections.deadline_exceeded > 0, "trace carries expiries");
        assert_eq!(r.rejected, r.rejections.deadline_exceeded);
    }
    assert_eq!(hash_a, hash_b, "same capacity, different outputs");
    assert_eq!(hash_a, hash_tiny, "queue capacity leaked into outputs");
}

#[test]
fn serve_sim_rejects_bad_tenant_flags() {
    // Wrong number of --weights entries for the inferred tenant count.
    let out = bin()
        .args([
            "serve-sim", "--n", "16", "--churn", "--tenants", "3", "--rounds", "4",
            "--weights", "1,2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--weights"), "{err}");

    // Zero quota is rejected by config validation.
    let out = bin()
        .args(["serve-sim", "--n", "16", "--rounds", "4", "--quota", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn serve_sim_alternate_backends_and_bad_backend() {
    let out = bin()
        .args([
            "serve-sim", "--n", "8", "--rounds", "4", "--backend", "reference", "--capacity",
            "1024",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: brsmn_serve::ServeReport =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(report.backend, "reference");
    assert!(report.conserves());

    let out = bin()
        .args(["serve-sim", "--n", "8", "--backend", "warp-drive"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn cluster_sim_reports_healthy_campaign_json() {
    let out = bin()
        .args([
            "cluster-sim", "--n", "8", "--nodes", "3", "--seed", "7", "--ticks", "200",
            "--drop", "0.2", "--frames", "8", "--invalidations", "6",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(report["healthy"], serde_json::Value::Bool(true));
    assert_eq!(report["lost_invalidations"].as_u64(), Some(0));
    assert_eq!(report["routing_divergence"].as_u64(), Some(0));
    assert_eq!(report["decided_logs_consistent"], serde_json::Value::Bool(true));
}

#[test]
fn cluster_sim_same_seed_replays_identical_digests() {
    let run = || {
        let out = bin()
            .args(["cluster-sim", "--n", "8", "--nodes", "4", "--seed", "11", "--ticks", "150"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let report: serde_json::Value =
            serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
        (
            report["trace_digest"].as_u64().unwrap(),
            report["state_digest"].as_u64().unwrap(),
        )
    };
    assert_eq!(run(), run(), "same seed must replay byte-identically");
}

#[test]
fn cluster_sim_removes_a_faulty_shard() {
    let out = bin()
        .args([
            "cluster-sim", "--n", "8", "--nodes", "4", "--seed", "23", "--ticks", "300",
            "--remove-node", "3", "--crash", "none",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    let members: Vec<u64> = report["final_members"]
        .as_array()
        .unwrap()
        .iter()
        .map(|v| v.as_u64().unwrap())
        .collect();
    assert_eq!(members, vec![0, 1, 2]);
}

#[test]
fn cluster_sim_rejects_bad_flags() {
    for bad in [
        vec!["cluster-sim", "--n", "7"],
        vec!["cluster-sim", "--drop", "1.5"],
        vec!["cluster-sim", "--nodes", "0"],
        vec!["cluster-sim", "--partition", "9"],
        vec!["cluster-sim", "--nodes", "3", "--crash", "7,10,20"],
        vec!["cluster-sim", "--nodes", "3", "--remove-node", "5"],
    ] {
        let out = bin().args(&bad).output().unwrap();
        assert!(!out.status.success(), "{bad:?} should fail");
    }
}

#[test]
fn serve_sim_cluster_backend_matches_brsmn_output_hash() {
    let run = |backend: &str| {
        let out = bin()
            .args([
                "serve-sim", "--n", "8", "--rounds", "6", "--seed", "3", "--capacity", "1024",
                "--backend", backend,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let report: brsmn_serve::ServeReport =
            serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
        report
    };
    let cluster = run("cluster");
    let brsmn = run("brsmn");
    assert_eq!(cluster.backend, "cluster");
    // The simulated control plane serves the very same bits as the
    // single-process fast path.
    assert_eq!(cluster.output_hash, brsmn.output_hash);
    assert_eq!(cluster.engine.cluster_nodes, cluster.shards as u64);
}

#[test]
fn bad_input_fails_cleanly() {
    let out = bin().args(["route", "--n", "7"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:"), "{err}");

    let out = bin().args(["nonsense"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin()
        .args(["route", "--n", "16", "--engine", "warp-drive"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A failure is exit status 1 with a typed `error:` line — never a
    // panic (exit 101).
    let fails_cleanly = |args: &[&str], names: &str| {
        let out = bin().args(args).output().unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.starts_with("error:") && err.contains(names),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    };

    // Assignment files are validated like any constructed assignment.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let write = |name: &str, json: &str| {
        let path = dir.join(name);
        std::fs::write(&path, json).unwrap();
        path.to_str().unwrap().to_string()
    };
    for (name, json, names) in [
        (
            "short.json",
            r#"{"n":4,"dests":[[0],[]]}"#,
            "expected 4 destination sets, got 2",
        ),
        (
            "range.json",
            r#"{"n":4,"dests":[[9],[],[],[]]}"#,
            "destination 9 out of range",
        ),
        (
            "overlap.json",
            r#"{"n":4,"dests":[[1],[1],[],[]]}"#,
            "output 1 claimed by both",
        ),
    ] {
        fails_cleanly(&["route", "--file", &write(name, json)], names);
    }
    // Valid but written unsorted: sorted on load, then routed.
    let unsorted = write("unsorted.json", r#"{"n":4,"dests":[[3,0],[],[],[]]}"#);
    let out = bin().args(["route", "--file", &unsorted]).output().unwrap();
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{err}");
    assert!(err.contains("realized: 2 connections"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("output 0 <- input 0") && text.contains("output 3 <- input 0"));

    // Every subcommand rejects options it does not read, by name.
    fails_cleanly(
        &["route", "--n", "16", "--workload", "dense", "--no-scrach"],
        "`--no-scrach`",
    );
    fails_cleanly(
        &[
            "route",
            "--parallel",
            "--n",
            "16",
            "--batch",
            "2",
            "--wrokers",
            "2",
        ],
        "`--wrokers`",
    );
    fails_cleanly(&["info", "--n", "16", "--bogus", "3"], "`--bogus`");
    // `route --parallel` has one dispatch path: the old routing knobs are
    // unknown options, not silently ignored.
    for knob in [
        &["--no-scratch"][..],
        &["--no-batch-plan"],
        &["--fork-depth", "2"],
    ] {
        let mut args = vec!["route", "--parallel", "--n", "16", "--batch", "2"];
        args.extend_from_slice(knob);
        fails_cleanly(&args, &format!("`{}`", knob[0]));
    }
}
