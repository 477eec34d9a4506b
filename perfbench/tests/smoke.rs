//! A tiny-size run of every workload, untraced and traced: outputs check
//! out, and the printed metrics are exactly the ones `BENCHMARK.json`
//! declares, with the same units.

use brsmn_perfbench::{run, Args, Outcome, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny_run(w: Workload, trace: bool) -> Outcome {
    let args = Args {
        workload: w,
        seed: 3,
        seconds: 0.02,
        trace,
    };
    let spans = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans");
    let out = run(&args, &Scale::tiny(), Some(&spans)).unwrap();
    if trace {
        assert!(spans.join(format!("{}-layers.jsonl", w.name())).exists());
    }
    assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{}", w.name());
    out
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let start = text.find(&format!("\"{section}\"")).unwrap();
    let body = &text[start..start + text[start..].find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry.split('"').next().unwrap().to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .to_string();
            (name, unit)
        })
        .collect()
}

#[test]
fn every_workload_runs_and_prints_the_declared_metrics() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
    for w in Workload::ALL {
        let plain = tiny_run(w, false);
        for (name, _, v) in plain.metrics.iter() {
            assert!(v.is_finite() && v > 0.0, "{} {name} = {v}", w.name());
        }
        let json = plain.to_json();
        assert!(json.starts_with("{\"correct\": true"), "{json}");

        let traced = tiny_run(w, true);
        let get = |name: &str| traced.metrics.get(name).unwrap();
        assert!(get("engine.route_batch.ms") > 0.0, "{}", w.name());
        assert!(get("machine.yardstick_per_s") > 0.0);
        assert!(get("trace.overhead_ratio") > 0.0);
        match w {
            Workload::ColdCapture => {
                assert_eq!(
                    get("plancache.exact_hits") + get("plancache.canonical_hits"),
                    0.0
                );
                assert!(get("plancache.misses") > 0.0 && get("plancache.evictions") > 0.0);
                assert_eq!(get("batch.planned_frames"), get("plancache.misses"));
                assert_eq!(get("serve.rounds"), 0.0);
            }
            Workload::WarmZipf => {
                assert_eq!(get("plancache.misses"), 0.0);
                assert_eq!(get("batch.planned_frames"), 0.0);
                assert!(get("plancache.exact_hits") > 0.0 && get("plancache.canonical_hits") > 0.0);
                assert_eq!(get("serve.rounds"), 0.0);
            }
            Workload::ServePaced => {
                assert_eq!(get("plancache.misses"), 0.0);
                assert_eq!(get("batch.planned_frames"), 0.0);
                assert!(get("serve.rounds") > 0.0 && get("serve.loop.cpu_ms") > 0.0);
                assert_eq!(get("serve.rejected"), 0.0);
            }
        }
    }
}
