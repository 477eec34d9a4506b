//! `brsmn-cli` — command-line front end for the self-routing multicast
//! network workspace.
//!
//! ```text
//! brsmn-cli gen    --n 64 --workload dense --seed 7          # emit JSON assignment
//! brsmn-cli route  --n 64 --workload dense --engine feedback # generate + route
//! brsmn-cli route  --file asg.json --engine self-routing --trace
//! brsmn-cli info   --n 1024                                  # cost sheet
//! brsmn-cli seq    --n 8 --dests 3,4,7                       # routing-tag sequence
//! brsmn-cli faults --n 64 --faults 64 --seed 1               # fault campaign
//! brsmn-cli serve-sim --n 64 --shards 4 --rounds 32          # serving-loop replay
//! brsmn-cli cluster-sim --nodes 4 --seed 7 --drop 0.2        # control-plane campaign
//! ```

use std::io::Read;
use std::process::ExitCode;
use std::sync::Arc;

use brsmn_baselines::{ChengChenNetwork, CopyBenesMulticast, Crossbar};
use brsmn_core::{
    metrics, render_trace, Brsmn, Engine, EngineConfig, FeedbackBrsmn, MulticastAssignment,
    PlanCache, PlanCacheSnapshot, RoutingResult, TagTree,
};
use brsmn_cluster::{run_campaign, CampaignSpec};
use brsmn_serve::{serve_trace, serve_trace_warm, BackendKind, ServeConfig, Trace};
use brsmn_sim::{brsmn_routing_time, feedback_routing_time, run_single_fault_campaign};
use brsmn_workloads::{
    barrier_broadcast, even_conferences, random_multicast, random_permutation, replica_update,
    RandomSpec,
};

mod args;
use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "usage: brsmn-cli <command> [options]\n\
     commands:\n\
       gen    --n N --workload W [--seed S]            print a JSON assignment\n\
       route  (--file F | --n N --workload W [--seed S])\n\
              [--engine E] [--trace]                    route an assignment\n\
       route  --parallel [--batch B] [--workers K] [--cache [CAP]]\n\
              [--cache-load F] [--cache-save F] [--stats] [--plan-profile]\n\
              batched multi-threaded routing: cache misses plan a BSN level\n\
              at a time; --plan-profile prints per-op planning tallies (nanos\n\
              need the plan-profile cargo feature); --cache replays repeated (or\n\
              relabeled) frames from the two-tier plan cache (default capacity\n\
              256); --cache-load/--cache-save persist the working set as a\n\
              snapshot JSON (each implies --cache); --stats prints EngineStats\n\
              JSON; an output hash goes to stderr\n\
       info   --n N                                     cost/depth/time sheet\n\
       seq    --n N --dests A,B,C                       routing-tag sequence\n\
       faults --n N [--faults F] [--frames K] [--seed S] [--json] [--per-fault]\n\
              seeded single-fault injection campaign (detection/recovery rates)\n\
       serve-sim (--n N [--rounds R] [--seed S] [--p-arrival P] [--max-fanout F]\n\
              [--churn [--tenants T] [--deadline-slack D] [--p-expired P]]\n\
              [--save-trace OUT] | --trace-file F)\n\
              [--shards S] [--workers W] [--capacity C] [--batch-window B]\n\
              [--quota Q] [--weights W0,W1,..] [--backend B] [--record-outputs]\n\
              [--plan-cache CAP] [--cache-load F] [--cache-save F]\n\
              replay a workload trace through the multi-tenant serving loop;\n\
              --churn generates the conference-churn session workload (one\n\
              session per tenant, tenant-tagged requests with deadlines);\n\
              tenants are inferred from the trace, --quota bounds each\n\
              tenant's queue share and --weights skews round composition;\n\
              --cache-load warm-starts the plan cache from a snapshot and\n\
              --cache-save persists it after the run (brsmn backend only);\n\
              prints the JSON ServeReport on stdout, a summary plus\n\
              per-tenant lines and an output-hash on stderr\n\
       cluster-sim [--n N] [--nodes K] [--seed S] [--ticks T] [--drop P]\n\
              [--inbox C] [--frames F] [--invalidations I] [--partition A,B]\n\
              [--crash NODE,A,B] [--remove-node K] [--settle T]\n\
              run a deterministic fault campaign over the simulated\n\
              distributed control plane (virtual-time network, Paxos-style\n\
              membership, reliable invalidation broadcast, anti-entropy);\n\
              prints the JSON CampaignReport on stdout, a summary on stderr;\n\
              exits nonzero on a lost invalidation, split-brain decided\n\
              logs, non-convergence, or routing divergence from the\n\
              single-process sharded oracle\n\
     workloads: dense | sparse | broadcast | permutation | conferences | replicas\n\
     engines:   semantic | self-routing | feedback | classical | crossbar | chengchen\n\
                (--parallel supports semantic and self-routing)\n\
     backends (serve-sim): brsmn | reference | feedback | crossbar | copy-benes | cluster"
}

/// The options each subcommand reads; anything else is rejected.
const GEN_OPTS: &[&str] = &["file", "n", "workload", "seed"];
const ROUTE_OPTS: &[&str] = &[
    "parallel", "file", "n", "workload", "seed", "engine", "trace",
];
const ROUTE_PARALLEL_OPTS: &[&str] = &[
    "parallel",
    "file",
    "n",
    "workload",
    "seed",
    "engine",
    "batch",
    "workers",
    "cache",
    "cache-load",
    "cache-save",
    "stats",
    "plan-profile",
];
const INFO_OPTS: &[&str] = &["n"];
const SEQ_OPTS: &[&str] = &["n", "dests"];
const FAULTS_OPTS: &[&str] = &["n", "faults", "frames", "seed", "json", "per-fault"];
const SERVE_SIM_OPTS: &[&str] = &[
    "trace-file",
    "churn",
    "n",
    "seed",
    "rounds",
    "tenants",
    "deadline-slack",
    "p-expired",
    "p-arrival",
    "max-fanout",
    "save-trace",
    "shards",
    "workers",
    "capacity",
    "batch-window",
    "backend",
    "record-outputs",
    "quota",
    "weights",
    "plan-cache",
    "cache-load",
    "cache-save",
];
const CLUSTER_SIM_OPTS: &[&str] = &[
    "seed",
    "n",
    "nodes",
    "ticks",
    "drop",
    "inbox",
    "frames",
    "invalidations",
    "settle",
    "partition",
    "crash",
    "remove-node",
];

fn run(argv: &[String]) -> Result<(), String> {
    let cmd = argv.first().ok_or("missing command")?.as_str();
    let args = Args::parse(&argv[1..])?;
    let known = match cmd {
        "gen" => Some(GEN_OPTS),
        "route" if args.flag("parallel") => Some(ROUTE_PARALLEL_OPTS),
        "route" => Some(ROUTE_OPTS),
        "info" => Some(INFO_OPTS),
        "seq" => Some(SEQ_OPTS),
        "faults" => Some(FAULTS_OPTS),
        "serve-sim" => Some(SERVE_SIM_OPTS),
        "cluster-sim" => Some(CLUSTER_SIM_OPTS),
        _ => None,
    };
    if let Some(known) = known {
        args.reject_unknown(cmd, known)?;
    }
    match cmd {
        "gen" => cmd_gen(&args),
        "route" => cmd_route(&args),
        "info" => cmd_info(&args),
        "seq" => cmd_seq(&args),
        "faults" => cmd_faults(&args),
        "serve-sim" => cmd_serve_sim(&args),
        "cluster-sim" => cmd_cluster_sim(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Reads a [`PlanCacheSnapshot`] JSON file into `cache`, returning how many
/// plans survived validation (a corrupt file is a typed error, not a panic).
fn load_cache_snapshot(cache: &PlanCache, path: &str) -> Result<u64, String> {
    let buf = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let snap: PlanCacheSnapshot =
        serde_json::from_str(&buf).map_err(|e| format!("parse {path}: {e}"))?;
    let stats = cache
        .load_snapshot(&snap)
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(stats.loaded)
}

/// Writes `cache`'s exact-tier working set to `path` as snapshot JSON,
/// returning how many plans were persisted.
fn save_cache_snapshot(cache: &PlanCache, path: &str) -> Result<usize, String> {
    let snap = cache.snapshot();
    let json = serde_json::to_string(&snap).map_err(|e| e.to_string())?;
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    Ok(snap.entries.len())
}

fn load_workload(args: &Args) -> Result<MulticastAssignment, String> {
    if let Some(path) = args.get("file") {
        let mut buf = String::new();
        if path == "-" {
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| e.to_string())?;
        } else {
            buf = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        }
        return serde_json::from_str(&buf).map_err(|e| format!("parse {path}: {e}"));
    }
    let n: usize = args.get_parse("n")?.ok_or("--n is required")?;
    if !n.is_power_of_two() || n < 2 {
        return Err(format!("n must be a power of two >= 2, got {n}"));
    }
    let seed: u64 = args.get_parse("seed")?.unwrap_or(1);
    build_workload(n, args.get("workload").unwrap_or("dense"), seed)
}

fn build_workload(n: usize, workload: &str, seed: u64) -> Result<MulticastAssignment, String> {
    Ok(match workload {
        "dense" => random_multicast(RandomSpec::dense(n), seed),
        "sparse" => random_multicast(RandomSpec::sparse(n), seed),
        "broadcast" => barrier_broadcast(n, seed as usize % n),
        "permutation" => random_permutation(n, seed),
        "conferences" => even_conferences(n, (n / 8).max(1)),
        "replicas" => replica_update(n, (n / 16).max(1)),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let asg = load_workload(args)?;
    println!(
        "{}",
        serde_json::to_string_pretty(&asg).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_route(args: &Args) -> Result<(), String> {
    if args.flag("parallel") {
        return cmd_route_parallel(args);
    }
    let asg = load_workload(args)?;
    let n = asg.n();
    let engine = args.get("engine").unwrap_or("semantic");
    let want_trace = args.flag("trace");

    let result: RoutingResult = match engine {
        "semantic" => {
            let net = Brsmn::new(n).map_err(|e| e.to_string())?;
            if want_trace {
                let (r, trace) = net.route_traced(&asg).map_err(|e| e.to_string())?;
                println!("{}", render_trace(&trace));
                r
            } else {
                net.route(&asg).map_err(|e| e.to_string())?
            }
        }
        "self-routing" => Brsmn::new(n)
            .and_then(|net| net.route_self_routing(&asg))
            .map_err(|e| e.to_string())?,
        "feedback" => {
            let (r, stats) = FeedbackBrsmn::new(n)
                .and_then(|net| net.route(&asg))
                .map_err(|e| e.to_string())?;
            eprintln!(
                "feedback: {} passes over {} physical switches",
                stats.passes, stats.physical_switches
            );
            r
        }
        "classical" => {
            let (r, stats) = CopyBenesMulticast::new(n)
                .map_err(|e| e.to_string())?
                .route(&asg)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "classical copy+Beneš: {} copies, {} serial looping steps",
                stats.copies, stats.looping_steps
            );
            r
        }
        "crossbar" => Crossbar::new(n).route(&asg).map_err(|e| e.to_string())?,
        "chengchen" => {
            if !asg.is_permutation() {
                return Err("chengchen engine routes permutations only".into());
            }
            ChengChenNetwork::new(n)
                .and_then(|net| net.route(&asg))
                .map_err(|e| e.to_string())?
        }
        other => return Err(format!("unknown engine `{other}`")),
    };

    for o in 0..n {
        if let Some(src) = result.output_source(o) {
            println!("output {o} <- input {src}");
        }
    }
    let ok = result.realizes(&asg);
    eprintln!(
        "{}: {} connections, engine `{engine}`",
        if ok { "realized" } else { "MISROUTED" },
        asg.total_connections()
    );
    if ok {
        Ok(())
    } else {
        Err("assignment not realized".into())
    }
}

/// `route --parallel`: batched multi-threaded routing through the
/// [`Engine`], with optional per-stage instrumentation as JSON.
fn cmd_route_parallel(args: &Args) -> Result<(), String> {
    let batch_size: usize = args.get_parse("batch")?.unwrap_or(16);
    if batch_size == 0 {
        return Err("--batch must be >= 1".into());
    }
    let workers: usize = args.get_parse("workers")?.unwrap_or(0);

    // One frame per seed `seed .. seed + batch`; a `--file` frame is
    // replicated `--batch` times (repeated-frame throughput).
    let batch: Vec<MulticastAssignment> = if args.get("file").is_some() {
        vec![load_workload(args)?; batch_size]
    } else {
        let n: usize = args.get_parse("n")?.ok_or("--n is required")?;
        if !n.is_power_of_two() || n < 2 {
            return Err(format!("n must be a power of two >= 2, got {n}"));
        }
        let seed: u64 = args.get_parse("seed")?.unwrap_or(1);
        let workload = args.get("workload").unwrap_or("dense");
        (0..batch_size)
            .map(|f| build_workload(n, workload, seed.wrapping_add(f as u64)))
            .collect::<Result<_, _>>()?
    };
    let n = batch[0].n();

    // --cache alone turns the plan cache on at the default capacity;
    // --cache CAP (or --cache=CAP) sizes it explicitly. --cache-load /
    // --cache-save imply the cache (snapshots need one to live in).
    let cache_load = args.get("cache-load").map(str::to_string);
    let cache_save = args.get("cache-save").map(str::to_string);
    let plan_cache: usize = match args.get_parse::<usize>("cache")? {
        Some(cap) => cap,
        None if args.flag("cache") || cache_load.is_some() || cache_save.is_some() => 256,
        None => 0,
    };
    let cfg = EngineConfig::batch(workers).with_plan_cache(plan_cache);
    let mut engine = Engine::with_config(n, cfg).map_err(|e| e.to_string())?;
    // Snapshot persistence wants a cache handle that outlives the engine.
    let cache: Option<Arc<PlanCache>> = if plan_cache > 0 {
        let cache = Arc::new(PlanCache::new(plan_cache));
        if let Some(path) = &cache_load {
            let loaded = load_cache_snapshot(&cache, path)?;
            eprintln!("plan cache: warm-started with {loaded} plan(s) from {path}");
        }
        engine.share_plan_cache(Arc::clone(&cache));
        Some(cache)
    } else {
        None
    };
    let engine_name = args.get("engine").unwrap_or("semantic");
    let out = match engine_name {
        "semantic" => engine.route_batch(&batch),
        "self-routing" => engine.route_batch_self_routing(&batch),
        other => {
            return Err(format!(
                "--parallel supports engines semantic|self-routing, got `{other}`"
            ))
        }
    };

    let mut failures = 0usize;
    for (f, (asg, result)) in batch.iter().zip(&out.results).enumerate() {
        match result {
            Ok(r) if r.realizes(asg) => {}
            Ok(_) => {
                failures += 1;
                eprintln!("frame {f}: MISROUTED");
            }
            Err(e) => {
                failures += 1;
                eprintln!("frame {f}: error: {e}");
            }
        }
    }
    let stats = &out.stats;
    eprintln!(
        "routed {} frames of n={} on {} worker(s): {:.1} frames/s, speedup {:.2}x",
        stats.batch,
        stats.n,
        stats.workers,
        stats.frames_per_sec(),
        stats.speedup(),
    );
    if plan_cache > 0 {
        eprintln!(
            "plan cache: {} hits ({} exact, {} canonical), {} misses, {} evictions, \
             {} resident bytes",
            stats.plan_hits,
            stats.plan_exact_hits,
            stats.plan_canonical_hits,
            stats.plan_misses,
            stats.plan_evictions,
            stats.plan_cache_bytes
        );
    }
    if stats.batch_planned_frames > 0 {
        eprintln!(
            "planner: {} frame(s) batch-planned, one level pass per BSN level",
            stats.batch_planned_frames
        );
    }
    if args.flag("plan-profile") {
        // Op counts are always exact; the nanosecond columns need the
        // `plan-profile` cargo feature compiled in (zero otherwise).
        let p = &stats.stages.plan_profile;
        eprintln!("plan profile (op counts always on; nanos need the plan-profile feature):");
        eprintln!("  tag-derive: {:>12} ops {:>12} ns", p.tag_derive_ops, p.tag_derive_nanos);
        eprintln!("  rank:       {:>12} ops {:>12} ns", p.rank_ops, p.rank_nanos);
        eprintln!("  scatter:    {:>12} ops {:>12} ns", p.scatter_ops, p.scatter_nanos);
        eprintln!("  quasisort:  {:>12} ops {:>12} ns", p.quasisort_ops, p.quasisort_nanos);
        eprintln!("  total:      {:>12} ops {:>12} ns", p.total_ops(), p.total_nanos());
    }
    if let (Some(cache), Some(path)) = (&cache, &cache_save) {
        let saved = save_cache_snapshot(cache, path)?;
        eprintln!("plan cache: {saved} plan(s) saved to {path}");
    }
    // FNV-1a over every frame's delivered source table — two runs routed the
    // same batch identically iff the hashes match (the CI cache-smoke step
    // diffs this line between a cold and a warm run).
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fnv = |byte: u64| {
        hash ^= byte;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    };
    for result in out.results.iter().flatten() {
        for o in 0..result.n() {
            match result.output_source(o) {
                Some(s) => fnv(s as u64 + 1),
                None => fnv(0),
            }
        }
    }
    eprintln!("output-hash: {hash:016x}");
    if args.flag("stats") {
        println!(
            "{}",
            serde_json::to_string_pretty(stats).map_err(|e| e.to_string())?
        );
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(format!("{failures} frame(s) failed"))
    }
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let n: usize = args.get_parse("n")?.ok_or("--n is required")?;
    if !n.is_power_of_two() || n < 2 {
        return Err(format!("n must be a power of two >= 2, got {n}"));
    }
    println!("n = {n} (m = {} levels)", n.trailing_zeros());
    println!();
    println!("unfolded BRSMN:");
    println!("  switches      : {}", metrics::brsmn_switches(n));
    println!("  gates         : {}", metrics::brsmn_gates(n));
    println!("  depth (stages): {}", metrics::brsmn_depth(n));
    println!(
        "  routing time  : {} gate delays",
        brsmn_routing_time(n).total
    );
    println!();
    println!("feedback implementation:");
    println!("  switches      : {}", metrics::feedback_switches(n));
    println!("  gates         : {}", metrics::feedback_gates(n));
    println!("  passes        : {}", metrics::feedback_passes(n));
    println!(
        "  routing time  : {} gate delays",
        feedback_routing_time(n).total
    );
    println!();
    println!("comparators:");
    println!(
        "  Cheng–Chen permutation network : {} switches",
        ChengChenNetwork::new(n).map_err(|e| e.to_string())?.switches()
    );
    println!(
        "  classical copy+Beneš multicast : {} switches",
        CopyBenesMulticast::new(n)
            .map_err(|e| e.to_string())?
            .switches()
    );
    println!("  crossbar                       : {} crosspoints", n * n);
    Ok(())
}

/// `faults`: a seeded single-fault injection campaign over a random
/// workload, printing detection and recovery rates of the graceful
/// degradation ladder (verify → reference retry → rotation re-plan).
fn cmd_faults(args: &Args) -> Result<(), String> {
    let n: usize = args.get_parse("n")?.ok_or("--n is required")?;
    if !n.is_power_of_two() || n < 8 {
        return Err(format!("n must be a power of two >= 8, got {n}"));
    }
    let num_faults: usize = args.get_parse("faults")?.unwrap_or(64);
    let frames: usize = args.get_parse("frames")?.unwrap_or(4);
    let seed: u64 = args.get_parse("seed")?.unwrap_or(1);

    let report =
        run_single_fault_campaign(n, num_faults, frames, seed).map_err(|e| e.to_string())?;

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
        );
    } else {
        println!("{report}");
        if args.flag("per-fault") {
            println!();
            for rec in &report.records {
                println!(
                    "  {}: {} corrupted, {} detected, {} retried, {} degraded, {} failed",
                    rec.fault,
                    rec.frames_corrupted,
                    rec.frames_detected,
                    rec.recovered_retry,
                    rec.recovered_degraded,
                    rec.frames_failed,
                );
            }
        }
    }

    if report.false_negatives > 0 {
        return Err(format!(
            "{} corrupted frame(s) evaded detection",
            report.false_negatives
        ));
    }
    if report.control_false_positives > 0 {
        return Err(format!(
            "{} false positive(s) on the fault-free control run",
            report.control_false_positives
        ));
    }
    if !report.accounts() {
        return Err("recovered + failed frames do not account for corrupted frames".into());
    }
    Ok(())
}

/// `serve-sim`: replay a workload trace (generated or loaded) through the
/// sharded serving loop and emit the JSON [`brsmn_serve::ServeReport`].
fn cmd_serve_sim(args: &Args) -> Result<(), String> {
    // The trace: replayed from a file, generated by the multi-tenant
    // conference-churn session model (`--churn`), or generated from the
    // same seeded flat arrival process the queueing model uses.
    let trace = if let Some(path) = args.get("trace-file") {
        let buf = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Trace::from_json(&buf).map_err(|e| format!("parse {path}: {e}"))?
    } else if args.flag("churn") {
        let n: usize = args.get_parse("n")?.ok_or("--n or --trace-file is required")?;
        let seed: u64 = args.get_parse("seed")?.unwrap_or(1);
        let mut spec = brsmn_serve::ChurnTraceSpec::default_for(n);
        if let Some(r) = args.get_parse::<usize>("rounds")? {
            spec.rounds = r;
        }
        if let Some(t) = args.get_parse::<u32>("tenants")? {
            spec.tenants = t;
        }
        if let Some(s) = args.get_parse::<u64>("deadline-slack")? {
            spec.deadline_slack = s;
        }
        if let Some(p) = args.get_parse::<f64>("p-expired")? {
            spec.p_expired = p;
        }
        Trace::from_churn(spec, seed)?
    } else {
        let n: usize = args.get_parse("n")?.ok_or("--n or --trace-file is required")?;
        let seed: u64 = args.get_parse("seed")?.unwrap_or(1);
        let rounds: usize = args.get_parse("rounds")?.unwrap_or(32);
        let mut queue = brsmn_serve::ServeConfig::new(n).queue;
        if let Some(p) = args.get_parse::<f64>("p-arrival")? {
            queue.p_arrival = p;
        }
        if let Some(f) = args.get_parse::<usize>("max-fanout")? {
            queue.max_fanout = f;
        }
        Trace::generate(queue, seed, rounds).map_err(|e| e.to_string())?
    };

    if let Some(path) = args.get("save-trace") {
        std::fs::write(path, trace.to_json_pretty()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("trace: {} requests saved to {path}", trace.len());
    }

    let mut cfg = ServeConfig::new(trace.n);
    cfg.queue.max_fanout = trace
        .requests
        .iter()
        .map(|r| r.dests.len())
        .max()
        .unwrap_or(cfg.queue.max_fanout)
        .max(1);
    if let Some(s) = args.get_parse::<usize>("shards")? {
        cfg.shards = s;
    }
    if let Some(w) = args.get_parse::<usize>("workers")? {
        cfg.workers_per_shard = w;
    }
    if let Some(c) = args.get_parse::<usize>("capacity")? {
        cfg.queue_capacity = c;
    }
    if let Some(b) = args.get_parse::<usize>("batch-window")? {
        cfg.batch_window = b;
    }
    if let Some(backend) = args.get("backend") {
        cfg.backend = backend.parse::<BackendKind>()?;
    }
    cfg.record_outputs = args.flag("record-outputs");
    // Tenants: sized to admit every tenant the trace names (old
    // single-tenant traces infer one). `--quota` caps each tenant's queue
    // share; `--weights a,b,c` skews the weighted-round-robin composer.
    let tenant_count = trace.tenant_count().max(1) as usize;
    let quota = match args.get_parse::<usize>("quota")? {
        Some(q) => q,
        None => cfg.queue_capacity.div_ceil(tenant_count).max(1),
    };
    cfg.tenants = vec![brsmn_serve::TenantSpec { quota, weight: 1 }; tenant_count];
    if let Some(raw) = args.get("weights") {
        let weights: Vec<u32> = raw
            .split(',')
            .map(|w| w.trim().parse::<u32>().map_err(|e| format!("--weights: {e}")))
            .collect::<Result<_, _>>()?;
        if weights.len() != tenant_count {
            return Err(format!(
                "--weights: got {} entries for {tenant_count} tenant(s)",
                weights.len()
            ));
        }
        for (spec, w) in cfg.tenants.iter_mut().zip(weights) {
            spec.weight = w;
        }
    }
    let cache_load = args.get("cache-load").map(str::to_string);
    let cache_save = args.get("cache-save").map(str::to_string);
    cfg.plan_cache = match args.get_parse::<usize>("plan-cache")? {
        Some(cap) => cap,
        // Snapshot flags imply a cache at the default capacity.
        None if cache_load.is_some() || cache_save.is_some() => 256,
        None => cfg.plan_cache,
    };

    // Snapshot persistence holds the cache outside the server so the
    // working set can be loaded before serving and saved after.
    let cache: Option<Arc<PlanCache>> = if cfg.plan_cache > 0
        && (cache_load.is_some() || cache_save.is_some())
    {
        let cache = Arc::new(PlanCache::new(cfg.plan_cache));
        if let Some(path) = &cache_load {
            let loaded = load_cache_snapshot(&cache, path)?;
            eprintln!("plan cache: warm-started with {loaded} plan(s) from {path}");
        }
        Some(cache)
    } else {
        None
    };

    let plan_cache = cfg.plan_cache;
    let report = match &cache {
        Some(cache) => {
            serve_trace_warm(cfg, &trace, Arc::clone(cache)).map_err(|e| e.to_string())?
        }
        None => serve_trace(cfg, &trace).map_err(|e| e.to_string())?,
    };

    if plan_cache > 0 {
        eprintln!(
            "plan cache: {} hits ({} canonical), {} misses, {} snapshot-loaded",
            report.engine.plan_hits,
            report.engine.plan_canonical_hits,
            report.engine.plan_misses,
            report.engine.plan_snapshot_loaded
        );
    }
    if let (Some(cache), Some(path)) = (&cache, &cache_save) {
        let saved = save_cache_snapshot(cache, path)?;
        eprintln!("plan cache: {saved} plan(s) saved to {path}");
    }

    eprintln!(
        "served {}/{} requests ({} drained, {} rejected) on {} shard(s), backend `{}`: \
         {:.1} frames/s, p99 {} ns",
        report.served_ok + report.served_err,
        report.submitted,
        report.drained,
        report.rejected,
        report.shards,
        report.backend,
        report.frames_per_sec,
        report.latency.p99_ns,
    );
    for t in &report.tenants {
        eprintln!(
            "tenant {}: {} submitted, {} served, {} rejected \
             ({} quota, {} deadline), peak queue {}/{} (weight {})",
            t.tenant,
            t.submitted,
            t.served_ok + t.served_err,
            t.rejected,
            t.rejections.quota_exceeded,
            t.rejections.deadline_exceeded,
            t.max_queued,
            t.quota,
            t.weight,
        );
    }
    // Order-independent digest of every delivered output; two replays of
    // the same trace must print the same hash (the CI determinism gate
    // diffs this line).
    eprintln!("output-hash: {:#018x}", report.output_hash);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );

    if !report.conserves() {
        return Err("serving conservation law violated".into());
    }
    if !report.quotas_respected() {
        return Err("per-tenant quota exceeded".into());
    }
    if report.served_err > 0 {
        return Err(format!("{} request(s) failed to route", report.served_err));
    }
    Ok(())
}

/// `cluster-sim`: one scripted fault campaign over the simulated
/// distributed control plane, with every invariant checked — the CLI face
/// of [`brsmn_cluster::run_campaign`].
fn cmd_cluster_sim(args: &Args) -> Result<(), String> {
    let seed: u64 = args.get_parse("seed")?.unwrap_or(1);
    let mut spec = CampaignSpec::default_at(seed);
    if let Some(n) = args.get_parse::<usize>("n")? {
        if !n.is_power_of_two() || n < 2 {
            return Err(format!("n must be a power of two >= 2, got {n}"));
        }
        spec.n = n;
    }
    if let Some(k) = args.get_parse::<usize>("nodes")? {
        if k == 0 {
            return Err("--nodes must be >= 1".into());
        }
        spec.nodes = k;
    }
    if let Some(t) = args.get_parse::<u64>("ticks")? {
        spec.ticks = t;
    }
    if let Some(p) = args.get_parse::<f64>("drop")? {
        if !(0.0..1.0).contains(&p) {
            return Err(format!("--drop must be in [0, 1), got {p}"));
        }
        spec.drop_p = p;
    }
    if let Some(c) = args.get_parse::<usize>("inbox")? {
        spec.inbox_capacity = c.max(1);
    }
    if let Some(f) = args.get_parse::<usize>("frames")? {
        spec.frames = f;
    }
    if let Some(i) = args.get_parse::<usize>("invalidations")? {
        spec.invalidations = i;
    }
    if let Some(t) = args.get_parse::<u64>("settle")? {
        spec.settle_ticks = t;
    }
    // Windows parse as comma lists; `--partition none` / `--crash none`
    // clear the default windows.
    let parse_window = |raw: &str, what: &str| -> Result<Vec<u64>, String> {
        raw.split(',')
            .map(|v| v.trim().parse::<u64>().map_err(|e| format!("--{what}: {e}")))
            .collect()
    };
    if let Some(raw) = args.get("partition") {
        if raw == "none" {
            spec.partition = None;
        } else {
            let w = parse_window(raw, "partition")?;
            if w.len() != 2 || w[0] >= w[1] {
                return Err("--partition wants START,END with START < END".into());
            }
            spec.partition = Some((w[0], w[1]));
        }
    }
    if let Some(raw) = args.get("crash") {
        if raw == "none" {
            spec.crash = None;
        } else {
            let w = parse_window(raw, "crash")?;
            if w.len() != 3 || w[1] >= w[2] {
                return Err("--crash wants NODE,START,END with START < END".into());
            }
            if w[0] as usize >= spec.nodes {
                return Err(format!("--crash: node {} out of range", w[0]));
            }
            spec.crash = Some((w[0] as usize, w[1], w[2]));
        }
    }
    if let Some(k) = args.get_parse::<usize>("remove-node")? {
        if k >= spec.nodes {
            return Err(format!("--remove-node: node {k} out of range"));
        }
        spec.remove_node = Some(k);
    }
    if spec.nodes == 1 {
        // A single node has no peers to partition from or reconcile with.
        spec.partition = None;
        spec.crash = None;
    }

    let report = run_campaign(&spec).map_err(|e| e.to_string())?;

    eprintln!(
        "cluster-sim: {} node(s) x n={} over {} tick(s), drop {:.0}%, inbox {}: {} msg(s) sent, {} dropped, {} backpressure tick(s)",
        report.nodes,
        report.n,
        report.ticks_run,
        report.drop_p * 100.0,
        report.inbox_capacity,
        report.messages_sent,
        report.messages_dropped,
        report.backpressure_ticks,
    );
    eprintln!(
        "cluster-sim: epoch {}, members {:?}, {} frame(s) compared, trace-digest {:#018x}, state-digest {:#018x}",
        report.final_epoch,
        report.final_members,
        report.frames_compared,
        report.trace_digest,
        report.state_digest,
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );

    if !report.converged {
        return Err("cluster failed to converge within the settle budget".into());
    }
    if !report.single_leader {
        return Err("split leadership after heal".into());
    }
    if report.lost_invalidations > 0 {
        return Err(format!(
            "{} cache invalidation(s) lost",
            report.lost_invalidations
        ));
    }
    if !report.decided_logs_consistent {
        return Err("split brain: two nodes decided different views for one epoch".into());
    }
    if report.routing_divergence > 0 {
        return Err(format!(
            "{} frame(s) diverged from the sharded oracle",
            report.routing_divergence
        ));
    }
    Ok(())
}

fn cmd_seq(args: &Args) -> Result<(), String> {
    let n: usize = args.get_parse("n")?.ok_or("--n is required")?;
    let dests_raw = args.get("dests").ok_or("--dests is required")?;
    let mut dests: Vec<usize> = dests_raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().map_err(|e| format!("dest `{s}`: {e}")))
        .collect::<Result<_, _>>()?;
    dests.sort_unstable();
    dests.dedup();
    let tree = TagTree::from_dests(n, &dests).map_err(|e| e.to_string())?;
    println!("multicast {{{dests_raw}}} on an {n}×{n} network");
    for i in 1..=tree.depth() {
        let tags: Vec<String> = (0..(1usize << (i - 1)))
            .map(|k| tree.tag(i, k).to_string())
            .collect();
        println!("  level {i}: {}", tags.join(" "));
    }
    let seq = tree.to_seq();
    println!("SEQ = {seq}  ({} tags, {} header bits)", seq.len(), seq.len() * 3);
    Ok(())
}
