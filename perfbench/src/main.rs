//! Command-line entry point; see the crate docs for the flags.

use brsmn_perfbench::{run, Args, Scale, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Spans go beside the executable, inside the build directory.
    let spans_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("spans")));
    let outcome = match run(&args, &Scale::full(), spans_dir.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "perfbench: {} seed {} trace {}: attempted {} failed {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    for (name, unit, value) in outcome.metrics.iter() {
        eprintln!("  {name:<32} {value:>16.4} {unit}");
    }
    for (name, value) in &outcome.notes {
        eprintln!("  ({name:<30} {value:>16.4})");
    }
    for p in &outcome.problems {
        eprintln!("perfbench: output check failed: {p}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
