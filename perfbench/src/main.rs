//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --steady RUNS [--workload NAME]... [--seconds S] [--first-seed N]
//! ```
//!
//! The first form runs one workload and prints, as its last line, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Notes
//! go to standard error; the traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. The exit code is non-zero
//! when an output check fails.
//!
//! The second form is the steadiness mode: it runs each workload `RUNS`
//! times on consecutive seeds (as child processes, so each run's memory
//! high-water mark is its own) and prints every end-to-end metric's
//! run-to-run spread beside its bound from `BENCHMARK.json`.

mod calib;
mod fit;
mod inputs;
mod report;
mod serve;
mod stats;
mod steady;
mod trace;

use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["fit-cc", "fit-indep", "serve-stream", "serve-routed"];

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    steady: Option<usize>,
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         perfbench --steady RUNS [--workload NAME]... [--seconds S] [--first-seed N]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        steady: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])));
        let number = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{} takes a whole number", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => args.workloads.push(value.clone()),
            "--seed" | "--first-seed" => args.seed = number(),
            "--seconds" => args.seconds = Some(number().max(1)),
            "--trace" => args.trace = number() != 0,
            "--steady" => args.steady = Some(number() as usize),
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    for w in &args.workloads {
        if !WORKLOADS.contains(&w.as_str()) {
            usage(&format!("unknown workload {w}"));
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(runs) = args.steady {
        return steady::run(&args.workloads, runs, args.seed, args.seconds);
    }
    let [workload] = args.workloads.as_slice() else {
        usage("give exactly one --workload");
    };
    let seconds = args.seconds.unwrap_or(10);
    let report = match workload.as_str() {
        "fit-cc" => fit::run(
            fit::Kind::CorrelationComplete,
            args.seed,
            seconds,
            args.trace,
        ),
        "fit-indep" => fit::run(fit::Kind::Independence, args.seed, seconds, args.trace),
        "serve-stream" => serve::run(false, args.seed, seconds, args.trace),
        "serve-routed" => serve::run(true, args.seed, seconds, args.trace),
        _ => unreachable!("validated in parse_args"),
    };
    for note in &report.notes {
        eprintln!("perfbench {workload}: {note}");
    }
    for why in &report.checks_failed {
        eprintln!("perfbench {workload}: CHECK FAILED: {why}");
    }
    println!("{}", report.json_line());
    if report.checks_failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
