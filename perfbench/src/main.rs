//! The repository benchmark: runs one workload of the BASE reproduction
//! from a seed, checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with the shipped
//! types and no trace sink. `--trace 1` alternates that run with a traced
//! run of the same seed — timing wrappers at every layer boundary, the
//! protocol trace recorded, every delivered payload replayed through the
//! codec and crypto functions — and prints the per-layer metrics. Every
//! run of a seed must agree on the simulated outcome (operation timings,
//! message and byte counts, final replica states); a mismatch fails the
//! run. The last line of standard output is the JSON result; the line
//! before it records the run's context.

mod client;
mod group;
mod ledger;
mod metrics;
mod probe;
mod replay;
mod run;
mod workloads;

use probe::{Plain, Traced};
use run::RunOutcome;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload kv_batch|andrew_hetero|nfs_recovery \
         --seed N --seconds N --trace 0|1"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { return None };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse().ok()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload_name = workload?;
    Some(Args {
        workload: Workload::parse(&workload_name)?,
        workload_name,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
    })
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        return usage();
    };
    ledger::mark_main_thread();
    let plan = workloads::plan(args.workload, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // The first run of each kind only warms the allocator and caches: it
    // is checked like every other run but its host times are not used.
    let mut warmup = vec![run::run::<Plain>(&plan, args.seed, false)];
    if args.trace {
        warmup.push(run::run::<Traced>(&plan, args.seed, true));
    }
    let mut untraced: Vec<RunOutcome> = Vec::new();
    let mut traced: Vec<RunOutcome> = Vec::new();
    // Measure whole rounds while another round still fits in the budget.
    loop {
        let round = Instant::now();
        untraced.push(run::run::<Plain>(&plan, args.seed, false));
        if args.trace {
            traced.push(run::run::<Traced>(&plan, args.seed, true));
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let direct = run::run_direct(&plan, args.seed);
    let report = metrics::Report::new(&plan, &warmup, &untraced, &traced, &direct);
    println!(
        "{}",
        report.context_json(&args.workload_name, args.seed, args.seconds, args.trace)
    );
    println!("{}", report.result_json(args.trace));
    ExitCode::SUCCESS
}
