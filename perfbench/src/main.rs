//! Seeded benchmark of the PatchIndex engine served by `pi-server`, and
//! of `DurableWriter`. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <dashboard|analytic|ingest|durable_ingest|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays the
//! same seeded request stream in-process with spans around every layer
//! call and reports per-layer metrics. The last line of standard output
//! is the JSON result.

mod data;
mod durable;
mod replay;
mod report;
mod served;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use data::{Model, RowGen};
use report::Report;
use workload::{Workload, DURABLE_ROWS, PARTS, SERVED_ROWS, SHARDS};

struct Args {
    /// The workloads to run in turn (`all` runs every one).
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Generates the workload's inputs from the seed, runs it and reports.
fn run(workload: Workload, args: &Args) -> bool {
    println!(
        "perfbench workload={workload:?} seed={} seconds={} trace={} available_parallelism={}",
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut report = Report::new();
    if workload == Workload::DurableIngest {
        let rows = RowGen::new(args.seed, 1, 0, 1).rows(DURABLE_ROWS);
        let model = Model::load(&rows, 1, PARTS);
        if args.trace {
            durable::run_traced(args.seed, args.seconds, &model, &mut report);
        } else {
            durable::run(args.seed, args.seconds, &model, &mut report);
        }
    } else {
        let rows = RowGen::new(args.seed, 1, 0, 1).rows(SERVED_ROWS);
        let model = Model::load(&rows, SHARDS, PARTS);
        if args.trace {
            replay::run_served_traced(workload, args.seed, args.seconds, &model, &mut report);
        } else {
            served::run(workload, args.seed, args.seconds, &model, &mut report);
        }
    }
    report.print();
    report.correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for &workload in &args.workloads {
        correct &= run(workload, &args);
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
