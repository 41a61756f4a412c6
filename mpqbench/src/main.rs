//! `mpqbench`: the end-to-end and per-layer benchmark of the MPQ optimizer
//! stack. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! mpqbench [--workload NAME[,NAME..]] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--only` is a synonym of `--workload`. Without a workload every
//! workload runs, each in its own child process (peak memory is
//! per process). Prints one line per metric, then the result object as
//! the last line; exits 1 on a wrong answer, 2 on bad usage.

mod check;
mod common;
mod fig12;
mod openloop;
mod procfs;
mod report;
mod serve;
mod stats;
mod trace;
mod wire;

use common::Opts;
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = ["fig12", "fig12-par", "serve-hot", "wire-cold"];

const USAGE: &str = "usage: mpqbench [--workload fig12|fig12-par|serve-hot|wire-cold[,..]] \
                     [--only ..] [--seed N] [--seconds S] [--trace 0|1]";

struct Cli {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--only" => {
                for w in value()?.split(',') {
                    if !WORKLOADS.contains(&w) {
                        return Err(format!("unknown workload {w}"));
                    }
                    cli.workloads.push(w.to_string());
                }
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cli.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(cli)
}

/// The run's environment, printed with every result.
fn environment() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let nproc = procfs::cpus_allowed().map_or("unknown".to_string(), |n| n.to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!("env: nproc {nproc}, available_parallelism {parallelism}, profile {profile}, RAYON_NUM_THREADS unset")
}

fn run_one(opts: &Opts) -> ExitCode {
    let mut report = match opts.workload.as_str() {
        "fig12" => fig12::run_workload(opts, false),
        "fig12-par" => fig12::run_workload(opts, true),
        "serve-hot" => serve::run_workload(opts),
        "wire-cold" => wire::run_workload(opts),
        other => unreachable!("workload {other} was validated by the parser"),
    };
    report.info.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {}",
            opts.workload, opts.seed, opts.seconds, opts.trace as u8
        ),
    );
    report.info.insert(1, environment());
    let (text, correct) = report.render(opts.trace);
    print!("{text}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("mpqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The thread count must come from the machine: the variable would hide
    // what the library default costs (see `fig12-par`).
    if std::env::var_os("RAYON_NUM_THREADS").is_some() {
        eprintln!("mpqbench: refusing to run with RAYON_NUM_THREADS set; unset it");
        return ExitCode::from(2);
    }
    if let [workload] = cli.workloads.as_slice() {
        return run_one(&Opts {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
        });
    }
    // Several workloads: one child process each.
    let exe = std::env::current_exe().expect("own executable path");
    let mut worst = 0u8;
    for w in &cli.workloads {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .status()
            .expect("spawn workload process");
        let code = status.code().map_or(1, |c| c.clamp(0, 255) as u8);
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}
