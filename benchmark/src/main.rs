//! The lifecycle benchmark of the ftspan stack; see `README.md`.
//!
//! `ftspan-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! prints tables and, as the last line of standard output, one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod layers;
mod lifecycle;
mod metrics;
mod report;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::{quick, spec, NOMINAL_SECONDS, WORKLOADS};

/// The seed of a run that names none.
const DEFAULT_SEED: u64 = 20_200_803;

const USAGE: &str = "usage: ftspan-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--quick] [--selfcheck <runs>]
  --workload   dense_build | cold_grid | hot_wire | shard_churn (default: each in turn)
  --seed       seed of the traffic: fault sets, read streams, wave scripts, probes
  --seconds    scales the number of lifecycles (default 20)
  --trace 1    record spans, run the layer probes, print the ladders
  --quick      one lifecycle, one pass of everything: checks only
  --selfcheck  run everything <runs> times (>= 10) and compare two sets of runs";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    selfcheck: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        quick: false,
        selfcheck: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => {
                args.selfcheck = Some(
                    value("a run count")?
                        .parse()
                        .map_err(|e| format!("--selfcheck: {e}"))?,
                );
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec(name).is_none() {
            return Err(format!("unknown workload {name}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.selfcheck {
        if runs < 10 {
            eprintln!("--selfcheck needs at least 10 runs\n{USAGE}");
            return ExitCode::from(2);
        }
        return if selfcheck::selfcheck(runs, args.seed, args.seconds) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut correct = true;
    for name in names {
        let mut spec = spec(name).expect("validated by parse");
        if args.quick {
            spec = quick(spec);
        }
        let lifecycles = match (args.quick, args.trace) {
            (true, false) => 1,
            (true, true) => 2,
            (false, true) => run::TRACE_LIFECYCLES,
            (false, false) => spec.lifecycles_for(args.seconds),
        };
        let outcome = run::run(&spec, args.seed, args.seconds, args.trace, lifecycles);
        if args.quick {
            eprintln!(
                "digest {name} {:016x}",
                outcome
                    .digests
                    .iter()
                    .fold(0u64, |a, d| a.rotate_left(7) ^ d)
            );
        }
        correct &= outcome.correct;
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
