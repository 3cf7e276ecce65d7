//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--serve-bin PATH]`, run from the repository root (`perfbench/run.sh`
//! builds it and the `serve` binary first).
//!
//! Prints a metric table and, as its last stdout line, one JSON result
//! object. Exits 1 when a correctness check failed (after printing the
//! result with `"correct": false`) and 2 when it could not run at all.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oic_perfbench::env::{describe, refuse_result_knobs};
use oic_perfbench::metrics::check_benchmark_json;
use oic_perfbench::run::{run, work_dir, Args};
use oic_perfbench::workload::Workload;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        serve_bin: value("--serve-bin").ok().map(PathBuf::from),
        work_dir: work_dir(Path::new("."), workload),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--serve-bin PATH]");
            return ExitCode::from(2);
        }
    };
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| check_benchmark_json(&text));
    if let Err(e) = declared.and_then(|()| refuse_result_knobs()) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    eprintln!("{}", describe(Path::new(".")));
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for problem in &outcome.problems {
        eprintln!("CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    match outcome
        .results
        .render(args.trace, correct, outcome.attempted, outcome.failed)
    {
        Ok((table, line)) => {
            print!("{table}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
