//! The ADAMANT reproduction's benchmark: six workloads, two clocks.
//!
//! ```text
//! adamant-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's call)
//! adamant-benchmark [--runs K] [--tsv FILE] [--smoke] ...           every workload, each run a child process
//! adamant-benchmark spread FILE                                     spreads of one result file against the bounds
//! adamant-benchmark compare PARENT CHANGE                           a change against its parent; exit 1 on a regression
//! adamant-benchmark describe                                        BENCHMARK.json, generated from the metric tables
//! adamant-benchmark glossary                                        the README's metric glossary, from the same tables
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod compare;
mod json;
mod metrics;
mod oracle;
mod probes;
mod run;
mod summary;
mod tally;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Default `--seed`: the catalog seed every experiment binary uses.
const DEFAULT_SEED: u64 = 0xADA;
/// `run_seconds` of `BENCHMARK.json`, and the default `--seconds`.
const RUN_SECONDS: u64 = 12;

/// Flags shared by a single run and a run of every workload.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    tsv: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("`{s}` is not an unsigned integer"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        runs: 1,
        tsv: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => f.workload = Some(value()?.clone()),
            "--seed" => f.seed = parse_u64(value()?)?,
            "--seconds" => {
                let v = value()?;
                f.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=600.0).contains(s))
                    .ok_or_else(|| format!("--seconds `{v}` is not within 0..=600"))?;
            }
            "--trace" => {
                f.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--runs" => f.runs = parse_u64(value()?)?.clamp(1, 100),
            "--tsv" => f.tsv = Some(PathBuf::from(value()?)),
            "--smoke" => f.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(f)
}

/// One workload, in this process.
fn run_one(f: &Flags, name: &str) -> Result<bool, String> {
    let spec = workload::spec(name).ok_or_else(|| {
        let known: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload `{name}`; known: {}", known.join(", "))
    })?;
    let outcome = run::run(&run::Options {
        spec,
        seed: f.seed,
        seconds: f.seconds,
        trace: f.trace,
        smoke: f.smoke,
        tsv: f.tsv.clone(),
    })?;
    Ok(outcome.correct)
}

/// Every workload, each run in a child process of its own, so that set-up
/// time and peak memory are one workload's: `--runs` untraced runs on
/// successive seeds, then one traced run.
fn run_all(f: &Flags) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut all_correct = true;
    for name in workload::SPECS.iter().map(|s| s.name) {
        for (seed, trace) in (0..f.runs)
            .map(|i| (f.seed + i, "0"))
            .chain([(f.seed, "1")])
        {
            let mut child = Command::new(&exe);
            child.args([
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--trace",
                trace,
            ]);
            child.args(["--seconds", &f.seconds.to_string()]);
            if f.smoke {
                child.arg("--smoke");
            }
            if let (Some(tsv), "0") = (&f.tsv, trace) {
                child.arg("--tsv").arg(tsv);
            }
            // The child inherits stdout and stderr; waiting for its status
            // is what ends it before the next one starts.
            let status = child
                .status()
                .map_err(|e| format!("cannot start a run of {name}: {e}"))?;
            all_correct &= status.success();
        }
    }
    if let Some(tsv) = &f.tsv {
        let text = std::fs::read_to_string(tsv).map_err(|e| format!("{}: {e}", tsv.display()))?;
        compare::print_spreads(&compare::parse(&text)?);
    }
    Ok(all_correct)
}

fn read_results(path: &str) -> Result<compare::Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    compare::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("describe") => {
            print!("{}", metrics::benchmark_json(RUN_SECONDS));
            Ok(true)
        }
        Some("glossary") => {
            print!("{}", metrics::glossary());
            Ok(true)
        }
        Some("spread") => {
            let [_, file] = args else {
                return Err("usage: spread FILE".into());
            };
            Ok(compare::print_spreads(&read_results(file)?) == 0)
        }
        Some("compare") => {
            let [_, parent, change] = args else {
                return Err("usage: compare PARENT CHANGE".into());
            };
            let rows = compare::compare(&read_results(parent)?, &read_results(change)?);
            if rows.is_empty() {
                return Err("the two files share no (end-to-end metric, workload) pair".into());
            }
            Ok(compare::print_comparison(&rows) == 0)
        }
        _ => {
            let flags = parse_flags(args)?;
            match &flags.workload {
                Some(name) => run_one(&flags, name),
                None => run_all(&flags),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_call_parses() {
        let f = parse_flags(&args(
            "--workload scan_cold --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(f.workload.as_deref(), Some("scan_cold"));
        assert_eq!(
            (f.seed, f.seconds, f.trace, f.smoke),
            (7, 12.0, true, false)
        );
        let d = parse_flags(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace, d.runs),
            (0xADA, RUN_SECONDS as f64, false, 1)
        );
        assert_eq!(parse_flags(&args("--seed 0xADA")).unwrap().seed, 2778);
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--trace 2",
            "--seed -1",
            "--seconds nan",
            "--seconds",
            "--frobnicate",
            "--seconds 1e9",
        ] {
            assert!(parse_flags(&args(bad)).is_err(), "{bad}");
        }
        assert!(dispatch(&args("--workload nope")).is_err());
        assert!(dispatch(&args("compare only-one")).is_err());
    }
}
