//! The repo benchmark: six pinned workloads through the shipped `logdiver`
//! and `logdiver-serve` binaries, plus a per-layer traced run.
//!
//! ```text
//! logdiver-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! logdiver-benchmark [--seed N] [--seconds S] [--trace 0|1] [--quick]   (all six)
//! logdiver-benchmark suite --out FILE [--runs N] [--seed N] [--seconds S] [--quick]
//! logdiver-benchmark compare A.json B.json
//! ```
//!
//! A run prints a report and, as the last line of standard output, one
//! JSON object `{correct, attempted, failed, metrics}`; it exits non-zero
//! when a correctness gate fails. See `benchmark/README.md`.

mod cli;
mod compare;
mod corpus;
mod layers;
mod run;
mod spec;
mod stats;
mod sys;
mod trace;
mod wire;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use run::{repo_root, Ctx, Outcome};
use spec::{Kind, Workload};

const USAGE: &str = "\
usage: logdiver-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
       logdiver-benchmark suite --out FILE [--runs N] [--seed N] [--seconds S] [--quick]
       logdiver-benchmark compare A.json B.json

  --workload NAME  one of batch_noise batch_runs stream_noise stream_runs
                   serve_chatter serve_bulk (default: all six in turn)
  --seed N         corpus seed (default 2013)
  --seconds S      how long the timed iterations go on (default 8)
  --trace 0|1      0: end-to-end metrics through the shipped binaries;
                   1: per-layer metrics from an in-process traced run
  --quick          smoke run: corpora at a twentieth of the size, one
                   set-up and one iteration, every correctness gate on
  suite            every workload --runs times (default 10), each run a
                   fresh process with its own seed; writes FILE for compare
  compare          per (end-to-end metric, workload): both medians, their
                   ratio, the bound, and ok / worse / unresolved";

/// The options of a run, as given.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    runs: usize,
}

fn parse_options(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: 2013,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
        runs: 10,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            opts.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("option {flag} needs a value"))?;
        let number = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| number("a whole number"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| number("a number"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(number("a number of seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(number("0 or 1")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            "--runs" => {
                opts.runs = value.parse().map_err(|_| number("a whole number"))?;
                if opts.runs == 0 {
                    return Err(number("at least 1"));
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(opts)
}

/// Builds `logdiver` and `logdiver-serve` from the checkout's source into
/// the target directory this executable was built into, and returns the
/// directory holding them. A no-op when they are up to date.
fn build_binaries() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = me
        .parent()
        .ok_or("the harness executable has no directory")?
        .to_path_buf();
    let target_dir = bin_dir
        .parent()
        .ok_or("the harness executable is not inside a cargo target directory")?;
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "logdiver-cli", "-p", "logdiver-serve"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdin(Stdio::null())
        // Standard output is the result channel: nothing of cargo's may
        // land on it. Its diagnostics go to standard error.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the logdiver binaries failed: {status}"));
    }
    for name in ["logdiver", "logdiver-serve"] {
        if !bin_dir.join(name).is_file() {
            return Err(format!("{} was not built", bin_dir.join(name).display()));
        }
    }
    Ok(bin_dir)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(repo_root())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

#[derive(Debug, serde::Serialize)]
struct MetricValue {
    value: f64,
    unit: String,
}

/// The result line the driver reads.
#[derive(Debug, serde::Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

impl ResultLine {
    /// Every metric of `units`, in the outcome's value or 0 where the
    /// workload does not run that layer.
    fn new(outcome: &Outcome, units: &[(&str, &str)]) -> Self {
        let metrics = units
            .iter()
            .map(|(name, unit)| {
                let value = outcome
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, v)| *v);
                let unit = unit.to_string();
                (name.to_string(), MetricValue { value, unit })
            })
            .collect();
        ResultLine {
            correct: outcome.failed == 0,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics,
        }
    }
}

/// Runs one workload and prints its report and result line. Returns
/// whether every correctness gate passed.
fn run_workload(workload: Workload, opts: &Options, bin_dir: &Path) -> Result<bool, String> {
    let host_cpus = sys::allowed_cpus().as_ref().map_or(0, sys::cpu_count);
    let pinned = sys::pin_to_first_cpu();
    let work = repo_root()
        .join("benchmark/work")
        .join(format!("{}-{}", workload.name, opts.seed));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ctx = Ctx {
        workload,
        seed: opts.seed,
        seconds: if opts.quick { 0.0 } else { opts.seconds },
        quick: opts.quick,
        bin_dir: bin_dir.to_path_buf(),
        work: work.clone(),
        host_cpus,
        pinned,
    };

    println!(
        "# workload={} trace={} seed={} seconds={} quick={}",
        workload.name, opts.trace as u8, opts.seed, ctx.seconds, opts.quick
    );
    println!(
        "# git_rev={} host_cpus={} pinned={}",
        git_rev(),
        host_cpus,
        match pinned {
            Some((cpu, _)) => format!("cpu{cpu}"),
            None =>
                "no (sched_setaffinity unavailable: numbers include scheduler noise)".to_string(),
        }
    );

    let result = match (opts.trace, workload.kind) {
        (true, _) => layers::run(&ctx),
        (false, Kind::Serve) => wire::run(&ctx),
        (false, _) => cli::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Some((_, before)) = pinned {
        sys::set_allowed_cpus(&before);
    }
    let outcome = result?;

    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.failures {
        println!("# FAILED: {failure}");
    }
    let units = if opts.trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    };
    for (name, unit) in units {
        if let Some((_, value)) = outcome.metrics.iter().find(|(n, _)| n == name) {
            println!("{name} = {value} {unit}");
        }
    }
    println!(
        "# attempted={} failed={} failed_share={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let line =
        serde_json::to_string(&ResultLine::new(&outcome, units)).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(outcome.failed == 0)
}

fn run_command(argv: &[String]) -> Result<bool, String> {
    let opts = parse_options(argv)?;
    if opts.out.is_some() {
        return Err("--out belongs to the suite subcommand".to_string());
    }
    let workloads: Vec<Workload> = match &opts.workload {
        Some(name) => {
            vec![spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?]
        }
        None => spec::WORKLOADS.to_vec(),
    };
    let bin_dir = build_binaries()?;
    let mut all_correct = true;
    for workload in workloads {
        all_correct &= run_workload(workload, &opts, &bin_dir)?;
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("child-run") => run::child_run_main(&argv[1..]).map(|()| true),
        Some("compare") => compare::main(&argv[1..]),
        Some("suite") => parse_options(&argv[1..]).and_then(|opts| {
            compare::suite(
                opts.out
                    .as_deref()
                    .ok_or("suite needs --out FILE to write")?,
                opts.runs,
                opts.seed,
                opts.seconds,
                opts.quick,
            )
        }),
        _ => run_command(&argv),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("logdiver-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let opts = parse_options(&argv(&[
            "--workload",
            "serve_bulk",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(opts.workload.as_deref(), Some("serve_bulk"));
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 8.0, true));
        assert!(!opts.quick);
    }

    #[test]
    fn bad_options_are_refused() {
        assert!(parse_options(&argv(&["--trace", "2"])).is_err());
        assert!(parse_options(&argv(&["--seconds", "-1"])).is_err());
        assert!(parse_options(&argv(&["--seed"])).is_err());
        assert!(parse_options(&argv(&["--runs", "0"])).is_err());
        assert!(parse_options(&argv(&["--bogus", "1"])).is_err());
    }

    #[test]
    fn a_result_line_carries_every_named_metric() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.metric("setup_s", 1.25);
        let line = ResultLine::new(&outcome, &[("setup_s", "s"), ("lines_per_s", "lines/s")]);
        let text = serde_json::to_string(&line).expect("serializes");
        assert_eq!(
            text,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"lines_per_s\":{\"value\":0.0,\"unit\":\"lines/s\"},\
             \"setup_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }
}
