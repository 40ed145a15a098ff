//! `suite`: every workload several times, each run a fresh process with
//! its own seed, collected into one file. `compare`: two such files held
//! against the bounds of `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::spec;
use crate::stats;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// What `compare` says about one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound, and the
    /// two sides overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B's median is worse (negative: better).
pub fn worse_by(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    }
}

/// The verdict on B (the change) against A (the base). A spread wider
/// than the bound makes the pair unresolved, unless every run of B reads
/// better than every run of A.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let b_wins_every_pair = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if b_wins_every_pair {
        Verdict::Ok
    } else if stats::spread(a) > bound || stats::spread(b) > bound {
        Verdict::Unresolved
    } else if worse_by(a, b, better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Member `key` of a JSON object.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(f) => Some(f),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

/// `name → (better, bound)` of the end-to-end metrics, from
/// `BENCHMARK.json`.
fn bounds(root: &Path) -> Result<Vec<(String, Better, f64)>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Array(metrics)) = field(&doc, "end_to_end") else {
        return Err(format!("{} has no end_to_end list", path.display()));
    };
    metrics
        .iter()
        .map(|m| {
            let name = match field(m, "name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err("end_to_end metric without a name".to_string()),
            };
            let better = match field(m, "better") {
                Some(Value::Str(s)) if s == "lower" => Better::Lower,
                Some(Value::Str(s)) if s == "higher" => Better::Higher,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = field(m, "bound")
                .and_then(number)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name, better, bound))
        })
        .collect()
}

/// `workload → metric → one value per run`, as `suite` wrote it.
type Results = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_results(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let results = field(&doc, "results")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path} has no results object"))?;
    let mut out = Results::new();
    for (workload, metrics) in results {
        let metrics = metrics
            .as_object()
            .ok_or_else(|| format!("{path}: results.{workload} is not an object"))?;
        for (metric, values) in metrics {
            let Value::Array(values) = values else {
                return Err(format!("{path}: results.{workload}.{metric} is not a list"));
            };
            let values: Option<Vec<f64>> = values.iter().map(number).collect();
            out.entry(workload.clone()).or_default().insert(
                metric.clone(),
                values.ok_or_else(|| format!("{path}: {workload}.{metric} holds a non-number"))?,
            );
        }
    }
    Ok(out)
}

/// `compare A.json B.json`: one row per (end-to-end metric, workload).
/// Returns whether no pair came out worse.
pub fn main(argv: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = argv else {
        return Err("compare needs two result files: A.json B.json".to_string());
    };
    let (a, b) = (read_results(a_path)?, read_results(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr%", "B iqr%", "bound"
    );
    for (metric, better, bound) in bounds(&crate::run::repo_root())? {
        for w in spec::WORKLOADS {
            let side = |r: &Results, path: &str| {
                r.get(w.name)
                    .and_then(|m| m.get(&metric))
                    .filter(|v| !v.is_empty())
                    .cloned()
                    .ok_or_else(|| format!("{path} has no {metric} for {}", w.name))
            };
            let (xa, xb) = (side(&a, a_path)?, side(&b, b_path)?);
            let verdict = verdict(&xa, &xb, better, bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&xa), stats::median(&xb));
            println!(
                "{:<14} {:<16} {:>14.4} {:>14.4} {:>8.4} {:>7.2} {:>7.2} {:>5.0}%  {}",
                w.name,
                metric,
                ma,
                mb,
                if ma == 0.0 { 0.0 } else { mb / ma },
                100.0 * stats::spread(&xa),
                100.0 * stats::spread(&xb),
                100.0 * bound,
                verdict.label()
            );
        }
    }
    println!(
        "# B/A is B's median over A's median (base: A); iqr% is (q3 - q1) / median of the runs"
    );
    Ok(!any_worse)
}

/// What `suite` writes.
#[derive(Debug, serde::Serialize)]
struct SuiteFile {
    runs: u64,
    seconds: f64,
    first_seed: u64,
    quick: bool,
    /// Correctness failures per workload, summed over its runs.
    failed: BTreeMap<String, u64>,
    results: Results,
}

/// Pulls `{correct, failed, metrics: {name: {value}}}` out of a run's
/// last line of standard output.
fn parse_result_line(stdout: &str) -> Result<(u64, Vec<(String, f64)>), String> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = serde_json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let failed = field(&doc, "failed")
        .and_then(number)
        .ok_or("result line has no failed count")? as u64;
    let metrics = field(&doc, "metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            field(m, "value")
                .and_then(number)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<_, _>>()?;
    Ok((failed, metrics))
}

/// Runs every workload `runs` times with tracing off — run `r` with seed
/// `first_seed + r` — and writes every run's end-to-end metrics to `out`.
/// Returns whether every run passed its correctness gates.
pub fn suite(
    out: &Path,
    runs: usize,
    first_seed: u64,
    seconds: f64,
    quick: bool,
) -> Result<bool, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut file = SuiteFile {
        runs: runs as u64,
        seconds,
        first_seed,
        quick,
        failed: BTreeMap::new(),
        results: Results::new(),
    };
    for w in spec::WORKLOADS {
        for r in 0..runs as u64 {
            let mut command = Command::new(&me);
            command
                .args(["--workload", w.name, "--trace", "0"])
                .args(["--seed", &(first_seed + r).to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if quick {
                command.arg("--quick");
            }
            let output = command
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a run of {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (failed, metrics) = parse_result_line(&stdout)
                .map_err(|e| format!("{} seed {}: {e}", w.name, first_seed + r))?;
            *file.failed.entry(w.name.to_string()).or_default() += failed;
            for (name, value) in metrics {
                file.results
                    .entry(w.name.to_string())
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
            eprintln!("suite: {} run {}/{runs} done", w.name, r + 1);
        }
        for (name, values) in file.results.get(w.name).into_iter().flatten() {
            println!("{:<14} {name:<16} {}", w.name, stats::describe(values));
        }
    }
    let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
    std::fs::write(out, text + "\n").map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    Ok(file.failed.values().all(|n| *n == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_100: [f64; 5] = [99.0, 100.0, 100.0, 100.5, 101.0];

    fn scaled(xs: &[f64], k: f64) -> Vec<f64> {
        xs.iter().map(|x| x * k).collect()
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let b = scaled(&TIGHT_100, 1.04);
        assert_eq!(verdict(&TIGHT_100, &b, Better::Lower, 0.05), Verdict::Ok);
        let b = scaled(&TIGHT_100, 0.96);
        assert_eq!(verdict(&TIGHT_100, &b, Better::Higher, 0.05), Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_is_worse_and_direction_matters() {
        let slower = scaled(&TIGHT_100, 1.08);
        assert_eq!(
            verdict(&TIGHT_100, &slower, Better::Lower, 0.05),
            Verdict::Worse
        );
        // The same numbers as a rate are an improvement.
        assert_eq!(
            verdict(&TIGHT_100, &slower, Better::Higher, 0.05),
            Verdict::Ok
        );
        let fewer = scaled(&TIGHT_100, 0.90);
        assert_eq!(
            verdict(&TIGHT_100, &fewer, Better::Higher, 0.05),
            Verdict::Worse
        );
        assert!((worse_by(&TIGHT_100, &fewer, Better::Higher) - 0.10).abs() < 1e-12);
        assert!((worse_by(&TIGHT_100, &slower, Better::Lower) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_b_wins_every_pair() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        // Median 8 % worse, but the runs are spread over 30 %.
        let b = scaled(&noisy, 1.08);
        assert_eq!(
            verdict(&noisy, &b, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // A noisy B against a tight A cannot be called either.
        assert_eq!(
            verdict(&TIGHT_100, &noisy, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // Every run of B below every run of A: better, however noisy.
        let b = scaled(&noisy, 0.5);
        assert_eq!(verdict(&noisy, &b, Better::Lower, 0.05), Verdict::Ok);
        let b = scaled(&noisy, 2.0);
        assert_eq!(verdict(&noisy, &b, Better::Higher, 0.05), Verdict::Ok);
    }

    #[test]
    fn the_result_line_is_the_last_line_of_standard_output() {
        let stdout = "# header\nsetup_s = 1 s\n\
            {\"correct\":true,\"attempted\":3,\"failed\":1,\"metrics\":{\
            \"setup_s\":{\"value\":1.5,\"unit\":\"s\"},\
            \"lines_per_s\":{\"value\":200,\"unit\":\"lines/s\"}}}\n";
        let (failed, metrics) = parse_result_line(stdout).expect("parses");
        assert_eq!(failed, 1);
        assert_eq!(
            metrics,
            [
                ("setup_s".to_string(), 1.5),
                ("lines_per_s".to_string(), 200.0)
            ]
        );
        assert!(parse_result_line("no json here\n").is_err());
    }
}
