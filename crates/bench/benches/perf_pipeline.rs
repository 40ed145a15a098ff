//! P1 — parallel batch-pipeline throughput: end-to-end `analyze` at 1 vs
//! 2/4/8 worker threads on a fixed synthetic corpus, with the per-stage
//! timing breakdown and peak RSS — the throughput story that makes a
//! 5 M-run field study tractable on one machine.
//!
//! Writes `BENCH_pipeline.json` for tracking. With `PIPELINE_BASELINE`
//! set to a committed copy of that file, exits nonzero if any thread
//! point drops below 0.8x the baseline lines/sec — the CI perf smoke
//! gate. With `PARSE_THROUGHPUT_FLOOR` or `FILTER_THROUGHPUT_FLOOR` set
//! (lines/s), exits nonzero when that stage's best-point rate is below it
//! on a host with two or more cpus.

use std::time::Instant;

use bw_bench::banner;
use bw_sim::{MemoryOutput, SimConfig, Simulation};
use logdiver::{Analysis, LogCollection, LogDiver, StageTimings};
use serde::Serialize;

#[derive(Serialize)]
struct ThreadPoint {
    threads: usize,
    lines_per_sec: f64,
    speedup_vs_serial: f64,
    stage_secs: StageTimings,
    peak_rss_kb: u64,
}

#[derive(Serialize)]
struct PipelineBench {
    bench: String,
    total_lines: usize,
    reps: usize,
    /// Cores the host actually offers; speedup saturates here. A ~1.0x
    /// curve on a 1-core host is the hardware ceiling, not a pipeline bug.
    host_cpus: usize,
    /// Parse-stage throughput at the best point — what the zero-copy
    /// parser rewrite is measured by (CI gates it via
    /// `PARSE_THROUGHPUT_FLOOR`).
    parse_lines_per_sec: f64,
    /// Filter-stage throughput at the best point, in syslog lines (the
    /// only lines the filter scans) per second — what the pattern-table
    /// automaton is measured by (CI gates it via
    /// `FILTER_THROUGHPUT_FLOOR`).
    filter_lines_per_sec: f64,
    points: Vec<ThreadPoint>,
}

fn corpus() -> LogCollection {
    // Heavy syslog chatter so parsing + filtering dominate — the stages the
    // worker pool fans out — with enough runs for classify to matter too.
    let mut config = SimConfig::scaled(48, 5).with_seed(77).without_calibration();
    config.noise_lines_per_hour = 3_600.0;
    let mut raw = MemoryOutput::new();
    Simulation::new(config).expect("valid config").run(&mut raw);
    let mut logs = LogCollection::new();
    logs.syslog = raw.syslog;
    logs.hwerr = raw.hwerr;
    logs.alps = raw.alps;
    logs.torque = raw.torque;
    logs.netwatch = raw.netwatch;
    logs
}

/// Peak resident set size of this process so far, in kB (`VmHWM`).
/// Monotone over the process lifetime, so later points include earlier
/// ones; 0 where `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
        .unwrap_or(0)
}

/// The parallel pipeline's whole contract: any thread count, same answer.
fn assert_identical(parallel: &Analysis, serial: &Analysis, threads: usize) {
    assert_eq!(parallel.runs, serial.runs, "{threads}-thread runs differ");
    assert_eq!(
        parallel.events, serial.events,
        "{threads}-thread events differ"
    );
    assert_eq!(
        parallel.metrics, serial.metrics,
        "{threads}-thread metrics differ"
    );
    assert_eq!(
        parallel.stats, serial.stats,
        "{threads}-thread stats differ"
    );
}

/// Best-of-`REPS` analyze at the given thread count. Returns the rate,
/// the best rep's stage breakdown, and the last analysis for identity
/// checking.
fn measure(logs: &LogCollection, threads: usize, reps: usize) -> (f64, StageTimings, Analysis) {
    let tool = LogDiver::new().with_threads(threads);
    let total = logs.total_lines() as f64;
    let mut best_rate = 0.0f64;
    let mut best_timings = StageTimings::default();
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let (analysis, timings) = tool.analyze_timed(logs);
        let rate = total / start.elapsed().as_secs_f64();
        if rate > best_rate {
            best_rate = rate;
            best_timings = timings;
        }
        last = Some(analysis);
    }
    (best_rate, best_timings, last.expect("reps >= 1"))
}

/// Applies the `PIPELINE_BASELINE` regression gate; returns false on
/// regression below 0.8x the committed rate. Takes the baseline *text*,
/// snapshotted before the run overwrites `BENCH_pipeline.json` — the
/// baseline and the output are usually the same committed file.
fn baseline_gate(points: &[ThreadPoint], path: &str, text: &str) -> bool {
    let value = match serde_json::parse(text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("cannot parse baseline {path}: {e}");
            return false;
        }
    };
    let baseline_points = value
        .as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == "points"))
        .and_then(|(_, v)| v.as_array());
    let Some(baseline_points) = baseline_points else {
        eprintln!("baseline {path} has no points array");
        return false;
    };
    let mut ok = true;
    for bp in baseline_points {
        let Some(obj) = bp.as_object() else { continue };
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .and_then(|(_, v)| v.as_f64())
        };
        let (Some(threads), Some(base_rate)) = (field("threads"), field("lines_per_sec")) else {
            continue;
        };
        let Some(point) = points.iter().find(|p| p.threads as f64 == threads) else {
            continue;
        };
        let floor = 0.8 * base_rate;
        if point.lines_per_sec < floor {
            eprintln!(
                "REGRESSION: {threads} threads at {:.0} lines/s, below 0.8x baseline ({floor:.0})",
                point.lines_per_sec
            );
            ok = false;
        }
    }
    ok
}

/// With `var` set to a floor in lines/s, exits nonzero when the stage's
/// best-point `rate` is below it — except on a 1-cpu host, which
/// time-shares the measurement with the OS and only gets a warning.
fn throughput_floor(stage: &str, var: &str, rate: f64, host_cpus: usize) {
    let Ok(floor) = std::env::var(var) else {
        return;
    };
    let floor: f64 = floor
        .parse()
        .unwrap_or_else(|_| panic!("{var} must be lines/s"));
    let label = format!("{stage} gate");
    if rate >= floor {
        println!("{label:<17}: ok (>= {floor:.0} lines/s)");
    } else if host_cpus <= 1 {
        eprintln!(
            "{label:<17}: WARNING {rate:.0} lines/s is below {floor:.0}, but host has 1 cpu \
             — not failing"
        );
    } else {
        eprintln!("{label:<17}: FAILED {rate:.0} < {floor:.0} lines/s");
        std::process::exit(1);
    }
}

fn main() {
    banner(
        "P1",
        "parallel batch-pipeline throughput (1 vs 2/4/8 threads)",
    );
    // Snapshot the baseline before the run overwrites the output file.
    let baseline = std::env::var("PIPELINE_BASELINE").ok().map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        (path, text)
    });

    let logs = corpus();
    let total = logs.total_lines();
    let host_cpus = logdiver::exec::default_threads();
    println!("corpus           : {total} lines");
    println!("host cpus        : {host_cpus}");
    if host_cpus < 4 {
        println!("note             : speedup is capped by host parallelism");
    }

    const REPS: usize = 3;
    let (serial_rate, serial_timings, serial) = measure(&logs, 1, REPS);
    println!(
        "serial analyze   : {serial_rate:>10.0} lines/s  \
         (parse {:.2}s, filter {:.2}s, classify {:.2}s of {:.2}s total)",
        serial_timings.parse_secs,
        serial_timings.filter_secs,
        serial_timings.classify_secs,
        serial_timings.total_secs,
    );
    let mut points = vec![ThreadPoint {
        threads: 1,
        lines_per_sec: serial_rate,
        speedup_vs_serial: 1.0,
        stage_secs: serial_timings,
        peak_rss_kb: peak_rss_kb(),
    }];

    for threads in [2usize, 4, 8] {
        let (rate, timings, analysis) = measure(&logs, threads, REPS);
        assert_identical(&analysis, &serial, threads);
        let speedup = rate / serial_rate;
        println!("{threads} threads        : {rate:>10.0} lines/s  ({speedup:.2}x serial)");
        points.push(ThreadPoint {
            threads,
            lines_per_sec: rate,
            speedup_vs_serial: speedup,
            stage_secs: timings,
            peak_rss_kb: peak_rss_kb(),
        });
    }

    // Parse-stage throughput over the best point: the number the
    // zero-copy parser rewrite is accountable for, independent of the
    // filter/classify stages sharing the wall clock.
    let best_parse_secs = points
        .iter()
        .map(|p| p.stage_secs.parse_secs)
        .fold(f64::INFINITY, f64::min);
    let parse_lines_per_sec = total as f64 / best_parse_secs;
    println!("parse stage      : {parse_lines_per_sec:>10.0} lines/s (best point)");
    let best_filter_secs = points
        .iter()
        .map(|p| p.stage_secs.filter_secs)
        .fold(f64::INFINITY, f64::min);
    let filter_lines_per_sec = logs.syslog.len() as f64 / best_filter_secs;
    println!("filter stage     : {filter_lines_per_sec:>10.0} syslog lines/s (best point)");
    let gates = [
        ("parse", "PARSE_THROUGHPUT_FLOOR", parse_lines_per_sec),
        ("filter", "FILTER_THROUGHPUT_FLOOR", filter_lines_per_sec),
    ];
    for (stage, var, rate) in gates {
        throughput_floor(stage, var, rate, host_cpus);
    }

    let out = PipelineBench {
        bench: "perf_pipeline".to_string(),
        total_lines: total,
        reps: REPS,
        host_cpus,
        parse_lines_per_sec,
        filter_lines_per_sec,
        points,
    };
    let text = serde_json::to_string_pretty(&out).expect("serializable");
    let path = "BENCH_pipeline.json";
    match std::fs::write(path, text) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }

    if let Some((path, baseline_text)) = baseline {
        if baseline_gate(&out.points, &path, &baseline_text) {
            println!("baseline gate    : ok (>= 0.8x {path})");
        } else {
            eprintln!("baseline gate    : FAILED vs {path}");
            std::process::exit(1);
        }
    }
}
