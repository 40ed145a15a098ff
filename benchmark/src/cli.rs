//! The CLI workloads, tracing off: `logdiver analyze` and `logdiver
//! stream` as a user starts them — a fresh process per iteration, so
//! every iteration pays interner warm-up and the arena load.

use std::path::Path;
use std::time::Instant;

use crate::run::{run_child, timed_setup, ChildRun, Ctx, Outcome, Prepared};
use crate::spec::{Kind, LATENESS_SECS, STREAM_CHECKPOINT_EVERY};
use crate::stats;

/// The arguments of one CLI iteration. Batch runs pass `--threads 1` and
/// stream runs `--shards 1`: everything is pinned to one CPU, and extra
/// threads there measure the scheduler.
pub fn cli_args(kind: Kind, logs: &Path, checkpoint: Option<&Path>) -> Vec<String> {
    let logs = logs.display().to_string();
    let mut args: Vec<String> = match kind {
        Kind::Batch => ["analyze", "--logs", &logs, "--threads", "1"]
            .map(String::from)
            .to_vec(),
        _ => [
            "stream",
            "--logs",
            &logs,
            "--lateness",
            &LATENESS_SECS.to_string(),
            "--shards",
            "1",
        ]
        .map(String::from)
        .to_vec(),
    };
    if let Some(path) = checkpoint {
        // Count cadence only: the time cadence is pushed out of reach so
        // the number of checkpoints does not depend on the machine.
        args.extend(
            [
                "--checkpoint",
                &path.display().to_string(),
                "--checkpoint-every",
                &STREAM_CHECKPOINT_EVERY.to_string(),
                "--checkpoint-secs",
                "100000",
            ]
            .map(String::from),
        );
    }
    args
}

/// One iteration: run the CLI, then hold its exit code and its stdout
/// against the reference report.
pub fn iterate(
    ctx: &Ctx,
    prepared: &Prepared,
    checkpoint: bool,
    outcome: Option<&mut Outcome>,
) -> Result<ChildRun, String> {
    let stdout = ctx.work.join("stdout.txt");
    let ckpt = ctx.work.join("stream.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let args = cli_args(
        ctx.workload.kind,
        &prepared.corpus.dir,
        checkpoint.then_some(ckpt.as_path()),
    );
    let run = run_child(&ctx.bin("logdiver"), &args, &stdout)?;
    if let Some(outcome) = outcome {
        outcome.check(run.code == 0, || {
            format!("logdiver {} exited with {}", args[0], run.code)
        });
        // The CLI prints the report with `println!`: one more newline.
        let printed = std::fs::read_to_string(&stdout).unwrap_or_default();
        outcome.check(
            printed.strip_suffix('\n') == Some(prepared.reference.as_str()),
            || {
                format!(
                    "logdiver {} printed {} bytes that differ from the {}-byte reference report",
                    args[0],
                    printed.len(),
                    prepared.reference.len()
                )
            },
        );
    }
    Ok(run)
}

/// Runs a `Batch` or `Stream` workload with tracing off.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (prepared, setup) = timed_setup(ctx, |_| Ok(()))?;
    let checkpoint = ctx.workload.kind == Kind::Stream;

    // The first iteration pays the write-back of the corpus just written.
    if !ctx.quick {
        iterate(ctx, &prepared, checkpoint, None)?;
    }
    let mut walls = Vec::new();
    let mut rss_mb = Vec::new();
    let started = Instant::now();
    loop {
        let run = iterate(ctx, &prepared, checkpoint, Some(&mut outcome))?;
        walls.push(run.wall_s);
        rss_mb.push(run.maxrss_kib as f64 / 1024.0);
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    let lines = prepared.corpus.total_lines() as f64;
    let wall_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    outcome.metric("setup_s", stats::median(&setup));
    outcome.metric("lines_per_s", lines / stats::median(&walls));
    outcome.metric("peak_rss_mb", stats::median(&rss_mb));
    // A CLI user's response time is the whole invocation. Tens of
    // iterations support the median or the third quartile, no more.
    let (p, tail) = stats::supported_tail(&wall_ms);
    outcome.metric("response_tail_ms", tail);
    outcome.notes.push(format!(
        "response_tail_ms is p{p} of {} iterations",
        wall_ms.len()
    ));
    outcome.notes.push(format!(
        "corpus {}: {} lines, {} bytes, lines per file {:?}",
        prepared.corpus.dir.display(),
        prepared.corpus.total_lines(),
        prepared.corpus.total_bytes(),
        prepared.corpus.lines
    ));
    outcome.note_samples("set-up", "s", &setup);
    outcome.note_samples("iteration wall", "s", &walls);
    outcome.note_samples("child peak RSS", "MB", &rss_mb);
    Ok(outcome)
}
