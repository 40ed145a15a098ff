//! The traced run: per-layer metrics from in-process passes that call each
//! crate's public functions inside spans, beside one real iteration of the
//! workload that gives the residuals. Every pass is checked against the
//! reference report like the untraced runs are.
//!
//! A pass is one root span named [`PASS`]; every other span is a layer
//! row. Rows that nest (a tenant pump runs the inline engine) are reported
//! as self times by subtracting the nested pass, as the table in
//! `benchmark/README.md` states row by row.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use logdiver::coverage::{qualify_runs, CoverageConfig, CoverageMap};
use logdiver::filter::{filter_columns, EntrySource, PatternTable};
use logdiver::input::LogArena;
use logdiver::parse::{arena_lines, parse_columns_threads};
use logdiver::{Coalescer, LogDiver, LogDiverConfig, MatchIndex, PipelineStats};
use logdiver_push::{Action, PushPlan, Session, SessionConfig};
use logdiver_serve::proto::{self, Request};
use logdiver_serve::server::{ServeConfig, ServeCore, TenantOverrides};
use logdiver_serve::store::{CheckpointStore, StorePolicy};
use logdiver_serve::tenant::Tenant;
use logdiver_stream::{InlineEngine, Source, StreamCheckpoint, StreamConfig, StreamEngine};
use logdiver_types::{Fs, RealFs, SimDuration};

use crate::cli;
use crate::corpus;
use crate::run::{reference_report, Ctx, Outcome, Prepared};
use crate::spec::{Kind, LATENESS_SECS, STREAM_CHECKPOINT_EVERY, TENANTS};
use crate::stats;
use crate::sys;
use crate::trace::{self, Span, Tracer};
use crate::wire;

/// Name of every pass's root span.
const PASS: &str = "pass";

/// The spans of one pass, under the name the span file gives it.
type NamedPass = (&'static str, Vec<Span>);

/// Wall of a pass's root spans, in seconds.
fn pass_wall(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == PASS)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Self time of every layer row of a pass, summed: what the rows explain
/// of [`pass_wall`].
fn pass_rows(spans: &[Span]) -> f64 {
    (0..spans.len())
        .filter(|id| spans[*id].name != PASS)
        .map(|id| trace::self_time_ns(spans, id) as f64 / 1e9)
        .sum()
}

/// Records the sum rule of the traced passes — layer rows against traced
/// wall — and writes the span file. The rows must explain the wall within
/// 5 %; the rest is harness glue between spans.
fn finish(
    ctx: &Ctx,
    outcome: &mut Outcome,
    passes: &[NamedPass],
    untraced_wall: f64,
    traced_twin_wall: f64,
) -> Result<(), String> {
    let wall: f64 = passes.iter().map(|(_, s)| pass_wall(s)).sum();
    let rows: f64 = passes.iter().map(|(_, s)| pass_rows(s)).sum();
    let gap = if wall > 0.0 {
        (wall - rows) / wall
    } else {
        0.0
    };
    outcome.metric("trace.wall_s", wall);
    outcome.metric("trace.rows_s", rows);
    outcome.metric("trace.gap_share", gap);
    outcome.metric(
        "trace.overhead_share",
        if untraced_wall > 0.0 {
            traced_twin_wall / untraced_wall - 1.0
        } else {
            0.0
        },
    );
    outcome.check(gap.abs() <= 0.05, || {
        format!("layer rows sum to {rows:.4} s of a traced wall of {wall:.4} s: gap {gap:.3}")
    });
    outcome.notes.push(format!(
        "sum rule: rows {rows:.6} s + gap {:.6} s = traced wall {wall:.6} s (gap {:.2} %)",
        wall - rows,
        100.0 * gap
    ));

    let records: Vec<trace::SpanRecord> = passes
        .iter()
        .flat_map(|(pass, spans)| trace::records(ctx.workload.name, pass, spans))
        .collect();
    let dir = ctx
        .work
        .parent()
        .ok_or("the work directory has no parent")?
        .join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.json", ctx.workload.name, ctx.seed));
    let text = serde_json::to_string(&records).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    outcome.notes.push(format!(
        "{} spans written to {}",
        records.len(),
        path.display()
    ));
    Ok(())
}

/// Generates the corpus and its reference once: the traced run reports no
/// set-up time.
fn prepare(ctx: &Ctx) -> Result<Prepared, String> {
    let corpus = corpus::generate(ctx.corpus_spec(), ctx.seed, &ctx.work)?;
    let reference = reference_report(&corpus.dir)?;
    Ok(Prepared { corpus, reference })
}

/// Median wall of `n` checked CLI iterations after one unchecked warm-up.
fn cli_wall(
    ctx: &Ctx,
    prepared: &Prepared,
    checkpoint: bool,
    n: usize,
    outcome: &mut Outcome,
) -> Result<f64, String> {
    cli::iterate(ctx, prepared, checkpoint, None)?;
    let mut walls = Vec::new();
    for _ in 0..n {
        walls.push(cli::iterate(ctx, prepared, checkpoint, Some(outcome))?.wall_s);
    }
    Ok(stats::median(&walls))
}

/// Runs `f` with the harness allowed on every CPU it started with, then
/// pins it again: the two scaling rows need two CPUs.
fn unpinned<T>(ctx: &Ctx, f: impl FnOnce() -> T) -> T {
    if let Some((cpu, before)) = &ctx.pinned {
        sys::set_allowed_cpus(before);
        let out = f();
        sys::set_allowed_cpus(&sys::single_cpu(*cpu));
        out
    } else {
        f()
    }
}

/// `wall(1) ÷ wall(2)` of `timed(n)` over three repetitions each, with the
/// spread of both sides in a note. 0 on a one-CPU host: no claim there.
fn speedup_at_two(
    ctx: &Ctx,
    what: &str,
    outcome: &mut Outcome,
    mut timed: impl FnMut(usize) -> f64,
) -> f64 {
    if ctx.host_cpus < 2 {
        outcome
            .notes
            .push(format!("{what}: one CPU allowed, no scaling measured"));
        return 0.0;
    }
    let (one, two): (Vec<f64>, Vec<f64>) = unpinned(ctx, || {
        let mut one = Vec::new();
        let mut two = Vec::new();
        for _ in 0..3 {
            one.push(timed(1));
            two.push(timed(2));
        }
        (one, two)
    });
    outcome.note_samples(&format!("{what}, 1 worker, unpinned"), "s", &one);
    outcome.note_samples(&format!("{what}, 2 workers, unpinned"), "s", &two);
    stats::median(&one) / stats::median(&two)
}

// ---------------------------------------------------------------- batch

/// What one in-process batch pass produced besides its spans.
struct BatchPass {
    report: String,
    bytes: usize,
    lines: u64,
    quarantined: usize,
    kept_share: f64,
    runs: usize,
    events: usize,
}

/// `logdiver analyze` stage by stage, as `LogDiver::analyze_arena_timed`
/// and `report::full_report` run them at one thread.
fn batch_pass(dir: &Path, tracer: &mut Tracer) -> Result<BatchPass, String> {
    tracer.span(PASS, |t| {
        let arena = t
            .span("core.input.load", |_| LogArena::from_dir(dir))
            .map_err(|e| e.to_string())?;
        let sources = t.span("core.parse", |_| arena_lines(&arena));
        let cols = t.span("core.parse", |_| parse_columns_threads(&sources, 1));
        let table = PatternTable::default();
        let config = LogDiverConfig::default();
        let (entries, filter_stats) = t.span("core.filter", |_| filter_columns(&cols, &table, 1));
        let coverage = t.span("core.coverage", |_| {
            let mut coverage = CoverageMap::new(CoverageConfig::default());
            for &ts in &cols.syslog.times {
                coverage.observe(EntrySource::Syslog, ts);
            }
            for h in &cols.hwerr {
                coverage.observe(EntrySource::HwErr, h.timestamp);
            }
            for rec in &cols.netwatch {
                coverage.observe(EntrySource::Netwatch, rec.timestamp);
            }
            coverage
        });
        let (runs, jobs, workload_stats) = t.span("core.workload.reconstruct", |_| {
            logdiver::workload::reconstruct_records(&cols.alps, &cols.torque)
        });
        let n_runs = runs.len();
        let (events, duplicates) = t.span("core.coalesce", |_| {
            let mut coalescer = Coalescer::new(config.coalesce_gap);
            for e in &entries {
                coalescer.push(e);
            }
            let duplicates = coalescer.duplicates();
            (coalescer.finish(), duplicates)
        });
        let stats = PipelineStats {
            parse: cols.counts,
            filter: filter_stats,
            workload: workload_stats,
            entries: entries.len() as u64,
            duplicates,
            events: events.len() as u64,
            lethal_events: events.iter().filter(|e| e.is_lethal()).count() as u64,
        };
        let (classified, index) = t.span("core.classify", |_| {
            let index = MatchIndex::new(events);
            let mut classified =
                logdiver::classify::classify_runs_threads(runs, &jobs, &index, &config, 1);
            qualify_runs(&mut classified, &coverage.gaps(), &config);
            (classified, index)
        });
        let metrics = t.span("core.metrics", |_| {
            logdiver::metrics::compute(&classified, index.events())
        });
        let report = t.span("core.report.render", |_| {
            logdiver::report::full_report(&metrics, &stats)
        });
        let examined =
            filter_stats.syslog_examined + (cols.hwerr.len() + cols.netwatch.len()) as u64;
        let pass = BatchPass {
            report,
            bytes: arena.total_bytes(),
            lines: cols.counts.iter().map(|c| c.total).sum(),
            quarantined: cols.quarantine.len(),
            kept_share: (filter_stats.syslog_kept + filter_stats.structured_kept) as f64
                / examined.max(1) as f64,
            runs: n_runs,
            events: index.events().len(),
        };
        // The CLI frees all of this before it exits, too.
        // (Three spans: each borrows from the next, so they go in turn.)
        t.span("core.teardown", |_| {
            drop((metrics, classified, index, jobs, coverage, entries, cols));
        });
        t.span("core.teardown", |_| drop(sources));
        t.span("core.teardown", |_| drop(arena));
        Ok(pass)
    })
}

fn batch(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let prepared = prepare(ctx)?;
    let cli = cli_wall(ctx, &prepared, false, 3, &mut outcome)?;

    let mut off = Tracer::new(false);
    let started = Instant::now();
    let plain = batch_pass(&prepared.corpus.dir, &mut off)?;
    let untraced_wall = started.elapsed().as_secs_f64();
    let mut on = Tracer::new(true);
    let traced = batch_pass(&prepared.corpus.dir, &mut on)?;
    for (what, pass) in [("untraced", &plain), ("traced", &traced)] {
        outcome.check(pass.report == prepared.reference, || {
            format!("the {what} stage-by-stage pass renders another report than analyze_dir")
        });
    }

    let spans = on.spans().to_vec();
    let secs = |row: &str| trace::self_secs(&spans, row);
    outcome.metric("core.input.load_s", secs("core.input.load"));
    outcome.metric("core.input.bytes", traced.bytes as f64);
    outcome.metric("core.parse.busy_s", secs("core.parse"));
    outcome.metric("core.parse.lines", traced.lines as f64);
    outcome.metric("core.parse.quarantined", traced.quarantined as f64);
    outcome.metric("core.filter.busy_s", secs("core.filter"));
    outcome.metric("core.filter.kept_share", traced.kept_share);
    outcome.metric("core.coverage.busy_s", secs("core.coverage"));
    outcome.metric(
        "core.workload.reconstruct_s",
        secs("core.workload.reconstruct"),
    );
    outcome.metric("core.workload.runs", traced.runs as f64);
    outcome.metric("core.coalesce.busy_s", secs("core.coalesce"));
    outcome.metric("core.coalesce.events", traced.events as f64);
    outcome.metric("core.classify.busy_s", secs("core.classify"));
    outcome.metric("core.metrics.busy_s", secs("core.metrics"));
    outcome.metric("core.report.render_s", secs("core.report.render"));
    outcome.metric("core.teardown_s", secs("core.teardown"));
    // Process start, interner warm-up and stdout: what the CLI pays around
    // the rows above.
    outcome.metric("core.residual_s", cli - pass_rows(&spans));
    outcome.notes.push(format!(
        "CLI wall {cli:.6} s = rows {:.6} s + core.residual_s {:.6} s",
        pass_rows(&spans),
        cli - pass_rows(&spans)
    ));

    if ctx.workload.corpus.name == corpus::CorpusSpec::RUNS.name {
        let arena = LogArena::from_dir(&prepared.corpus.dir).map_err(|e| e.to_string())?;
        let speedup = speedup_at_two(ctx, "analyze_arena_timed", &mut outcome, |threads| {
            let started = Instant::now();
            black_box(
                LogDiver::new()
                    .with_threads(threads)
                    .analyze_arena_timed(&arena),
            );
            started.elapsed().as_secs_f64()
        });
        outcome.metric("core.exec.t2_speedup", speedup);
    }

    let traced_wall = pass_wall(&spans);
    finish(
        ctx,
        &mut outcome,
        &[("batch", spans)],
        untraced_wall,
        traced_wall,
    )?;
    Ok(outcome)
}

// --------------------------------------------------------------- stream

fn stream_config(shards: usize) -> StreamConfig {
    StreamConfig::default()
        .with_lateness(SimDuration::from_secs(LATENESS_SECS))
        .with_syslog_shards(shards)
}

/// What one in-process stream pass produced besides its spans.
struct StreamPass {
    report: String,
    lines: u64,
    checkpoints: u64,
    last_checkpoint_bytes: usize,
}

/// The engine as `logdiver stream` drives it: 1024-line rounds over the
/// sources, a checkpoint every [`STREAM_CHECKPOINT_EVERY`] lines and a
/// final one when `checkpoint` names a file, then the drain.
fn stream_pass(
    lines: &[Vec<String>; 5],
    shards: usize,
    checkpoint: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<StreamPass, String> {
    const ROUND: usize = 1024;
    let mut out = StreamPass {
        report: String::new(),
        lines: 0,
        checkpoints: 0,
        last_checkpoint_bytes: 0,
    };
    tracer.span(PASS, |t| {
        let mut engine = StreamEngine::new(stream_config(shards));
        let mut at = [0usize; 5];
        let mut since_checkpoint = 0u64;
        let write_checkpoint =
            |t: &mut Tracer, engine: &StreamEngine, at: &[usize; 5], out: &mut StreamPass| {
                let Some(path) = checkpoint else {
                    return Ok(());
                };
                let offsets = at.map(|n| n as u64);
                let ckpt = t.span("stream.checkpoint.capture", |_| engine.checkpoint(offsets));
                let bytes = t.span("stream.checkpoint.encode", |_| ckpt.to_bytes());
                // `write_atomic` without its second encode: temp sibling,
                // write and sync, rename.
                t.span("stream.checkpoint.write", |_| {
                    let tmp = path.with_extension("tmp");
                    RealFs
                        .write(&tmp, &bytes)
                        .and_then(|()| RealFs.rename(&tmp, path))
                })
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                out.checkpoints += 1;
                out.last_checkpoint_bytes = bytes.len();
                Ok::<(), String>(())
            };
        loop {
            let mut idle = true;
            for source in Source::ALL {
                let i = source.index();
                let round = &lines[i][at[i]..(at[i] + ROUND).min(lines[i].len())];
                if round.is_empty() {
                    continue;
                }
                t.span("stream.engine.push", |_| {
                    engine.push_batch(source, round.iter().cloned())
                })
                .map_err(|e| format!("push_batch: {e}"))?;
                at[i] += round.len();
                since_checkpoint += round.len() as u64;
                idle = false;
            }
            if since_checkpoint >= STREAM_CHECKPOINT_EVERY {
                write_checkpoint(t, &engine, &at, &mut out)?;
                since_checkpoint = 0;
            }
            if idle {
                break;
            }
        }
        write_checkpoint(t, &engine, &at, &mut out)?;
        out.lines = at.iter().map(|n| *n as u64).sum();
        let analysis = t.span("stream.engine.drain", |_| engine.drain());
        out.report = logdiver::report::full_report(&analysis.metrics, &analysis.stats);
        Ok::<(), String>(())
    })?;
    Ok(out)
}

fn stream(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let prepared = prepare(ctx)?;
    let lines = prepared.corpus.read_lines()?;
    let cli_with = cli_wall(ctx, &prepared, true, 2, &mut outcome)?;
    let cli_plain = cli_wall(ctx, &prepared, false, 2, &mut outcome)?;

    let mut off = Tracer::new(false);
    let started = Instant::now();
    let plain_off = stream_pass(&lines, 1, None, &mut off)?;
    let untraced_wall = started.elapsed().as_secs_f64();
    let mut plain_tracer = Tracer::new(true);
    let plain_on = stream_pass(&lines, 1, None, &mut plain_tracer)?;
    let ckpt_path = ctx.work.join("inproc.ckpt");
    let mut ckpt_tracer = Tracer::new(true);
    let with_ckpt = stream_pass(&lines, 1, Some(&ckpt_path), &mut ckpt_tracer)?;
    for (what, pass) in [
        ("untraced", &plain_off),
        ("traced", &plain_on),
        ("checkpointing", &with_ckpt),
    ] {
        outcome.check(pass.report == prepared.reference, || {
            format!("the {what} in-process stream pass renders another report than analyze_dir")
        });
    }

    // Recovery: decode the last checkpoint, then read + resume from it as
    // `logdiver stream --resume` does, and drain what it restored.
    let mut recovery = Tracer::new(true);
    let resumed = recovery.span(PASS, |t| {
        let bytes = std::fs::read(&ckpt_path).map_err(|e| e.to_string())?;
        t.span("stream.checkpoint.decode", |_| {
            StreamCheckpoint::from_bytes(&bytes).map(drop)
        })
        .map_err(|e| e.to_string())?;
        drop(bytes);
        let engine = t.span("stream.engine.resume", |_| {
            let ckpt = StreamCheckpoint::read(&ckpt_path).map_err(|e| e.to_string())?;
            StreamEngine::resume(stream_config(1), &ckpt).map_err(|e| e.to_string())
        })?;
        let analysis = t.span("stream.engine.drain_resumed", |_| engine.drain());
        Ok::<String, String>(logdiver::report::full_report(
            &analysis.metrics,
            &analysis.stats,
        ))
    })?;
    outcome.check(resumed == prepared.reference, || {
        "an engine resumed from the final checkpoint drains to another report".to_string()
    });

    let arena = LogArena::from_dir(&prepared.corpus.dir).map_err(|e| e.to_string())?;
    let started = Instant::now();
    black_box(LogDiver::new().with_threads(1).analyze_arena_timed(&arena));
    let batch_wall = started.elapsed().as_secs_f64();
    drop(arena);

    let plain_spans = plain_tracer.spans().to_vec();
    let ckpt_spans = ckpt_tracer.spans().to_vec();
    let recovery_spans = recovery.spans().to_vec();
    outcome.metric(
        "stream.engine.push_s",
        trace::self_secs(&plain_spans, "stream.engine.push"),
    );
    outcome.metric(
        "stream.engine.drain_s",
        trace::self_secs(&plain_spans, "stream.engine.drain"),
    );
    outcome.metric("stream.engine.lines", plain_on.lines as f64);
    outcome.metric("stream.engine.vs_batch", untraced_wall / batch_wall);
    for (metric, row) in [
        ("stream.checkpoint.capture_s", "stream.checkpoint.capture"),
        ("stream.checkpoint.encode_s", "stream.checkpoint.encode"),
        ("stream.checkpoint.write_s", "stream.checkpoint.write"),
    ] {
        outcome.metric(metric, trace::self_secs(&ckpt_spans, row));
    }
    outcome.metric(
        "stream.checkpoint.decode_s",
        trace::self_secs(&recovery_spans, "stream.checkpoint.decode"),
    );
    outcome.metric("stream.checkpoint.count", with_ckpt.checkpoints as f64);
    outcome.metric(
        "stream.checkpoint.bytes",
        with_ckpt.last_checkpoint_bytes as f64,
    );
    outcome.metric(
        "stream.checkpoint.overhead_share",
        (cli_with - cli_plain) / cli_plain,
    );
    outcome.metric(
        "stream.engine.resume_s",
        trace::self_secs(&recovery_spans, "stream.engine.resume"),
    );
    // Tailer, per-line `push`, progress lines, report, process start.
    outcome.metric("stream.residual_s", cli_plain - untraced_wall);
    let explained = pass_rows(&ckpt_spans) + (cli_plain - untraced_wall);
    outcome.notes.push(format!(
        "CLI wall with checkpoints {cli_with:.6} s against rows of the checkpointing pass \
         {:.6} s + stream.residual_s {:.6} s = {explained:.6} s ({:+.2} %)",
        pass_rows(&ckpt_spans),
        cli_plain - untraced_wall,
        100.0 * (explained - cli_with) / cli_with
    ));

    if ctx.workload.corpus.name == corpus::CorpusSpec::NOISE.name {
        let mut failed = None;
        let speedup = speedup_at_two(ctx, "in-process stream", &mut outcome, |shards| {
            let started = Instant::now();
            if let Err(e) = stream_pass(&lines, shards, None, &mut Tracer::new(false)) {
                failed = Some(e);
            }
            started.elapsed().as_secs_f64()
        });
        if let Some(e) = failed {
            return Err(e);
        }
        outcome.metric("stream.engine.shards2_speedup", speedup);
    }

    let traced_wall = pass_wall(&plain_spans);
    finish(
        ctx,
        &mut outcome,
        &[
            ("stream", plain_spans),
            ("stream_checkpointing", ckpt_spans),
            ("stream_recovery", recovery_spans),
        ],
        untraced_wall,
        traced_wall,
    )?;
    Ok(outcome)
}

// ---------------------------------------------------------------- serve

/// The wire frames `logdiver-push` sends for one tenant, recorded by
/// driving a [`Session`] with canned acks; also `client.session.*`.
fn session_pass(
    lines: &[Vec<String>; 5],
    tracer: &mut Tracer,
) -> Result<(Vec<String>, u64), String> {
    let plan = PushPlan {
        tenant: wire::tenant_name(0),
        lines: lines.clone(),
    };
    let total = plan.total_lines() as usize;
    tracer.span(PASS, |t| {
        t.span("client.session", |_| {
            let mut session = Session::new(plan, SessionConfig::default());
            let mut frames = Vec::with_capacity(total + 1);
            loop {
                match session.action() {
                    Action::Connect => session.on_connected(),
                    Action::Send(frame) => {
                        session.on_response(if frame.starts_with("HELLO") {
                            "OK tenant=t0 accepted=0,0,0,0,0"
                        } else {
                            "OK"
                        });
                        frames.push(frame);
                    }
                    Action::Sleep(ms) => session.on_slept(ms),
                    Action::Done => break,
                }
            }
            let summary = session.summary();
            if summary.complete && summary.pushed as usize == total {
                Ok((frames, summary.pushed))
            } else {
                Err(format!("the canned-ack session fell short: {summary:?}"))
            }
        })
    })
}

/// One `PUSH` frame, parsed.
type Push<'a> = (Source, u64, &'a str);

/// Consecutive same-source runs of a 1024-push window, the grouping
/// `Tenant::pump` applies to its queue.
fn source_runs<'a, 'b>(window: &'b [Push<'a>]) -> impl Iterator<Item = &'b [Push<'a>]> {
    window.chunk_by(|a, b| a.0 == b.0)
}

/// How many pushes the daemon queues before it pumps (`PUMP_EVERY`).
const PUMP_EVERY: usize = 1024;

/// Pass A: the inline engine alone over one tenant's pushes.
fn inline_pass(pushes: &[Push<'_>], tracer: &mut Tracer) -> Result<String, String> {
    let mut engine = InlineEngine::new(stream_config(1));
    tracer.span(PASS, |t| {
        for window in pushes.chunks(PUMP_EVERY) {
            t.span("stream.inline", |_| {
                for run in source_runs(window) {
                    engine
                        .push_chunk(run[0].0, run.iter().map(|p| p.2))
                        .map_err(|e| format!("push_chunk: {e}"))?;
                }
                engine.advance();
                Ok::<(), String>(())
            })?;
        }
        Ok::<(), String>(())
    })?;
    let analysis = engine.drain();
    Ok(logdiver::report::full_report(
        &analysis.metrics,
        &analysis.stats,
    ))
}

/// Pass B: `Tenant::offer` per push and `Tenant::pump` every 1024. Returns
/// the report and the tenant's final checkpoint.
fn tenant_pass(
    pushes: &[Push<'_>],
    tracer: &mut Tracer,
) -> Result<(String, StreamCheckpoint), String> {
    let mut tenant = Tenant::new(wire::tenant_name(0), stream_config(1));
    tracer.span(PASS, |t| {
        for window in pushes.chunks(PUMP_EVERY) {
            t.span("serve.tenant.offer", |_| {
                for (source, index, line) in window {
                    black_box(tenant.offer(*source, *index, line));
                }
            });
            t.span("serve.tenant.pump", |_| black_box(tenant.pump()));
        }
    });
    let checkpoint = tenant.checkpoint();
    let analysis = tenant.drain();
    Ok((
        logdiver::report::full_report(&analysis.metrics, &analysis.stats),
        checkpoint,
    ))
}

fn serve_config(dirs: Vec<PathBuf>) -> ServeConfig {
    let overrides: BTreeMap<String, TenantOverrides> = (0..TENANTS)
        .map(|i| {
            (
                wire::tenant_name(i),
                TenantOverrides {
                    lateness_secs: Some(LATENESS_SECS),
                    ..TenantOverrides::default()
                },
            )
        })
        .collect();
    ServeConfig {
        tenants_dirs: dirs,
        shards: 1,
        overrides,
        ..ServeConfig::default()
    }
}

/// `frames` as the bytes a connection carries.
fn wire_bytes(frames: &[String]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames {
        bytes.extend_from_slice(frame.as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// Feeds `bytes` to `core` in 4096-byte chunks, as a connection handler
/// reads them, inside spans called `row`. Returns how many answers were
/// not `OK`.
fn feed(core: &mut ServeCore, bytes: &[u8], row: &'static str, t: &mut Tracer) -> usize {
    let conn = core.open_conn();
    let mut refused = 0;
    for chunk in bytes.chunks(4096) {
        let answers = t.span(row, |_| core.feed(conn, chunk));
        refused += answers.iter().filter(|a| !a.starts_with("OK")).count();
    }
    core.close_conn(conn);
    refused
}

/// The same frames under tenant `i`'s name.
fn frames_for(frames: &[String], i: usize) -> Vec<String> {
    let t0 = wire::tenant_name(0);
    let name = wire::tenant_name(i);
    frames
        .iter()
        .map(|f| {
            let (verb, rest) = f.split_once(' ').unwrap_or((f, ""));
            match rest.strip_prefix(t0.as_str()) {
                Some(tail) => format!("{verb} {name}{tail}"),
                None => f.clone(),
            }
        })
        .collect()
}

fn serve(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let prepared = prepare(ctx)?;
    let lines = prepared.corpus.read_lines()?;
    let expected_body = prepared.reference.trim_end_matches('\n').to_string();

    // One real iteration, then the restart drill on its checkpoints.
    wire::wipe_replicas(&ctx.work);
    let daemon = wire::Daemon::start(ctx)?;
    let real = wire::iterate(&daemon, &prepared, &lines, &mut outcome)?;
    let answer = daemon.connect()?.request("CHECKPOINT")?;
    outcome.check(answer.starts_with("OK"), || {
        format!("CHECKPOINT answered {answer:?}")
    });
    drop(daemon); // SIGKILL
    let full: Vec<String> = lines.iter().map(|l| l.len().to_string()).collect();
    let full = full.join(",");
    let started = Instant::now();
    let daemon = wire::Daemon::start(ctx)?;
    let mut control = daemon.connect()?;
    for i in 0..TENANTS {
        let hello = control.request(&format!("HELLO {}", wire::tenant_name(i)))?;
        outcome.check(hello.ends_with(&format!("accepted={full}")), || {
            format!("after SIGKILL and restart, HELLO answered {hello:?}, not accepted={full}")
        });
    }
    let restart_s = started.elapsed().as_secs_f64();
    drop(control);
    let code = daemon.shutdown()?;
    outcome.check(code == 0, || {
        format!("logdiver-serve exited with {code} after SHUTDOWN")
    });

    // The frames of one tenant, and the client's share of the wire path.
    let mut session_tracer = Tracer::new(true);
    let (frames, session_lines) = session_pass(&lines, &mut session_tracer)?;
    let mut proto_tracer = Tracer::new(true);
    let pushes: Vec<Push<'_>> = proto_tracer.span(PASS, |t| {
        t.span("serve.proto.parse", |_| {
            frames
                .iter()
                .filter_map(|f| match proto::parse(f) {
                    Ok(Request::Push {
                        source,
                        index,
                        line,
                        ..
                    }) => Some((source, index, line)),
                    _ => None,
                })
                .collect()
        })
    });
    outcome.check(pushes.len() as u64 == session_lines, || {
        format!("{} of {session_lines} frames parsed as PUSH", pushes.len())
    });

    let mut inline_tracer = Tracer::new(true);
    let inline_report = inline_pass(&pushes, &mut inline_tracer)?;
    let mut tenant_tracer = Tracer::new(true);
    let (tenant_report, checkpoint) = tenant_pass(&pushes, &mut tenant_tracer)?;

    // Pass C, twice: tracer off and on, the two sides of the overhead.
    let mut core_walls = [0.0; 2];
    let mut core_tracer = Tracer::new(true);
    let mut core_report = String::new();
    let bytes = wire_bytes(&frames);
    for (slot, enabled) in core_walls.iter_mut().zip([false, true]) {
        let mut off = Tracer::new(false);
        let t = if enabled { &mut core_tracer } else { &mut off };
        let mut core = ServeCore::new(serve_config(Vec::new())).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let refused = t.span(PASS, |t| feed(&mut core, &bytes, "serve.server.feed", t));
        *slot = started.elapsed().as_secs_f64();
        outcome.check(refused == 0, || {
            format!("ServeCore::feed refused {refused} frames")
        });
        let analysis = core
            .drain_tenant(&wire::tenant_name(0))
            .ok_or("ServeCore lost its tenant")?;
        core_report = logdiver::report::full_report(&analysis.metrics, &analysis.stats);
    }
    for (what, report) in [
        ("InlineEngine", &inline_report),
        ("Tenant", &tenant_report),
        ("ServeCore", &core_report),
    ] {
        outcome.check(*report == prepared.reference, || {
            format!("the in-process {what} pass renders another report than analyze_dir")
        });
    }

    // Pass D: the whole replay into a core with the two-replica store at
    // the default cadence, and `checkpoint_all` alone at 1..4 hot tenants.
    let dirs: Vec<PathBuf> = ["inproc-a", "inproc-b"]
        .iter()
        .map(|d| ctx.work.join(d))
        .collect();
    let mut store_tracer = Tracer::new(true);
    let mut core = ServeCore::new(serve_config(dirs.clone())).map_err(|e| e.to_string())?;
    let mut direct = Vec::new();
    let mut direct_writes = 0;
    for i in 0..TENANTS {
        let bytes = wire_bytes(&frames_for(&frames, i));
        let refused = store_tracer.span(PASS, |t| {
            feed(&mut core, &bytes, "serve.server.feed_with_store", t)
        });
        outcome.check(refused == 0, || {
            format!("ServeCore::feed with a store refused {refused} frames")
        });
        let started = Instant::now();
        direct_writes += core.checkpoint_all() as u64;
        direct.push(started.elapsed().as_secs_f64());
    }
    outcome.notes.push(format!(
        "checkpoint_all alone at 1, 2, 3, 4 hot tenants [s]: {direct:.4?}"
    ));
    let cadence_writes = core
        .store_snapshot()
        .and_then(|s| s.replicas.first().map(|r| r.writes_ok))
        .unwrap_or(0)
        .saturating_sub(direct_writes);
    let mut report_s = Vec::new();
    for _ in 0..15 {
        let started = Instant::now();
        let answer = core.handle_line(&format!("REPORT {}", wire::tenant_name(0)));
        report_s.push(started.elapsed().as_secs_f64());
        outcome.check(
            answer.split_once('\n').map(|(_, body)| body) == Some(expected_body.as_str()),
            || "handle_line(REPORT) carries another body than the batch report".to_string(),
        );
    }
    drop(core);
    let mut store_rows = Tracer::new(true);
    store_rows.span(PASS, |t| {
        let bytes = t.span("serve.store.encode", |_| checkpoint.to_bytes());
        outcome.metric("serve.store.bytes", bytes.len() as f64);
        drop(bytes);
        let fs: Arc<dyn Fs> = Arc::new(RealFs);
        let mut store = CheckpointStore::open(fs, &dirs, StorePolicy::default());
        let written = t.span("serve.store.write", |_| {
            store.write_tenant(&wire::tenant_name(0), &checkpoint)
        });
        outcome.check(written == dirs.len(), || {
            format!("write_tenant reached {written} of {} replicas", dirs.len())
        });
        let resumed = t.span("serve.store.resume", |_| {
            ServeCore::new(serve_config(dirs.clone()))
        });
        let names = resumed.map(|core| core.tenant_names().len()).unwrap_or(0);
        outcome.check(names == TENANTS, || {
            format!("ServeCore::new resumed {names} of {TENANTS} tenants from the replicas")
        });
    });

    let session_spans = session_tracer.spans().to_vec();
    let proto_spans = proto_tracer.spans().to_vec();
    let inline_spans = inline_tracer.spans().to_vec();
    let tenant_spans = tenant_tracer.spans().to_vec();
    let core_spans = core_tracer.spans().to_vec();
    let with_store_spans = store_tracer.spans().to_vec();
    let store_spans = store_rows.spans().to_vec();

    let session_s = trace::self_secs(&session_spans, "client.session");
    let proto_s = trace::self_secs(&proto_spans, "serve.proto.parse");
    let inline_s = trace::self_secs(&inline_spans, "stream.inline");
    let offer_s = trace::self_secs(&tenant_spans, "serve.tenant.offer");
    let pump_s = trace::self_secs(&tenant_spans, "serve.tenant.pump");
    let feed_s = trace::self_secs(&core_spans, "serve.server.feed");
    let feed_with_store_s = trace::self_secs(&with_store_spans, "serve.server.feed_with_store");
    let tenants = TENANTS as f64;
    outcome.metric("stream.inline.busy_s", inline_s);
    outcome.metric("serve.tenant.offer_s", offer_s);
    outcome.metric("serve.tenant.pump_s", pump_s - inline_s);
    outcome.metric("serve.proto.parse_s", proto_s);
    outcome.metric("serve.server.feed_s", feed_s);
    outcome.metric("serve.server.self_s", feed_s - offer_s - pump_s - proto_s);
    outcome.metric(
        "serve.server.checkpoint_all_s",
        feed_with_store_s - tenants * feed_s,
    );
    outcome.metric("serve.server.checkpoints", cadence_writes as f64);
    outcome.metric(
        "serve.store.encode_s",
        trace::self_secs(&store_spans, "serve.store.encode"),
    );
    outcome.metric(
        "serve.store.write_s",
        trace::self_secs(&store_spans, "serve.store.write"),
    );
    outcome.metric(
        "serve.store.resume_s",
        trace::self_secs(&store_spans, "serve.store.resume"),
    );
    outcome.metric("serve.daemon.restart_s", restart_s);
    outcome.metric("serve.server.report_s", stats::median(&report_s));
    outcome.metric("client.session.busy_s", session_s);
    outcome.metric("client.session.lines", session_lines as f64);
    // Socket reads and writes, context switches, global-lock wait, ticker.
    let residual = real.replay.wall_s - feed_with_store_s - tenants * session_s;
    outcome.metric("serve.daemon.wire_residual_s", residual);
    outcome.notes.push(format!(
        "replay wall {:.6} s = feed with store {feed_with_store_s:.6} s + {TENANTS} x \
         client.session {session_s:.6} s + serve.daemon.wire_residual_s {residual:.6} s",
        real.replay.wall_s
    ));
    let acks = &real.replay.probe.ack_ms;
    if stats::highest_supported_percentile(acks.len()).is_none_or(|p| p < 99.0) {
        outcome.notes.push(format!(
            "probe: one iteration gives {} acks, fewer than the 1000 a p99 needs; it is printed all the same",
            acks.len()
        ));
    }
    outcome.metric(
        "serve.daemon.probe_ack_p50_ms",
        stats::percentile(acks, 50.0),
    );
    outcome.metric(
        "serve.daemon.probe_ack_p99_ms",
        stats::percentile(acks, 99.0),
    );
    outcome.metric(
        "serve.daemon.probe_late_p99_ms",
        stats::percentile(&real.replay.probe.late_ms, 99.0),
    );
    for ((_, metric), value) in wire::SNAPSHOT_STATS.iter().zip(real.stats) {
        outcome.metric(metric, value as f64);
    }
    outcome.note_samples("handle_line(REPORT)", "s", &report_s);

    finish(
        ctx,
        &mut outcome,
        &[
            ("client_session", session_spans),
            ("proto_parse", proto_spans),
            ("inline_engine", inline_spans),
            ("tenant", tenant_spans),
            ("serve_core", core_spans),
            ("serve_core_with_store", with_store_spans),
            ("store", store_spans),
        ],
        core_walls[0],
        core_walls[1],
    )?;
    Ok(outcome)
}

/// Runs the traced side of a workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload.kind {
        Kind::Batch => batch(ctx),
        Kind::Stream => stream(ctx),
        Kind::Serve => serve(ctx),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_renamed_per_tenant_and_grouped_by_source() {
        let frames = vec![
            "HELLO t0".to_string(),
            "PUSH t0 syslog 0 a t0 b".to_string(),
        ];
        assert_eq!(
            frames_for(&frames, 3),
            ["HELLO t3", "PUSH t3 syslog 0 a t0 b"]
        );
        let window: Vec<Push<'_>> = vec![
            (Source::Syslog, 0, "a"),
            (Source::Syslog, 1, "b"),
            (Source::Alps, 0, "c"),
            (Source::Syslog, 2, "d"),
        ];
        let runs: Vec<usize> = source_runs(&window).map(<[_]>::len).collect();
        assert_eq!(runs, [2, 1, 1]);
    }

    #[test]
    fn rows_and_wall_of_a_pass() {
        let mut t = Tracer::new(true);
        t.span(PASS, |t| {
            t.span("row.a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("row.b", |t| t.span("row.a", |_| ()));
        });
        let spans = t.spans();
        let (wall, rows) = (pass_wall(spans), pass_rows(spans));
        assert!(
            wall >= 0.002 && rows >= 0.002 && rows <= wall,
            "{rows} of {wall}"
        );
    }
}
