//! `logdiver` — command-line driver for the field-study toolkit.
//!
//! ```text
//! logdiver simulate  --out DIR [--divisor N] [--days N] [--seed N]
//! logdiver analyze   --logs DIR [--csv DIR] [--threads N] [--timings]
//!                    [--quarantine-out FILE]
//! logdiver validate  --logs DIR [--json] [--min-precision X] [--min-recall X]
//! logdiver campaign  --out DIR [--divisor N] [--days N] [--seed N]
//!                    [--seeds N] [--severities LIST] [--gate-f1 X]
//! logdiver stream    --logs DIR [--chunk N] [--follow] [--shards N]
//!                    [--lateness SECS] [--checkpoint FILE] [--resume FILE]
//!                    [--checkpoint-every N] [--checkpoint-secs N]
//! logdiver stream    --inspect-checkpoint FILE [--json]
//!                    [--quarantine-out FILE] [--quarantine-keep N]
//! logdiver reproduce [--divisor N] [--days N] [--seed N] [--boost-capability]
//! logdiver swf       --out FILE [--divisor N] [--days N] [--seed N]
//! logdiver lint      [--json] [--deny warnings] [--root DIR] [--rules]
//! logdiver serve     [--listen ADDR] [--tenants-dir DIR]...
//!                    [--checkpoint-every N] [--mem-budget BYTES] [--shards N]
//! ```
//!
//! `simulate` writes the five raw log files plus `ground_truth.jsonl`;
//! `analyze` runs LogDiver over a log directory and prints the full report;
//! `validate` additionally scores the verdicts against the ground truth
//! (`--json` for machine-readable output; `--min-precision`/`--min-recall`
//! exit nonzero when attribution quality falls below the floor);
//! `campaign` sweeps a severity grid of adversarial log perturbations ×
//! seeds and writes precision/recall/F1 degradation curves
//! (see [`campaign`]);
//! `stream` feeds the same files through the online engine
//! (`logdiver-stream`), printing live progress, and `--follow` keeps
//! tailing them — surviving file rotation, circuit-breaking sources that
//! turn to garbage, writing crash-safe checkpoints (`--checkpoint`) that a
//! later `--resume` picks up exactly, and exiting cleanly on Ctrl-C;
//! `reproduce` does simulate+analyze in memory and prints every table and
//! figure (the benches call the same path per experiment);
//! `lint` statically verifies the classification rule set and the
//! workspace's invariants (`logdiver-lint`) — CI runs it with
//! `--deny warnings`;
//! `serve` runs the multi-tenant streaming ingestion daemon
//! (`logdiver-serve`): fleets of clusters push their raw logs over a TCP
//! line protocol, each tenant gets its own engine and checkpoints, and a
//! killed daemon resumes every tenant (see DESIGN.md §15).

mod campaign;

use std::collections::{HashMap, HashSet};
use std::process::ExitCode;

use bw_sim::{FileOutput, MemoryOutput, SimConfig, Simulation};
use logdiver::{report, LogCollection, LogDiver};
use rand::SeedableRng;

fn usage() -> &'static str {
    "usage:\n  logdiver simulate  --out DIR [--divisor N] [--days N] [--seed N]\n  logdiver analyze   --logs DIR [--csv DIR] [--threads N] [--timings]\n                     [--quarantine-out FILE]\n  logdiver validate  --logs DIR [--json] [--min-precision X] [--min-recall X]\n  logdiver campaign  --out DIR [--divisor N] [--days N] [--seed N] [--seeds N]\n                     [--severities LIST] [--gate-f1 X]\n  logdiver stream    --logs DIR [--chunk N] [--follow] [--shards N]\n                     [--lateness SECS] [--checkpoint FILE] [--resume FILE]\n                     [--checkpoint-every N] [--checkpoint-secs N]\n                     [--quarantine-out FILE] [--quarantine-keep N]\n  logdiver stream    --inspect-checkpoint FILE [--json]\n  logdiver reproduce [--divisor N] [--days N] [--seed N] [--boost-capability]\n  logdiver swf       --out FILE [--divisor N] [--days N] [--seed N]\n  logdiver lint      [--json] [--deny warnings] [--root DIR] [--rules]\n  logdiver serve     [--listen ADDR] [--tenants-dir DIR]... [--checkpoint-every N]\n                     [--evict-after N] [--mem-budget BYTES] [--shards N]\n                     [--tenant-config FILE] [--max-line BYTES] [--deadline-ms N]\n                     [--io-timeout-ms N] [--line-deadline-ms N]\n\noptions:\n  --divisor N   machine scale divisor (1 = full Blue Waters; default 16)\n  --days N      production days to simulate (default 30; the paper is 518)\n  --seed N      RNG seed (default 1)\n  --out DIR     output directory for raw logs\n  --logs DIR    directory holding messages.log / hwerr.log / apsys.log /\n                torque.log / netwatch.log\n  --csv DIR     also write scale-curve CSVs there\n  --threads N   worker threads for the parallel analyze stages (default: all\n                cores; output is identical for every N)\n  --timings     print a per-stage wall-clock breakdown to stderr\n  --json        print validation results as JSON instead of text\n  --min-precision X  exit nonzero when attribution precision < X\n  --min-recall X     exit nonzero when attribution recall < X\n  --seeds N     campaign: number of consecutive seeds to sweep (default 2)\n  --severities LIST  campaign: comma-separated severity grid in [0,1]\n                (default 0,0.25,0.5,0.75,1)\n  --gate-f1 X   campaign: exit nonzero when the clean point's F1 < X\n  --chunk N     lines pushed per source per round when streaming (default 1024)\n  --follow      keep tailing the log files for appended lines; SIGINT writes\n                a final checkpoint and report, then exits cleanly\n  --shards N    parallel syslog parse workers (default 2)\n  --lateness SECS  allowed out-of-order lateness within a source (default 60)\n  --checkpoint FILE     write crash-safe checkpoints to FILE (atomic\n                temp+rename); resume later with --resume FILE\n  --resume FILE         restore engine state and file offsets from a\n                checkpoint; also the checkpoint target unless --checkpoint\n                says otherwise\n  --checkpoint-every N  checkpoint after N accepted lines (default 50000)\n  --checkpoint-secs N   also checkpoint every N seconds while lines flow\n                (default 5)\n  --inspect-checkpoint FILE  stream: validate a checkpoint file (binary since\n                format version 4) and print its version, size, footer\n                verdict, lateness, per-source offsets and state counts;\n                with --json, the whole state as JSON instead\n  --quarantine-out FILE stream: append every quarantined (corrupt) raw line\n                to FILE; analyze: write `file@offset (reason): line`\n                provenance for every rejected line\n  --quarantine-keep N   recent corrupt lines kept in memory per source\n                (default 16)\n  --boost-capability  multiply capability-job frequency ×8 (dense sampling\n                of the full-scale buckets on small machines)\n  --deny warnings  lint: fail on warnings too, not just errors (CI mode)\n  --root DIR    lint: workspace root (default: walk up from the cwd)\n  --rules       lint: print the rule catalog and exit\n                lint exits 0 clean, 1 findings, 2 usage error, 3 when an\n                analyzer could not run (unreadable workspace, internal panic)\n  --listen ADDR serve: bind address (default 127.0.0.1:7044; port 0 picks an\n                ephemeral port, printed on startup)\n  --tenants-dir DIR     serve: checkpoint directory, one <tenant>.ckpt per\n                tenant (default ./tenants); repeat the flag to replicate\n                every checkpoint across several directories, and a restarted\n                daemon resumes each tenant from the newest valid replica\n  --evict-after N       serve: checkpoint and evict a tenant idle for N pump\n                sweeps; it is resurrected transparently on its next PUSH\n                (default 0 = never evict)\n  --tenant-config FILE  serve: per-tenant StreamConfig overrides, one\n                `<tenant> key=value ...` per line (keys: lateness,\n                quarantine-keep)\n  --mem-budget BYTES    serve: global open-state budget; per-tenant quota is\n                an eighth of it (default 268435456)\n  --max-line BYTES      serve: longest accepted protocol line; longer lines\n                answer ERR code=line-too-long (default 65536)\n  --deadline-ms N       serve: shed pushes with ERR code=overload when a pump\n                sweep exceeds N ms; 0 disables shedding (default 1000)\n  --io-timeout-ms N     serve: per-connection socket read/write timeout;\n                0 disables (default 5000)\n  --line-deadline-ms N  serve: evict a client whose partial line is older\n                than N ms (slowloris defense); 0 disables (default 10000)\n\nserve reuses --checkpoint-every (auto-checkpoint every N applied records,\ndefault 10000) and --shards (pump worker threads, default: CPU count)."
}

/// What one subcommand accepts: value-taking options and bare switches.
/// Anything else is a usage error.
struct CommandSpec {
    name: &'static str,
    flags: &'static [&'static str],
    switches: &'static [&'static str],
}

const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        name: "simulate",
        flags: &["out", "divisor", "days", "seed"],
        switches: &["boost-capability"],
    },
    CommandSpec {
        name: "analyze",
        flags: &["logs", "csv", "threads", "quarantine-out"],
        switches: &["timings"],
    },
    CommandSpec {
        name: "validate",
        flags: &["logs", "min-precision", "min-recall"],
        switches: &["json"],
    },
    CommandSpec {
        name: "campaign",
        flags: &[
            "out",
            "divisor",
            "days",
            "seed",
            "seeds",
            "severities",
            "gate-f1",
        ],
        switches: &[],
    },
    CommandSpec {
        name: "stream",
        flags: &[
            "logs",
            "chunk",
            "shards",
            "lateness",
            "checkpoint",
            "checkpoint-every",
            "checkpoint-secs",
            "resume",
            "quarantine-out",
            "quarantine-keep",
            "inspect-checkpoint",
        ],
        switches: &["follow", "json"],
    },
    CommandSpec {
        name: "reproduce",
        flags: &["divisor", "days", "seed"],
        switches: &["boost-capability"],
    },
    CommandSpec {
        name: "swf",
        flags: &["out", "divisor", "days", "seed"],
        switches: &["boost-capability"],
    },
];

#[derive(Debug, Default)]
struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

fn parse_args(spec: &CommandSpec, argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let Some(raw) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        // Accept both `--name value` and `--name=value`.
        let (name, inline) = match raw.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (raw, None),
        };
        if spec.flags.contains(&name) {
            let value = match inline {
                Some(v) => v,
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("option --{name} requires a value"))?,
            };
            if args.flags.insert(name.to_string(), value).is_some() {
                return Err(format!("option --{name} given more than once"));
            }
        } else if spec.switches.contains(&name) {
            if let Some(v) = inline {
                return Err(format!("switch --{name} does not take a value (got {v:?})"));
            }
            if !args.switches.iter().any(|s| s == name) {
                args.switches.push(name.to_string());
            }
        } else {
            return Err(format!("unknown option --{name} for {:?}", spec.name));
        }
    }
    Ok(args)
}

fn get_u64(args: &Args, name: &str, default: u64) -> Result<u64, String> {
    match args.flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
    }
}

fn build_config(args: &Args) -> Result<SimConfig, String> {
    let divisor = get_u64(args, "divisor", 16)? as u32;
    let days = get_u64(args, "days", 30)? as u32;
    let seed = get_u64(args, "seed", 1)?;
    let mut config = if divisor <= 1 {
        SimConfig::blue_waters(days)
    } else {
        SimConfig::scaled(divisor, days)
    }
    .with_seed(seed);
    if args.switches.iter().any(|s| s == "boost-capability") {
        for class in &mut config.workload.classes {
            class.capability_fraction *= 8.0;
        }
    }
    Ok(config)
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let out_dir = args.flags.get("out").ok_or("simulate needs --out DIR")?;
    let config = build_config(args)?;
    let sim = Simulation::new(config)?;
    eprintln!(
        "simulating {} for {} days (seed {})…",
        sim.machine().name(),
        sim.config().days,
        sim.config().seed
    );
    let mut out =
        FileOutput::create(out_dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    let report = sim.run(&mut out);
    out.flush().map_err(|e| format!("flush failed: {e}"))?;
    eprintln!(
        "wrote {} log lines to {out_dir}: {} jobs, {} apps, {:.0} node-hours, {} faults",
        out.total_lines(),
        report.jobs_submitted,
        report.apps_completed,
        report.node_hours,
        report.faults_injected
    );
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let dir = args.flags.get("logs").ok_or("analyze needs --logs DIR")?;
    let threads = match args.flags.get("threads") {
        Some(_) => get_u64(args, "threads", 1)?.max(1) as usize,
        None => logdiver::exec::default_threads(),
    };
    // One arena block per source file: parse and filter borrow from it,
    // and rejected lines are recovered by byte offset only if
    // --quarantine-out asks for them.
    let arena = logdiver::input::LogArena::from_dir(dir).map_err(|e| e.to_string())?;
    let (analysis, timings, quarantine) = LogDiver::new()
        .with_threads(threads)
        .analyze_arena_timed(&arena);
    if let Some(path) = args.flags.get("quarantine-out") {
        write_quarantine_offsets(path, &arena, &quarantine)?;
        eprintln!("{} quarantined line(s) written to {path}", quarantine.len());
    }
    println!(
        "{}",
        report::full_report(&analysis.metrics, &analysis.stats)
    );
    if args.switches.iter().any(|s| s == "timings") {
        let lines_total: u64 = analysis.stats.parse.iter().map(|c| c.total).sum();
        eprintln!("stage timings ({threads} thread(s), {lines_total} lines):");
        eprintln!("  parse        {:>9.3}s", timings.parse_secs);
        eprintln!("  filter       {:>9.3}s", timings.filter_secs);
        eprintln!("  coverage     {:>9.3}s", timings.coverage_secs);
        eprintln!("  coalesce     {:>9.3}s", timings.coalesce_secs);
        eprintln!("  reconstruct  {:>9.3}s", timings.reconstruct_secs);
        eprintln!("  classify     {:>9.3}s", timings.classify_secs);
        eprintln!("  metrics      {:>9.3}s", timings.metrics_secs);
        eprintln!("  total        {:>9.3}s", timings.total_secs);
        if timings.total_secs > 0.0 {
            eprintln!(
                "  throughput   {:>9.0} lines/s",
                lines_total as f64 / timings.total_secs
            );
        }
    }
    if let Some(csv_dir) = args.flags.get("csv") {
        std::fs::create_dir_all(csv_dir).map_err(|e| format!("cannot create {csv_dir}: {e}"))?;
        for curve in &analysis.metrics.scale_curves {
            let name = format!("scale_{}.csv", curve.node_type.label().to_lowercase());
            let path = std::path::Path::new(csv_dir).join(name);
            std::fs::write(&path, report::scale_curve_csv(curve))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        eprintln!("scale-curve CSVs written to {csv_dir}");
    }
    Ok(())
}

fn cmd_validate(args: &Args) -> Result<(), String> {
    let dir = args.flags.get("logs").ok_or("validate needs --logs DIR")?;
    let truths = campaign::load_truths(dir)?;
    let analysis = LogDiver::new()
        .analyze_dir(dir)
        .map_err(|e| e.to_string())?;
    let score = campaign::score_runs(&analysis.runs, &truths, &HashSet::new());
    let degraded = analysis
        .runs
        .iter()
        .filter(|r| r.confidence.is_degraded())
        .count() as u64;
    let report = campaign::ValidationReport::new(score, degraded, analysis.coverage.len() as u64);
    if args.switches.iter().any(|s| s == "json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report)
                .map_err(|e| format!("cannot serialize report: {e}"))?
        );
    } else {
        println!("V1 — attribution validation against ground truth");
        println!(
            "  runs matched      : {}",
            score.true_positives
                + score.false_positives
                + score.false_negatives
                + score.true_negatives
        );
        println!("  true positives    : {}", score.true_positives);
        println!("  false positives   : {}", score.false_positives);
        println!("  false negatives   : {}", score.false_negatives);
        println!("  true negatives    : {}", score.true_negatives);
        if score.unmatched > 0 {
            println!("  runs without truth: {}", score.unmatched);
        }
        println!("  precision         : {:.3}", report.precision);
        println!("  recall            : {:.3}", report.recall);
        println!("  f1                : {:.3}", report.f1);
        println!("  degraded verdicts : {degraded}");
        println!("  coverage gaps     : {}", analysis.coverage.len());
    }
    let mut breaches = Vec::new();
    if let Some(floor) = campaign::threshold(args, "min-precision")? {
        if report.precision < floor {
            breaches.push(format!(
                "precision {:.3} is below --min-precision {floor}",
                report.precision
            ));
        }
    }
    if let Some(floor) = campaign::threshold(args, "min-recall")? {
        if report.recall < floor {
            breaches.push(format!(
                "recall {:.3} is below --min-recall {floor}",
                report.recall
            ));
        }
    }
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(breaches.join("; "))
    }
}

fn cmd_reproduce(args: &Args) -> Result<(), String> {
    let config = build_config(args)?;
    let sim = Simulation::new(config)?;
    eprintln!(
        "simulating {} for {} days (seed {})…",
        sim.machine().name(),
        sim.config().days,
        sim.config().seed
    );
    let mut raw = MemoryOutput::new();
    let sim_report = sim.run(&mut raw);
    eprintln!(
        "simulated {} jobs / {} apps / {:.0} node-hours; analyzing…",
        sim_report.jobs_submitted, sim_report.apps_completed, sim_report.node_hours
    );
    let mut logs = LogCollection::new();
    logs.syslog = raw.syslog;
    logs.hwerr = raw.hwerr;
    logs.alps = raw.alps;
    logs.torque = raw.torque;
    logs.netwatch = raw.netwatch;
    let analysis = LogDiver::new().analyze(&logs);
    println!(
        "{}",
        report::full_report(&analysis.metrics, &analysis.stats)
    );
    Ok(())
}

/// Graceful Ctrl-C for `stream --follow`: the handler only flips a flag;
/// the feeder loop notices it between rounds and runs the normal shutdown
/// path (final checkpoint, spill drain, drain, report).
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }

    pub fn pending() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigint {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

/// One tailed source file: the tailer, lines read but not yet accepted by
/// the engine, and the byte offset checkpoints may safely record.
struct TailState {
    source: logdiver_stream::Source,
    tail: logdiver_stream::tail::Tailer<logdiver_stream::tail::FsLogFile>,
    /// Each pending line carries the offset that becomes durable once the
    /// engine accepts it — so a checkpoint taken mid-chunk never claims
    /// bytes the engine has not seen.
    pending: std::collections::VecDeque<(String, u64)>,
    /// Offset of the last line the engine accepted; what checkpoints record.
    ckpt_offset: u64,
    last_len: u64,
    last_growth: std::time::Instant,
    stalled: bool,
    /// While the source's circuit breaker is open: when to half-open it.
    probe_at: Option<std::time::Instant>,
    closed: bool,
}

fn cmd_stream(args: &Args) -> Result<(), String> {
    use logdiver_stream::tail::{FsLogFile, Tailer};
    use logdiver_stream::{Source, StreamCheckpoint, StreamConfig, StreamEngine, StreamError};
    use std::io::Write as _;
    use std::time::{Duration, Instant};

    /// A file that stops growing for this long, while another source keeps
    /// growing, is reported to the engine as stalled (degrading it so it
    /// cannot hold the watermark forever).
    const STALL_AFTER: Duration = Duration::from_secs(30);

    if let Some(path) = args.flags.get("inspect-checkpoint") {
        return inspect_checkpoint(args, path);
    }
    if args.switches.iter().any(|s| s == "json") {
        return Err("--json only applies to --inspect-checkpoint".to_string());
    }
    let dir = args.flags.get("logs").ok_or("stream needs --logs DIR")?;
    let chunk = get_u64(args, "chunk", 1024)?.max(1) as usize;
    let shards = get_u64(args, "shards", 2)?.max(1) as usize;
    let lateness = get_u64(args, "lateness", 60)?;
    let follow = args.switches.iter().any(|s| s == "follow");
    let ckpt_every = get_u64(args, "checkpoint-every", 50_000)?.max(1);
    let ckpt_interval = Duration::from_secs(get_u64(args, "checkpoint-secs", 5)?.max(1));
    let quarantine_keep = get_u64(args, "quarantine-keep", 16)? as usize;
    let resume_from = args.flags.get("resume").map(std::path::PathBuf::from);
    let ckpt_path = args
        .flags
        .get("checkpoint")
        .map(std::path::PathBuf::from)
        .or_else(|| resume_from.clone());

    let mut config = StreamConfig::default()
        .with_lateness(logdiver_types::SimDuration::from_secs(lateness as i64))
        .with_syslog_shards(shards)
        .with_quarantine_keep(quarantine_keep);
    let mut quarantine_out = match args.flags.get("quarantine-out") {
        Some(path) => {
            config = config.with_quarantine_spill();
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {path}: {e}"))?;
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };

    let (mut engine, start_offsets) = match &resume_from {
        Some(path) => {
            let ckpt = StreamCheckpoint::read(path)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
            let mut offsets = [0u64; 5];
            for source in Source::ALL {
                offsets[source.index()] = ckpt.offset(source);
            }
            let engine = StreamEngine::resume(config, &ckpt)
                .map_err(|e| format!("cannot resume from {}: {e}", path.display()))?;
            eprintln!(
                "[stream] resumed from {}: {} lines already applied",
                path.display(),
                ckpt.records_applied()
            );
            (engine, offsets)
        }
        None => (StreamEngine::new(config), [0u64; 5]),
    };

    // One tail per source file present in the directory; absent sources are
    // closed up front so they do not hold the watermark down.
    let start = Instant::now();
    let mut tails: Vec<TailState> = Vec::new();
    for source in Source::ALL {
        let path = std::path::Path::new(dir).join(source.file_name());
        if path.is_file() {
            let offset = start_offsets[source.index()];
            tails.push(TailState {
                source,
                tail: Tailer::resume_at(FsLogFile::new(path), offset),
                pending: std::collections::VecDeque::new(),
                ckpt_offset: offset,
                last_len: offset,
                last_growth: start,
                stalled: false,
                probe_at: None,
                closed: false,
            });
        } else {
            eprintln!("[stream] {} absent, source closed", source.file_name());
            engine.close(source);
        }
    }
    if tails.is_empty() {
        return Err(format!("no log files found in {dir}"));
    }

    sigint::install();
    let mut rounds = 0u64;
    let mut pushed_since_ckpt = 0u64;
    let mut last_ckpt = Instant::now();
    let mut interrupted = false;

    loop {
        let mut idle = true;
        for t in tails.iter_mut() {
            if t.closed {
                continue;
            }
            // Open circuit: wait out the breaker's backoff, then half-open
            // it with a probe; the retried pending lines are the probe.
            if let Some(at) = t.probe_at {
                if Instant::now() < at {
                    continue;
                }
                engine.probe(t.source);
                t.probe_at = None;
            }
            if t.pending.is_empty() {
                let poll = t
                    .tail
                    .poll()
                    .map_err(|e| format!("cannot read {}: {e}", t.source.file_name()))?;
                if poll.rotated {
                    eprintln!(
                        "[stream] {} rotated or truncated; re-reading from the start",
                        t.source.file_name()
                    );
                    t.ckpt_offset = 0;
                }
                if poll.len != t.last_len || !poll.lines.is_empty() {
                    t.last_len = poll.len;
                    t.last_growth = Instant::now();
                    if t.stalled {
                        t.stalled = false;
                        engine.mark_recovered(t.source);
                        eprintln!("[stream] {} is growing again", t.source.file_name());
                    }
                }
                t.pending.extend(poll.lines.into_iter().zip(poll.ends));
            }
            let mut taken = 0;
            while taken < chunk {
                let Some((line, _)) = t.pending.front() else {
                    break;
                };
                match engine.push(t.source, line.clone()) {
                    Ok(()) => {
                        let (_, end) = t.pending.pop_front().expect("front checked above");
                        t.ckpt_offset = end;
                        pushed_since_ckpt += 1;
                        taken += 1;
                        idle = false;
                    }
                    Err(StreamError::CircuitOpen(source)) => {
                        let backoff = engine.health(source).backoff_ms.max(1);
                        eprintln!(
                            "[stream] {}: circuit open, probing again in {backoff}ms",
                            source.file_name()
                        );
                        t.probe_at = Some(Instant::now() + Duration::from_millis(backoff));
                        break;
                    }
                    Err(StreamError::SourceClosed(source)) => {
                        // Only possible when a checkpoint recorded the
                        // source as closed; honor that and stop feeding it.
                        eprintln!(
                            "[stream] {}: closed at checkpoint time, ignoring its file",
                            source.file_name()
                        );
                        t.closed = true;
                        t.pending.clear();
                        break;
                    }
                }
            }
        }

        // A source whose file froze while others keep growing would pin the
        // watermark forever; report the stall so the engine degrades it.
        if follow {
            let now = Instant::now();
            let any_growing = tails
                .iter()
                .any(|t| !t.closed && now.duration_since(t.last_growth) < STALL_AFTER);
            if any_growing {
                for t in tails.iter_mut() {
                    if !t.closed && !t.stalled && now.duration_since(t.last_growth) >= STALL_AFTER {
                        t.stalled = true;
                        engine.mark_stalled(t.source);
                        eprintln!(
                            "[stream] {} has not grown for {}s while others have; degrading",
                            t.source.file_name(),
                            STALL_AFTER.as_secs()
                        );
                    }
                }
            }
        }

        if let Some(out) = quarantine_out.as_mut() {
            write_spill(&mut engine, out)?;
        }
        if let Some(path) = &ckpt_path {
            let due = pushed_since_ckpt >= ckpt_every
                || (pushed_since_ckpt > 0 && last_ckpt.elapsed() >= ckpt_interval);
            if due {
                write_checkpoint(&engine, &tails, path)?;
                pushed_since_ckpt = 0;
                last_ckpt = Instant::now();
            }
        }

        rounds += 1;
        if rounds.is_multiple_of(64) {
            print_progress(&engine);
        }
        if sigint::pending() {
            interrupted = true;
            break;
        }
        if idle {
            let waiting_on_probe = tails.iter().any(|t| !t.closed && t.probe_at.is_some());
            if follow {
                print_progress(&engine);
                std::thread::sleep(Duration::from_millis(500));
            } else if waiting_on_probe {
                std::thread::sleep(Duration::from_millis(50));
            } else {
                break;
            }
        }
    }

    // One-shot reads will never see a torn final line completed: consume
    // it now (it parses or it quarantines — either is accounted for).
    if !follow && !interrupted {
        for t in tails.iter_mut() {
            if t.closed {
                continue;
            }
            if let Ok(Some(partial)) = t.tail.finish() {
                if engine.push(t.source, partial).is_ok() {
                    t.ckpt_offset = t.tail.offset();
                }
            }
        }
    }

    // Quiesce once so the final spill drain and checkpoint both see every
    // pushed line applied.
    let final_ckpt = (ckpt_path.is_some() || quarantine_out.is_some()).then(|| {
        let mut offsets = [0u64; 5];
        for t in &tails {
            offsets[t.source.index()] = t.ckpt_offset;
        }
        engine.checkpoint(offsets)
    });
    if let Some(out) = quarantine_out.as_mut() {
        write_spill(&mut engine, out)?;
        out.flush()
            .map_err(|e| format!("cannot flush quarantine spill: {e}"))?;
    }
    if let (Some(path), Some(ckpt)) = (&ckpt_path, &final_ckpt) {
        ckpt.write_atomic(path)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        eprintln!("[stream] final checkpoint written to {}", path.display());
    }
    print_progress(&engine);
    if interrupted {
        eprintln!("[stream] interrupted; draining what was ingested");
    }
    let analysis = engine.drain();
    println!(
        "{}",
        report::full_report(&analysis.metrics, &analysis.stats)
    );
    Ok(())
}

/// `stream --inspect-checkpoint FILE [--json]`: what `cat` was for while
/// checkpoints were JSON. Validates the file exactly as `--resume` would
/// and prints what it holds; a file that would not resume exits nonzero.
fn inspect_checkpoint(args: &Args, path: &str) -> Result<(), String> {
    use logdiver_stream::StreamCheckpoint;
    let json = args.switches.iter().any(|s| s == "json");
    if args.flags.len() > 1 || args.switches.len() > usize::from(json) {
        return Err("--inspect-checkpoint takes no other option than --json".to_string());
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let parsed = StreamCheckpoint::from_bytes(&bytes);
    if json {
        let ckpt = parsed.map_err(|e| format!("{path}: {e}"))?;
        println!("{}", ckpt.to_json());
        return Ok(());
    }
    println!("file: {path}");
    println!("bytes: {}", bytes.len());
    match StreamCheckpoint::file_version(&bytes) {
        Some(v) => println!("version: {v}"),
        None => println!("version: unknown"),
    }
    match parsed {
        Ok(ckpt) => {
            println!("footer: ok (length and crc32 match)");
            print!("{}", ckpt.summary());
            Ok(())
        }
        Err(e) => {
            println!("footer: {e}");
            Err(format!("{path} would not resume"))
        }
    }
}

/// Takes a quiescent checkpoint with the feeder's durable offsets and
/// writes it atomically.
fn write_checkpoint(
    engine: &logdiver_stream::StreamEngine,
    tails: &[TailState],
    path: &std::path::Path,
) -> Result<(), String> {
    let mut offsets = [0u64; 5];
    for t in tails {
        offsets[t.source.index()] = t.ckpt_offset;
    }
    engine
        .checkpoint(offsets)
        .write_atomic(path)
        .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))
}

/// Writes batch-mode quarantine provenance to the `--quarantine-out`
/// file: one `file@offset (reason): line` record per rejected line, the
/// bytes sliced straight out of the arena (lossily re-encoded only if a
/// rejected line was not valid UTF-8).
fn write_quarantine_offsets(
    path: &str,
    arena: &logdiver::input::LogArena,
    quarantine: &[logdiver::parse::QuarantinedLine],
) -> Result<(), String> {
    use std::io::Write as _;
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    for q in quarantine {
        let i = q.source as usize;
        let start = q.offset as usize;
        let bytes = &arena.block(i)[start..start + q.len as usize];
        writeln!(
            out,
            "{}@{} ({}): {}",
            logdiver::input::SOURCE_FILES[i],
            q.offset,
            q.reason,
            String::from_utf8_lossy(bytes)
        )
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    out.flush().map_err(|e| format!("cannot flush {path}: {e}"))
}

/// Drains spilled quarantine lines to the `--quarantine-out` file, one
/// `source\tline` record per line.
fn write_spill(
    engine: &mut logdiver_stream::StreamEngine,
    out: &mut std::io::BufWriter<std::fs::File>,
) -> Result<(), String> {
    use std::io::Write as _;
    for (source, line) in engine.take_spilled() {
        writeln!(out, "{}\t{}", source.name(), line)
            .map_err(|e| format!("cannot write quarantine spill: {e}"))?;
    }
    Ok(())
}

fn print_progress(engine: &logdiver_stream::StreamEngine) {
    let snap = engine.snapshot();
    let bad: u64 = snap.parse.iter().map(|c| c.bad).sum();
    let total: u64 = snap.parse.iter().map(|c| c.total).sum();
    let watermark = match snap.watermark {
        Some(w) => w.to_string(),
        None => "blocked".to_string(),
    };
    let health: Vec<&str> = snap.health.iter().map(|h| h.state.label()).collect();
    let spill = if snap.spill_dropped > 0 {
        format!(" spill_dropped={}", snap.spill_dropped)
    } else {
        String::new()
    };
    eprintln!(
        "[stream] lines={total} bad={bad} watermark={watermark} runs={}/{} open \
         events={}/{} open buffered={} late_dropped={} health={}{spill}",
        snap.classified_runs,
        snap.open_runs,
        snap.closed_events,
        snap.open_events,
        snap.buffered_entries,
        snap.late_dropped,
        health.join(",")
    );
}

fn cmd_swf(args: &Args) -> Result<(), String> {
    let out_path = args.flags.get("out").ok_or("swf needs --out FILE")?;
    let config = build_config(args)?;
    let machine = config.machine();
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut generator = bw_workload::WorkloadGenerator::new(config.workload.clone(), &mut rng)?;
    let jobs = generator.generate(config.horizon(), &mut rng);
    let text = bw_workload::swf::export_trace(machine.name(), machine.compute_nodes(), &jobs);
    std::fs::write(out_path, &text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {} SWF jobs to {out_path}", jobs.len());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    // `lint` and `serve` are the standalone `logdiver-lint` and
    // `logdiver-serve` under another name: same parser, same exit codes.
    match cmd.as_str() {
        "lint" => return ExitCode::from(logdiver_lint::driver::run(rest)),
        "serve" => return ExitCode::from(logdiver_serve::daemon::run_cli(rest)),
        _ => {}
    }
    let Some(spec) = COMMANDS.iter().find(|s| s.name == cmd.as_str()) else {
        eprintln!("error: unknown command {cmd:?}\n\n{}", usage());
        return ExitCode::from(2);
    };
    let args = match parse_args(spec, rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match spec.name {
        "simulate" => cmd_simulate(&args),
        "analyze" => cmd_analyze(&args),
        "validate" => cmd_validate(&args),
        "campaign" => campaign::cmd_campaign(&args),
        "stream" => cmd_stream(&args),
        "reproduce" => cmd_reproduce(&args),
        "swf" => cmd_swf(&args),
        _ => unreachable!("dispatch covers every CommandSpec"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static CommandSpec {
        COMMANDS.iter().find(|s| s.name == name).unwrap()
    }

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn known_flags_and_switches_parse() {
        let args = parse_args(
            spec("simulate"),
            &argv(&["--out", "d", "--seed=7", "--boost-capability"]),
        )
        .unwrap();
        assert_eq!(args.flags.get("out").unwrap(), "d");
        assert_eq!(args.flags.get("seed").unwrap(), "7");
        assert_eq!(args.switches, vec!["boost-capability".to_string()]);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_args(spec("analyze"), &argv(&["--logs", "d", "--typo", "x"])).unwrap_err();
        assert!(err.contains("unknown option --typo"), "{err}");
    }

    #[test]
    fn unknown_switch_is_rejected() {
        let err = parse_args(spec("stream"), &argv(&["--logs", "d", "--folow"])).unwrap_err();
        assert!(err.contains("unknown option --folow"), "{err}");
    }

    #[test]
    fn flag_without_value_is_rejected() {
        let err = parse_args(spec("analyze"), &argv(&["--logs"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn switch_with_value_is_rejected() {
        let err = parse_args(spec("stream"), &argv(&["--follow=yes"])).unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
    }

    #[test]
    fn duplicate_flag_is_rejected() {
        let err = parse_args(spec("analyze"), &argv(&["--logs", "a", "--logs", "b"])).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn positional_arguments_are_rejected() {
        let err = parse_args(spec("validate"), &argv(&["d"])).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn stream_checkpoint_flags_parse() {
        let args = parse_args(
            spec("stream"),
            &argv(&[
                "--logs",
                "d",
                "--resume",
                "state.ckpt",
                "--checkpoint-every=1000",
                "--checkpoint-secs",
                "2",
                "--quarantine-out",
                "bad.tsv",
                "--quarantine-keep=64",
            ]),
        )
        .unwrap();
        assert_eq!(args.flags.get("resume").unwrap(), "state.ckpt");
        assert_eq!(args.flags.get("checkpoint-every").unwrap(), "1000");
        assert_eq!(args.flags.get("quarantine-out").unwrap(), "bad.tsv");
        assert_eq!(get_u64(&args, "quarantine-keep", 16).unwrap(), 64);
    }

    #[test]
    fn inspect_checkpoint_rejects_every_other_option() {
        let only = parse_args(
            spec("stream"),
            &argv(&["--inspect-checkpoint", "s.ckpt", "--json"]),
        )
        .unwrap();
        assert_eq!(only.flags.get("inspect-checkpoint").unwrap(), "s.ckpt");
        for extra in [&["--logs", "d"][..], &["--follow"], &["--resume=x"]] {
            let mut words = vec!["--inspect-checkpoint", "s.ckpt"];
            words.extend_from_slice(extra);
            let args = parse_args(spec("stream"), &argv(&words)).unwrap();
            let err = cmd_stream(&args).unwrap_err();
            assert!(err.contains("no other option"), "{err}");
        }
        let args = parse_args(spec("stream"), &argv(&["--logs", "d", "--json"])).unwrap();
        let err = cmd_stream(&args).unwrap_err();
        assert!(err.contains("--inspect-checkpoint"), "{err}");
        let err = parse_args(spec("stream"), &argv(&["--inspect-checkpoint"])).unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
    }

    #[test]
    fn analyze_threads_and_timings_parse() {
        let args = parse_args(
            spec("analyze"),
            &argv(&["--logs", "d", "--threads=4", "--timings"]),
        )
        .unwrap();
        assert_eq!(get_u64(&args, "threads", 1).unwrap(), 4);
        assert_eq!(args.switches, vec!["timings".to_string()]);
        // --timings is a switch, not a flag.
        let err = parse_args(spec("analyze"), &argv(&["--timings=on"])).unwrap_err();
        assert!(err.contains("does not take a value"), "{err}");
        // --threads belongs to analyze only.
        let err =
            parse_args(spec("stream"), &argv(&["--logs", "d", "--threads", "4"])).unwrap_err();
        assert!(err.contains("unknown option --threads"), "{err}");
    }

    #[test]
    fn every_command_rejects_another_commands_flags() {
        // --csv belongs to analyze only; validate must refuse it.
        let err = parse_args(spec("validate"), &argv(&["--csv", "d"])).unwrap_err();
        assert!(err.contains("unknown option --csv"), "{err}");
    }

    #[test]
    fn serve_flags_parse() {
        let config = logdiver_serve::daemon::parse_flags(&argv(&[
            "--listen",
            "127.0.0.1:0",
            "--tenants-dir=/tmp/tenants",
            "--tenants-dir",
            "/mnt/replica",
            "--checkpoint-every",
            "500",
            "--evict-after=32",
            "--mem-budget=1048576",
            "--shards",
            "4",
            "--tenant-config",
            "/tmp/overrides.conf",
            "--max-line=4096",
            "--deadline-ms=250",
            "--io-timeout-ms=900",
            "--line-deadline-ms=3000",
        ]))
        .unwrap();
        assert_eq!(config.listen, "127.0.0.1:0");
        // --tenants-dir is repeatable: both replicas survive, in order.
        assert_eq!(
            config.tenants_dirs,
            [
                std::path::PathBuf::from("/tmp/tenants"),
                std::path::PathBuf::from("/mnt/replica")
            ]
        );
        assert_eq!(config.checkpoint_every, 500);
        assert_eq!(config.evict_after, 32);
        assert_eq!(config.mem_budget, 1 << 20);
        assert_eq!(config.shards, 4);
        assert_eq!(
            config.tenant_config,
            Some(std::path::PathBuf::from("/tmp/overrides.conf"))
        );
        assert_eq!(config.max_line, 4096);
        assert_eq!(config.deadline_ms, 250);
        assert_eq!(config.io_timeout_ms, 900);
        assert_eq!(config.line_deadline_ms, 3000);
    }

    #[test]
    fn serve_zero_max_line_is_rejected_at_dispatch() {
        let err = logdiver_serve::daemon::parse_flags(&argv(&["--max-line", "0"])).unwrap_err();
        assert!(err.contains("--max-line"), "{err}");
    }

    #[test]
    fn serve_rejects_unknown_and_foreign_flags() {
        let parse = |words: &[&str]| logdiver_serve::daemon::parse_flags(&argv(words));
        let err = parse(&["--port", "7044"]).unwrap_err();
        assert!(err.contains("unknown option '--port'"), "{err}");
        // --logs belongs to analyze/stream; serve must refuse it.
        let err = parse(&["--logs", "d"]).unwrap_err();
        assert!(err.contains("unknown option '--logs'"), "{err}");
        let err = parse(&["--listen"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = parse(&["--shards", "2", "--shards", "4"]).unwrap_err();
        assert!(err.contains("duplicate option"), "{err}");
    }

    #[test]
    fn serve_zero_shards_is_rejected_at_dispatch() {
        let err = logdiver_serve::daemon::parse_flags(&argv(&["--shards", "0"])).unwrap_err();
        assert!(err.contains("'--shards' must be at least 1"), "{err}");
    }
}
