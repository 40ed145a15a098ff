//! What every workload shares: where things live, how a set-up is timed,
//! how a child of the harness is timed, and how checks are counted.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use logdiver::LogDiver;

use crate::corpus::{self, Corpus};
use crate::spec::Workload;
use crate::stats;
use crate::sys;

/// The checkout this harness was built in: the parent of `benchmark/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload to run.
    pub workload: Workload,
    /// Corpus seed.
    pub seed: u64,
    /// How long the timed iterations go on (a started iteration finishes).
    pub seconds: f64,
    /// `--quick`: small corpora, one set-up, one iteration.
    pub quick: bool,
    /// Directory holding `logdiver` and `logdiver-serve`.
    pub bin_dir: PathBuf,
    /// Scratch directory of this run, on the real disk under
    /// `benchmark/work/`.
    pub work: PathBuf,
    /// CPUs the harness was allowed on when it started.
    pub host_cpus: usize,
    /// The CPU everything is pinned to, with the set to go back to for the
    /// two unpinned scaling rows; `None` when pinning is unavailable.
    pub pinned: Option<(usize, sys::CpuSet)>,
}

impl Ctx {
    /// The corpus recipe in effect (`--quick` shrinks it).
    pub fn corpus_spec(&self) -> corpus::CorpusSpec {
        if self.quick {
            self.workload.corpus.quick()
        } else {
            self.workload.corpus
        }
    }

    /// How many times the set-up is repeated; its median is `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Path of a shipped binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// Checks passed and failed, and the metrics of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Of those, how many failed their check.
    pub failed: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// `(name, value)` of every metric measured.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form report lines (sample counts, quartiles, intervals).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; a failure keeps its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let what = what();
            if self.failures.len() < 20 {
                self.failures.push(what);
            }
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a timing sample as a report line.
    pub fn note_samples(&mut self, what: &str, unit: &str, xs: &[f64]) {
        self.notes
            .push(format!("{what} [{unit}]: {}", stats::describe(xs)));
    }
}

/// A corpus with the report the batch pipeline gives for it.
#[derive(Debug)]
pub struct Prepared {
    /// The files.
    pub corpus: Corpus,
    /// `full_report` of an in-process single-threaded `analyze_dir`: what
    /// every front door must reproduce byte for byte.
    pub reference: String,
}

/// The reference report of a corpus directory.
pub fn reference_report(dir: &Path) -> Result<String, String> {
    let analysis = LogDiver::new()
        .with_threads(1)
        .analyze_dir(dir)
        .map_err(|e| format!("reference analysis of {}: {e}", dir.display()))?;
    Ok(logdiver::report::full_report(
        &analysis.metrics,
        &analysis.stats,
    ))
}

/// Sets up `ctx.setup_reps()` times — corpus generation, the reference
/// analysis, and whatever `extra` adds (the daemon start, for the wire
/// workloads; what it returns is dropped once the clock has stopped) —
/// and returns the last set-up with every repetition's seconds.
pub fn timed_setup<T>(
    ctx: &Ctx,
    mut extra: impl FnMut(&Prepared) -> Result<T, String>,
) -> Result<(Prepared, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..ctx.setup_reps() {
        let started = Instant::now();
        let corpus = corpus::generate(ctx.corpus_spec(), ctx.seed, &ctx.work)?;
        let reference = reference_report(&corpus.dir)?;
        let prepared = Prepared { corpus, reference };
        let held = extra(&prepared)?;
        secs.push(started.elapsed().as_secs_f64());
        drop(held);
        last = Some(prepared);
    }
    last.map(|p| (p, secs))
        .ok_or_else(|| "no set-up repetition ran".to_string())
}

/// Environment of every process under test: glibc malloc held still.
///
/// * One arena. With an arena per thread, which thread happens to run a
///   checkpoint — a connection handler or the ticker — decides whether
///   its buffers reuse freed memory: the daemon's peak RSS scattered
///   between 33 and 53 MB on identical input, and repeats within 1 % with
///   one arena.
/// * The mmap threshold pinned at its initial 128 KiB. Left alone, glibc
///   raises it whenever a larger mapped block is freed, and from then on
///   serves such blocks from the heap, where they fragment: which block
///   is freed first depends on the corpus, and `logdiver stream` peaked at
///   32, 36 or 40 MB from seed to seed on corpora of one size. Pinned, it
///   peaks at 32 MB on all of them.
pub const ALLOCATOR_ENV: [(&str, &str); 2] = [
    ("MALLOC_ARENA_MAX", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
];

/// What the `child-run` helper measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildRun {
    /// Seconds from spawn to reaped.
    pub wall_s: f64,
    /// The child's own peak resident set, KiB.
    pub maxrss_kib: i64,
    /// Exit code (128 + signal when killed).
    pub code: i32,
}

/// Runs `program args…` through the `child-run` helper: a copy of this
/// executable that spawns the program, reaps it with `wait4` and prints
/// what it measured.
///
/// The detour is for `ru_maxrss`: on exec the kernel keeps, as the new
/// program's floor, the peak resident set of the address space that was
/// forked — and the harness, which generates corpora and runs reference
/// analyses in-process, is larger than the programs it measures. The
/// helper is a few hundred KiB at the moment it forks.
pub fn run_child(program: &Path, args: &[String], stdout: &Path) -> Result<ChildRun, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(me)
        .arg("child-run")
        .arg(stdout)
        .arg(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child-run helper: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = match text.split_whitespace().collect::<Vec<_>>()[..] {
        [wall_ns, rss, code] => wall_ns
            .parse::<u64>()
            .ok()
            .zip(rss.parse().ok())
            .zip(code.parse().ok()),
        _ => None,
    };
    let ((wall_ns, maxrss_kib), code) = parsed.ok_or_else(|| {
        format!(
            "the child-run helper for {} answered {text:?}",
            program.display()
        )
    })?;
    Ok(ChildRun {
        wall_s: wall_ns as f64 / 1e9,
        maxrss_kib,
        code,
    })
}

/// The `child-run` helper's body: `argv` is `<stdout file> <program>
/// <args…>`. Prints `<wall ns> <maxrss KiB> <exit code>`.
pub fn child_run_main(argv: &[String]) -> Result<(), String> {
    let [stdout, program, args @ ..] = argv else {
        return Err("child-run needs <stdout file> <program> [args…]".to_string());
    };
    let out = std::fs::File::create(stdout).map_err(|e| format!("cannot create {stdout}: {e}"))?;
    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .envs(ALLOCATOR_ENV)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {program}: {e}"))?;
    let reaped = sys::wait_with_rusage(child).map_err(|e| format!("wait4: {e}"))?;
    let wall_ns = started.elapsed().as_nanos();
    println!("{wall_ns} {} {}", reaped.maxrss_kib, reaped.code);
    Ok(())
}
