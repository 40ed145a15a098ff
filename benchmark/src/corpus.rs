//! Seeded corpora. The harness generates each corpus from `bw_sim` into
//! files; the program under test only ever sees the files.

use std::path::{Path, PathBuf};

use bw_sim::{FileOutput, SimConfig, Simulation};

/// The five log files of a corpus, in `Source::ALL` order.
pub const LOG_FILES: [&str; 5] = [
    "messages.log",
    "hwerr.log",
    "apsys.log",
    "torque.log",
    "netwatch.log",
];

/// Benign syslog chatter rate of the noise corpora, lines per simulated
/// hour. At this rate 99 % of a corpus is syslog.
const NOISE_LINES_PER_HOUR: f64 = 3600.0;

/// One corpus recipe. Two line mixes matter: `noise` (syslog chatter, so
/// parse and filter do the work) and `runs` (the Blue Waters job mix of
/// arXiv 1703.00924: 4 in 5 lines ALPS or Torque, so the join, classify
/// and checkpoint-state stages do).
///
/// A corpus is cut where its largest file reaches a fixed number of
/// lines, and every other file at that moment of simulated time, so that
/// every seed offers the same amount of work (within 1 %) and only its
/// content differs. Uncut, a seed moves a corpus by 2–3 % of its lines,
/// which on the checkpointing workloads decides whether one more
/// checkpoint — the largest — is written, and shows as two throughput
/// modes 12 % apart. Cutting each file at a line count of its own does
/// worse: a sparse source that ends two simulated days early holds the
/// stream engine's watermark back for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Directory name under the work dir.
    pub name: &'static str,
    /// `SimConfig::scaled` divisor.
    pub divisor: u32,
    /// Simulated days: about a tenth more than the cut needs.
    pub days: u32,
    /// Whether to raise the syslog noise rate to [`NOISE_LINES_PER_HOUR`]
    /// and leave `hwerr.log` out. On so small a machine that file holds
    /// one to seven lines; the last of them falls days before the end of
    /// the corpus, and a source gone silent pins the stream engine's
    /// watermark there (`--follow` has `mark_stalled` for that, a replay
    /// has not): where it happens to fall moved the peak RSS of
    /// `logdiver stream` between 32 and 40 MB from seed to seed.
    pub noisy: bool,
    /// Index into [`LOG_FILES`] of the largest file.
    pub anchor: usize,
    /// Lines of the largest file that are kept.
    pub anchor_lines: u64,
}

/// [`CorpusSpec::anchor`] of the noise corpora: `messages.log`.
const SYSLOG: usize = 0;
/// [`CorpusSpec::anchor`] of the job-mix corpora: `apsys.log`.
const ALPS: usize = 2;

impl CorpusSpec {
    /// Syslog-dominated corpus for the CLI workloads.
    pub const NOISE: CorpusSpec = CorpusSpec {
        name: "noise",
        divisor: 48,
        days: 5,
        noisy: true,
        anchor: SYSLOG,
        anchor_lines: 400_000,
    };
    /// Workload-log-dominated corpus for `batch_runs`.
    pub const RUNS: CorpusSpec = CorpusSpec {
        name: "runs",
        divisor: 2,
        days: 16,
        noisy: false,
        anchor: ALPS,
        anchor_lines: 138_000,
    };
    /// Half of [`CorpusSpec::RUNS`], for `stream_runs`: checkpoint cost
    /// grows with the square of the corpus. 127 k lines: two cadence
    /// checkpoints and the final one, with 23 k lines to spare either way.
    pub const RUNS_HALF: CorpusSpec = CorpusSpec {
        name: "runs_half",
        divisor: 2,
        days: 8,
        noisy: false,
        anchor: ALPS,
        anchor_lines: 69_000,
    };
    /// One chatter tenant of `serve_chatter`.
    pub const NOISE_SMALL: CorpusSpec = CorpusSpec {
        name: "noise_small",
        divisor: 48,
        days: 1,
        noisy: true,
        anchor: SYSLOG,
        anchor_lines: 39_100,
    };
    /// One job-mix tenant of `serve_bulk`: 21.5 k lines. Four of these and
    /// a thousand probe lines are 8.5 times the daemon's checkpoint
    /// cadence of 10 240 records, half a cadence away from writing one
    /// checkpoint more or less.
    pub const RUNS_SMALL: CorpusSpec = CorpusSpec {
        name: "runs_small",
        divisor: 48,
        days: 32,
        noisy: false,
        anchor: ALPS,
        anchor_lines: 11_300,
    };

    /// The same recipe at about a twentieth of the size, for `--quick`.
    pub fn quick(self) -> CorpusSpec {
        CorpusSpec {
            days: self.days.div_ceil(8),
            anchor_lines: self.anchor_lines.div_ceil(20),
            ..self
        }
    }

    fn sim_config(self, seed: u64) -> SimConfig {
        // No calibration solve: it is a fixed second of simulator work per
        // corpus that shifts kill probabilities, not the line mix.
        let mut config = SimConfig::scaled(self.divisor, self.days)
            .with_seed(seed)
            .without_calibration();
        if self.noisy {
            config.noise_lines_per_hour = NOISE_LINES_PER_HOUR;
        }
        config
    }
}

/// A generated corpus on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Directory holding the five log files.
    pub dir: PathBuf,
    /// Lines per file, in [`LOG_FILES`] order.
    pub lines: [u64; 5],
    /// Bytes per file, in [`LOG_FILES`] order.
    pub bytes: [u64; 5],
}

impl Corpus {
    /// Lines across the five files.
    pub fn total_lines(&self) -> u64 {
        self.lines.iter().sum()
    }

    /// Bytes across the five files.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Reads the five files back as line vectors, the shape
    /// `logdiver_push::PushPlan` wants.
    pub fn read_lines(&self) -> Result<[Vec<String>; 5], String> {
        let mut out: [Vec<String>; 5] = Default::default();
        for (slot, file) in out.iter_mut().zip(LOG_FILES) {
            let path = self.dir.join(file);
            if !path.exists() {
                continue;
            }
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            *slot = text.lines().map(str::to_string).collect();
        }
        Ok(out)
    }
}

/// Every line of every log format starts with `YYYY-MM-DD HH:MM:SS`, which
/// sorts as text the way it sorts as time.
const STAMP_LEN: usize = 19;

fn stamp(line: &[u8]) -> &[u8] {
    &line[..line.len().min(STAMP_LEN)]
}

/// Lines of `data` with the byte offset just after each; a torn last
/// line is not a line.
fn lines_with_ends(data: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    let mut end = 0;
    data.split_inclusive(|byte| *byte == b'\n')
        .filter(|chunk| chunk.ends_with(b"\n"))
        .map(move |chunk| {
            end += chunk.len();
            (&chunk[..chunk.len() - 1], end)
        })
}

/// The cut of the anchor file: `(lines kept, bytes kept, newest timestamp
/// among them)` for its first `keep` lines.
fn cut_after_lines(data: &[u8], keep: u64) -> (u64, usize, Vec<u8>) {
    let mut out = (0, 0, Vec::new());
    for (line, end) in lines_with_ends(data).take(keep as usize) {
        if stamp(line) > out.2.as_slice() {
            out.2 = stamp(line).to_vec();
        }
        out.0 += 1;
        out.1 = end;
    }
    out
}

/// The cut of any other file: `(lines kept, bytes kept)` up to its last
/// line not newer than `newest`. Files are in time order only to within
/// minutes, so a few newer lines before that one stay in.
fn cut_at_time(data: &[u8], newest: &[u8]) -> (u64, usize) {
    let mut out = (0, 0);
    for (n, (line, end)) in lines_with_ends(data).enumerate() {
        if stamp(line) <= newest {
            out = (n as u64 + 1, end);
        }
    }
    out
}

/// Generates `spec` from `seed` into `root/<spec.name>`, replacing what is
/// there, cuts it, and records lines and bytes per file.
pub fn generate(spec: CorpusSpec, seed: u64, root: &Path) -> Result<Corpus, String> {
    let dir = root.join(spec.name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut out =
        FileOutput::create(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Simulation::new(spec.sim_config(seed))?.run(&mut out);
    out.flush()
        .map_err(|e| format!("cannot write {}: {e}", dir.display()))?;
    drop(out);
    // The ground truth is for validating attribution; no workload reads it.
    let _ = std::fs::remove_file(dir.join("ground_truth.jsonl"));

    let mut corpus = Corpus {
        dir,
        lines: [0; 5],
        bytes: [0; 5],
    };
    let read = |file: &str| {
        let path = corpus.dir.join(file);
        std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let (anchor_lines, anchor_bytes, newest) =
        cut_after_lines(&read(LOG_FILES[spec.anchor])?, spec.anchor_lines);
    for (i, file) in LOG_FILES.iter().enumerate() {
        let path = corpus.dir.join(file);
        if spec.noisy && *file == "hwerr.log" {
            std::fs::remove_file(&path).map_err(|e| format!("cannot remove {file}: {e}"))?;
            continue;
        }
        let (lines, bytes) = if i == spec.anchor {
            (anchor_lines, anchor_bytes)
        } else {
            cut_at_time(&read(file)?, &newest)
        };
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .and_then(|f| f.set_len(bytes as u64))
            .map_err(|e| format!("cannot cut {}: {e}", path.display()))?;
        corpus.bytes[i] = bytes as u64;
        corpus.lines[i] = lines;
    }
    if corpus.lines[spec.anchor] < spec.anchor_lines {
        return Err(format!(
            "corpus {} seed {seed}: {} holds {} lines, fewer than the {} of the recipe",
            spec.name, LOG_FILES[spec.anchor], corpus.lines[spec.anchor], spec.anchor_lines
        ));
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_files_other_seed_other_files() {
        let root = std::env::temp_dir().join(format!("ldb-corpus-{}", std::process::id()));
        let spec = CorpusSpec::RUNS_SMALL.quick();
        let a = generate(spec, 7, &root.join("a")).expect("generate a");
        let b = generate(spec, 7, &root.join("b")).expect("generate b");
        let c = generate(spec, 8, &root.join("c")).expect("generate c");
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.bytes, b.bytes);
        for file in LOG_FILES {
            assert_eq!(
                std::fs::read(a.dir.join(file)).expect("a"),
                std::fs::read(b.dir.join(file)).expect("b"),
                "{file} differs between two runs of one seed"
            );
        }
        assert_ne!(a.bytes, c.bytes, "another seed gave the same corpus");
        assert_eq!(a.read_lines().expect("lines")[2].len() as u64, a.lines[2]);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    const A: &[u8] = b"2013-03-27 00:00:01 a\n2013-03-27 00:00:09 b\n2013-03-27 00:00:05 c\n2013-03-27 00:00:20 d\n";

    #[test]
    fn the_anchor_is_cut_after_whole_lines_and_names_its_newest_stamp() {
        let (lines, bytes, newest) = cut_after_lines(A, 3);
        assert_eq!((lines, bytes), (3, 66));
        assert_eq!(newest, b"2013-03-27 00:00:09");
        assert_eq!(cut_after_lines(A, 9).0, 4);
        assert_eq!(cut_after_lines(b"2013-03-27 00:00:01 a\ntorn", 9).0, 1);
        assert_eq!(cut_after_lines(A, 0), (0, 0, Vec::new()));
    }

    #[test]
    fn other_files_are_cut_at_the_last_line_not_newer_than_the_anchor() {
        // Line c (00:00:05) follows the newer line b: both stay.
        assert_eq!(cut_at_time(A, b"2013-03-27 00:00:05"), (3, 66));
        assert_eq!(cut_at_time(A, b"2013-03-27 00:00:01"), (1, 22));
        assert_eq!(cut_at_time(A, b"2013-03-26 23:59:59"), (0, 0));
        assert_eq!(cut_at_time(A, b"2013-03-28 00:00:00"), (4, 88));
    }

    #[test]
    fn every_seed_offers_the_same_work_and_ends_every_file_together() {
        let root = std::env::temp_dir().join(format!("ldb-cut-{}", std::process::id()));
        let spec = CorpusSpec::RUNS_SMALL;
        let mut totals = Vec::new();
        for seed in [1, 2, 3] {
            let c = generate(spec, seed, &root).expect("generate");
            assert_eq!(c.lines[spec.anchor], spec.anchor_lines, "seed {seed}");
            totals.push(c.total_lines() as f64);
            // The big files end within an hour of each other.
            let last_secs = |file: &str| {
                let text = std::fs::read_to_string(c.dir.join(file)).expect("read");
                let stamp = &text.lines().last().expect("a line")[..STAMP_LEN];
                let field = |at: usize| stamp[at..at + 2].parse::<i64>().expect("digits");
                ((field(5) * 31 + field(8)) * 24 + field(11)) * 3600 + field(14) * 60 + field(17)
            };
            let apart = (last_secs("apsys.log") - last_secs("torque.log")).abs();
            assert!(apart < 3600, "seed {seed}: {apart} s apart");
        }
        let (lo, hi) = (
            totals.iter().copied().fold(f64::MAX, f64::min),
            totals.iter().copied().fold(0.0, f64::max),
        );
        assert!(hi / lo < 1.02, "{totals:?}");
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn quick_keeps_the_mix_and_shrinks_the_size() {
        let q = CorpusSpec::NOISE.quick();
        assert!(q.noisy && q.days == 1 && q.anchor == SYSLOG);
        assert_eq!(q.anchor_lines, 20_000);
    }
}
