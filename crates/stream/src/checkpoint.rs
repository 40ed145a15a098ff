//! Crash-safe, self-validating checkpoints of the streaming engine.
//!
//! A [`StreamCheckpoint`] captures everything the coordinator knows —
//! per-source watermarks, the reorder buffer, open coalescer windows, open
//! runs, health machines, and every counter — plus the per-file byte
//! offsets the feeder had consumed. Together they make `kill -9` a
//! recoverable event: [`crate::StreamEngine::resume`] rebuilds an engine
//! whose future output is identical to one that never died, and the feeder
//! seeks each log file past [`StreamCheckpoint::offset`].
//!
//! ## Quiescence
//!
//! Checkpoints are taken at *quiescence*: every pushed line has been
//! applied by the coordinator ([`crate::StreamEngine::checkpoint`] waits
//! for that). At quiescence the core holds no un-serializable in-flight
//! parse results, and its state is a deterministic function of the line
//! prefixes consumed so far — which is exactly what makes
//! crash-plus-resume equal to an uninterrupted run (the chaos proptests
//! enforce this).
//!
//! ## Durability and integrity
//!
//! [`StreamCheckpoint::write_atomic`] writes to a temporary sibling, syncs
//! it, then renames over the target: a crash mid-write leaves the previous
//! checkpoint intact, never a torn file — *on a filesystem that honors
//! rename atomicity*. Because replicated stores cannot assume that (the
//! paper's storage faults include torn writes and at-rest bit rot), the
//! on-disk format is self-validating: the body is followed by a one-line
//! footer carrying the format version, the body's byte length and its
//! CRC32. A reader that finds a missing/short footer (torn write) or a CRC
//! mismatch (bit rot) gets [`ResumeError::Corrupt`] instead of silently
//! resuming from garbage — which is what lets `logdiver-serve`'s
//! `CheckpointStore` scan N replicas and restore from the newest *valid*
//! copy.
//!
//! ## Format
//!
//! Version 4, the only format written, is the canonical binary encoding of
//! [`logdiver_types::codec`]: `lateness_secs`, the five offsets, then the
//! core state field by field, walked once into one buffer. It is
//! positional — the byte layout *is* the field order of the
//! `codec_struct!` lists — so any change to a checkpointed type is a new
//! version, and the golden fixtures under `tests/fixtures/` fail until it
//! is. Version 3 (the same state as pretty-printed JSON) is still read, so
//! a rolling restart resumes yesterday's files; the checkpoint is upgraded
//! in memory and the next write is version 4.
//!
//! All file I/O goes through the narrow [`Fs`] seam
//! ([`logdiver_types::fsio`]), so chaos tests can inject EIO/ENOSPC/torn
//! writes underneath the identical production code path.
//!
//! Quarantine *spill* lines queued for
//! [`crate::StreamEngine::take_spilled`] are deliberately not captured —
//! drivers drain the spill to disk before checkpointing, so carrying them
//! would duplicate lines after a resume.

use std::fmt;
use std::path::Path;

use logdiver::classify::ClassifiedRun;
use logdiver::coalesce::{CoalescerState, ErrorEvent};
use logdiver::coverage::CoverageState;
use logdiver::filter::{FilterStats, FilteredEntry};
use logdiver::parse::ParseCounts;
use logdiver::workload::ReconstructorState;
use logdiver_types::codec::{Decode, DecodeError, Encode, Reader};
use logdiver_types::fsio::{tmp_sibling, Fs, RealFs};
use logdiver_types::Timestamp;
use serde::{Deserialize, Serialize};

use crate::config::Source;
use crate::health::HealthState;

/// Leading tag of the integrity footer line.
const FOOTER_TAG: &str = "#logdiver-ckpt";

/// Serialized open state of the coordinator core. Maps are carried as
/// sorted pairs, so equal state encodes to equal bytes; the reorder buffer
/// stores only `(entry_seq, entry)` because the rest of its key is
/// recomputed from the entry itself on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CoreState {
    pub(crate) next_seq: [u64; 5],
    pub(crate) progress: [Option<Timestamp>; 5],
    pub(crate) open: [bool; 5],
    pub(crate) counts: [ParseCounts; 5],
    pub(crate) quarantine: Vec<Vec<String>>,
    pub(crate) filter_stats: FilterStats,
    pub(crate) buffer: Vec<(u64, FilteredEntry)>,
    pub(crate) entry_seq: u64,
    pub(crate) late_dropped: u64,
    pub(crate) released: Option<Timestamp>,
    pub(crate) coalescer: CoalescerState,
    pub(crate) events: Vec<ErrorEvent>,
    pub(crate) reconstructor: ReconstructorState,
    pub(crate) done: Vec<(u64, ClassifiedRun)>,
    pub(crate) health: Vec<HealthState>,
    pub(crate) spill_dropped: u64,
    pub(crate) coverage: CoverageState,
}

logdiver_types::codec_struct!(CoreState {
    next_seq,
    progress,
    open,
    counts,
    quarantine,
    filter_stats,
    buffer,
    entry_seq,
    late_dropped,
    released,
    coalescer,
    events,
    reconstructor,
    done,
    health,
    spill_dropped,
    coverage
});

/// A serializable snapshot of a quiescent [`crate::StreamEngine`] plus the
/// feeder's per-file byte offsets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamCheckpoint {
    /// Format version; [`crate::StreamEngine::resume`] rejects others.
    pub version: u32,
    /// The engine's allowed lateness when the checkpoint was taken. Resume
    /// requires the same value: the released watermark already encodes it.
    pub lateness_secs: i64,
    /// Consumed byte offset per source file, in [`Source::ALL`] order.
    /// Only *complete* lines count — a partially written tail line is
    /// re-read after resume.
    pub offsets: [u64; 5],
    pub(crate) core: CoreState,
}

/// The integrity footer: `#logdiver-ckpt v<V> len=<body bytes> crc=<crc32>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Footer {
    version: u32,
    len: usize,
    crc: u32,
}

impl Footer {
    fn render(&self) -> String {
        format!(
            "{FOOTER_TAG} v{} len={} crc={:08x}",
            self.version, self.len, self.crc
        )
    }

    /// Parses a footer line (without its newline). Only the spelling
    /// [`Footer::render`] produces is accepted: `len=+7`, `len=007` or
    /// `crc=AB…` would let a flipped bit in the one unchecksummed line of
    /// the file pass unnoticed.
    fn parse(line: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(line).ok()?;
        let mut tokens = text.split(' ');
        if tokens.next()? != FOOTER_TAG {
            return None;
        }
        let footer = Footer {
            version: tokens.next()?.strip_prefix('v')?.parse().ok()?,
            len: tokens.next()?.strip_prefix("len=")?.parse().ok()?,
            crc: u32::from_str_radix(tokens.next()?.strip_prefix("crc=")?, 16).ok()?,
        };
        (footer.render() == text).then_some(footer)
    }
}

/// Splits a checkpoint file into its body and its last `\n`-terminated
/// line. Works on bytes: a version-4 body is not UTF-8 and may contain
/// `\n`, but the footer cannot, and the body ends with one.
fn split_last_line(bytes: &[u8]) -> Result<(&[u8], &[u8]), ResumeError> {
    let Some((b'\n', rest)) = bytes.split_last() else {
        return Err(ResumeError::Corrupt(
            "missing trailing newline (torn write)".to_string(),
        ));
    };
    let Some(body_end) = rest.iter().rposition(|&b| b == b'\n') else {
        return Err(ResumeError::Corrupt(
            "missing integrity footer (torn write)".to_string(),
        ));
    };
    Ok(rest.split_at(body_end + 1))
}

impl StreamCheckpoint {
    /// Current checkpoint format version, the only one written. Version 4
    /// replaced the JSON body with the canonical binary encoding; version
    /// 3 added the length/CRC32 integrity footer (and is still read);
    /// version 2 added the coalescer dedup slots, per-run attribution
    /// confidence, and the source-coverage tracker. Versions before 3 are
    /// rejected rather than resumed with silently absent state.
    pub const VERSION: u32 = 4;

    /// The consumed byte offset recorded for one source.
    pub fn offset(&self, source: Source) -> u64 {
        self.offsets[source.index()]
    }

    /// Total lines applied across all sources when the checkpoint was
    /// taken. This is the *logical* recency measure: it is monotone over a
    /// tenant's life and wall-clock-free, so a replicated store picks the
    /// "newest" valid replica by the largest value (drives
    /// `--checkpoint-every` cadence too).
    pub fn records_applied(&self) -> u64 {
        self.core.next_seq.iter().sum()
    }

    /// What an operator wants to know about a checkpoint without resuming
    /// it, one `key: value` per line: lateness, per-source offsets and
    /// applied lines, and how much open and finished state it carries.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let core = &self.core;
        let mut out = format!("lateness_secs: {}\n", self.lateness_secs);
        for source in Source::ALL {
            let i = source.index();
            let _ = writeln!(
                out,
                "{}: offset={} applied={}{}",
                source.file_name(),
                self.offsets[i],
                core.next_seq[i],
                if core.open[i] { "" } else { " closed" }
            );
        }
        let _ = write!(
            out,
            "records_applied: {}\nbuffered_entries: {}\nopen_events: {}\nclosed_events: {}\n\
             open_runs: {}\nclassified_runs: {}\n",
            self.records_applied(),
            core.buffer.len(),
            core.coalescer.open_len(),
            core.events.len(),
            core.reconstructor.open_len(),
            core.done.len()
        );
        out
    }

    /// Renders the whole checkpoint as pretty-printed JSON, for
    /// `logdiver stream --inspect-checkpoint FILE --json`. Nothing reads
    /// this back; the durable form is [`StreamCheckpoint::to_bytes`].
    pub fn to_json(&self) -> String {
        // lint: allow(no-panic) plain-old-data with string map keys; the serializer has no failure path for this shape
        serde_json::to_string_pretty(self).expect("checkpoint serialization is infallible")
    }

    /// Parses the JSON body of a version-3 file and upgrades it, so the
    /// next write is version 4.
    fn from_v3_json(body: &[u8]) -> Result<Self, ResumeError> {
        let text = std::str::from_utf8(body)
            .map_err(|e| ResumeError::Corrupt(format!("not UTF-8: {e}")))?;
        let mut ckpt: StreamCheckpoint =
            serde_json::from_str(text).map_err(|e| ResumeError::Corrupt(e.to_string()))?;
        if ckpt.version != 3 {
            return Err(ResumeError::Version(ckpt.version));
        }
        ckpt.version = Self::VERSION;
        // Version 3 carried events in the order they happened to close and
        // reorder-buffer arrival numbers as the sources happened to
        // interleave; `StreamCore::checkpoint_state` now writes both in
        // canonical form, and an upgraded checkpoint must equal a fresh one.
        let core = &mut ckpt.core;
        core.events.sort_by_key(|e| (e.start, e.id));
        for (n, slot) in (0..).zip(core.buffer.iter_mut()) {
            slot.0 = n;
        }
        core.entry_seq = core.buffer.len() as u64;
        Ok(ckpt)
    }

    fn from_v4_body(encoded: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(encoded);
        let ckpt = StreamCheckpoint {
            version: Self::VERSION,
            lateness_secs: Decode::decode(&mut r)?,
            offsets: Decode::decode(&mut r)?,
            core: Decode::decode(&mut r)?,
        };
        r.finish()?;
        Ok(ckpt)
    }

    /// The durable on-disk form: the binary body (`lateness_secs`,
    /// `offsets`, core state), a newline, and the one-line integrity footer
    /// `#logdiver-ckpt v<V> len=<body bytes> crc=<crc32>`. One walk over
    /// the state into one buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        // About 40 bytes per classified run or event; short only costs a
        // regrow, so the open runs and job table ride on the slack.
        let core = &self.core;
        let items = core.done.len() + core.events.len() + core.buffer.len();
        let mut bytes = Vec::with_capacity(4096 + 48 * items);
        self.lateness_secs.encode(&mut bytes);
        self.offsets.encode(&mut bytes);
        core.encode(&mut bytes);
        bytes.push(b'\n');
        let footer = Footer {
            version: self.version,
            len: bytes.len(),
            crc: crc32(&bytes),
        };
        bytes.extend_from_slice(footer.render().as_bytes());
        bytes.push(b'\n');
        bytes
    }

    /// The format version a checkpoint file's footer declares, if it has
    /// a well-formed one — what `--inspect-checkpoint` reports, since
    /// [`StreamCheckpoint::from_bytes`] upgrades what it returns.
    pub fn file_version(bytes: &[u8]) -> Option<u32> {
        let (_, footer) = split_last_line(bytes).ok()?;
        Some(Footer::parse(footer)?.version)
    }

    /// Parses the durable form, validating the integrity footer before
    /// touching the body, then decoding by the footer's version.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Corrupt`] when the footer is missing, short or
    /// misspelled (torn write), the body length disagrees (truncation),
    /// the CRC32 does not match (bit rot), or the body is not a canonical
    /// encoding of a checkpoint; [`ResumeError::Version`] for a valid file
    /// of a version this build does not read (2 and below, including
    /// footerless files, and 5 and above).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ResumeError> {
        let (body, footer) = split_last_line(bytes)?;
        if !footer.starts_with(FOOTER_TAG.as_bytes()) {
            // Pre-footer formats (v1/v2) were bare JSON: if the whole file
            // parses, report the version mismatch rather than "corrupt".
            let legacy = std::str::from_utf8(bytes)
                .ok()
                .and_then(|text| serde_json::from_str::<StreamCheckpoint>(text).ok());
            return Err(match legacy {
                Some(legacy) => ResumeError::Version(legacy.version),
                None => ResumeError::Corrupt("missing integrity footer (torn write)".to_string()),
            });
        }
        let Some(footer) = Footer::parse(footer) else {
            return Err(ResumeError::Corrupt(
                "unparseable integrity footer".to_string(),
            ));
        };
        if footer.len != body.len() {
            return Err(ResumeError::Corrupt(format!(
                "torn checkpoint: footer says {} body bytes, found {}",
                footer.len,
                body.len()
            )));
        }
        let actual = crc32(body);
        if actual != footer.crc {
            return Err(ResumeError::Corrupt(format!(
                "checkpoint CRC mismatch: footer {:08x}, computed {actual:08x} (bit rot?)",
                footer.crc
            )));
        }
        match footer.version {
            3 => Self::from_v3_json(body),
            4 => Self::from_v4_body(&body[..body.len() - 1])
                .map_err(|e| ResumeError::Corrupt(format!("version 4 body: {e}"))),
            other => Err(ResumeError::Version(other)),
        }
    }

    /// Writes the checkpoint atomically: temp sibling, write+sync, rename.
    /// A crash at any point leaves either the old checkpoint or the new
    /// one; a torn write (no rename atomicity) is caught on read by the
    /// integrity footer.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from create/write/sync/rename.
    pub fn write_atomic(&self, path: &Path) -> std::io::Result<()> {
        self.write_atomic_fs(&RealFs, path)
    }

    /// [`StreamCheckpoint::write_atomic`] through an explicit [`Fs`] (the
    /// seam the chaos filesystem plugs into).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the underlying [`Fs`].
    pub fn write_atomic_fs(&self, fs: &dyn Fs, path: &Path) -> std::io::Result<()> {
        let tmp = tmp_sibling(path);
        fs.write(&tmp, &self.to_bytes())?;
        fs.rename(&tmp, path)
    }

    /// Reads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// [`ResumeError::Io`] when the file cannot be read; see
    /// [`StreamCheckpoint::from_bytes`] for the rest.
    pub fn read(path: &Path) -> Result<Self, ResumeError> {
        Self::read_fs(&RealFs, path)
    }

    /// [`StreamCheckpoint::read`] through an explicit [`Fs`].
    ///
    /// # Errors
    ///
    /// [`ResumeError::Io`] when the file cannot be read; see
    /// [`StreamCheckpoint::from_bytes`] for the rest.
    pub fn read_fs(fs: &dyn Fs, path: &Path) -> Result<Self, ResumeError> {
        let bytes = fs
            .read(path)
            .map_err(|e| ResumeError::Io(format!("{}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

/// The reflected IEEE 802.3 (zlib) polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight input bytes fold into the register with eight independent
/// lookups instead of sixty-four dependent shifts.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, eight bytes a
/// step. A checkpoint body is checksummed on every write and every read;
/// at tens of megabytes the bit-at-a-time loop this replaces was a third
/// of the encode time.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Why a checkpoint could not be loaded or resumed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint file could not be read.
    Io(String),
    /// The file's contents failed integrity validation (torn write, bit
    /// rot) or did not parse as a checkpoint.
    Corrupt(String),
    /// The checkpoint was written by an incompatible format version.
    Version(u32),
    /// The engine config's lateness differs from the checkpoint's; the
    /// released watermark already baked the old value in.
    LatenessMismatch {
        /// Lateness (seconds) recorded in the checkpoint.
        checkpoint: i64,
        /// Lateness (seconds) in the config passed to resume.
        config: i64,
    },
    /// The checkpoint's internal shape is inconsistent (wrong array
    /// lengths).
    Malformed(String),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(msg) => write!(f, "cannot read checkpoint: {msg}"),
            ResumeError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            ResumeError::Version(v) => write!(
                f,
                "checkpoint version {v} is not supported (this build writes {})",
                StreamCheckpoint::VERSION
            ),
            ResumeError::LatenessMismatch { checkpoint, config } => write!(
                f,
                "lateness mismatch: checkpoint was taken with {checkpoint}s, config says {config}s"
            ),
            ResumeError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for ResumeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use crate::engine::StreamEngine;

    fn sample() -> StreamCheckpoint {
        let engine = StreamEngine::new(StreamConfig::default());
        let ckpt = engine.checkpoint([7, 0, 0, 0, 0]);
        engine.drain();
        ckpt
    }

    #[test]
    fn write_atomic_round_trips_and_leaves_no_temp() {
        let ckpt = sample();
        let dir = std::env::temp_dir().join("logdiver-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        ckpt.write_atomic(&path).unwrap();
        let back = StreamCheckpoint::read(&path).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.offset(Source::Syslog), 7);
        assert!(!dir.join("state.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut ckpt = sample();
        for version in [0, 2, 5, 99] {
            ckpt.version = version;
            assert_eq!(
                StreamCheckpoint::from_bytes(&ckpt.to_bytes()),
                Err(ResumeError::Version(version))
            );
        }
        // A binary body under a v3 footer is not JSON.
        ckpt.version = 3;
        assert!(matches!(
            StreamCheckpoint::from_bytes(&ckpt.to_bytes()),
            Err(ResumeError::Corrupt(_))
        ));
    }

    #[test]
    fn written_files_are_version_4_and_not_json() {
        let bytes = sample().to_bytes();
        assert_eq!(StreamCheckpoint::file_version(&bytes), Some(4));
        assert_eq!(
            StreamCheckpoint::file_version(&bytes[..bytes.len() - 1]),
            None
        );
        assert!(!bytes.starts_with(b"{"));
        let (_, footer) = split_last_line(&bytes).unwrap();
        assert!(footer.starts_with(b"#logdiver-ckpt v4 len="), "{footer:?}");
    }

    #[test]
    fn footer_has_exactly_one_spelling() {
        let bytes = sample().to_bytes();
        let (body, footer) = split_last_line(&bytes).unwrap();
        let (text_at, footer) = (body.len(), std::str::from_utf8(footer).unwrap());
        let respell = |from: &str, to: &str| {
            let mut out = bytes[..text_at].to_vec();
            out.extend_from_slice(footer.replacen(from, to, 1).as_bytes());
            out.push(b'\n');
            out
        };
        assert!(StreamCheckpoint::from_bytes(&respell("", "")).is_ok());
        for (from, to) in [
            ("len=", "len=+"),
            ("len=", "len=0"),
            (" crc=", "  crc="),
            ("v4", "v04"),
        ] {
            assert!(
                matches!(
                    StreamCheckpoint::from_bytes(&respell(from, to)),
                    Err(ResumeError::Corrupt(_))
                ),
                "{from:?} -> {to:?} was accepted"
            );
        }
        // A hex digit that differs from its uppercase form by one bit.
        let lower = footer.rfind(|c: char| c.is_ascii_lowercase() && c.is_ascii_hexdigit());
        if let Some(at) = lower.filter(|&at| at > footer.rfind("crc=").unwrap()) {
            let mut flipped = bytes.clone();
            flipped[text_at + at] ^= 0x20;
            assert!(matches!(
                StreamCheckpoint::from_bytes(&flipped),
                Err(ResumeError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn legacy_footerless_file_reports_its_version() {
        let mut ckpt = sample();
        ckpt.version = 2;
        let mut legacy = ckpt.to_json().into_bytes();
        legacy.push(b'\n');
        assert!(matches!(
            StreamCheckpoint::from_bytes(&legacy),
            Err(ResumeError::Version(2))
        ));
    }

    #[test]
    fn torn_write_is_detected() {
        let bytes = sample().to_bytes();
        // Any strict prefix must fail validation, not parse as a shorter
        // checkpoint: either the footer is gone or its length disagrees.
        for cut in [1, bytes.len() / 2, bytes.len() - 2] {
            assert!(
                matches!(
                    StreamCheckpoint::from_bytes(&bytes[..cut]),
                    Err(ResumeError::Corrupt(_))
                ),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn bit_rot_is_detected() {
        let bytes = sample().to_bytes();
        for victim in [0, bytes.len() / 3, bytes.len() * 2 / 3] {
            let mut rotted = bytes.clone();
            rotted[victim] ^= 0x20;
            assert!(
                matches!(
                    StreamCheckpoint::from_bytes(&rotted),
                    Err(ResumeError::Corrupt(_) | ResumeError::Version(_))
                ),
                "flip at byte {victim} was accepted"
            );
        }
    }

    #[test]
    fn garbage_is_corrupt_not_panic() {
        assert!(matches!(
            StreamCheckpoint::from_bytes(b"{\"not\": \"a checkpoint\""),
            Err(ResumeError::Corrupt(_))
        ));
        assert!(matches!(
            StreamCheckpoint::read(Path::new("/nonexistent/x.ckpt")),
            Err(ResumeError::Io(_))
        ));
    }

    /// The bit-at-a-time definition the tables are derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_table_equals_bitwise_on_a_multi_megabyte_buffer() {
        // 3 MB + 5: many full 8-byte steps and a ragged tail.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..3 * 1024 * 1024 + 5)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
    }

    proptest::proptest! {
        /// Every length 0..=64 crosses the 8-byte stride at every phase.
        #[test]
        fn crc32_table_equals_bitwise(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..65),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }
}
