//! Stage 1: parsing raw lines into typed records.
//!
//! Field data always contains corruption — truncated lines, interleaved
//! writes, encoding damage. Every source is parsed line by line; failures
//! are *counted per source* and never abort the analysis.
//!
//! ## The columnar hot path
//!
//! The pipeline's throughput path is [`parse_columns_threads`]: each
//! source is scanned with the zero-copy byte parsers and lands in
//! [`ParsedColumns`], which *borrows* its high-volume fields (syslog host
//! and message slices) from the input instead of materializing records.
//! The filter stage classifies those borrowed slices directly, so the
//! overwhelming majority of lines — operational chatter — never cause a
//! single allocation. Rejected lines are recorded by provenance
//! ([`QuarantinedLine`]: source + byte offset), not by cloning their text.
//!
//! This is the only parse path in the crate: both front doors tag their
//! input ([`collection_lines`], [`arena_lines`]) and hand it here.

use craylog::alps::AlpsRecord;
use craylog::hwerr::RawHwErr;
use craylog::netwatch::NetwatchRecord;
use craylog::syslog::RawSyslog;
use craylog::torque::TorqueRecord;
use logdiver_types::{ErrorCategory, NodeId, Severity, Timestamp};
use serde::{Deserialize, Serialize};

use crate::input::{LogArena, LogCollection};

/// Per-source line accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ParseCounts {
    /// Lines seen.
    pub total: u64,
    /// Lines that failed to parse.
    pub bad: u64,
}

logdiver_types::codec_struct!(ParseCounts { total, bad });

impl ParseCounts {
    /// Lines successfully parsed.
    pub fn good(&self) -> u64 {
        self.total - self.bad
    }
}

/// One rejected raw line, identified by provenance — no text is cloned on
/// the hot path. Drivers that persist quarantined lines (`--quarantine-out`)
/// slice the input back out by offset and render it lossily at output time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// Index into the canonical source order
    /// (`[syslog, hwerr, alps, torque, netwatch]`).
    pub source: u8,
    /// Byte offset of the line start within its source block (arena
    /// inputs) or the 0-based line index (in-memory collections).
    pub offset: u64,
    /// Line length in bytes.
    pub len: u32,
    /// Why the parser rejected it.
    pub reason: &'static str,
}

/// The syslog stream in columnar form: one decoded timestamp plus borrowed
/// host and message slices per parsed record, in record order. The filter
/// stage classifies `messages[i]` and resolves `hosts[i]` to a node only
/// for the few records it keeps.
#[derive(Debug, Default)]
pub struct SyslogColumns<'a> {
    /// Record timestamps (decoded eagerly: the coverage tracker observes
    /// every record, kept or discarded).
    pub times: Vec<Timestamp>,
    /// Reporting-host bytes, borrowed from the input.
    pub hosts: Vec<&'a [u8]>,
    /// Free-text message bytes, borrowed from the input.
    pub messages: Vec<&'a [u8]>,
}

impl SyslogColumns<'_> {
    /// Number of parsed records.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when no records parsed.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// One parsed hardware-error record, reduced to what the downstream
/// stages consume (the free-text detail is never needed by the pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwErrParsed {
    /// Event time.
    pub timestamp: Timestamp,
    /// Reporting node, resolved from the physical location code.
    pub node: NodeId,
    /// Error category.
    pub category: ErrorCategory,
    /// Severity as recorded by the hardware supervisory system.
    pub severity: Severity,
}

/// Everything the columnar parse stage produces. Borrows from the input
/// (arena blocks or collection lines); the low-volume structured sources
/// are owned records, as before.
#[derive(Debug, Default)]
pub struct ParsedColumns<'a> {
    /// Columnar syslog (the volume).
    pub syslog: SyslogColumns<'a>,
    /// Parsed hardware-error records.
    pub hwerr: Vec<HwErrParsed>,
    /// Parsed ALPS records.
    pub alps: Vec<AlpsRecord>,
    /// Parsed Torque records.
    pub torque: Vec<TorqueRecord>,
    /// Parsed netwatch records.
    pub netwatch: Vec<NetwatchRecord>,
    /// Accounting per source: `[syslog, hwerr, alps, torque, netwatch]`.
    pub counts: [ParseCounts; 5],
    /// Every rejected line, by provenance, grouped by source in canonical
    /// order (within a source: input order, for any thread count).
    pub quarantine: Vec<QuarantinedLine>,
}

/// One source's raw lines tagged with their provenance offsets — what
/// [`parse_columns_threads`] consumes.
pub type TaggedLines<'a> = Vec<(u64, &'a [u8])>;

/// Tags a collection's lines with their line indices.
pub fn collection_lines(logs: &LogCollection) -> [TaggedLines<'_>; 5] {
    fn tag(lines: &[String]) -> TaggedLines<'_> {
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| (i as u64, l.as_bytes()))
            .collect()
    }
    [
        tag(&logs.syslog),
        tag(&logs.hwerr),
        tag(&logs.alps),
        tag(&logs.torque),
        tag(&logs.netwatch),
    ]
}

/// Splits an arena's blocks into offset-tagged lines.
pub fn arena_lines(arena: &LogArena) -> [TaggedLines<'_>; 5] {
    std::array::from_fn(|i| arena.lines(i).collect())
}

/// Blank lines count as corrupt. Byte-level equivalent of
/// `str::trim().is_empty()` for ASCII whitespace; lines blank only under
/// Unicode whitespace fail their parser instead — either way they are
/// counted bad.
fn is_blank(line: &[u8]) -> bool {
    line.iter().all(u8::is_ascii_whitespace)
}

/// Aim for several chunks per worker so stealing can even out corrupt-line
/// hotspots, but never chunks so small that dispatch dominates.
const MIN_CHUNK_LINES: usize = 1024;

/// Runs `f` over chunks of `lines`, in parallel when the input is large
/// enough, returning the per-chunk results in chunk order (= line order).
fn par_over_chunks<'a, R: Send>(
    lines: &'a [(u64, &'a [u8])],
    threads: usize,
    f: impl Fn(&'a [(u64, &'a [u8])]) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || lines.len() < 2 * MIN_CHUNK_LINES {
        return vec![f(lines)];
    }
    let chunk_len = (lines.len() / (threads * 4)).max(MIN_CHUNK_LINES);
    let chunks: Vec<&[(u64, &[u8])]> = lines.chunks(chunk_len).collect();
    crate::exec::par_map(threads, chunks, f)
}

/// Per-chunk accumulator for one structured (non-syslog) source.
struct SourceChunk<T> {
    recs: Vec<T>,
    counts: ParseCounts,
    quarantine: Vec<QuarantinedLine>,
}

/// Parses one structured source's lines across `threads` workers with a
/// byte-level parser, collecting rejects by provenance.
fn parse_source_columns<'a, T: Send>(
    lines: &'a [(u64, &'a [u8])],
    source: u8,
    threads: usize,
    parse: impl Fn(&'a [u8]) -> Result<T, &'static str> + Sync,
) -> (Vec<T>, ParseCounts, Vec<QuarantinedLine>) {
    let parts = par_over_chunks(lines, threads, |chunk| {
        let mut acc = SourceChunk {
            recs: Vec::with_capacity(chunk.len()),
            counts: ParseCounts::default(),
            quarantine: Vec::new(),
        };
        for &(offset, line) in chunk {
            acc.counts.total += 1;
            let verdict = if is_blank(line) {
                Err("blank line")
            } else {
                parse(line)
            };
            match verdict {
                Ok(rec) => acc.recs.push(rec),
                Err(reason) => {
                    acc.counts.bad += 1;
                    acc.quarantine.push(QuarantinedLine {
                        source,
                        offset,
                        len: line.len() as u32,
                        reason,
                    });
                }
            }
        }
        acc
    });
    let mut recs = Vec::with_capacity(lines.len());
    let mut counts = ParseCounts::default();
    let mut quarantine = Vec::new();
    for part in parts {
        recs.extend(part.recs);
        counts.total += part.counts.total;
        counts.bad += part.counts.bad;
        quarantine.extend(part.quarantine);
    }
    (recs, counts, quarantine)
}

/// Parses the syslog stream into columns across `threads` workers.
fn parse_syslog_columns<'a>(
    lines: &'a [(u64, &'a [u8])],
    threads: usize,
) -> (SyslogColumns<'a>, ParseCounts, Vec<QuarantinedLine>) {
    struct Chunk<'a> {
        cols: SyslogColumns<'a>,
        counts: ParseCounts,
        quarantine: Vec<QuarantinedLine>,
    }
    let parts = par_over_chunks(lines, threads, |chunk| {
        let mut acc = Chunk {
            cols: SyslogColumns {
                times: Vec::with_capacity(chunk.len()),
                hosts: Vec::with_capacity(chunk.len()),
                messages: Vec::with_capacity(chunk.len()),
            },
            counts: ParseCounts::default(),
            quarantine: Vec::new(),
        };
        for &(offset, line) in chunk {
            acc.counts.total += 1;
            let verdict = if is_blank(line) {
                Err("blank line")
            } else {
                RawSyslog::parse_bytes(line).map_err(|f| f.reason())
            };
            match verdict {
                Ok(raw) => {
                    acc.cols.times.push(raw.timestamp.decode());
                    acc.cols.hosts.push(raw.host);
                    acc.cols.messages.push(raw.message);
                }
                Err(reason) => {
                    acc.counts.bad += 1;
                    acc.quarantine.push(QuarantinedLine {
                        source: 0,
                        offset,
                        len: line.len() as u32,
                        reason,
                    });
                }
            }
        }
        acc
    });
    let mut cols = SyslogColumns::default();
    let mut counts = ParseCounts::default();
    let mut quarantine = Vec::new();
    for part in parts {
        cols.times.extend(part.cols.times);
        cols.hosts.extend(part.cols.hosts);
        cols.messages.extend(part.cols.messages);
        counts.total += part.counts.total;
        counts.bad += part.counts.bad;
        quarantine.extend(part.quarantine);
    }
    (cols, counts, quarantine)
}

/// Parses all five sources into columnar form — the zero-copy hot path.
/// Chunk results are concatenated in chunk order, so for every `threads`
/// the output is byte-identical to the serial scan.
pub fn parse_columns_threads<'a>(
    sources: &'a [TaggedLines<'a>; 5],
    threads: usize,
) -> ParsedColumns<'a> {
    let mut out = ParsedColumns::default();
    let (syslog, counts, quarantine) = parse_syslog_columns(&sources[0], threads);
    out.syslog = syslog;
    out.counts[0] = counts;
    out.quarantine = quarantine;

    let (hwerr, counts, quarantine) = parse_source_columns(&sources[1], 1, threads, |line| {
        RawHwErr::parse_bytes(line)
            .map(|raw| HwErrParsed {
                timestamp: raw.timestamp.decode(),
                node: raw.location.to_nid(),
                category: raw.category,
                severity: raw.severity,
            })
            .map_err(|f| f.reason())
    });
    out.hwerr = hwerr;
    out.counts[1] = counts;
    out.quarantine.extend(quarantine);

    let (alps, counts, quarantine) = parse_source_columns(&sources[2], 2, threads, |line| {
        AlpsRecord::parse_bytes(line).map_err(|f| f.reason())
    });
    out.alps = alps;
    out.counts[2] = counts;
    out.quarantine.extend(quarantine);

    let (torque, counts, quarantine) = parse_source_columns(&sources[3], 3, threads, |line| {
        TorqueRecord::parse_bytes(line).map_err(|f| f.reason())
    });
    out.torque = torque;
    out.counts[3] = counts;
    out.quarantine.extend(quarantine);

    let (netwatch, counts, quarantine) = parse_source_columns(&sources[4], 4, threads, |line| {
        NetwatchRecord::parse_bytes(line).map_err(|f| f.reason())
    });
    out.netwatch = netwatch;
    out.counts[4] = counts;
    out.quarantine.extend(quarantine);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_good_and_bad() {
        let mut logs = LogCollection::new();
        logs.syslog
            .push("2013-03-28 12:30:00 nid00001 kernel: ok line".into());
        logs.syslog.push("garbage".into());
        logs.syslog.push("".into());
        logs.alps.push(
            "2013-03-28 12:30:00 apsys EXIT apid=1 code=0 signal=none node_failed=no runtime=60"
                .into(),
        );
        let sources = collection_lines(&logs);
        let cols = parse_columns_threads(&sources, 1);
        assert_eq!(cols.syslog.len(), 1);
        assert_eq!(cols.counts[0].total, 3);
        assert_eq!(cols.counts[0].bad, 2);
        assert_eq!(cols.counts[0].good(), 1);
        assert_eq!(cols.alps.len(), 1);
        assert_eq!(cols.counts.iter().map(|c| c.bad).sum::<u64>(), 2);
        assert_eq!(cols.quarantine.len(), 2);
    }

    #[test]
    fn dir_and_in_memory_inputs_parse_alike() {
        let dir = std::env::temp_dir().join(format!("logdiver-parse-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("messages.log"),
            "2013-03-28 12:30:00 nid00001 kernel: ok line
garbage
",
        )
        .unwrap();
        std::fs::write(
            dir.join("apsys.log"),
            "2013-03-28 12:30:00 apsys EXIT apid=1 code=0 signal=none node_failed=no runtime=60
",
        )
        .unwrap();
        let arena = LogArena::from_dir(&dir).unwrap();
        let logs = LogCollection::from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let arena_sources = arena_lines(&arena);
        let from_dir = parse_columns_threads(&arena_sources, 1);
        let memory_sources = collection_lines(&logs);
        let in_memory = parse_columns_threads(&memory_sources, 1);
        assert_eq!(from_dir.syslog.times, in_memory.syslog.times);
        assert_eq!(from_dir.syslog.hosts, in_memory.syslog.hosts);
        assert_eq!(from_dir.syslog.messages, in_memory.syslog.messages);
        assert_eq!(from_dir.alps, in_memory.alps);
        assert_eq!(from_dir.counts, in_memory.counts);

        assert!(matches!(
            LogArena::from_dir("/definitely/not/here"),
            Err(crate::LogDiverError::NoInput { .. })
        ));
    }

    #[test]
    fn corrupt_lines_do_not_abort() {
        let mut logs = LogCollection::new();
        for i in 0..100 {
            logs.hwerr.push(format!("corrupt record {i}"));
        }
        let sources = collection_lines(&logs);
        let cols = parse_columns_threads(&sources, 1);
        assert_eq!(cols.hwerr.len(), 0);
        assert_eq!(cols.counts[1].bad, 100);
    }

    fn mixed_logs() -> LogCollection {
        let mut logs = LogCollection::new();
        logs.syslog.extend([
            "2013-03-28 12:30:00 nid00001 kernel: ok line".to_string(),
            "garbage".to_string(),
            String::new(),
            "2013-03-28 12:30:02 smw xtnmd: heartbeat ok".to_string(),
        ]);
        logs.hwerr
            .push("2013-03-28 12:30:02|c0-0c0s1n0|MEM_UE|FATAL|dimm=1".to_string());
        logs.alps.push(
            "2013-03-28 12:30:00 apsys EXIT apid=1 code=0 signal=none node_failed=no runtime=60"
                .to_string(),
        );
        logs.torque.push(
            "2013-03-28 12:00:00;S;98765.bw;user=u0421 queue=normal nodes=4096 walltime=86400"
                .to_string(),
        );
        logs.netwatch
            .push("2013-03-28 12:30:12 netwatch REROUTE_START affected=41472".to_string());
        logs
    }

    /// The columnar path must agree with the owned record parsers
    /// field-for-field: same counts, same timestamps, same host/message
    /// boundaries.
    #[test]
    fn columns_match_record_parse() {
        let logs = mixed_logs();
        let parsed = crate::oracle::parse(&logs);
        let sources = collection_lines(&logs);
        let cols = parse_columns_threads(&sources, 1);

        assert_eq!(cols.counts, parsed.counts);
        assert_eq!(cols.syslog.len(), parsed.syslog.len());
        for (i, rec) in parsed.syslog.iter().enumerate() {
            assert_eq!(cols.syslog.times[i], rec.timestamp);
            assert_eq!(cols.syslog.hosts[i], rec.host.as_str().as_bytes());
            assert_eq!(cols.syslog.messages[i], rec.message.as_bytes());
        }
        assert_eq!(cols.hwerr.len(), parsed.hwerr.len());
        for (h, rec) in cols.hwerr.iter().zip(&parsed.hwerr) {
            assert_eq!(h.timestamp, rec.timestamp);
            assert_eq!(h.node, rec.location.to_nid());
            assert_eq!(h.category, rec.category);
            assert_eq!(h.severity, rec.severity);
        }
        assert_eq!(cols.alps, parsed.alps);
        assert_eq!(cols.torque, parsed.torque);
        assert_eq!(cols.netwatch, parsed.netwatch);
    }

    #[test]
    fn columns_are_thread_count_invariant() {
        let mut logs = LogCollection::new();
        for i in 0..5000 {
            if i % 7 == 0 {
                logs.syslog.push(format!("torn line {i}"));
            } else {
                logs.syslog.push(format!(
                    "2013-03-28 12:30:{:02} nid{:05} ntpd: slew",
                    i % 60,
                    i % 99
                ));
            }
        }
        let sources = collection_lines(&logs);
        let serial = parse_columns_threads(&sources, 1);
        let par = parse_columns_threads(&sources, 4);
        assert_eq!(serial.syslog.times, par.syslog.times);
        assert_eq!(serial.syslog.hosts, par.syslog.hosts);
        assert_eq!(serial.syslog.messages, par.syslog.messages);
        assert_eq!(serial.counts, par.counts);
        assert_eq!(serial.quarantine, par.quarantine);
    }

    /// Quarantine records carry provenance, not text: slicing the arena
    /// back out by offset recovers the rejected line, lossily renderable.
    #[test]
    fn quarantine_offsets_recover_the_rejected_lines() {
        let mut logs = LogCollection::new();
        logs.syslog
            .push("2013-03-28 12:30:00 nid00001 kernel: ok".to_string());
        logs.syslog.push("¡corrupted±line···".to_string());
        let arena = LogArena::from_collection(&logs);
        let sources = arena_lines(&arena);
        let cols = parse_columns_threads(&sources, 1);
        assert_eq!(cols.quarantine.len(), 1);
        let q = cols.quarantine[0];
        assert_eq!(q.source, 0);
        let raw = &arena.block(0)[q.offset as usize..q.offset as usize + q.len as usize];
        assert_eq!(String::from_utf8_lossy(raw), "¡corrupted±line···");
        assert!(!q.reason.is_empty());
    }

    /// The arena path admits encoding damage a `String` collection cannot
    /// even represent: a torn multi-byte sequence is quarantined by offset,
    /// while intact lines around it parse normally.
    #[test]
    fn arena_parse_survives_invalid_utf8() {
        // A block with a bare 0xFF cannot exist as a String collection;
        // load it through the directory surface instead.
        let block: &[u8] = b"2013-03-28 12:30:00 nid00001 kernel: before\n\
                             2013-03-28 12:30:01 nid00002 kernel: torn \xff byte\n";
        let dir = std::env::temp_dir().join(format!("logdiver-rawutf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("messages.log"), block).unwrap();
        let arena = LogArena::from_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let sources = arena_lines(&arena);
        let cols = parse_columns_threads(&sources, 1);
        // Both lines parse: syslog fields are raw bytes until a consumer
        // needs text, and classification operates on bytes.
        assert_eq!(cols.syslog.len(), 2);
        assert_eq!(cols.counts[0].bad, 0);
        assert_eq!(cols.syslog.messages[1], b"torn \xff byte".as_slice());
    }
}
