//! The engine core: one single-threaded state machine, embedded directly.
//!
//! [`InlineEngine`] owns the [`StreamCore`] and runs parse → filter →
//! apply → advance synchronously on the calling thread. It is the only
//! place that knows how an engine is resumed, snapshotted, checkpointed,
//! previewed and drained; [`StreamEngine`](crate::StreamEngine) is a
//! parse-worker shell that keeps one of these behind a mutex and feeds it
//! already-parsed lines.
//!
//! Used on its own it is the right shape for a daemon hosting hundreds of
//! *tenants*, which cannot afford seven threads each: `logdiver-serve`
//! wraps one per tenant and shards the tenants themselves across the batch
//! pipeline's work-stealing executor ([`logdiver::exec::par_map`]).
//!
//! Because every push applies immediately, the engine is *always
//! quiescent*: [`InlineEngine::checkpoint`] never waits, and
//! [`InlineEngine::preview`] can materialize the full batch-equivalent
//! analysis at any time without consuming the engine (it round-trips the
//! open state through the checkpoint serializer into a scratch core and
//! finalizes that).
//!
//! `drain()` equals [`logdiver::LogDiver::analyze`] on the same lines for
//! any chunking within the lateness allowance — the stream==batch
//! equivalence proptests pin that down for both ways of driving the core.

use craylog::alps::AlpsRecord;
use craylog::hwerr::RawHwErr;
use craylog::netwatch::NetwatchRecord;
use craylog::syslog::RawSyslog;
use craylog::torque::TorqueRecord;
use logdiver::classify::ClassifiedRun;
use logdiver::coalesce::ErrorEvent;
use logdiver::filter::{
    entry_from_netwatch, entry_from_syslog_bytes, EntrySource, FilterStats, FilteredEntry,
    PatternTable,
};
use logdiver::metrics::{compute, MetricSet};
use logdiver::parse::ParseCounts;
use logdiver::pipeline::Analysis;
use logdiver_types::Timestamp;

use crate::checkpoint::{ResumeError, StreamCheckpoint};
use crate::config::{Source, StreamConfig};
use crate::health::HealthReport;
use crate::state::{Body, Counters, Parsed, StreamCore};

/// Errors the push API can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The source was closed with `close`; no more lines can be pushed to
    /// it.
    SourceClosed(Source),
    /// The source's circuit breaker is open: the line was rejected (and
    /// counted). Wait [`HealthReport::backoff_ms`], call `probe`, then
    /// retry.
    CircuitOpen(Source),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::SourceClosed(s) => write!(f, "source {} is closed", s.name()),
            StreamError::CircuitOpen(s) => {
                write!(f, "source {}: circuit breaker is open", s.name())
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// A live view of the engine, cheap to take while ingestion continues.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// The run watermark: everything older is fully processed. `None`
    /// until every open source has produced at least one record.
    pub watermark: Option<Timestamp>,
    /// Per-source parse accounting (`[syslog, hwerr, alps, torque,
    /// netwatch]`); `bad` is the corrupt-line quarantine counter.
    pub parse: [ParseCounts; 5],
    /// Filter accounting so far.
    pub filter: FilterStats,
    /// Entries that arrived later than the allowed lateness and were
    /// skipped.
    pub late_dropped: u64,
    /// Entries waiting in the reorder buffer.
    pub buffered_entries: usize,
    /// Error events still open in the coalescer.
    pub open_events: usize,
    /// Error events closed and indexed.
    pub closed_events: usize,
    /// Of those, lethal events.
    pub lethal_events: u64,
    /// Reconstructed runs not yet finalized.
    pub open_runs: usize,
    /// Runs classified so far.
    pub classified_runs: usize,
    /// Metrics over the closed/classified state — the same [`MetricSet`]
    /// the batch pipeline computes, restricted to what has finalized.
    pub metrics: MetricSet,
    /// Per-source health (`[syslog, hwerr, alps, torque, netwatch]`).
    pub health: [HealthReport; 5],
    /// Quarantined lines dropped because the spill queue was full (see
    /// [`InlineEngine::take_spilled`]).
    pub spill_dropped: u64,
}

/// What a snapshot is made of, as copied out of the core.
pub(crate) type SnapshotParts = (Counters, Vec<ClassifiedRun>, Vec<ErrorEvent>);

impl StreamSnapshot {
    /// Computes the metrics — which is why this is apart from
    /// [`InlineEngine::snapshot_parts`]: the threaded engine releases its
    /// lock in between.
    pub(crate) fn assemble((counters, runs, events): SnapshotParts) -> Self {
        StreamSnapshot {
            watermark: counters.watermark,
            parse: counters.parse,
            filter: counters.filter,
            late_dropped: counters.late_dropped,
            buffered_entries: counters.buffered_entries,
            open_events: counters.open_events,
            closed_events: counters.closed_events,
            lethal_events: counters.lethal_events,
            open_runs: counters.open_runs,
            classified_runs: counters.classified_runs,
            metrics: compute(&runs, &events),
            health: counters.health,
            spill_dropped: counters.spill_dropped,
        }
    }
}

/// One raw line to the verdict the core applies. An owned line that does
/// not parse moves into quarantine as it is; a borrowed one is copied only
/// then.
pub(crate) fn parse_body<L>(source: Source, line: L, table: &PatternTable) -> Body
where
    L: AsRef<str> + Into<String>,
{
    match parse_line(source, line.as_ref(), table) {
        Some(parsed) => Body::Ok(parsed),
        None => Body::Bad(line.into()),
    }
}

/// Parses one raw line with the batch pipeline's rules: blank lines are
/// corrupt; entry sources run the filter right here, so in the threaded
/// engine the pattern table's automaton scans parallelize across shards.
/// Runs entirely on the zero-copy byte parsers.
fn parse_line(source: Source, line: &str, table: &PatternTable) -> Option<Parsed> {
    let bytes = line.as_bytes();
    // Same decision as `line.trim().is_empty()`: non-ASCII whitespace
    // falls through to the parser, which rejects it anyway.
    if bytes.iter().all(u8::is_ascii_whitespace) {
        return None;
    }
    match source {
        Source::Syslog => RawSyslog::parse_bytes(bytes).ok().map(|raw| {
            let timestamp = raw.timestamp.decode();
            Parsed::Syslog {
                timestamp,
                entry: entry_from_syslog_bytes(timestamp, raw.host, raw.message, table),
            }
        }),
        Source::HwErr => RawHwErr::parse_bytes(bytes).ok().map(|raw| {
            Parsed::HwErr(FilteredEntry {
                timestamp: raw.timestamp.decode(),
                category: raw.category,
                severity: raw.severity,
                node: Some(raw.location.to_nid()),
                source: EntrySource::HwErr,
            })
        }),
        Source::Alps => AlpsRecord::parse_bytes(bytes).ok().map(Parsed::Alps),
        Source::Torque => TorqueRecord::parse_bytes(bytes).ok().map(Parsed::Torque),
        Source::Netwatch => NetwatchRecord::parse_bytes(bytes)
            .ok()
            .map(|rec| Parsed::Netwatch(entry_from_netwatch(&rec))),
    }
}

/// How many pushed lines may elapse between watermark advances. Advance
/// cadence affects only *when* events close, never *what* closes — the
/// equivalence proptests hold for any cadence.
const ADVANCE_EVERY: u32 = 64;

/// Rough per-item open-state costs for [`InlineEngine::open_cost`], in
/// bytes. These deliberately over-estimate: the budget they feed exists to
/// bound worst-case memory, and a conservative estimate sheds slightly
/// early rather than OOM-ing slightly late.
const COST_BUFFERED_ENTRY: usize = 256;
const COST_OPEN_EVENT: usize = 512;
const COST_OPEN_RUN: usize = 384;
const COST_CLOSED_EVENT: usize = 448;
const COST_CLASSIFIED_RUN: usize = 416;
const COST_QUARANTINED_LINE: usize = 160;

/// A synchronous, single-threaded streaming engine: same pipeline, same
/// output, no threads. One per tenant in `logdiver-serve`, one behind the
/// coordinator's mutex in [`StreamEngine`](crate::StreamEngine).
#[derive(Debug)]
pub struct InlineEngine {
    pub(crate) core: StreamCore,
    since_advance: u32,
}

impl InlineEngine {
    /// A fresh engine with the given configuration.
    pub fn new(config: StreamConfig) -> Self {
        InlineEngine {
            core: StreamCore::new(config),
            since_advance: 0,
        }
    }

    /// Rebuilds an engine from a [`StreamCheckpoint`]: watermarks, reorder
    /// buffer, open events and runs, counters, and health machines all
    /// carry over, and the resumed engine's future output equals an engine
    /// that never stopped. The caller feeds each source from
    /// [`StreamCheckpoint::offset`] onward.
    ///
    /// # Errors
    ///
    /// [`ResumeError::LatenessMismatch`] when `config.lateness` differs
    /// from the checkpoint's (the released watermark baked the old value
    /// in), [`ResumeError::Malformed`] when the checkpoint's internal
    /// arrays have the wrong shape.
    pub fn resume(
        config: StreamConfig,
        checkpoint: &StreamCheckpoint,
    ) -> Result<Self, ResumeError> {
        if config.lateness.as_secs() != checkpoint.lateness_secs {
            return Err(ResumeError::LatenessMismatch {
                checkpoint: checkpoint.lateness_secs,
                config: config.lateness.as_secs(),
            });
        }
        if checkpoint.core.health.len() != 5 || checkpoint.core.quarantine.len() != 5 {
            return Err(ResumeError::Malformed(format!(
                "expected 5 sources, found {} health / {} quarantine entries",
                checkpoint.core.health.len(),
                checkpoint.core.quarantine.len()
            )));
        }
        Ok(InlineEngine {
            core: StreamCore::from_state(config, checkpoint.core.clone()),
            since_advance: 0,
        })
    }

    /// Parses, filters, and applies one raw line synchronously.
    ///
    /// # Errors
    ///
    /// [`StreamError::SourceClosed`] after [`InlineEngine::close`] on this
    /// source; [`StreamError::CircuitOpen`] while the source's circuit
    /// breaker is open (the line is rejected and counted).
    pub fn push(&mut self, source: Source, line: &str) -> Result<(), StreamError> {
        if !self.core.is_open(source) {
            return Err(StreamError::SourceClosed(source));
        }
        self.ingest(source, line)?;
        self.since_advance += 1;
        if self.since_advance >= ADVANCE_EVERY {
            self.advance();
        }
        Ok(())
    }

    /// Parses, filters, and applies a run of raw lines for one source,
    /// advancing the watermarks once at the end instead of every
    /// [`ADVANCE_EVERY`] lines. Returns how many lines were accepted; on a
    /// mid-chunk circuit trip the prefix stays applied.
    ///
    /// # Errors
    ///
    /// [`StreamError::SourceClosed`] after [`InlineEngine::close`] on this
    /// source; [`StreamError::CircuitOpen`] when the breaker trips
    /// mid-chunk (remaining lines are not consumed).
    pub fn push_chunk<'a>(
        &mut self,
        source: Source,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> Result<usize, StreamError> {
        if !self.core.is_open(source) {
            return Err(StreamError::SourceClosed(source));
        }
        let accepted = lines
            .into_iter()
            .try_fold(0, |n, line| self.ingest(source, line).map(|()| n + 1));
        self.advance();
        accepted
    }

    /// One line through the breaker check, the parser and the core.
    fn ingest(&mut self, source: Source, line: &str) -> Result<(), StreamError> {
        if self.core.circuit_open(source) {
            self.core.note_rejected(source);
            return Err(StreamError::CircuitOpen(source));
        }
        let body = parse_body(source, line, &self.core.config().table);
        self.core.apply(source, body);
        Ok(())
    }

    /// Advances the watermarks now: releases ripe entries, closes events,
    /// finalizes runs. Called automatically every [`ADVANCE_EVERY`] pushes;
    /// drivers call it before reading a snapshot they want current.
    pub fn advance(&mut self) {
        self.core.advance();
        self.since_advance = 0;
    }

    /// Declares a source exhausted: it stops holding the watermarks down.
    pub fn close(&mut self, source: Source) {
        self.core.close(source);
    }

    /// Lines applied per source so far (the client's resume cursor).
    pub fn pushed(&self, source: Source) -> u64 {
        self.core.applied()[source.index()]
    }

    /// All five per-source applied-line counts, in [`Source::ALL`] order.
    pub fn pushed_all(&self) -> [u64; 5] {
        self.core.applied()
    }

    /// A live snapshot, with metrics over the closed/classified state.
    pub fn snapshot(&mut self) -> StreamSnapshot {
        StreamSnapshot::assemble(self.snapshot_parts())
    }

    pub(crate) fn snapshot_parts(&mut self) -> SnapshotParts {
        self.advance();
        (
            self.core.counters(),
            self.core.finished_runs(),
            self.core.closed_events(),
        )
    }

    /// Current health of one source.
    pub fn health(&self, source: Source) -> HealthReport {
        self.core.health_report(source)
    }

    /// Half-opens an Open circuit so a bounded probe can flow. Returns
    /// `false` (no-op) when the circuit is not open.
    pub fn probe(&mut self, source: Source) -> bool {
        self.core.probe(source)
    }

    /// The corrupt-line quarantine for one source: total count and up to
    /// `quarantine_keep` most recent raw lines.
    pub fn quarantined(&self, source: Source) -> (u64, Vec<String>) {
        self.core.quarantined(source)
    }

    /// Drains the quarantine spill queue (raw corrupt lines with their
    /// source), in arrival order. Only populated when
    /// [`crate::StreamConfig::spill_quarantined`] is set.
    pub fn take_spilled(&mut self) -> Vec<(Source, String)> {
        self.core.take_spilled()
    }

    /// A conservative estimate of the engine's open-state footprint in
    /// bytes — what the serve daemon's global memory budget charges this
    /// tenant. Counts the reorder buffer, open coalescer windows, open
    /// runs, the retained closed events and classified runs (they live
    /// until drain), and the quarantine rings.
    pub fn open_cost(&mut self) -> usize {
        let c = self.core.counters();
        let quarantined: usize = Source::ALL
            .into_iter()
            .map(|s| self.core.quarantined(s).1.len())
            .sum();
        c.buffered_entries * COST_BUFFERED_ENTRY
            + c.open_events * COST_OPEN_EVENT
            + c.open_runs * COST_OPEN_RUN
            + c.closed_events * COST_CLOSED_EVENT
            + c.classified_runs * COST_CLASSIFIED_RUN
            + quarantined * COST_QUARANTINED_LINE
    }

    /// Captures a [`StreamCheckpoint`]: a pure function of the lines
    /// applied so far. `offsets` is the caller's resume cursor per source
    /// (in [`Source::ALL`] order) — byte offsets for a file feeder, while
    /// `logdiver-serve` stores accepted *line counts* there (the push API
    /// has no files).
    pub fn checkpoint(&mut self, offsets: [u64; 5]) -> StreamCheckpoint {
        self.advance();
        StreamCheckpoint {
            version: StreamCheckpoint::VERSION,
            lateness_secs: self.core.config().lateness.as_secs(),
            offsets,
            core: self.core.checkpoint_state(),
        }
    }

    /// The full batch-equivalent analysis *as of now* — what
    /// [`InlineEngine::drain`] would return if every source closed at this
    /// instant — without consuming the engine. The open state round-trips
    /// through the checkpoint serializer into a scratch core, which is
    /// then finalized; the live engine keeps streaming.
    pub fn preview(&mut self) -> Analysis {
        self.advance();
        let state = self.core.checkpoint_state();
        StreamCore::from_state(self.core.config().clone(), state).finalize()
    }

    /// Closes every source and produces the full analysis — equal to
    /// [`logdiver::LogDiver::analyze`] on the same lines.
    pub fn drain(self) -> Analysis {
        self.core.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver::{LogCollection, LogDiver};
    use logdiver_types::SimDuration;

    fn scenario() -> LogCollection {
        let mut logs = LogCollection::new();
        logs.torque.extend([
            "2013-03-28 10:00:00;S;1.bw;user=u0001 queue=normal nodes=4 walltime=86400".to_string(),
        ]);
        logs.alps.extend([
            "2013-03-28 10:00:05 apsys PLACED apid=100 batch=1.bw user=u0001 cmd=namd2 type=XE width=4 nodelist=nid[0-3]".to_string(),
            "2013-03-28 12:00:05 apsys EXIT apid=100 code=137 signal=9 node_failed=yes runtime=7200".to_string(),
        ]);
        logs.syslog.extend([
            "2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception: bank 4 status 0xb200"
                .to_string(),
            "2013-03-28 12:00:31 smw xtnmd: node heartbeat fault: no response in 60s, declaring node dead"
                .to_string(),
        ]);
        logs.hwerr.extend([
            "2013-03-28 12:00:01|c0-0c0s0n2|MCE|CRIT|bank=4".to_string(),
            "2013-03-28 12:00:31|c0-0c0s0n2|NODE_DEAD|FATAL|".to_string(),
        ]);
        logs
    }

    fn push_all(engine: &mut InlineEngine, logs: &LogCollection) {
        for (source, lines) in [
            (Source::Syslog, &logs.syslog),
            (Source::HwErr, &logs.hwerr),
            (Source::Alps, &logs.alps),
            (Source::Torque, &logs.torque),
            (Source::Netwatch, &logs.netwatch),
        ] {
            for line in lines {
                engine.push(source, line).unwrap();
            }
        }
    }

    #[test]
    fn drain_matches_batch() {
        let logs = scenario();
        let batch = LogDiver::new().analyze(&logs);
        let mut engine = InlineEngine::new(StreamConfig::default());
        push_all(&mut engine, &logs);
        let streamed = engine.drain();
        assert_eq!(streamed.runs, batch.runs);
        assert_eq!(streamed.events, batch.events);
        assert_eq!(streamed.metrics, batch.metrics);
        assert_eq!(streamed.stats, batch.stats);
    }

    #[test]
    fn preview_equals_drain_and_does_not_consume() {
        let logs = scenario();
        let mut engine = InlineEngine::new(StreamConfig::default());
        push_all(&mut engine, &logs);
        let preview = engine.preview();
        // The engine is still alive and accepts more lines.
        engine
            .push(
                Source::Syslog,
                "2013-03-28 15:00:00 nid00051 sshd: Accepted publickey for user port 2222",
            )
            .unwrap();
        let drained = engine.drain();
        assert_eq!(preview.runs, drained.runs);
        assert_eq!(preview.events, drained.events);
    }

    #[test]
    fn checkpoint_resume_continues_exactly() {
        let logs = scenario();
        let batch = LogDiver::new().analyze(&logs);

        let mut first = InlineEngine::new(StreamConfig::default());
        // Push half of each source, checkpoint, resume, push the rest.
        let halves: Vec<(Source, &Vec<String>)> = vec![
            (Source::Syslog, &logs.syslog),
            (Source::HwErr, &logs.hwerr),
            (Source::Alps, &logs.alps),
            (Source::Torque, &logs.torque),
            (Source::Netwatch, &logs.netwatch),
        ];
        for (source, lines) in &halves {
            for line in lines.iter().take(lines.len() / 2) {
                first.push(*source, line).unwrap();
            }
        }
        let offsets = first.pushed_all();
        let ckpt = first.checkpoint(offsets);
        drop(first);

        let mut resumed = InlineEngine::resume(StreamConfig::default(), &ckpt).unwrap();
        for (source, lines) in &halves {
            let from = ckpt.offset(*source) as usize;
            for line in lines.iter().skip(from) {
                resumed.push(*source, line).unwrap();
            }
        }
        let streamed = resumed.drain();
        assert_eq!(streamed.runs, batch.runs);
        assert_eq!(streamed.events, batch.events);
        assert_eq!(streamed.stats, batch.stats);
    }

    #[test]
    fn push_after_close_errors_and_cost_grows() {
        let mut engine = InlineEngine::new(StreamConfig::default());
        assert_eq!(engine.open_cost(), 0);
        engine.close(Source::Netwatch);
        assert_eq!(
            engine.push(Source::Netwatch, "x"),
            Err(StreamError::SourceClosed(Source::Netwatch))
        );
        engine
            .push(
                Source::Syslog,
                "2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception: bank 4",
            )
            .unwrap();
        assert!(engine.open_cost() > 0);
        let analysis = engine.drain();
        assert!(analysis.runs.is_empty());
    }

    #[test]
    fn lateness_mismatch_is_rejected_on_resume() {
        let mut engine = InlineEngine::new(StreamConfig::default());
        let ckpt = engine.checkpoint([0; 5]);
        let other = StreamConfig::default().with_lateness(SimDuration::from_secs(5));
        assert!(matches!(
            InlineEngine::resume(other, &ckpt),
            Err(ResumeError::LatenessMismatch { .. })
        ));
    }
}
