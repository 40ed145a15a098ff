//! The engine state machine: per-source progress, watermarks, and the
//! incremental pipeline.
//!
//! Everything here is single-threaded and deterministic. Every state
//! transition funnels through [`StreamCore::apply`] (one parsed line, in
//! per-source line order) and [`StreamCore::advance`] (watermark
//! progress). The threaded engine's workers only parse, and its
//! coordinator puts their chunks back in line order before applying them,
//! so the final analysis is independent of thread scheduling.
//!
//! ## Watermarks
//!
//! Each source tracks the newest timestamp it has produced. Under the
//! engine's lateness contract (a record may arrive at most
//! [`crate::StreamConfig::lateness`] earlier than its source's newest
//! timestamp), `progress − lateness` is a low watermark: no future record
//! from that source can carry an earlier timestamp. Two aggregate marks
//! drive the pipeline:
//!
//! - the **entry watermark** (minimum over the open *entry* sources)
//!   releases the reorder buffer into the coalescer and closes events;
//! - the **run watermark** (minimum over *all* open sources) finalizes
//!   runs: a terminated run is classified once `end + lag + MAX_EVENT_SPAN`
//!   is below it, because by then every event that could overlap its
//!   attribution window has closed.
//!
//! A source that has produced nothing holds its mark down (nothing
//! finalizes) until it produces or is closed.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use craylog::alps::AlpsRecord;
use craylog::torque::TorqueRecord;
use logdiver::classify::{classify_one, ClassifiedRun};
use logdiver::coalesce::{Coalescer, ErrorEvent, MAX_EVENT_SPAN};
use logdiver::coverage::{qualify_runs, CoverageConfig, CoverageMap};
use logdiver::filter::{entry_sort_key, EntrySource, FilterStats, FilteredEntry};
use logdiver::parse::ParseCounts;
use logdiver::pipeline::{Analysis, PipelineStats};
use logdiver::workload::RunReconstructor;
use logdiver_types::{SimDuration, Timestamp};

use crate::checkpoint::CoreState;
use crate::config::{Source, StreamConfig};
use crate::health::{HealthReport, HealthState, SourceHealth};
use crate::index::StreamIndex;

/// Lock-free mirror of the per-source health states, shared with the
/// engine so [`crate::StreamEngine::push`] can reject circuit-open pushes
/// without taking the core lock.
pub(crate) type HealthCells = Arc<[AtomicU8; 5]>;

fn cell_encode(state: SourceHealth) -> u8 {
    match state {
        SourceHealth::Healthy => 0,
        SourceHealth::Degraded => 1,
        SourceHealth::Open => 2,
        SourceHealth::HalfOpen => 3,
    }
}

pub(crate) fn cell_is_open(cells: &HealthCells, i: usize) -> bool {
    cells[i].load(Ordering::Relaxed) == 2
}

/// One record as parsed (and, for entry sources, filtered) by a worker.
#[derive(Debug)]
pub(crate) enum Parsed {
    /// A syslog line: its timestamp, plus the filtered entry when the
    /// pattern table kept it (`None` = operational chatter).
    Syslog {
        /// The record's timestamp (tracked even for discarded lines, so
        /// chatter still advances the watermark).
        timestamp: Timestamp,
        /// The kept entry, if any.
        entry: Option<FilteredEntry>,
    },
    /// A hardware-error record (always kept).
    HwErr(FilteredEntry),
    /// A netwatch record (always kept).
    Netwatch(FilteredEntry),
    /// An ALPS record.
    Alps(AlpsRecord),
    /// A Torque record.
    Torque(TorqueRecord),
}

/// Worker verdict on one raw line.
#[derive(Debug)]
pub(crate) enum Body {
    /// Parsed (and filtered) successfully.
    Ok(Parsed),
    /// Blank or unparseable; the raw line goes to quarantine.
    Bad(String),
}

/// Aggregate watermark over a set of sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Some open source has produced nothing yet: cannot advance.
    Blocked,
    /// Low watermark over the open sources.
    At(Timestamp),
    /// Every source in the set is closed: no more input can come.
    Done,
}

/// A timestamp beyond any log data, used to flush once sources close.
fn far_future() -> Timestamp {
    Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(i64::MAX / 4)
}

/// Live counters for [`crate::StreamSnapshot`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counters {
    pub parse: [ParseCounts; 5],
    pub filter: FilterStats,
    pub late_dropped: u64,
    pub buffered_entries: usize,
    pub open_events: usize,
    pub closed_events: usize,
    pub open_runs: usize,
    pub classified_runs: usize,
    pub lethal_events: u64,
    pub watermark: Option<Timestamp>,
    pub health: [HealthReport; 5],
    pub spill_dropped: u64,
}

/// The deterministic heart of the engine.
#[derive(Debug)]
pub(crate) struct StreamCore {
    config: StreamConfig,
    // Per-source applied-line count and progress (canonical source order).
    applied: [u64; 5],
    progress: [Option<Timestamp>; 5],
    open: [bool; 5],
    counts: [ParseCounts; 5],
    quarantine: [VecDeque<String>; 5],
    filter_stats: FilterStats,
    // Reorder buffer, keyed by the batch sort key plus source rank and a
    // per-arrival tiebreaker that preserves per-source order.
    buffer: BTreeMap<(Timestamp, u32, u8, u64), FilteredEntry>,
    entry_seq: u64,
    late_dropped: u64,
    released: Option<Timestamp>,
    // Incremental pipeline stages (shared with the batch path).
    coalescer: Coalescer,
    index: StreamIndex,
    reconstructor: RunReconstructor,
    done: BTreeMap<usize, ClassifiedRun>,
    // Source-coverage tracker (order-insensitive by construction, so it
    // matches the batch path no matter how records interleaved).
    coverage: CoverageMap,
    // Per-source health machines, mirrored into the lock-free cells the
    // engine's push path reads.
    health: [HealthState; 5],
    cells: HealthCells,
    // Quarantined raw lines queued for the driver to spill to disk.
    spill: VecDeque<(Source, String)>,
    spill_dropped: u64,
}

impl StreamCore {
    pub(crate) fn new(config: StreamConfig) -> Self {
        let gap = config.logdiver.coalesce_gap;
        StreamCore {
            config,
            applied: [0; 5],
            progress: [None; 5],
            open: [true; 5],
            counts: [ParseCounts::default(); 5],
            quarantine: Default::default(),
            filter_stats: FilterStats::default(),
            buffer: BTreeMap::new(),
            entry_seq: 0,
            late_dropped: 0,
            released: None,
            coalescer: Coalescer::new(gap),
            index: StreamIndex::new(),
            reconstructor: RunReconstructor::new(),
            done: BTreeMap::new(),
            coverage: CoverageMap::new(CoverageConfig::default()),
            health: Default::default(),
            cells: Arc::new([const { AtomicU8::new(0) }; 5]),
            spill: VecDeque::new(),
            spill_dropped: 0,
        }
    }

    pub(crate) fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Lines applied per source so far, in [`Source::ALL`] order. The
    /// `n`-th line a caller applies to a source is line `n` of that source.
    pub(crate) fn applied(&self) -> [u64; 5] {
        self.applied
    }

    pub(crate) fn is_open(&self, source: Source) -> bool {
        self.open[source.index()]
    }

    /// The source has no more input: it stops gating the watermarks.
    pub(crate) fn close(&mut self, source: Source) {
        self.open[source.index()] = false;
    }

    /// True while the source's circuit breaker rejects pushes.
    pub(crate) fn circuit_open(&self, source: Source) -> bool {
        self.health[source.index()].state == SourceHealth::Open
    }

    /// The lock-free health mirror (see [`HealthCells`]).
    pub(crate) fn cells(&self) -> HealthCells {
        Arc::clone(&self.cells)
    }

    /// Applies the next line of `source`. Callers deliver each source's
    /// lines in line order.
    pub(crate) fn apply(&mut self, source: Source, body: Body) {
        let i = source.index();
        self.applied[i] += 1;
        self.counts[i].total += 1;
        match body {
            Body::Bad(line) => {
                let ordinal = self.counts[i].bad;
                self.counts[i].bad += 1;
                let keep = self.health[i].record_bad(&self.config.health, ordinal);
                self.sync_cell(i);
                if !keep {
                    return;
                }
                if self.config.spill_quarantined {
                    if self.spill.len() < self.config.spill_capacity {
                        self.spill.push_back((source, line.clone()));
                    } else {
                        self.spill_dropped += 1;
                    }
                }
                if self.config.quarantine_keep > 0 {
                    let q = &mut self.quarantine[i];
                    if q.len() == self.config.quarantine_keep {
                        q.pop_front();
                    }
                    q.push_back(line);
                }
            }
            Body::Ok(parsed) => {
                self.health[i].record_good(&self.config.health);
                self.sync_cell(i);
                self.apply_parsed(i, parsed);
            }
        }
    }

    fn apply_parsed(&mut self, i: usize, parsed: Parsed) {
        match parsed {
            Parsed::Syslog { timestamp, entry } => {
                self.filter_stats.syslog_examined += 1;
                self.bump(i, timestamp);
                // Coverage sees every parsed record, chatter included —
                // exactly what the batch path observes.
                self.coverage.observe(EntrySource::Syslog, timestamp);
                if let Some(e) = entry {
                    self.filter_stats.syslog_kept += 1;
                    self.buffer_entry(e);
                }
            }
            Parsed::HwErr(e) | Parsed::Netwatch(e) => {
                self.filter_stats.structured_kept += 1;
                self.bump(i, e.timestamp);
                self.coverage.observe(e.source, e.timestamp);
                self.buffer_entry(e);
            }
            Parsed::Alps(rec) => {
                self.bump(i, alps_timestamp(&rec));
                self.reconstructor.push_alps(rec);
            }
            Parsed::Torque(rec) => {
                self.bump(i, rec.timestamp);
                self.reconstructor.push_torque(&rec);
            }
        }
    }

    fn sync_cell(&self, i: usize) {
        self.cells[i].store(cell_encode(self.health[i].state), Ordering::Relaxed);
    }

    fn bump(&mut self, i: usize, ts: Timestamp) {
        self.progress[i] = Some(self.progress[i].map_or(ts, |p| p.max(ts)));
    }

    fn buffer_entry(&mut self, entry: FilteredEntry) {
        if self.released.is_some_and(|w| entry.timestamp < w) {
            // Later than the allowance: its window may already be closed.
            self.late_dropped += 1;
            return;
        }
        let (ts, node) = entry_sort_key(&entry);
        let rank = match entry.source {
            EntrySource::Syslog => 0u8,
            EntrySource::HwErr => 1,
            EntrySource::Netwatch => 2,
        };
        self.buffer.insert((ts, node, rank, self.entry_seq), entry);
        self.entry_seq += 1;
    }

    fn mark(&self, entry_only: bool) -> Mark {
        // The most advanced open source (any health) anchors the clamp on
        // Degraded stragglers.
        let mut leader: Option<Timestamp> = None;
        for s in Source::ALL {
            let i = s.index();
            if self.open[i] {
                if let Some(p) = self.progress[i] {
                    leader = Some(leader.map_or(p, |l| l.max(p)));
                }
            }
        }
        let mut low: Option<Timestamp> = None;
        let mut any_open = false;
        let mut any_gating = false;
        for s in Source::ALL {
            if entry_only && !s.is_entry() {
                continue;
            }
            let i = s.index();
            if !self.open[i] {
                continue;
            }
            any_open = true;
            let health = self.health[i].state;
            if matches!(health, SourceHealth::Open | SourceHealth::HalfOpen) {
                // Circuit broken: the source must not block the others.
                continue;
            }
            any_gating = true;
            let clamp = match (health, leader) {
                (SourceHealth::Degraded, Some(l)) => Some(l - self.config.health.degraded_hold),
                _ => None,
            };
            let gate = match (self.progress[i], clamp) {
                (None, None) => return Mark::Blocked,
                // Degraded before producing anything: ride the clamp alone.
                (None, Some(c)) => c,
                (Some(p), None) => p - self.config.lateness,
                // Degraded straggler: may lag the leader by at most
                // `degraded_hold` (late records become `late_dropped`).
                (Some(p), Some(c)) => (p - self.config.lateness).max(c),
            };
            low = Some(low.map_or(gate, |c| c.min(gate)));
        }
        if !any_open {
            return Mark::Done;
        }
        if !any_gating {
            // Every still-open source is circuit-broken: hold position
            // rather than flushing — a probe may bring one back.
            return Mark::Blocked;
        }
        match low {
            Some(w) => Mark::At(w),
            None => Mark::Blocked,
        }
    }

    /// Advances both watermarks: releases ripe entries into the coalescer,
    /// harvests closed events into the live index, and classifies every
    /// newly finalizable run.
    pub(crate) fn advance(&mut self) {
        match self.mark(true) {
            Mark::Blocked => {}
            Mark::At(w) => self.release_until(w),
            Mark::Done => self.release_until(far_future()),
        }
        match self.mark(false) {
            Mark::Blocked => {}
            Mark::At(w) => self.finalize_runs(w),
            Mark::Done => self.finalize_runs(far_future()),
        }
    }

    fn release_until(&mut self, watermark: Timestamp) {
        if self.released.is_some_and(|r| watermark <= r) {
            return;
        }
        self.released = Some(watermark);
        // Keys strictly below (watermark, 0, 0, 0) have timestamp <
        // watermark; everything at or after the watermark stays buffered
        // because an in-flight record could still sort before it.
        let rest = self.buffer.split_off(&(watermark, 0, 0, 0));
        let ripe = std::mem::replace(&mut self.buffer, rest);
        for entry in ripe.values() {
            self.coalescer.push(entry);
        }
        for event in self.coalescer.take_closed(watermark) {
            self.index.insert(event);
        }
    }

    fn finalize_runs(&mut self, watermark: Timestamp) {
        // Safe once no event overlapping [end − lead, end + lag] can still
        // be open: open events start within MAX_EVENT_SPAN of the entry
        // watermark, which the run watermark never exceeds.
        let cutoff = watermark - MAX_EVENT_SPAN - self.config.logdiver.attribution_lag;
        for (seq, run) in self.reconstructor.take_finalizable(cutoff) {
            let verdict = classify_one(
                run,
                self.reconstructor.jobs(),
                &self.index,
                &self.config.logdiver,
            );
            self.done.insert(seq, verdict);
        }
    }

    pub(crate) fn counters(&self) -> Counters {
        Counters {
            parse: self.counts,
            filter: self.filter_stats,
            late_dropped: self.late_dropped,
            buffered_entries: self.buffer.len(),
            open_events: self.coalescer.open_len(),
            closed_events: self.index.len(),
            open_runs: self.reconstructor.open_len(),
            classified_runs: self.done.len(),
            lethal_events: self.index.lethal_count(),
            watermark: match self.mark(false) {
                Mark::At(w) => Some(w),
                _ => None,
            },
            health: self.health_reports(),
            spill_dropped: self.spill_dropped,
        }
    }

    pub(crate) fn health_reports(&self) -> [HealthReport; 5] {
        std::array::from_fn(|i| self.health[i].report(&self.config.health, i))
    }

    pub(crate) fn health_report(&self, source: Source) -> HealthReport {
        let i = source.index();
        self.health[i].report(&self.config.health, i)
    }

    pub(crate) fn note_rejected(&mut self, source: Source) {
        self.health[source.index()].rejected_while_open += 1;
    }

    pub(crate) fn probe(&mut self, source: Source) -> bool {
        let i = source.index();
        let moved = self.health[i].probe(&self.config.health);
        self.sync_cell(i);
        moved
    }

    pub(crate) fn mark_stalled(&mut self, source: Source) {
        let i = source.index();
        self.health[i].mark_stalled();
        self.sync_cell(i);
    }

    pub(crate) fn mark_recovered(&mut self, source: Source) {
        let i = source.index();
        self.health[i].mark_recovered(&self.config.health);
        self.sync_cell(i);
    }

    pub(crate) fn take_spilled(&mut self) -> Vec<(Source, String)> {
        self.spill.drain(..).collect()
    }

    /// Serializes the open state: a function of the lines applied so far
    /// and nothing else. The threaded engine waits until every pushed line
    /// has been applied before it asks.
    pub(crate) fn checkpoint_state(&self) -> CoreState {
        CoreState {
            next_seq: self.applied,
            progress: self.progress,
            open: self.open,
            counts: self.counts,
            quarantine: self
                .quarantine
                .iter()
                .map(|q| q.iter().cloned().collect())
                .collect(),
            filter_stats: self.filter_stats,
            // Arrival numbers only break ties inside one (timestamp,
            // node, source) key, so their order is state and their values
            // are not: those depend on how the sources interleaved.
            // Renumbering in key order keeps equal state equal bytes.
            buffer: (0..).zip(self.buffer.values().copied()).collect(),
            entry_seq: self.buffer.len() as u64,
            late_dropped: self.late_dropped,
            released: self.released,
            coalescer: self.coalescer.state(),
            events: self.index.events_in_order(),
            reconstructor: self.reconstructor.state(),
            done: self
                .done
                .iter()
                .map(|(&seq, run)| (seq as u64, run.clone()))
                .collect(),
            health: self.health.to_vec(),
            spill_dropped: self.spill_dropped,
            coverage: self.coverage.state(),
        }
    }

    /// Rebuilds a core from a checkpoint. Inverse of
    /// [`StreamCore::checkpoint_state`] up to the spill queue (drained
    /// before checkpointing by contract).
    pub(crate) fn from_state(config: StreamConfig, state: CoreState) -> Self {
        let mut core = StreamCore::new(config);
        core.applied = state.next_seq;
        core.progress = state.progress;
        core.open = state.open;
        core.counts = state.counts;
        for (i, lines) in state.quarantine.into_iter().take(5).enumerate() {
            core.quarantine[i] = lines.into();
        }
        core.filter_stats = state.filter_stats;
        for (seq, entry) in state.buffer {
            let (ts, node) = entry_sort_key(&entry);
            let rank = match entry.source {
                EntrySource::Syslog => 0u8,
                EntrySource::HwErr => 1,
                EntrySource::Netwatch => 2,
            };
            core.buffer.insert((ts, node, rank, seq), entry);
        }
        core.entry_seq = state.entry_seq;
        core.late_dropped = state.late_dropped;
        core.released = state.released;
        core.coalescer = Coalescer::restore(core.config.logdiver.coalesce_gap, state.coalescer);
        core.index = StreamIndex::from_events(state.events);
        core.reconstructor = RunReconstructor::restore(state.reconstructor);
        core.done = state
            .done
            .into_iter()
            .map(|(seq, run)| (seq as usize, run))
            .collect();
        for (i, health) in state.health.into_iter().take(5).enumerate() {
            core.health[i] = health;
            core.sync_cell(i);
        }
        core.spill_dropped = state.spill_dropped;
        core.coverage = CoverageMap::restore(CoverageConfig::default(), state.coverage);
        core
    }

    pub(crate) fn finished_runs(&self) -> Vec<ClassifiedRun> {
        self.done.values().cloned().collect()
    }

    pub(crate) fn closed_events(&self) -> Vec<ErrorEvent> {
        self.index.events_in_order()
    }

    pub(crate) fn quarantined(&self, source: Source) -> (u64, Vec<String>) {
        let i = source.index();
        (
            self.counts[i].bad,
            self.quarantine[i].iter().cloned().collect(),
        )
    }

    /// Flushes everything and produces the full batch-equivalent analysis.
    pub(crate) fn finalize(mut self) -> Analysis {
        self.open = [false; 5];
        self.release_until(far_future());
        let workload_stats = self.reconstructor.stats_snapshot();
        for (seq, run) in self.reconstructor.take_all() {
            let verdict = classify_one(
                run,
                self.reconstructor.jobs(),
                &self.index,
                &self.config.logdiver,
            );
            self.done.insert(seq, verdict);
        }
        let mut runs: Vec<ClassifiedRun> = self.done.into_values().collect();
        let events = self.index.events_in_order();
        let stats = PipelineStats {
            parse: self.counts,
            filter: self.filter_stats,
            workload: workload_stats,
            entries: self.filter_stats.syslog_kept + self.filter_stats.structured_kept,
            duplicates: self.coalescer.duplicates(),
            events: events.len() as u64,
            lethal_events: self.index.lethal_count(),
        };
        // The coverage post-pass runs at finalize, once the tracker has
        // seen the whole stream — a gap near a run may only become
        // detectable after the run was incrementally classified.
        let gaps = self.coverage.gaps();
        qualify_runs(&mut runs, &gaps, &self.config.logdiver);
        let metrics = logdiver::metrics::compute(&runs, &events);
        Analysis {
            runs,
            events,
            metrics,
            stats,
            coverage: gaps,
        }
    }
}

fn alps_timestamp(rec: &AlpsRecord) -> Timestamp {
    match rec {
        AlpsRecord::Placed(p) => p.timestamp,
        AlpsRecord::Exit(e) => e.timestamp,
        AlpsRecord::LaunchErr(l) => l.timestamp,
    }
}
