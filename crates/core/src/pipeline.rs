//! The end-to-end pipeline: one call from raw lines to metrics.
//!
//! Both front doors ([`LogDiver::analyze`], [`LogDiver::analyze_dir`]) run
//! the **columnar zero-copy path**: lines are tagged with provenance
//! ([`crate::parse::TaggedLines`]), parsed into borrowed columns
//! ([`ParsedColumns`]), and classified before anything materializes
//! ([`filter_columns`]). There is no other batch path; the unit tests hold
//! it equal to a serial oracle built from craylog's owned parsers.

use serde::{Deserialize, Serialize};

use std::collections::HashMap;
use std::time::Instant;

use crate::classify::{classify_runs_threads, ClassifiedRun};
use crate::coalesce::{Coalescer, ErrorEvent};
use crate::config::LogDiverConfig;
use crate::coverage::{qualify_runs, CoverageConfig, CoverageGap, CoverageMap};
use crate::error::LogDiverError;
use crate::filter::{filter_columns, EntrySource, FilterStats, FilteredEntry, PatternTable};
use crate::input::{LogArena, LogCollection};
use crate::matcher::MatchIndex;
use crate::metrics::{compute, MetricSet};
use crate::parse::{
    arena_lines, collection_lines, parse_columns_threads, ParseCounts, ParsedColumns,
    QuarantinedLine,
};
use crate::workload::{reconstruct_records, AppRun, JobInfo, WorkloadStats};

/// Per-stage accounting (experiment T5: pipeline effectiveness).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Parse accounting `[syslog, hwerr, alps, torque, netwatch]`.
    pub parse: [ParseCounts; 5],
    /// Filter accounting.
    pub filter: FilterStats,
    /// Reconstruction accounting.
    pub workload: WorkloadStats,
    /// Filtered entries that entered coalescing.
    pub entries: u64,
    /// Exact-duplicate entries collapsed by the coalescer (replays).
    pub duplicates: u64,
    /// Error events after coalescing.
    pub events: u64,
    /// Of those, lethal events.
    pub lethal_events: u64,
}

impl PipelineStats {
    /// Compression from filtered entries to events.
    pub fn coalescing_ratio(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.entries as f64 / self.events as f64
        }
    }
}

/// Wall-clock seconds spent in each pipeline stage, for `--timings` and the
/// pipeline bench. Kept outside [`Analysis`] so identical inputs keep
/// producing identical analyses.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct StageTimings {
    /// Raw lines → typed records.
    pub parse_secs: f64,
    /// Records → categorized entries (includes the sort).
    pub filter_secs: f64,
    /// Per-source liveness observation.
    pub coverage_secs: f64,
    /// Entries → error events.
    pub coalesce_secs: f64,
    /// ALPS ⋈ Torque → runs.
    pub reconstruct_secs: f64,
    /// Run classification (index build + decision tree + coverage pass).
    pub classify_secs: f64,
    /// Metric computation.
    pub metrics_secs: f64,
    /// End-to-end, including glue not attributed above.
    pub total_secs: f64,
}

/// The result of an analysis.
#[derive(Debug)]
pub struct Analysis {
    /// Every reconstructed run with its verdict.
    pub runs: Vec<ClassifiedRun>,
    /// Coalesced error events (sorted by start).
    pub events: Vec<ErrorEvent>,
    /// All computed metrics.
    pub metrics: MetricSet,
    /// Per-stage accounting.
    pub stats: PipelineStats,
    /// Detected per-source coverage gaps (silent outages). Runs whose
    /// attribution window overlaps one carry a degraded
    /// [`crate::classify::AttributionConfidence`].
    pub coverage: Vec<CoverageGap>,
}

/// The single wall-clock read site for stage timing telemetry.
///
/// Timings are observability only — they never feed the analysis, so the
/// determinism contract (`--threads N` byte-identical to serial) is
/// untouched. Centralized here so the workspace linter's wall-clock rule
/// has exactly one annotated exception in this module.
fn stage_clock() -> Instant {
    Instant::now() // lint: allow(wall-clock) stage-timing telemetry only; StageTimings never feeds Analysis
}

/// The LogDiver tool.
///
/// ```
/// use logdiver::{LogDiver, LogCollection};
/// let analysis = LogDiver::new().analyze(&LogCollection::new());
/// assert_eq!(analysis.runs.len(), 0);
/// ```
#[derive(Debug)]
pub struct LogDiver {
    config: LogDiverConfig,
    table: PatternTable,
    threads: usize,
}

impl Default for LogDiver {
    fn default() -> Self {
        LogDiver {
            config: LogDiverConfig::default(),
            table: PatternTable::default(),
            threads: 1,
        }
    }
}

impl LogDiver {
    /// Creates the tool with default windows and the curated pattern table.
    pub fn new() -> Self {
        LogDiver::default()
    }

    /// Overrides the pipeline configuration.
    pub fn with_config(mut self, config: LogDiverConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the pattern table.
    pub fn with_patterns(mut self, table: PatternTable) -> Self {
        self.table = table;
        self
    }

    /// Sets the worker-thread count for the parallel stages (parse, filter,
    /// classify). `0` and `1` both mean serial. The analysis produced is
    /// identical for every thread count — parallel stages are
    /// order-preserving maps with deterministic merges (see DESIGN.md §13).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configuration in effect.
    pub fn config(&self) -> &LogDiverConfig {
        &self.config
    }

    /// The worker-thread count in effect.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the whole pipeline on a log collection.
    pub fn analyze(&self, logs: &LogCollection) -> Analysis {
        self.analyze_timed(logs).0
    }

    /// Runs the whole pipeline on a log collection, also reporting
    /// per-stage wall-clock timings.
    pub fn analyze_timed(&self, logs: &LogCollection) -> (Analysis, StageTimings) {
        let started = stage_clock();
        let parse_started = stage_clock();
        let sources = collection_lines(logs);
        let mut cols = parse_columns_threads(&sources, self.threads);
        let parse_secs = parse_started.elapsed().as_secs_f64();
        self.finish_columns_timed(&mut cols, parse_secs, started)
    }

    /// Runs the pipeline on a log directory by loading the conventional
    /// files into a [`LogArena`] and parsing zero-copy over it.
    ///
    /// Unlike the retired line-by-line reader, a line that is not valid
    /// UTF-8 is *counted and quarantined*, not a fatal I/O error — the
    /// whole block is raw bytes until a parser proves each line's fields.
    ///
    /// # Errors
    ///
    /// Propagates I/O and empty-directory errors from
    /// [`LogArena::from_dir`].
    pub fn analyze_dir(&self, dir: impl AsRef<std::path::Path>) -> Result<Analysis, LogDiverError> {
        Ok(self.analyze_dir_timed(dir)?.0)
    }

    /// Runs the pipeline on a log directory, also reporting per-stage
    /// wall-clock timings.
    ///
    /// # Errors
    ///
    /// Same as [`LogDiver::analyze_dir`].
    pub fn analyze_dir_timed(
        &self,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<(Analysis, StageTimings), LogDiverError> {
        let arena = LogArena::from_dir(dir)?;
        let (analysis, timings, _) = self.analyze_arena_timed(&arena);
        Ok((analysis, timings))
    }

    /// Runs the pipeline over a loaded arena, also returning every
    /// rejected line's provenance — the offsets `--quarantine-out` slices
    /// back out of the arena (no rejected text is copied anywhere on this
    /// path).
    pub fn analyze_arena_timed(
        &self,
        arena: &LogArena,
    ) -> (Analysis, StageTimings, Vec<QuarantinedLine>) {
        let started = stage_clock();
        let parse_started = stage_clock();
        let sources = arena_lines(arena);
        let mut cols = parse_columns_threads(&sources, self.threads);
        let parse_secs = parse_started.elapsed().as_secs_f64();
        let quarantine = std::mem::take(&mut cols.quarantine);
        let (analysis, timings) = self.finish_columns_timed(&mut cols, parse_secs, started);
        (analysis, timings, quarantine)
    }

    /// The back half: filter-before-materialize, coverage, run
    /// reconstruction, then [`LogDiver::conclude`].
    fn finish_columns_timed(
        &self,
        cols: &mut ParsedColumns<'_>,
        parse_secs: f64,
        started: Instant,
    ) -> (Analysis, StageTimings) {
        let mut timings = StageTimings {
            parse_secs,
            ..StageTimings::default()
        };

        let stage = stage_clock();
        let (entries, filter_stats) = filter_columns(cols, &self.table, self.threads);
        timings.filter_secs = stage.elapsed().as_secs_f64();

        // Coverage watches every parsed record — kept *and* discarded:
        // operational chatter is what proves a source alive.
        let stage = stage_clock();
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
        timings.coverage_secs = stage.elapsed().as_secs_f64();

        let stage = stage_clock();
        // The ALPS records end here: their node ranges move into the runs.
        let alps = std::mem::take(&mut cols.alps);
        let (runs, jobs, workload_stats) = reconstruct_records(alps, &cols.torque);
        timings.reconstruct_secs = stage.elapsed().as_secs_f64();

        self.conclude(
            timings,
            started,
            cols.counts,
            entries,
            filter_stats,
            coverage,
            runs,
            jobs,
            workload_stats,
        )
    }

    /// The pipeline tail — coalesce, classify, qualify, metrics — from
    /// sorted entries and reconstructed runs.
    #[allow(clippy::too_many_arguments)]
    fn conclude(
        &self,
        mut timings: StageTimings,
        started: Instant,
        counts: [ParseCounts; 5],
        entries: Vec<FilteredEntry>,
        filter_stats: FilterStats,
        coverage: CoverageMap,
        runs: Vec<AppRun>,
        jobs: HashMap<u64, JobInfo>,
        workload_stats: WorkloadStats,
    ) -> (Analysis, StageTimings) {
        let stage = stage_clock();
        let mut coalescer = Coalescer::new(self.config.coalesce_gap);
        for e in &entries {
            coalescer.push(e);
        }
        let duplicates = coalescer.duplicates();
        let events = coalescer.finish();
        timings.coalesce_secs = stage.elapsed().as_secs_f64();

        let lethal_events = events.iter().filter(|e| e.is_lethal()).count() as u64;
        let stats = PipelineStats {
            parse: counts,
            filter: filter_stats,
            workload: workload_stats,
            entries: entries.len() as u64,
            duplicates,
            events: events.len() as u64,
            lethal_events,
        };

        let stage = stage_clock();
        // Coalescer output is start-ordered, so the index build skips its
        // fallback sort (see MatchIndex::new).
        debug_assert!(events.is_sorted_by_key(|e| e.start));
        let index = MatchIndex::new(events);
        let mut classified = classify_runs_threads(runs, &jobs, &index, &self.config, self.threads);
        let gaps = coverage.gaps();
        qualify_runs(&mut classified, &gaps, &self.config);
        timings.classify_secs = stage.elapsed().as_secs_f64();

        let stage = stage_clock();
        let metrics = compute(&classified, index.events());
        timings.metrics_secs = stage.elapsed().as_secs_f64();

        timings.total_secs = started.elapsed().as_secs_f64();
        let analysis = Analysis {
            runs: classified,
            events: index.events().to_vec(),
            metrics,
            stats,
            coverage: gaps,
        };
        (analysis, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver_types::{ExitClass, FailureCause};

    /// A miniature hand-written field scenario covering the whole pipeline:
    /// noise to discard, a node crash killing one app, a healthy app, and a
    /// launch failure.
    fn scenario() -> LogCollection {
        let mut logs = LogCollection::new();
        logs.torque.extend([
            "2013-03-28 10:00:00;S;1.bw;user=u0001 queue=normal nodes=4 walltime=86400".to_string(),
            "2013-03-28 10:00:00;S;2.bw;user=u0002 queue=small nodes=1 walltime=86400".to_string(),
        ]);
        logs.alps.extend([
            "2013-03-28 10:00:05 apsys PLACED apid=100 batch=1.bw user=u0001 cmd=namd2 type=XE width=4 nodelist=nid[0-3]".to_string(),
            "2013-03-28 10:00:06 apsys PLACED apid=200 batch=2.bw user=u0002 cmd=vasp type=XE width=1 nodelist=nid[100]".to_string(),
            // apid 100 dies when nid 2 crashes at 12:00:00.
            "2013-03-28 12:00:05 apsys EXIT apid=100 code=137 signal=9 node_failed=yes runtime=7200".to_string(),
            // apid 200 completes.
            "2013-03-28 13:00:06 apsys EXIT apid=200 code=0 signal=none node_failed=no runtime=10800".to_string(),
            // apid 300 never launches.
            "2013-03-28 14:00:00 apsys PLACED apid=300 batch=2.bw user=u0002 cmd=vasp type=XE width=1 nodelist=nid[101]".to_string(),
            "2013-03-28 14:00:03 apsys LAUNCHERR apid=300 reason=placement failed: node unavailable".to_string(),
        ]);
        logs.syslog.extend([
            // Noise before, during, after.
            "2013-03-28 09:59:00 nid00050 ntpd: time slew +0.012s".to_string(),
            "2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception: bank 4 status 0xb200".to_string(),
            "2013-03-28 12:00:31 smw xtnmd: node heartbeat fault: no response in 60s, declaring node dead".to_string(),
            "2013-03-28 15:00:00 nid00051 sshd: Accepted publickey for user port 2222".to_string(),
        ]);
        logs.hwerr.extend([
            "2013-03-28 12:00:01|c0-0c0s0n2|MCE|CRIT|bank=4".to_string(),
            "2013-03-28 12:00:31|c0-0c0s0n2|NODE_DEAD|FATAL|".to_string(),
        ]);
        logs
    }

    #[test]
    fn end_to_end_on_handwritten_scenario() {
        let analysis = LogDiver::new().analyze(&scenario());
        assert_eq!(analysis.runs.len(), 3);

        let by_apid = |apid: u64| {
            analysis
                .runs
                .iter()
                .find(|r| r.run.apid.value() == apid)
                .unwrap()
        };
        assert_eq!(
            by_apid(100).class,
            ExitClass::SystemFailure(FailureCause::Memory)
        );
        assert!(!by_apid(100).matched_events.is_empty());
        assert_eq!(by_apid(200).class, ExitClass::Success);
        assert_eq!(
            by_apid(300).class,
            ExitClass::SystemFailure(FailureCause::Launcher)
        );

        // The MCE syslog + hwerr + heartbeat lines coalesce around nid 2.
        assert!(analysis.stats.events >= 1);
        assert!(analysis.stats.lethal_events >= 1);
        assert_eq!(analysis.stats.filter.syslog_examined, 4);
        assert_eq!(analysis.stats.filter.syslog_kept, 2);

        // Metrics line up with the classification.
        assert_eq!(analysis.metrics.total_runs, 3);
        assert!((analysis.metrics.system_failure_fraction - 2.0 / 3.0).abs() < 1e-9);
        let mem = analysis
            .metrics
            .causes
            .iter()
            .find(|c| c.cause == FailureCause::Memory)
            .unwrap();
        assert_eq!(mem.runs, 1);
        assert!((mem.lost_node_hours - 8.0).abs() < 1e-9);
    }

    #[test]
    fn analyze_is_deterministic() {
        let a = LogDiver::new().analyze(&scenario());
        let b = LogDiver::new().analyze(&scenario());
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.events, b.events);
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn empty_logs_yield_empty_analysis() {
        let a = LogDiver::new().analyze(&LogCollection::new());
        assert!(a.runs.is_empty());
        assert!(a.events.is_empty());
        assert_eq!(a.stats.coalescing_ratio(), 0.0);
    }

    #[test]
    fn duplicate_replay_does_not_inflate_events() {
        let clean = LogDiver::new().analyze(&scenario());
        let mut logs = scenario();
        // A syslog relay reconnect replays the error lines verbatim.
        let replayed: Vec<String> = logs.syslog.clone();
        logs.syslog.extend(replayed);
        let doubled = LogDiver::new().analyze(&logs);
        assert_eq!(doubled.events, clean.events, "replay must be idempotent");
        assert_eq!(doubled.runs, clean.runs);
        assert!(doubled.stats.duplicates >= 2);
        assert_eq!(clean.stats.duplicates, 0);
    }

    #[test]
    fn outage_overlapping_death_degrades_the_verdict() {
        use crate::classify::AttributionConfidence;
        use logdiver_types::Timestamp;

        let mut logs = LogCollection::new();
        // Steady chatter proves syslog alive once a minute for 10 hours —
        // except a silent outage between hours 4 and 6.
        let t0 = Timestamp::from_ymd_hms(2013, 3, 28, 0, 0, 0);
        for m in 0..600 {
            let ts = t0 + logdiver_types::SimDuration::from_mins(m);
            if !(240..360).contains(&m) {
                logs.syslog
                    .push(format!("{ts} nid00050 ntpd: time slew +0.012s"));
            }
        }
        // Two identical node-failed deaths with no explaining evidence:
        // one inside the outage (hour 5), one after it (hour 8).
        logs.alps.extend([
            format!("{} apsys PLACED apid=1 batch=1.bw user=u0001 cmd=a.out type=XE width=2 nodelist=nid[0-1]", t0),
            format!("{} apsys EXIT apid=1 code=137 signal=9 node_failed=yes runtime=18000",
                t0 + logdiver_types::SimDuration::from_hours(5)),
            format!("{} apsys PLACED apid=2 batch=1.bw user=u0001 cmd=a.out type=XE width=2 nodelist=nid[4-5]", t0),
            format!("{} apsys EXIT apid=2 code=137 signal=9 node_failed=yes runtime=28800",
                t0 + logdiver_types::SimDuration::from_hours(8)),
        ]);
        let analysis = LogDiver::new().analyze(&logs);
        assert_eq!(analysis.coverage.len(), 1, "{:?}", analysis.coverage);
        let by_apid = |apid: u64| {
            analysis
                .runs
                .iter()
                .find(|r| r.run.apid.value() == apid)
                .unwrap()
        };
        assert_eq!(
            by_apid(1).class,
            ExitClass::SystemFailure(FailureCause::Undetermined)
        );
        assert_eq!(by_apid(1).confidence, AttributionConfidence::Degraded);
        assert_eq!(
            by_apid(2).class,
            ExitClass::SystemFailure(FailureCause::Undetermined)
        );
        assert_eq!(by_apid(2).confidence, AttributionConfidence::Full);
    }

    /// The columnar front door must produce the analysis the serial
    /// record oracle leads to — entries, events, metrics, stats, the lot —
    /// on the same input, for any thread count.
    #[test]
    fn columnar_and_record_paths_agree() {
        let mut logs = scenario();
        logs.syslog.push("¡corrupted±line···".to_string());
        logs.syslog.push(String::new());
        let recs = crate::oracle::parse(&logs);
        for threads in [1, 3] {
            let diver = LogDiver::new().with_threads(threads);
            let columnar = diver.analyze(&logs);

            let (entries, filter_stats) = crate::oracle::filter(&recs, &diver.table);
            let mut coverage = CoverageMap::new(CoverageConfig::default());
            for rec in &recs.syslog {
                coverage.observe(EntrySource::Syslog, rec.timestamp);
            }
            for rec in &recs.hwerr {
                coverage.observe(EntrySource::HwErr, rec.timestamp);
            }
            for rec in &recs.netwatch {
                coverage.observe(EntrySource::Netwatch, rec.timestamp);
            }
            let (runs, jobs, workload_stats) = reconstruct_records(&recs.alps, &recs.torque);
            let (record, _) = diver.conclude(
                StageTimings::default(),
                stage_clock(),
                recs.counts,
                entries,
                filter_stats,
                coverage,
                runs,
                jobs,
                workload_stats,
            );
            assert_eq!(columnar.runs, record.runs, "threads={threads}");
            assert_eq!(columnar.events, record.events);
            assert_eq!(columnar.metrics, record.metrics);
            assert_eq!(columnar.stats, record.stats);
            assert_eq!(columnar.coverage, record.coverage);
        }
    }

    /// The arena door agrees with the collection door and surfaces
    /// rejected-line provenance.
    #[test]
    fn arena_path_agrees_and_reports_quarantine() {
        let mut logs = scenario();
        logs.syslog.push("¡corrupted±line···".to_string());
        let diver = LogDiver::new();
        let want = diver.analyze(&logs);
        let arena = crate::input::LogArena::from_collection(&logs);
        let (got, _, quarantine) = diver.analyze_arena_timed(&arena);
        assert_eq!(got.runs, want.runs);
        assert_eq!(got.stats, want.stats);
        assert_eq!(quarantine.len(), 1);
        assert_eq!(quarantine[0].source, 0);
    }

    #[test]
    fn corrupt_lines_are_counted_not_fatal() {
        let mut logs = scenario();
        logs.syslog.push("¡corrupted±line···".to_string());
        logs.alps.push("2013-03-28 garbage".to_string());
        let a = LogDiver::new().analyze(&logs);
        assert_eq!(a.runs.len(), 3, "analysis unchanged by corruption");
        assert!(a.stats.parse[0].bad >= 1);
        assert!(a.stats.parse[2].bad >= 1);
    }
}
