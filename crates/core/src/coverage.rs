//! Source-coverage tracking: detecting silent per-source outages and
//! degrading attribution gracefully instead of answering wrongly.
//!
//! LogDiver's verdicts lean on *absence* of evidence as much as presence:
//! a run is a user failure partly because no system event explains its
//! death, and a node-failed exit with no matching event becomes the
//! `Undetermined` detection-gap bucket. Both inferences silently break
//! when a log source stopped producing around the death — the evidence
//! may have existed and simply never been recorded.
//!
//! This module watches every parsed record's timestamp per entry source
//! (including discarded syslog chatter — chatter is exactly what proves a
//! source alive) and flags **coverage gaps**: windows where a normally
//! chatty source went silent far longer than its own observed rate
//! predicts. Classification then qualifies any absence-of-evidence
//! verdict whose attribution window overlaps a gap as
//! [`AttributionConfidence::Degraded`](crate::classify::AttributionConfidence::Degraded).
//!
//! The tracker is deliberately **order-insensitive**: its output is a
//! function of the per-source *multiset* of timestamps, never of arrival
//! order. That keeps the streaming and batch drivers bit-identical (the
//! stream == batch equivalence property) no matter how records were
//! interleaved, buffered, or replayed on the wire.

use std::collections::BTreeMap;

use logdiver_types::{SimDuration, Timestamp};
use serde::{Deserialize, Serialize};

use crate::classify::{AttributionConfidence, ClassifiedRun};
use crate::config::LogDiverConfig;
use crate::filter::EntrySource;
use logdiver_types::{ExitClass, FailureCause};

/// Tuning for the expected-rate silence detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageConfig {
    /// Occupancy-bucket width: timestamps are coarsened to buckets of this
    /// size before silence is measured.
    pub bucket: SimDuration,
    /// A silence shorter than this is never a gap, however chatty the
    /// source (guards against declaring outages on quiet nights).
    pub min_gap: SimDuration,
    /// A silence is a gap once it exceeds `rate_factor` times the source's
    /// observed mean inter-bucket interval.
    pub rate_factor: f64,
    /// Sources occupying fewer buckets than this have no trustworthy rate
    /// estimate and never report gaps.
    pub min_buckets: u64,
}

impl Default for CoverageConfig {
    fn default() -> Self {
        CoverageConfig {
            bucket: SimDuration::from_secs(60),
            min_gap: SimDuration::from_mins(15),
            rate_factor: 8.0,
            min_buckets: 64,
        }
    }
}

/// A window in which one entry source produced nothing despite its
/// observed rate predicting records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverageGap {
    /// The silent source.
    pub source: EntrySource,
    /// Start of the silent window.
    pub start: Timestamp,
    /// End of the silent window.
    pub end: Timestamp,
}

impl CoverageGap {
    /// Length of the silent window.
    pub fn span(&self) -> SimDuration {
        self.end - self.start
    }

    /// True when `[lo, hi]` intersects the gap.
    pub fn overlaps(&self, lo: Timestamp, hi: Timestamp) -> bool {
        self.start <= hi && lo <= self.end
    }
}

/// Occupancy record for one source: which time buckets ever held a
/// record, plus the record count and observed extent.
#[derive(Debug, Clone, PartialEq, Default)]
struct SourceCoverage {
    /// Merged runs of occupied buckets: start bucket → end bucket
    /// (inclusive). Kept merged so memory scales with the number of silent
    /// windows, not with time.
    intervals: BTreeMap<i64, i64>,
    /// Records observed.
    records: u64,
    /// Earliest record timestamp.
    first: Option<Timestamp>,
    /// Latest record timestamp.
    last: Option<Timestamp>,
}

impl SourceCoverage {
    fn observe(&mut self, bucket: i64, ts: Timestamp) {
        self.records += 1;
        self.first = Some(self.first.map_or(ts, |f| f.min(ts)));
        self.last = Some(self.last.map_or(ts, |l| l.max(ts)));
        // Find the interval at or before the bucket and grow/merge.
        if let Some((&s, &e)) = self.intervals.range(..=bucket).next_back() {
            if bucket <= e {
                return; // already occupied
            }
            if bucket == e + 1 {
                // Extend right; maybe fuse with the next interval.
                let new_end = match self.intervals.range(bucket + 1..).next() {
                    Some((&ns, &ne)) if ns == bucket + 1 => {
                        self.intervals.remove(&ns);
                        ne
                    }
                    _ => bucket,
                };
                self.intervals.insert(s, new_end);
                return;
            }
        }
        // Not adjacent on the left; maybe adjacent to the interval after.
        match self.intervals.range(bucket + 1..).next() {
            Some((&ns, &ne)) if ns == bucket + 1 => {
                self.intervals.remove(&ns);
                self.intervals.insert(bucket, ne);
            }
            _ => {
                self.intervals.insert(bucket, bucket);
            }
        }
    }

    /// Distinct occupied buckets — the *set*-based activity measure, so a
    /// replayed record never changes the rate estimate (idempotence).
    fn occupied_buckets(&self) -> u64 {
        self.intervals
            .iter()
            .map(|(&s, &e)| (e - s + 1) as u64)
            .sum()
    }

    /// The silence threshold in seconds, from the observed rate.
    fn threshold(&self, config: &CoverageConfig) -> Option<i64> {
        let occupied = self.occupied_buckets();
        if occupied < config.min_buckets.max(2) {
            return None;
        }
        let (first, last) = (self.first?, self.last?);
        let extent = (last - first).as_secs();
        if extent <= 0 {
            return None;
        }
        let mean = extent as f64 / (occupied - 1) as f64;
        let by_rate = (config.rate_factor * mean).ceil() as i64;
        Some(by_rate.max(config.min_gap.as_secs()))
    }
}

/// Externalizable [`CoverageMap`] state (for streaming checkpoints).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CoverageState {
    /// Per-source occupancy in canonical entry-source order
    /// (syslog, hwerr, netwatch).
    sources: Vec<SourceState>,
}

/// Serializable form of one source's occupancy.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct SourceState {
    intervals: Vec<(i64, i64)>,
    records: u64,
    first: Option<Timestamp>,
    last: Option<Timestamp>,
}

logdiver_types::codec_struct!(CoverageState { sources });
logdiver_types::codec_struct!(SourceState {
    intervals,
    records,
    first,
    last
});

/// Canonical slot order for the three entry sources.
const ENTRY_SOURCES: [EntrySource; 3] = [
    EntrySource::Syslog,
    EntrySource::HwErr,
    EntrySource::Netwatch,
];

fn slot(source: EntrySource) -> usize {
    match source {
        EntrySource::Syslog => 0,
        EntrySource::HwErr => 1,
        EntrySource::Netwatch => 2,
    }
}

/// Tracks per-source record occupancy and derives coverage gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageMap {
    config: CoverageConfig,
    sources: [SourceCoverage; 3],
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new(CoverageConfig::default())
    }
}

impl CoverageMap {
    /// Creates an empty map with the given detector tuning.
    pub fn new(config: CoverageConfig) -> Self {
        CoverageMap {
            config,
            sources: Default::default(),
        }
    }

    /// Records that `source` produced a record at `ts`. Call for every
    /// *parsed* record, kept or discarded — chatter proves liveness.
    pub fn observe(&mut self, source: EntrySource, ts: Timestamp) {
        let bucket = ts.as_unix().div_euclid(self.config.bucket.as_secs());
        self.sources[slot(source)].observe(bucket, ts);
    }

    /// Total records observed across all sources.
    pub fn records(&self) -> u64 {
        self.sources.iter().map(|s| s.records).sum()
    }

    /// Derives the coverage gaps: per source, every silent window longer
    /// than that source's expected-rate threshold. Includes leading and
    /// trailing silences relative to the global observed extent (a source
    /// that died an hour before the logs end is exactly the outage the
    /// trailing check catches). Output is sorted by (source, start) and is
    /// a pure function of the observed timestamp multisets.
    pub fn gaps(&self) -> Vec<CoverageGap> {
        let bucket_secs = self.config.bucket.as_secs();
        let global_first = self.sources.iter().filter_map(|s| s.first).min();
        let global_last = self.sources.iter().filter_map(|s| s.last).max();
        let mut out = Vec::new();
        for (i, src) in self.sources.iter().enumerate() {
            let Some(threshold) = src.threshold(&self.config) else {
                continue;
            };
            let source = ENTRY_SOURCES[i];
            // Internal silences between occupied-bucket runs.
            let mut prev_end: Option<i64> = None;
            for (&s, &e) in &src.intervals {
                if let Some(pe) = prev_end {
                    let silent_secs = (s - pe - 1) * bucket_secs;
                    if silent_secs >= threshold {
                        out.push(CoverageGap {
                            source,
                            start: Timestamp::from_unix((pe + 1) * bucket_secs),
                            end: Timestamp::from_unix(s * bucket_secs),
                        });
                    }
                }
                prev_end = Some(e);
            }
            // Leading/trailing silences against the whole corpus extent.
            if let (Some(gf), Some(sf)) = (global_first, src.first) {
                if (sf - gf).as_secs() >= threshold {
                    out.push(CoverageGap {
                        source,
                        start: gf,
                        end: sf,
                    });
                }
            }
            if let (Some(gl), Some(sl)) = (global_last, src.last) {
                if (gl - sl).as_secs() >= threshold {
                    out.push(CoverageGap {
                        source,
                        start: sl,
                        end: gl,
                    });
                }
            }
        }
        out.sort_by_key(|g| (slot(g.source), g.start, g.end));
        out
    }

    /// Externalizes the map for checkpointing.
    pub fn state(&self) -> CoverageState {
        CoverageState {
            sources: self
                .sources
                .iter()
                .map(|s| SourceState {
                    intervals: s.intervals.iter().map(|(&a, &b)| (a, b)).collect(),
                    records: s.records,
                    first: s.first,
                    last: s.last,
                })
                .collect(),
        }
    }

    /// Rebuilds a map from externalized state (inverse of
    /// [`CoverageMap::state`] under the same config).
    pub fn restore(config: CoverageConfig, state: CoverageState) -> Self {
        let mut map = CoverageMap::new(config);
        for (i, s) in state.sources.into_iter().take(3).enumerate() {
            map.sources[i] = SourceCoverage {
                intervals: s.intervals.into_iter().collect(),
                records: s.records,
                first: s.first,
                last: s.last,
            };
        }
        map
    }
}

/// True when the verdict leans on *absence* of evidence and is therefore
/// weakened by a hole in that evidence.
fn evidence_sensitive(class: &ExitClass) -> bool {
    matches!(
        class,
        ExitClass::SystemFailure(FailureCause::Undetermined)
            | ExitClass::UserFailure(_)
            | ExitClass::Unknown
    )
}

/// Downgrades the confidence of every absence-of-evidence verdict whose
/// attribution window overlaps a coverage gap.
///
/// Positive verdicts (a specific system cause, a clean exit, a walltime
/// kill) rest on records that *were* seen and stay
/// [`AttributionConfidence::Full`]; a gap can only have hidden extra
/// evidence, never invalidated what was found.
pub fn qualify_runs(runs: &mut [ClassifiedRun], gaps: &[CoverageGap], config: &LogDiverConfig) {
    if gaps.is_empty() {
        return;
    }
    for r in runs.iter_mut() {
        if !evidence_sensitive(&r.class) {
            continue;
        }
        let lo = r.run.end - config.attribution_lead;
        let hi = r.run.end + config.attribution_lag;
        if gaps.iter().any(|g| g.overlaps(lo, hi)) {
            r.confidence = AttributionConfidence::Degraded;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: i64) -> Timestamp {
        Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(secs)
    }

    /// Feed a steady once-a-minute source with one silent window.
    fn steady_with_hole(hole_start: i64, hole_end: i64) -> CoverageMap {
        let mut map = CoverageMap::default();
        let mut s = 0;
        while s < 48 * 3_600 {
            if s < hole_start || s >= hole_end {
                map.observe(EntrySource::Syslog, t(s));
            }
            s += 60;
        }
        map
    }

    #[test]
    fn healthy_source_reports_no_gaps() {
        let map = steady_with_hole(0, 0);
        assert!(map.gaps().is_empty());
    }

    #[test]
    fn silent_window_is_detected() {
        let map = steady_with_hole(10 * 3_600, 14 * 3_600);
        let gaps = map.gaps();
        assert_eq!(gaps.len(), 1);
        let g = gaps[0];
        assert_eq!(g.source, EntrySource::Syslog);
        // Bucket-granular bounds: within one bucket of the true window.
        assert!((g.start - t(10 * 3_600)).abs() <= SimDuration::from_secs(60));
        assert!((g.end - t(14 * 3_600)).abs() <= SimDuration::from_secs(60));
        assert!(g.span() >= SimDuration::from_hours(3));
    }

    #[test]
    fn short_lull_is_not_a_gap() {
        // 10 minutes of silence in a once-a-minute source is below min_gap.
        let map = steady_with_hole(10 * 3_600, 10 * 3_600 + 600);
        assert!(map.gaps().is_empty());
    }

    #[test]
    fn sparse_source_never_reports_gaps() {
        // 10 records across two days: no trustworthy rate estimate.
        let mut map = CoverageMap::default();
        for k in 0..10 {
            map.observe(EntrySource::Netwatch, t(k * 17_000));
        }
        assert!(map.gaps().is_empty());
    }

    #[test]
    fn trailing_outage_is_detected() {
        // A chatty source that dies at hour 40 of 48 (hole runs to the
        // end), with another source proving the corpus extends to 48 h.
        let mut map = steady_with_hole(40 * 3_600, 48 * 3_600);
        for s in (0..48 * 3_600).step_by(60) {
            map.observe(EntrySource::HwErr, t(s));
        }
        let gaps = map.gaps();
        let trailing: Vec<_> = gaps
            .iter()
            .filter(|g| g.source == EntrySource::Syslog)
            .collect();
        assert_eq!(trailing.len(), 1);
        assert!(trailing[0].end >= t(48 * 3_600 - 60));
    }

    #[test]
    fn state_round_trip_preserves_gaps() {
        let map = steady_with_hole(10 * 3_600, 14 * 3_600);
        let json = serde_json::to_string(&map.state()).unwrap();
        let state: CoverageState = serde_json::from_str(&json).unwrap();
        let restored = CoverageMap::restore(CoverageConfig::default(), state);
        assert_eq!(restored.gaps(), map.gaps());
        assert_eq!(restored, map);
    }

    proptest! {
        /// Order-insensitivity: any permutation of the same observations
        /// yields identical gaps — the property that keeps stream == batch.
        #[test]
        fn gaps_are_order_insensitive(
            times in proptest::collection::vec(0i64..200_000, 64..200),
            rot in 0usize..199,
        ) {
            let mut fwd = CoverageMap::default();
            for &s in &times {
                fwd.observe(EntrySource::Syslog, t(s));
            }
            let mut rotated = times.clone();
            rotated.rotate_left(rot % times.len());
            rotated.reverse();
            let mut rev = CoverageMap::default();
            for &s in &rotated {
                rev.observe(EntrySource::Syslog, t(s));
            }
            prop_assert_eq!(fwd.gaps(), rev.gaps());
            prop_assert_eq!(fwd.state(), rev.state());
        }

        /// Duplicate observations never change the verdict (idempotence).
        #[test]
        fn observation_is_idempotent(
            times in proptest::collection::vec(0i64..200_000, 64..200),
        ) {
            let mut once = CoverageMap::default();
            let mut twice = CoverageMap::default();
            for &s in &times {
                once.observe(EntrySource::HwErr, t(s));
                twice.observe(EntrySource::HwErr, t(s));
                twice.observe(EntrySource::HwErr, t(s));
            }
            prop_assert_eq!(once.gaps(), twice.gaps());
        }
    }
}
