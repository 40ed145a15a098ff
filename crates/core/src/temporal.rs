//! Temporal analysis: how failures and error events spread over the
//! measured period.
//!
//! Field studies always ask whether trouble is steady or bursty — burstiness
//! changes everything downstream (maintenance scheduling, the independence
//! assumptions behind checkpoint models, whether a bad week dominates the
//! year). This stage bins system failures and machine-scope events by
//! production day and measures dispersion (Fano factor: variance/mean of
//! daily counts — 1 for a Poisson process, ≫ 1 for bursty processes).

use logdiver_types::Timestamp;
use serde::{Deserialize, Serialize};

use crate::classify::ClassifiedRun;
use crate::coalesce::ErrorEvent;

/// Daily-binned series with dispersion statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DailySeries {
    /// Count per production day (index 0 = first day observed).
    pub counts: Vec<u64>,
    /// Mean daily count.
    pub mean: f64,
    /// Maximum daily count.
    pub max: u64,
    /// Fano factor (variance / mean); 0 when the series is empty or flat 0.
    pub fano: f64,
}

impl DailySeries {
    /// Lag-1 autocorrelation of the daily counts (`None` for degenerate
    /// series): positive values mean bad days cluster.
    pub fn lag1_autocorrelation(&self) -> Option<f64> {
        let xs: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        hpc_stats::autocorrelation(&xs, 1).ok()
    }

    /// Longest streak of days above the mean daily count.
    pub fn longest_bad_streak(&self) -> usize {
        let xs: Vec<f64> = self.counts.iter().map(|&c| c as f64).collect();
        hpc_stats::longest_run_above_mean(&xs)
    }

    fn from_days(day_indices: impl Iterator<Item = i64>, n_days: usize) -> Self {
        let mut counts = vec![0u64; n_days.max(1)];
        for d in day_indices {
            if d >= 0 && (d as usize) < counts.len() {
                counts[d as usize] += 1;
            }
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        DailySeries {
            max: counts.iter().copied().max().unwrap_or(0),
            fano: if mean > 0.0 { var / mean } else { 0.0 },
            mean,
            counts,
        }
    }

    /// Number of days with zero occurrences.
    pub fn quiet_days(&self) -> usize {
        self.counts.iter().filter(|&&c| c == 0).count()
    }
}

/// The temporal report (experiment F8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemporalReport {
    /// Days covered (from the first run's start).
    pub days: usize,
    /// System-failed application runs per day.
    pub system_failures: DailySeries,
    /// Machine-scope lethal events per day.
    pub wide_events: DailySeries,
    /// All application terminations per day (workload rhythm baseline).
    pub terminations: DailySeries,
}

/// Computes the temporal report.
pub fn analyze_temporal(runs: &[ClassifiedRun], events: &[ErrorEvent]) -> TemporalReport {
    let t0 = runs
        .iter()
        .map(|r| r.run.start)
        .chain(events.iter().map(|e| e.start))
        .min()
        .unwrap_or(Timestamp::PRODUCTION_EPOCH);
    let t1 = runs
        .iter()
        .map(|r| r.run.end)
        .chain(events.iter().map(|e| e.end))
        .max()
        .unwrap_or(t0);
    let day_of = |t: Timestamp| (t - t0).as_secs().div_euclid(86_400);
    let n_days = (day_of(t1) + 1).max(1) as usize;
    TemporalReport {
        days: n_days,
        system_failures: DailySeries::from_days(
            runs.iter()
                .filter(|r| r.class.is_system_failure())
                .map(|r| day_of(r.run.end)),
            n_days,
        ),
        wide_events: DailySeries::from_days(
            events
                .iter()
                .filter(|e| e.system_scope && e.is_lethal())
                .map(|e| day_of(e.start)),
            n_days,
        ),
        terminations: DailySeries::from_days(runs.iter().map(|r| day_of(r.run.end)), n_days),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppRun, Termination};
    use logdiver_types::{
        AppId, ExitClass, ExitStatus, FailureCause, JobId, NodeType, RangeSet, SimDuration,
        Timestamp, UserId,
    };

    fn run_on_day(apid: u64, day: i64, system: bool) -> ClassifiedRun {
        let t = Timestamp::PRODUCTION_EPOCH + SimDuration::from_days(day);
        ClassifiedRun {
            run: AppRun {
                apid: AppId::new(apid),
                job: JobId::new(apid),
                user: UserId::new(0),
                node_type: NodeType::Xe,
                width: 1,
                nodes: RangeSet::default(),
                start: t,
                end: t + SimDuration::from_hours(1),
                termination: Termination::Exited(if system {
                    ExitStatus::with_signal(9)
                } else {
                    ExitStatus::SUCCESS
                }),
            },
            class: if system {
                ExitClass::SystemFailure(FailureCause::Memory)
            } else {
                ExitClass::Success
            },
            matched_events: Vec::new(),
            confidence: crate::classify::AttributionConfidence::Full,
        }
    }

    #[test]
    fn daily_binning_counts_correctly() {
        let runs = vec![
            run_on_day(1, 0, true),
            run_on_day(2, 0, true),
            run_on_day(3, 2, true),
            run_on_day(4, 1, false),
        ];
        let report = analyze_temporal(&runs, &[]);
        assert_eq!(report.days, 3);
        assert_eq!(report.system_failures.counts, vec![2, 0, 1]);
        assert_eq!(report.system_failures.max, 2);
        assert_eq!(report.system_failures.quiet_days(), 1);
        assert_eq!(report.terminations.counts, vec![2, 1, 1]);
    }

    #[test]
    fn flat_series_has_fano_below_one() {
        // One failure every day: variance 0 → Fano 0 (sub-Poisson).
        let runs: Vec<_> = (0..30).map(|d| run_on_day(d as u64, d, true)).collect();
        let report = analyze_temporal(&runs, &[]);
        assert!((report.system_failures.mean - 1.0).abs() < 1e-12);
        assert_eq!(report.system_failures.fano, 0.0);
    }

    #[test]
    fn bursty_series_has_high_fano() {
        // 30 failures on one day, nothing for 29 days.
        let mut runs: Vec<_> = (0..30).map(|i| run_on_day(i as u64, 0, true)).collect();
        runs.push(run_on_day(999, 29, false)); // extend the window
        let report = analyze_temporal(&runs, &[]);
        assert_eq!(report.days, 30);
        assert!(
            report.system_failures.fano > 10.0,
            "{}",
            report.system_failures.fano
        );
    }

    #[test]
    fn autocorrelation_surfaces_clustering() {
        // Failures clustered in the first half of the window.
        let mut runs = Vec::new();
        let mut apid = 0;
        for d in 0..10 {
            for _ in 0..8 {
                apid += 1;
                runs.push(run_on_day(apid, d, true));
            }
        }
        for d in 10..20 {
            apid += 1;
            runs.push(run_on_day(apid, d, false));
        }
        let report = analyze_temporal(&runs, &[]);
        let acf = report.system_failures.lag1_autocorrelation().unwrap();
        assert!(acf > 0.5, "clustered failures should autocorrelate: {acf}");
        assert!(report.system_failures.longest_bad_streak() >= 10);
    }

    #[test]
    fn empty_input_is_safe() {
        let report = analyze_temporal(&[], &[]);
        assert_eq!(report.days, 1);
        assert_eq!(report.system_failures.mean, 0.0);
        assert_eq!(report.system_failures.fano, 0.0);
    }
}
