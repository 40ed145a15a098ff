//! Stage 7: metric computation — the numbers behind every table and figure.
//!
//! Everything here consumes only classified runs and coalesced events (no
//! simulator internals). The experiment ids (T2, F1, …) refer to
//! DESIGN.md §4.

use hpc_stats::survival::SurvivalObservation;
use hpc_stats::{wilson_interval, Ecdf, Exponential, KaplanMeier, Weibull};
use logdiver_types::{ExitClass, FailureCause, NodeType, UserFailureKind};
use serde::{Deserialize, Serialize};

use crate::classify::ClassifiedRun;
use crate::coalesce::ErrorEvent;
use crate::precursor::{analyze_precursors, PrecursorReport, DEFAULT_LOOKBACK};
use crate::temporal::{analyze_temporal, TemporalReport};
use crate::workload::Termination;

/// One row of the application-outcome table (T2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutcomeRow {
    /// Outcome bucket label.
    pub label: String,
    /// Number of runs.
    pub runs: u64,
    /// Share of all runs.
    pub pct_runs: f64,
    /// Node-hours consumed by these runs.
    pub node_hours: f64,
    /// Share of all node-hours.
    pub pct_node_hours: f64,
}

/// One row of the system-cause breakdown (T3) with lost work (F4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CauseRow {
    /// The failure cause.
    pub cause: FailureCause,
    /// System-failed runs attributed to it.
    pub runs: u64,
    /// Share of all system failures.
    pub pct_of_system: f64,
    /// Node-hours consumed by runs it killed (lost work).
    pub lost_node_hours: f64,
}

/// One scale bucket of a failure-probability curve (F1/F2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleBucket {
    /// Smallest width in the bucket (inclusive).
    pub lo: u32,
    /// Largest width in the bucket (inclusive).
    pub hi: u32,
    /// Executing runs in the bucket.
    pub runs: u64,
    /// System failures among them.
    pub failures: u64,
    /// Failure probability estimate.
    pub probability: f64,
    /// 95 % Wilson interval.
    pub ci: (f64, f64),
}

/// A failure-probability-vs-scale curve for one node class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleCurve {
    /// Node class.
    pub node_type: NodeType,
    /// Buckets in ascending width order.
    pub buckets: Vec<ScaleBucket>,
    /// The subset of runs at *exactly* the largest observed width — the
    /// abstract's anchors quote this point ("at 22,640 nodes"), which the
    /// top bucket dilutes with smaller capability widths.
    pub exact_full: Option<ScaleBucket>,
}

impl ScaleCurve {
    /// The bucket containing width `w`, if any.
    pub fn bucket_containing(&self, w: u32) -> Option<&ScaleBucket> {
        self.buckets.iter().find(|b| b.lo <= w && w <= b.hi)
    }
}

/// One MTTI row (F3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MttiRow {
    /// Node class.
    pub node_type: NodeType,
    /// Bucket bounds (inclusive widths).
    pub lo: u32,
    /// Upper bound.
    pub hi: u32,
    /// Executing runs.
    pub runs: u64,
    /// System interrupts observed.
    pub interrupts: u64,
    /// Total exposure (wall-clock hours summed over runs).
    pub exposure_hours: f64,
    /// Mean time to interrupt (exposure / interrupts), when any occurred.
    pub mtti_hours: Option<f64>,
    /// Kaplan–Meier median time-to-interrupt, when the curve crosses 0.5.
    pub km_median_hours: Option<f64>,
}

/// Detection-coverage row (T4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionRow {
    /// Node class.
    pub node_type: NodeType,
    /// System failures of executing runs on this class.
    pub system_failures: u64,
    /// Of those, failures no error event explains (cause undetermined).
    pub undetermined: u64,
    /// `undetermined / system_failures`.
    pub fraction_undetermined: f64,
}

/// Fit of system-event interarrival times (F6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterarrivalFit {
    /// Machine-scope lethal events used.
    pub events: u64,
    /// Exponential MLE rate (events/hour).
    pub exp_rate_per_hour: f64,
    /// Weibull MLE shape.
    pub weibull_shape: f64,
    /// Weibull MLE scale (hours).
    pub weibull_scale: f64,
    /// Kolmogorov–Smirnov distance of the exponential fit.
    pub ks_exponential: f64,
    /// Kolmogorov–Smirnov distance of the Weibull fit.
    pub ks_weibull: f64,
}

/// The full metric set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSet {
    /// Application runs analyzed.
    pub total_runs: u64,
    /// Node-hours consumed by them.
    pub total_node_hours: f64,
    /// Span of the measured period in days.
    pub measured_days: f64,
    /// T2 rows.
    pub outcomes: Vec<OutcomeRow>,
    /// Headline: fraction of runs failed by system problems.
    pub system_failure_fraction: f64,
    /// Headline: share of node-hours consumed by system-failed runs.
    pub failed_node_hours_fraction: f64,
    /// T3/F4 rows.
    pub causes: Vec<CauseRow>,
    /// F1 (XE) and F2 (XK) curves.
    pub scale_curves: Vec<ScaleCurve>,
    /// F3 rows.
    pub mtti: Vec<MttiRow>,
    /// T4 rows.
    pub detection: Vec<DetectionRow>,
    /// F6 fit (when enough machine-scope events exist).
    pub interarrival: Option<InterarrivalFit>,
    /// F5: size-CDF plot points per class `(width, F)`.
    pub size_cdf: Vec<(NodeType, Vec<(f64, f64)>)>,
    /// F5: duration-CDF plot points per class `(hours, F)`.
    pub duration_cdf: Vec<(NodeType, Vec<(f64, f64)>)>,
    /// F7: precursor analysis over lethal node-scoped events.
    pub precursors: PrecursorReport,
    /// F8: temporal dispersion of failures and events.
    pub temporal: TemporalReport,
}

/// The paper-shaped scale buckets for a class on the full machine (anchor
/// buckets included: XE 9–12 k ≈ "10,000 nodes", 18–22.6 k ≈ "full scale";
/// XK 1.8–2.2 k and 3.5–4.2 k).
pub fn paper_buckets(ty: NodeType) -> Vec<(u32, u32)> {
    match ty {
        NodeType::Xk => buckets_for(ty, 4_224),
        _ => buckets_for(ty, 22_640),
    }
}

/// Scale buckets adapted to the class's largest observed width.
///
/// The top three buckets sit at fixed *fractions* of the class size (the
/// paper's mid-anchor, the gap, and "full scale"), so the same curve shape
/// is measurable on geometry-scaled machines; below them, absolute
/// power-of-4 buckets cover the small-app mass. On the real class sizes the
/// fraction buckets reproduce the paper's absolute edges exactly.
pub fn buckets_for(ty: NodeType, max_width: u32) -> Vec<(u32, u32)> {
    // Fractions chosen so that on the full machine the edges land on
    // 9,000/12,000/18,000 (XE, N = 22,640) and 1,800/2,200/3,500 (XK,
    // N = 4,224).
    let (f_mid_lo, f_mid_hi, f_full_lo) = match ty {
        NodeType::Xk => (1_800.0 / 4_224.0, 2_200.0 / 4_224.0, 3_500.0 / 4_224.0),
        _ => (9_000.0 / 22_640.0, 12_000.0 / 22_640.0, 18_000.0 / 22_640.0),
    };
    let w = max_width.max(8);
    let mid_lo = ((f_mid_lo * w as f64).round() as u32).max(2);
    let mid_hi = ((f_mid_hi * w as f64).round() as u32).max(mid_lo);
    let full_lo = ((f_full_lo * w as f64).round() as u32).max(mid_hi + 1);
    let mut buckets: Vec<(u32, u32)> = Vec::new();
    let mut prev_hi = 0u32;
    for (lo, hi) in [
        (1u32, 1u32),
        (2, 4),
        (5, 16),
        (17, 64),
        (65, 256),
        (257, 1_024),
        (1_025, 4_096),
        (4_097, 16_384),
    ] {
        if lo >= mid_lo {
            break;
        }
        let hi = hi.min(mid_lo - 1);
        if hi >= lo {
            buckets.push((lo, hi));
            prev_hi = hi;
        }
    }
    if prev_hi + 1 < mid_lo {
        buckets.push((prev_hi + 1, mid_lo - 1));
    }
    buckets.push((mid_lo, mid_hi));
    if mid_hi + 1 < full_lo {
        buckets.push((mid_hi + 1, full_lo - 1));
    }
    if full_lo <= w {
        buckets.push((full_lo, w));
    }
    buckets
}

/// True for runs that actually executed (launch failures and record-less
/// runs are excluded from the scale curves and MTTI — see EXPERIMENTS.md).
fn is_executing(run: &ClassifiedRun) -> bool {
    matches!(run.run.termination, Termination::Exited(_))
}

/// Computes the full metric set.
pub fn compute(runs: &[ClassifiedRun], events: &[ErrorEvent]) -> MetricSet {
    let total_runs = runs.len() as u64;
    let total_node_hours: f64 = runs.iter().map(|r| r.run.node_hours()).sum();
    let (t_min, t_max) = runs.iter().fold((i64::MAX, i64::MIN), |(lo, hi), r| {
        (lo.min(r.run.start.as_unix()), hi.max(r.run.end.as_unix()))
    });
    let measured_days = if total_runs == 0 {
        0.0
    } else {
        (t_max - t_min) as f64 / 86_400.0
    };

    // ---- T2: outcomes ----------------------------------------------------
    let mut outcome_acc: Vec<(String, u64, f64)> = Vec::new();
    let bump = |label: String, nh: f64, acc: &mut Vec<(String, u64, f64)>| match acc
        .iter_mut()
        .find(|(l, _, _)| *l == label)
    {
        Some(row) => {
            row.1 += 1;
            row.2 += nh;
        }
        None => acc.push((label, 1, nh)),
    };
    for r in runs {
        bump(
            r.class.bucket_name().to_string(),
            r.run.node_hours(),
            &mut outcome_acc,
        );
    }
    outcome_acc.sort_by_key(|row| std::cmp::Reverse(row.1));
    let outcomes: Vec<OutcomeRow> = outcome_acc
        .into_iter()
        .map(|(label, n, nh)| OutcomeRow {
            label,
            runs: n,
            pct_runs: if total_runs > 0 {
                n as f64 / total_runs as f64
            } else {
                0.0
            },
            node_hours: nh,
            pct_node_hours: if total_node_hours > 0.0 {
                nh / total_node_hours
            } else {
                0.0
            },
        })
        .collect();

    let system_failed: Vec<&ClassifiedRun> = runs
        .iter()
        .filter(|r| r.class.is_system_failure())
        .collect();
    let system_failure_fraction = if total_runs > 0 {
        system_failed.len() as f64 / total_runs as f64
    } else {
        0.0
    };
    let failed_nh: f64 = system_failed.iter().map(|r| r.run.node_hours()).sum();
    let failed_node_hours_fraction = if total_node_hours > 0.0 {
        failed_nh / total_node_hours
    } else {
        0.0
    };

    // ---- T3/F4: causes ---------------------------------------------------
    let mut causes: Vec<CauseRow> = FailureCause::ALL
        .iter()
        .map(|&cause| CauseRow {
            cause,
            runs: 0,
            pct_of_system: 0.0,
            lost_node_hours: 0.0,
        })
        .collect();
    for r in &system_failed {
        if let ExitClass::SystemFailure(cause) = r.class {
            let row = causes
                .iter_mut()
                .find(|c| c.cause == cause)
                // lint: allow(no-panic) causes was just built with one row per FailureCause variant, so the find always hits
                .expect("all causes present");
            row.runs += 1;
            row.lost_node_hours += r.run.node_hours();
        }
    }
    let n_sys = system_failed.len() as f64;
    for row in &mut causes {
        row.pct_of_system = if n_sys > 0.0 {
            row.runs as f64 / n_sys
        } else {
            0.0
        };
    }

    // ---- F1/F2: scale curves, F3: MTTI, T4: detection ---------------------
    let mut scale_curves = Vec::new();
    let mut mtti = Vec::new();
    let mut detection = Vec::new();
    for ty in [NodeType::Xe, NodeType::Xk] {
        let class_runs: Vec<&ClassifiedRun> = runs
            .iter()
            .filter(|r| r.run.node_type == ty && is_executing(r))
            .collect();
        let class_max = class_runs.iter().map(|r| r.run.width).max().unwrap_or(0);
        let mut buckets = Vec::new();
        for (lo, hi) in buckets_for(ty, class_max) {
            let in_bucket: Vec<&&ClassifiedRun> = class_runs
                .iter()
                .filter(|r| (lo..=hi).contains(&r.run.width))
                .collect();
            let n = in_bucket.len() as u64;
            let failures = in_bucket
                .iter()
                .filter(|r| r.class.is_system_failure())
                .count() as u64;
            let (probability, ci) = match wilson_interval(failures, n.max(1), 0.95) {
                Ok(e) if n > 0 => (e.p_hat, (e.lo, e.hi)),
                _ => (0.0, (0.0, 0.0)),
            };
            buckets.push(ScaleBucket {
                lo,
                hi,
                runs: n,
                failures,
                probability,
                ci,
            });

            // F3 per bucket.
            let exposure: f64 = in_bucket
                .iter()
                .map(|r| r.run.runtime().as_hours_f64().max(0.0))
                .sum();
            let km = {
                let obs: Vec<SurvivalObservation> = in_bucket
                    .iter()
                    .map(|r| SurvivalObservation {
                        time: r.run.runtime().as_hours_f64().max(0.0),
                        event: r.class.is_system_failure(),
                    })
                    .collect();
                KaplanMeier::fit(&obs).ok()
            };
            mtti.push(MttiRow {
                node_type: ty,
                lo,
                hi,
                runs: n,
                interrupts: failures,
                exposure_hours: exposure,
                mtti_hours: (failures > 0).then(|| exposure / failures as f64),
                km_median_hours: km.as_ref().and_then(KaplanMeier::median),
            });
        }
        let exact_full = (class_max > 0).then(|| {
            let at_full: Vec<&&ClassifiedRun> = class_runs
                .iter()
                .filter(|r| r.run.width == class_max)
                .collect();
            let n = at_full.len() as u64;
            let failures = at_full
                .iter()
                .filter(|r| r.class.is_system_failure())
                .count() as u64;
            let (probability, ci) = match wilson_interval(failures, n.max(1), 0.95) {
                Ok(e) if n > 0 => (e.p_hat, (e.lo, e.hi)),
                _ => (0.0, (0.0, 0.0)),
            };
            ScaleBucket {
                lo: class_max,
                hi: class_max,
                runs: n,
                failures,
                probability,
                ci,
            }
        });
        scale_curves.push(ScaleCurve {
            node_type: ty,
            buckets,
            exact_full,
        });

        // T4 (all runs of the class, launch failures excluded: the launcher
        // reports those itself, so they say nothing about detection).
        let sys: Vec<&&ClassifiedRun> = class_runs
            .iter()
            .filter(|r| r.class.is_system_failure())
            .collect();
        let undet = sys
            .iter()
            .filter(|r| r.class == ExitClass::SystemFailure(FailureCause::Undetermined))
            .count() as u64;
        detection.push(DetectionRow {
            node_type: ty,
            system_failures: sys.len() as u64,
            undetermined: undet,
            fraction_undetermined: if sys.is_empty() {
                0.0
            } else {
                undet as f64 / sys.len() as f64
            },
        });
    }

    // ---- F6: interarrival fit ---------------------------------------------
    let mut wide_times: Vec<i64> = events
        .iter()
        .filter(|e| e.system_scope && e.is_lethal())
        .map(|e| e.start.as_unix())
        .collect();
    wide_times.sort_unstable();
    let gaps: Vec<f64> = wide_times
        .windows(2)
        .map(|w| ((w[1] - w[0]) as f64 / 3_600.0).max(1e-6))
        .collect();
    let interarrival = if gaps.len() >= 8 {
        let exp = Exponential::fit_mle(&gaps).ok();
        let wei = Weibull::fit_mle(&gaps).ok();
        match (exp, wei, Ecdf::from_sample(gaps.clone()).ok()) {
            (Some(exp), Some(wei), Some(ecdf)) => Some(InterarrivalFit {
                events: wide_times.len() as u64,
                exp_rate_per_hour: exp.rate(),
                weibull_shape: wei.shape(),
                weibull_scale: wei.scale(),
                ks_exponential: ecdf.ks_statistic(|x| hpc_stats::dist::Distribution::cdf(&exp, x)),
                ks_weibull: ecdf.ks_statistic(|x| hpc_stats::dist::Distribution::cdf(&wei, x)),
            }),
            _ => None,
        }
    } else {
        None
    };

    // ---- F5: workload CDFs -------------------------------------------------
    let mut size_cdf = Vec::new();
    let mut duration_cdf = Vec::new();
    for ty in [NodeType::Xe, NodeType::Xk] {
        let widths: Vec<f64> = runs
            .iter()
            .filter(|r| r.run.node_type == ty)
            .map(|r| r.run.width as f64)
            .collect();
        if let Ok(e) = Ecdf::from_sample(widths) {
            size_cdf.push((ty, e.plot_points(60)));
        }
        let durations: Vec<f64> = runs
            .iter()
            .filter(|r| r.run.node_type == ty && is_executing(r))
            .map(|r| r.run.runtime().as_hours_f64().max(0.0))
            .collect();
        if let Ok(e) = Ecdf::from_sample(durations) {
            duration_cdf.push((ty, e.plot_points(60)));
        }
    }

    MetricSet {
        total_runs,
        total_node_hours,
        measured_days,
        outcomes,
        system_failure_fraction,
        failed_node_hours_fraction,
        causes,
        scale_curves,
        mtti,
        detection,
        interarrival,
        size_cdf,
        duration_cdf,
        precursors: analyze_precursors(events, DEFAULT_LOOKBACK),
        temporal: analyze_temporal(runs, events),
    }
}

/// Breaks user failures down by kind (extension of T2 used in the report).
pub fn user_failure_breakdown(runs: &[ClassifiedRun]) -> Vec<(UserFailureKind, u64)> {
    let mut rows: Vec<(UserFailureKind, u64)> =
        UserFailureKind::ALL.iter().map(|&k| (k, 0)).collect();
    for r in runs {
        if let ExitClass::UserFailure(kind) = r.class {
            rows.iter_mut()
                .find(|(k, _)| *k == kind)
                .expect("all kinds present")
                .1 += 1;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::AppRun;
    use logdiver_types::{
        AppId, ExitStatus, JobId, NodeId, NodeSet, RangeSet, SimDuration, Timestamp, UserId,
    };

    fn t(secs: i64) -> Timestamp {
        Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(secs)
    }

    fn made_run(
        apid: u64,
        ty: NodeType,
        width: u32,
        hours: i64,
        class: ExitClass,
    ) -> ClassifiedRun {
        let set: NodeSet = (0..width.min(8)).map(NodeId::new).collect();
        let termination = match class {
            ExitClass::SystemFailure(FailureCause::Launcher) => Termination::LaunchFailed,
            ExitClass::Unknown => Termination::Missing,
            ExitClass::Success => Termination::Exited(ExitStatus::SUCCESS),
            _ => Termination::Exited(ExitStatus::with_signal(9)),
        };
        ClassifiedRun {
            run: AppRun {
                apid: AppId::new(apid),
                job: JobId::new(apid),
                user: UserId::new(0),
                node_type: ty,
                width,
                nodes: RangeSet::from(&set),
                start: t(0),
                end: t(hours * 3_600),
                termination,
            },
            class,
            matched_events: Vec::new(),
            confidence: crate::classify::AttributionConfidence::Full,
        }
    }

    #[test]
    fn outcome_shares_sum_to_one() {
        let runs = vec![
            made_run(1, NodeType::Xe, 1, 1, ExitClass::Success),
            made_run(2, NodeType::Xe, 1, 1, ExitClass::Success),
            made_run(
                3,
                NodeType::Xe,
                100,
                2,
                ExitClass::SystemFailure(FailureCause::Memory),
            ),
            made_run(
                4,
                NodeType::Xk,
                1,
                1,
                ExitClass::UserFailure(UserFailureKind::Abort),
            ),
        ];
        let m = compute(&runs, &[]);
        assert_eq!(m.total_runs, 4);
        let pct: f64 = m.outcomes.iter().map(|o| o.pct_runs).sum();
        assert!((pct - 1.0).abs() < 1e-9);
        let nh: f64 = m.outcomes.iter().map(|o| o.node_hours).sum();
        assert!((nh - m.total_node_hours).abs() < 1e-9);
        assert!((m.system_failure_fraction - 0.25).abs() < 1e-12);
        // The 200 node-hour failure dominates the 3 small runs.
        assert!(m.failed_node_hours_fraction > 0.9);
    }

    #[test]
    fn causes_partition_system_failures() {
        let runs = vec![
            made_run(
                1,
                NodeType::Xe,
                4,
                1,
                ExitClass::SystemFailure(FailureCause::Memory),
            ),
            made_run(
                2,
                NodeType::Xe,
                4,
                1,
                ExitClass::SystemFailure(FailureCause::Memory),
            ),
            made_run(
                3,
                NodeType::Xe,
                4,
                1,
                ExitClass::SystemFailure(FailureCause::Interconnect),
            ),
            made_run(4, NodeType::Xe, 4, 1, ExitClass::Success),
        ];
        let m = compute(&runs, &[]);
        let total: u64 = m.causes.iter().map(|c| c.runs).sum();
        assert_eq!(total, 3);
        let mem = m
            .causes
            .iter()
            .find(|c| c.cause == FailureCause::Memory)
            .unwrap();
        assert_eq!(mem.runs, 2);
        assert!((mem.pct_of_system - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn scale_curve_buckets_count_failures() {
        let mut runs = Vec::new();
        for i in 0..100 {
            runs.push(made_run(i, NodeType::Xe, 20_000, 1, ExitClass::Success));
        }
        for i in 100..120 {
            runs.push(made_run(
                i,
                NodeType::Xe,
                20_000,
                1,
                ExitClass::SystemFailure(FailureCause::Interconnect),
            ));
        }
        // Launch failures must not enter the curve.
        runs.push(made_run(
            999,
            NodeType::Xe,
            20_000,
            0,
            ExitClass::SystemFailure(FailureCause::Launcher),
        ));
        let m = compute(&runs, &[]);
        let xe = m
            .scale_curves
            .iter()
            .find(|c| c.node_type == NodeType::Xe)
            .unwrap();
        let bucket = xe.bucket_containing(20_000).unwrap();
        assert_eq!(bucket.runs, 120);
        assert_eq!(bucket.failures, 20);
        assert!((bucket.probability - 20.0 / 120.0).abs() < 1e-12);
        assert!(bucket.ci.0 < bucket.probability && bucket.probability < bucket.ci.1);
    }

    #[test]
    fn mtti_is_exposure_over_interrupts() {
        let runs = vec![
            made_run(1, NodeType::Xe, 1, 10, ExitClass::Success),
            made_run(2, NodeType::Xe, 1, 10, ExitClass::Success),
            made_run(
                3,
                NodeType::Xe,
                1,
                10,
                ExitClass::SystemFailure(FailureCause::Memory),
            ),
        ];
        let m = compute(&runs, &[]);
        let row = m
            .mtti
            .iter()
            .find(|r| r.node_type == NodeType::Xe && r.lo == 1 && r.runs > 0)
            .unwrap();
        assert_eq!(row.interrupts, 1);
        assert!((row.exposure_hours - 30.0).abs() < 1e-9);
        assert!((row.mtti_hours.unwrap() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn detection_rows_catch_undetermined() {
        let runs = vec![
            made_run(
                1,
                NodeType::Xk,
                4,
                1,
                ExitClass::SystemFailure(FailureCause::Undetermined),
            ),
            made_run(
                2,
                NodeType::Xk,
                4,
                1,
                ExitClass::SystemFailure(FailureCause::Gpu),
            ),
            made_run(
                3,
                NodeType::Xe,
                4,
                1,
                ExitClass::SystemFailure(FailureCause::Memory),
            ),
        ];
        let m = compute(&runs, &[]);
        let xk = m
            .detection
            .iter()
            .find(|d| d.node_type == NodeType::Xk)
            .unwrap();
        assert_eq!(xk.system_failures, 2);
        assert_eq!(xk.undetermined, 1);
        assert!((xk.fraction_undetermined - 0.5).abs() < 1e-12);
        let xe = m
            .detection
            .iter()
            .find(|d| d.node_type == NodeType::Xe)
            .unwrap();
        assert_eq!(xe.fraction_undetermined, 0.0);
    }

    #[test]
    fn interarrival_fit_appears_with_enough_events() {
        use logdiver_types::{ErrorCategory, Severity};
        let events: Vec<ErrorEvent> = (0..20)
            .map(|i| ErrorEvent {
                id: i,
                // ~hourly with deterministic jitter so the gaps are not all
                // identical (a degenerate sample has no Weibull MLE).
                start: t(i as i64 * 3_600 + (i as i64 % 5) * 240),
                end: t(i as i64 * 3_600 + (i as i64 % 5) * 240 + 60),
                categories: vec![ErrorCategory::GeminiLinkFailure],
                severity: Severity::Critical,
                nodes: Vec::new(),
                system_scope: true,
                entry_count: 1,
            })
            .collect();
        let runs = vec![made_run(1, NodeType::Xe, 1, 1, ExitClass::Success)];
        let m = compute(&runs, &events);
        let fit = m.interarrival.unwrap();
        assert_eq!(fit.events, 20);
        // Near-hourly gaps: exponential MTBF ≈ mean gap; the spacing is far
        // more regular than exponential, so the Weibull shape is large and
        // its fit at least as good.
        assert!((1.0 / fit.exp_rate_per_hour - 1.0).abs() < 0.3, "{fit:?}");
        assert!(fit.weibull_shape > 1.5, "{fit:?}");
        assert!(fit.ks_exponential > 0.0 && fit.ks_weibull > 0.0, "{fit:?}");
    }

    #[test]
    fn paper_buckets_reproduce_absolute_edges() {
        let xe = paper_buckets(NodeType::Xe);
        assert!(xe.contains(&(9_000, 12_000)), "{xe:?}");
        assert!(xe.contains(&(18_000, 22_640)), "{xe:?}");
        let xk = paper_buckets(NodeType::Xk);
        assert!(xk.contains(&(1_800, 2_200)), "{xk:?}");
        assert!(xk.contains(&(3_500, 4_224)), "{xk:?}");
    }

    #[test]
    fn buckets_partition_without_overlap_at_any_scale() {
        for max in [8u32, 50, 354, 1_416, 4_224, 22_640, 30_000] {
            for ty in [NodeType::Xe, NodeType::Xk] {
                let b = buckets_for(ty, max);
                assert!(!b.is_empty());
                assert_eq!(b[0].0, 1, "{ty} {max}: {b:?}");
                assert_eq!(b.last().unwrap().1, max.max(8), "{ty} {max}: {b:?}");
                for w in b.windows(2) {
                    assert_eq!(w[0].1 + 1, w[1].0, "{ty} {max}: {b:?}");
                }
            }
        }
    }

    #[test]
    fn empty_input_is_all_zeroes() {
        let m = compute(&[], &[]);
        assert_eq!(m.total_runs, 0);
        assert_eq!(m.system_failure_fraction, 0.0);
        assert!(m.outcomes.is_empty());
        assert!(m.interarrival.is_none());
    }

    #[test]
    fn user_breakdown_counts_kinds() {
        let runs = vec![
            made_run(
                1,
                NodeType::Xe,
                1,
                1,
                ExitClass::UserFailure(UserFailureKind::Segfault),
            ),
            made_run(
                2,
                NodeType::Xe,
                1,
                1,
                ExitClass::UserFailure(UserFailureKind::Segfault),
            ),
            made_run(
                3,
                NodeType::Xe,
                1,
                1,
                ExitClass::UserFailure(UserFailureKind::Abort),
            ),
        ];
        let rows = user_failure_breakdown(&runs);
        assert_eq!(
            rows.iter()
                .find(|(k, _)| *k == UserFailureKind::Segfault)
                .unwrap()
                .1,
            2
        );
        assert_eq!(
            rows.iter()
                .find(|(k, _)| *k == UserFailureKind::Abort)
                .unwrap()
                .1,
            1
        );
    }
}
