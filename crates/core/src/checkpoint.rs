//! Checkpoint economics from measured MTTI.
//!
//! The study's application-level MTTI numbers exist to answer an
//! operational question: *how often should a full-scale application
//! checkpoint, and how much machine capacity does resilience overhead eat?*
//! This module implements the classic first-order model (Young) and Daly's
//! higher-order refinement, and derives per-scale-bucket advice from a
//! [`MetricSet`]'s F3 rows.
//!
//! Model: failures are memoryless with mean time to interrupt `M`; writing
//! a checkpoint costs `δ`; on failure the application restarts from the
//! last checkpoint (restart cost `R`) and loses half a checkpoint interval
//! of work on average. The wasted fraction of machine time is approximately
//!
//! ```text
//! waste(τ) ≈ δ/τ + (τ/2 + δ + R)/M
//! ```
//!
//! minimized at `τ* = √(2δM)` (Young). Daly's refinement corrects `τ*` for
//! `δ` not being ≪ `M`.

use logdiver_types::NodeType;
use serde::{Deserialize, Serialize};

use crate::metrics::MetricSet;

/// Young's first-order optimal checkpoint interval `√(2δM)` (hours).
///
/// # Panics
///
/// Panics when `delta_hours` or `mtti_hours` is not positive.
pub fn young_interval(delta_hours: f64, mtti_hours: f64) -> f64 {
    assert!(
        delta_hours > 0.0 && mtti_hours > 0.0,
        "costs must be positive"
    );
    (2.0 * delta_hours * mtti_hours).sqrt()
}

/// Daly's higher-order optimal interval (hours).
///
/// For `δ < M/2`:
/// `τ* = √(2δM) · [1 + (1/3)√(δ/2M) + (δ/2M)/9] − δ`; for larger `δ` the
/// model degenerates and `τ* = M` is returned (checkpointing cannot keep
/// up).
///
/// # Panics
///
/// Panics when `delta_hours` or `mtti_hours` is not positive.
pub fn daly_interval(delta_hours: f64, mtti_hours: f64) -> f64 {
    assert!(
        delta_hours > 0.0 && mtti_hours > 0.0,
        "costs must be positive"
    );
    if delta_hours >= mtti_hours / 2.0 {
        return mtti_hours;
    }
    let x = delta_hours / (2.0 * mtti_hours);
    (2.0 * delta_hours * mtti_hours).sqrt() * (1.0 + x.sqrt() / 3.0 + x / 9.0) - delta_hours
}

/// First-order wasted fraction of machine time at interval `tau`.
///
/// # Panics
///
/// Panics when any argument is not positive (`restart_hours` may be zero).
pub fn waste_fraction(
    tau_hours: f64,
    delta_hours: f64,
    mtti_hours: f64,
    restart_hours: f64,
) -> f64 {
    assert!(
        tau_hours > 0.0 && delta_hours > 0.0 && mtti_hours > 0.0,
        "costs must be positive"
    );
    assert!(restart_hours >= 0.0, "restart cost cannot be negative");
    (delta_hours / tau_hours + (tau_hours / 2.0 + delta_hours + restart_hours) / mtti_hours)
        .min(1.0)
}

/// Checkpoint advice for one scale bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointAdvice {
    /// Node class.
    pub node_type: NodeType,
    /// Bucket bounds (inclusive widths).
    pub lo: u32,
    /// Upper bound.
    pub hi: u32,
    /// Measured MTTI feeding the model (hours).
    pub mtti_hours: f64,
    /// Assumed checkpoint write cost (hours).
    pub delta_hours: f64,
    /// Optimal interval, Daly (hours).
    pub optimal_interval_hours: f64,
    /// Wasted machine fraction at the optimum.
    pub waste_at_optimum: f64,
}

/// Derives advice for every F3 bucket with a measured MTTI.
///
/// `delta_hours` is the checkpoint write cost (a 22,640-node application
/// dumping to Lustre at aggregate ~1 TB/s writes tens of TB in ~5–15 min;
/// pass what matches the modeled application), `restart_hours` the restart
/// cost.
pub fn advise(m: &MetricSet, delta_hours: f64, restart_hours: f64) -> Vec<CheckpointAdvice> {
    m.mtti
        .iter()
        .filter_map(|row| {
            let mtti = row.mtti_hours?;
            let tau = daly_interval(delta_hours, mtti);
            Some(CheckpointAdvice {
                node_type: row.node_type,
                lo: row.lo,
                hi: row.hi,
                mtti_hours: mtti,
                delta_hours,
                optimal_interval_hours: tau,
                waste_at_optimum: waste_fraction(tau, delta_hours, mtti, restart_hours),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_matches_closed_form() {
        // δ = 0.1 h, M = 20 h → τ = √4 = 2 h.
        assert!((young_interval(0.1, 20.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn daly_refines_young_downward_by_delta() {
        let (d, m) = (0.1, 20.0);
        let young = young_interval(d, m);
        let daly = daly_interval(d, m);
        // Daly ≈ Young·(1 + small) − δ; close to Young for δ ≪ M.
        assert!((daly - young).abs() < 0.15, "young {young} daly {daly}");
        assert!(daly < young + 0.1);
    }

    #[test]
    fn daly_degenerates_when_checkpointing_cannot_keep_up() {
        assert_eq!(daly_interval(6.0, 8.0), 8.0);
    }

    #[test]
    fn waste_is_minimized_near_the_optimum() {
        let (d, m, r) = (0.15, 7.9, 0.25); // full-scale Blue Waters regime
        let tau = daly_interval(d, m);
        let at_opt = waste_fraction(tau, d, m, r);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            let w = waste_fraction(tau * factor, d, m, r);
            assert!(
                w >= at_opt - 1e-9,
                "waste at {factor}×τ* ({w:.4}) below optimum ({at_opt:.4})"
            );
        }
        // In the measured full-scale regime the overhead is substantial —
        // the paper's energy-cost message.
        assert!(at_opt > 0.15 && at_opt < 0.6, "waste {at_opt}");
    }

    #[test]
    fn longer_mtti_means_longer_intervals_and_less_waste() {
        let d = 0.1;
        let short = daly_interval(d, 8.0);
        let long = daly_interval(d, 800.0);
        assert!(long > short);
        let w_short = waste_fraction(short, d, 8.0, 0.1);
        let w_long = waste_fraction(long, d, 800.0, 0.1);
        assert!(w_long < w_short / 3.0);
    }

    #[test]
    fn advise_covers_buckets_with_mtti() {
        use crate::classify::ClassifiedRun;
        use crate::metrics::compute;
        use crate::workload::{AppRun, Termination};
        use logdiver_types::{
            AppId, ExitClass, ExitStatus, FailureCause, JobId, NodeSet, RangeSet, SimDuration,
            Timestamp, UserId,
        };
        let mk = |apid: u64, class: ExitClass| ClassifiedRun {
            run: AppRun {
                apid: AppId::new(apid),
                job: JobId::new(apid),
                user: UserId::new(0),
                node_type: NodeType::Xe,
                width: 1,
                nodes: RangeSet::from(&NodeSet::from_range(
                    logdiver_types::NodeId::new(0),
                    logdiver_types::NodeId::new(0),
                )),
                start: Timestamp::PRODUCTION_EPOCH,
                end: Timestamp::PRODUCTION_EPOCH + SimDuration::from_hours(10),
                termination: match class {
                    ExitClass::Success => Termination::Exited(ExitStatus::SUCCESS),
                    _ => Termination::Exited(ExitStatus::with_signal(9)),
                },
            },
            class,
            matched_events: Vec::new(),
            confidence: crate::classify::AttributionConfidence::Full,
        };
        let runs = vec![
            mk(1, ExitClass::Success),
            mk(2, ExitClass::SystemFailure(FailureCause::Memory)),
        ];
        let m = compute(&runs, &[]);
        let advice = advise(&m, 0.1, 0.1);
        assert_eq!(advice.len(), 1, "one bucket has interrupts");
        let a = advice[0];
        assert!((a.mtti_hours - 20.0).abs() < 1e-9);
        assert!(a.optimal_interval_hours > 1.0);
        assert!(a.waste_at_optimum > 0.0 && a.waste_at_optimum < 1.0);
    }

    #[test]
    #[should_panic(expected = "costs must be positive")]
    fn zero_delta_panics() {
        let _ = young_interval(0.0, 10.0);
    }
}
