//! Per-user workload and failure analysis.
//!
//! Production machines concentrate both load and trouble: a handful of
//! projects drive most submissions, and user-caused failures cluster on
//! specific codes/teams. This stage ranks users by volume and failure
//! behaviour — the per-community view field studies use to separate "the
//! machine is unreliable" from "this workflow crashes a lot".

use std::collections::HashMap;

use logdiver_types::{ExitClass, UserId};
use serde::{Deserialize, Serialize};

use crate::classify::ClassifiedRun;

/// One user's aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserRow {
    /// The user.
    pub user: UserId,
    /// Application runs submitted.
    pub runs: u64,
    /// Node-hours consumed.
    pub node_hours: f64,
    /// Runs that failed for user-attributable reasons.
    pub user_failures: u64,
    /// Runs killed by the system.
    pub system_failures: u64,
}

impl UserRow {
    /// User-caused failure rate.
    pub fn user_failure_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.user_failures as f64 / self.runs as f64
        }
    }
}

/// The per-user report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserReport {
    /// Rows sorted by run count, descending.
    pub rows: Vec<UserRow>,
    /// Total runs (denominator for concentration).
    pub total_runs: u64,
}

impl UserReport {
    /// Distinct users seen.
    pub fn distinct_users(&self) -> usize {
        self.rows.len()
    }

    /// Share of all runs submitted by the busiest `k` users.
    pub fn top_k_share(&self, k: usize) -> f64 {
        if self.total_runs == 0 {
            return 0.0;
        }
        let top: u64 = self.rows.iter().take(k).map(|r| r.runs).sum();
        top as f64 / self.total_runs as f64
    }

    /// The spread of user-failure rates among users with ≥ `min_runs`:
    /// `(p10, median, p90)` — wide spread = failure proneness is a property
    /// of workflows, not of the machine.
    pub fn failure_rate_spread(&self, min_runs: u64) -> Option<(f64, f64, f64)> {
        let mut rates: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.runs >= min_runs)
            .map(UserRow::user_failure_rate)
            .collect();
        if rates.len() < 5 {
            return None;
        }
        rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
        let at = |p: f64| rates[((p * rates.len() as f64) as usize).min(rates.len() - 1)];
        Some((at(0.1), at(0.5), at(0.9)))
    }
}

/// Builds the per-user report.
pub fn analyze_users(runs: &[ClassifiedRun]) -> UserReport {
    let mut map: HashMap<u32, UserRow> = HashMap::new();
    for r in runs {
        let row = map.entry(r.run.user.value()).or_insert(UserRow {
            user: r.run.user,
            runs: 0,
            node_hours: 0.0,
            user_failures: 0,
            system_failures: 0,
        });
        row.runs += 1;
        row.node_hours += r.run.node_hours();
        match r.class {
            ExitClass::UserFailure(_) | ExitClass::WalltimeExceeded => row.user_failures += 1,
            ExitClass::SystemFailure(_) => row.system_failures += 1,
            _ => {}
        }
    }
    let mut rows: Vec<UserRow> = map.into_values().collect();
    rows.sort_by(|a, b| b.runs.cmp(&a.runs).then(a.user.cmp(&b.user)));
    UserReport {
        total_runs: runs.len() as u64,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppRun, Termination};
    use logdiver_types::{
        AppId, ExitStatus, FailureCause, JobId, NodeType, RangeSet, SimDuration, Timestamp,
        UserFailureKind,
    };

    fn run_for(apid: u64, user: u32, class: ExitClass) -> ClassifiedRun {
        ClassifiedRun {
            run: AppRun {
                apid: AppId::new(apid),
                job: JobId::new(apid),
                user: UserId::new(user),
                node_type: NodeType::Xe,
                width: 2,
                nodes: RangeSet::default(),
                start: Timestamp::PRODUCTION_EPOCH,
                end: Timestamp::PRODUCTION_EPOCH + SimDuration::from_hours(1),
                termination: Termination::Exited(ExitStatus::SUCCESS),
            },
            class,
            matched_events: Vec::new(),
            confidence: crate::classify::AttributionConfidence::Full,
        }
    }

    #[test]
    fn rows_aggregate_per_user() {
        let runs = vec![
            run_for(1, 0, ExitClass::Success),
            run_for(2, 0, ExitClass::UserFailure(UserFailureKind::Segfault)),
            run_for(3, 0, ExitClass::SystemFailure(FailureCause::Memory)),
            run_for(4, 1, ExitClass::Success),
        ];
        let report = analyze_users(&runs);
        assert_eq!(report.distinct_users(), 2);
        assert_eq!(report.rows[0].user, UserId::new(0), "busiest first");
        assert_eq!(report.rows[0].runs, 3);
        assert_eq!(report.rows[0].user_failures, 1);
        assert_eq!(report.rows[0].system_failures, 1);
        assert!((report.rows[0].node_hours - 6.0).abs() < 1e-9);
        assert!((report.rows[0].user_failure_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_share_measures_concentration() {
        let mut runs = Vec::new();
        for i in 0..90 {
            runs.push(run_for(i, 0, ExitClass::Success)); // one dominant user
        }
        for i in 90..100 {
            runs.push(run_for(i, (i - 89) as u32, ExitClass::Success));
        }
        let report = analyze_users(&runs);
        assert!((report.top_k_share(1) - 0.9).abs() < 1e-12);
        assert!((report.top_k_share(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spread_requires_enough_users() {
        let runs = vec![run_for(1, 0, ExitClass::Success)];
        assert!(analyze_users(&runs).failure_rate_spread(1).is_none());
    }

    #[test]
    fn spread_is_ordered() {
        let mut runs = Vec::new();
        let mut apid = 0;
        for user in 0..20u32 {
            for k in 0..10 {
                apid += 1;
                let class = if k < user % 10 {
                    ExitClass::UserFailure(UserFailureKind::Abort)
                } else {
                    ExitClass::Success
                };
                runs.push(run_for(apid, user, class));
            }
        }
        let (p10, p50, p90) = analyze_users(&runs).failure_rate_spread(5).unwrap();
        assert!(p10 <= p50 && p50 <= p90);
        assert!(p90 > p10, "constructed spread must be visible");
    }

    #[test]
    fn empty_input() {
        let report = analyze_users(&[]);
        assert_eq!(report.distinct_users(), 0);
        assert_eq!(report.top_k_share(5), 0.0);
    }
}
