//! Job-level analysis: the batch-job view of the same data.
//!
//! The paper's unit of analysis is the application run, but operators buy
//! and schedule *jobs*. One job launches several applications back-to-back,
//! so job-level failure rates exceed application-level ones (a job fails if
//! *any* of its runs does), and a job's verdict is the worst verdict among
//! its runs. This stage folds classified runs back into jobs.

use std::collections::HashMap;

use logdiver_types::{ExitClass, JobId};
use serde::{Deserialize, Serialize};

use crate::classify::ClassifiedRun;

/// Severity ordering of verdicts for the "worst outcome wins" fold.
fn verdict_rank(class: &ExitClass) -> u8 {
    match class {
        ExitClass::SystemFailure(_) => 4,
        ExitClass::UserFailure(_) => 3,
        ExitClass::WalltimeExceeded => 2,
        ExitClass::Unknown => 1,
        ExitClass::Success => 0,
    }
}

/// One job's aggregate view.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Application runs the job launched.
    pub app_runs: u64,
    /// Node-hours across its runs.
    pub node_hours: f64,
    /// The worst verdict among its runs.
    pub verdict: ExitClass,
}

/// The job-level report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobReport {
    /// Jobs seen (with at least one application run).
    pub jobs: u64,
    /// Mean application runs per job.
    pub apps_per_job: f64,
    /// Fraction of jobs whose worst verdict is a system failure.
    pub job_system_failure_fraction: f64,
    /// Fraction of application runs that are system failures (for the
    /// side-by-side comparison).
    pub app_system_failure_fraction: f64,
    /// Per-job outcomes (sorted by job id).
    pub outcomes: Vec<JobOutcome>,
}

/// Folds classified runs into the job-level report.
pub fn analyze_jobs(runs: &[ClassifiedRun]) -> JobReport {
    let mut by_job: HashMap<u64, JobOutcome> = HashMap::new();
    let mut app_system = 0u64;
    for r in runs {
        if r.class.is_system_failure() {
            app_system += 1;
        }
        let entry = by_job.entry(r.run.job.value()).or_insert(JobOutcome {
            job: r.run.job,
            app_runs: 0,
            node_hours: 0.0,
            verdict: ExitClass::Success,
        });
        entry.app_runs += 1;
        entry.node_hours += r.run.node_hours();
        if verdict_rank(&r.class) > verdict_rank(&entry.verdict) {
            entry.verdict = r.class;
        }
    }
    let mut outcomes: Vec<JobOutcome> = by_job.into_values().collect();
    outcomes.sort_by_key(|o| o.job);
    let jobs = outcomes.len() as u64;
    let job_system = outcomes
        .iter()
        .filter(|o| o.verdict.is_system_failure())
        .count() as u64;
    let total_apps: u64 = outcomes.iter().map(|o| o.app_runs).sum();
    JobReport {
        jobs,
        apps_per_job: if jobs > 0 {
            total_apps as f64 / jobs as f64
        } else {
            0.0
        },
        job_system_failure_fraction: if jobs > 0 {
            job_system as f64 / jobs as f64
        } else {
            0.0
        },
        app_system_failure_fraction: if runs.is_empty() {
            0.0
        } else {
            app_system as f64 / runs.len() as f64
        },
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{AppRun, Termination};
    use logdiver_types::{
        AppId, ExitStatus, FailureCause, NodeType, RangeSet, SimDuration, Timestamp,
        UserFailureKind, UserId,
    };

    fn run_in_job(apid: u64, job: u64, class: ExitClass) -> ClassifiedRun {
        ClassifiedRun {
            run: AppRun {
                apid: AppId::new(apid),
                job: JobId::new(job),
                user: UserId::new(0),
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
    fn worst_verdict_wins() {
        let runs = vec![
            run_in_job(1, 1, ExitClass::Success),
            run_in_job(2, 1, ExitClass::UserFailure(UserFailureKind::Abort)),
            run_in_job(3, 1, ExitClass::SystemFailure(FailureCause::Memory)),
            run_in_job(4, 2, ExitClass::Success),
            run_in_job(5, 2, ExitClass::WalltimeExceeded),
        ];
        let report = analyze_jobs(&runs);
        assert_eq!(report.jobs, 2);
        assert!((report.apps_per_job - 2.5).abs() < 1e-12);
        let j1 = report
            .outcomes
            .iter()
            .find(|o| o.job == JobId::new(1))
            .unwrap();
        assert_eq!(j1.verdict, ExitClass::SystemFailure(FailureCause::Memory));
        assert_eq!(j1.app_runs, 3);
        let j2 = report
            .outcomes
            .iter()
            .find(|o| o.job == JobId::new(2))
            .unwrap();
        assert_eq!(j2.verdict, ExitClass::WalltimeExceeded);
    }

    #[test]
    fn job_rate_exceeds_app_rate() {
        // 10 jobs × 4 apps; one app per job fails by the system.
        let mut runs = Vec::new();
        let mut apid = 0;
        for job in 0..10u64 {
            for k in 0..4 {
                apid += 1;
                let class = if k == 0 {
                    ExitClass::SystemFailure(FailureCause::Interconnect)
                } else {
                    ExitClass::Success
                };
                runs.push(run_in_job(apid, job, class));
            }
        }
        let report = analyze_jobs(&runs);
        assert!((report.app_system_failure_fraction - 0.25).abs() < 1e-12);
        assert!((report.job_system_failure_fraction - 1.0).abs() < 1e-12);
        assert!(report.job_system_failure_fraction > report.app_system_failure_fraction);
    }

    #[test]
    fn empty_input() {
        let report = analyze_jobs(&[]);
        assert_eq!(report.jobs, 0);
        assert_eq!(report.job_system_failure_fraction, 0.0);
    }
}
