//! Stage 6: exit-status classification.
//!
//! The decision tree combines three information sources: the ALPS exit
//! record (code/signal/node-failed flag), the job's requested walltime from
//! Torque, and the matched error events. Precedence, mirroring the field
//! methodology:
//!
//! 1. launcher failure → system (launcher);
//! 2. clean exit → success;
//! 3. SIGTERM at ≈ the walltime limit → walltime exceeded;
//! 4. launcher saw a node die → system (cause from the best matched
//!    node-scoped lethal event; *undetermined* when nothing in the logs
//!    explains it — the signature of the hybrid-node detection gap);
//! 5. matched node-scoped lethal event on the run's nodes → system;
//! 6. SIGKILL/SIGBUS death overlapping a machine-scope lethal event →
//!    system (quiesce and I/O-error kills arrive as 9/7; a SIGSEGV that
//!    merely coincides with a reroute stays a user failure);
//! 7. otherwise: classify by signal/exit code as a user failure;
//! 8. anything left (including runs with no termination record) → unknown.

use std::collections::HashMap;

use logdiver_types::{ExitClass, ExitStatus, FailureCause, UserFailureKind};
use serde::{Deserialize, Serialize};

use crate::coalesce::ErrorEvent;
use crate::config::LogDiverConfig;
use crate::matcher::{EventLookup, MatchIndex};
use crate::workload::{AppRun, JobInfo, Termination};

/// How much log evidence stood behind a verdict.
///
/// The decision tree always emits [`AttributionConfidence::Full`]; the
/// coverage post-pass ([`crate::coverage::qualify_runs`]) downgrades
/// absence-of-evidence verdicts whose attribution window overlaps a
/// detected per-source outage — a qualified answer instead of a silently
/// wrong one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AttributionConfidence {
    /// Every entry source was demonstrably producing around the death.
    #[default]
    Full,
    /// The attribution window overlaps a source-coverage gap: evidence
    /// that would change the verdict may never have been recorded.
    Degraded,
}

logdiver_types::codec_enum!(AttributionConfidence {
    Full = 0,
    Degraded = 1,
});

impl AttributionConfidence {
    /// True for [`AttributionConfidence::Degraded`].
    pub fn is_degraded(self) -> bool {
        self == AttributionConfidence::Degraded
    }
}

/// A run together with LogDiver's verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassifiedRun {
    /// The reconstructed run.
    pub run: AppRun,
    /// The verdict.
    pub class: ExitClass,
    /// Ids of error events attributed to the death (empty for clean runs).
    pub matched_events: Vec<u32>,
    /// Evidence qualifier for the verdict.
    pub confidence: AttributionConfidence,
}

logdiver_types::codec_struct!(ClassifiedRun {
    run,
    class,
    matched_events,
    confidence
});

fn cause_of(event: &ErrorEvent) -> FailureCause {
    FailureCause::from(event.dominant_category().subsystem())
}

/// Causality filter. Node-scoped events already passed the matcher's death
/// window. Machine-scope events get a stricter check: the death must fall
/// *inside* the event (small slack for clock skew and teardown latency) —
/// a quiesce that started after an application died cannot have killed it.
fn plausibly_causal(ev: &ErrorEvent, death: logdiver_types::Timestamp) -> bool {
    use logdiver_types::SimDuration;
    if !ev.system_scope {
        return true;
    }
    death + SimDuration::from_secs(30) >= ev.start && death <= ev.end + SimDuration::from_secs(45)
}

/// Launcher-failure chatter names a *specific* apid; it never explains a
/// different application's death (that run has its own LAUNCHERR record).
fn explains_other_deaths(ev: &ErrorEvent) -> bool {
    ev.dominant_category() != logdiver_types::ErrorCategory::AlpsLaunchFailure
}

/// Picks the best explanatory event: lethal and causal, preferring
/// node-scoped over machine-scope, then higher severity.
fn best_cause<I: EventLookup + ?Sized>(
    index: &I,
    matched: &[u32],
    death: logdiver_types::Timestamp,
) -> Option<(bool, FailureCause)> {
    let mut best: Option<(&ErrorEvent, bool)> = None;
    for &id in matched {
        let Some(ev) = index.by_id(id) else { continue };
        if !ev.is_lethal() || !explains_other_deaths(ev) || !plausibly_causal(ev, death) {
            continue;
        }
        let node_scoped = !ev.system_scope;
        let better = match best {
            None => true,
            Some((cur, cur_node)) => (node_scoped, ev.severity) > (cur_node, cur.severity),
        };
        if better {
            best = Some((ev, node_scoped));
        }
    }
    best.map(|(ev, node_scoped)| (node_scoped, cause_of(ev)))
}

fn user_kind(exit: ExitStatus) -> Option<UserFailureKind> {
    match exit.signal {
        Some(11) | Some(7) => Some(UserFailureKind::Segfault),
        Some(6) => Some(UserFailureKind::Abort),
        Some(9) => Some(UserFailureKind::OutOfMemory),
        Some(15) => Some(UserFailureKind::Cancelled),
        Some(_) => Some(UserFailureKind::Abort),
        None if exit.code != 0 => Some(UserFailureKind::NonzeroExit),
        None => None,
    }
}

/// Classifies every run.
pub fn classify_runs(
    runs: Vec<AppRun>,
    jobs: &HashMap<u64, JobInfo>,
    index: &MatchIndex,
    config: &LogDiverConfig,
) -> Vec<ClassifiedRun> {
    classify_runs_threads(runs, jobs, index, config, 1)
}

/// Classifies every run across `threads` workers.
///
/// [`classify_one`] is a pure function of `(run, jobs, index, config)` and
/// the index is read-only after construction, so runs classify in parallel;
/// [`crate::exec::par_map`] returns verdicts in input order, which keeps
/// the output identical to the serial path.
pub fn classify_runs_threads(
    runs: Vec<AppRun>,
    jobs: &HashMap<u64, JobInfo>,
    index: &MatchIndex,
    config: &LogDiverConfig,
    threads: usize,
) -> Vec<ClassifiedRun> {
    crate::exec::par_map(threads, runs, |run| classify_one(run, jobs, index, config))
}

/// Classifies one run against any event table. The streaming engine calls
/// this as soon as a run becomes finalizable; the batch path calls it for
/// every run at once — one decision tree, two drivers.
pub fn classify_one<I: EventLookup + ?Sized>(
    run: AppRun,
    jobs: &HashMap<u64, JobInfo>,
    index: &I,
    config: &LogDiverConfig,
) -> ClassifiedRun {
    let exit = match run.termination {
        Termination::LaunchFailed => {
            return ClassifiedRun {
                run,
                class: ExitClass::SystemFailure(FailureCause::Launcher),
                matched_events: Vec::new(),
                confidence: AttributionConfidence::Full,
            };
        }
        Termination::Missing => {
            return ClassifiedRun {
                run,
                class: ExitClass::Unknown,
                matched_events: Vec::new(),
                confidence: AttributionConfidence::Full,
            };
        }
        Termination::Exited(exit) => exit,
    };

    if exit.is_clean() {
        return ClassifiedRun {
            run,
            class: ExitClass::Success,
            matched_events: Vec::new(),
            confidence: AttributionConfidence::Full,
        };
    }

    // Walltime: SIGTERM with the job at (or past) its requested limit.
    if exit.signal == Some(15) && !exit.node_failed {
        if let Some(job) = jobs.get(&run.job.value()) {
            if let Some(job_start) = job.start {
                let limit = job_start + job.walltime;
                if run.end + config.walltime_tolerance >= limit {
                    return ClassifiedRun {
                        run,
                        class: ExitClass::WalltimeExceeded,
                        matched_events: Vec::new(),
                        confidence: AttributionConfidence::Full,
                    };
                }
            }
        }
    }

    let matched = index.matches_for(
        run.end,
        &run.nodes,
        config.attribution_lead,
        config.attribution_lag,
    );
    let explanation = best_cause(index, &matched, run.end);

    let class = if exit.node_failed {
        match explanation {
            Some((true, cause)) => ExitClass::SystemFailure(cause),
            // A node died under the run but nothing in the error logs says
            // why — the detection-gap bucket.
            _ => ExitClass::SystemFailure(FailureCause::Undetermined),
        }
    } else {
        match explanation {
            Some((true, cause)) => ExitClass::SystemFailure(cause),
            // Machine-scope events explain SIGKILL/SIGBUS deaths only: an
            // application that segfaults or exits nonzero during a reroute
            // died of its own bug.
            Some((false, cause)) if matches!(exit.signal, Some(9) | Some(7)) => {
                ExitClass::SystemFailure(cause)
            }
            _ => match user_kind(exit) {
                Some(kind) => ExitClass::UserFailure(kind),
                None => ExitClass::Unknown,
            },
        }
    };
    ClassifiedRun {
        run,
        class,
        matched_events: matched,
        confidence: AttributionConfidence::Full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver_types::{
        AppId, ErrorCategory, JobId, NodeId, NodeSet, NodeType, RangeSet, Severity, SimDuration,
        Timestamp, UserId,
    };

    fn t(secs: i64) -> Timestamp {
        Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(secs)
    }

    fn run(termination: Termination, end_secs: i64, nodes: &[u32]) -> AppRun {
        let set: NodeSet = nodes.iter().copied().map(NodeId::new).collect();
        AppRun {
            apid: AppId::new(1),
            job: JobId::new(10),
            user: UserId::new(0),
            node_type: NodeType::Xe,
            width: nodes.len() as u32,
            nodes: RangeSet::from(&set),
            start: t(0),
            end: t(end_secs),
            termination,
        }
    }

    fn event(
        id: u32,
        start: i64,
        end: i64,
        nodes: &[u32],
        system: bool,
        cat: ErrorCategory,
    ) -> ErrorEvent {
        ErrorEvent {
            id,
            start: t(start),
            end: t(end),
            categories: vec![cat],
            severity: cat.severity(),
            nodes: nodes.iter().copied().map(NodeId::new).collect(),
            system_scope: system,
            entry_count: 1,
        }
    }

    fn classify(
        run: AppRun,
        events: Vec<ErrorEvent>,
        jobs: &HashMap<u64, JobInfo>,
    ) -> ClassifiedRun {
        let index = MatchIndex::new(events);
        classify_one(run, jobs, &index, &LogDiverConfig::default())
    }

    #[test]
    fn launch_failures_are_launcher_caused() {
        let c = classify(
            run(Termination::LaunchFailed, 3, &[0]),
            vec![],
            &HashMap::new(),
        );
        assert_eq!(c.class, ExitClass::SystemFailure(FailureCause::Launcher));
    }

    #[test]
    fn clean_exit_is_success() {
        let c = classify(
            run(Termination::Exited(ExitStatus::SUCCESS), 3_600, &[0]),
            vec![],
            &HashMap::new(),
        );
        assert_eq!(c.class, ExitClass::Success);
    }

    #[test]
    fn missing_termination_is_unknown() {
        let c = classify(run(Termination::Missing, 0, &[0]), vec![], &HashMap::new());
        assert_eq!(c.class, ExitClass::Unknown);
    }

    #[test]
    fn sigterm_at_limit_is_walltime() {
        let mut jobs = HashMap::new();
        jobs.insert(
            10,
            JobInfo {
                walltime: SimDuration::from_secs(3_600),
                start: Some(t(0)),
                exit_status: None,
            },
        );
        let c = classify(
            run(
                Termination::Exited(ExitStatus::with_signal(15)),
                3_600,
                &[0],
            ),
            vec![],
            &jobs,
        );
        assert_eq!(c.class, ExitClass::WalltimeExceeded);
    }

    #[test]
    fn sigterm_early_is_cancellation() {
        let mut jobs = HashMap::new();
        jobs.insert(
            10,
            JobInfo {
                walltime: SimDuration::from_secs(36_000),
                start: Some(t(0)),
                exit_status: None,
            },
        );
        let c = classify(
            run(Termination::Exited(ExitStatus::with_signal(15)), 600, &[0]),
            vec![],
            &jobs,
        );
        assert_eq!(c.class, ExitClass::UserFailure(UserFailureKind::Cancelled));
    }

    #[test]
    fn node_failed_with_evidence_gets_the_cause() {
        let ev = event(
            0,
            3_590,
            3_625,
            &[0],
            false,
            ErrorCategory::MemoryUncorrectable,
        );
        let c = classify(
            run(
                Termination::Exited(ExitStatus::with_signal(9).and_node_failed()),
                3_600,
                &[0, 1],
            ),
            vec![ev],
            &HashMap::new(),
        );
        assert_eq!(c.class, ExitClass::SystemFailure(FailureCause::Memory));
        assert_eq!(c.matched_events, vec![0]);
    }

    #[test]
    fn node_failed_without_evidence_is_undetermined() {
        let c = classify(
            run(
                Termination::Exited(ExitStatus::with_signal(9).and_node_failed()),
                3_600,
                &[0, 1],
            ),
            vec![],
            &HashMap::new(),
        );
        assert_eq!(
            c.class,
            ExitClass::SystemFailure(FailureCause::Undetermined)
        );
    }

    #[test]
    fn signal_death_near_wide_event_is_system() {
        let ev = event(0, 3_580, 3_640, &[], true, ErrorCategory::GeminiLinkFailure);
        let c = classify(
            run(Termination::Exited(ExitStatus::with_signal(9)), 3_600, &[0]),
            vec![ev],
            &HashMap::new(),
        );
        assert_eq!(
            c.class,
            ExitClass::SystemFailure(FailureCause::Interconnect)
        );
    }

    #[test]
    fn nonzero_exit_near_wide_event_stays_user() {
        let ev = event(0, 3_580, 3_640, &[], true, ErrorCategory::GeminiLinkFailure);
        let c = classify(
            run(Termination::Exited(ExitStatus::with_code(1)), 3_600, &[0]),
            vec![ev],
            &HashMap::new(),
        );
        assert_eq!(
            c.class,
            ExitClass::UserFailure(UserFailureKind::NonzeroExit)
        );
    }

    #[test]
    fn plain_signals_classify_by_kind() {
        for (sig, kind) in [
            (11, UserFailureKind::Segfault),
            (7, UserFailureKind::Segfault),
            (6, UserFailureKind::Abort),
            (9, UserFailureKind::OutOfMemory),
        ] {
            let c = classify(
                run(Termination::Exited(ExitStatus::with_signal(sig)), 100, &[0]),
                vec![],
                &HashMap::new(),
            );
            assert_eq!(c.class, ExitClass::UserFailure(kind), "signal {sig}");
        }
        let c = classify(
            run(Termination::Exited(ExitStatus::with_code(3)), 100, &[0]),
            vec![],
            &HashMap::new(),
        );
        assert_eq!(
            c.class,
            ExitClass::UserFailure(UserFailureKind::NonzeroExit)
        );
    }

    #[test]
    fn node_scoped_beats_system_scoped_explanation() {
        let local = event(
            0,
            3_595,
            3_630,
            &[0],
            false,
            ErrorCategory::GpuDoubleBitError,
        );
        let wide = event(1, 3_580, 3_640, &[], true, ErrorCategory::LustreOstFailure);
        let c = classify(
            run(Termination::Exited(ExitStatus::with_signal(9)), 3_600, &[0]),
            vec![local, wide],
            &HashMap::new(),
        );
        assert_eq!(c.class, ExitClass::SystemFailure(FailureCause::Gpu));
        assert_eq!(c.matched_events.len(), 2);
    }

    #[test]
    fn warning_events_never_explain_deaths() {
        let warn = event(
            0,
            3_590,
            3_610,
            &[0],
            false,
            ErrorCategory::MemoryCorrectable,
        );
        assert_eq!(warn.severity, Severity::Warning);
        let c = classify(
            run(
                Termination::Exited(ExitStatus::with_signal(11)),
                3_600,
                &[0],
            ),
            vec![warn],
            &HashMap::new(),
        );
        assert_eq!(c.class, ExitClass::UserFailure(UserFailureKind::Segfault));
    }

    #[test]
    fn events_on_other_nodes_are_ignored() {
        let ev = event(0, 3_590, 3_610, &[500], false, ErrorCategory::KernelPanic);
        let c = classify(
            run(
                Termination::Exited(ExitStatus::with_signal(11)),
                3_600,
                &[0, 1],
            ),
            vec![ev],
            &HashMap::new(),
        );
        assert_eq!(c.class, ExitClass::UserFailure(UserFailureKind::Segfault));
        assert!(c.matched_events.is_empty());
    }
}
