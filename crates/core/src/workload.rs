//! Stage 4: reconstructing application runs from the workload logs.
//!
//! ALPS gives the placement (apid → nodes, user, class) and the exit
//! record; Torque gives job-level context (requested walltime, needed to
//! recognize walltime kills). The join is by apid / batch id. Orphans —
//! exits without placements, placements without exits — are counted, not
//! dropped silently.

use std::collections::{BTreeMap, HashMap};

use craylog::alps::AlpsRecord;
use craylog::torque::{TorqueEventKind, TorqueRecord};
use logdiver_types::codec::{Decode, DecodeError, Encode, Reader};
use logdiver_types::{
    AppId, ExitStatus, JobId, NodeType, RangeSet, SimDuration, Timestamp, UserId,
};
use serde::{Deserialize, Serialize};

/// How a reconstructed run terminated, as far as the logs say.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// A normal ALPS exit record exists.
    Exited(ExitStatus),
    /// The launcher failed the run before execution.
    LaunchFailed,
    /// Placed, but no termination record was found (censored/corrupt).
    Missing,
}

impl Encode for Termination {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Termination::Exited(status) => {
                out.push(0);
                status.encode(out);
            }
            Termination::LaunchFailed => out.push(1),
            Termination::Missing => out.push(2),
        }
    }
}

impl Decode for Termination {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Termination::Exited(ExitStatus::decode(r)?)),
            1 => Ok(Termination::LaunchFailed),
            2 => Ok(Termination::Missing),
            _ => Err(r.bad("unknown Termination tag")),
        }
    }
}

/// One reconstructed application run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRun {
    /// Application id.
    pub apid: AppId,
    /// Enclosing batch job.
    pub job: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Node class.
    pub node_type: NodeType,
    /// Width in nodes.
    pub width: u32,
    /// Placement.
    pub nodes: RangeSet,
    /// Launch time.
    pub start: Timestamp,
    /// Termination time (equals `start` when missing).
    pub end: Timestamp,
    /// Termination record.
    pub termination: Termination,
}

logdiver_types::codec_struct!(AppRun {
    apid,
    job,
    user,
    node_type,
    width,
    nodes,
    start,
    end,
    termination
});

impl AppRun {
    /// Wall-clock runtime.
    pub fn runtime(&self) -> SimDuration {
        self.end - self.start
    }

    /// Node-hours consumed.
    pub fn node_hours(&self) -> f64 {
        self.width as f64 * self.runtime().as_hours_f64().max(0.0)
    }
}

/// Job-level context from Torque.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobInfo {
    /// Requested walltime.
    pub walltime: SimDuration,
    /// Job start (from the E record), when known.
    pub start: Option<Timestamp>,
    /// Job-script exit status, when known.
    pub exit_status: Option<i32>,
}

logdiver_types::codec_struct!(JobInfo {
    walltime,
    start,
    exit_status
});

/// Accounting for the reconstruction stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkloadStats {
    /// Placement records seen.
    pub placed: u64,
    /// Exit records joined to a placement.
    pub exited: u64,
    /// Launch failures joined to a placement.
    pub launch_failed: u64,
    /// Termination records with no matching placement.
    pub orphan_terminations: u64,
    /// Placements with no termination record.
    pub missing_terminations: u64,
    /// Jobs with Torque context.
    pub jobs: u64,
}

logdiver_types::codec_struct!(WorkloadStats {
    placed,
    exited,
    launch_failed,
    orphan_terminations,
    missing_terminations,
    jobs
});

/// Incremental run reconstruction: ALPS and Torque records go in one at a
/// time (per-source input order), finished runs come out as they become
/// final.
///
/// This is the single reconstruction implementation; the batch
/// [`reconstruct_records`] drives it in one shot, the streaming engine feeds it
/// record by record and harvests finalizable runs on every watermark
/// advance. Runs are keyed by a dense placement sequence number so the
/// final ordering (placement order) survives out-of-band harvesting, and
/// the apid index always points at the *newest* placement for an apid —
/// matching the batch behavior for duplicate placements, where the older
/// run survives but stops receiving termination records.
#[derive(Debug, Default)]
pub struct RunReconstructor {
    runs: BTreeMap<usize, AppRun>,
    index: HashMap<u64, usize>,
    jobs: HashMap<u64, JobInfo>,
    stats: WorkloadStats,
    next_seq: usize,
}

impl RunReconstructor {
    /// Creates an empty reconstructor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one ALPS record (placement, exit, or launch error). A
    /// placement's node ranges move into its run as parsed.
    pub fn push_alps(&mut self, rec: AlpsRecord) {
        match rec {
            AlpsRecord::Placed(p) => {
                self.stats.placed += 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.runs.insert(
                    seq,
                    AppRun {
                        apid: p.apid,
                        job: p.job,
                        user: p.user,
                        node_type: p.node_type,
                        width: p.width,
                        nodes: p.nodes,
                        start: p.timestamp,
                        end: p.timestamp,
                        termination: Termination::Missing,
                    },
                );
                self.index.insert(p.apid.value(), seq);
            }
            AlpsRecord::Exit(e) => match self.index.get(&e.apid.value()) {
                Some(&seq) => {
                    self.stats.exited += 1;
                    if let Some(run) = self.runs.get_mut(&seq) {
                        run.end = e.timestamp;
                        run.termination = Termination::Exited(e.exit);
                    }
                }
                None => self.stats.orphan_terminations += 1,
            },
            AlpsRecord::LaunchErr(l) => match self.index.get(&l.apid.value()) {
                Some(&seq) => {
                    self.stats.launch_failed += 1;
                    if let Some(run) = self.runs.get_mut(&seq) {
                        run.end = l.timestamp;
                        run.termination = Termination::LaunchFailed;
                    }
                }
                None => self.stats.orphan_terminations += 1,
            },
        }
    }

    /// Feeds one Torque record.
    pub fn push_torque(&mut self, rec: &TorqueRecord) {
        let info = self.jobs.entry(rec.job.value()).or_insert(JobInfo {
            walltime: SimDuration::from_secs(rec.walltime_secs),
            start: None,
            exit_status: None,
        });
        info.walltime = SimDuration::from_secs(rec.walltime_secs);
        if rec.kind == TorqueEventKind::End {
            info.start = rec.start;
            info.exit_status = rec.exit_status;
        } else if info.start.is_none() {
            info.start = Some(rec.timestamp);
        }
    }

    /// Job context accumulated so far.
    pub fn jobs(&self) -> &HashMap<u64, JobInfo> {
        &self.jobs
    }

    /// Number of runs still held (not yet taken).
    pub fn open_len(&self) -> usize {
        self.runs.len()
    }

    /// Removes and returns, in placement order, every terminated run whose
    /// end time is strictly before `cutoff`.
    ///
    /// The caller picks a cutoff such that no error event closing later
    /// can fall inside the run's attribution window — then classifying the
    /// run now gives the same verdict the batch path would.
    pub fn take_finalizable(&mut self, cutoff: Timestamp) -> Vec<(usize, AppRun)> {
        let seqs: Vec<usize> = self
            .runs
            .iter()
            .filter(|(_, r)| r.termination != Termination::Missing && r.end < cutoff)
            .map(|(&seq, _)| seq)
            .collect();
        seqs.into_iter()
            // lint: allow(no-panic) every seq was collected from self.runs two lines up, with &mut self held throughout
            .map(|seq| (seq, self.runs.remove(&seq).expect("seq was just observed")))
            .collect()
    }

    /// Current stats, with the live-state counters (missing terminations,
    /// job count) filled in from the open state.
    pub fn stats_snapshot(&self) -> WorkloadStats {
        let mut stats = self.stats;
        stats.missing_terminations = self
            .runs
            .values()
            .filter(|r| r.termination == Termination::Missing)
            .count() as u64;
        stats.jobs = self.jobs.len() as u64;
        stats
    }

    /// Removes and returns every remaining run (placement order), with its
    /// placement sequence number.
    pub fn take_all(&mut self) -> Vec<(usize, AppRun)> {
        std::mem::take(&mut self.runs).into_iter().collect()
    }

    /// Finalizes: returns the remaining runs in placement order, the job
    /// context, and the stats.
    pub fn finish(mut self) -> (Vec<AppRun>, HashMap<u64, JobInfo>, WorkloadStats) {
        let stats = self.stats_snapshot();
        let runs = self.take_all().into_iter().map(|(_, run)| run).collect();
        (runs, self.jobs, stats)
    }

    /// Externalizes the open state (serializable, deterministic ordering)
    /// so a crashed driver can rebuild an equivalent reconstructor with
    /// [`RunReconstructor::restore`].
    pub fn state(&self) -> ReconstructorState {
        let mut index: Vec<(u64, u64)> = self
            .index
            .iter()
            .map(|(&apid, &seq)| (apid, seq as u64))
            .collect();
        index.sort_unstable();
        let mut jobs: Vec<(u64, JobInfo)> = self.jobs.iter().map(|(&j, info)| (j, *info)).collect();
        jobs.sort_unstable_by_key(|(j, _)| *j);
        ReconstructorState {
            runs: self
                .runs
                .iter()
                .map(|(&seq, run)| (seq as u64, run.clone()))
                .collect(),
            index,
            jobs,
            stats: self.stats,
            next_seq: self.next_seq as u64,
        }
    }

    /// Rebuilds a reconstructor from externalized state. The restored
    /// reconstructor behaves identically to the original on any further
    /// input.
    pub fn restore(state: ReconstructorState) -> Self {
        RunReconstructor {
            runs: state
                .runs
                .into_iter()
                .map(|(seq, run)| (seq as usize, run))
                .collect(),
            index: state
                .index
                .into_iter()
                .map(|(apid, seq)| (apid, seq as usize))
                .collect(),
            jobs: state.jobs.into_iter().collect(),
            stats: state.stats,
            next_seq: state.next_seq as usize,
        }
    }
}

/// Serializable open state of a [`RunReconstructor`]
/// (see [`RunReconstructor::state`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconstructorState {
    /// Unfinalized runs with their placement sequence numbers.
    runs: Vec<(u64, AppRun)>,
    /// apid → placement sequence (newest placement wins), sorted by apid.
    index: Vec<(u64, u64)>,
    /// Job context, sorted by job id.
    jobs: Vec<(u64, JobInfo)>,
    /// Join accounting so far.
    stats: WorkloadStats,
    /// Next placement sequence number.
    next_seq: u64,
}

impl ReconstructorState {
    /// Number of runs still held (not yet classified).
    pub fn open_len(&self) -> usize {
        self.runs.len()
    }
}

logdiver_types::codec_struct!(ReconstructorState {
    runs,
    index,
    jobs,
    stats,
    next_seq
});

/// Reconstructs runs and job context from parsed ALPS and Torque records.
///
/// Owned ALPS records give their node ranges to the runs; borrowed ones
/// (`&[AlpsRecord]`) are cloned.
pub fn reconstruct_records<A: Into<AlpsRecord>>(
    alps: impl IntoIterator<Item = A>,
    torque: &[craylog::torque::TorqueRecord],
) -> (Vec<AppRun>, HashMap<u64, JobInfo>, WorkloadStats) {
    let mut reconstructor = RunReconstructor::new();
    for rec in alps {
        reconstructor.push_alps(rec.into());
    }
    for rec in torque {
        reconstructor.push_torque(rec);
    }
    reconstructor.finish()
}

/// Convenience for tests: total node-hours over runs.
pub fn total_node_hours(runs: &[AppRun]) -> f64 {
    runs.iter().map(AppRun::node_hours).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::LogCollection;
    use crate::parse::{collection_lines, parse_columns_threads};

    fn records(logs: &LogCollection) -> (Vec<AlpsRecord>, Vec<TorqueRecord>) {
        let sources = collection_lines(logs);
        let cols = parse_columns_threads(&sources, 1);
        (cols.alps, cols.torque)
    }

    fn logs() -> LogCollection {
        let mut logs = LogCollection::new();
        logs.alps.extend([
            "2013-03-28 12:00:00 apsys PLACED apid=1 batch=10.bw user=u0001 cmd=a.out type=XE width=4 nodelist=nid[0-3]".to_string(),
            "2013-03-28 13:00:00 apsys EXIT apid=1 code=0 signal=none node_failed=no runtime=3600".to_string(),
            "2013-03-28 12:05:00 apsys PLACED apid=2 batch=10.bw user=u0001 cmd=b.out type=XK width=2 nodelist=nid[100-101]".to_string(),
            "2013-03-28 12:05:03 apsys LAUNCHERR apid=2 reason=placement failed".to_string(),
            "2013-03-28 12:06:00 apsys PLACED apid=3 batch=11.bw user=u0002 cmd=c.out type=XE width=1 nodelist=nid[7]".to_string(),
            "2013-03-28 14:00:00 apsys EXIT apid=99 code=1 signal=none node_failed=no runtime=10".to_string(),
        ]);
        logs.torque.extend([
            "2013-03-28 11:59:00;S;10.bw;user=u0001 queue=normal nodes=4 walltime=7200".to_string(),
            "2013-03-28 13:01:00;E;10.bw;user=u0001 queue=normal nodes=4 walltime=7200 start=1364472000 end=1364475660 exit_status=0".to_string(),
        ]);
        logs
    }

    #[test]
    fn joins_placements_with_terminations() {
        let (alps, torque) = records(&logs());
        let (runs, jobs, stats) = reconstruct_records(&alps, &torque);
        assert_eq!(runs.len(), 3);
        assert_eq!(stats.placed, 3);
        assert_eq!(stats.exited, 1);
        assert_eq!(stats.launch_failed, 1);
        assert_eq!(stats.orphan_terminations, 1);
        assert_eq!(stats.missing_terminations, 1);
        assert_eq!(stats.jobs, 1);

        let run1 = &runs[0];
        assert_eq!(run1.apid, AppId::new(1));
        assert_eq!(run1.runtime(), SimDuration::from_hours(1));
        assert!((run1.node_hours() - 4.0).abs() < 1e-9);
        assert!(matches!(run1.termination, Termination::Exited(e) if e.is_clean()));

        let run2 = &runs[1];
        assert_eq!(run2.termination, Termination::LaunchFailed);
        assert_eq!(run2.node_type, NodeType::Xk);

        let run3 = &runs[2];
        assert_eq!(run3.termination, Termination::Missing);
        assert_eq!(run3.runtime(), SimDuration::ZERO);

        let job = jobs.get(&10).unwrap();
        assert_eq!(job.walltime, SimDuration::from_secs(7200));
        assert_eq!(job.exit_status, Some(0));
        assert!(job.start.is_some());
    }

    #[test]
    fn state_round_trip_preserves_behavior() {
        let (alps, torque) = records(&logs());
        let records: usize = alps.len() + torque.len();
        for split in 0..=records {
            let mut whole = RunReconstructor::new();
            let mut first = RunReconstructor::new();
            let feed = |r: &mut RunReconstructor, lo: usize, hi: usize| {
                for (k, rec) in alps.iter().enumerate() {
                    if (lo..hi).contains(&k) {
                        r.push_alps(rec.clone());
                    }
                }
                for (k, rec) in torque.iter().enumerate() {
                    if (lo..hi).contains(&(alps.len() + k)) {
                        r.push_torque(rec);
                    }
                }
            };
            feed(&mut whole, 0, records);
            feed(&mut first, 0, split);
            let json = serde_json::to_string(&first.state()).unwrap();
            let state: ReconstructorState = serde_json::from_str(&json).unwrap();
            let mut resumed = RunReconstructor::restore(state);
            feed(&mut resumed, split, records);
            let (runs_a, jobs_a, stats_a) = whole.finish();
            let (runs_b, jobs_b, stats_b) = resumed.finish();
            assert_eq!(runs_a, runs_b, "split at {split}");
            assert_eq!(stats_a, stats_b, "split at {split}");
            assert_eq!(jobs_a.len(), jobs_b.len(), "split at {split}");
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let (runs, jobs, stats) = reconstruct_records(Vec::<AlpsRecord>::new(), &[]);
        assert!(runs.is_empty());
        assert!(jobs.is_empty());
        assert_eq!(stats, WorkloadStats::default());
    }
}
