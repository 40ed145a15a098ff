//! [`CheckpointStore`]: replicated, health-tracked checkpoint durability.
//!
//! The paper's field data says storage faults are the common case at
//! scale, so the daemon's recovery state cannot live in one directory.
//! The store replicates every tenant's checkpoint across N replica dirs
//! (`--tenants-dir`, repeatable) through the narrow
//! [`Fs`](logdiver_types::fsio::Fs) seam, and restores from the *newest
//! valid* copy — newest by [`StreamCheckpoint::records_applied`], the
//! logical progress counter, because checkpointable state is
//! wall-clock-free by lint decree; valid by the checkpoint format's
//! length/CRC32 integrity footer, which catches torn writes and at-rest
//! bit rot.
//!
//! ## Replica health
//!
//! Each replica runs a Healthy→Degraded→Failed machine, the `health.rs`
//! idiom transplanted from sources to storage: consecutive write failures
//! degrade then fail a replica; a Failed replica is skipped for a
//! deterministic exponential backoff (measured in checkpoint *sweeps*,
//! the store's logical clock) with seeded splitmix64 jitter, then
//! reprobed with a real write. A dead replica dir therefore costs
//! durability — surfaced as a machine-readable [`Durability`] level in
//! `SNAPSHOT`/`REPORT` — never ingestion: writes to the survivors
//! continue and the daemon keeps answering pushes.
//!
//! ## Forensics
//!
//! A corrupt checkpoint is never overwritten in place: the reader moves
//! it aside as `<tenant>.ckpt.corrupt-<n>` (first free `n`) and counts
//! it, so the evidence of *what* rotted survives the next clean write.
//!
//! ## Tombstones
//!
//! `DROP <tenant>` writes a `<tenant>.tomb` file to every replica and
//! removes the checkpoints, so a restart does not resurrect a tenant the
//! operator deliberately destroyed. Re-creating the tenant clears the
//! tombstone.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use logdiver_stream::{ResumeError, StreamCheckpoint};
use logdiver_types::fsio::{tmp_sibling, Fs};
use serde::Serialize;

/// Health of one replica directory (the `health.rs` idiom applied to
/// storage).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ReplicaState {
    /// Recent writes succeeded.
    Healthy,
    /// Writes are failing but the replica is still being tried.
    Degraded,
    /// Enough consecutive failures that writes are skipped until the
    /// backoff expires and a reprobe write succeeds.
    Failed,
}

impl ReplicaState {
    /// Lowercase label for machine-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            ReplicaState::Healthy => "healthy",
            ReplicaState::Degraded => "degraded",
            ReplicaState::Failed => "failed",
        }
    }
}

/// Fleet durability level, the headline of `SNAPSHOT`/`REPORT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Durability {
    /// Every configured replica is Healthy.
    Full,
    /// At least one replica accepts writes, but not all are Healthy.
    Degraded,
    /// No replica accepts writes (or none are configured).
    None,
}

impl Durability {
    /// Lowercase label for machine-readable output.
    pub fn label(&self) -> &'static str {
        match self {
            Durability::Full => "full",
            Durability::Degraded => "degraded",
            Durability::None => "none",
        }
    }
}

/// Tuning for the per-replica health machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorePolicy {
    /// Consecutive write failures before Healthy → Degraded.
    pub degrade_after: u32,
    /// Consecutive write failures before → Failed (skip + backoff).
    pub fail_after: u32,
    /// Base backoff, in checkpoint sweeps, after a replica fails.
    pub backoff_base: u64,
    /// Backoff ceiling, in sweeps.
    pub backoff_max: u64,
}

impl Default for StorePolicy {
    fn default() -> Self {
        StorePolicy {
            degrade_after: 1,
            fail_after: 3,
            backoff_base: 4,
            backoff_max: 256,
        }
    }
}

impl StorePolicy {
    /// Sweeps to skip a Failed replica before reprobe attempt `attempt`
    /// (0-based): `base · 2^attempt` capped, plus deterministic
    /// splitmix64 jitter keyed on (replica, attempt) so replicas that die
    /// together do not reprobe in lockstep — the same shape as
    /// `HealthPolicy::backoff_ms`.
    pub fn backoff_sweeps(&self, replica_index: usize, attempt: u32) -> u64 {
        let exp = self
            .backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_max);
        let jitter_span = (self.backoff_base / 2).max(1);
        let mut x = (replica_index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        exp + x % jitter_span
    }
}

/// One replica directory plus its health machine and counters.
#[derive(Debug)]
struct Replica {
    dir: PathBuf,
    state: ReplicaState,
    consecutive_failures: u32,
    /// Reprobe attempt counter; widens the backoff on repeated failure.
    attempt: u32,
    /// Sweeps left before a Failed replica is retried.
    cooldown: u64,
    writes_ok: u64,
    writes_err: u64,
    /// Most recent write error, for `SNAPSHOT` diagnostics.
    last_error: Option<String>,
}

impl Replica {
    fn accepts_writes(&self) -> bool {
        self.state != ReplicaState::Failed || self.cooldown == 0
    }
}

/// Serializable view of one replica for `SNAPSHOT`.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaSnapshot {
    /// The replica directory.
    pub dir: String,
    /// Health state label (`healthy` / `degraded` / `failed`).
    pub state: &'static str,
    /// Checkpoint files written successfully.
    pub writes_ok: u64,
    /// Write attempts that failed.
    pub writes_err: u64,
    /// Most recent write error, if any.
    pub last_error: Option<String>,
}

/// Serializable view of the whole store for `SNAPSHOT`.
#[derive(Debug, Clone, Serialize)]
pub struct StoreSnapshot {
    /// Machine-readable durability level (`full` / `degraded` / `none`).
    pub durability: &'static str,
    /// Per-replica health and counters.
    pub replicas: Vec<ReplicaSnapshot>,
    /// Corrupt checkpoints moved aside as `*.ckpt.corrupt-<n>`.
    pub corrupt_preserved: u64,
}

/// The replicated checkpoint store. See the module docs.
#[derive(Debug)]
pub struct CheckpointStore {
    fs: Arc<dyn Fs>,
    replicas: Vec<Replica>,
    policy: StorePolicy,
    corrupt_preserved: u64,
}

impl CheckpointStore {
    /// Opens a store over `dirs`, creating each directory. A directory
    /// that cannot be created starts life Failed (with its error
    /// recorded) rather than refusing to open the store: availability
    /// first, durability surfaced.
    pub fn open(fs: Arc<dyn Fs>, dirs: &[PathBuf], policy: StorePolicy) -> Self {
        let mut store = CheckpointStore {
            fs,
            replicas: Vec::new(),
            policy,
            corrupt_preserved: 0,
        };
        for (i, dir) in dirs.iter().enumerate() {
            let mut replica = Replica {
                dir: dir.clone(),
                state: ReplicaState::Healthy,
                consecutive_failures: 0,
                attempt: 0,
                cooldown: 0,
                writes_ok: 0,
                writes_err: 0,
                last_error: None,
            };
            if let Err(e) = store.fs.create_dir_all(dir) {
                replica.state = ReplicaState::Failed;
                replica.consecutive_failures = policy.fail_after;
                replica.cooldown = policy.backoff_sweeps(i, 0);
                replica.attempt = 1;
                replica.writes_err = 1;
                replica.last_error = Some(e.to_string());
            }
            store.replicas.push(replica);
        }
        store
    }

    /// How many replica directories are configured.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The configured replica directories, in order.
    pub fn replica_dirs(&self) -> Vec<PathBuf> {
        self.replicas.iter().map(|r| r.dir.clone()).collect()
    }

    /// The current fleet durability level.
    pub fn durability(&self) -> Durability {
        if self.replicas.is_empty() {
            return Durability::None;
        }
        let healthy = self
            .replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Healthy)
            .count();
        let failed = self
            .replicas
            .iter()
            .filter(|r| r.state == ReplicaState::Failed)
            .count();
        if healthy == self.replicas.len() {
            Durability::Full
        } else if failed == self.replicas.len() {
            Durability::None
        } else {
            Durability::Degraded
        }
    }

    /// Corrupt checkpoints moved aside so far.
    pub fn corrupt_preserved(&self) -> u64 {
        self.corrupt_preserved
    }

    /// Starts a checkpoint sweep: the store's logical clock tick. Failed
    /// replicas count their backoff down here, one tick per sweep
    /// regardless of tenant count.
    pub fn begin_sweep(&mut self) {
        for r in &mut self.replicas {
            if r.state == ReplicaState::Failed && r.cooldown > 0 {
                r.cooldown -= 1;
            }
        }
    }

    /// Writes `ckpt` for `tenant` to every replica that accepts writes
    /// right now (Failed replicas whose backoff has expired get their
    /// reprobe). Returns how many replicas hold the new checkpoint.
    /// Never blocks ingestion: a replica failure is counted, degrades the
    /// health machine, and moves on.
    pub fn write_tenant(&mut self, tenant: &str, ckpt: &StreamCheckpoint) -> usize {
        let bytes = ckpt.to_bytes();
        let mut written = 0;
        for i in 0..self.replicas.len() {
            if !self.replicas[i].accepts_writes() {
                continue;
            }
            let path = ckpt_path(&self.replicas[i].dir, tenant);
            let tmp = tmp_sibling(&path);
            let result = self
                .fs
                .write(&tmp, &bytes)
                .and_then(|()| self.fs.rename(&tmp, &path));
            match result {
                Ok(()) => {
                    self.note_success(i);
                    written += 1;
                }
                Err(e) => self.note_failure(i, e.to_string()),
            }
        }
        written
    }

    /// Scans every replica for `tenant`'s checkpoint and returns the
    /// newest valid one (by [`StreamCheckpoint::records_applied`]),
    /// skipping missing, torn, bit-rotted, or wrong-version copies.
    /// Every invalid copy found is moved aside as
    /// `<tenant>.ckpt.corrupt-<n>` so the forensic evidence survives the
    /// next clean write. Unreadable copies produce warnings appended to
    /// `warnings`.
    pub fn read_newest(
        &mut self,
        tenant: &str,
        warnings: &mut Vec<String>,
    ) -> Option<StreamCheckpoint> {
        let mut best: Option<StreamCheckpoint> = None;
        for i in 0..self.replicas.len() {
            let path = ckpt_path(&self.replicas[i].dir, tenant);
            if !self.fs.exists(&path) {
                continue;
            }
            match StreamCheckpoint::read_fs(self.fs.as_ref(), &path) {
                Ok(ckpt) => {
                    let newer = match &best {
                        Some(b) => ckpt.records_applied() > b.records_applied(),
                        None => true,
                    };
                    if newer {
                        best = Some(ckpt);
                    }
                }
                Err(ResumeError::Io(msg)) => {
                    warnings.push(format!("tenant {tenant}: replica {i}: {msg}"));
                }
                Err(e) => {
                    warnings.push(format!("tenant {tenant}: replica {i}: {e}"));
                    self.preserve_corrupt(i, tenant);
                }
            }
        }
        best
    }

    /// Moves a corrupt checkpoint aside as `<tenant>.ckpt.corrupt-<n>`
    /// (first free `n`) instead of leaving it to be overwritten by the
    /// next cadence.
    fn preserve_corrupt(&mut self, replica: usize, tenant: &str) {
        let dir = self.replicas[replica].dir.clone();
        let from = ckpt_path(&dir, tenant);
        for n in 0..u32::MAX {
            let to = dir.join(format!("{tenant}.ckpt.corrupt-{n}"));
            if self.fs.exists(&to) {
                continue;
            }
            if self.fs.rename(&from, &to).is_ok() {
                self.corrupt_preserved += 1;
            }
            return;
        }
    }

    /// The union of tenant names that have a checkpoint on any replica,
    /// sorted, excluding tombstoned tenants. Replica listing errors are
    /// appended to `warnings`.
    pub fn list_tenants(&self, warnings: &mut Vec<String>) -> Vec<String> {
        let mut names = std::collections::BTreeSet::new();
        for (i, r) in self.replicas.iter().enumerate() {
            match self.fs.list(&r.dir) {
                Ok(files) => {
                    for file in files {
                        if let Some(stem) = file.strip_suffix(".ckpt") {
                            names.insert(stem.to_string());
                        }
                    }
                }
                Err(e) => warnings.push(format!("replica {i} ({}): {e}", r.dir.display())),
            }
        }
        names.into_iter().filter(|n| !self.tombstoned(n)).collect()
    }

    /// Whether any replica carries a tombstone for `tenant`.
    pub fn tombstoned(&self, tenant: &str) -> bool {
        self.replicas
            .iter()
            .any(|r| self.fs.exists(&tomb_path(&r.dir, tenant)))
    }

    /// Drops `tenant`: writes a tombstone to every replica and removes
    /// its checkpoints (corrupt-preserved evidence is kept). Returns how
    /// many replicas recorded the tombstone.
    pub fn drop_tenant(&mut self, tenant: &str) -> usize {
        let mut recorded = 0;
        for i in 0..self.replicas.len() {
            let dir = self.replicas[i].dir.clone();
            let _ = self.fs.remove_file(&ckpt_path(&dir, tenant));
            match self.fs.write(&tomb_path(&dir, tenant), b"dropped\n") {
                Ok(()) => recorded += 1,
                Err(e) => self.note_failure(i, e.to_string()),
            }
        }
        recorded
    }

    /// Clears `tenant`'s tombstones (the operator re-created it). Any
    /// stale checkpoint is removed too, so the fresh tenant cannot
    /// resurrect pre-drop state after a restart.
    pub fn clear_tombstone(&mut self, tenant: &str) {
        for r in &self.replicas {
            let _ = self.fs.remove_file(&tomb_path(&r.dir, tenant));
            let _ = self.fs.remove_file(&ckpt_path(&r.dir, tenant));
        }
    }

    /// Serializable health/durability view for `SNAPSHOT`.
    pub fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            durability: self.durability().label(),
            replicas: self
                .replicas
                .iter()
                .map(|r| ReplicaSnapshot {
                    dir: r.dir.display().to_string(),
                    state: r.state.label(),
                    writes_ok: r.writes_ok,
                    writes_err: r.writes_err,
                    last_error: r.last_error.clone(),
                })
                .collect(),
            corrupt_preserved: self.corrupt_preserved,
        }
    }

    /// Total write errors across replicas (feeds fleet stats).
    pub fn write_errors(&self) -> u64 {
        self.replicas.iter().map(|r| r.writes_err).sum()
    }

    fn note_success(&mut self, i: usize) {
        let r = &mut self.replicas[i];
        r.writes_ok += 1;
        r.consecutive_failures = 0;
        r.attempt = 0;
        r.cooldown = 0;
        r.state = ReplicaState::Healthy;
        r.last_error = None;
    }

    fn note_failure(&mut self, i: usize, error: String) {
        let attempt;
        {
            let r = &mut self.replicas[i];
            r.writes_err += 1;
            r.consecutive_failures = r.consecutive_failures.saturating_add(1);
            r.last_error = Some(error);
            if r.consecutive_failures >= self.policy.fail_after {
                r.state = ReplicaState::Failed;
                attempt = r.attempt;
                r.attempt = r.attempt.saturating_add(1);
            } else {
                if r.consecutive_failures >= self.policy.degrade_after {
                    r.state = ReplicaState::Degraded;
                }
                return;
            }
        }
        self.replicas[i].cooldown = self.policy.backoff_sweeps(i, attempt);
    }
}

/// `<dir>/<tenant>.ckpt`.
pub fn ckpt_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.ckpt"))
}

/// `<dir>/<tenant>.tomb`.
fn tomb_path(dir: &Path, tenant: &str) -> PathBuf {
    dir.join(format!("{tenant}.tomb"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver_stream::{InlineEngine, Source, StreamConfig};
    use logdiver_types::fsio::RealFs;

    fn ckpt_with(lines: usize) -> StreamCheckpoint {
        let mut engine = InlineEngine::new(StreamConfig::default());
        for i in 0..lines {
            engine
                .push(
                    Source::Syslog,
                    &format!("2013-03-28 12:00:{:02} nid00002 ntpd: tick {i}", i % 60),
                )
                .unwrap();
        }
        let offsets = engine.pushed_all();
        engine.checkpoint(offsets)
    }

    fn temp_store(tag: &str, n: usize) -> (CheckpointStore, Vec<PathBuf>) {
        let base =
            std::env::temp_dir().join(format!("logdiver-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let dirs: Vec<PathBuf> = (0..n).map(|i| base.join(format!("r{i}"))).collect();
        let store = CheckpointStore::open(Arc::new(RealFs), &dirs, StorePolicy::default());
        (store, dirs)
    }

    fn cleanup(dirs: &[PathBuf]) {
        if let Some(base) = dirs.first().and_then(|d| d.parent()) {
            let _ = std::fs::remove_dir_all(base);
        }
    }

    #[test]
    fn writes_land_on_every_replica_and_restore_newest_valid() {
        let (mut store, dirs) = temp_store("basic", 3);
        assert_eq!(store.durability(), Durability::Full);
        store.begin_sweep();
        assert_eq!(store.write_tenant("alpha", &ckpt_with(3)), 3);
        for dir in &dirs {
            assert!(ckpt_path(dir, "alpha").exists());
        }
        // A second, newer checkpoint lands on only the first replica —
        // restore must still pick it.
        let newer = ckpt_with(7);
        newer.write_atomic(&ckpt_path(&dirs[0], "alpha")).unwrap();
        let mut warnings = Vec::new();
        let got = store.read_newest("alpha", &mut warnings).unwrap();
        assert_eq!(got.records_applied(), 7);
        assert!(warnings.is_empty());
        cleanup(&dirs);
    }

    /// Mid-way through a rolling restart one replica still holds
    /// yesterday's version-3 file and the other a newer version-4 one:
    /// both are valid, recency decides, nothing is moved aside.
    #[test]
    fn mixed_version_replicas_restore_the_newer_v4_copy() {
        let v3 = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../stream/tests/fixtures/v3_small.ckpt"
        );
        let old = StreamCheckpoint::read(Path::new(v3)).expect("v3 fixture reads");
        let lateness = logdiver_types::SimDuration::from_secs(old.lateness_secs);
        let config = StreamConfig::default().with_lateness(lateness);
        let mut engine = InlineEngine::resume(config, &old).expect("v3 fixture resumes");
        engine
            .push(Source::Syslog, "2013-03-27 03:00:00 nid00002 ntpd: tick")
            .unwrap();
        let offsets = engine.pushed_all();
        let newer = engine.checkpoint(offsets);
        assert_eq!(newer.records_applied(), old.records_applied() + 1);

        let (mut store, dirs) = temp_store("mixed", 2);
        std::fs::copy(v3, ckpt_path(&dirs[0], "t")).unwrap();
        newer.write_atomic(&ckpt_path(&dirs[1], "t")).unwrap();
        let on_disk = |dir: &PathBuf| {
            StreamCheckpoint::file_version(&std::fs::read(ckpt_path(dir, "t")).unwrap())
        };
        assert_eq!((on_disk(&dirs[0]), on_disk(&dirs[1])), (Some(3), Some(4)));

        let mut warnings = Vec::new();
        let got = store.read_newest("t", &mut warnings).unwrap();
        assert_eq!(got, newer);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(store.corrupt_preserved(), 0);
        // The next sweep brings the stale replica up to version 4.
        store.begin_sweep();
        assert_eq!(store.write_tenant("t", &got), 2);
        assert_eq!((on_disk(&dirs[0]), on_disk(&dirs[1])), (Some(4), Some(4)));
        cleanup(&dirs);
    }

    #[test]
    fn corrupt_replica_is_skipped_and_preserved() {
        let (mut store, dirs) = temp_store("corrupt", 2);
        store.begin_sweep();
        assert_eq!(store.write_tenant("t", &ckpt_with(5)), 2);
        // Rot the *newer-looking* copy on replica 0.
        let victim = ckpt_path(&dirs[0], "t");
        let mut bytes = std::fs::read(&victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();

        let mut warnings = Vec::new();
        let got = store.read_newest("t", &mut warnings).unwrap();
        assert_eq!(got.records_applied(), 5, "restored from the valid replica");
        assert_eq!(warnings.len(), 1);
        assert_eq!(store.corrupt_preserved(), 1);
        assert!(
            dirs[0].join("t.ckpt.corrupt-0").exists(),
            "forensic evidence moved aside"
        );
        assert!(!victim.exists(), "corrupt original no longer in the way");
        cleanup(&dirs);
    }

    #[test]
    fn dead_replica_degrades_then_fails_with_backoff() {
        let (mut store, dirs) = temp_store("dead", 2);
        std::fs::remove_dir_all(&dirs[1]).unwrap();
        let ckpt = ckpt_with(2);
        store.begin_sweep();
        assert_eq!(store.write_tenant("a", &ckpt), 1);
        assert_eq!(store.durability(), Durability::Degraded);
        // Drive it to Failed (fail_after = 3 consecutive failures).
        for _ in 0..2 {
            store.begin_sweep();
            store.write_tenant("a", &ckpt);
        }
        let snap = store.snapshot();
        assert_eq!(snap.replicas[1].state, "failed");
        assert_eq!(snap.durability, "degraded");
        // While cooling down, the dead replica is skipped entirely.
        let errs_before = store.write_errors();
        store.begin_sweep();
        store.write_tenant("a", &ckpt);
        assert_eq!(store.write_errors(), errs_before, "skipped during backoff");
        // Recreate the dir and burn through the cooldown: the reprobe
        // write succeeds and the replica heals.
        std::fs::create_dir_all(&dirs[1]).unwrap();
        for _ in 0..600 {
            store.begin_sweep();
            store.write_tenant("a", &ckpt);
            if store.durability() == Durability::Full {
                break;
            }
        }
        assert_eq!(store.durability(), Durability::Full, "reprobe healed it");
        cleanup(&dirs);
    }

    #[test]
    fn all_replicas_dead_is_durability_none_not_a_stall() {
        let (mut store, dirs) = temp_store("alldead", 2);
        for dir in &dirs {
            std::fs::remove_dir_all(dir).unwrap();
        }
        let ckpt = ckpt_with(1);
        for _ in 0..4 {
            store.begin_sweep();
            store.write_tenant("a", &ckpt);
        }
        assert_eq!(store.durability(), Durability::None);
        assert_eq!(store.write_tenant("a", &ckpt), 0, "returns, never blocks");
        cleanup(&dirs);
    }

    #[test]
    fn tombstone_blocks_resurrection_until_cleared() {
        let (mut store, dirs) = temp_store("tomb", 2);
        store.begin_sweep();
        store.write_tenant("ghost", &ckpt_with(4));
        let mut warnings = Vec::new();
        assert_eq!(store.list_tenants(&mut warnings), vec!["ghost"]);
        assert_eq!(store.drop_tenant("ghost"), 2);
        assert!(store.tombstoned("ghost"));
        assert!(store.list_tenants(&mut warnings).is_empty());
        assert!(store.read_newest("ghost", &mut warnings).is_none());
        store.clear_tombstone("ghost");
        assert!(!store.tombstoned("ghost"));
        cleanup(&dirs);
    }

    #[test]
    fn backoff_is_deterministic_and_widens() {
        let p = StorePolicy::default();
        assert_eq!(p.backoff_sweeps(0, 0), p.backoff_sweeps(0, 0));
        assert!(p.backoff_sweeps(0, 3) > p.backoff_sweeps(0, 0));
        assert!(p.backoff_sweeps(1, 5) <= p.backoff_max + p.backoff_base / 2);
    }
}
