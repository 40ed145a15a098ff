//! Deterministic I/O fault injection for the ingestion path.
//!
//! The rest of this crate breaks the *machine*; this module breaks the
//! *log files themselves* — the failure modes a long-running collector
//! actually meets on shared filesystems:
//!
//! - **torn writes**: the writer flushes half a line, the rest arrives
//!   (much) later or never;
//! - **truncation**: bytes vanish off the end (a crashed writer, a
//!   copy-truncate racing the reader);
//! - **rotation**: the file is replaced wholesale and restarts short;
//! - **duplicate replay**: a line is delivered twice (syslog relays love
//!   doing this after reconnects).
//!
//! Everything is driven by a caller-seeded [`rand::Rng`], so a failing
//! chaos case replays exactly from its seed. [`SimulatedLog`] is a plain
//! in-memory byte file; the stream crate's tailer reads it through its own
//! `LogFile` abstraction, exercising the identical consumption code that
//! runs against the filesystem.

use rand::Rng;

/// An in-memory log file whose content evolves under fault injection.
#[derive(Debug, Clone, Default)]
pub struct SimulatedLog {
    data: Vec<u8>,
    /// Unflushed second half of a torn write; the next append flushes it
    /// first (the writer finally got scheduled again).
    pending: Vec<u8>,
    rotations: u64,
}

impl SimulatedLog {
    /// An empty log.
    pub fn new() -> Self {
        SimulatedLog::default()
    }

    /// Current visible length in bytes.
    pub fn len(&self) -> u64 {
        self.data.len() as u64
    }

    /// True when nothing is visible yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads up to `max` bytes at `offset` — the tailer's view.
    pub fn read_at(&self, offset: u64, max: usize) -> Vec<u8> {
        let lo = (offset as usize).min(self.data.len());
        let hi = lo.saturating_add(max).min(self.data.len());
        self.data[lo..hi].to_vec()
    }

    /// Times the file has been rotated (content replaced).
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    /// True when a torn write's tail has not been flushed yet.
    pub fn has_torn_tail(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// Which fault (if any) one [`ChaosWriter::append_line`] call injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The line was written cleanly.
    None,
    /// Only a prefix of the line reached the file; the rest flushes on the
    /// next append.
    TornWrite,
    /// Bytes were chopped off the end of the file after the write.
    Truncated,
    /// The file was rotated: visible content cleared before the write.
    Rotated,
    /// The line was delivered twice.
    Duplicated,
}

/// Per-append fault probabilities (each checked independently, torn
/// first; at most one fault fires per append).
#[derive(Debug, Clone, Copy)]
pub struct ChaosWriter {
    /// Probability a write is torn mid-line.
    pub torn_prob: f64,
    /// Probability trailing bytes are truncated after the write.
    pub truncate_prob: f64,
    /// Probability the file rotates before the write.
    pub rotate_prob: f64,
    /// Probability the line is replayed (written twice).
    pub duplicate_prob: f64,
}

impl Default for ChaosWriter {
    fn default() -> Self {
        ChaosWriter {
            torn_prob: 0.03,
            truncate_prob: 0.01,
            rotate_prob: 0.005,
            duplicate_prob: 0.02,
        }
    }
}

impl ChaosWriter {
    /// A writer that never misbehaves (control runs).
    pub fn clean() -> Self {
        ChaosWriter {
            torn_prob: 0.0,
            truncate_prob: 0.0,
            rotate_prob: 0.0,
            duplicate_prob: 0.0,
        }
    }

    /// Appends `line` (a newline is added) to `log`, possibly injecting
    /// one fault. Any torn tail left by a previous append is flushed
    /// first. Returns what happened.
    pub fn append_line<R: Rng>(&self, log: &mut SimulatedLog, line: &str, rng: &mut R) -> IoFault {
        // The wedged writer from last time finally flushes.
        if !log.pending.is_empty() {
            let tail = std::mem::take(&mut log.pending);
            log.data.extend_from_slice(&tail);
        }
        let mut full = line.as_bytes().to_vec();
        full.push(b'\n');

        if self.torn_prob > 0.0 && rng.random::<f64>() < self.torn_prob && full.len() > 1 {
            // Split anywhere, including mid-UTF-8-sequence: the visible
            // prefix may be an invalid-UTF-8 fragment with no newline.
            let split = rng.random_range(1..full.len());
            log.data.extend_from_slice(&full[..split]);
            log.pending = full[split..].to_vec();
            return IoFault::TornWrite;
        }
        if self.rotate_prob > 0.0 && rng.random::<f64>() < self.rotate_prob {
            log.data.clear();
            log.rotations += 1;
            log.data.extend_from_slice(&full);
            return IoFault::Rotated;
        }
        if self.duplicate_prob > 0.0 && rng.random::<f64>() < self.duplicate_prob {
            log.data.extend_from_slice(&full);
            log.data.extend_from_slice(&full);
            return IoFault::Duplicated;
        }
        log.data.extend_from_slice(&full);
        if self.truncate_prob > 0.0 && rng.random::<f64>() < self.truncate_prob {
            let chop = rng.random_range(1..=full.len().min(24));
            let keep = log.data.len().saturating_sub(chop);
            log.data.truncate(keep);
            return IoFault::Truncated;
        }
        IoFault::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn lines(log: &SimulatedLog) -> Vec<String> {
        String::from_utf8_lossy(&log.data)
            .split('\n')
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn clean_writer_is_faithful() {
        let w = ChaosWriter::clean();
        let mut log = SimulatedLog::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..50 {
            assert_eq!(
                w.append_line(&mut log, &format!("line {i}"), &mut rng),
                IoFault::None
            );
        }
        let got = lines(&log);
        assert_eq!(got.len(), 51); // trailing empty after final newline
        assert_eq!(got[0], "line 0");
        assert_eq!(got[49], "line 49");
        assert!(!log.has_torn_tail());
    }

    #[test]
    fn torn_write_heals_on_next_append() {
        let w = ChaosWriter {
            torn_prob: 1.0,
            ..ChaosWriter::clean()
        };
        let mut log = SimulatedLog::new();
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(
            w.append_line(&mut log, "abcdefgh", &mut rng),
            IoFault::TornWrite
        );
        assert!(log.has_torn_tail());
        let visible_before = log.len();
        assert!(visible_before < 9);
        // Next append flushes the old tail before (tearing) the new line.
        w.append_line(&mut log, "second", &mut rng);
        let text = String::from_utf8_lossy(&log.data).into_owned();
        assert!(text.starts_with("abcdefgh\n"), "{text:?}");
    }

    #[test]
    fn rotation_resets_and_counts() {
        let w = ChaosWriter {
            rotate_prob: 1.0,
            ..ChaosWriter::clean()
        };
        let mut log = SimulatedLog::new();
        let mut rng = StdRng::seed_from_u64(3);
        w.append_line(&mut log, "first", &mut rng);
        w.append_line(&mut log, "second", &mut rng);
        assert_eq!(log.rotations(), 2);
        assert_eq!(String::from_utf8_lossy(&log.data), "second\n");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let w = ChaosWriter::default();
        let run = |seed: u64| {
            let mut log = SimulatedLog::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let faults: Vec<IoFault> = (0..200)
                .map(|i| w.append_line(&mut log, &format!("entry {i}"), &mut rng))
                .collect();
            (log.data.clone(), faults)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn duplicate_writes_line_twice() {
        let w = ChaosWriter {
            duplicate_prob: 1.0,
            ..ChaosWriter::clean()
        };
        let mut log = SimulatedLog::new();
        let mut rng = StdRng::seed_from_u64(9);
        assert_eq!(
            w.append_line(&mut log, "dup", &mut rng),
            IoFault::Duplicated
        );
        assert_eq!(String::from_utf8_lossy(&log.data), "dup\ndup\n");
    }
}

// ---------------------------------------------------------------------------
// Chaos filesystem
// ---------------------------------------------------------------------------

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use logdiver_types::fsio::Fs;

/// Per-operation fault probabilities for [`ChaosFs`] — the storage faults
/// a replicated checkpoint store must survive: hard write errors, full
/// disks, fsync lies, failed renames, silently torn writes, at-rest bit
/// rot, and stalled I/O. Each probability is checked independently per
/// operation; at most one fault fires.
#[derive(Debug, Clone, Copy)]
pub struct ChaosFsConfig {
    /// Probability a write fails with EIO before any byte lands.
    pub write_eio_prob: f64,
    /// Probability a write persists only a prefix and returns ENOSPC
    /// ([`io::ErrorKind::StorageFull`]).
    pub write_enospc_prob: f64,
    /// Probability a write persists all bytes but the sync "fails" (EIO
    /// returned, content present — the fsync-lie case).
    pub sync_fail_prob: f64,
    /// Probability a rename fails with EIO (both paths untouched).
    pub rename_fail_prob: f64,
    /// Probability a write persists only a prefix and *returns `Ok`* —
    /// the silent torn write only an integrity footer can catch.
    pub torn_write_prob: f64,
    /// Probability that, after a successful write, one byte of some other
    /// at-rest file is flipped (latent bit rot surfacing later).
    pub bit_rot_prob: f64,
    /// Probability an operation fails with [`io::ErrorKind::TimedOut`]
    /// (stalled I/O on a hung mount; nothing persisted).
    pub stall_prob: f64,
}

impl ChaosFsConfig {
    /// No faults at all (control runs).
    pub fn clean() -> Self {
        ChaosFsConfig {
            write_eio_prob: 0.0,
            write_enospc_prob: 0.0,
            sync_fail_prob: 0.0,
            rename_fail_prob: 0.0,
            torn_write_prob: 0.0,
            bit_rot_prob: 0.0,
            stall_prob: 0.0,
        }
    }
}

impl Default for ChaosFsConfig {
    fn default() -> Self {
        ChaosFsConfig {
            write_eio_prob: 0.02,
            write_enospc_prob: 0.02,
            sync_fail_prob: 0.01,
            rename_fail_prob: 0.02,
            torn_write_prob: 0.02,
            bit_rot_prob: 0.01,
            stall_prob: 0.01,
        }
    }
}

#[derive(Debug)]
struct ChaosFsState {
    config: ChaosFsConfig,
    files: BTreeMap<PathBuf, Vec<u8>>,
    dirs: BTreeSet<PathBuf>,
    /// Subtrees that hard-fail every operation (a dead replica mount).
    down: BTreeSet<PathBuf>,
    rng: u64,
    faults: u64,
    writes: u64,
}

impl ChaosFsState {
    /// splitmix64 — the same deterministic generator the health machines
    /// use for jitter; one `u64` of state, seeded by the caller.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    fn is_down(&self, path: &Path) -> bool {
        self.down.iter().any(|d| path.starts_with(d))
    }

    /// Flips one byte of one pseudo-randomly chosen at-rest file (not
    /// `except`, which was just written and is still "in cache").
    fn rot_one(&mut self, except: &Path) {
        let victims: Vec<PathBuf> = self
            .files
            .iter()
            .filter(|(p, data)| p.as_path() != except && !data.is_empty())
            .map(|(p, _)| p.clone())
            .collect();
        if victims.is_empty() {
            return;
        }
        let which = (self.next_u64() % victims.len() as u64) as usize;
        let offset_pick = self.next_u64();
        let bit_pick = self.next_u64();
        if let Some(data) = self.files.get_mut(&victims[which]) {
            let offset = (offset_pick % data.len() as u64) as usize;
            data[offset] ^= 1 << (bit_pick % 8);
            self.faults += 1;
        }
    }
}

fn eio(what: &str, path: &Path) -> io::Error {
    io::Error::other(format!("chaos: {what} ({})", path.display()))
}

/// A deterministic, seeded, in-memory filesystem with injectable storage
/// faults, implementing the same narrow [`Fs`] seam the production code
/// writes through. Cloning shares the underlying disk, so a "restarted"
/// daemon built over a clone sees exactly what the "crashed" one
/// persisted — which is how the durability proptests model kill -9 plus
/// remount.
#[derive(Debug, Clone)]
pub struct ChaosFs {
    state: Arc<Mutex<ChaosFsState>>,
}

impl ChaosFs {
    /// A chaos filesystem over an empty disk.
    pub fn new(seed: u64, config: ChaosFsConfig) -> Self {
        ChaosFs {
            state: Arc::new(Mutex::new(ChaosFsState {
                config,
                files: BTreeMap::new(),
                dirs: BTreeSet::new(),
                down: BTreeSet::new(),
                rng: seed,
                faults: 0,
                writes: 0,
            })),
        }
    }

    /// A faultless in-memory filesystem (control runs and fast tests).
    pub fn clean() -> Self {
        Self::new(0, ChaosFsConfig::clean())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosFsState> {
        // A poisoned lock means a *test* thread panicked mid-operation;
        // propagating the panic is the right behavior there.
        self.state.lock().expect("chaos fs lock")
    }

    /// Marks (or clears) a directory subtree as down: every operation
    /// under it fails with EIO until cleared — a dead replica mount.
    pub fn set_down(&self, dir: &Path, down: bool) {
        let mut st = self.lock();
        if down {
            st.down.insert(dir.to_path_buf());
        } else {
            st.down.remove(dir);
        }
    }

    /// Flips one byte of the file at `path` (directed at-rest corruption
    /// for tests). Returns false when the file is missing or empty.
    pub fn corrupt(&self, path: &Path) -> bool {
        let mut st = self.lock();
        let offset_pick = st.next_u64();
        match st.files.get_mut(path) {
            Some(data) if !data.is_empty() => {
                let offset = (offset_pick % data.len() as u64) as usize;
                data[offset] ^= 0x01;
                true
            }
            _ => false,
        }
    }

    /// Truncates the file at `path` to a strict prefix (directed torn
    /// write for tests). Returns false when the file is missing or empty.
    pub fn truncate(&self, path: &Path, keep: usize) -> bool {
        let mut st = self.lock();
        match st.files.get_mut(path) {
            Some(data) if !data.is_empty() => {
                data.truncate(keep.min(data.len().saturating_sub(1)));
                true
            }
            _ => false,
        }
    }

    /// Removes every file under `dir` (the whole replica vanishes).
    pub fn remove_tree(&self, dir: &Path) {
        let mut st = self.lock();
        st.files.retain(|p, _| !p.starts_with(dir));
        st.dirs.retain(|p| !p.starts_with(dir));
    }

    /// The paths of every file currently on the disk, sorted.
    pub fn file_paths(&self) -> Vec<PathBuf> {
        self.lock().files.keys().cloned().collect()
    }

    /// The current content of one file, if present.
    pub fn contents(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).cloned()
    }

    /// How many faults have been injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.lock().faults
    }

    /// How many [`Fs::write`] calls have been made, failed ones included.
    pub fn writes(&self) -> u64 {
        self.lock().writes
    }
}

impl Fs for ChaosFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut st = self.lock();
        if st.is_down(path) {
            return Err(eio("replica down", path));
        }
        let cfg = st.config;
        if st.chance(cfg.stall_prob) {
            st.faults += 1;
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "chaos: stalled read",
            ));
        }
        st.files
            .get(path)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "chaos: no such file"))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        st.writes += 1;
        if st.is_down(path) {
            return Err(eio("replica down", path));
        }
        let cfg = st.config;
        if st.chance(cfg.stall_prob) {
            st.faults += 1;
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "chaos: stalled write",
            ));
        }
        if st.chance(cfg.write_eio_prob) {
            st.faults += 1;
            return Err(eio("write error", path));
        }
        if st.chance(cfg.write_enospc_prob) {
            st.faults += 1;
            let keep = if bytes.is_empty() {
                0
            } else {
                (st.next_u64() % bytes.len() as u64) as usize
            };
            st.files.insert(path.to_path_buf(), bytes[..keep].to_vec());
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: disk full",
            ));
        }
        if st.chance(cfg.torn_write_prob) && bytes.len() > 1 {
            st.faults += 1;
            let keep = 1 + (st.next_u64() % (bytes.len() - 1) as u64) as usize;
            st.files.insert(path.to_path_buf(), bytes[..keep].to_vec());
            return Ok(()); // the silent tear: caller believes it landed
        }
        st.files.insert(path.to_path_buf(), bytes.to_vec());
        if st.chance(cfg.sync_fail_prob) {
            st.faults += 1;
            return Err(eio("sync failed", path));
        }
        if st.chance(cfg.bit_rot_prob) {
            st.rot_one(path);
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.is_down(from) || st.is_down(to) {
            return Err(eio("replica down", from));
        }
        let cfg = st.config;
        if st.chance(cfg.rename_fail_prob) {
            st.faults += 1;
            return Err(eio("rename failed", from));
        }
        match st.files.remove(from) {
            Some(data) => {
                st.files.insert(to.to_path_buf(), data);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "chaos: no such file",
            )),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.is_down(path) {
            return Err(eio("replica down", path));
        }
        match st.files.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "chaos: no such file",
            )),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let mut st = self.lock();
        if st.is_down(dir) {
            return Err(eio("replica down", dir));
        }
        st.dirs.insert(dir.to_path_buf());
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let st = self.lock();
        if st.is_down(dir) {
            return Err(eio("replica down", dir));
        }
        let mut names: Vec<String> = st
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect();
        names.sort();
        Ok(names)
    }

    fn exists(&self, path: &Path) -> bool {
        let st = self.lock();
        st.files.contains_key(path) || st.dirs.contains(path)
    }
}

#[cfg(test)]
mod chaos_fs_tests {
    use super::*;

    #[test]
    fn clean_fs_round_trips() {
        let fs = ChaosFs::clean();
        let dir = Path::new("/replica0");
        fs.create_dir_all(dir).unwrap();
        fs.write(&dir.join("t.ckpt"), b"hello").unwrap();
        assert_eq!(fs.read(&dir.join("t.ckpt")).unwrap(), b"hello");
        assert_eq!(fs.list(dir).unwrap(), vec!["t.ckpt"]);
        fs.rename(&dir.join("t.ckpt"), &dir.join("u.ckpt")).unwrap();
        assert!(fs.exists(&dir.join("u.ckpt")));
        assert!(!fs.exists(&dir.join("t.ckpt")));
    }

    #[test]
    fn clones_share_the_disk() {
        let fs = ChaosFs::clean();
        let other = fs.clone();
        fs.write(Path::new("/a"), b"x").unwrap();
        assert_eq!(other.read(Path::new("/a")).unwrap(), b"x");
    }

    #[test]
    fn down_replica_fails_every_op() {
        let fs = ChaosFs::clean();
        fs.create_dir_all(Path::new("/r1")).unwrap();
        fs.write(Path::new("/r1/t.ckpt"), b"x").unwrap();
        fs.set_down(Path::new("/r1"), true);
        assert!(fs.read(Path::new("/r1/t.ckpt")).is_err());
        assert!(fs.write(Path::new("/r1/t.ckpt"), b"y").is_err());
        assert!(fs.list(Path::new("/r1")).is_err());
        fs.set_down(Path::new("/r1"), false);
        assert_eq!(fs.read(Path::new("/r1/t.ckpt")).unwrap(), b"x");
    }

    #[test]
    fn torn_write_persists_a_strict_prefix_and_lies() {
        let config = ChaosFsConfig {
            torn_write_prob: 1.0,
            ..ChaosFsConfig::clean()
        };
        let fs = ChaosFs::new(11, config);
        fs.write(Path::new("/t"), b"0123456789").unwrap(); // Ok — the lie
        let got = fs.contents(Path::new("/t")).unwrap();
        assert!(got.len() < 10 && !got.is_empty(), "{got:?}");
        assert_eq!(&got[..], &b"0123456789"[..got.len()]);
    }

    #[test]
    fn enospc_fails_with_storage_full() {
        let config = ChaosFsConfig {
            write_enospc_prob: 1.0,
            ..ChaosFsConfig::clean()
        };
        let fs = ChaosFs::new(5, config);
        let err = fs.write(Path::new("/t"), b"abc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
    }

    #[test]
    fn bit_rot_hits_at_rest_files_not_the_fresh_write() {
        let config = ChaosFsConfig {
            bit_rot_prob: 1.0,
            ..ChaosFsConfig::clean()
        };
        let fs = ChaosFs::new(3, config);
        fs.write(Path::new("/old"), b"pristine").unwrap();
        fs.write(Path::new("/new"), b"fresh").unwrap();
        assert_eq!(fs.contents(Path::new("/new")).unwrap(), b"fresh");
        assert_ne!(fs.contents(Path::new("/old")).unwrap(), b"pristine");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let run = |seed: u64| {
            let fs = ChaosFs::new(seed, ChaosFsConfig::default());
            let mut outcomes = Vec::new();
            for i in 0..200 {
                let path = PathBuf::from(format!("/f{}", i % 7));
                outcomes.push(fs.write(&path, format!("payload {i}").as_bytes()).is_ok());
            }
            let disk: Vec<(PathBuf, Vec<u8>)> = fs
                .file_paths()
                .into_iter()
                .map(|p| {
                    let c = fs.contents(&p).unwrap();
                    (p, c)
                })
                .collect();
            (outcomes, disk, fs.faults_injected())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, run(43).1);
    }

    #[test]
    fn directed_corrupt_and_truncate() {
        let fs = ChaosFs::clean();
        fs.write(Path::new("/t"), b"abcdef").unwrap();
        assert!(fs.corrupt(Path::new("/t")));
        assert_ne!(fs.contents(Path::new("/t")).unwrap(), b"abcdef");
        assert!(fs.truncate(Path::new("/t"), 2));
        assert_eq!(fs.contents(Path::new("/t")).unwrap().len(), 2);
        assert!(!fs.corrupt(Path::new("/missing")));
    }
}
