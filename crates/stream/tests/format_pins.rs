//! Golden checkpoint files: the on-disk formats are pinned byte for byte.
//!
//! `fixtures/v3_small.ckpt` was written by the last commit whose writer
//! produced version 3 (pretty JSON + footer); `fixtures/v4_small.ckpt` by
//! the commit that introduced version 4 (binary + footer). Both snapshot
//! the same engine state: the first [`CKPT_CYCLES`] cycles of
//! [`mini_corpus`]`(`[`SEED`]`)`.
//!
//! The encoding is positional, so adding, removing or reordering a field
//! of any checkpointed type changes the bytes and fails these tests. That
//! is the point: such a change needs `StreamCheckpoint::VERSION` bumped, a
//! reader kept for the old version, and a new fixture from
//! `cargo test -p logdiver-stream --test format_pins -- --ignored`.

use std::path::PathBuf;

use logdiver::{LogCollection, LogDiver};
use logdiver_stream::{InlineEngine, Source, StreamCheckpoint, StreamConfig, StreamEngine};
use logdiver_types::{SimDuration, Timestamp};

const SEED: u64 = 2013;
const CYCLES: u64 = 14;
/// The fixtures capture the engine after this many cycles.
const CKPT_CYCLES: u64 = 9;

fn fixture(version: u32) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("v{version}_small.ckpt"))
}

fn config() -> StreamConfig {
    StreamConfig::default().with_lateness(SimDuration::from_secs(60))
}

/// One 10-minute cycle of activity on all five sources, varied by a
/// splitmix64 stream so the state holds every kind of thing a checkpoint
/// carries: clean and killed runs, launch failures, multi-range
/// placements, node and machine-scope events, exact duplicates, a
/// quarantined line, jobs with and without an end record.
fn cycle(seed: u64, i: u64) -> [(Source, Vec<String>); 5] {
    let mut x = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut draw = |n: u64| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let t = Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(i as i64 * 600);
    let at = |s: i64| t + SimDuration::from_secs(s);
    let nid = 2 + draw(48);
    let width = 2 + draw(3);
    let nodelist = if draw(2) == 0 {
        format!("nid[{}-{}]", 1000 + nid, 1000 + nid + width - 1)
    } else {
        format!(
            "nid[{},{}-{}]",
            900 + nid,
            1000 + nid,
            1000 + nid + width - 2
        )
    };
    let node_type = if draw(3) == 0 { "XK" } else { "XE" };
    let mut alps = vec![format!(
        "{t} apsys PLACED apid={i} batch={i}.bw user=u{user:04} cmd=a.out type={node_type} width={width} nodelist={nodelist}",
        user = 1 + draw(5),
    )];
    if i > 0 {
        let prev = i - 1;
        alps.push(match draw(4) {
            0 => format!(
                "{} apsys EXIT apid={prev} code=137 signal=9 node_failed=yes runtime=601",
                at(1)
            ),
            1 => format!(
                "{} apsys LAUNCHERR apid={prev} reason=placement failed",
                at(1)
            ),
            2 => format!(
                "{} apsys EXIT apid={prev} code=1 signal=none node_failed=no runtime=601",
                at(1)
            ),
            _ => format!(
                "{} apsys EXIT apid={prev} code=0 signal=none node_failed=no runtime=601",
                at(1)
            ),
        });
    }
    let mut torque = vec![format!(
        "{t};S;{i}.bw;user=u0001 queue=normal nodes={width} walltime=86400"
    )];
    if i > 1 && draw(2) == 0 {
        let job = i - 2;
        torque.push(format!(
            "{};E;{job}.bw;user=u0001 queue=normal nodes=1 walltime=86400 start={} end={} exit_status={}",
            at(2),
            (t - SimDuration::from_secs(1200)).as_unix(),
            at(2).as_unix(),
            draw(2),
        ));
    }
    let mce = format!(
        "{t} nid{:05} kernel: Machine Check Exception: bank 4 status 0xb200",
        1000 + nid
    );
    let mut syslog = vec![
        mce.clone(),
        format!(
            "{} nid00900 sshd: Accepted publickey for user Çelik·α port 2222",
            at(1)
        ),
    ];
    if draw(3) == 0 {
        syslog.push(mce); // exact duplicate: the coalescer's dedup slot
    }
    if i == 4 {
        syslog.push("not a syslog line \u{1F980}".to_string());
    }
    [
        (Source::Syslog, syslog),
        (
            Source::HwErr,
            vec![format!(
                "{t}|c0-0c0s{}n{}|MCE|CRIT|bank=4",
                draw(8),
                draw(4)
            )],
        ),
        (Source::Alps, alps),
        (Source::Torque, torque),
        (
            Source::Netwatch,
            vec![format!("{t} netwatch LINK_FAILED coord=(0,0,0) dim=X")],
        ),
    ]
}

/// The corpus as per-source line lists, in [`Source::ALL`] order, for
/// cycles `from..to`.
fn mini_corpus(from: u64, to: u64) -> [Vec<String>; 5] {
    let mut out: [Vec<String>; 5] = Default::default();
    for i in from..to {
        for (source, lines) in cycle(SEED, i) {
            out[source.index()].extend(lines);
        }
    }
    out
}

fn push_all(engine: &mut StreamEngine, lines: &[Vec<String>; 5], chunk: usize) {
    let mut at = [0usize; 5];
    loop {
        let mut idle = true;
        for source in Source::ALL {
            let i = source.index();
            let end = (at[i] + chunk).min(lines[i].len());
            if at[i] < end {
                engine
                    .push_batch(source, lines[i][at[i]..end].iter().cloned())
                    .expect("push");
                at[i] = end;
                idle = false;
            }
        }
        if idle {
            return;
        }
    }
}

/// The state both fixtures snapshot, as the threaded engine captures it
/// when fed `chunk` lines per source per round. Offsets are line counts.
fn snapshot(chunk: usize) -> StreamCheckpoint {
    let head = mini_corpus(0, CKPT_CYCLES);
    let mut engine = StreamEngine::new(config());
    push_all(&mut engine, &head, chunk);
    let ckpt = engine.checkpoint(std::array::from_fn(|i| head[i].len() as u64));
    engine.drain();
    ckpt
}

#[test]
fn v3_fixture_resumes_and_drains_to_the_batch_analysis() {
    let ckpt = StreamCheckpoint::read(&fixture(3)).expect("the v3 fixture still reads");
    assert_eq!(
        ckpt.version,
        StreamCheckpoint::VERSION,
        "upgraded in memory so the next write is current"
    );
    let head = mini_corpus(0, CKPT_CYCLES);
    for source in Source::ALL {
        assert_eq!(ckpt.offset(source), head[source.index()].len() as u64);
    }
    let mut engine = StreamEngine::resume(config(), &ckpt).expect("resume");
    push_all(&mut engine, &mini_corpus(CKPT_CYCLES, CYCLES), 3);
    let streamed = engine.drain();

    let [syslog, hwerr, alps, torque, netwatch] = mini_corpus(0, CYCLES);
    let mut logs = LogCollection::new();
    logs.syslog = syslog;
    logs.hwerr = hwerr;
    logs.alps = alps;
    logs.torque = torque;
    logs.netwatch = netwatch;
    let batch = LogDiver::new().analyze(&logs);
    assert_eq!(streamed.runs, batch.runs);
    assert_eq!(streamed.events, batch.events);
    assert_eq!(streamed.metrics, batch.metrics);
    assert_eq!(streamed.stats, batch.stats);
    assert_eq!(streamed.runs.len() as u64, CYCLES);
}

#[test]
fn equal_state_is_equal_bytes_and_matches_the_v4_fixture() {
    let golden = std::fs::read(fixture(4)).expect("v4 fixture");
    // The same lines in three chunkings through the threaded engine…
    for chunk in [1, 2, 1024] {
        assert!(
            snapshot(chunk).to_bytes() == golden,
            "chunk {chunk} differs"
        );
    }
    // …and line by line through the single-threaded one.
    let head = mini_corpus(0, CKPT_CYCLES);
    let mut inline = InlineEngine::new(config());
    for source in Source::ALL {
        for line in &head[source.index()] {
            inline.push(source, line).expect("push");
        }
    }
    inline.advance();
    let offsets = inline.pushed_all();
    assert!(
        inline.checkpoint(offsets).to_bytes() == golden,
        "inline differs"
    );
    // The v3 file holds that state too: re-encoded, it is the v4 file.
    let v3 = StreamCheckpoint::read(&fixture(3)).expect("v3 fixture");
    assert!(v3.to_bytes() == golden, "re-encoded v3 differs");
    let v4 = StreamCheckpoint::from_bytes(&golden).expect("v4 fixture");
    assert_eq!(v4, v3);
}

/// Writes `fixtures/v<VERSION>_small.ckpt` with this build's writer. Run
/// once per format version, by the commit that introduces it.
#[test]
#[ignore = "regenerates a golden file"]
fn regenerate_current_fixture() {
    let path = fixture(StreamCheckpoint::VERSION);
    std::fs::create_dir_all(path.parent().expect("fixtures dir")).expect("mkdir");
    snapshot(2).write_atomic(&path).expect("write fixture");
}
