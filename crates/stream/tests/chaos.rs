//! Chaos harness for the ingestion path: evolve five log files under a
//! deterministic fault injector (torn writes, truncation, rotation,
//! duplicate replay), tail them with the production [`Tailer`], kill the
//! engine at an arbitrary record, resume from the last checkpoint — and
//! require the final analysis to equal the batch pipeline run over exactly
//! the lines the tailer consumed.
//!
//! The consumed record is the ground truth: faults may corrupt, duplicate,
//! or destroy lines, but whatever the tailer yielded must flow through the
//! streaming pipeline with the same verdicts the batch pipeline reaches on
//! the same lines. Crash-plus-resume must be invisible in the output.
//!
//! Seeds are deterministic; CI sweeps `CHAOS_SEED` to widen coverage
//! without lengthening any single run.

use std::cell::RefCell;
use std::io;
use std::rc::Rc;

use bw_faults::io::{ChaosWriter, SimulatedLog};
use logdiver::{LogCollection, LogDiver};
use logdiver_stream::tail::{LogFile, Tailer};
use logdiver_stream::{
    HealthPolicy, Source, SourceHealth, StreamCheckpoint, StreamConfig, StreamEngine, StreamError,
};
use logdiver_types::{SimDuration, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Adapter: the stream crate's tailer over this harness's in-memory
/// fault-injected log.
#[derive(Debug)]
struct Chaotic(Rc<RefCell<SimulatedLog>>);

impl LogFile for Chaotic {
    fn len(&mut self) -> io::Result<u64> {
        Ok(self.0.borrow().len())
    }
    fn read_at(&mut self, offset: u64, max: usize) -> io::Result<Vec<u8>> {
        Ok(self.0.borrow().read_at(offset, max))
    }
}

/// One synthetic 3-minute cycle across all five sources (the
/// `stream_memory` generator, plus a multi-byte UTF-8 line so torn writes
/// and truncation can produce invalid-UTF-8 fragments).
fn cycle_lines(i: u64) -> [(Source, Vec<String>); 5] {
    let t = Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(i as i64 * 180);
    let t1 = t + SimDuration::from_secs(1);
    let nid = 2 + (i % 48);
    let slot = i % 4;
    let blade = (i / 4) % 8;
    let mut alps = vec![format!(
        "{t} apsys PLACED apid={i} batch={i}.bw user=u0001 cmd=a.out type=XE width=1 nodelist=nid[{n}]",
        n = 1000 + nid
    )];
    if i > 0 {
        alps.push(format!(
            "{t1} apsys EXIT apid={p} code=0 signal=none node_failed=no runtime=180",
            p = i - 1
        ));
    }
    [
        (
            Source::Torque,
            vec![format!(
                "{t};S;{i}.bw;user=u0001 queue=normal nodes=1 walltime=86400"
            )],
        ),
        (Source::Alps, alps),
        (
            Source::Syslog,
            vec![
                format!("{t} nid{nid:05} kernel: Machine Check Exception: bank 4 status 0xb200"),
                format!("{t1} nid00900 sshd: Accepted publickey for user Çelik·α port 2222"),
            ],
        ),
        (
            Source::HwErr,
            vec![format!("{t}|c0-0c0s{blade}n{slot}|MCE|CRIT|bank=4")],
        ),
        (
            Source::Netwatch,
            vec![format!("{t} netwatch LINK_FAILED coord=(0,0,0) dim=X")],
        ),
    ]
}

/// CI sweeps seeds via `CHAOS_SEED`; locally it defaults to 0.
fn seed_base() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

struct Harness {
    logs: [Rc<RefCell<SimulatedLog>>; 5],
    tails: [Tailer<Chaotic>; 5],
    writer: ChaosWriter,
    rng: StdRng,
    /// Every line the tailers have yielded (and the engine consumed).
    consumed: [Vec<String>; 5],
}

impl Harness {
    fn new(seed: u64, writer: ChaosWriter) -> Self {
        let logs: [Rc<RefCell<SimulatedLog>>; 5] =
            std::array::from_fn(|_| Rc::new(RefCell::new(SimulatedLog::new())));
        let tails = std::array::from_fn(|i| Tailer::new(Chaotic(Rc::clone(&logs[i]))));
        Harness {
            logs,
            tails,
            writer,
            rng: StdRng::seed_from_u64(seed),
            consumed: Default::default(),
        }
    }

    /// Writes one cycle of activity through the fault injector.
    fn write_cycle(&mut self, i: u64) {
        for (source, lines) in cycle_lines(i) {
            let log = &self.logs[source.index()];
            for line in lines {
                self.writer
                    .append_line(&mut log.borrow_mut(), &line, &mut self.rng);
            }
        }
    }

    /// Polls every tailer and pushes whatever appeared into the engine.
    fn pump(&mut self, engine: &mut StreamEngine) {
        for source in Source::ALL {
            let i = source.index();
            let poll = self.tails[i].poll().expect("in-memory tail cannot fail");
            for line in poll.lines {
                match engine.push(source, line.clone()) {
                    Ok(()) => self.consumed[i].push(line),
                    Err(e) => panic!("push rejected under default policy: {e}"),
                }
            }
        }
    }

    fn offsets(&self) -> [u64; 5] {
        std::array::from_fn(|i| self.tails[i].offset())
    }

    /// Simulates the process dying and coming back: tailers are rebuilt
    /// from the checkpoint's byte offsets, the consumed record rolls back
    /// to what the checkpoint covers.
    fn crash_and_reseat(&mut self, ckpt: Option<&StreamCheckpoint>, ckpt_lines: &[usize; 5]) {
        for source in Source::ALL {
            let i = source.index();
            let offset = ckpt.map_or(0, |c| c.offset(source));
            self.tails[i] = Tailer::resume_at(Chaotic(Rc::clone(&self.logs[i])), offset);
            self.consumed[i].truncate(if ckpt.is_some() { ckpt_lines[i] } else { 0 });
        }
    }

    fn into_collection(self) -> LogCollection {
        let mut logs = LogCollection::new();
        let [syslog, hwerr, alps, torque, netwatch] = self.consumed;
        logs.syslog = syslog;
        logs.hwerr = hwerr;
        logs.alps = alps;
        logs.torque = torque;
        logs.netwatch = netwatch;
        logs
    }
}

/// The property: chaos faults + kill −9 + resume ≡ batch over the consumed
/// record.
fn run_chaos_case(seed: u64, cycles: u64, kill_at: u64, ckpt_every: u64) {
    let config = StreamConfig::default().with_lateness(SimDuration::from_secs(60));
    let mut harness = Harness::new(seed, ChaosWriter::default());
    let mut engine = StreamEngine::new(config.clone());
    let mut checkpoint: Option<StreamCheckpoint> = None;
    let mut ckpt_lines = [0usize; 5];
    let mut crashed = false;

    for i in 0..cycles {
        harness.write_cycle(i);
        harness.pump(&mut engine);

        if i % ckpt_every == ckpt_every - 1 {
            let ckpt = engine.checkpoint(harness.offsets());
            // Exercise the shipped wire format, not just the in-memory
            // struct.
            let ckpt = StreamCheckpoint::from_bytes(&ckpt.to_bytes()).expect("round trip");
            ckpt_lines = std::array::from_fn(|s| harness.consumed[s].len());
            checkpoint = Some(ckpt);
        }

        if !crashed && i == kill_at {
            crashed = true;
            drop(engine); // kill -9: in-flight lines past the checkpoint die
            harness.crash_and_reseat(checkpoint.as_ref(), &ckpt_lines);
            engine = match &checkpoint {
                Some(c) => StreamEngine::resume(config.clone(), c).expect("resume"),
                None => StreamEngine::new(config.clone()),
            };
            // Re-consume everything between the checkpoint and the crash.
            harness.pump(&mut engine);
        }
    }

    let streamed = engine.drain();
    let batch = LogDiver::new().analyze(&harness.into_collection());
    assert_eq!(streamed.runs, batch.runs, "verdicts diverged (seed {seed})");
    assert_eq!(
        streamed.events, batch.events,
        "events diverged (seed {seed})"
    );
    assert_eq!(
        streamed.metrics, batch.metrics,
        "metrics diverged (seed {seed})"
    );
    assert_eq!(streamed.stats, batch.stats, "stats diverged (seed {seed})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any seed, any kill point, any checkpoint cadence: the crash must be
    /// invisible in the final analysis.
    #[test]
    fn crash_resume_equals_batch(
        case_seed in 0u64..500,
        cycles in 12u64..40,
        kill_frac in 0u64..100,
        ckpt_every in 3u64..9,
    ) {
        let kill_at = kill_frac * cycles / 100;
        run_chaos_case(seed_base().wrapping_add(case_seed), cycles, kill_at, ckpt_every);
    }
}

/// Kill before the first checkpoint exists: resume degenerates to a fresh
/// start and must still match batch over the (restarted) consumed record.
#[test]
fn crash_before_first_checkpoint_restarts_cleanly() {
    run_chaos_case(seed_base().wrapping_add(7_001), 20, 1, 50);
}

/// A clean writer (no faults) with checkpoint/resume — isolates the
/// checkpoint logic from fault noise.
#[test]
fn resume_without_faults_is_lossless() {
    let config = StreamConfig::default().with_lateness(SimDuration::from_secs(60));
    let mut harness = Harness::new(11, ChaosWriter::clean());
    let mut engine = StreamEngine::new(config.clone());
    for i in 0..10 {
        harness.write_cycle(i);
        harness.pump(&mut engine);
    }
    let ckpt = engine.checkpoint(harness.offsets());
    let lines: [usize; 5] = std::array::from_fn(|s| harness.consumed[s].len());
    drop(engine);
    harness.crash_and_reseat(Some(&ckpt), &lines);
    let mut engine = StreamEngine::resume(config, &ckpt).expect("resume");
    for i in 10..20 {
        harness.write_cycle(i);
        harness.pump(&mut engine);
    }
    let streamed = engine.drain();
    let batch = LogDiver::new().analyze(&harness.into_collection());
    assert_eq!(streamed.runs, batch.runs);
    assert_eq!(streamed.events, batch.events);
    assert_eq!(streamed.stats, batch.stats);
    assert_eq!(streamed.runs.len(), 20);
}

/// The circuit breaker: a flooding-garbage source must trip Open, stop
/// blocking the other sources' watermark, and recover through a backoff
/// probe.
#[test]
fn circuit_breaker_isolates_and_recovers() {
    let policy = HealthPolicy {
        degrade_after: 2,
        break_after: 4,
        recover_after: 2,
        probe_lines: 2,
        sample_keep: 1,
        ..HealthPolicy::default()
    };
    let config = StreamConfig::default()
        .with_lateness(SimDuration::from_secs(60))
        .with_health(policy.clone());
    let mut engine = StreamEngine::new(config);

    // Flood ALPS with garbage until the breaker opens and pushes bounce.
    let mut bounced = false;
    for n in 0..10_000 {
        match engine.push(Source::Alps, format!("garbage {n}")) {
            Ok(()) => std::thread::yield_now(),
            Err(StreamError::CircuitOpen(Source::Alps)) => {
                bounced = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(bounced, "circuit never opened under a garbage flood");
    let report = engine.health(Source::Alps);
    assert_eq!(report.state, SourceHealth::Open);
    assert!(report.open_attempts >= 1);
    assert!(report.backoff_ms > 0, "Open state must advertise a backoff");
    assert!(report.rejected_while_open >= 1);

    // The broken source must not block everyone else: feed the other four
    // and require the run watermark to appear.
    for i in 0..5u64 {
        for (source, lines) in cycle_lines(i) {
            if source == Source::Alps {
                continue;
            }
            engine.push_batch(source, lines).unwrap();
        }
    }
    // Wait for a watermark *past the epoch*: the first Some(w) can still
    // sit at the epoch while a starved worker is mid-way through the
    // healthy sources' batches.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let snap = engine.snapshot();
        if snap
            .watermark
            .is_some_and(|w| w > Timestamp::PRODUCTION_EPOCH)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watermark still blocked by the circuit-open source"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Backoff, then probe: half-open admits lines again, and enough good
    // ones close the circuit.
    assert!(engine.probe(Source::Alps));
    assert_eq!(engine.health(Source::Alps).state, SourceHealth::HalfOpen);
    let t = Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(10 * 180);
    engine
        .push(
            Source::Alps,
            format!("{t} apsys PLACED apid=900 batch=900.bw user=u0001 cmd=a.out type=XE width=1 nodelist=nid[1000]"),
        )
        .unwrap();
    engine
        .push(
            Source::Alps,
            format!(
                "{} apsys EXIT apid=900 code=0 signal=none node_failed=no runtime=60",
                t + SimDuration::from_secs(60)
            ),
        )
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        if engine.health(Source::Alps).state == SourceHealth::Healthy {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "probe never closed the circuit: {:?}",
            engine.health(Source::Alps)
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let analysis = engine.drain();
    assert!(analysis.runs.iter().any(|r| r.run.apid == 900.into()));
}

/// A probe that meets more garbage re-opens the circuit with a wider
/// backoff.
#[test]
fn failed_probe_reopens_with_wider_backoff() {
    let policy = HealthPolicy {
        degrade_after: 1,
        break_after: 2,
        recover_after: 2,
        probe_lines: 2,
        sample_keep: 1,
        ..HealthPolicy::default()
    };
    let config = StreamConfig::default().with_health(policy);
    let mut engine = StreamEngine::new(config);
    for n in 0..10_000 {
        match engine.push(Source::Netwatch, format!("junk {n}")) {
            Ok(()) => std::thread::yield_now(),
            Err(StreamError::CircuitOpen(_)) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let first = engine.health(Source::Netwatch);
    assert_eq!(first.state, SourceHealth::Open);

    assert!(engine.probe(Source::Netwatch));
    engine.push(Source::Netwatch, "still junk").unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let second = loop {
        let r = engine.health(Source::Netwatch);
        if r.state == SourceHealth::Open && r.open_attempts > first.open_attempts {
            break r;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "probe failure did not re-open: {r:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    };
    assert!(
        second.backoff_ms > first.backoff_ms,
        "backoff must widen: {} then {}",
        first.backoff_ms,
        second.backoff_ms
    );
    engine.drain();
}

/// Checkpoints carry health state: a source that was Open stays Open
/// across resume, and its rejected counter keeps counting.
#[test]
fn health_survives_checkpoint_resume() {
    let policy = HealthPolicy {
        degrade_after: 1,
        break_after: 2,
        sample_keep: 1,
        ..HealthPolicy::default()
    };
    let config = StreamConfig::default().with_health(policy);
    let mut engine = StreamEngine::new(config.clone());
    for n in 0..10_000 {
        match engine.push(Source::Torque, format!("bad record {n}")) {
            Ok(()) => std::thread::yield_now(),
            Err(StreamError::CircuitOpen(_)) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert_eq!(engine.health(Source::Torque).state, SourceHealth::Open);
    let ckpt = engine.checkpoint([0; 5]);
    drop(engine);

    let mut engine = StreamEngine::resume(config, &ckpt).expect("resume");
    assert_eq!(engine.health(Source::Torque).state, SourceHealth::Open);
    assert_eq!(
        engine.push(Source::Torque, "more"),
        Err(StreamError::CircuitOpen(Source::Torque))
    );
    assert!(engine.probe(Source::Torque));
    engine.drain();
}
