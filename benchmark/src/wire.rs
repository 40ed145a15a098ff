//! The wire workloads, tracing off: a fresh `logdiver-serve`, thread A
//! replaying tenants through `logdiver_push::deliver` (closed loop, one
//! connection) and thread B probing on a second connection (open loop),
//! all on one CPU. Two harness threads and two connections is the ceiling
//! on a two-CPU host.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use logdiver_push::{deliver, DeliverySummary, NetConfig, PushPlan, Session, SessionConfig};
use serde_json::Value;

use crate::run::{timed_setup, Ctx, Outcome, Prepared, ALLOCATOR_ENV};
use crate::spec::{LATENESS_SECS, PROBE_PERIOD_MS, TENANTS};
use crate::stats;
use crate::sys;

/// Name of the probe's tenant.
const PROBE_TENANT: &str = "probe";

/// Name of replay tenant `i`.
pub fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// A running `logdiver-serve`, killed and reaped when dropped.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Held open so the daemon's standard output stays writable.
    _stdout: BufReader<ChildStdout>,
    /// `host:port` it listens on.
    pub addr: String,
}

/// The two checkpoint replica directories of a run.
pub fn replica_dirs(work: &Path) -> [PathBuf; 2] {
    [work.join("tenants-a"), work.join("tenants-b")]
}

/// Removes both replica directories: the next daemon starts empty.
pub fn wipe_replicas(work: &Path) {
    for dir in replica_dirs(work) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Writes the `--tenant-config` file giving every tenant of a run a whole
/// day of lateness, and returns its path.
pub fn write_tenant_config(work: &Path) -> Result<PathBuf, String> {
    let path = work.join("tenants.conf");
    let mut text = String::new();
    for name in (0..TENANTS)
        .map(tenant_name)
        .chain([PROBE_TENANT.to_string()])
    {
        text.push_str(&format!("{name} lateness={LATENESS_SECS}\n"));
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

impl Daemon {
    /// Starts the daemon with `--shards 1`, two checkpoint replicas and
    /// the run's tenant config, every other flag at its default, and
    /// waits for `listening on`.
    pub fn start(ctx: &Ctx) -> Result<Daemon, String> {
        let config = write_tenant_config(&ctx.work)?;
        let mut command = Command::new(ctx.bin("logdiver-serve"));
        command.args(["--listen", "127.0.0.1:0", "--shards", "1"]);
        for dir in replica_dirs(&ctx.work) {
            command.arg("--tenants-dir").arg(dir);
        }
        let mut child = command
            .arg("--tenant-config")
            .arg(config)
            .envs(ALLOCATOR_ENV)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start logdiver-serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("daemon stdout not piped")?);
        let mut first = String::new();
        let read = stdout.read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("logdiver-serve listening on ")
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            (read, _) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "logdiver-serve did not announce its address: {read:?} {first:?}"
                ))
            }
        }
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh lockstep control connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr)
    }

    /// Sends `SHUTDOWN` and reaps the daemon; returns its exit code.
    pub fn shutdown(mut self) -> Result<i32, String> {
        let answer = self.connect()?.request("SHUTDOWN")?;
        if !answer.starts_with("OK") {
            return Err(format!("SHUTDOWN answered {answer:?}"));
        }
        let status = self
            .child
            .wait()
            .map_err(|e| format!("cannot reap logdiver-serve: {e}"))?;
        Ok(status.code().unwrap_or(-1))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already reaped after `shutdown`: both calls then fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One lockstep connection to the daemon.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // As `logdiver-push` does: lockstep round trips must not wait for
        // Nagle. A stall longer than the timeout counts as a missing ack.
        let timeout = Some(Duration::from_secs(30));
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(timeout))
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| format!("socket options: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { stream, reader })
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed mid-response".to_string()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends one request line and reads the one-line answer.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.stream
            .write_all(&framed)
            .map_err(|e| format!("write: {e}"))?;
        self.read_line()
    }

    /// `REPORT <tenant>`: the body, lines joined with `\n`, no trailing
    /// newline — how the wire carries `full_report`.
    pub fn report(&mut self, tenant: &str) -> Result<String, String> {
        let head = self.request(&format!("REPORT {tenant}"))?;
        let n: usize = head
            .strip_prefix("OK lines=")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("REPORT {tenant} answered {head:?}"))?;
        let lines: Result<Vec<String>, String> = (0..n).map(|_| self.read_line()).collect();
        Ok(lines?.join("\n"))
    }
}

impl ProbeWire for Client {
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        self.request(line)
    }
}

/// What the probe sends through.
pub trait ProbeWire {
    /// One request, one answer.
    fn round_trip(&mut self, line: &str) -> Result<String, String>;
}

/// The probe's clock: time since the probe started, and waiting.
pub trait ProbeClock {
    /// Time since the probe started.
    fn now(&self) -> Duration;
    /// Returns once `now() >= at`.
    fn sleep_until(&self, at: Duration);
}

/// The wall clock.
#[derive(Debug)]
pub struct WallClock(Instant);

impl ProbeClock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn sleep_until(&self, at: Duration) {
        std::thread::sleep(at.saturating_sub(self.0.elapsed()));
    }
}

/// What the probe saw.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ProbeLog {
    /// Ack latency of each probe in ms, from the moment it was *due* —
    /// not from when it was sent — so a stall is charged to every probe
    /// it delayed.
    pub ack_ms: Vec<f64>,
    /// How late each probe was sent, in ms: the generator's own lag.
    pub late_ms: Vec<f64>,
    /// Probes answered `OK`.
    pub acked: u64,
    /// Probes refused (`ERR …`) or lost (no answer).
    pub failed: u64,
}

/// The open-loop probe: one `PUSH` per `period` on its own schedule,
/// until `stop` is set. The protocol is lockstep per connection, so a
/// probe whose predecessor is still unanswered goes out late; its latency
/// still counts from its due time. After an `ERR` the same index is sent
/// again in the next slot and that ack counts as failed.
pub fn probe_loop(
    wire: &mut dyn ProbeWire,
    clock: &dyn ProbeClock,
    period: Duration,
    lines: &[String],
    stop: &AtomicBool,
) -> ProbeLog {
    let mut log = ProbeLog::default();
    let mut index = 0u64;
    let mut slot = 0u32;
    while !stop.load(Ordering::SeqCst) && !lines.is_empty() {
        let due = period * slot;
        slot += 1;
        clock.sleep_until(due);
        let sent = clock.now();
        let line = &lines[index as usize % lines.len()];
        let answer = wire.round_trip(&format!("PUSH {PROBE_TENANT} syslog {index} {line}"));
        log.late_ms
            .push(sent.saturating_sub(due).as_secs_f64() * 1e3);
        log.ack_ms
            .push(clock.now().saturating_sub(due).as_secs_f64() * 1e3);
        match answer {
            Ok(a) if a.starts_with("OK") => {
                log.acked += 1;
                index += 1;
            }
            Ok(_) => log.failed += 1,
            Err(_) => {
                // The connection is gone: this ack and the rest are missing.
                log.failed += 1;
                break;
            }
        }
    }
    log
}

/// One replay: the four deliveries and the probe beside them.
#[derive(Debug)]
pub struct Replay {
    /// Seconds from the first connect to the last `deliver` return.
    pub wall_s: f64,
    /// One summary per tenant.
    pub summaries: Vec<DeliverySummary>,
    /// The probe's log.
    pub probe: ProbeLog,
}

/// The push plans of the replay tenants: the same corpus under
/// [`TENANTS`] names.
pub fn plans(lines: &[Vec<String>; 5]) -> Vec<PushPlan> {
    (0..TENANTS)
        .map(|i| PushPlan {
            tenant: tenant_name(i),
            lines: lines.clone(),
        })
        .collect()
}

/// Thread A delivers `plans` one after another while thread B probes.
pub fn replay(addr: &str, plans: Vec<PushPlan>, probe_lines: &[String]) -> Result<Replay, String> {
    let net = NetConfig {
        addr: addr.to_string(),
        max_wall_ms: 150_000,
        ..NetConfig::default()
    };
    let mut probe_conn = Client::connect(addr)?;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let prober = scope.spawn(|| {
            probe_loop(
                &mut probe_conn,
                &WallClock(Instant::now()),
                Duration::from_millis(PROBE_PERIOD_MS),
                probe_lines,
                &stop,
            )
        });
        let started = Instant::now();
        let summaries: Vec<DeliverySummary> = plans
            .into_iter()
            .map(|plan| deliver(Session::new(plan, SessionConfig::default()), &net))
            .collect();
        let wall_s = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let probe = prober
            .join()
            .map_err(|_| "the probe thread panicked".to_string())?;
        Ok(Replay {
            wall_s,
            summaries,
            probe,
        })
    })
}

fn stat(snapshot: &Value, key: &str) -> Option<u64> {
    let stats = snapshot
        .as_object()?
        .iter()
        .find(|(k, _)| k == "stats")?
        .1
        .as_object()?;
    match stats.iter().find(|(k, _)| k == key)?.1 {
        Value::UInt(n) => Some(n),
        Value::Int(n) => u64::try_from(n).ok(),
        _ => None,
    }
}

/// The fleet counters of `SNAPSHOT` the harness reads: `(key under
/// stats, per-layer metric)`. The last four must stay zero.
pub const SNAPSHOT_STATS: [(&str, &str); 7] = [
    ("accepted", "serve.server.accepted"),
    ("applied", "serve.server.applied"),
    ("dups", "serve.server.dups"),
    ("shed_quota", "serve.server.shed_quota"),
    ("shed_budget", "serve.server.shed_budget"),
    ("shed_overload", "serve.server.shed_overload"),
    ("shed_draining", "serve.server.shed_draining"),
];

/// What one iteration against a fresh daemon measured.
#[derive(Debug)]
pub struct Iteration {
    /// The replay.
    pub replay: Replay,
    /// Lines the four deliveries had acked.
    pub lines_acked: u64,
    /// The daemon's `VmHWM` before `SHUTDOWN`, MB.
    pub peak_rss_mb: f64,
    /// [`SNAPSHOT_STATS`] after the replay.
    pub stats: [u64; 7],
}

/// Replays against `daemon` and applies every wire correctness gate:
/// deliveries complete with nothing duplicated, every probe acked,
/// `accepted == applied ==` lines offered with nothing shed, and each
/// tenant's `REPORT` equal to the batch report of its corpus.
pub fn iterate(
    daemon: &Daemon,
    prepared: &Prepared,
    lines: &[Vec<String>; 5],
    outcome: &mut Outcome,
) -> Result<Iteration, String> {
    let replay = replay(&daemon.addr, plans(lines), &lines[0])?;
    let mut lines_acked = 0;
    for s in &replay.summaries {
        lines_acked += s.pushed + s.dups;
        outcome.check(
            s.complete && s.pushed == s.total_lines && s.dups == 0,
            || format!("delivery of {} fell short: {s:?}", s.tenant),
        );
    }
    let probes = replay.probe.acked + replay.probe.failed;
    outcome.attempted += probes;
    outcome.failed += replay.probe.failed;
    if replay.probe.failed > 0 {
        outcome.failures.push(format!(
            "{} of {probes} probes were refused or lost",
            replay.probe.failed
        ));
    }

    let mut control = daemon.connect()?;
    let answer = control.request("SNAPSHOT")?;
    let snapshot = answer
        .strip_prefix("OK ")
        .and_then(|json| serde_json::parse(json).ok())
        .ok_or_else(|| format!("SNAPSHOT answered {answer:?}"))?;
    let mut stats = [0u64; 7];
    for (slot, (key, _)) in stats.iter_mut().zip(SNAPSHOT_STATS) {
        *slot = stat(&snapshot, key).ok_or_else(|| format!("SNAPSHOT has no stats.{key}"))?;
    }
    let offered = TENANTS as u64 * prepared.corpus.total_lines() + replay.probe.acked;
    outcome.check(stats[0] == offered && stats[1] == offered, || {
        format!(
            "accepted={} applied={} but {offered} lines were offered",
            stats[0], stats[1]
        )
    });
    let shed: u64 = stats[3..].iter().sum();
    outcome.check(shed == 0, || format!("the daemon shed {shed} pushes"));

    let expected = prepared.reference.trim_end_matches('\n');
    for i in 0..TENANTS {
        let body = control.report(&tenant_name(i))?;
        outcome.check(body == expected, || {
            format!(
                "REPORT {} differs from the batch report of its corpus",
                tenant_name(i)
            )
        });
    }
    let peak_rss_mb = sys::vm_hwm_kib(daemon.pid())
        .ok_or("cannot read the daemon's VmHWM from /proc")? as f64
        / 1024.0;
    Ok(Iteration {
        replay,
        lines_acked,
        peak_rss_mb,
        stats,
    })
}

/// Runs a `Serve` workload with tracing off.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // The daemon start is part of the set-up; each repetition's daemon is
    // dropped (killed) after its clock has stopped.
    let (prepared, setup) = timed_setup(ctx, |_| {
        wipe_replicas(&ctx.work);
        Daemon::start(ctx)
    })?;
    let lines = prepared.corpus.read_lines()?;

    let mut rates = Vec::new();
    let mut rss_mb = Vec::new();
    let mut ack_ms = Vec::new();
    let mut late_ms = Vec::new();
    let started = Instant::now();
    loop {
        wipe_replicas(&ctx.work);
        let daemon = Daemon::start(ctx)?;
        let it = iterate(&daemon, &prepared, &lines, &mut outcome)?;
        let code = daemon.shutdown()?;
        outcome.check(code == 0, || {
            format!("logdiver-serve exited with {code} after SHUTDOWN")
        });
        rates.push(it.lines_acked as f64 / it.replay.wall_s);
        rss_mb.push(it.peak_rss_mb);
        ack_ms.extend(it.replay.probe.ack_ms);
        late_ms.extend(it.replay.probe.late_ms);
        if started.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }

    let (p, tail) = stats::supported_tail(&ack_ms);
    outcome.notes.push(format!(
        "response_tail_ms is p{p} of {} probe acks",
        ack_ms.len()
    ));
    outcome.metric("setup_s", stats::median(&setup));
    outcome.metric("lines_per_s", stats::median(&rates));
    outcome.metric("peak_rss_mb", stats::median(&rss_mb));
    outcome.metric("response_tail_ms", tail);
    outcome.notes.push(format!(
        "tenant corpus {}: {} lines, {} bytes, lines per file {:?}; {TENANTS} tenants per iteration",
        prepared.corpus.dir.display(),
        prepared.corpus.total_lines(),
        prepared.corpus.total_bytes(),
        prepared.corpus.lines
    ));
    outcome.note_samples("set-up", "s", &setup);
    outcome.note_samples("replay rate per iteration", "lines/s", &rates);
    outcome.note_samples("daemon VmHWM", "MB", &rss_mb);
    outcome.note_samples("probe ack from due time", "ms", &ack_ms);
    outcome.note_samples("probe sent late by", "ms", &late_ms);
    outcome.notes.push(format!(
        "probe ack [ms]: mean={:.4} p50={:.4} p75={:.4} p90={:.4} p95={:.4} p99={:.4} max={:.4}",
        ack_ms.iter().sum::<f64>() / ack_ms.len().max(1) as f64,
        stats::percentile(&ack_ms, 50.0),
        stats::percentile(&ack_ms, 75.0),
        stats::percentile(&ack_ms, 90.0),
        stats::percentile(&ack_ms, 95.0),
        stats::percentile(&ack_ms, 99.0),
        stats::percentile(&ack_ms, 100.0),
    ));
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to: sleeping jumps to the due
    /// time, and the wire below adds the service time of each request.
    struct FakeClock(Cell<Duration>);

    impl ProbeClock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, at: Duration) {
            self.0.set(self.0.get().max(at));
        }
    }

    /// Answers every request after `service`, except request `stall_at`,
    /// which takes `stall`; stops the probe after `limit` requests.
    struct FakeWire<'a> {
        clock: &'a FakeClock,
        stop: &'a AtomicBool,
        seen: Vec<String>,
        service: Duration,
        stall_at: usize,
        stall: Duration,
        refuse_at: Option<usize>,
        limit: usize,
    }

    impl ProbeWire for FakeWire<'_> {
        fn round_trip(&mut self, line: &str) -> Result<String, String> {
            let n = self.seen.len();
            self.seen.push(line.to_string());
            let took = if n == self.stall_at {
                self.stall
            } else {
                self.service
            };
            self.clock.0.set(self.clock.0.get() + took);
            if self.seen.len() >= self.limit {
                self.stop.store(true, Ordering::SeqCst);
            }
            if self.refuse_at == Some(n) {
                Ok("ERR code=overload retry-ms=5".to_string())
            } else {
                Ok("OK".to_string())
            }
        }
    }

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn a_stall_is_charged_to_every_probe_it_delays() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let stop = AtomicBool::new(false);
        let mut wire = FakeWire {
            clock: &clock,
            stop: &stop,
            seen: Vec::new(),
            service: Duration::from_micros(100),
            stall_at: 2,
            stall: ms(10),
            refuse_at: None,
            limit: 8,
        };
        let lines = vec!["a".to_string(), "b".to_string()];
        let log = probe_loop(&mut wire, &clock, ms(2), &lines, &stop);

        // Probe 2 is due at 4 ms and stalls until 14 ms. Probes 3..6 were
        // due at 6, 8, 10, 12 ms and go out back to back from 14 ms on:
        // timed from their due time they waited 8.1, 6.2, 4.3, 2.4 ms,
        // where a send-time clock would have said 0.1 ms for each.
        let expect = [0.1, 0.1, 10.0, 8.1, 6.2, 4.3, 2.4, 0.5];
        assert_eq!(log.ack_ms.len(), expect.len());
        for (got, want) in log.ack_ms.iter().zip(expect) {
            assert!((got - want).abs() < 1e-6, "{:?}", log.ack_ms);
        }
        let late = [0.0, 0.0, 0.0, 8.0, 6.1, 4.2, 2.3, 0.4];
        for (got, want) in log.late_ms.iter().zip(late) {
            assert!((got - want).abs() < 1e-6, "{:?}", log.late_ms);
        }
        assert_eq!((log.acked, log.failed), (8, 0));
        // Lines cycle; indices count acks.
        assert_eq!(wire.seen[0], "PUSH probe syslog 0 a");
        assert_eq!(wire.seen[3], "PUSH probe syslog 3 b");
    }

    #[test]
    fn a_refused_probe_counts_as_failed_and_its_index_is_sent_again() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        let stop = AtomicBool::new(false);
        let mut wire = FakeWire {
            clock: &clock,
            stop: &stop,
            seen: Vec::new(),
            service: Duration::from_micros(100),
            stall_at: usize::MAX,
            stall: Duration::ZERO,
            refuse_at: Some(1),
            limit: 4,
        };
        let lines = vec!["x".to_string()];
        let log = probe_loop(&mut wire, &clock, ms(2), &lines, &stop);
        assert_eq!((log.acked, log.failed), (3, 1));
        assert_eq!(
            wire.seen,
            [
                "PUSH probe syslog 0 x",
                "PUSH probe syslog 1 x",
                "PUSH probe syslog 1 x",
                "PUSH probe syslog 2 x"
            ]
        );
    }

    #[test]
    fn snapshot_stats_are_read_from_the_fleet_json() {
        let v = serde_json::parse(r#"{"tenants":5,"stats":{"accepted":12,"applied":11}}"#)
            .expect("parses");
        assert_eq!(stat(&v, "accepted"), Some(12));
        assert_eq!(stat(&v, "applied"), Some(11));
        assert_eq!(stat(&v, "dups"), None);
    }
}
