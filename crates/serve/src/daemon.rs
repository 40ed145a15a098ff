//! The TCP shell around [`ServeCore`].
//!
//! Everything timing- or socket-shaped lives here, behind declared
//! `logdiver-lint` module allowances: an accept loop that spawns one
//! lockstep handler thread per connection, and a ticker thread that pumps
//! the fleet while connections are idle so watermarks keep advancing
//! between pushes. The core itself stays deterministic — handlers just
//! move bytes between their socket and [`ServeCore::feed`] under a
//! mutex.
//!
//! Slow-client defense: every socket gets read/write deadlines
//! (`--io-timeout-ms`), so a peer that stops reading its responses is
//! disconnected by the write timeout instead of growing an unbounded
//! response buffer — handlers are lockstep, one chunk of responses in
//! flight at a time. A peer that dribbles bytes without ever finishing a
//! line (slowloris) is evicted with `ERR code=slow-client` once its
//! partial line is older than `--line-deadline-ms`; per-connection
//! receive memory is bounded by the core's `--max-line` cap either way.
//!
//! Overload: the ticker measures each pump sweep and reports the
//! duration to the core as pressure ([`ServeCore::set_pressure`]); while
//! pressure exceeds `--deadline-ms` the core sheds new pushes with
//! `ERR code=overload retry-ms=N`.
//!
//! Shutdown paths, all ending in a final checkpoint and a clean `Ok(())`
//! from [`run`] (exit 0):
//!
//! * `SHUTDOWN` — checkpoint everything and exit now.
//! * `DRAIN` or SIGTERM — flush + checkpoint everything, answer
//!   straggler pushes with `ERR code=draining retry-ms=N` for a short
//!   grace, then exit. Zero-loss rolling restart: everything accepted is
//!   applied and persisted; anything un-acked is replayed by the client
//!   against the `HELLO` cursor of the replacement daemon.
//! * SIGKILL — loses only queued-but-unapplied lines, which clients
//!   replay from the `HELLO` cursor after restart.
//!
//! `SHUTDOWN` and `DRAIN` are idempotent: repeats answer the same `OK`
//! and the final checkpoint runs once, in [`run`]'s exit path.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use logdiver::exec;
use logdiver_types::protocol as codes;
use parking_lot::Mutex;

use crate::budget::BudgetPolicy;
use crate::server::{parse_tenant_config, ServeConfig, ServeCore, TenantOverrides};

/// How often the ticker pumps an otherwise-idle fleet.
const TICK: Duration = Duration::from_millis(250);

/// The daemon's flag surface (`logdiver serve` and the standalone
/// `logdiver-serve` binary parse the same flags into this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// `--listen`: bind address, e.g. `127.0.0.1:7044` (port `0` picks an
    /// ephemeral port; the chosen address is printed on startup).
    pub listen: String,
    /// `--tenants-dir` (repeatable): checkpoint replica directories.
    /// Every checkpoint is written to all of them; resume restores each
    /// tenant from the newest valid copy.
    pub tenants_dirs: Vec<PathBuf>,
    /// `--checkpoint-every`: auto-checkpoint cadence in applied records
    /// (0 disables the cadence; explicit `CHECKPOINT` still works).
    pub checkpoint_every: u64,
    /// `--evict-after`: evict a tenant to its checkpoint after this many
    /// idle pump sweeps (0 = never).
    pub evict_after: u64,
    /// `--mem-budget`: global open-state budget in bytes; the per-tenant
    /// quota is derived ([`BudgetPolicy::from_global`]).
    pub mem_budget: usize,
    /// `--shards`: worker threads for the tenant pump.
    pub shards: usize,
    /// `--tenant-config`: optional per-tenant `StreamConfig` override
    /// file (see [`parse_tenant_config`] for the format).
    pub tenant_config: Option<PathBuf>,
    /// `--max-line`: longest accepted protocol line in bytes; longer
    /// lines answer `ERR code=line-too-long` without disconnecting.
    pub max_line: usize,
    /// `--deadline-ms`: shed new pushes with `ERR code=overload` while a
    /// pump sweep takes longer than this (0 disables shedding).
    pub deadline_ms: u64,
    /// `--io-timeout-ms`: per-connection socket read/write deadline (0
    /// disables; an expired *write* drops the connection, an expired
    /// read just re-polls).
    pub io_timeout_ms: u64,
    /// `--line-deadline-ms`: evict a connection whose partial line has
    /// been dribbling for longer than this (0 disables the check).
    pub line_deadline_ms: u64,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            listen: "127.0.0.1:7044".to_string(),
            tenants_dirs: vec![PathBuf::from("tenants")],
            checkpoint_every: 10_000,
            evict_after: 0,
            mem_budget: 256 << 20,
            shards: exec::default_threads(),
            tenant_config: None,
            max_line: 64 << 10,
            deadline_ms: 1_000,
            io_timeout_ms: 5_000,
            line_deadline_ms: 10_000,
        }
    }
}

/// Usage text shared by the binary and the CLI subcommand.
pub const USAGE: &str = "\
usage: logdiver-serve [--listen ADDR] [--tenants-dir DIR]...
                      [--checkpoint-every N] [--evict-after N]
                      [--mem-budget BYTES] [--shards N]
                      [--tenant-config FILE] [--max-line BYTES]
                      [--deadline-ms MS] [--io-timeout-ms MS]
                      [--line-deadline-ms MS]

  --listen ADDR         bind address (default 127.0.0.1:7044; port 0 = ephemeral)
  --tenants-dir DIR     checkpoint replica directory (default ./tenants);
                        repeat the flag to replicate checkpoints across
                        several directories and resume from the newest
                        valid copy
  --checkpoint-every N  auto-checkpoint every N applied records (default 10000)
  --evict-after N       evict tenants idle for N pump sweeps (default 0 = never)
  --mem-budget BYTES    global open-state budget (default 268435456)
  --shards N            pump worker threads (default: CPU count)
  --tenant-config FILE  per-tenant overrides: '<tenant> key=value ...' lines
  --max-line BYTES      longest accepted protocol line (default 65536);
                        longer lines answer ERR code=line-too-long
  --deadline-ms MS      shed pushes with ERR code=overload while a pump
                        sweep exceeds MS (default 1000; 0 = never shed)
  --io-timeout-ms MS    socket read/write deadline (default 5000; 0 = none)
  --line-deadline-ms MS evict a connection dribbling one line for longer
                        than MS (default 10000; 0 = never)";

/// Parses the daemon flags. Accepts `--name value` and `--name=value`;
/// any unknown, duplicate (except the repeatable `--tenants-dir`), or
/// valueless option is an error (the callers exit 2 with [`USAGE`]).
pub fn parse_flags(args: &[String]) -> Result<DaemonConfig, String> {
    let mut config = DaemonConfig::default();
    let mut seen: Vec<String> = Vec::new();
    let mut dirs_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (name, inline_value) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if !name.starts_with("--") {
            return Err(format!("unexpected argument '{arg}'"));
        }
        if name != "--tenants-dir" {
            if seen.iter().any(|s| s == name) {
                return Err(format!("duplicate option '{name}'"));
            }
            seen.push(name.to_string());
        }
        let mut value = || -> Result<String, String> {
            match inline_value.clone() {
                Some(v) => Ok(v),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("option '{name}' needs a value")),
            }
        };
        match name {
            "--listen" => config.listen = value()?,
            "--tenants-dir" => {
                // The first occurrence replaces the default; later ones
                // add replicas.
                if !dirs_given {
                    config.tenants_dirs.clear();
                    dirs_given = true;
                }
                config.tenants_dirs.push(PathBuf::from(value()?));
            }
            "--checkpoint-every" => config.checkpoint_every = parse_num(name, &value()?)?,
            "--evict-after" => config.evict_after = parse_num(name, &value()?)?,
            "--tenant-config" => config.tenant_config = Some(PathBuf::from(value()?)),
            "--mem-budget" => config.mem_budget = parse_num(name, &value()?)? as usize,
            "--shards" => {
                let n = parse_num(name, &value()?)?;
                if n == 0 {
                    return Err("option '--shards' must be at least 1".to_string());
                }
                config.shards = n as usize;
            }
            "--max-line" => {
                let n = parse_num(name, &value()?)?;
                if n == 0 {
                    return Err("option '--max-line' must be at least 1".to_string());
                }
                config.max_line = n as usize;
            }
            "--deadline-ms" => config.deadline_ms = parse_num(name, &value()?)?,
            "--io-timeout-ms" => config.io_timeout_ms = parse_num(name, &value()?)?,
            "--line-deadline-ms" => config.line_deadline_ms = parse_num(name, &value()?)?,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(config)
}

/// The whole command line — `--help`, [`parse_flags`], [`run`] — as the
/// `logdiver-serve` binary and `logdiver serve` both run it. Returns the
/// process exit status: 0 after a clean shutdown, 1 when the daemon
/// failed, 2 on a usage error.
pub fn run_cli(args: &[String]) -> u8 {
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return 0;
    }
    let config = match parse_flags(args) {
        Ok(config) => config,
        Err(message) => {
            eprintln!("logdiver-serve: {message}");
            eprintln!("{USAGE}");
            return 2;
        }
    };
    match run(config) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("logdiver-serve: {e}");
            1
        }
    }
}

fn parse_num(name: &str, raw: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|_| format!("option '{name}' expects a non-negative integer, got '{raw}'"))
}

impl DaemonConfig {
    /// The equivalent core configuration (overrides from
    /// `--tenant-config` are loaded separately by
    /// [`DaemonConfig::load_overrides`]).
    pub fn serve_config(&self) -> ServeConfig {
        let mut serve = ServeConfig {
            tenants_dirs: self.tenants_dirs.clone(),
            budget: BudgetPolicy::from_global(self.mem_budget),
            shards: self.shards,
            checkpoint_every: self.checkpoint_every,
            evict_after: self.evict_after,
            max_line_bytes: self.max_line,
            ..ServeConfig::default()
        };
        serve.overload.deadline_ms = self.deadline_ms;
        serve
    }

    /// Reads and parses the `--tenant-config` file, if one was given.
    pub fn load_overrides(
        &self,
    ) -> Result<std::collections::BTreeMap<String, TenantOverrides>, String> {
        let Some(path) = &self.tenant_config else {
            return Ok(std::collections::BTreeMap::new());
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("--tenant-config {}: {e}", path.display()))?;
        parse_tenant_config(&text).map_err(|e| format!("--tenant-config {}: {e}", path.display()))
    }

    /// The socket-facing half of the flags, handed to each handler.
    fn conn_policy(&self) -> ConnPolicy {
        ConnPolicy {
            io_timeout: (self.io_timeout_ms > 0).then(|| Duration::from_millis(self.io_timeout_ms)),
            line_deadline: (self.line_deadline_ms > 0)
                .then(|| Duration::from_millis(self.line_deadline_ms)),
        }
    }
}

/// Per-connection socket policy derived from the flags.
#[derive(Debug, Clone, Copy)]
struct ConnPolicy {
    io_timeout: Option<Duration>,
    line_deadline: Option<Duration>,
}

/// Runs the daemon until `SHUTDOWN`, `DRAIN`, or SIGTERM, then
/// checkpoints every tenant a final time and returns `Ok(())` — the
/// binary's exit 0. Prints `logdiver-serve listening on <addr>` once
/// bound so drivers using an ephemeral port can discover it.
pub fn run(config: DaemonConfig) -> std::io::Result<()> {
    let mut serve = config.serve_config();
    serve.overrides = config
        .load_overrides()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let core = ServeCore::new(serve)?;
    for warning in core.warnings() {
        eprintln!("logdiver-serve: warning: {warning}");
    }
    eprintln!(
        "logdiver-serve: {} checkpoint replica(s), durability={}",
        config.tenants_dirs.len(),
        core.durability().label()
    );
    let resumed = core.tenant_names();
    if !resumed.is_empty() {
        eprintln!(
            "logdiver-serve: resumed {} tenant(s): {}",
            resumed.len(),
            resumed.join(", ")
        );
    }
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    println!("logdiver-serve listening on {addr}");
    std::io::stdout().flush()?;

    sigterm::install();
    let core = Arc::new(Mutex::new(core));
    let exit = Arc::new(AtomicBool::new(false));

    // Idle ticker: advance watermarks, run the checkpoint cadence, feed
    // the measured sweep duration back as overload pressure, translate
    // SIGTERM into a DRAIN, and trip the exit path once the core says so.
    let ticker_core = Arc::clone(&core);
    let ticker_exit = Arc::clone(&exit);
    std::thread::spawn(move || loop {
        std::thread::sleep(TICK);
        if ticker_exit.load(Ordering::SeqCst) {
            break;
        }
        if sigterm::pending() {
            let mut core = ticker_core.lock();
            if !core.draining() {
                eprintln!("logdiver-serve: SIGTERM, draining");
                let resp = core.handle_line("DRAIN");
                eprintln!("logdiver-serve: {resp}");
            }
        }
        let t0 = Instant::now();
        let mut core = ticker_core.lock();
        core.pump();
        core.set_pressure(t0.elapsed().as_millis() as u64);
        let stop = core.should_exit();
        drop(core);
        if stop {
            request_exit(&ticker_exit, addr);
            break;
        }
    });

    for stream in listener.incoming() {
        if exit.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let conn_core = Arc::clone(&core);
        let conn_exit = Arc::clone(&exit);
        let policy = config.conn_policy();
        std::thread::spawn(move || handle_connection(stream, conn_core, conn_exit, addr, policy));
    }

    let mut core = core.lock();
    let n = core.checkpoint_all();
    eprintln!(
        "logdiver-serve: exiting, checkpointed {n} tenant(s), durability={}",
        core.durability().label()
    );
    Ok(())
}

/// Flags the accept loop down and pokes it awake with a throwaway
/// connection so the blocking `accept` returns. Idempotent.
fn request_exit(exit: &AtomicBool, addr: std::net::SocketAddr) {
    exit.store(true, Ordering::SeqCst);
    let _ = TcpStream::connect(addr);
}

/// Moves bytes between one socket and the core, lockstep: read a chunk,
/// feed it, write the responses, flush. The lockstep is itself the
/// response-buffer bound — at most one chunk's responses are ever in
/// flight, and the write deadline disconnects a peer that stops reading
/// them.
fn handle_connection(
    mut stream: TcpStream,
    core: Arc<Mutex<ServeCore>>,
    exit: Arc<AtomicBool>,
    addr: std::net::SocketAddr,
    policy: ConnPolicy,
) {
    let conn = core.lock().open_conn();
    if let Some(t) = policy.io_timeout {
        let _ = stream.set_read_timeout(Some(t));
        let _ = stream.set_write_timeout(Some(t));
    }
    let mut chunk = [0u8; 4096];
    // When the partial line now buffered for this connection started —
    // the slowloris clock. `None` between lines.
    let mut line_started: Option<Instant> = None;
    loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle is fine; a stalled partial line is not.
                if is_slow(line_started, policy) {
                    evict_slow(&mut stream, policy);
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let (responses, fragment, stop) = {
            let mut core = core.lock();
            let responses = core.feed(conn, &chunk[..n]);
            (responses, core.pending_fragment(conn), core.should_exit())
        };
        line_started = if fragment > 0 {
            line_started.or_else(|| Some(Instant::now()))
        } else {
            None
        };
        if is_slow(line_started, policy) {
            evict_slow(&mut stream, policy);
            break;
        }
        let mut out = String::new();
        for response in &responses {
            out.push_str(response);
            out.push('\n');
        }
        if stream.write_all(out.as_bytes()).is_err() || stream.flush().is_err() {
            break;
        }
        if stop {
            request_exit(&exit, addr);
            break;
        }
    }
    core.lock().close_conn(conn);
}

/// Whether this connection's partial line has been dribbling past the
/// deadline.
fn is_slow(line_started: Option<Instant>, policy: ConnPolicy) -> bool {
    match (line_started, policy.line_deadline) {
        (Some(t0), Some(deadline)) => t0.elapsed() >= deadline,
        _ => false,
    }
}

/// Best-effort goodbye to a slowloris peer, then the caller disconnects.
fn evict_slow(stream: &mut TcpStream, policy: ConnPolicy) {
    let deadline_ms = policy.line_deadline.map_or(0, |d| d.as_millis() as u64);
    let msg = format!(
        "ERR code={} deadline-ms={deadline_ms}\n",
        codes::SLOW_CLIENT
    );
    let _ = stream.write_all(msg.as_bytes());
    let _ = stream.flush();
}

/// Graceful SIGTERM: the handler only flips a flag; the ticker notices
/// it between sweeps and runs the normal `DRAIN` path (flush, final
/// checkpoint, retry hints for stragglers, exit 0).
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    type SigHandler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: SigHandler) -> usize;
    }

    extern "C" fn on_sigterm(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }

    pub fn pending() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub fn install() {}
    pub fn pending() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_overrides() {
        let d = parse_flags(&[]).unwrap();
        assert_eq!(d, DaemonConfig::default());
        let d = parse_flags(&argv(&[
            "--listen",
            "0.0.0.0:9000",
            "--tenants-dir=/tmp/t",
            "--checkpoint-every",
            "500",
            "--evict-after=64",
            "--mem-budget=1048576",
            "--shards",
            "4",
            "--tenant-config",
            "/tmp/overrides.conf",
            "--max-line=1024",
            "--deadline-ms",
            "250",
            "--io-timeout-ms=2000",
            "--line-deadline-ms",
            "3000",
        ]))
        .unwrap();
        assert_eq!(d.listen, "0.0.0.0:9000");
        assert_eq!(d.tenants_dirs, vec![PathBuf::from("/tmp/t")]);
        assert_eq!(d.checkpoint_every, 500);
        assert_eq!(d.evict_after, 64);
        assert_eq!(d.mem_budget, 1 << 20);
        assert_eq!(d.shards, 4);
        assert_eq!(d.tenant_config, Some(PathBuf::from("/tmp/overrides.conf")));
        assert_eq!(d.max_line, 1024);
        assert_eq!(d.deadline_ms, 250);
        assert_eq!(d.io_timeout_ms, 2000);
        assert_eq!(d.line_deadline_ms, 3000);
    }

    #[test]
    fn tenants_dir_is_repeatable_and_replaces_the_default() {
        let d = parse_flags(&argv(&["--tenants-dir", "/a", "--tenants-dir=/b"])).unwrap();
        assert_eq!(
            d.tenants_dirs,
            vec![PathBuf::from("/a"), PathBuf::from("/b")]
        );
        // No flag: the single default dir.
        let d = parse_flags(&[]).unwrap();
        assert_eq!(d.tenants_dirs, vec![PathBuf::from("tenants")]);
    }

    #[test]
    fn unknown_duplicate_and_malformed_flags_error() {
        assert!(parse_flags(&argv(&["--bogus"]))
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_flags(&argv(&["--listen", "a", "--listen", "b"]))
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse_flags(&argv(&["--shards"]))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse_flags(&argv(&["--shards", "zero"]))
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse_flags(&argv(&["--shards", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_flags(&argv(&["--max-line", "0"]))
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_flags(&argv(&["positional"]))
            .unwrap_err()
            .contains("unexpected"));
    }

    #[test]
    fn serve_config_derives_budget_and_hardening() {
        let d = parse_flags(&argv(&[
            "--mem-budget",
            "8388608",
            "--max-line=2048",
            "--deadline-ms=750",
        ]))
        .unwrap();
        let c = d.serve_config();
        assert_eq!(c.budget.global_bytes, 8 << 20);
        assert_eq!(c.budget.quota_bytes, 1 << 20);
        assert_eq!(c.tenants_dirs, vec![PathBuf::from("tenants")]);
        assert_eq!(c.evict_after, 0);
        assert_eq!(c.max_line_bytes, 2048);
        assert_eq!(c.overload.deadline_ms, 750);
    }

    #[test]
    fn conn_policy_zero_disables() {
        let mut d = DaemonConfig {
            io_timeout_ms: 0,
            line_deadline_ms: 0,
            ..DaemonConfig::default()
        };
        let p = d.conn_policy();
        assert!(p.io_timeout.is_none());
        assert!(p.line_deadline.is_none());
        d.io_timeout_ms = 100;
        d.line_deadline_ms = 200;
        let p = d.conn_policy();
        assert_eq!(p.io_timeout, Some(Duration::from_millis(100)));
        assert_eq!(p.line_deadline, Some(Duration::from_millis(200)));
    }
}
