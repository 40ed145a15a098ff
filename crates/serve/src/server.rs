//! [`ServeCore`]: the daemon's deterministic heart.
//!
//! The core is socket-free and wall-clock-free: connections are opaque
//! ids, input arrives as byte chunks via [`ServeCore::feed`], and every
//! complete protocol line yields exactly one response string. The TCP
//! daemon ([`crate::daemon`]) is a thin shell that moves bytes between
//! sockets and this struct — which is what lets the equivalence and
//! crash/resume proptests drive the whole server in-process, byte
//! transcripts in, analyses out, with no timing dependence.
//!
//! Tenants are pumped in batches across the batch pipeline's
//! work-stealing executor ([`logdiver::exec::par_map`]): the protocol
//! path only validates and enqueues, and every `PUMP_EVERY` accepted
//! lines (or on any control verb) the queued work for *all* tenants is
//! sharded across `shards` workers. Five hundred tenants cost five
//! hundred engines but only `shards` threads.
//!
//! Durability goes through [`crate::store::CheckpointStore`]: every
//! checkpoint is replicated across the configured replica dirs, resume
//! restores each tenant from the newest valid copy, and a dead replica
//! degrades the reported durability level instead of stalling ingestion.
//! All filesystem traffic runs through the [`Fs`] seam, so the chaos
//! tests can inject torn writes, ENOSPC, and bit rot deterministically
//! via [`ServeCore::with_fs`].
//!
//! Tenants have a lifecycle: a tenant idle for more than `evict_after`
//! pump sweeps is checkpointed and dropped from memory, then
//! transparently resurrected from the store the next time any verb
//! references it; `DROP` destroys a tenant outright, leaving tombstones
//! so a restart does not bring it back.
//!
//! The core also carries the overload and drain machinery (DESIGN.md
//! §17): per-connection receive buffers are bounded by
//! [`ServeConfig::max_line_bytes`] (over-long lines answer
//! `ERR code=line-too-long` without disconnecting), the shell reports
//! each pump sweep's duration via [`ServeCore::set_pressure`] and pushes
//! are shed with `ERR code=overload retry-ms=N` while that pressure
//! exceeds the configured deadline, and the `DRAIN` verb flushes and
//! checkpoints every tenant, answers straggler pushes with
//! `ERR code=draining retry-ms=N`, and flips [`ServeCore::should_exit`]
//! after a short grace — the zero-loss half of a rolling restart.
//! Replayed duplicates answer `OK dup` through all of it, so a resilient
//! client can always settle its cursor.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::Arc;

use logdiver::exec;
use logdiver::pipeline::Analysis;
use logdiver_stream::{Source, StreamCheckpoint, StreamConfig};
use logdiver_types::fsio::{Fs, RealFs};
use logdiver_types::protocol as codes;
use logdiver_types::{SimDuration, Timestamp};
use serde::Serialize;

use crate::budget::{Admission, BudgetPolicy, OverloadPolicy};
use crate::proto::{self, Request};
use crate::store::{CheckpointStore, Durability, StorePolicy, StoreSnapshot};
use crate::tenant::{Offer, Tenant};

/// How many accepted pushes may queue fleet-wide before the core pumps
/// every tenant. Control verbs (`FLUSH`/`SNAPSHOT`/`CHECKPOINT`/`REPORT`)
/// always pump first, so this only bounds staleness and queue memory on
/// a pure push workload.
const PUMP_EVERY: u64 = 1024;

/// How many pump sweeps a draining core stays alive after the drain
/// completed, answering straggler requests with retry hints, before
/// [`ServeCore::should_exit`] turns true. At the daemon's tick cadence
/// this is roughly half a second of grace.
const DRAIN_GRACE_SWEEPS: u64 = 2;

/// Daemon-level configuration (the flag surface of `logdiver serve`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Replica directories for tenant checkpoints (`--tenants-dir`,
    /// repeatable): every checkpoint is written to all of them, resume
    /// restores from the newest valid copy. Empty disables persistence
    /// (and `CHECKPOINT` returns an error).
    pub tenants_dirs: Vec<PathBuf>,
    /// Global/per-tenant memory limits.
    pub budget: BudgetPolicy,
    /// Worker threads for the tenant pump (the `--shards` flag).
    pub shards: usize,
    /// Auto-checkpoint every N applied records fleet-wide (0 = only on
    /// explicit `CHECKPOINT`/shutdown).
    pub checkpoint_every: u64,
    /// Evict a tenant to its checkpoint after this many consecutive pump
    /// sweeps with no traffic and nothing queued (0 = never evict).
    pub evict_after: u64,
    /// Fleet-default per-tenant engine configuration.
    pub stream: StreamConfig,
    /// Per-tenant `StreamConfig` overrides (from `--tenant-config`;
    /// `HELLO` options add to this at runtime).
    pub overrides: BTreeMap<String, TenantOverrides>,
    /// Replica health machine tuning.
    pub store: StorePolicy,
    /// Longest accepted protocol line in bytes (`--max-line`). A
    /// connection feeding a longer line has the excess discarded (its
    /// buffer stays bounded) and is answered `ERR code=line-too-long`
    /// once the line finally terminates; the connection stays usable.
    pub max_line_bytes: usize,
    /// Deadline-aware overload shedding and retry-hint shaping.
    pub overload: OverloadPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants_dirs: Vec::new(),
            budget: BudgetPolicy::default(),
            shards: exec::default_threads(),
            checkpoint_every: 10_000,
            evict_after: 0,
            stream: StreamConfig::default(),
            overrides: BTreeMap::new(),
            store: StorePolicy::default(),
            max_line_bytes: 64 << 10,
            overload: OverloadPolicy::default(),
        }
    }
}

/// Per-tenant overrides of the fleet-default [`StreamConfig`], settable
/// via `HELLO <tenant> key=value …` or a `--tenant-config` file. `None`
/// means "use the fleet default".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantOverrides {
    /// Allowed lateness in seconds (`lateness=<secs>`).
    pub lateness_secs: Option<i64>,
    /// Quarantined lines kept per source (`quarantine-keep=<n>`).
    pub quarantine_keep: Option<usize>,
}

impl TenantOverrides {
    /// Applies one `key=value` option. Unknown keys and unparseable
    /// values produce the full machine-readable `ERR` line.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "lateness" => match value.parse::<i64>() {
                Ok(secs) if secs >= 0 => {
                    self.lateness_secs = Some(secs);
                    Ok(())
                }
                _ => Err(bad_option(key, value)),
            },
            "quarantine-keep" => match value.parse::<usize>() {
                Ok(keep) => {
                    self.quarantine_keep = Some(keep);
                    Ok(())
                }
                Err(_) => Err(bad_option(key, value)),
            },
            _ => Err(format!(
                "ERR code={} key={}",
                codes::UNKNOWN_OPTION,
                proto::sanitize(key)
            )),
        }
    }
}

fn bad_option(key: &str, value: &str) -> String {
    format!(
        "ERR code={} key={} value={}",
        codes::BAD_OPTION,
        proto::sanitize(key),
        proto::sanitize(value)
    )
}

/// Parses a `--tenant-config` file: one tenant per line,
/// `<tenant> key=value [key=value …]`, `#` comments and blank lines
/// ignored. Unknown keys, bad values, bad tenant names, and duplicate
/// tenant lines are errors (reported with their line number).
pub fn parse_tenant_config(text: &str) -> Result<BTreeMap<String, TenantOverrides>, String> {
    let mut overrides = BTreeMap::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let Some(tenant) = tokens.next() else {
            continue;
        };
        if !proto::valid_tenant_name(tenant) {
            return Err(format!("line {}: bad tenant name {tenant:?}", lineno + 1));
        }
        let mut ov = TenantOverrides::default();
        for token in tokens {
            let Some((key, value)) = token.split_once('=') else {
                return Err(format!(
                    "line {}: expected key=value, got {token:?}",
                    lineno + 1
                ));
            };
            if let Err(err) = ov.set(key, value) {
                return Err(format!("line {}: {err}", lineno + 1));
            }
        }
        if overrides.insert(tenant.to_string(), ov).is_some() {
            return Err(format!("line {}: duplicate tenant {tenant}", lineno + 1));
        }
    }
    Ok(overrides)
}

/// The effective engine config for one tenant: fleet default, overlaid
/// with the tenant's overrides. When resuming and no explicit lateness
/// override exists, the checkpoint's own recorded lateness is adopted —
/// the checkpoint is self-describing, and the released watermark already
/// baked that value in.
fn stream_for(
    config: &ServeConfig,
    overrides: &BTreeMap<String, TenantOverrides>,
    name: &str,
    ckpt: Option<&StreamCheckpoint>,
) -> StreamConfig {
    let ov = overrides.get(name).copied().unwrap_or_default();
    let mut stream = config.stream.clone();
    match (ov.lateness_secs, ckpt) {
        (Some(secs), _) => stream = stream.with_lateness(SimDuration::from_secs(secs)),
        (None, Some(c)) => stream = stream.with_lateness(SimDuration::from_secs(c.lateness_secs)),
        (None, None) => {}
    }
    if let Some(keep) = ov.quarantine_keep {
        stream = stream.with_quarantine_keep(keep);
    }
    stream
}

/// Fleet-wide counters, serialized by the aggregate `SNAPSHOT`.
#[derive(Debug, Default, Clone, Serialize)]
pub struct ServeStats {
    /// Pushes accepted (queued) in total.
    pub accepted: u64,
    /// Records applied to engines in total.
    pub applied: u64,
    /// Duplicate pushes answered `OK dup`.
    pub dups: u64,
    /// Out-of-order pushes answered `ERR code=gap`.
    pub gaps: u64,
    /// Pushes rejected over per-tenant quota.
    pub shed_quota: u64,
    /// Pushes shed over the global budget.
    pub shed_budget: u64,
    /// Checkpoint sweeps in which at least one tenant could not be
    /// persisted to any replica.
    pub checkpoint_errors: u64,
    /// Idle tenants evicted to their checkpoints.
    pub evicted: u64,
    /// Evicted tenants resurrected from the store on a later reference.
    pub resurrected: u64,
    /// `DROP` requests processed.
    pub dropped: u64,
    /// Pushes shed with `ERR code=overload` (pump pressure over the
    /// deadline).
    pub shed_overload: u64,
    /// Pushes shed with `ERR code=draining` while the core drains.
    pub shed_draining: u64,
    /// Over-long lines rejected with `ERR code=line-too-long`.
    pub line_too_long: u64,
    /// Lines rejected with `ERR code=bad-utf8`.
    pub bad_utf8: u64,
}

/// One connection's receive state: the partial line being assembled, and
/// whether the line under assembly already blew past `max_line_bytes`
/// (its bytes are being discarded until the terminating newline, at
/// which point one `ERR code=line-too-long` is answered).
#[derive(Debug, Default)]
struct ConnBuf {
    buf: Vec<u8>,
    discarding: bool,
}

/// The multi-tenant core. See the module docs.
#[derive(Debug)]
pub struct ServeCore {
    config: ServeConfig,
    store: Option<CheckpointStore>,
    overrides: BTreeMap<String, TenantOverrides>,
    tenants: BTreeMap<String, Tenant>,
    /// Tenants checkpointed out of memory, resurrectable from the store.
    evicted: BTreeSet<String>,
    conns: HashMap<u64, ConnBuf>,
    next_conn: u64,
    fleet_cost: usize,
    unpumped: u64,
    since_checkpoint: u64,
    stats: ServeStats,
    shutdown: bool,
    /// Drain mode: set by `DRAIN`, never cleared — the daemon restarts
    /// instead.
    draining: bool,
    /// Pump sweeps completed since drain mode began (the grace clock).
    drained_sweeps: u64,
    /// Last pump-sweep duration reported by the shell via
    /// [`ServeCore::set_pressure`] — the overload signal.
    pressure_ms: u64,
    /// Monotonic salt for retry-hint jitter.
    retry_salt: u64,
    warnings: Vec<String>,
}

impl ServeCore {
    /// Builds a core over the real filesystem, resuming every tenant
    /// that has a valid checkpoint on any replica. See
    /// [`ServeCore::with_fs`].
    pub fn new(config: ServeConfig) -> std::io::Result<Self> {
        Self::with_fs(config, Arc::new(RealFs))
    }

    /// Builds a core over an arbitrary [`Fs`] (the chaos tests inject
    /// faulty filesystems here). Each tenant with a checkpoint resumes
    /// from the *newest valid* replica copy; corrupt copies are moved
    /// aside and warned about ([`ServeCore::warnings`]), and a tenant
    /// with no valid copy anywhere is skipped rather than refusing to
    /// start the rest of the fleet. Replica dirs that cannot even be
    /// created start out Failed — durability degrades, startup proceeds.
    pub fn with_fs(config: ServeConfig, fs: Arc<dyn Fs>) -> std::io::Result<Self> {
        let mut warnings = Vec::new();
        let overrides = config.overrides.clone();
        let mut store = if config.tenants_dirs.is_empty() {
            None
        } else {
            Some(CheckpointStore::open(
                fs,
                &config.tenants_dirs,
                config.store,
            ))
        };
        let mut tenants = BTreeMap::new();
        let mut fleet_cost = 0;
        if let Some(store) = store.as_mut() {
            let names: Vec<String> = store
                .list_tenants(&mut warnings)
                .into_iter()
                .filter(|n| proto::valid_tenant_name(n))
                .collect();
            for name in names {
                match store.read_newest(&name, &mut warnings) {
                    Some(ckpt) => {
                        let stream = stream_for(&config, &overrides, &name, Some(&ckpt));
                        match Tenant::resume(name.clone(), stream, &ckpt) {
                            Ok(tenant) => {
                                fleet_cost += tenant.cost();
                                tenants.insert(name, tenant);
                            }
                            Err(e) => warnings.push(format!("tenant {name}: {e}")),
                        }
                    }
                    None => {
                        warnings.push(format!("tenant {name}: no valid checkpoint on any replica"))
                    }
                }
            }
        }
        Ok(ServeCore {
            config,
            store,
            overrides,
            tenants,
            evicted: BTreeSet::new(),
            conns: HashMap::new(),
            next_conn: 0,
            fleet_cost,
            unpumped: 0,
            since_checkpoint: 0,
            stats: ServeStats::default(),
            shutdown: false,
            draining: false,
            drained_sweeps: 0,
            pressure_ms: 0,
            retry_salt: 0,
            warnings,
        })
    }

    /// Problems encountered while resuming or resurrecting tenants.
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Whether a `SHUTDOWN` request has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Whether the core is in drain mode (a `DRAIN` request arrived).
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Whether the shell should stop accepting connections and exit 0:
    /// after `SHUTDOWN`, or once a drain has sat through its grace
    /// sweeps (straggler clients got their retry hints).
    pub fn should_exit(&self) -> bool {
        self.shutdown || (self.draining && self.drained_sweeps >= DRAIN_GRACE_SWEEPS)
    }

    /// Reports the latest observed pump-sweep duration. The shell is the
    /// only party with a wall clock; the core just compares this against
    /// [`OverloadPolicy::deadline_ms`] to decide when to shed.
    pub fn set_pressure(&mut self, pump_ms: u64) {
        self.pressure_ms = pump_ms;
    }

    /// The pressure last reported via [`ServeCore::set_pressure`].
    pub fn pressure_ms(&self) -> u64 {
        self.pressure_ms
    }

    /// Bytes of the partial line currently buffered for `conn` (0 when
    /// the connection is between lines). The shell uses this to tell a
    /// dribbling slowloris connection from an idle one.
    pub fn pending_fragment(&self, conn: u64) -> usize {
        self.conns.get(&conn).map_or(0, |c| c.buf.len())
    }

    /// Names of the tenants currently hot in memory, sorted. Evicted
    /// tenants ([`ServeCore::evicted_names`]) are not listed here.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// Names of tenants evicted to their checkpoints, sorted.
    pub fn evicted_names(&self) -> Vec<String> {
        self.evicted.iter().cloned().collect()
    }

    /// Fleet counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The current fleet durability level ([`Durability::None`] when no
    /// replica dirs are configured).
    pub fn durability(&self) -> Durability {
        self.store
            .as_ref()
            .map_or(Durability::None, CheckpointStore::durability)
    }

    /// The store's health/durability snapshot, when persistence is on.
    pub fn store_snapshot(&self) -> Option<StoreSnapshot> {
        self.store.as_ref().map(CheckpointStore::snapshot)
    }

    /// Registers a connection and returns its id.
    pub fn open_conn(&mut self) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(id, ConnBuf::default());
        id
    }

    /// Drops a connection. Any incomplete trailing line is discarded —
    /// a mid-line disconnect never half-applies a request; the client
    /// replays it (idempotently) on the next connection.
    pub fn close_conn(&mut self, conn: u64) {
        self.conns.remove(&conn);
    }

    /// Feeds raw bytes from a connection and returns one response per
    /// complete protocol line, in order. Bytes after the last newline
    /// stay buffered until the next feed.
    ///
    /// Per-connection memory is bounded by `max_line_bytes`: once a line
    /// under assembly exceeds the limit its buffer is released and the
    /// rest of the line is discarded as it arrives; the terminating
    /// newline yields one `ERR code=line-too-long` and the connection
    /// keeps working. Lines that are not valid UTF-8 answer
    /// `ERR code=bad-utf8` — a torn multi-byte sequence must not be
    /// half-applied as a mangled request.
    pub fn feed(&mut self, conn: u64, bytes: &[u8]) -> Vec<String> {
        let max = self.config.max_line_bytes.max(1);
        let mut state = self.conns.remove(&conn).unwrap_or_default();
        let mut responses = Vec::new();
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if state.discarding || state.buf.len() + head.len() > max {
                state.buf = Vec::new();
                state.discarding = false;
                self.stats.line_too_long += 1;
                responses.push(format!("ERR code={} limit={max}", codes::LINE_TOO_LONG));
                continue;
            }
            state.buf.extend_from_slice(head);
            let raw = std::mem::take(&mut state.buf);
            match String::from_utf8(raw) {
                Ok(line) => responses.push(self.handle_line(&line)),
                Err(_) => {
                    self.stats.bad_utf8 += 1;
                    responses.push(format!("ERR code={}", codes::BAD_UTF8));
                }
            }
        }
        if !state.discarding {
            if state.buf.len() + rest.len() > max {
                state.buf = Vec::new();
                state.discarding = true;
            } else {
                state.buf.extend_from_slice(rest);
            }
        }
        self.conns.insert(conn, state);
        responses
    }

    /// Handles one complete request line.
    pub fn handle_line(&mut self, line: &str) -> String {
        let request = match proto::parse(line) {
            Ok(r) => r,
            Err(e) => return e.response(),
        };
        match request {
            Request::Hello { tenant, options } => self.handle_hello(tenant, &options),
            Request::Push {
                tenant,
                source,
                index,
                line,
            } => self.handle_push(tenant, source, index, line),
            Request::Flush { tenant } => {
                if !self.is_known(tenant) {
                    return unknown_tenant(tenant);
                }
                self.tenant_entry(tenant);
                self.pump();
                // Pump is fleet-wide; the reply reports this tenant.
                match self.tenants.get(tenant) {
                    Some(t) => format!("OK applied={}", cursor(&t.applied())),
                    None => unknown_tenant(tenant),
                }
            }
            Request::Snapshot { tenant } => self.handle_snapshot(tenant),
            Request::Checkpoint { tenant } => self.handle_checkpoint(tenant),
            Request::Report { tenant } => {
                if !self.is_known(tenant) {
                    return unknown_tenant(tenant);
                }
                self.tenant_entry(tenant);
                self.pump();
                let body = match self.tenants.get_mut(tenant) {
                    Some(t) => {
                        let analysis = t.preview();
                        logdiver::report::full_report(&analysis.metrics, &analysis.stats)
                    }
                    None => return unknown_tenant(tenant),
                };
                let body = body.trim_end_matches('\n');
                let n = body.lines().count();
                let durability = self.durability().label();
                let corrupt = self
                    .store
                    .as_ref()
                    .map_or(0, CheckpointStore::corrupt_preserved);
                format!("OK lines={n} durability={durability} corrupt-preserved={corrupt}\n{body}")
            }
            Request::Drop { tenant } => self.handle_drop(tenant),
            Request::Drain => self.handle_drain(),
            Request::Shutdown => {
                self.shutdown = true;
                "OK shutting-down".to_string()
            }
        }
    }

    /// Enters drain mode: flush every queued record, checkpoint every
    /// tenant, and from now on answer new pushes with a retry hint so
    /// stragglers move on to the replacement daemon. Idempotent — a
    /// repeated `DRAIN` re-flushes (a no-op when nothing arrived) and
    /// answers the same `OK`. [`ServeCore::should_exit`] turns true a
    /// couple of sweeps later.
    fn handle_drain(&mut self) -> String {
        let first = !self.draining;
        self.draining = true;
        if first {
            self.drained_sweeps = 0;
        }
        self.pump();
        let n = if self.store.is_some() {
            self.checkpoint_all()
        } else {
            // No persistence configured: drained state lives only in
            // memory, but queues are flushed and cursors settled.
            self.tenants.len()
        };
        format!(
            "OK draining tenants={n} durability={}",
            self.durability().label()
        )
    }

    /// Whether `name` is a tenant this core knows — hot or evicted.
    fn is_known(&self, name: &str) -> bool {
        self.tenants.contains_key(name) || self.evicted.contains(name)
    }

    fn handle_hello(&mut self, tenant: &str, options: &[(&str, &str)]) -> String {
        // Validate all options before any side effect.
        let mut requested = TenantOverrides::default();
        for (key, value) in options {
            if let Err(err) = requested.set(key, value) {
                return err;
            }
        }
        if self.is_known(tenant) {
            // An existing tenant's engine already baked its config in:
            // options must agree with the effective values, else the
            // client gets a machine-readable conflict.
            let current = self.overrides.get(tenant).copied().unwrap_or_default();
            for (key, _) in options {
                let agrees = match *key {
                    "lateness" => {
                        let effective = current
                            .lateness_secs
                            .unwrap_or_else(|| self.config.stream.lateness.as_secs());
                        requested.lateness_secs == Some(effective)
                    }
                    "quarantine-keep" => {
                        let effective = current
                            .quarantine_keep
                            .unwrap_or(self.config.stream.quarantine_keep);
                        requested.quarantine_keep == Some(effective)
                    }
                    _ => true,
                };
                if !agrees {
                    return format!(
                        "ERR code={} tenant={tenant} key={}",
                        codes::CONFIG_CONFLICT,
                        proto::sanitize(key)
                    );
                }
            }
        } else if !options.is_empty() {
            self.overrides.insert(tenant.to_string(), requested);
        }
        let Some(t) = self.tenant_entry(tenant) else {
            return unknown_tenant(tenant);
        };
        format!("OK tenant={} accepted={}", t.name, cursor(&t.accepted()))
    }

    fn handle_drop(&mut self, tenant: &str) -> String {
        if let Some(t) = self.tenants.remove(tenant) {
            self.fleet_cost = self.fleet_cost.saturating_sub(t.cost());
        }
        self.evicted.remove(tenant);
        self.overrides.remove(tenant);
        let tombstones = match self.store.as_mut() {
            Some(store) => store.drop_tenant(tenant),
            None => 0,
        };
        self.stats.dropped += 1;
        format!("OK tenant={tenant} tombstones={tombstones}")
    }

    fn handle_push(&mut self, tenant: &str, source: Source, index: u64, line: &str) -> String {
        let fleet_cost = self.fleet_cost;
        let budget = self.config.budget;
        let draining = self.draining;
        let overloaded = self.config.overload.overloaded(self.pressure_ms);
        // A shed push of a tenant this core has never seen must not
        // materialize it — a drained or overloaded daemon does not grow
        // its fleet for work it is refusing.
        if (draining || overloaded) && !self.is_known(tenant) {
            return self.shed_hint(draining);
        }
        // Materialize the tenant first so a brand-new tenant's first push
        // sees itself in the fair-share denominator.
        self.tenant_entry(tenant);
        let active = self.tenants.len();

        enum Outcome {
            Dup,
            Gap(u64),
            Shed { msg: String, quota: bool },
            Hint,
            Accepted,
        }
        let outcome = {
            let Some(t) = self.tenants.get_mut(tenant) else {
                return unknown_tenant(tenant);
            };
            // Duplicates are resolved before admission: replays of
            // already-accepted lines must succeed even under shedding —
            // and even while draining, so recovering clients can settle.
            let expected = t.accepted()[source.index()];
            if index < expected {
                t.dups += 1;
                Outcome::Dup
            } else if index > expected {
                t.gaps += 1;
                Outcome::Gap(expected)
            } else if draining || overloaded {
                Outcome::Hint
            } else {
                let admission =
                    Admission::decide(&budget, t.cost(), fleet_cost, active, line.len());
                match admission.rejection(tenant) {
                    Some(msg) => {
                        let quota = matches!(admission, Admission::OverQuota { .. });
                        if quota {
                            t.shed_quota += 1;
                        } else {
                            t.shed_budget += 1;
                        }
                        Outcome::Shed { msg, quota }
                    }
                    None => match t.offer(source, index, line) {
                        Offer::Accepted => Outcome::Accepted,
                        // Unreachable — the cursor was checked above — but
                        // the protocol answer stays correct if the
                        // invariant ever moves.
                        Offer::Duplicate => Outcome::Dup,
                        Offer::Gap { expected } => Outcome::Gap(expected),
                    },
                }
            }
        };
        match outcome {
            Outcome::Dup => {
                self.stats.dups += 1;
                "OK dup".to_string()
            }
            Outcome::Gap(expected) => {
                self.stats.gaps += 1;
                format!(
                    "ERR code={} tenant={tenant} source={} expected={expected}",
                    codes::GAP,
                    source.name()
                )
            }
            Outcome::Shed { msg, quota } => {
                if quota {
                    self.stats.shed_quota += 1;
                } else {
                    self.stats.shed_budget += 1;
                }
                msg
            }
            Outcome::Hint => self.shed_hint(draining),
            Outcome::Accepted => {
                self.fleet_cost += line.len();
                self.stats.accepted += 1;
                self.unpumped += 1;
                if self.unpumped >= PUMP_EVERY {
                    self.pump();
                }
                "OK".to_string()
            }
        }
    }

    /// The retry-hint rejection for a push shed by drain mode (which
    /// wins: the daemon is leaving, pressure is moot) or overload.
    fn shed_hint(&mut self, draining: bool) -> String {
        self.retry_salt = self.retry_salt.wrapping_add(1);
        if draining {
            self.stats.shed_draining += 1;
            let ms = self.config.overload.drain_retry_ms(self.retry_salt);
            format!("ERR code={} retry-ms={ms}", codes::DRAINING)
        } else {
            self.stats.shed_overload += 1;
            let ms = self
                .config
                .overload
                .overload_retry_ms(self.pressure_ms, self.retry_salt);
            format!("ERR code={} retry-ms={ms}", codes::OVERLOAD)
        }
    }

    fn handle_snapshot(&mut self, tenant: Option<&str>) -> String {
        let quota = self.config.budget.quota_bytes;
        match tenant {
            Some(name) => {
                if !self.is_known(name) {
                    return unknown_tenant(name);
                }
                self.tenant_entry(name);
                self.pump();
                match self.tenants.get_mut(name) {
                    Some(t) => {
                        let json = tenant_snapshot_json(t, quota);
                        format!("OK {json}")
                    }
                    None => unknown_tenant(name),
                }
            }
            None => {
                self.pump();
                let fleet = FleetSnapshot {
                    tenants: self.tenants.len(),
                    evicted: self.evicted.len(),
                    queued: self.tenants.values().map(Tenant::queued).sum(),
                    cost: self.fleet_cost,
                    global: self.config.budget.global_bytes,
                    durability: self.durability().label(),
                    store: self.store_snapshot(),
                    stats: self.stats.clone(),
                };
                match serde_json::to_string(&fleet) {
                    Ok(json) => format!("OK {json}"),
                    Err(e) => format!("ERR code={} detail={e}", codes::SERIALIZE),
                }
            }
        }
    }

    fn handle_checkpoint(&mut self, tenant: Option<&str>) -> String {
        if self.store.is_none() {
            return format!("ERR code={}", codes::NO_CHECKPOINT_DIR);
        }
        match tenant {
            Some(name) => {
                if !self.is_known(name) {
                    return unknown_tenant(name);
                }
                self.tenant_entry(name);
                self.pump();
                let (Some(tenant), Some(store)) = (self.tenants.get_mut(name), self.store.as_mut())
                else {
                    return unknown_tenant(name);
                };
                let written = persist(store, tenant);
                let total = store.replica_count();
                let durability = store.durability().label();
                if written == 0 {
                    format!(
                        "ERR code={} tenant={name} detail=no-replica-writable",
                        codes::IO
                    )
                } else {
                    format!("OK replicas={written}/{total} durability={durability}")
                }
            }
            None => {
                self.pump();
                let n = self.checkpoint_all();
                format!("OK tenants={n} durability={}", self.durability().label())
            }
        }
    }

    /// Applies every queued line across the fleet, sharded over the
    /// work-stealing executor, then refreshes the budget charge, runs the
    /// auto-checkpoint cadence, and evicts long-idle tenants. One call is
    /// one "sweep" — the store's logical clock for replica backoff.
    pub fn pump(&mut self) {
        self.unpumped = 0;
        if self.draining {
            self.drained_sweeps += 1;
        }
        if let Some(store) = self.store.as_mut() {
            store.begin_sweep();
        }
        let shards = self.config.shards.max(1);
        let work: Vec<&mut Tenant> = self
            .tenants
            .values_mut()
            .filter(|t| t.has_pending())
            .collect();
        if !work.is_empty() {
            let applied: usize = exec::par_map(shards, work, |t| t.pump()).into_iter().sum();
            self.stats.applied += applied as u64;
            self.since_checkpoint += applied as u64;
        }
        self.fleet_cost = self.tenants.values().map(Tenant::cost).sum();
        if self.config.checkpoint_every > 0
            && self.since_checkpoint >= self.config.checkpoint_every
            && self.store.is_some()
        {
            self.checkpoint_all();
        }
        self.evict_idle();
    }

    /// Ages idle tenants and evicts the ones past `evict_after`: each is
    /// checkpointed to the store and removed from memory (resurrectable
    /// on the next reference). A tenant whose checkpoint lands on zero
    /// replicas is kept hot — losing memory *and* durability at once is
    /// the one trade this daemon refuses.
    fn evict_idle(&mut self) {
        if self.config.evict_after == 0 || self.store.is_none() {
            return;
        }
        let mut victims = Vec::new();
        for (name, t) in self.tenants.iter_mut() {
            if t.has_pending() {
                t.idle_pumps = 0;
                continue;
            }
            t.idle_pumps += 1;
            if t.idle_pumps > self.config.evict_after {
                victims.push(name.clone());
            }
        }
        for name in victims {
            let Some(mut tenant) = self.tenants.remove(&name) else {
                continue;
            };
            let cost = tenant.cost();
            let written = match self.store.as_mut() {
                Some(store) => persist(store, &mut tenant),
                None => 0,
            };
            if written == 0 {
                self.tenants.insert(name, tenant);
                continue;
            }
            self.fleet_cost = self.fleet_cost.saturating_sub(cost);
            self.evicted.insert(name);
            self.stats.evicted += 1;
        }
    }

    /// Checkpoints every hot tenant whose stored copies are not already
    /// current (see [`persist`]) to all writable replicas, draining
    /// queues first. Returns how many tenants are persisted on at least
    /// one replica; a sweep in which any tenant landed on zero replicas
    /// counts one `checkpoint_errors`. Never blocks or fails outright —
    /// replica trouble degrades durability instead.
    pub fn checkpoint_all(&mut self) -> usize {
        if self.store.is_none() {
            return 0;
        }
        // Drain queues outside the auto-cadence to avoid recursion.
        let shards = self.config.shards.max(1);
        let work: Vec<&mut Tenant> = self
            .tenants
            .values_mut()
            .filter(|t| t.has_pending())
            .collect();
        if !work.is_empty() {
            let applied: usize = exec::par_map(shards, work, |t| t.pump()).into_iter().sum();
            self.stats.applied += applied as u64;
        }
        self.fleet_cost = self.tenants.values().map(Tenant::cost).sum();
        let Some(store) = self.store.as_mut() else {
            return 0;
        };
        let mut persisted = 0;
        let mut failed = false;
        for tenant in self.tenants.values_mut() {
            if persist(store, tenant) > 0 {
                persisted += 1;
            } else {
                failed = true;
            }
        }
        if failed {
            self.stats.checkpoint_errors += 1;
        }
        self.since_checkpoint = 0;
        persisted
    }

    /// Removes a tenant and produces its final batch-equivalent analysis
    /// (test/tooling hook; the wire protocol exposes `REPORT` instead).
    /// Resurrects the tenant first if it was evicted.
    pub fn drain_tenant(&mut self, name: &str) -> Option<Analysis> {
        if self.evicted.contains(name) {
            self.tenant_entry(name);
        }
        let tenant = self.tenants.remove(name)?;
        self.fleet_cost = self.fleet_cost.saturating_sub(tenant.cost());
        Some(tenant.drain())
    }

    /// Returns the hot tenant for `name`, creating or resurrecting it as
    /// needed, and marks it touched (idle counter reset). A tenant that is
    /// already hot is found by `&str`: nothing is cloned or allocated.
    fn tenant_entry(&mut self, name: &str) -> Option<&mut Tenant> {
        if !self.tenants.contains_key(name) {
            let tenant = self.restore_or_create(name);
            self.fleet_cost += tenant.cost();
            self.tenants.insert(name.to_string(), tenant);
        }
        let t = self.tenants.get_mut(name)?;
        t.idle_pumps = 0;
        Some(t)
    }

    /// Builds the tenant that should answer for `name`: resurrected from
    /// the store if it was evicted (falling back to fresh, with a
    /// warning, if every replica copy is gone or corrupt), or fresh —
    /// clearing any tombstone left by an earlier `DROP`.
    fn restore_or_create(&mut self, name: &str) -> Tenant {
        let was_evicted = self.evicted.remove(name);
        if let Some(store) = self.store.as_mut() {
            if was_evicted {
                if let Some(ckpt) = store.read_newest(name, &mut self.warnings) {
                    let stream = stream_for(&self.config, &self.overrides, name, Some(&ckpt));
                    match Tenant::resume(name.to_string(), stream, &ckpt) {
                        Ok(t) => {
                            self.stats.resurrected += 1;
                            return t;
                        }
                        Err(e) => self.warnings.push(format!(
                            "tenant {name}: resurrect failed: {e}; starting fresh"
                        )),
                    }
                } else {
                    self.warnings.push(format!(
                        "tenant {name}: no valid checkpoint to resurrect; starting fresh"
                    ));
                }
            } else if store.tombstoned(name) {
                store.clear_tombstone(name);
            }
        }
        let stream = stream_for(&self.config, &self.overrides, name, None);
        Tenant::new(name.to_string(), stream)
    }
}

/// Makes `tenant`'s applied state durable and returns how many replicas
/// hold it. A tenant that applied nothing since a checkpoint of it landed
/// on every replica is already there: capturing, encoding and rewriting
/// it would produce the same bytes (when tenants are fed one after
/// another, a finished one used to be rewritten at every later cadence). The
/// shortcut needs every replica Healthy and no write to have failed since
/// — after a failure anywhere, every tenant is rewritten as before until
/// its checkpoint has landed on all replicas again, so a replica that
/// comes back, even empty, is refilled with idle tenants too.
fn persist(store: &mut CheckpointStore, tenant: &mut Tenant) -> usize {
    let replicas = store.replica_count();
    let current = (tenant.records_applied(), store.write_errors());
    if tenant.persisted == Some(current) && store.durability() == Durability::Full {
        return replicas;
    }
    let ckpt = tenant.checkpoint();
    let written = store.write_tenant(&tenant.name, &ckpt);
    // Landing everywhere means nothing failed, so `current` still holds.
    tenant.persisted = (written == replicas).then_some(current);
    written
}

fn unknown_tenant(name: &str) -> String {
    format!("ERR code={} tenant={name}", codes::UNKNOWN_TENANT)
}

fn cursor(counts: &[u64; 5]) -> String {
    format!(
        "{},{},{},{},{}",
        counts[0], counts[1], counts[2], counts[3], counts[4]
    )
}

/// Per-tenant `SNAPSHOT` payload.
#[derive(Debug, Serialize)]
struct TenantSnapshot {
    tenant: String,
    accepted: [u64; 5],
    applied: [u64; 5],
    queued: usize,
    cost: usize,
    quota: usize,
    shed_quota: u64,
    shed_budget: u64,
    dups: u64,
    gaps: u64,
    watermark: Option<Timestamp>,
    buffered_entries: usize,
    open_events: usize,
    closed_events: usize,
    lethal_events: u64,
    open_runs: usize,
    classified_runs: usize,
    late_dropped: u64,
    spill_dropped: u64,
    health: [&'static str; 5],
    metrics: logdiver::metrics::MetricSet,
}

/// Fleet-aggregate `SNAPSHOT` payload.
#[derive(Debug, Serialize)]
struct FleetSnapshot {
    tenants: usize,
    evicted: usize,
    queued: usize,
    cost: usize,
    global: usize,
    durability: &'static str,
    store: Option<StoreSnapshot>,
    stats: ServeStats,
}

fn tenant_snapshot_json(t: &mut Tenant, quota: usize) -> String {
    let snap = t.snapshot();
    let mut health = [""; 5];
    for (slot, report) in health.iter_mut().zip(snap.health.iter()) {
        *slot = report.state.label();
    }
    let dto = TenantSnapshot {
        tenant: t.name.clone(),
        accepted: t.accepted(),
        applied: t.applied(),
        queued: t.queued(),
        cost: t.cost(),
        quota,
        shed_quota: t.shed_quota,
        shed_budget: t.shed_budget,
        dups: t.dups,
        gaps: t.gaps,
        watermark: snap.watermark,
        buffered_entries: snap.buffered_entries,
        open_events: snap.open_events,
        closed_events: snap.closed_events,
        lethal_events: snap.lethal_events,
        open_runs: snap.open_runs,
        classified_runs: snap.classified_runs,
        late_dropped: snap.late_dropped,
        spill_dropped: snap.spill_dropped,
        health,
        metrics: snap.metrics,
    };
    match serde_json::to_string(&dto) {
        Ok(json) => json,
        Err(e) => format!("{{\"error\":\"{e}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bw_faults::{ChaosFs, ChaosFsConfig};
    use logdiver::{LogCollection, LogDiver};

    fn scenario() -> LogCollection {
        let mut logs = LogCollection::new();
        logs.torque.extend([
            "2013-03-28 10:00:00;S;1.bw;user=u0001 queue=normal nodes=4 walltime=86400".to_string(),
        ]);
        logs.alps.extend([
            "2013-03-28 10:00:05 apsys PLACED apid=100 batch=1.bw user=u0001 cmd=namd2 type=XE width=4 nodelist=nid[0-3]".to_string(),
            "2013-03-28 12:00:05 apsys EXIT apid=100 code=137 signal=9 node_failed=yes runtime=7200".to_string(),
        ]);
        logs.syslog.extend([
            "2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception: bank 4 status 0xb200"
                .to_string(),
            "2013-03-28 12:00:31 smw xtnmd: node heartbeat fault: no response in 60s, declaring node dead"
                .to_string(),
        ]);
        logs.hwerr.extend([
            "2013-03-28 12:00:01|c0-0c0s0n2|MCE|CRIT|bank=4".to_string(),
            "2013-03-28 12:00:31|c0-0c0s0n2|NODE_DEAD|FATAL|".to_string(),
        ]);
        logs
    }

    fn push_lines(core: &mut ServeCore, tenant: &str, logs: &LogCollection) {
        for (source, lines) in [
            (Source::Syslog, &logs.syslog),
            (Source::HwErr, &logs.hwerr),
            (Source::Alps, &logs.alps),
            (Source::Torque, &logs.torque),
            (Source::Netwatch, &logs.netwatch),
        ] {
            for (i, line) in lines.iter().enumerate() {
                let resp = core.handle_line(&format!("PUSH {tenant} {} {i} {line}", source.name()));
                assert_eq!(resp, "OK", "push rejected: {resp}");
            }
        }
    }

    fn replicated_config(dirs: &[PathBuf]) -> ServeConfig {
        ServeConfig {
            tenants_dirs: dirs.to_vec(),
            ..ServeConfig::default()
        }
    }

    fn chaos_dirs(n: usize) -> Vec<PathBuf> {
        (0..n).map(|i| PathBuf::from(format!("/r{i}"))).collect()
    }

    #[test]
    fn two_tenants_drain_to_their_own_batch_analyses() {
        let logs = scenario();
        let batch = LogDiver::new().analyze(&logs);
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        push_lines(&mut core, "alpha", &logs);
        push_lines(&mut core, "beta", &logs);
        // An unrelated third tenant with no lines must not interfere.
        assert!(core
            .handle_line("HELLO gamma")
            .starts_with("OK tenant=gamma"));
        for name in ["alpha", "beta"] {
            let analysis = core.drain_tenant(name).unwrap();
            assert_eq!(analysis.runs, batch.runs, "{name}");
            assert_eq!(analysis.events, batch.events, "{name}");
            assert_eq!(analysis.metrics, batch.metrics, "{name}");
        }
        assert!(core.drain_tenant("alpha").is_none(), "already drained");
    }

    #[test]
    fn feed_reassembles_partial_lines() {
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        let conn = core.open_conn();
        assert!(core.feed(conn, b"HELLO al").is_empty(), "no newline yet");
        let responses = core.feed(conn, b"pha\nHELLO beta\nHELLO ga");
        assert_eq!(responses.len(), 2);
        assert!(responses[0].starts_with("OK tenant=alpha"));
        assert!(responses[1].starts_with("OK tenant=beta"));
        // Dropping the connection discards the incomplete "HELLO ga".
        core.close_conn(conn);
        assert_eq!(core.tenant_names(), vec!["alpha", "beta"]);
    }

    #[test]
    fn push_is_idempotent_over_the_wire() {
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        let line = "PUSH bw syslog 0 2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception";
        assert_eq!(core.handle_line(line), "OK");
        assert_eq!(core.handle_line(line), "OK dup");
        assert_eq!(
            core.handle_line("PUSH bw syslog 5 whatever"),
            "ERR code=gap tenant=bw source=syslog expected=1"
        );
    }

    #[test]
    fn snapshot_and_flush_report_cursors() {
        let logs = scenario();
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        push_lines(&mut core, "bw", &logs);
        let flush = core.handle_line("FLUSH bw");
        assert_eq!(flush, "OK applied=2,2,2,1,0");
        let field = |v: &serde_json::Value, key: &str| {
            v.as_object()
                .unwrap()
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        let snap = core.handle_line("SNAPSHOT bw");
        let json = serde_json::parse(snap.strip_prefix("OK ").unwrap()).unwrap();
        assert_eq!(field(&json, "tenant").as_str(), Some("bw"));
        assert_eq!(field(&json, "queued").as_u64(), Some(0));
        // Sources are still open, so the run awaits the watermark: it is
        // open (or classified if the watermark passed), never lost.
        let open = field(&json, "open_runs").as_u64().unwrap_or(0);
        let classified = field(&json, "classified_runs").as_u64().unwrap_or(0);
        assert_eq!(open + classified, 1, "the PLACED/EXIT run is tracked");
        let fleet = core.handle_line("SNAPSHOT");
        let json = serde_json::parse(fleet.strip_prefix("OK ").unwrap()).unwrap();
        assert_eq!(field(&json, "tenants").as_u64(), Some(1));
        assert_eq!(field(&json, "durability").as_str(), Some("none"));
        assert_eq!(
            core.handle_line("SNAPSHOT nope"),
            "ERR code=unknown-tenant tenant=nope"
        );
    }

    #[test]
    fn report_frames_the_batch_report() {
        let logs = scenario();
        let batch = LogDiver::new().analyze(&logs);
        let expected = logdiver::report::full_report(&batch.metrics, &batch.stats);
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        push_lines(&mut core, "bw", &logs);
        let resp = core.handle_line("REPORT bw");
        let (header, body) = resp.split_once('\n').unwrap();
        let n: usize = header
            .strip_prefix("OK lines=")
            .unwrap()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(header.contains("durability=none"), "{header}");
        assert!(header.contains("corrupt-preserved=0"), "{header}");
        assert_eq!(body.lines().count(), n);
        assert_eq!(body, expected.trim_end_matches('\n'));
    }

    #[test]
    fn checkpoint_resume_round_trips_every_tenant() {
        let dir = std::env::temp_dir().join(format!("logdiver-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let logs = scenario();
        let batch = LogDiver::new().analyze(&logs);
        let config = replicated_config(std::slice::from_ref(&dir));
        let mut core = ServeCore::new(config.clone()).unwrap();
        push_lines(&mut core, "alpha", &logs);
        push_lines(&mut core, "beta", &logs);
        assert_eq!(
            core.handle_line("CHECKPOINT"),
            "OK tenants=2 durability=full"
        );
        drop(core);

        let mut resumed = ServeCore::new(config).unwrap();
        assert!(resumed.warnings().is_empty());
        assert_eq!(resumed.tenant_names(), vec!["alpha", "beta"]);
        let hello = resumed.handle_line("HELLO alpha");
        assert_eq!(hello, "OK tenant=alpha accepted=2,2,2,1,0");
        for name in ["alpha", "beta"] {
            let analysis = resumed.drain_tenant(name).unwrap();
            assert_eq!(analysis.runs, batch.runs, "{name}");
            assert_eq!(analysis.events, batch.events, "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_uses_newest_valid_replica_and_preserves_corrupt_copies() {
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let logs = scenario();
        let config = replicated_config(&dirs);
        let mut core = ServeCore::with_fs(config.clone(), Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "bw", &logs);
        assert_eq!(
            core.handle_line("CHECKPOINT"),
            "OK tenants=1 durability=full"
        );
        drop(core);
        // Rot the copy on replica 0; replica 1 stays valid.
        assert!(fs.corrupt(&dirs[0].join("bw.ckpt")));

        let mut resumed = ServeCore::with_fs(config, Arc::new(fs.clone())).unwrap();
        assert_eq!(resumed.tenant_names(), vec!["bw"]);
        assert_eq!(resumed.warnings().len(), 1, "{:?}", resumed.warnings());
        assert_eq!(
            resumed.handle_line("HELLO bw"),
            "OK tenant=bw accepted=2,2,2,1,0"
        );
        // The corrupt copy was moved aside, not destroyed, and REPORT
        // counts it.
        assert!(fs.contents(&dirs[0].join("bw.ckpt.corrupt-0")).is_some());
        let report = resumed.handle_line("REPORT bw");
        let header = report.lines().next().unwrap();
        assert!(header.contains("corrupt-preserved=1"), "{header}");
    }

    #[test]
    fn dead_replica_degrades_durability_without_stopping_ingestion() {
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let logs = scenario();
        let mut core = ServeCore::with_fs(replicated_config(&dirs), Arc::new(fs.clone())).unwrap();
        fs.set_down(&dirs[1], true);
        push_lines(&mut core, "bw", &logs);
        let resp = core.handle_line("CHECKPOINT");
        assert_eq!(resp, "OK tenants=1 durability=degraded", "{resp}");
        // Pushes keep landing while one replica is dark.
        assert_eq!(
            core.handle_line("PUSH bw netwatch 0 2013-03-28 12:01:00 link c0-0c0s0n2 degraded"),
            "OK"
        );
        let fleet = core.handle_line("SNAPSHOT");
        assert!(fleet.contains("\"durability\":\"degraded\""), "{fleet}");
        // Survivor still holds a restorable checkpoint.
        drop(core);
        let resumed = ServeCore::with_fs(replicated_config(&dirs), Arc::new(fs.clone())).unwrap();
        assert_eq!(resumed.tenant_names(), vec!["bw"]);
    }

    #[test]
    fn sweeps_write_only_tenants_that_applied_something() {
        const MORE: &str = "netwatch 0 2013-03-28 12:01:00 link c0-0c0s0n2 degraded";
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let logs = scenario();
        let mut core = ServeCore::with_fs(replicated_config(&dirs), Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "busy", &logs);
        push_lines(&mut core, "idle", &logs);
        assert_eq!(core.checkpoint_all(), 2);
        let after_first = fs.writes();
        assert_eq!(after_first, 4, "two tenants x two replicas");

        // Nothing applied since: both count as persisted, nothing written.
        assert_eq!(core.checkpoint_all(), 2);
        assert_eq!(
            core.handle_line("CHECKPOINT"),
            "OK tenants=2 durability=full"
        );
        assert_eq!(
            core.handle_line("CHECKPOINT idle"),
            "OK replicas=2/2 durability=full"
        );
        assert_eq!(fs.writes(), after_first, "idle tenants were rewritten");

        // One more record on one tenant: only that tenant is rewritten.
        assert_eq!(core.handle_line(&format!("PUSH busy {MORE}")), "OK");
        assert_eq!(core.checkpoint_all(), 2);
        assert_eq!(fs.writes(), after_first + 2);
        let idle_copy = fs.contents(&dirs[0].join("idle.ckpt")).unwrap();

        // A replica goes dark: `busy` fails to land there, and from then
        // on every tenant is rewritten each sweep, as before this shortcut.
        fs.set_down(&dirs[1], true);
        assert_eq!(
            core.handle_line(&format!("PUSH busy {}", MORE.replacen('0', "1", 1))),
            "OK"
        );
        assert_eq!(core.checkpoint_all(), 2);
        assert_eq!(core.durability(), Durability::Degraded);
        let while_down = fs.writes();
        assert_eq!(core.checkpoint_all(), 2);
        assert!(
            fs.writes() >= while_down + 2,
            "both tenants rewritten on the survivor"
        );

        // It comes back empty: once its backoff lapses a sweep refills it
        // with *both* tenants, the idle one included, and only then do
        // sweeps go quiet again.
        fs.set_down(&dirs[1], false);
        fs.remove_tree(&dirs[1]);
        for _ in 0..600 {
            core.pump(); // one tick of the store's backoff clock
            assert_eq!(core.checkpoint_all(), 2);
            if core.durability() == Durability::Full {
                break;
            }
        }
        assert_eq!(core.durability(), Durability::Full);
        assert_eq!(fs.contents(&dirs[1].join("idle.ckpt")), Some(idle_copy));
        let healed = fs.writes();
        assert_eq!(core.checkpoint_all(), 2);
        assert_eq!(fs.writes(), healed);
    }

    #[test]
    fn clean_idle_tenant_evicts_without_another_write() {
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let config = ServeConfig {
            evict_after: 2,
            ..replicated_config(&dirs)
        };
        let mut core = ServeCore::with_fs(config, Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "bw", &scenario());
        assert_eq!(core.checkpoint_all(), 1);
        let written = fs.writes();
        for _ in 0..4 {
            core.pump();
        }
        assert_eq!(core.evicted_names(), vec!["bw"]);
        assert_eq!(fs.writes(), written, "the stored copy was already current");
        assert_eq!(
            core.handle_line("HELLO bw"),
            "OK tenant=bw accepted=2,2,2,1,0"
        );
    }

    #[test]
    fn idle_tenant_evicts_and_resurrects_transparently() {
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let logs = scenario();
        let config = ServeConfig {
            evict_after: 2,
            ..replicated_config(&dirs)
        };
        let mut core = ServeCore::with_fs(config, Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "bw", &logs);
        for _ in 0..4 {
            core.pump();
        }
        assert_eq!(core.tenant_names(), Vec::<String>::new(), "evicted");
        assert_eq!(core.evicted_names(), vec!["bw"]);
        assert_eq!(core.stats().evicted, 1);
        // The next push resurrects it with its cursors intact.
        assert_eq!(
            core.handle_line("PUSH bw netwatch 0 2013-03-28 12:01:00 link c0-0c0s0n2 degraded"),
            "OK"
        );
        assert_eq!(core.stats().resurrected, 1);
        assert_eq!(
            core.handle_line("HELLO bw"),
            "OK tenant=bw accepted=2,2,2,1,1"
        );
        let analysis = core.drain_tenant("bw").unwrap();
        let mut full = scenario();
        full.netwatch
            .push("2013-03-28 12:01:00 link c0-0c0s0n2 degraded".to_string());
        let batch = LogDiver::new().analyze(&full);
        assert_eq!(analysis.runs, batch.runs);
        assert_eq!(analysis.events, batch.events);
    }

    #[test]
    fn drop_tombstones_across_restart_until_recreated() {
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let logs = scenario();
        let config = replicated_config(&dirs);
        let mut core = ServeCore::with_fs(config.clone(), Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "bw", &logs);
        push_lines(&mut core, "keep", &logs);
        assert_eq!(
            core.handle_line("CHECKPOINT"),
            "OK tenants=2 durability=full"
        );
        assert_eq!(core.handle_line("DROP bw"), "OK tenant=bw tombstones=2");
        assert_eq!(core.tenant_names(), vec!["keep"]);
        assert_eq!(core.stats().dropped, 1);
        drop(core);
        // Restart: the tombstone keeps bw dead, keep survives.
        let mut resumed = ServeCore::with_fs(config, Arc::new(fs.clone())).unwrap();
        assert_eq!(resumed.tenant_names(), vec!["keep"]);
        // Re-creating bw clears the tombstone and starts from scratch.
        assert_eq!(
            resumed.handle_line("HELLO bw"),
            "OK tenant=bw accepted=0,0,0,0,0"
        );
    }

    #[test]
    fn hello_options_set_overrides_and_conflicts_are_rejected() {
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        assert!(core
            .handle_line("HELLO tuned lateness=120 quarantine-keep=8")
            .starts_with("OK tenant=tuned"));
        // Reconnecting with the same options is idempotent.
        assert!(core
            .handle_line("HELLO tuned lateness=120")
            .starts_with("OK tenant=tuned"));
        // A different value for a live tenant is a conflict.
        assert_eq!(
            core.handle_line("HELLO tuned lateness=999"),
            "ERR code=config-conflict tenant=tuned key=lateness"
        );
        // Unknown keys and bad values are machine-readable errors, and
        // reject before creating the tenant.
        assert_eq!(
            core.handle_line("HELLO fresh turbo=on"),
            "ERR code=unknown-option key=turbo"
        );
        assert_eq!(
            core.handle_line("HELLO fresh lateness=-5"),
            "ERR code=bad-option key=lateness value=-5"
        );
        assert!(!core.tenant_names().contains(&"fresh".to_string()));
    }

    #[test]
    fn tenant_config_file_parses_and_rejects_bad_lines() {
        let text = "\
# fleet overrides
alpha lateness=120 quarantine-keep=4
beta quarantine-keep=16   # trailing comment
";
        let overrides = parse_tenant_config(text).unwrap();
        assert_eq!(
            overrides["alpha"],
            TenantOverrides {
                lateness_secs: Some(120),
                quarantine_keep: Some(4),
            }
        );
        assert_eq!(overrides["beta"].quarantine_keep, Some(16));
        assert!(parse_tenant_config("alpha turbo=on").is_err());
        assert!(parse_tenant_config("alpha lateness").is_err());
        assert!(parse_tenant_config(".bad lateness=1").is_err());
        assert!(parse_tenant_config("a lateness=1\na lateness=2\n")
            .unwrap_err()
            .contains("duplicate"));
    }

    #[test]
    fn chaos_fs_checkpoints_degrade_but_never_stall() {
        // A flaky (not dead) filesystem: writes fail sometimes, yet every
        // CHECKPOINT returns and ingestion continues.
        let fs = ChaosFs::new(23, ChaosFsConfig::default());
        let dirs = chaos_dirs(3);
        let logs = scenario();
        let mut core = ServeCore::with_fs(replicated_config(&dirs), Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "bw", &logs);
        for _ in 0..20 {
            let resp = core.handle_line("CHECKPOINT");
            assert!(
                resp.starts_with("OK tenants=") || resp.starts_with("ERR code=io"),
                "{resp}"
            );
        }
        assert_eq!(core.handle_line("FLUSH bw"), "OK applied=2,2,2,1,0");
    }

    #[test]
    fn quota_rejections_are_machine_readable() {
        let config = ServeConfig {
            budget: BudgetPolicy {
                global_bytes: 10_000,
                quota_bytes: 64,
            },
            ..ServeConfig::default()
        };
        let mut core = ServeCore::new(config).unwrap();
        let long = "x".repeat(100);
        let resp = core.handle_line(&format!("PUSH bw syslog 0 {long}"));
        assert!(resp.starts_with("ERR code=over-quota tenant=bw "), "{resp}");
        assert_eq!(core.stats().shed_quota, 1);
        // The cursor did not advance: the same index is retried, not lost.
        assert_eq!(core.handle_line("PUSH bw syslog 0 short"), "OK");
    }

    #[test]
    fn checkpoint_without_dir_errors() {
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        assert_eq!(core.handle_line("CHECKPOINT"), "ERR code=no-checkpoint-dir");
    }

    fn retry_ms_of(resp: &str) -> u64 {
        resp.split(' ')
            .find_map(|tok| tok.strip_prefix("retry-ms="))
            .unwrap_or_else(|| panic!("no retry-ms in {resp}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn drain_flushes_checkpoints_and_sheds_with_hints() {
        let fs = ChaosFs::clean();
        let dirs = chaos_dirs(2);
        let logs = scenario();
        let config = replicated_config(&dirs);
        let mut core = ServeCore::with_fs(config.clone(), Arc::new(fs.clone())).unwrap();
        push_lines(&mut core, "bw", &logs);

        let resp = core.handle_line("DRAIN");
        assert_eq!(resp, "OK draining tenants=1 durability=full");
        assert!(core.draining());
        assert!(!core.should_exit(), "grace sweeps first");

        // New work is refused with a machine-readable retry hint…
        let shed = core.handle_line("PUSH bw netwatch 0 2013-03-28 12:01:00 link up");
        assert!(shed.starts_with("ERR code=draining retry-ms="), "{shed}");
        let ms = retry_ms_of(&shed);
        assert!((250..=500).contains(&ms), "{ms}");
        // …and so is a push for a tenant the core has never seen, without
        // materializing it.
        let other = core.handle_line("PUSH newguy syslog 0 x");
        assert!(other.starts_with("ERR code=draining"), "{other}");
        assert!(!core.tenant_names().contains(&"newguy".to_string()));
        // Replayed duplicates still settle.
        assert_eq!(
            core.handle_line("PUSH bw torque 0 2013-03-28 10:00:00;S;1.bw;user=u0001 queue=normal nodes=4 walltime=86400"),
            "OK dup"
        );
        assert_eq!(core.stats().shed_draining, 2);

        // A second DRAIN is idempotent.
        assert_eq!(
            core.handle_line("DRAIN"),
            "OK draining tenants=1 durability=full"
        );
        // After the grace sweeps the shell may exit…
        core.pump();
        core.pump();
        assert!(core.should_exit());
        // …and the checkpoint is restartable with nothing lost.
        drop(core);
        let resumed = ServeCore::with_fs(config, Arc::new(fs.clone())).unwrap();
        assert_eq!(resumed.tenant_names(), vec!["bw"]);
    }

    #[test]
    fn overload_sheds_with_pressure_shaped_hints_until_pressure_drops() {
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        assert_eq!(core.handle_line("PUSH bw syslog 0 line zero"), "OK");
        core.set_pressure(2_000);
        let shed = core.handle_line("PUSH bw syslog 1 line one");
        assert!(shed.starts_with("ERR code=overload retry-ms="), "{shed}");
        let ms = retry_ms_of(&shed);
        assert!((1_000..=2_000).contains(&ms), "{ms}");
        // Hints are jittered per rejection, not one constant.
        let hints: std::collections::BTreeSet<u64> = (0..50)
            .map(|_| retry_ms_of(&core.handle_line("PUSH bw syslog 1 line one")))
            .collect();
        assert!(hints.len() > 5, "hints did not spread: {hints:?}");
        // Replays of accepted work still answer OK dup under overload.
        assert_eq!(core.handle_line("PUSH bw syslog 0 line zero"), "OK dup");
        // The cursor never advanced, so nothing was lost…
        core.set_pressure(0);
        assert_eq!(core.handle_line("PUSH bw syslog 1 line one"), "OK");
        assert!(core.stats().shed_overload >= 51);
        assert_eq!(core.stats().accepted, 2);
    }

    #[test]
    fn oversized_lines_are_rejected_without_disconnecting() {
        let config = ServeConfig {
            max_line_bytes: 64,
            ..ServeConfig::default()
        };
        let mut core = ServeCore::new(config).unwrap();
        let conn = core.open_conn();
        // A single complete over-long line.
        let long = format!("PUSH bw syslog 0 {}\n", "x".repeat(200));
        let responses = core.feed(conn, long.as_bytes());
        assert_eq!(responses, vec!["ERR code=line-too-long limit=64"]);
        // Dribbled in fragments, the buffer stays bounded and the answer
        // arrives when the line finally terminates.
        for _ in 0..50 {
            assert!(core.feed(conn, b"yyyyyyyyyy").is_empty());
            assert!(core.pending_fragment(conn) <= 64);
        }
        let responses = core.feed(conn, b"\nHELLO bw\n");
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0], "ERR code=line-too-long limit=64");
        assert!(responses[1].starts_with("OK tenant=bw"), "{}", responses[1]);
        assert_eq!(core.stats().line_too_long, 2);
    }

    #[test]
    fn invalid_utf8_lines_answer_bad_utf8_and_keep_the_connection() {
        let mut core = ServeCore::new(ServeConfig::default()).unwrap();
        let conn = core.open_conn();
        let mut bytes = b"PUSH bw syslog 0 ".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, 0x80]);
        bytes.extend_from_slice(b"\nHELLO bw\n");
        let responses = core.feed(conn, &bytes);
        assert_eq!(responses[0], "ERR code=bad-utf8");
        assert!(responses[1].starts_with("OK tenant=bw"));
        assert_eq!(core.stats().bad_utf8, 1);
        // The rejected push did not advance the cursor.
        assert_eq!(core.handle_line("PUSH bw syslog 0 clean line"), "OK");
    }
}
