//! The threaded shell: per-source parse workers, bounded channels, and a
//! coordinator feeding the one engine core ([`InlineEngine`]).
//!
//! ```text
//!  push(source, line) / push_batch(source, lines)
//!    │  bounded input channel per shard, carrying CHUNKS of lines
//!    ▼
//!  parse workers — syslog is shardable; workers also run the pattern
//!    │             table, so filtering parallelizes with parsing
//!    ▼  bounded result channel (one message per parsed chunk)
//!  coordinator — puts each source's chunks back in line order, counts
//!    │           finished shards, applies, advances the watermarks
//!    ▼
//!  InlineEngine behind parking_lot::Mutex — snapshot() reads it live,
//!                                           drain() consumes it
//! ```
//!
//! Nothing here knows how the pipeline works. What the shell owns is what
//! threads make necessary: the count of lines *pushed* (ahead of the
//! core's count of lines *applied* while chunks are in flight), the
//! re-sequencing of chunks that shards finish out of order, and the wait
//! for `applied == pushed` before a checkpoint is taken.
//!
//! Lines travel in chunks of up to [`PUSH_CHUNK`] so the per-line cost is
//! a vector push, not a channel rendezvous: one send per chunk, one
//! coordinator lock per bundle of chunks, one watermark advance per lock
//! hold. A chunk is a run of consecutive lines of one source and carries
//! the line number of its first line, so the coordinator re-sequences
//! whole chunks and the analysis is byte-identical for any chunking.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};
use logdiver::filter::PatternTable;
use logdiver::pipeline::Analysis;
use parking_lot::Mutex;

use crate::checkpoint::{ResumeError, StreamCheckpoint};
use crate::config::{Source, StreamConfig};
use crate::health::HealthReport;
use crate::inline::{parse_body, InlineEngine, StreamError, StreamSnapshot};
use crate::state::{cell_is_open, Body, HealthCells};

/// How many lines ride in one channel message. Bounds per-chunk memory
/// while amortizing channel and lock traffic ~256× relative to a
/// line-at-a-time protocol.
const PUSH_CHUNK: usize = 256;

/// One chunk of raw lines on an input channel: the per-source line number
/// of the first, then the lines.
type LineChunk = (u64, Vec<String>);

enum CoordMsg {
    Chunk {
        source: Source,
        first: u64,
        bodies: Vec<Body>,
    },
    ShardDone(Source),
}

/// The online streaming ingestion engine.
///
/// Push raw lines in arrival order; parsing fans out to worker threads,
/// results are re-sequenced, and the pipeline runs incrementally behind
/// watermarks. [`StreamEngine::drain`] returns the same
/// [`Analysis`] the batch [`logdiver::LogDiver`] produces on the same
/// lines, for any chunking of the input (within the lateness allowance).
#[derive(Debug)]
pub struct StreamEngine {
    inputs: Vec<Vec<Sender<LineChunk>>>,
    /// Lines pushed per source; the core's applied count catches up as the
    /// coordinator works through the chunks in flight.
    pushed: [u64; 5],
    core: Arc<Mutex<InlineEngine>>,
    cells: HealthCells,
    workers: Vec<JoinHandle<()>>,
    coordinator: Option<JoinHandle<()>>,
}

impl StreamEngine {
    /// Starts the engine: one parse worker per source, plus
    /// `config.syslog_shards` for syslog, plus the coordinator.
    pub fn new(config: StreamConfig) -> Self {
        Self::launch(InlineEngine::new(config))
    }

    /// Rebuilds an engine from a [`StreamCheckpoint`], resuming exactly
    /// where the checkpointed engine left off (see
    /// [`InlineEngine::resume`]). The caller feeds each source from
    /// [`StreamCheckpoint::offset`] onward.
    ///
    /// # Errors
    ///
    /// Those of [`InlineEngine::resume`].
    pub fn resume(
        config: StreamConfig,
        checkpoint: &StreamCheckpoint,
    ) -> Result<Self, ResumeError> {
        Ok(Self::launch(InlineEngine::resume(config, checkpoint)?))
    }

    fn launch(engine: InlineEngine) -> Self {
        let config = engine.core.config();
        let capacity = config.channel_capacity.max(1);
        let mut shards = [1usize; 5];
        shards[Source::Syslog.index()] = config.syslog_shards.max(1);
        let table = config.table.clone();
        let pushed = engine.pushed_all();
        let cells = engine.core.cells();
        let (out_tx, out_rx) = bounded::<CoordMsg>(capacity);

        let mut inputs = Vec::with_capacity(5);
        let mut workers = Vec::new();
        for source in Source::ALL {
            let mut senders = Vec::with_capacity(shards[source.index()]);
            for _ in 0..shards[source.index()] {
                let (in_tx, in_rx) = bounded::<LineChunk>(capacity);
                let tx = out_tx.clone();
                let table = table.clone();
                // lint: allow(thread-spawn) the parse-worker pool IS the engine's concurrency; merges are seq-stamped, so output stays deterministic (DESIGN §10)
                workers.push(std::thread::spawn(move || {
                    worker(source, &table, &in_rx, &tx)
                }));
                senders.push(in_tx);
            }
            // A source that was already closed at checkpoint time stays
            // closed: dropping the senders lets its workers finish.
            if !engine.core.is_open(source) {
                senders.clear();
            }
            inputs.push(senders);
        }
        drop(out_tx);

        let core = Arc::new(Mutex::new(engine));
        let shared = Arc::clone(&core);
        // lint: allow(thread-spawn) single coordinator thread applying seq-ordered records; determinism argument in DESIGN §10
        let coordinator = std::thread::spawn(move || coordinate(&out_rx, &shared, shards));
        StreamEngine {
            inputs,
            pushed,
            core,
            cells,
            workers,
            coordinator: Some(coordinator),
        }
    }

    /// Feeds one raw line. Blocks when the source's parse worker is behind
    /// (bounded-channel backpressure).
    ///
    /// # Errors
    ///
    /// [`StreamError::SourceClosed`] after [`StreamEngine::close`] on this
    /// source; [`StreamError::CircuitOpen`] while the source's circuit
    /// breaker is open.
    pub fn push(&mut self, source: Source, line: impl Into<String>) -> Result<(), StreamError> {
        self.push_batch(source, [line])
    }

    /// Feeds many lines to one source, bundling them into chunks of
    /// [`PUSH_CHUNK`] so high-volume replay pays one channel send per
    /// chunk instead of per line. The circuit breaker is still consulted
    /// per line (a relaxed atomic load); on a trip, everything accepted so
    /// far is flushed before the error returns.
    ///
    /// # Errors
    ///
    /// [`StreamError::SourceClosed`] after [`StreamEngine::close`] on this
    /// source; [`StreamError::CircuitOpen`] when the breaker trips
    /// mid-batch (remaining lines are not consumed).
    pub fn push_batch<L: Into<String>>(
        &mut self,
        source: Source,
        lines: impl IntoIterator<Item = L>,
    ) -> Result<(), StreamError> {
        let i = source.index();
        if self.inputs[i].is_empty() {
            return Err(StreamError::SourceClosed(source));
        }
        let lines = lines.into_iter();
        let mut chunk = Vec::with_capacity(lines.size_hint().0.min(PUSH_CHUNK));
        for line in lines {
            if cell_is_open(&self.cells, i) {
                self.send_chunk(source, chunk)?;
                self.core.lock().core.note_rejected(source);
                return Err(StreamError::CircuitOpen(source));
            }
            chunk.push(line.into());
            if chunk.len() >= PUSH_CHUNK {
                self.send_chunk(source, std::mem::take(&mut chunk))?;
                chunk.reserve(PUSH_CHUNK);
            }
        }
        self.send_chunk(source, chunk)
    }

    /// Numbers one chunk and routes it to a shard. Chunks rotate over
    /// shards at chunk granularity (first line / chunk size), keeping runs
    /// of consecutive lines on one worker for cache locality while still
    /// spreading load. `pushed` moves only once the chunk is in the
    /// channel, so a failed send (worker gone) leaves it exact.
    fn send_chunk(&mut self, source: Source, lines: Vec<String>) -> Result<(), StreamError> {
        if lines.is_empty() {
            return Ok(());
        }
        let i = source.index();
        let senders = &self.inputs[i];
        let first = self.pushed[i];
        let shard = ((first / PUSH_CHUNK as u64) % senders.len() as u64) as usize;
        let n = lines.len() as u64;
        if senders[shard].send((first, lines)).is_err() {
            return Err(StreamError::SourceClosed(source));
        }
        self.pushed[i] += n;
        Ok(())
    }

    /// Declares a source exhausted: its parse workers finish and it stops
    /// holding the watermarks down. Use this when a log file is absent or
    /// fully read and other sources are still flowing.
    pub fn close(&mut self, source: Source) {
        self.inputs[source.index()].clear();
    }

    /// Lines accepted per source so far.
    pub fn pushed(&self, source: Source) -> u64 {
        self.pushed[source.index()]
    }

    /// Takes a live snapshot. Holds the state lock only long enough to
    /// clone the finalized runs and closed events; metrics are computed
    /// outside the lock.
    pub fn snapshot(&self) -> StreamSnapshot {
        let parts = self.core.lock().snapshot_parts();
        StreamSnapshot::assemble(parts)
    }

    /// The corrupt-line quarantine for one source: total count and up to
    /// `quarantine_keep` most recent raw lines.
    pub fn quarantined(&self, source: Source) -> (u64, Vec<String>) {
        self.core.lock().quarantined(source)
    }

    /// Current health of one source.
    pub fn health(&self, source: Source) -> HealthReport {
        self.core.lock().health(source)
    }

    /// Half-opens an Open circuit so a bounded probe can flow. The driver
    /// calls this after waiting [`HealthReport::backoff_ms`]. Returns
    /// `false` (no-op) when the circuit is not open.
    ///
    /// Waits until the source's lines still in flight have been applied:
    /// they were accepted before the circuit opened, and one of them
    /// landing inside the probe window would fail a probe it is no part of.
    pub fn probe(&mut self, source: Source) -> bool {
        let i = source.index();
        self.when_applied(
            |applied| applied[i] == self.pushed[i],
            |core| core.probe(source),
        )
    }

    /// Driver verdict: the source is stalled (its file is not growing
    /// while others are). Degrades a Healthy source; see
    /// [`StreamEngine::mark_recovered`].
    pub fn mark_stalled(&mut self, source: Source) {
        self.core.lock().core.mark_stalled(source);
    }

    /// Driver verdict: the stall cleared. A source degraded only by the
    /// stall returns to Healthy.
    pub fn mark_recovered(&mut self, source: Source) {
        self.core.lock().core.mark_recovered(source);
    }

    /// Drains the quarantine spill queue (raw corrupt lines with their
    /// source), in arrival order. Only populated when
    /// [`StreamConfig::spill_quarantined`] is set. Drivers persist these
    /// (e.g. `--quarantine-out`) so bounded in-memory quarantine loses
    /// nothing.
    pub fn take_spilled(&mut self) -> Vec<(Source, String)> {
        self.core.lock().take_spilled()
    }

    /// Captures a [`StreamCheckpoint`] of the engine plus the caller's
    /// per-file byte `offsets` (in [`Source::ALL`] order). Waits for
    /// quiescence — every pushed line applied — so the checkpoint is a
    /// pure function of the consumed line prefixes; callers must pass
    /// offsets that match what they have pushed.
    pub fn checkpoint(&self, offsets: [u64; 5]) -> StreamCheckpoint {
        self.when_applied(
            |applied| *applied == self.pushed,
            |core| core.checkpoint(offsets),
        )
    }

    /// Runs `f` on the core once the coordinator has caught up as far as
    /// `caught_up` (given the applied counts) asks, polling between lock
    /// holds so the coordinator can get there.
    fn when_applied<R>(
        &self,
        caught_up: impl Fn(&[u64; 5]) -> bool,
        f: impl FnOnce(&mut InlineEngine) -> R,
    ) -> R {
        loop {
            {
                let mut core = self.core.lock();
                if caught_up(&core.pushed_all()) {
                    return f(&mut core);
                }
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// Closes every source, waits for all in-flight lines to be processed,
    /// and produces the full analysis — equal to
    /// [`logdiver::LogDiver::analyze`] on the same lines.
    pub fn drain(mut self) -> Analysis {
        for senders in &mut self.inputs {
            senders.clear();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
        Arc::try_unwrap(self.core)
            // lint: allow(no-panic) every worker and the coordinator were joined above, so this is the last Arc by construction
            .expect("all engine threads joined")
            .into_inner()
            .drain()
    }
}

fn worker(
    source: Source,
    table: &PatternTable,
    input: &Receiver<LineChunk>,
    out: &Sender<CoordMsg>,
) {
    for (first, lines) in input.iter() {
        // A bad line's owned `String` moves straight into quarantine — the
        // only per-line allocation left is the push-side one.
        let bodies = lines
            .into_iter()
            .map(|line| parse_body(source, line, table))
            .collect();
        let msg = CoordMsg::Chunk {
            source,
            first,
            bodies,
        };
        if out.send(msg).is_err() {
            return;
        }
    }
    let _ = out.send(CoordMsg::ShardDone(source));
}

/// The ordering state only out-of-order arrival makes necessary: chunks
/// that a faster shard finished ahead of their turn, and how many shards
/// of each source are still running. The core's applied count is the line
/// number expected next, so none is kept here.
struct Resequencer {
    held: [BTreeMap<u64, Vec<Body>>; 5],
    shards_left: [usize; 5],
}

impl Resequencer {
    fn new(shards: [usize; 5]) -> Self {
        Resequencer {
            held: Default::default(),
            shards_left: shards,
        }
    }

    /// Applies a chunk when it is next in line for its source (then every
    /// held chunk that follows on), holds it otherwise. A source closes
    /// when its last shard reports: each shard sends its chunks before its
    /// `ShardDone`, so by then nothing of the source is held.
    fn deliver(&mut self, engine: &mut InlineEngine, msg: CoordMsg) {
        match msg {
            CoordMsg::Chunk {
                source,
                first,
                bodies,
            } => {
                let held = &mut self.held[source.index()];
                if first != engine.pushed(source) {
                    held.insert(first, bodies);
                    return;
                }
                let mut next = Some(bodies);
                while let Some(bodies) = next {
                    for body in bodies {
                        engine.core.apply(source, body);
                    }
                    next = held.remove(&engine.pushed(source));
                }
            }
            CoordMsg::ShardDone(source) => {
                let left = &mut self.shards_left[source.index()];
                *left -= 1;
                if *left == 0 {
                    engine.close(source);
                }
            }
        }
    }
}

fn coordinate(input: &Receiver<CoordMsg>, core: &Mutex<InlineEngine>, shards: [usize; 5]) {
    let mut resequencer = Resequencer::new(shards);
    loop {
        let Ok(first) = input.recv() else { return };
        let mut guard = core.lock();
        resequencer.deliver(&mut guard, first);
        // Batch whatever else is already queued under one lock hold, then
        // advance the watermarks once. Each message is a whole chunk, so
        // the bound stays small to keep snapshot() latency low.
        for _ in 0..15 {
            match input.try_recv() {
                Ok(msg) => resequencer.deliver(&mut guard, msg),
                Err(_) => break,
            }
        }
        guard.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNKS: usize = 4;
    const PER_CHUNK: usize = 3;

    /// Twelve syslog lines in line order: per chunk one kept error, one
    /// line of chatter and one torn line, so the quarantine ring shows the
    /// order lines were applied in.
    fn lines() -> Vec<String> {
        (0..CHUNKS)
            .flat_map(|c| {
                [
                    format!(
                        "2013-03-28 12:0{c}:00 nid0000{c} kernel: Machine Check Exception: bank {c}"
                    ),
                    format!("2013-03-28 12:0{c}:30 nid00050 ntpd: time slew +0.0{c}s"),
                    format!("torn line {c}"),
                ]
            })
            .collect()
    }

    fn chunk(lines: &[String], c: usize, table: &PatternTable) -> CoordMsg {
        let bodies = lines[c * PER_CHUNK..(c + 1) * PER_CHUNK]
            .iter()
            .map(|line| parse_body(Source::Syslog, line.as_str(), table))
            .collect();
        CoordMsg::Chunk {
            source: Source::Syslog,
            first: (c * PER_CHUNK) as u64,
            bodies,
        }
    }

    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in permutations(n - 1) {
            for at in 0..=shorter.len() {
                let mut longer = shorter.clone();
                longer.insert(at, n - 1);
                out.push(longer);
            }
        }
        out
    }

    #[test]
    fn chunks_in_any_order_apply_in_line_order_and_the_last_shard_closes() {
        let lines = lines();
        let torn: Vec<String> = (0..CHUNKS).map(|c| format!("torn line {c}")).collect();
        for shards in [1usize, 2, 4] {
            let config = StreamConfig::default().with_syslog_shards(shards);
            let want = {
                let mut inline = InlineEngine::new(config.clone());
                for line in &lines {
                    inline.push(Source::Syslog, line).unwrap();
                }
                inline.checkpoint([0; 5]).to_bytes()
            };
            let orders = permutations(CHUNKS);
            assert_eq!(orders.len(), 24);
            for order in orders {
                let mut engine = InlineEngine::new(config.clone());
                let mut resequencer = Resequencer::new([shards, 1, 1, 1, 1]);
                // Shards that got no chunk finish first; the source must
                // stay open for the one still working.
                for _ in 1..shards {
                    resequencer.deliver(&mut engine, CoordMsg::ShardDone(Source::Syslog));
                }
                let mut arrived = [false; CHUNKS];
                for &c in &order {
                    let msg = chunk(&lines, c, &config.table);
                    resequencer.deliver(&mut engine, msg);
                    arrived[c] = true;
                    let in_line = arrived.iter().take_while(|a| **a).count();
                    assert_eq!(
                        engine.pushed(Source::Syslog),
                        (in_line * PER_CHUNK) as u64,
                        "order {order:?}: applied exactly the chunks with no gap before them"
                    );
                }
                assert_eq!(
                    engine.quarantined(Source::Syslog).1,
                    torn,
                    "order {order:?}"
                );
                assert!(engine.core.is_open(Source::Syslog));
                // applied == pushed: the checkpoint is the inline engine's.
                assert_eq!(engine.pushed(Source::Syslog), lines.len() as u64);
                assert_eq!(
                    engine.checkpoint([0; 5]).to_bytes(),
                    want,
                    "order {order:?}"
                );
                resequencer.deliver(&mut engine, CoordMsg::ShardDone(Source::Syslog));
                assert!(!engine.core.is_open(Source::Syslog));
                for other in [
                    Source::HwErr,
                    Source::Alps,
                    Source::Torque,
                    Source::Netwatch,
                ] {
                    assert!(engine.core.is_open(other));
                }
            }
        }
    }
}
