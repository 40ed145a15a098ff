//! One tenant: an [`InlineEngine`] plus an intake queue and an
//! idempotency cursor.
//!
//! The accept path is split in two so the daemon's connection handlers
//! stay cheap: [`Tenant::offer`] only validates the index and enqueues
//! the raw line; [`Tenant::pump`] later parses and applies the whole
//! queue inside the work-stealing executor, off the protocol hot path.
//!
//! Two cursors matter:
//!
//! * **accepted** — lines admitted into the queue, per source. This is
//!   the duplicate/gap boundary: a push below it is a duplicate, above
//!   it a gap, exactly at it is accepted. `HELLO` reports this cursor.
//! * **applied** — lines the engine has consumed
//!   ([`InlineEngine::pushed`]). Only applied lines are durable: a
//!   checkpoint stores this cursor, so after a crash `accepted` resets
//!   to `applied` and clients replay the (now lost) queued tail.

use std::collections::VecDeque;

use logdiver::pipeline::Analysis;
use logdiver_stream::inline::InlineEngine;
use logdiver_stream::{ResumeError, Source, StreamCheckpoint, StreamConfig};

/// Outcome of offering one indexed line to a tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The line was queued; the accepted cursor advanced.
    Accepted,
    /// `index` is below the accepted cursor — already have it.
    Duplicate,
    /// `index` is above the accepted cursor — the client skipped ahead.
    Gap {
        /// The index the server expects next.
        expected: u64,
    },
}

/// A tenant's engine, queue, and counters.
#[derive(Debug)]
pub struct Tenant {
    /// The tenant's name (unique within the daemon).
    pub name: String,
    engine: InlineEngine,
    queue: VecDeque<(Source, String)>,
    queue_bytes: usize,
    accepted: [u64; 5],
    engine_cost: usize,
    /// Pushes rejected because the tenant was over quota.
    pub shed_quota: u64,
    /// Pushes shed because the fleet was over the global budget.
    pub shed_budget: u64,
    /// Duplicate pushes answered `OK dup`.
    pub dups: u64,
    /// Out-of-order pushes answered `ERR code=gap`.
    pub gaps: u64,
    /// Consecutive fleet pumps this tenant sat through with nothing
    /// queued and no protocol traffic. The core resets it on any touch
    /// and evicts the tenant to its checkpoint once it exceeds
    /// `evict_after`.
    pub idle_pumps: u64,
    /// [`Tenant::records_applied`] and the store's write-error count as
    /// of the last checkpoint that landed on *every* configured replica.
    /// While both still match, the stored copies are current and a sweep
    /// has nothing to write. A resumed tenant starts at `None`: it was
    /// read from the newest replica, the others may be behind.
    pub persisted: Option<(u64, u64)>,
}

impl Tenant {
    /// A fresh tenant with an empty engine.
    pub fn new(name: String, config: StreamConfig) -> Self {
        let engine = InlineEngine::new(config);
        Self::wrap(name, engine)
    }

    /// Rebuilds a tenant from its checkpoint; the accepted cursor resets
    /// to the applied (durable) cursor.
    pub fn resume(
        name: String,
        config: StreamConfig,
        checkpoint: &StreamCheckpoint,
    ) -> Result<Self, ResumeError> {
        let engine = InlineEngine::resume(config, checkpoint)?;
        Ok(Self::wrap(name, engine))
    }

    fn wrap(name: String, mut engine: InlineEngine) -> Self {
        let accepted = engine.pushed_all();
        let engine_cost = engine.open_cost();
        Tenant {
            name,
            engine,
            queue: VecDeque::new(),
            queue_bytes: 0,
            accepted,
            engine_cost,
            shed_quota: 0,
            shed_budget: 0,
            dups: 0,
            gaps: 0,
            idle_pumps: 0,
            persisted: None,
        }
    }

    /// The accepted cursor, in [`Source::ALL`] order — what `HELLO`
    /// reports.
    pub fn accepted(&self) -> [u64; 5] {
        self.accepted
    }

    /// The applied (durable) cursor, in [`Source::ALL`] order.
    pub fn applied(&self) -> [u64; 5] {
        self.engine.pushed_all()
    }

    /// Total lines applied across all sources — the value
    /// [`StreamCheckpoint::records_applied`] would report for a
    /// checkpoint taken now.
    pub fn records_applied(&self) -> u64 {
        self.applied().iter().sum()
    }

    /// Lines queued but not yet applied.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Whether [`Tenant::pump`] has work to do.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// This tenant's memory-budget charge: exact queue bytes plus the
    /// engine's estimated open state (as of the last pump).
    pub fn cost(&self) -> usize {
        self.queue_bytes + self.engine_cost
    }

    /// Validates the idempotency index and, when it is the next expected
    /// one, queues the line. Budget admission happens in the caller —
    /// duplicates are answered before any budget check so replay after
    /// reconnect is never shed.
    pub fn offer(&mut self, source: Source, index: u64, line: &str) -> Offer {
        self.idle_pumps = 0;
        let i = source.index();
        let expected = self.accepted[i];
        if index < expected {
            self.dups += 1;
            return Offer::Duplicate;
        }
        if index > expected {
            self.gaps += 1;
            return Offer::Gap { expected };
        }
        self.queue_bytes += line.len();
        self.queue.push_back((source, line.to_string()));
        self.accepted[i] = expected + 1;
        Offer::Accepted
    }

    /// Parses and applies every queued line, advances the watermarks, and
    /// refreshes the cached engine cost. Returns how many lines were
    /// applied. Runs inside the work-stealing executor.
    ///
    /// Consecutive same-source lines go through
    /// [`InlineEngine::push_chunk`] as one run, so a replaying client's
    /// burst pays one watermark advance per run instead of one per
    /// `ADVANCE_EVERY` lines.
    pub fn pump(&mut self) -> usize {
        let mut applied = 0;
        let mut run: Vec<String> = Vec::new();
        while let Some((source, line)) = self.queue.pop_front() {
            self.queue_bytes = self.queue_bytes.saturating_sub(line.len());
            run.clear();
            run.push(line);
            while self.queue.front().is_some_and(|(s, _)| *s == source) {
                let Some((_, next)) = self.queue.pop_front() else {
                    break;
                };
                self.queue_bytes = self.queue_bytes.saturating_sub(next.len());
                run.push(next);
            }
            let mut at = 0usize;
            while at < run.len() {
                let before = self.engine.pushed(source);
                match self
                    .engine
                    .push_chunk(source, run[at..].iter().map(String::as_str))
                {
                    Ok(n) => {
                        applied += n;
                        break;
                    }
                    Err(_) => {
                        // CircuitOpen: the breaker tripped mid-run (the
                        // applied prefix stays applied). Probe once
                        // (half-open) and retry the rejected line so a
                        // recovered source resumes; if still rejected, the
                        // rejection is counted by the engine and the line
                        // is dropped — the same contract the threaded
                        // engine gives its callers.
                        let done = (self.engine.pushed(source) - before) as usize;
                        applied += done;
                        at += done;
                        self.engine.probe(source);
                        if self.engine.push(source, &run[at]).is_ok() {
                            applied += 1;
                        }
                        at += 1;
                    }
                }
            }
        }
        self.engine.advance();
        self.engine_cost = self.engine.open_cost();
        applied
    }

    /// A live snapshot of the engine (pump first for current numbers).
    pub fn snapshot(&mut self) -> logdiver_stream::StreamSnapshot {
        self.engine.snapshot()
    }

    /// The full batch-equivalent analysis as of now, without consuming
    /// the engine.
    pub fn preview(&mut self) -> Analysis {
        self.engine.preview()
    }

    /// Captures a checkpoint. The caller must [`Tenant::pump`] first so
    /// the queue is empty; queued-but-unapplied lines are *not* part of
    /// the durable state.
    pub fn checkpoint(&mut self) -> StreamCheckpoint {
        let offsets = self.engine.pushed_all();
        self.engine.checkpoint(offsets)
    }

    /// Closes every source and produces the final analysis.
    pub fn drain(mut self) -> Analysis {
        self.pump();
        self.engine.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception: bank 4";

    #[test]
    fn offer_is_idempotent() {
        let mut t = Tenant::new("bw".into(), StreamConfig::default());
        assert_eq!(t.offer(Source::Syslog, 0, LINE), Offer::Accepted);
        assert_eq!(t.offer(Source::Syslog, 0, LINE), Offer::Duplicate);
        assert_eq!(t.offer(Source::Syslog, 2, LINE), Offer::Gap { expected: 1 });
        assert_eq!(t.offer(Source::Syslog, 1, LINE), Offer::Accepted);
        assert_eq!(t.accepted()[0], 2);
        assert_eq!(t.applied()[0], 0, "not yet pumped");
        assert_eq!(t.pump(), 2);
        assert_eq!(t.applied()[0], 2);
        assert_eq!(t.dups, 1);
        assert_eq!(t.gaps, 1);
    }

    #[test]
    fn cost_tracks_queue_then_engine() {
        let mut t = Tenant::new("bw".into(), StreamConfig::default());
        assert_eq!(t.cost(), 0);
        t.offer(Source::Syslog, 0, LINE);
        assert_eq!(t.cost(), LINE.len(), "queued bytes are exact");
        t.pump();
        assert!(t.cost() > 0, "engine open state is charged after pump");
        assert_eq!(t.queued(), 0);
    }

    #[test]
    fn checkpoint_resume_resets_accepted_to_applied() {
        let mut t = Tenant::new("bw".into(), StreamConfig::default());
        t.offer(Source::Syslog, 0, LINE);
        t.pump();
        t.offer(Source::Syslog, 1, LINE); // queued, never pumped
        let ckpt = t.checkpoint_unpumped_for_test();
        let r = Tenant::resume("bw".into(), StreamConfig::default(), &ckpt).unwrap();
        assert_eq!(r.applied()[0], 1);
        assert_eq!(r.accepted()[0], 1, "queued tail was lost; client replays");
    }

    impl Tenant {
        /// Checkpoint *without* pumping — models a crash with lines still
        /// queued.
        fn checkpoint_unpumped_for_test(&mut self) -> StreamCheckpoint {
            let offsets = self.engine.pushed_all();
            self.engine.checkpoint(offsets)
        }
    }
}
