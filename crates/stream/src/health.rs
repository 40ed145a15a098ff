//! Per-source health tracking and graceful degradation.
//!
//! One rotated, corrupt, or NFS-stalled log file must not poison the
//! global low watermark — the paper's own lesson applied to the tool. Each
//! source carries a small state machine:
//!
//! ```text
//!            consecutive bad ≥ degrade_after,
//!            or driver-reported stall
//!  Healthy ────────────────────────────────▶ Degraded
//!     ▲                                         │ consecutive bad
//!     │ recover_after good lines                │ ≥ break_after
//!     │ and not stalled                         ▼
//!  HalfOpen ◀────────────────────────────── Open (circuit broken)
//!     │          probe() after backoff
//!     │ probe_lines good lines → Healthy
//!     └─ any bad line → Open (attempt + 1, wider backoff)
//! ```
//!
//! Consequences per state:
//!
//! - **Healthy** — gates the watermarks normally (`progress − lateness`).
//! - **Degraded** — quarantine retention is *sampled* (1 in
//!   [`HealthPolicy::sample_keep`] bad lines kept; counters stay exact) and
//!   the source's watermark contribution is clamped: it may hold the global
//!   mark at most [`HealthPolicy::degraded_hold`] behind the most advanced
//!   source, so a stalled file delays — but no longer blocks — event
//!   closing and run finalization. Records it delivers after the watermark
//!   has moved past them are counted in `late_dropped` (fidelity is traded
//!   for progress, and the trade is visible in the snapshot).
//! - **Open** — the circuit is broken: [`crate::StreamEngine::push`]
//!   rejects lines ([`crate::StreamError::CircuitOpen`]), the source stops
//!   gating the watermarks entirely, and the driver is expected to retry
//!   with [`HealthReport::backoff_ms`] (exponential + deterministic jitter)
//!   before calling [`crate::StreamEngine::probe`].
//! - **HalfOpen** — a probe window: up to [`HealthPolicy::probe_lines`]
//!   lines flow; one bad line re-opens the circuit with a wider backoff,
//!   a full window of good lines closes it (back to Healthy).

use logdiver_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Health state of one log source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SourceHealth {
    /// Flowing and parseable; gates the watermarks normally.
    Healthy,
    /// Suspect (corrupt run or stalled): sampled quarantine, clamped
    /// watermark contribution.
    Degraded,
    /// Circuit broken: pushes are rejected, the source does not gate the
    /// watermarks; retry with backoff, then probe.
    Open,
    /// Probing after backoff: a bounded number of lines may flow.
    HalfOpen,
}

logdiver_types::codec_enum!(SourceHealth {
    Healthy = 0,
    Degraded = 1,
    Open = 2,
    HalfOpen = 3,
});

impl SourceHealth {
    /// Short fixed-width label for progress lines (`ok`, `deg`, `OPEN`,
    /// `half`).
    pub fn label(self) -> &'static str {
        match self {
            SourceHealth::Healthy => "ok",
            SourceHealth::Degraded => "deg",
            SourceHealth::Open => "OPEN",
            SourceHealth::HalfOpen => "half",
        }
    }
}

/// Escalation thresholds and backoff policy for source health.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Consecutive quarantined lines before a source turns Degraded.
    pub degrade_after: u32,
    /// Consecutive quarantined lines before the circuit opens.
    pub break_after: u32,
    /// Consecutive good lines for a Degraded source to recover.
    pub recover_after: u32,
    /// In Degraded/Open state, keep 1 in this many bad lines in the
    /// quarantine ring and spill (counters stay exact).
    pub sample_keep: u32,
    /// Lines admitted during a HalfOpen probe; that many consecutive good
    /// lines close the circuit.
    pub probe_lines: u32,
    /// How far (in log time) a Degraded source may hold the global
    /// watermark behind the most advanced source.
    pub degraded_hold: SimDuration,
    /// Base retry backoff when the circuit opens.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_max_ms: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_after: 32,
            break_after: 256,
            recover_after: 64,
            sample_keep: 8,
            probe_lines: 32,
            degraded_hold: SimDuration::from_secs(3_600),
            backoff_base_ms: 500,
            backoff_max_ms: 30_000,
        }
    }
}

impl HealthPolicy {
    /// Suggested wait before probe attempt `attempt` (0-based):
    /// `base · 2^attempt` capped at the ceiling, plus a deterministic
    /// jitter (< base/2, keyed on source and attempt) so five sources that
    /// break together do not probe in lockstep.
    pub fn backoff_ms(&self, source_index: usize, attempt: u32) -> u64 {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_max_ms);
        let jitter_span = (self.backoff_base_ms / 2).max(1);
        // splitmix64-style hash: cheap, deterministic, spreads sources.
        let mut x = (source_index as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt));
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        exp + x % jitter_span
    }
}

/// Live health of one source, as reported by
/// [`crate::StreamSnapshot::health`] and [`crate::StreamEngine::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Current state.
    pub state: SourceHealth,
    /// Consecutive quarantined lines right now.
    pub consecutive_bad: u32,
    /// Times the circuit has opened without a successful close since the
    /// last recovery (drives the backoff exponent).
    pub open_attempts: u32,
    /// Lines rejected while the circuit was open.
    pub rejected_while_open: u64,
    /// Suggested wait before the next probe, when Open (0 otherwise).
    pub backoff_ms: u64,
}

/// The per-source state machine. Serializable: checkpoints carry it so a
/// resumed engine keeps degrading/backing off exactly where it left off.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HealthState {
    pub(crate) state: SourceHealth,
    pub(crate) consecutive_bad: u32,
    pub(crate) consecutive_good: u32,
    pub(crate) open_attempts: u32,
    pub(crate) probe_remaining: u32,
    pub(crate) rejected_while_open: u64,
    /// Driver-reported stall (wall-clock detection happens in the feeder;
    /// the engine only records the verdict).
    pub(crate) stalled: bool,
}

logdiver_types::codec_struct!(HealthState {
    state,
    consecutive_bad,
    consecutive_good,
    open_attempts,
    probe_remaining,
    rejected_while_open,
    stalled
});

impl Default for HealthState {
    fn default() -> Self {
        HealthState {
            state: SourceHealth::Healthy,
            consecutive_bad: 0,
            consecutive_good: 0,
            open_attempts: 0,
            probe_remaining: 0,
            rejected_while_open: 0,
            stalled: false,
        }
    }
}

impl HealthState {
    /// A quarantined line was applied. Returns `true` when the raw line
    /// should be retained (ring/spill) under the sampling rule.
    pub(crate) fn record_bad(&mut self, policy: &HealthPolicy, bad_total: u64) -> bool {
        self.consecutive_bad = self.consecutive_bad.saturating_add(1);
        self.consecutive_good = 0;
        match self.state {
            SourceHealth::HalfOpen => {
                // Probe failed: back to Open with a wider backoff.
                self.state = SourceHealth::Open;
                self.open_attempts = self.open_attempts.saturating_add(1);
            }
            SourceHealth::Healthy if self.consecutive_bad >= policy.degrade_after => {
                self.state = SourceHealth::Degraded;
            }
            SourceHealth::Degraded if self.consecutive_bad >= policy.break_after => {
                self.state = SourceHealth::Open;
                self.open_attempts = self.open_attempts.saturating_add(1);
            }
            _ => {}
        }
        match self.state {
            SourceHealth::Healthy => true,
            _ => bad_total.is_multiple_of(u64::from(policy.sample_keep.max(1))),
        }
    }

    /// A good (parsed) line was applied.
    pub(crate) fn record_good(&mut self, policy: &HealthPolicy) {
        self.consecutive_bad = 0;
        self.consecutive_good = self.consecutive_good.saturating_add(1);
        match self.state {
            SourceHealth::HalfOpen => {
                self.probe_remaining = self.probe_remaining.saturating_sub(1);
                if self.probe_remaining == 0 {
                    self.state = SourceHealth::Healthy;
                    self.open_attempts = 0;
                    self.stalled = false;
                }
            }
            SourceHealth::Degraded
                if !self.stalled && self.consecutive_good >= policy.recover_after =>
            {
                self.state = SourceHealth::Healthy;
                self.open_attempts = 0;
            }
            _ => {}
        }
    }

    /// Driver says the source is stalled (file not growing while others
    /// do). Healthy sources degrade; worse states keep their standing.
    pub(crate) fn mark_stalled(&mut self) {
        self.stalled = true;
        if self.state == SourceHealth::Healthy {
            self.state = SourceHealth::Degraded;
        }
    }

    /// Driver says the stall cleared. A source degraded *only* by the
    /// stall recovers immediately; corrupt-line escalation stays put.
    pub(crate) fn mark_recovered(&mut self, policy: &HealthPolicy) {
        self.stalled = false;
        if self.state == SourceHealth::Degraded && self.consecutive_bad < policy.degrade_after {
            self.state = SourceHealth::Healthy;
        }
    }

    /// Open → HalfOpen transition (the driver calls this after the backoff
    /// wait). Returns `false` when the circuit is not open.
    pub(crate) fn probe(&mut self, policy: &HealthPolicy) -> bool {
        if self.state != SourceHealth::Open {
            return false;
        }
        self.state = SourceHealth::HalfOpen;
        self.probe_remaining = policy.probe_lines.max(1);
        true
    }

    pub(crate) fn report(&self, policy: &HealthPolicy, source_index: usize) -> HealthReport {
        HealthReport {
            state: self.state,
            consecutive_bad: self.consecutive_bad,
            open_attempts: self.open_attempts,
            rejected_while_open: self.rejected_while_open,
            backoff_ms: match self.state {
                SourceHealth::Open => {
                    policy.backoff_ms(source_index, self.open_attempts.saturating_sub(1))
                }
                _ => 0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HealthPolicy {
        HealthPolicy {
            degrade_after: 3,
            break_after: 6,
            recover_after: 4,
            sample_keep: 2,
            probe_lines: 2,
            ..HealthPolicy::default()
        }
    }

    #[test]
    fn escalates_degraded_then_open_and_recovers_via_probe() {
        let p = policy();
        let mut h = HealthState::default();
        for i in 0..3 {
            h.record_bad(&p, i);
        }
        assert_eq!(h.state, SourceHealth::Degraded);
        for i in 3..6 {
            h.record_bad(&p, i);
        }
        assert_eq!(h.state, SourceHealth::Open);
        assert_eq!(h.open_attempts, 1);

        assert!(h.probe(&p));
        assert_eq!(h.state, SourceHealth::HalfOpen);
        // A bad line during the probe re-opens with attempt + 1.
        h.record_bad(&p, 7);
        assert_eq!(h.state, SourceHealth::Open);
        assert_eq!(h.open_attempts, 2);

        assert!(h.probe(&p));
        h.record_good(&p);
        h.record_good(&p);
        assert_eq!(h.state, SourceHealth::Healthy);
        assert_eq!(h.open_attempts, 0);
    }

    #[test]
    fn degraded_recovers_after_good_run() {
        let p = policy();
        let mut h = HealthState::default();
        for i in 0..4 {
            h.record_bad(&p, i);
        }
        assert_eq!(h.state, SourceHealth::Degraded);
        for _ in 0..4 {
            h.record_good(&p);
        }
        assert_eq!(h.state, SourceHealth::Healthy);
    }

    #[test]
    fn stall_degrades_and_clears() {
        let p = policy();
        let mut h = HealthState::default();
        h.mark_stalled();
        assert_eq!(h.state, SourceHealth::Degraded);
        // Good lines alone must not clear a stall-degraded source…
        for _ in 0..10 {
            h.record_good(&p);
        }
        assert_eq!(h.state, SourceHealth::Degraded);
        // …only the driver's recovery verdict does.
        h.mark_recovered(&p);
        assert_eq!(h.state, SourceHealth::Healthy);
    }

    #[test]
    fn sampling_applies_only_off_healthy() {
        let p = policy();
        let mut h = HealthState::default();
        assert!(h.record_bad(&p, 0));
        assert!(h.record_bad(&p, 1));
        // Third bad line crosses into Degraded: sampled (1 in 2).
        assert!(h.record_bad(&p, 2));
        assert!(!h.record_bad(&p, 3));
        assert!(h.record_bad(&p, 4));
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = HealthPolicy::default();
        let b0 = p.backoff_ms(0, 0);
        let b3 = p.backoff_ms(0, 3);
        let b20 = p.backoff_ms(0, 20);
        assert!(b0 < b3, "{b0} vs {b3}");
        assert!(b20 <= p.backoff_max_ms + p.backoff_base_ms / 2);
        // Deterministic.
        assert_eq!(p.backoff_ms(2, 1), p.backoff_ms(2, 1));
        // Different sources jitter apart.
        assert_ne!(p.backoff_ms(0, 0), p.backoff_ms(1, 0));
    }

    #[test]
    fn probe_only_from_open() {
        let p = policy();
        let mut h = HealthState::default();
        assert!(!h.probe(&p));
        assert_eq!(h.state, SourceHealth::Healthy);
    }
}
