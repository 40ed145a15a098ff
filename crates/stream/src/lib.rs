//! # logdiver-stream
//!
//! Online streaming ingestion for LogDiver: raw log lines go in (in
//! arrival order, from all five sources), live metrics come out — without
//! waiting for the full 518-day corpus to be on disk.
//!
//! The batch pipeline ([`logdiver::LogDiver`]) and this engine are two
//! drivers over the *same* incremental stages:
//! [`logdiver::coalesce::Coalescer`],
//! [`logdiver::workload::RunReconstructor`], and
//! [`logdiver::classify::classify_one`] over the
//! [`logdiver::matcher::EventLookup`] trait. The engine adds what online
//! operation needs: parallel parsing behind bounded channels, per-source
//! low watermarks with an allowed-lateness reorder buffer, and
//! watermark-driven event closing and run finalization, so memory is
//! proportional to *open* state rather than the whole history.
//!
//! ## Correctness bar
//!
//! For any chunking of the same logs — and any within-lateness reordering
//! inside a source — [`StreamEngine::drain`] returns an
//! [`logdiver::pipeline::Analysis`] equal to what
//! [`logdiver::LogDiver::analyze`] computes on the whole corpus:
//! verdict-for-verdict, event-for-event, metric-for-metric. The
//! equivalence proptests in `tests/` enforce exactly that.
//!
//! ```
//! use logdiver_stream::{Source, StreamConfig, StreamEngine};
//!
//! let mut engine = StreamEngine::new(StreamConfig::default());
//! engine
//!     .push(
//!         Source::Alps,
//!         "2013-03-28 12:30:00 apsys PLACED apid=7 batch=1.bw user=u0001 \
//!          cmd=a.out type=XE width=2 nodelist=nid[0-1]",
//!     )
//!     .unwrap();
//! engine
//!     .push(
//!         Source::Alps,
//!         "2013-03-28 13:30:00 apsys EXIT apid=7 code=0 signal=none \
//!          node_failed=no runtime=3600",
//!     )
//!     .unwrap();
//! let analysis = engine.drain();
//! assert_eq!(analysis.runs.len(), 1);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod checkpoint;
mod config;
mod engine;
mod health;
mod index;
pub mod inline;
mod state;
pub mod tail;

pub use checkpoint::{ResumeError, StreamCheckpoint};
pub use config::{Source, StreamConfig};
pub use engine::StreamEngine;
pub use health::{HealthPolicy, HealthReport, SourceHealth};
pub use index::StreamIndex;
pub use inline::{InlineEngine, StreamError, StreamSnapshot};

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver::{LogCollection, LogDiver};
    use logdiver_types::ExitClass;

    /// The batch pipeline's handwritten scenario, pushed line by line.
    fn scenario() -> LogCollection {
        let mut logs = LogCollection::new();
        logs.torque.extend([
            "2013-03-28 10:00:00;S;1.bw;user=u0001 queue=normal nodes=4 walltime=86400".to_string(),
            "2013-03-28 10:00:00;S;2.bw;user=u0002 queue=small nodes=1 walltime=86400".to_string(),
        ]);
        logs.alps.extend([
            "2013-03-28 10:00:05 apsys PLACED apid=100 batch=1.bw user=u0001 cmd=namd2 type=XE width=4 nodelist=nid[0-3]".to_string(),
            "2013-03-28 10:00:06 apsys PLACED apid=200 batch=2.bw user=u0002 cmd=vasp type=XE width=1 nodelist=nid[100]".to_string(),
            "2013-03-28 12:00:05 apsys EXIT apid=100 code=137 signal=9 node_failed=yes runtime=7200".to_string(),
            "2013-03-28 13:00:06 apsys EXIT apid=200 code=0 signal=none node_failed=no runtime=10800".to_string(),
            "2013-03-28 14:00:00 apsys PLACED apid=300 batch=2.bw user=u0002 cmd=vasp type=XE width=1 nodelist=nid[101]".to_string(),
            "2013-03-28 14:00:03 apsys LAUNCHERR apid=300 reason=placement failed: node unavailable".to_string(),
        ]);
        logs.syslog.extend([
            "2013-03-28 09:59:00 nid00050 ntpd: time slew +0.012s".to_string(),
            "2013-03-28 12:00:00 nid00002 kernel: Machine Check Exception: bank 4 status 0xb200".to_string(),
            "2013-03-28 12:00:31 smw xtnmd: node heartbeat fault: no response in 60s, declaring node dead".to_string(),
            "2013-03-28 15:00:00 nid00051 sshd: Accepted publickey for user port 2222".to_string(),
        ]);
        logs.hwerr.extend([
            "2013-03-28 12:00:01|c0-0c0s0n2|MCE|CRIT|bank=4".to_string(),
            "2013-03-28 12:00:31|c0-0c0s0n2|NODE_DEAD|FATAL|".to_string(),
        ]);
        logs
    }

    fn push_all(engine: &mut StreamEngine, logs: &LogCollection) {
        engine
            .push_batch(Source::Syslog, logs.syslog.iter().cloned())
            .unwrap();
        engine
            .push_batch(Source::HwErr, logs.hwerr.iter().cloned())
            .unwrap();
        engine
            .push_batch(Source::Alps, logs.alps.iter().cloned())
            .unwrap();
        engine
            .push_batch(Source::Torque, logs.torque.iter().cloned())
            .unwrap();
        engine
            .push_batch(Source::Netwatch, logs.netwatch.iter().cloned())
            .unwrap();
    }

    #[test]
    fn drain_matches_batch_on_handwritten_scenario() {
        let logs = scenario();
        let batch = LogDiver::new().analyze(&logs);
        let mut engine = StreamEngine::new(StreamConfig::default());
        push_all(&mut engine, &logs);
        let streamed = engine.drain();
        assert_eq!(streamed.runs, batch.runs);
        assert_eq!(streamed.events, batch.events);
        assert_eq!(streamed.metrics, batch.metrics);
        assert_eq!(streamed.stats, batch.stats);
    }

    #[test]
    fn corrupt_lines_are_quarantined_not_fatal() {
        let logs = scenario();
        let mut engine = StreamEngine::new(StreamConfig::default());
        push_all(&mut engine, &logs);
        engine.push(Source::Syslog, "¡corrupted±line···").unwrap();
        engine.push(Source::Alps, "2013-03-28 garbage").unwrap();
        engine.push(Source::HwErr, "   ").unwrap();
        let (bad, kept) = {
            // Let the workers catch up before inspecting the quarantine.
            loop {
                let (bad, kept) = engine.quarantined(Source::Syslog);
                if bad >= 1 {
                    break (bad, kept);
                }
                std::thread::yield_now();
            }
        };
        assert_eq!(bad, 1);
        assert_eq!(kept, vec!["¡corrupted±line···".to_string()]);
        let analysis = engine.drain();
        assert_eq!(analysis.runs.len(), 3);
        assert_eq!(analysis.stats.parse[0].bad, 1);
        assert_eq!(analysis.stats.parse[1].bad, 1);
        assert_eq!(analysis.stats.parse[2].bad, 1);
        assert!(analysis
            .runs
            .iter()
            .any(|r| matches!(r.class, ExitClass::SystemFailure(_))));
    }

    #[test]
    fn push_after_close_errors() {
        let mut engine = StreamEngine::new(StreamConfig::default());
        engine.close(Source::Netwatch);
        assert_eq!(
            engine.push(Source::Netwatch, "x"),
            Err(StreamError::SourceClosed(Source::Netwatch))
        );
        assert_eq!(engine.pushed(Source::Netwatch), 0);
        let analysis = engine.drain();
        assert!(analysis.runs.is_empty());
    }

    #[test]
    fn snapshot_is_queryable_mid_stream() {
        let logs = scenario();
        let mut engine = StreamEngine::new(StreamConfig::default());
        push_all(&mut engine, &logs);
        let snap = engine.snapshot();
        assert!(snap.late_dropped == 0);
        let analysis = engine.drain();
        let end = engine_total(&analysis);
        assert_eq!(end, 14, "all pushed lines accounted for");
    }

    fn engine_total(analysis: &logdiver::Analysis) -> u64 {
        analysis.stats.parse.iter().map(|c| c.total).sum()
    }
}
