//! # logdiver
//!
//! The paper's primary contribution: a tool that measures the resilience of
//! HPC *applications* (not just the system) by jointly analyzing workload
//! logs (Torque accounting, ALPS `apsys`) and error logs (syslog, hardware
//! error log, netwatch) from a Cray XE/XK machine.
//!
//! ## Pipeline
//!
//! ```text
//!  raw log files
//!    │  parse      — typed records per source, corrupt lines counted    [input, parse]
//!    │  filter     — template matching: error category or discard       [filter]
//!    │  coalesce   — spatial-temporal tupling into error events         [coalesce]
//!    │  reconstruct— application runs from ALPS ⋈ Torque                [workload]
//!    │  match      — events ⋈ runs by time overlap + node intersection  [matcher]
//!    │  classify   — per-run verdict: success / user / system / …       [classify]
//!    ▼  metrics    — the paper's tables and figures                     [metrics, report]
//! ```
//!
//! The one-call entry point is [`LogDiver::analyze`]:
//!
//! ```
//! use logdiver::{LogCollection, LogDiver};
//!
//! let mut logs = LogCollection::new();
//! logs.alps.push("2013-03-28 12:30:00 apsys PLACED apid=7 batch=1.bw user=u0001 \
//!                 cmd=a.out type=XE width=2 nodelist=nid[0-1]".to_string());
//! logs.alps.push("2013-03-28 13:30:00 apsys EXIT apid=7 code=0 signal=none \
//!                 node_failed=no runtime=3600".to_string());
//! let analysis = LogDiver::new().analyze(&logs);
//! assert_eq!(analysis.runs.len(), 1);
//! assert!(analysis.runs[0].class.is_failure() == false);
//! ```
//!
//! ## Honesty constraints
//!
//! The filter's pattern table ([`filter::PatternTable`]) is written against
//! the *message text* found in the logs, independently of the emitting
//! code (`craylog::templates`) — the tool must work from what the machine
//! actually prints, exactly as the real LogDiver had to. No module in this
//! crate reads simulator ground truth.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod checkpoint;
pub mod classify;
pub mod coalesce;
pub mod config;
pub mod coverage;
pub mod error;
pub mod exec;
pub mod filter;
pub mod input;
pub mod jobs;
pub mod matcher;
pub mod metrics;
#[cfg(test)]
mod oracle;
pub mod parse;
pub mod pipeline;
pub mod precursor;
pub mod report;
pub mod temporal;
pub mod users;
pub mod workload;

pub use classify::{AttributionConfidence, ClassifiedRun};
pub use coalesce::{Coalescer, ErrorEvent};
pub use config::LogDiverConfig;
pub use coverage::{CoverageConfig, CoverageGap, CoverageMap};
pub use error::LogDiverError;
pub use input::LogCollection;
pub use jobs::JobReport;
pub use matcher::{EventLookup, MatchIndex};
pub use metrics::MetricSet;
pub use pipeline::{Analysis, LogDiver, PipelineStats, StageTimings};
pub use precursor::PrecursorReport;
pub use temporal::TemporalReport;
pub use users::UserReport;
pub use workload::AppRun;
pub use workload::RunReconstructor;
