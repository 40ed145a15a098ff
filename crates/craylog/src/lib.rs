//! # craylog
//!
//! Log-record formats of a Cray XE/XK production system — the five data
//! sources the field study joins:
//!
//! | module | real-world counterpart | content |
//! |---|---|---|
//! | [`syslog`] | consolidated `messages` stream | free-text lines from kernel, Lustre clients, daemons |
//! | [`hwerr`] | Cray hardware error log | structured records with physical location codes |
//! | [`alps`] | ALPS `apsys`/`apsched` logs | application (aprun) placement, launch and exit records |
//! | [`torque`] | Torque/Moab accounting | batch-job start/end records |
//! | [`netwatch`] | HSN network watcher | Gemini link failures, lane degrades, reroutes |
//!
//! Every record type provides **emit** (via [`std::fmt::Display`]) and
//! **parse** (an inherent `parse` returning `Result<_, CraylogError>`), and
//! the two round-trip. The simulator uses the emitters to produce raw log
//! files; LogDiver uses the parsers to read them back. Message *text* for
//! error conditions comes from [`templates`], which renders several concrete
//! phrasings per [`logdiver_types::ErrorCategory`] — LogDiver's filter keeps
//! its own independent pattern table, as the real tool had to.
//!
//! ## The zero-copy hot path
//!
//! Each parser's real implementation is a byte-level `parse_bytes` over
//! `&[u8]` (borrowed from an mmap-style input arena), built on the [`scan`]
//! field scanners: no `String` is allocated per record, timestamps decode
//! lazily ([`logdiver_types::LazyTimestamp`]), and rejections are the
//! allocation-free [`CraylogFault`]. High-volume sources additionally keep
//! their free-text fields borrowed ([`syslog::RawSyslog`],
//! [`hwerr::RawHwErr`]) until an explicit `materialize()`. The `parse(&str)`
//! entry points are thin wrappers, byte-for-byte equivalent to the retired
//! allocating parsers — an equivalence pinned by differential proptests
//! against the frozen copies in `tests/reference/`.
//!
//! ## Example
//!
//! ```
//! use craylog::syslog::SyslogRecord;
//! use logdiver_types::Timestamp;
//!
//! let line = "2013-03-28 12:30:00 nid04008 kernel: Machine Check Exception: bank 4";
//! let rec = SyslogRecord::parse(line)?;
//! assert_eq!(rec.host, "nid04008");
//! assert_eq!(rec.to_string(), line);
//! # Ok::<(), craylog::CraylogError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod alps;
pub mod anonymize;
pub mod error;
pub mod hwerr;
pub mod netwatch;
pub mod nodelist;
pub mod scan;
pub mod syslog;
pub mod templates;
pub mod torque;

pub use error::{CraylogError, CraylogFault};
pub use nodelist::{format_nodelist, parse_nodelist, parse_nodelist_bytes};
