//! # logdiver-types
//!
//! Shared vocabulary for the LogDiver field-study toolkit — the common types
//! used by the machine model ([`bw-topology`]), the log formats ([`craylog`]),
//! the workload and fault generators, the simulator and the LogDiver analysis
//! pipeline itself.
//!
//! The crate is deliberately dependency-light: everything here is plain data
//! with value semantics, so every other crate in the workspace can exchange
//! these types without coupling.
//!
//! ## Contents
//!
//! - [`ids`] — strongly-typed identifiers ([`NodeId`], [`JobId`], [`AppId`],
//!   [`UserId`]) following the newtype pattern (C-NEWTYPE).
//! - [`time`] — [`Timestamp`] / [`SimDuration`] with civil-date formatting and
//!   parsing (no external time crate).
//! - [`node`] — node kinds of a Cray hybrid machine ([`NodeType`]).
//! - [`category`] — the error taxonomy ([`ErrorCategory`], [`Subsystem`],
//!   [`Severity`]) shared by fault injection, log emission and log filtering.
//! - [`exit`] — application exit information ([`ExitStatus`]) and the outcome
//!   classification ([`ExitClass`], [`FailureCause`], [`UserFailureKind`]).
//! - [`nodeset`] — [`NodeSet`], a bitmap over every node id of the machine,
//!   for allocation and scheduling.
//! - [`ranges`] — [`RangeSet`], one placement as sorted nid ranges: what
//!   the ALPS parser yields and every application run holds.
//! - [`codec`] — the canonical binary encoding ([`codec::Encode`] /
//!   [`codec::Decode`]) checkpoints are written in, implemented beside each
//!   type that a checkpoint can reach.
//! - [`intern`] — [`Sym`], a global string interner for hot repeated log
//!   fields (hostnames, tags, commands, queues).
//! - [`fsio`] — the narrow [`fsio::Fs`] filesystem seam behind every
//!   checkpoint read/write, so fault-injecting filesystems can stand in
//!   for the real one in tests.
//! - [`protocol`] — the serve↔client wire-protocol code catalog: every
//!   `ERR code=<kebab>` value as a named constant, with the client
//!   disposition each code demands, cross-checked by `logdiver lint`'s
//!   protocol-contract verifier.
//!
//! ## Example
//!
//! ```
//! use logdiver_types::{NodeId, NodeSet, Timestamp};
//!
//! let mut set = NodeSet::new();
//! set.insert(NodeId::new(12));
//! set.insert(NodeId::new(4000));
//! assert_eq!(set.len(), 2);
//!
//! let t = Timestamp::from_ymd_hms(2013, 3, 28, 12, 30, 0);
//! assert_eq!(t.to_string(), "2013-03-28 12:30:00");
//! ```
//!
//! [`bw-topology`]: https://example.com/logdiver-repro
//! [`craylog`]: https://example.com/logdiver-repro
//! [`NodeId`]: ids::NodeId
//! [`JobId`]: ids::JobId
//! [`AppId`]: ids::AppId
//! [`UserId`]: ids::UserId
//! [`Timestamp`]: time::Timestamp
//! [`SimDuration`]: time::SimDuration
//! [`NodeType`]: node::NodeType
//! [`ErrorCategory`]: category::ErrorCategory
//! [`Subsystem`]: category::Subsystem
//! [`Severity`]: category::Severity
//! [`ExitStatus`]: exit::ExitStatus
//! [`ExitClass`]: exit::ExitClass
//! [`FailureCause`]: exit::FailureCause
//! [`UserFailureKind`]: exit::UserFailureKind
//! [`NodeSet`]: nodeset::NodeSet
//! [`RangeSet`]: ranges::RangeSet
//! [`Sym`]: intern::Sym

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod category;
pub mod codec;
pub mod error;
pub mod exit;
pub mod fsio;
pub mod ids;
pub mod intern;
pub mod node;
pub mod nodeset;
pub mod protocol;
pub mod ranges;
pub mod time;

pub use category::{ErrorCategory, Severity, Subsystem};
pub use error::TypesError;
pub use exit::{ExitClass, ExitStatus, FailureCause, UserFailureKind};
pub use fsio::{Fs, RealFs};
pub use ids::{AppId, CabinetId, JobId, NodeId, UserId};
pub use intern::Sym;
pub use node::NodeType;
pub use nodeset::NodeSet;
pub use ranges::RangeSet;
pub use time::{LazyTimestamp, SimDuration, Timestamp};
