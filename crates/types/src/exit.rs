//! Application exit information and outcome classification.
//!
//! The launcher (ALPS) records, for each application run, an exit code and
//! the signal that terminated it (if any) — that raw record is [`ExitStatus`].
//! LogDiver's classification stage turns an [`ExitStatus`] plus correlated
//! error events into an [`ExitClass`]: the paper's unit of accounting
//! ("1.53 % of applications fail due to system problems").

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::category::Subsystem;
use crate::codec::{Decode, DecodeError, Encode, Reader};

/// Raw termination record of an application run, as the launcher sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ExitStatus {
    /// Process exit code (0 = clean), meaningless when `signal` is set.
    pub code: i32,
    /// Fatal signal number, if the application died on a signal.
    pub signal: Option<i32>,
    /// True when the launcher itself observed the loss of one or more of the
    /// application's nodes (Cray's "node failed" claim in `apsys` records).
    pub node_failed: bool,
}

crate::codec_struct!(ExitStatus {
    code,
    signal,
    node_failed
});

impl ExitStatus {
    /// A clean, successful exit.
    pub const SUCCESS: ExitStatus = ExitStatus {
        code: 0,
        signal: None,
        node_failed: false,
    };

    /// Builds a plain exit with the given code.
    pub const fn with_code(code: i32) -> Self {
        ExitStatus {
            code,
            signal: None,
            node_failed: false,
        }
    }

    /// Builds a signal death.
    pub const fn with_signal(signal: i32) -> Self {
        ExitStatus {
            code: 128 + signal,
            signal: Some(signal),
            node_failed: false,
        }
    }

    /// Marks the status as involving a node loss observed by the launcher.
    pub const fn and_node_failed(mut self) -> Self {
        self.node_failed = true;
        self
    }

    /// True when the run terminated cleanly.
    pub const fn is_clean(self) -> bool {
        self.code == 0 && self.signal.is_none() && !self.node_failed
    }
}

impl fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.signal {
            Some(sig) => write!(f, "signal {sig}")?,
            None => write!(f, "exit {}", self.code)?,
        }
        if self.node_failed {
            write!(f, " (node failed)")?;
        }
        Ok(())
    }
}

/// Why a run failed for a *system* reason — the coarse cause the paper's
/// breakdown tables use. Mirrors [`Subsystem`] plus an "undetermined" bucket
/// for failures the logs cannot explain (crucial for lesson iii: hybrid
/// nodes lack detection, so their failures often land here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FailureCause {
    /// Gemini interconnect failure.
    Interconnect,
    /// Lustre filesystem failure.
    Filesystem,
    /// Node hardware failure (board, voltage, heartbeat loss).
    NodeHardware,
    /// Memory subsystem failure (uncorrectable error, MCE).
    Memory,
    /// GPU failure on a hybrid node.
    Gpu,
    /// System-software failure (kernel panic, node hang).
    SystemSoftware,
    /// Launcher/placement infrastructure failure.
    Launcher,
    /// The run was killed by the system but no detected error explains it.
    Undetermined,
}

crate::codec_enum!(FailureCause {
    Interconnect = 0,
    Filesystem = 1,
    NodeHardware = 2,
    Memory = 3,
    Gpu = 4,
    SystemSoftware = 5,
    Launcher = 6,
    Undetermined = 7,
});

impl FailureCause {
    /// All causes in report order.
    pub const ALL: [FailureCause; 8] = [
        FailureCause::Interconnect,
        FailureCause::Filesystem,
        FailureCause::NodeHardware,
        FailureCause::Memory,
        FailureCause::Gpu,
        FailureCause::SystemSoftware,
        FailureCause::Launcher,
        FailureCause::Undetermined,
    ];

    /// Human-readable name for tables.
    pub const fn name(self) -> &'static str {
        match self {
            FailureCause::Interconnect => "Interconnect",
            FailureCause::Filesystem => "Filesystem",
            FailureCause::NodeHardware => "Node hardware",
            FailureCause::Memory => "Memory/MCE",
            FailureCause::Gpu => "GPU",
            FailureCause::SystemSoftware => "System software",
            FailureCause::Launcher => "Launcher",
            FailureCause::Undetermined => "Undetermined",
        }
    }
}

impl From<Subsystem> for FailureCause {
    fn from(sub: Subsystem) -> Self {
        match sub {
            Subsystem::Interconnect => FailureCause::Interconnect,
            Subsystem::Filesystem => FailureCause::Filesystem,
            Subsystem::NodeHardware => FailureCause::NodeHardware,
            Subsystem::Memory => FailureCause::Memory,
            Subsystem::Gpu => FailureCause::Gpu,
            Subsystem::SystemSoftware => FailureCause::SystemSoftware,
            Subsystem::Launcher => FailureCause::Launcher,
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a run failed for a *user* reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum UserFailureKind {
    /// Segmentation fault (SIGSEGV) or bus error (SIGBUS) in the application.
    Segfault,
    /// The application aborted itself (SIGABRT, assertion failure).
    Abort,
    /// Application exceeded its memory allocation and was OOM-killed.
    OutOfMemory,
    /// The application returned a nonzero exit code.
    NonzeroExit,
    /// The user (or the user's script) cancelled the run (SIGTERM/SIGKILL
    /// without node failure or walltime involvement).
    Cancelled,
}

crate::codec_enum!(UserFailureKind {
    Segfault = 0,
    Abort = 1,
    OutOfMemory = 2,
    NonzeroExit = 3,
    Cancelled = 4,
});

impl UserFailureKind {
    /// All kinds in report order.
    pub const ALL: [UserFailureKind; 5] = [
        UserFailureKind::Segfault,
        UserFailureKind::Abort,
        UserFailureKind::OutOfMemory,
        UserFailureKind::NonzeroExit,
        UserFailureKind::Cancelled,
    ];

    /// Human-readable name for tables.
    pub const fn name(self) -> &'static str {
        match self {
            UserFailureKind::Segfault => "Segfault",
            UserFailureKind::Abort => "Abort",
            UserFailureKind::OutOfMemory => "Out of memory",
            UserFailureKind::NonzeroExit => "Nonzero exit",
            UserFailureKind::Cancelled => "Cancelled",
        }
    }
}

impl fmt::Display for UserFailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// LogDiver's final verdict on one application run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ExitClass {
    /// The run completed successfully.
    Success,
    /// The run was killed by a system problem with the given cause.
    SystemFailure(FailureCause),
    /// The run failed for a reason attributable to the user/application.
    UserFailure(UserFailureKind),
    /// The run hit its requested walltime and was killed by the scheduler.
    WalltimeExceeded,
    /// The records are insufficient to classify the run.
    Unknown,
}

impl Encode for ExitClass {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ExitClass::Success => out.push(0),
            ExitClass::SystemFailure(cause) => {
                out.push(1);
                cause.encode(out);
            }
            ExitClass::UserFailure(kind) => {
                out.push(2);
                kind.encode(out);
            }
            ExitClass::WalltimeExceeded => out.push(3),
            ExitClass::Unknown => out.push(4),
        }
    }
}

impl Decode for ExitClass {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(ExitClass::Success),
            1 => Ok(ExitClass::SystemFailure(FailureCause::decode(r)?)),
            2 => Ok(ExitClass::UserFailure(UserFailureKind::decode(r)?)),
            3 => Ok(ExitClass::WalltimeExceeded),
            4 => Ok(ExitClass::Unknown),
            _ => Err(r.bad("unknown ExitClass tag")),
        }
    }
}

impl ExitClass {
    /// True for any system-caused failure.
    pub const fn is_system_failure(self) -> bool {
        matches!(self, ExitClass::SystemFailure(_))
    }

    /// True for any user-caused failure.
    pub const fn is_user_failure(self) -> bool {
        matches!(self, ExitClass::UserFailure(_))
    }

    /// True when the run did not complete successfully (any failure bucket).
    pub const fn is_failure(self) -> bool {
        !matches!(self, ExitClass::Success)
    }

    /// Coarse label used as a table row key.
    pub const fn bucket_name(self) -> &'static str {
        match self {
            ExitClass::Success => "Success",
            ExitClass::SystemFailure(_) => "System failure",
            ExitClass::UserFailure(_) => "User failure",
            ExitClass::WalltimeExceeded => "Walltime exceeded",
            ExitClass::Unknown => "Unknown",
        }
    }
}

impl fmt::Display for ExitClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExitClass::SystemFailure(cause) => write!(f, "System failure ({cause})"),
            ExitClass::UserFailure(kind) => write!(f, "User failure ({kind})"),
            other => f.write_str(other.bucket_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_is_clean() {
        assert!(ExitStatus::SUCCESS.is_clean());
        assert!(!ExitStatus::with_code(1).is_clean());
        assert!(!ExitStatus::with_signal(11).is_clean());
        assert!(!ExitStatus::SUCCESS.and_node_failed().is_clean());
    }

    #[test]
    fn signal_exit_sets_conventional_code() {
        let s = ExitStatus::with_signal(9);
        assert_eq!(s.code, 137);
        assert_eq!(s.signal, Some(9));
    }

    #[test]
    fn exit_status_display() {
        assert_eq!(ExitStatus::with_code(3).to_string(), "exit 3");
        assert_eq!(ExitStatus::with_signal(11).to_string(), "signal 11");
        assert_eq!(
            ExitStatus::with_signal(9).and_node_failed().to_string(),
            "signal 9 (node failed)"
        );
    }

    #[test]
    fn class_predicates() {
        assert!(ExitClass::SystemFailure(FailureCause::Gpu).is_system_failure());
        assert!(ExitClass::SystemFailure(FailureCause::Gpu).is_failure());
        assert!(ExitClass::UserFailure(UserFailureKind::Abort).is_user_failure());
        assert!(!ExitClass::Success.is_failure());
        assert!(ExitClass::WalltimeExceeded.is_failure());
        assert!(ExitClass::Unknown.is_failure());
    }

    #[test]
    fn subsystem_maps_onto_cause() {
        assert_eq!(FailureCause::from(Subsystem::Gpu), FailureCause::Gpu);
        assert_eq!(
            FailureCause::from(Subsystem::Interconnect),
            FailureCause::Interconnect
        );
        // Every subsystem maps to a non-Undetermined cause.
        for sub in Subsystem::ALL {
            assert_ne!(FailureCause::from(sub), FailureCause::Undetermined);
        }
    }

    #[test]
    fn display_strings_are_informative() {
        let c = ExitClass::SystemFailure(FailureCause::Interconnect);
        assert_eq!(c.to_string(), "System failure (Interconnect)");
        assert_eq!(c.bucket_name(), "System failure");
        let u = ExitClass::UserFailure(UserFailureKind::Segfault);
        assert_eq!(u.to_string(), "User failure (Segfault)");
    }
}
