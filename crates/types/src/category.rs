//! The error taxonomy.
//!
//! Every raw log entry that survives LogDiver's filtering stage is assigned
//! an [`ErrorCategory`]. Categories roll up into [`Subsystem`]s (the level at
//! which the paper reports failure-cause breakdowns) and carry a [`Severity`]
//! that drives coalescing and attribution decisions.
//!
//! The taxonomy mirrors the error classes visible in a Cray XE/XK system's
//! logs: machine-check exceptions and memory errors on the nodes, Gemini
//! interconnect link/routing events, Lustre filesystem events, GPU errors on
//! hybrid nodes, kernel/software failures, and ALPS launcher errors.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Coarse subsystem a category belongs to; the granularity of the paper's
/// failure-cause breakdown tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Subsystem {
    /// Gemini high-speed network: links, lanes, routing.
    Interconnect,
    /// Lustre parallel filesystem: OSTs, MDS, client evictions.
    Filesystem,
    /// Node hardware other than memory: voltage, blade controller, heartbeat.
    NodeHardware,
    /// Memory subsystem: correctable/uncorrectable DIMM errors, MCEs.
    Memory,
    /// GPU on hybrid (XK) nodes.
    Gpu,
    /// System software: kernel panics, node hangs.
    SystemSoftware,
    /// Application launcher (ALPS) and placement infrastructure.
    Launcher,
}

impl Subsystem {
    /// All subsystems in report order.
    pub const ALL: [Subsystem; 7] = [
        Subsystem::Interconnect,
        Subsystem::Filesystem,
        Subsystem::NodeHardware,
        Subsystem::Memory,
        Subsystem::Gpu,
        Subsystem::SystemSoftware,
        Subsystem::Launcher,
    ];

    /// Human-readable name used in tables.
    pub const fn name(self) -> &'static str {
        match self {
            Subsystem::Interconnect => "Interconnect (Gemini)",
            Subsystem::Filesystem => "Filesystem (Lustre)",
            Subsystem::NodeHardware => "Node hardware",
            Subsystem::Memory => "Memory/MCE",
            Subsystem::Gpu => "GPU (hybrid)",
            Subsystem::SystemSoftware => "System software",
            Subsystem::Launcher => "Launcher (ALPS)",
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How serious a single log entry of a category is.
///
/// Ordering matters: `Info < Warning < Error < Critical < Fatal`; the
/// severity of a coalesced event is the maximum over its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational; never causes failures by itself.
    Info,
    /// Suspicious but usually recoverable (e.g. correctable memory error).
    Warning,
    /// An error that can degrade or kill work on the affected scope.
    Error,
    /// An error that almost certainly kills work on the affected scope.
    Critical,
    /// Scope is lost (node dead, OST offline).
    Fatal,
}

impl Severity {
    /// Short uppercase label as it appears in syslog-like records.
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Error => "ERROR",
            Severity::Critical => "CRIT",
            Severity::Fatal => "FATAL",
        }
    }

    /// Parses the label produced by [`Severity::label`].
    pub fn parse_label(s: &str) -> Option<Self> {
        match s {
            "INFO" => Some(Severity::Info),
            "WARN" => Some(Severity::Warning),
            "ERROR" => Some(Severity::Error),
            "CRIT" => Some(Severity::Critical),
            "FATAL" => Some(Severity::Fatal),
            _ => None,
        }
    }
}

crate::codec_enum!(Severity {
    Info = 0,
    Warning = 1,
    Error = 2,
    Critical = 3,
    Fatal = 4,
});

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The spatial scope an error of a given category affects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorScope {
    /// A single node.
    Node,
    /// A blade (4 nodes sharing a mezzanine and Gemini ASICs).
    Blade,
    /// A whole cabinet (e.g. power distribution).
    Cabinet,
    /// Machine-wide (e.g. torus reroute, Lustre outage).
    System,
}

/// Fine-grained error category assigned to filtered log entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ErrorCategory {
    /// Machine-check exception reported by the processor.
    MachineCheckException,
    /// Flood of correctable DIMM errors (warning sign, not fatal).
    MemoryCorrectable,
    /// Uncorrectable DIMM error; kills the node's workload.
    MemoryUncorrectable,
    /// Gemini HSN link failed (LCB down); triggers reroute.
    GeminiLinkFailure,
    /// Gemini link lane degraded (running at reduced width).
    GeminiLaneDegrade,
    /// System-wide route reconfiguration (failover quiesce).
    GeminiRouteReconfig,
    /// Node stopped responding to heartbeats; declared dead.
    NodeHeartbeatFault,
    /// Blade controller (L0) failure; takes out the blade.
    BladeControllerFailure,
    /// Voltage-regulator fault on the node board.
    VoltageFault,
    /// Kernel panic on a compute node.
    KernelPanic,
    /// Node alive but hung/unresponsive (software wedge).
    NodeHang,
    /// Lustre object storage target failure/unmount.
    LustreOstFailure,
    /// Lustre metadata server failover.
    LustreMdsFailover,
    /// Lustre client eviction on a compute node.
    LustreClientEviction,
    /// GPU double-bit (uncorrectable) ECC error.
    GpuDoubleBitError,
    /// GPU fell off the bus / Xid bus error.
    GpuBusError,
    /// GPU memory page retirement (correctable pressure).
    GpuPageRetirement,
    /// ALPS failed to launch or tear down an application.
    AlpsLaunchFailure,
    /// Warm-swap / maintenance notice for a blade.
    MaintenanceNotice,
}

crate::codec_enum!(ErrorCategory {
    MachineCheckException = 0,
    MemoryCorrectable = 1,
    MemoryUncorrectable = 2,
    GeminiLinkFailure = 3,
    GeminiLaneDegrade = 4,
    GeminiRouteReconfig = 5,
    NodeHeartbeatFault = 6,
    BladeControllerFailure = 7,
    VoltageFault = 8,
    KernelPanic = 9,
    NodeHang = 10,
    LustreOstFailure = 11,
    LustreMdsFailover = 12,
    LustreClientEviction = 13,
    GpuDoubleBitError = 14,
    GpuBusError = 15,
    GpuPageRetirement = 16,
    AlpsLaunchFailure = 17,
    MaintenanceNotice = 18,
});

impl ErrorCategory {
    /// All categories, in a stable report order.
    pub const ALL: [ErrorCategory; 19] = [
        ErrorCategory::MachineCheckException,
        ErrorCategory::MemoryCorrectable,
        ErrorCategory::MemoryUncorrectable,
        ErrorCategory::GeminiLinkFailure,
        ErrorCategory::GeminiLaneDegrade,
        ErrorCategory::GeminiRouteReconfig,
        ErrorCategory::NodeHeartbeatFault,
        ErrorCategory::BladeControllerFailure,
        ErrorCategory::VoltageFault,
        ErrorCategory::KernelPanic,
        ErrorCategory::NodeHang,
        ErrorCategory::LustreOstFailure,
        ErrorCategory::LustreMdsFailover,
        ErrorCategory::LustreClientEviction,
        ErrorCategory::GpuDoubleBitError,
        ErrorCategory::GpuBusError,
        ErrorCategory::GpuPageRetirement,
        ErrorCategory::AlpsLaunchFailure,
        ErrorCategory::MaintenanceNotice,
    ];

    /// The subsystem this category rolls up into.
    pub const fn subsystem(self) -> Subsystem {
        use ErrorCategory::*;
        match self {
            MachineCheckException | MemoryCorrectable | MemoryUncorrectable => Subsystem::Memory,
            GeminiLinkFailure | GeminiLaneDegrade | GeminiRouteReconfig => Subsystem::Interconnect,
            NodeHeartbeatFault | BladeControllerFailure | VoltageFault | MaintenanceNotice => {
                Subsystem::NodeHardware
            }
            KernelPanic | NodeHang => Subsystem::SystemSoftware,
            LustreOstFailure | LustreMdsFailover | LustreClientEviction => Subsystem::Filesystem,
            GpuDoubleBitError | GpuBusError | GpuPageRetirement => Subsystem::Gpu,
            AlpsLaunchFailure => Subsystem::Launcher,
        }
    }

    /// Default severity of an entry of this category.
    pub const fn severity(self) -> Severity {
        use ErrorCategory::*;
        match self {
            MemoryCorrectable | GeminiLaneDegrade | GpuPageRetirement => Severity::Warning,
            MaintenanceNotice => Severity::Info,
            LustreClientEviction | GeminiRouteReconfig | LustreMdsFailover => Severity::Error,
            MachineCheckException | GeminiLinkFailure | AlpsLaunchFailure | NodeHang => {
                Severity::Critical
            }
            MemoryUncorrectable
            | NodeHeartbeatFault
            | BladeControllerFailure
            | VoltageFault
            | KernelPanic
            | LustreOstFailure
            | GpuDoubleBitError
            | GpuBusError => Severity::Fatal,
        }
    }

    /// Spatial scope typically affected by an error of this category.
    pub const fn scope(self) -> ErrorScope {
        use ErrorCategory::*;
        match self {
            GeminiRouteReconfig | LustreOstFailure | LustreMdsFailover => ErrorScope::System,
            BladeControllerFailure | GeminiLinkFailure | GeminiLaneDegrade => ErrorScope::Blade,
            _ => ErrorScope::Node,
        }
    }

    /// True when an error of this category can, by itself, terminate an
    /// application running on the affected scope.
    pub const fn is_application_lethal(self) -> bool {
        matches!(self.severity(), Severity::Critical | Severity::Fatal)
            && !matches!(self, ErrorCategory::MaintenanceNotice)
    }

    /// True for categories that only occur on GPU-carrying (XK) nodes.
    pub const fn is_gpu_specific(self) -> bool {
        matches!(self.subsystem(), Subsystem::Gpu)
    }

    /// Stable machine-readable token (used in log templates and reports).
    pub const fn token(self) -> &'static str {
        use ErrorCategory::*;
        match self {
            MachineCheckException => "MCE",
            MemoryCorrectable => "MEM_CE",
            MemoryUncorrectable => "MEM_UE",
            GeminiLinkFailure => "HSN_LINK",
            GeminiLaneDegrade => "HSN_LANE",
            GeminiRouteReconfig => "HSN_REROUTE",
            NodeHeartbeatFault => "NODE_DEAD",
            BladeControllerFailure => "L0_FAIL",
            VoltageFault => "VRM_FAULT",
            KernelPanic => "KPANIC",
            NodeHang => "NODE_HANG",
            LustreOstFailure => "LFS_OST",
            LustreMdsFailover => "LFS_MDS",
            LustreClientEviction => "LFS_EVICT",
            GpuDoubleBitError => "GPU_DBE",
            GpuBusError => "GPU_BUS",
            GpuPageRetirement => "GPU_PGRET",
            AlpsLaunchFailure => "ALPS_LAUNCH",
            MaintenanceNotice => "MAINT",
        }
    }

    /// Parses the token produced by [`ErrorCategory::token`].
    pub fn parse_token(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.token() == s)
    }
}

impl fmt::Display for ErrorCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in ErrorCategory::ALL {
            assert!(seen.insert(c.token()), "duplicate token {}", c.token());
            assert_eq!(ErrorCategory::parse_token(c.token()), Some(c));
        }
        assert_eq!(ErrorCategory::parse_token("BOGUS"), None);
    }

    #[test]
    fn severity_labels_round_trip() {
        for s in [
            Severity::Info,
            Severity::Warning,
            Severity::Error,
            Severity::Critical,
            Severity::Fatal,
        ] {
            assert_eq!(Severity::parse_label(s.label()), Some(s));
        }
    }

    #[test]
    fn severity_ordering_is_meaningful() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert!(Severity::Error < Severity::Critical);
        assert!(Severity::Critical < Severity::Fatal);
    }

    #[test]
    fn gpu_categories_belong_to_gpu_subsystem() {
        for c in ErrorCategory::ALL {
            assert_eq!(c.is_gpu_specific(), c.subsystem() == Subsystem::Gpu);
        }
    }

    #[test]
    fn lethality_follows_severity() {
        assert!(ErrorCategory::MemoryUncorrectable.is_application_lethal());
        assert!(ErrorCategory::GpuDoubleBitError.is_application_lethal());
        assert!(!ErrorCategory::MemoryCorrectable.is_application_lethal());
        assert!(!ErrorCategory::MaintenanceNotice.is_application_lethal());
        assert!(!ErrorCategory::GpuPageRetirement.is_application_lethal());
    }

    #[test]
    fn system_scope_categories() {
        assert_eq!(
            ErrorCategory::GeminiRouteReconfig.scope(),
            ErrorScope::System
        );
        assert_eq!(ErrorCategory::LustreOstFailure.scope(), ErrorScope::System);
        assert_eq!(ErrorCategory::KernelPanic.scope(), ErrorScope::Node);
        assert_eq!(
            ErrorCategory::BladeControllerFailure.scope(),
            ErrorScope::Blade
        );
    }

    #[test]
    fn every_subsystem_has_a_category() {
        for sub in Subsystem::ALL {
            assert!(
                ErrorCategory::ALL.iter().any(|c| c.subsystem() == sub),
                "no category for {sub}"
            );
        }
    }
}
