//! Node kinds of a Cray hybrid machine.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The kind of a node in the machine.
///
/// Blue Waters mixes three kinds:
///
/// - **XE** — dual-socket AMD Interlagos CPU nodes (the bulk of the machine),
/// - **XK** — hybrid nodes pairing one Interlagos socket with an NVIDIA
///   Kepler K20X GPU,
/// - **Service** — login/MOM/LNET/boot nodes that do not run applications.
///
/// The paper's lessons distinguish XE from XK resilience, so the node type is
/// threaded through the whole analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum NodeType {
    /// CPU-only compute node (Cray XE6).
    Xe,
    /// CPU+GPU hybrid compute node (Cray XK7).
    Xk,
    /// Service node (login, MOM, LNET router, boot, SDB).
    Service,
}

crate::codec_enum!(NodeType {
    Xe = 0,
    Xk = 1,
    Service = 2,
});

impl NodeType {
    /// All node types, in declaration order.
    pub const ALL: [NodeType; 3] = [NodeType::Xe, NodeType::Xk, NodeType::Service];

    /// True for node types that execute user applications.
    pub const fn is_compute(self) -> bool {
        matches!(self, NodeType::Xe | NodeType::Xk)
    }

    /// True for hybrid (GPU-carrying) nodes.
    pub const fn has_gpu(self) -> bool {
        matches!(self, NodeType::Xk)
    }

    /// Short label used in logs and reports.
    pub const fn label(self) -> &'static str {
        match self {
            NodeType::Xe => "XE",
            NodeType::Xk => "XK",
            NodeType::Service => "SVC",
        }
    }

    /// Parses the short label produced by [`NodeType::label`].
    pub fn parse_label(s: &str) -> Option<Self> {
        match s {
            "XE" => Some(NodeType::Xe),
            "XK" => Some(NodeType::Xk),
            "SVC" => Some(NodeType::Service),
            _ => None,
        }
    }
}

impl fmt::Display for NodeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for nt in NodeType::ALL {
            assert_eq!(NodeType::parse_label(nt.label()), Some(nt));
        }
        assert_eq!(NodeType::parse_label("GPU"), None);
    }

    #[test]
    fn compute_and_gpu_predicates() {
        assert!(NodeType::Xe.is_compute());
        assert!(NodeType::Xk.is_compute());
        assert!(!NodeType::Service.is_compute());
        assert!(NodeType::Xk.has_gpu());
        assert!(!NodeType::Xe.has_gpu());
    }
}
