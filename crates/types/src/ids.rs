//! Strongly-typed identifiers.
//!
//! Every entity in the study — a compute node, a batch job, an application
//! run (an `aprun` instance, identified on a real Cray by its *apid*), a user
//! — gets its own newtype so they can never be confused (C-NEWTYPE).

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a compute or service node.
///
/// On a Cray this is the *nid* — the number in hostnames such as `nid04008`.
///
/// ```
/// use logdiver_types::NodeId;
/// let nid = NodeId::new(4008);
/// assert_eq!(nid.to_string(), "nid04008");
/// assert_eq!(NodeId::parse_hostname("nid04008"), Some(nid));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(u32);

crate::codec_struct!(NodeId { 0 });

impl NodeId {
    /// Creates a node id from a raw nid number.
    pub const fn new(nid: u32) -> Self {
        NodeId(nid)
    }

    /// Returns the raw nid number.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Returns the canonical hostname (`nidNNNNN`, zero padded to 5 digits).
    pub fn hostname(self) -> String {
        format!("nid{:05}", self.0)
    }

    /// Parses a hostname of the form `nidNNNNN`.
    ///
    /// Returns `None` when the string does not follow the convention.
    pub fn parse_hostname(s: &str) -> Option<Self> {
        let digits = s.strip_prefix("nid")?;
        if digits.is_empty() || digits.len() > 8 || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        digits.parse::<u32>().ok().map(NodeId)
    }

    /// [`NodeId::parse_hostname`] over raw bytes — the zero-copy parse
    /// path. Accepts exactly the same inputs (the convention is pure
    /// ASCII, so no UTF-8 decoding is ever needed).
    pub fn parse_hostname_bytes(b: &[u8]) -> Option<Self> {
        let digits = b.strip_prefix(b"nid")?;
        if digits.is_empty() || digits.len() > 8 {
            return None;
        }
        let mut nid: u32 = 0;
        for &d in digits {
            if !d.is_ascii_digit() {
                return None;
            }
            nid = nid * 10 + (d - b'0') as u32;
        }
        Some(NodeId(nid))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nid{:05}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(nid: u32) -> Self {
        NodeId(nid)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// Identifier of a batch job (Torque/Moab job id).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct JobId(u64);

crate::codec_struct!(JobId { 0 });

impl JobId {
    /// Creates a job id.
    pub const fn new(id: u64) -> Self {
        JobId(id)
    }

    /// Returns the raw id.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Torque writes job ids as `<seq>.<server>`; we use a fixed server name.
        write!(f, "{}.bw", self.0)
    }
}

impl From<u64> for JobId {
    fn from(id: u64) -> Self {
        JobId(id)
    }
}

/// Identifier of an application run — one `aprun` launch inside a job.
///
/// Mirrors the ALPS *apid*. A job may launch many applications; the paper's
/// unit of analysis is the application run, not the job.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct AppId(u64);

crate::codec_struct!(AppId { 0 });

impl AppId {
    /// Creates an application id.
    pub const fn new(id: u64) -> Self {
        AppId(id)
    }

    /// Returns the raw apid.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for AppId {
    fn from(id: u64) -> Self {
        AppId(id)
    }
}

/// Anonymized user identifier.
///
/// Field data is anonymized before analysis (as in the paper); users are
/// numbered and rendered as `u0421`-style tokens.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct UserId(u32);

crate::codec_struct!(UserId { 0 });

impl UserId {
    /// Creates a user id.
    pub const fn new(id: u32) -> Self {
        UserId(id)
    }

    /// Returns the raw id.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{:04}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(id: u32) -> Self {
        UserId(id)
    }
}

/// Identifier of a cabinet in the machine room, addressed as `cX-Y`
/// (column/row), mirroring Cray cabinet naming.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct CabinetId {
    /// Column of the cabinet on the machine-room floor.
    pub column: u16,
    /// Row of the cabinet on the machine-room floor.
    pub row: u16,
}

impl CabinetId {
    /// Creates a cabinet id from floor coordinates.
    pub const fn new(column: u16, row: u16) -> Self {
        CabinetId { column, row }
    }
}

impl fmt::Display for CabinetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}-{}", self.column, self.row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_hostname_round_trip() {
        for nid in [0u32, 1, 99, 4008, 26863, 99999] {
            let id = NodeId::new(nid);
            assert_eq!(NodeId::parse_hostname(&id.hostname()), Some(id));
        }
    }

    #[test]
    fn node_id_display_matches_hostname() {
        let id = NodeId::new(7);
        assert_eq!(id.to_string(), id.hostname());
        assert_eq!(id.to_string(), "nid00007");
    }

    #[test]
    fn node_id_parse_rejects_garbage() {
        assert_eq!(NodeId::parse_hostname(""), None);
        assert_eq!(NodeId::parse_hostname("nid"), None);
        assert_eq!(NodeId::parse_hostname("nid12ab"), None);
        assert_eq!(NodeId::parse_hostname("node00012"), None);
        assert_eq!(NodeId::parse_hostname("nid999999999"), None);
    }

    #[test]
    fn node_id_byte_parse_matches_str_parse() {
        for s in [
            "",
            "nid",
            "nid0",
            "nid04008",
            "nid99999999",
            "nid999999999",
            "nid12ab",
            "node00012",
            "nidÿ12",
            "nid+1",
        ] {
            assert_eq!(
                NodeId::parse_hostname_bytes(s.as_bytes()),
                NodeId::parse_hostname(s),
                "disagreement on {s:?}"
            );
        }
        assert_eq!(NodeId::parse_hostname_bytes(b"nid\xFF\xFE"), None);
    }

    #[test]
    fn job_id_display_uses_server_suffix() {
        assert_eq!(JobId::new(123456).to_string(), "123456.bw");
    }

    #[test]
    fn user_id_display_is_anonymized_token() {
        assert_eq!(UserId::new(421).to_string(), "u0421");
    }

    #[test]
    fn cabinet_id_display() {
        assert_eq!(CabinetId::new(12, 3).to_string(), "c12-3");
    }

    #[test]
    fn ids_are_ordered_by_value() {
        assert!(NodeId::new(3) < NodeId::new(4));
        assert!(AppId::new(10) > AppId::new(9));
        assert!(JobId::new(1) < JobId::new(2));
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(u32::from(NodeId::from(17u32)), 17);
        assert_eq!(AppId::from(99u64).value(), 99);
    }
}
