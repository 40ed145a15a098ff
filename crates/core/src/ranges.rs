//! Compact node-range sets.
//!
//! The full field study holds ~5 M application placements in memory at
//! once. A bitmap [`logdiver_types::NodeSet`] costs up to ~3.5 KiB per
//! placement on a 27k-node machine; since scheduler placements are
//! contiguous-ish, a sorted run-length representation is 10–100× smaller
//! and still answers the only two questions the matcher asks: *does this
//! placement contain nid X?* and *does it intersect this (small) node
//! list?*

use logdiver_types::codec::{Decode, DecodeError, Encode, Reader};
use logdiver_types::{NodeId, NodeSet};
use serde::{DeError, Deserialize, Serialize, Value};

/// A set of nids stored as sorted, disjoint, inclusive ranges.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct RangeSet {
    runs: Vec<(u32, u32)>,
    len: u32,
}

impl RangeSet {
    /// Builds from stored runs, counting `len` itself. `None` unless the
    /// runs are sorted and disjoint — the order [`RangeSet::contains`]
    /// binary-searches on — and hold fewer than 2^32 nids. Both
    /// checkpoint readers come through here: what a file says about a
    /// set is checked, not trusted.
    fn from_runs(runs: Vec<(u32, u32)>) -> Option<Self> {
        let mut len = 0u32;
        let mut floor = 0u64;
        for &(a, b) in &runs {
            if a > b || u64::from(a) < floor {
                return None;
            }
            floor = u64::from(b) + 1;
            len = len.checked_add(b - a)?.checked_add(1)?;
        }
        Some(RangeSet { runs, len })
    }

    /// Builds from a [`NodeSet`] (which yields maximal sorted runs).
    pub fn from_node_set(set: &NodeSet) -> Self {
        let runs: Vec<(u32, u32)> = set.ranges().map(|(a, b)| (a.value(), b.value())).collect();
        let len = runs.iter().map(|(a, b)| b - a + 1).sum();
        RangeSet { runs, len }
    }

    /// Number of nids.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test (binary search over runs).
    pub fn contains(&self, nid: NodeId) -> bool {
        let v = nid.value();
        self.runs
            .binary_search_by(|&(a, b)| {
                if v < a {
                    std::cmp::Ordering::Greater
                } else if v > b {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// True when any of `nids` is contained.
    pub fn intersects_any(&self, nids: &[NodeId]) -> bool {
        nids.iter().any(|&n| self.contains(n))
    }

    /// The smallest nid, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.runs.first().map(|&(a, _)| NodeId::new(a))
    }

    /// Iterates all nids (ascending).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.runs
            .iter()
            .flat_map(|&(a, b)| (a..=b).map(NodeId::new))
    }

    /// The sorted runs themselves.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }
}

/// The JSON form carries `len` beside the runs; it must agree with them.
impl Deserialize for RangeSet {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        #[derive(Deserialize)]
        struct Stored {
            runs: Vec<(u32, u32)>,
            len: u32,
        }
        let stored = Stored::deserialize_value(v)?;
        match RangeSet::from_runs(stored.runs) {
            Some(set) if set.len == stored.len => Ok(set),
            _ => Err(DeError::custom("node ranges out of order or miscounted")),
        }
    }
}

/// In the binary form only the runs travel.
impl Encode for RangeSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.runs.encode(out);
    }
}

impl Decode for RangeSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        RangeSet::from_runs(Decode::decode(r)?).ok_or_else(|| r.bad("node ranges out of order"))
    }
}

impl From<&NodeSet> for RangeSet {
    fn from(set: &NodeSet) -> Self {
        RangeSet::from_node_set(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn set_of(nids: &[u32]) -> NodeSet {
        nids.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn contains_and_len() {
        let rs = RangeSet::from_node_set(&set_of(&[1, 2, 3, 100, 102]));
        assert_eq!(rs.len(), 5);
        assert!(rs.contains(NodeId::new(2)));
        assert!(rs.contains(NodeId::new(100)));
        assert!(!rs.contains(NodeId::new(101)));
        assert!(!rs.contains(NodeId::new(0)));
        assert_eq!(rs.first(), Some(NodeId::new(1)));
        assert_eq!(rs.runs(), &[(1, 3), (100, 100), (102, 102)]);
    }

    #[test]
    fn empty_set() {
        let rs = RangeSet::from_node_set(&NodeSet::new());
        assert!(rs.is_empty());
        assert!(!rs.contains(NodeId::new(0)));
        assert_eq!(rs.first(), None);
    }

    #[test]
    fn intersects_any_small_list() {
        let rs = RangeSet::from_node_set(&set_of(&[10, 11, 12, 13]));
        assert!(rs.intersects_any(&[NodeId::new(13), NodeId::new(99)]));
        assert!(!rs.intersects_any(&[NodeId::new(9), NodeId::new(14)]));
        assert!(!rs.intersects_any(&[]));
    }

    proptest! {
        #[test]
        fn matches_bitmap_semantics(nids in proptest::collection::btree_set(0u32..2_000, 0..100),
                                    probe in 0u32..2_100) {
            let set: NodeSet = nids.iter().copied().map(NodeId::new).collect();
            let rs = RangeSet::from_node_set(&set);
            prop_assert_eq!(rs.len() as usize, nids.len());
            prop_assert_eq!(rs.contains(NodeId::new(probe)), nids.contains(&probe));
            let back: Vec<u32> = rs.iter().map(|n| n.value()).collect();
            let expect: Vec<u32> = nids.iter().copied().collect();
            prop_assert_eq!(back, expect);
        }
    }
}
