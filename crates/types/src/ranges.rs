//! Placement node sets: sorted, disjoint nid ranges.
//!
//! Two set types name nodes in this workspace, each with one job:
//!
//! - [`NodeSet`] is a bitmap over the whole machine. Topology allocation,
//!   the workload scheduler and the simulator need its constant-time
//!   insert and remove over every nid `0..=max`.
//! - [`RangeSet`] is one application's placement, from the ALPS parser to
//!   the run it becomes and every checkpoint that carries that run. The
//!   field study holds ~5 M placements at once; scheduler placements are a
//!   few contiguous ranges (34 nodes in 3 ranges on average), so a set
//!   costs one `(first, last)` pair per range, whatever nids it covers,
//!   where a bitmap would cost a bit per nid up to the largest.
//!
//! A `RangeSet` answers the only questions the matcher asks — *does this
//! placement contain nid X?* and *does it intersect this (small) node
//! list?* — and renders in the same `nid[...]` notation as a `NodeSet`
//! holding the same nids.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::ids::NodeId;
use crate::nodeset::NodeSet;

/// A set of nids stored as sorted, disjoint, inclusive ranges.
///
/// ```
/// use logdiver_types::{NodeId, RangeSet};
///
/// let set = RangeSet::from_unordered_runs(vec![(100, 227), (5, 5), (228, 300)]).unwrap();
/// assert_eq!(set.len(), 202);
/// assert!(set.contains(NodeId::new(250)));
/// assert_eq!(set.to_string(), "nid[5,100-300]");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct RangeSet {
    runs: Vec<(u32, u32)>,
    len: u64,
}

/// Number of nids in the inclusive run `(a, b)`, `a <= b`.
fn run_len((a, b): (u32, u32)) -> u64 {
    u64::from(b - a) + 1
}

impl RangeSet {
    /// Builds from stored runs, counting `len` itself. `None` unless the
    /// runs are sorted and disjoint — the order [`RangeSet::contains`]
    /// binary-searches on. Both checkpoint readers come through here:
    /// what a file says about a set is checked, not trusted.
    fn from_runs(runs: Vec<(u32, u32)>) -> Option<Self> {
        let mut floor = 0u64;
        for &(a, b) in &runs {
            if a > b || u64::from(a) < floor {
                return None;
            }
            floor = u64::from(b) + 1;
        }
        let len = runs.iter().copied().map(run_len).sum();
        Some(RangeSet { runs, len })
    }

    /// Builds from inclusive runs in any order. Overlapping, adjacent and
    /// duplicate runs are merged, so the result is the one canonical form
    /// of its nids: the maximal runs a [`NodeSet`] of them would yield.
    ///
    /// Runs that already are canonical — ascending, with a gap between
    /// neighbours — are kept as given; only other input is sorted. The
    /// cost depends on the number of runs, never on how many nids they
    /// cover. `None` when a run is inverted (`first > last`).
    pub fn from_unordered_runs(mut runs: Vec<(u32, u32)>) -> Option<Self> {
        // The smallest start the next run may have and stay canonical.
        let mut floor = 0u64;
        let mut canonical = true;
        for &(a, b) in &runs {
            if a > b {
                return None;
            }
            canonical &= u64::from(a) >= floor;
            floor = u64::from(b) + 2;
        }
        if !canonical {
            runs.sort_unstable();
            let mut kept = 0;
            for i in 1..runs.len() {
                let (a, b) = runs[i];
                let last = &mut runs[kept];
                // In u64: the last run may end at `u32::MAX`.
                if u64::from(a) <= u64::from(last.1) + 1 {
                    last.1 = last.1.max(b);
                } else {
                    kept += 1;
                    runs[kept] = (a, b);
                }
            }
            runs.truncate(kept + 1);
        }
        let len = runs.iter().copied().map(run_len).sum();
        Some(RangeSet { runs, len })
    }

    /// Number of nids. A `u64`: all `2^32` nids fit in one set.
    pub fn len(&self) -> u64 {
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
            len: u64,
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

/// A [`NodeSet`] yields its maximal sorted runs, so the conversion walks
/// the bitmap once and is canonical by construction.
impl From<&NodeSet> for RangeSet {
    fn from(set: &NodeSet) -> Self {
        let runs: Vec<(u32, u32)> = set.ranges().map(|(a, b)| (a.value(), b.value())).collect();
        let len = runs.iter().copied().map(run_len).sum();
        RangeSet { runs, len }
    }
}

impl fmt::Display for RangeSet {
    /// Renders as `nid[1-3,100]`, byte for byte what [`NodeSet`]'s
    /// `Display` prints for the same nids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("nid[")?;
        for (i, &(first, last)) in self.runs.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            if first == last {
                write!(f, "{first}")?;
            } else {
                write!(f, "{first}-{last}")?;
            }
        }
        f.write_str("]")
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
        let rs = RangeSet::from(&set_of(&[1, 2, 3, 100, 102]));
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
        let rs = RangeSet::from(&NodeSet::new());
        assert!(rs.is_empty());
        assert!(!rs.contains(NodeId::new(0)));
        assert_eq!(rs.first(), None);
        assert_eq!(rs, RangeSet::default());
        assert_eq!(rs.to_string(), "nid[]");
    }

    #[test]
    fn intersects_any_small_list() {
        let rs = RangeSet::from(&set_of(&[10, 11, 12, 13]));
        assert!(rs.intersects_any(&[NodeId::new(13), NodeId::new(99)]));
        assert!(!rs.intersects_any(&[NodeId::new(9), NodeId::new(14)]));
        assert!(!rs.intersects_any(&[]));
    }

    #[test]
    fn unordered_runs_merge_to_canonical_form() {
        let rs = RangeSet::from_unordered_runs(vec![(5, 5), (1, 3), (3, 3), (4, 4)]).unwrap();
        assert_eq!(rs.runs(), &[(1, 5)]);
        assert_eq!(rs.len(), 5);
        let rs = RangeSet::from_unordered_runs(vec![(1, 3), (4, 9), (20, 20)]).unwrap();
        assert_eq!(rs.runs(), &[(1, 9), (20, 20)]);
        assert_eq!(RangeSet::from_unordered_runs(vec![(3, 1)]), None);
        assert_eq!(
            RangeSet::from_unordered_runs(Vec::new()),
            Some(RangeSet::default())
        );
    }

    #[test]
    fn the_top_of_the_nid_space_does_not_overflow() {
        let top = u32::MAX;
        let rs = RangeSet::from_unordered_runs(vec![(top, top), (0, 0)]).unwrap();
        assert_eq!(rs.runs(), &[(0, 0), (top, top)]);
        let rs = RangeSet::from_unordered_runs(vec![(top - 1, top), (top, top)]).unwrap();
        assert_eq!(rs.runs(), &[(top - 1, top)]);
        // Every nid there is: 2^32 of them, counted without wrapping.
        let rs = RangeSet::from_unordered_runs(vec![(1 << 31, top), (0, 1 << 31)]).unwrap();
        assert_eq!(rs.runs(), &[(0, top)]);
        assert_eq!(rs.len(), 1 << 32);
    }

    #[test]
    fn decoders_reject_disorder() {
        assert!(RangeSet::from_runs(vec![(5, 9), (1, 2)]).is_none());
        assert!(RangeSet::from_runs(vec![(1, 5), (5, 9)]).is_none());
        assert!(RangeSet::from_runs(vec![(9, 5)]).is_none());
        assert_eq!(
            RangeSet::from_runs(vec![(0, u32::MAX)]).unwrap().len(),
            1 << 32
        );
    }

    proptest! {
        #[test]
        fn matches_bitmap_semantics(nids in proptest::collection::btree_set(0u32..2_000, 0..100),
                                    probe in 0u32..2_100) {
            let set: NodeSet = nids.iter().copied().map(NodeId::new).collect();
            let rs = RangeSet::from(&set);
            prop_assert_eq!(rs.len() as usize, nids.len());
            prop_assert_eq!(rs.contains(NodeId::new(probe)), nids.contains(&probe));
            let back: Vec<u32> = rs.iter().map(|n| n.value()).collect();
            let expect: Vec<u32> = nids.iter().copied().collect();
            prop_assert_eq!(back, expect);
        }

        /// The simulator writes placements through `RangeSet`'s `Display`;
        /// every corpus stays byte-identical only while it prints what the
        /// bitmap printed.
        #[test]
        fn display_matches_node_set_display(nids in proptest::collection::btree_set(0u32..700, 0..120)) {
            let set: NodeSet = nids.iter().copied().map(NodeId::new).collect();
            prop_assert_eq!(RangeSet::from(&set).to_string(), set.to_string());
        }

        #[test]
        fn unordered_runs_match_the_bitmap(runs in proptest::collection::vec((0u32..600, 0u32..40), 0..24)) {
            let runs: Vec<(u32, u32)> = runs.into_iter().map(|(a, w)| (a, a + w)).collect();
            let set: NodeSet = runs
                .iter()
                .flat_map(|&(a, b)| (a..=b).map(NodeId::new))
                .collect();
            prop_assert_eq!(RangeSet::from_unordered_runs(runs).unwrap(), RangeSet::from(&set));
        }
    }
}
