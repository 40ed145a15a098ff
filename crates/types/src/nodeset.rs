//! Machine-wide sets of node ids.
//!
//! The node allocator, the workload scheduler and the simulator track which
//! of the machine's nodes are free, failed or held, inserting and removing
//! one nid at a time, so a [`NodeSet`] is a bitmap (one bit per nid) with a
//! cached population count. The universe is grown on demand; Blue Waters
//! has < 2^15 nids, so a set costs a few KiB at most. One application's
//! placement is a [`crate::RangeSet`] instead: a bitmap's cost follows the
//! largest nid, a placement's should follow its few ranges.

use std::fmt;
use std::iter::FromIterator;

use serde::{Deserialize, Serialize};

use crate::codec::{put_varint, Decode, DecodeError, Encode, Reader};
use crate::ids::NodeId;

const WORD_BITS: usize = 64;

/// A set of [`NodeId`]s backed by a bitmap.
///
/// ```
/// use logdiver_types::{NodeId, NodeSet};
///
/// let a: NodeSet = [1u32, 2, 3, 100].into_iter().map(NodeId::new).collect();
/// let b: NodeSet = [3u32, 100, 200].into_iter().map(NodeId::new).collect();
/// assert!(a.intersects(&b));
/// assert_eq!(a.intersection_count(&b), 2);
/// assert_eq!(a.to_string(), "nid[1-3,100]");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Creates an empty set pre-sized for nids `< capacity`.
    pub fn with_capacity(capacity: u32) -> Self {
        NodeSet {
            words: vec![0; (capacity as usize).div_ceil(WORD_BITS)],
            len: 0,
        }
    }

    /// Creates the set `{first, first+1, ..., last}` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `first > last`.
    pub fn from_range(first: NodeId, last: NodeId) -> Self {
        assert!(first <= last, "range start after end");
        let mut set = NodeSet::with_capacity(last.value() + 1);
        for nid in first.value()..=last.value() {
            set.insert(NodeId::new(nid));
        }
        set
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a node; returns true if it was newly inserted.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, b) = (
            node.value() as usize / WORD_BITS,
            node.value() as usize % WORD_BITS,
        );
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes a node; returns true if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = (
            node.value() as usize / WORD_BITS,
            node.value() as usize % WORD_BITS,
        );
        if w >= self.words.len() {
            return false;
        }
        let mask = 1u64 << b;
        if self.words[w] & mask != 0 {
            self.words[w] &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, b) = (
            node.value() as usize / WORD_BITS,
            node.value() as usize % WORD_BITS,
        );
        self.words
            .get(w)
            .is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Removes all nodes, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// True when the two sets share at least one node (early-exits).
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of nodes in the intersection.
    pub fn intersection_count(&self, other: &NodeSet) -> usize {
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
        self.recount();
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        for (i, a) in self.words.iter_mut().enumerate() {
            *a &= other.words.get(i).copied().unwrap_or(0);
        }
        self.recount();
    }

    /// In-place difference (`self \ other`).
    pub fn difference_with(&mut self, other: &NodeSet) {
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
        self.recount();
    }

    /// True when every node of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.words.iter().enumerate().all(|(i, a)| {
            let b = other.words.get(i).copied().unwrap_or(0);
            a & !b == 0
        })
    }

    /// Iterates the nids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates maximal runs of consecutive nids as `(first, last)` pairs
    /// (inclusive) — the basis of the `cnl`-style compressed rendering.
    pub fn ranges(&self) -> Ranges<'_> {
        Ranges {
            inner: self.iter(),
            pending: None,
        }
    }

    /// The smallest nid in the set, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones() as usize).sum();
    }
}

/// The bitmap travels as a word count and the words, 8 bytes each,
/// little-endian; the cached population count is not written but recounted
/// on decode, so no file can make it disagree with the bits.
impl Encode for NodeSet {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.words.len() as u64);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

impl Decode for NodeSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let count = r.len_prefix()?;
        let Some(len) = count.checked_mul(8) else {
            return Err(r.bad("length exceeds input"));
        };
        let words = r
            .bytes(len)?
            .chunks_exact(8)
            .map(|c| c.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b)))
            .collect();
        let mut set = NodeSet { words, len: 0 };
        set.recount();
        Ok(set)
    }
}

/// Iterator over the nids of a [`NodeSet`] in ascending order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a NodeSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some(NodeId::new((self.word_idx * WORD_BITS) as u32 + bit));
            }
            self.word_idx += 1;
            self.current = *self.set.words.get(self.word_idx)?;
        }
    }
}

/// Iterator over maximal consecutive runs of a [`NodeSet`].
#[derive(Debug, Clone)]
pub struct Ranges<'a> {
    inner: Iter<'a>,
    pending: Option<(u32, u32)>,
}

impl Iterator for Ranges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<(NodeId, NodeId)> {
        loop {
            match (self.pending, self.inner.next()) {
                (None, None) => return None,
                (None, Some(n)) => self.pending = Some((n.value(), n.value())),
                (Some((first, last)), Some(n)) if n.value() == last + 1 => {
                    self.pending = Some((first, last + 1));
                }
                (Some((first, last)), Some(n)) => {
                    self.pending = Some((n.value(), n.value()));
                    return Some((NodeId::new(first), NodeId::new(last)));
                }
                (Some((first, last)), None) => {
                    self.pending = None;
                    return Some((NodeId::new(first), NodeId::new(last)));
                }
            }
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = NodeSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for n in iter {
            self.insert(n);
        }
    }
}

impl fmt::Display for NodeSet {
    /// Renders as `nid[1-3,100]`, the compressed-node-list convention.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("nid[]");
        }
        f.write_str("nid[")?;
        for (i, (first, last)) in self.ranges().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            if first == last {
                write!(f, "{}", first.value())?;
            } else {
                write!(f, "{}-{}", first.value(), last.value())?;
            }
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn set_of(nids: &[u32]) -> NodeSet {
        nids.iter().copied().map(NodeId::new).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.insert(NodeId::new(5)));
        assert!(!s.insert(NodeId::new(5)));
        assert!(s.contains(NodeId::new(5)));
        assert!(!s.contains(NodeId::new(6)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId::new(5)));
        assert!(!s.remove(NodeId::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn range_constructor() {
        let s = NodeSet::from_range(NodeId::new(10), NodeId::new(14));
        assert_eq!(s.len(), 5);
        assert!(s.contains(NodeId::new(10)) && s.contains(NodeId::new(14)));
        assert!(!s.contains(NodeId::new(15)));
    }

    #[test]
    #[should_panic(expected = "range start after end")]
    fn range_constructor_rejects_inverted() {
        let _ = NodeSet::from_range(NodeId::new(5), NodeId::new(4));
    }

    #[test]
    fn display_compresses_runs() {
        assert_eq!(set_of(&[]).to_string(), "nid[]");
        assert_eq!(set_of(&[7]).to_string(), "nid[7]");
        assert_eq!(set_of(&[1, 2, 3, 100]).to_string(), "nid[1-3,100]");
        assert_eq!(set_of(&[0, 2, 3, 4, 9, 10]).to_string(), "nid[0,2-4,9-10]");
    }

    #[test]
    fn set_algebra_basics() {
        let mut a = set_of(&[1, 2, 3, 64, 65]);
        let b = set_of(&[3, 64, 200]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 2);
        a.intersect_with(&b);
        assert_eq!(a, set_of(&[3, 64]));

        let mut u = set_of(&[1]);
        u.union_with(&set_of(&[1000]));
        assert_eq!(u.len(), 2);
        assert!(u.contains(NodeId::new(1000)));

        let mut d = set_of(&[1, 2, 3]);
        d.difference_with(&set_of(&[2]));
        assert_eq!(d, set_of(&[1, 3]));

        assert!(set_of(&[1, 3]).is_subset(&set_of(&[1, 2, 3])));
        assert!(!set_of(&[1, 4]).is_subset(&set_of(&[1, 2, 3])));
        assert!(set_of(&[]).is_subset(&set_of(&[])));
    }

    #[test]
    fn iter_is_sorted_across_word_boundaries() {
        let s = set_of(&[63, 64, 65, 127, 128, 300]);
        let v: Vec<u32> = s.iter().map(|n| n.value()).collect();
        assert_eq!(v, vec![63, 64, 65, 127, 128, 300]);
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut s = set_of(&[1, 99, 1000]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    proptest! {
        #[test]
        fn matches_btreeset_model(ops in proptest::collection::vec((0u32..2000, any::<bool>()), 0..200)) {
            let mut set = NodeSet::new();
            let mut model = BTreeSet::new();
            for (nid, add) in ops {
                if add {
                    prop_assert_eq!(set.insert(NodeId::new(nid)), model.insert(nid));
                } else {
                    prop_assert_eq!(set.remove(NodeId::new(nid)), model.remove(&nid));
                }
            }
            prop_assert_eq!(set.len(), model.len());
            let got: Vec<u32> = set.iter().map(|n| n.value()).collect();
            let want: Vec<u32> = model.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn intersection_matches_model(a in proptest::collection::btree_set(0u32..512, 0..64),
                                      b in proptest::collection::btree_set(0u32..512, 0..64)) {
            let sa: NodeSet = a.iter().copied().map(NodeId::new).collect();
            let sb: NodeSet = b.iter().copied().map(NodeId::new).collect();
            let expected: BTreeSet<u32> = a.intersection(&b).copied().collect();
            prop_assert_eq!(sa.intersection_count(&sb), expected.len());
            prop_assert_eq!(sa.intersects(&sb), !expected.is_empty());
            let mut inter = sa.clone();
            inter.intersect_with(&sb);
            let got: BTreeSet<u32> = inter.iter().map(|n| n.value()).collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn ranges_cover_exactly_the_members(a in proptest::collection::btree_set(0u32..300, 0..80)) {
            let s: NodeSet = a.iter().copied().map(NodeId::new).collect();
            let mut covered = BTreeSet::new();
            let mut last_end: Option<u32> = None;
            for (first, last) in s.ranges() {
                prop_assert!(first <= last);
                // Ranges are maximal: separated by at least one gap.
                if let Some(pe) = last_end {
                    prop_assert!(first.value() > pe + 1);
                }
                last_end = Some(last.value());
                for nid in first.value()..=last.value() {
                    covered.insert(nid);
                }
            }
            prop_assert_eq!(covered, a);
        }
    }
}
