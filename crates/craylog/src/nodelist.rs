//! The compressed-node-list (`cnl`) codec.
//!
//! ALPS records render application placements as `nid[100-227,300]`;
//! this module parses that notation into a [`RangeSet`], the placement
//! set every run holds, and prints it back. Formatting is [`RangeSet`]'s
//! `Display`, the same bytes a machine-wide [`logdiver_types::NodeSet`]
//! prints for the same nids; [`format_nodelist`] is a thin alias so both
//! directions live next to each other.
//!
//! The parser never walks the nids a range covers: ranges are pushed as
//! parsed, sorted and merged only when the list is not already in
//! canonical order, and counted arithmetically. A one-range placement of
//! 27,000 nodes costs one `(first, last)` pair, and a hostile
//! `nid[4294967295]` costs no more than `nid[0]`.
//!
//! [`parse_nodelist_bytes`] is the zero-copy hot path (returns an
//! allocation-free [`CraylogFault`]); [`parse_nodelist`] wraps it for
//! standalone `&str` callers that want a line-carrying diagnostic.

use logdiver_types::RangeSet;

use crate::error::{CraylogError, CraylogFault};
use crate::scan::{parse_int, split_once_byte};

/// Formats a placement in `nid[...]` notation (same as `set.to_string()`).
pub fn format_nodelist(set: &RangeSet) -> String {
    // lint: allow(hot-path-alloc) emit-side formatter for the simulator and Display impls
    set.to_string()
}

/// Parses `nid[100-227,300]` notation from raw bytes — the zero-copy path.
///
/// Ranges may come in any order and may overlap, touch or repeat; the
/// result is their canonical union. Costs time and heap in the number of
/// ranges, not in the nids they cover.
///
/// # Errors
///
/// Returns an allocation-free [`CraylogFault`] on malformed syntax,
/// inverted or implausibly wide ranges, or numbers that do not fit in a
/// nid.
pub fn parse_nodelist_bytes(b: &[u8]) -> Result<RangeSet, CraylogFault> {
    let err = |reason: &'static str| CraylogFault::new("nodelist", reason);
    let inner = b
        .strip_prefix(b"nid[")
        .and_then(|r| r.strip_suffix(b"]"))
        .ok_or_else(|| err("missing nid[...] wrapper"))?;
    if inner.is_empty() {
        return Ok(RangeSet::default());
    }
    let mut runs = Vec::new();
    let mut rest = inner;
    loop {
        let (part, more) = match split_once_byte(rest, b',') {
            Some((p, m)) => (p, Some(m)),
            None => (rest, None),
        };
        let run = match split_once_byte(part, b'-') {
            Some((a, b)) => {
                let first: u32 = parse_int(a).ok_or_else(|| err("bad range start"))?;
                let last: u32 = parse_int(b).ok_or_else(|| err("bad range end"))?;
                if first > last {
                    return Err(err("inverted range"));
                }
                if last - first > 1_000_000 {
                    return Err(err("range implausibly large"));
                }
                (first, last)
            }
            None => {
                let nid: u32 = parse_int(part).ok_or_else(|| err("bad nid"))?;
                (nid, nid)
            }
        };
        runs.push(run);
        match more {
            Some(m) => rest = m,
            None => break,
        }
    }
    RangeSet::from_unordered_runs(runs).ok_or_else(|| err("inverted range"))
}

/// Parses `nid[100-227,300]` notation.
///
/// # Errors
///
/// Returns [`CraylogError`] on malformed syntax, inverted or implausibly
/// wide ranges, or numbers that do not fit in a nid.
pub fn parse_nodelist(s: &str) -> Result<RangeSet, CraylogError> {
    parse_nodelist_bytes(s.as_bytes()).map_err(|f| f.with_line(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver_types::{NodeId, NodeSet};
    use proptest::prelude::*;

    fn ranges_of(nids: &[u32]) -> RangeSet {
        let set: NodeSet = nids.iter().copied().map(NodeId::new).collect();
        RangeSet::from(&set)
    }

    #[test]
    fn parse_known_forms() {
        assert_eq!(parse_nodelist("nid[]").unwrap(), RangeSet::default());
        assert_eq!(parse_nodelist("nid[7]").unwrap(), ranges_of(&[7]));
        assert_eq!(
            parse_nodelist("nid[1-3,100]").unwrap(),
            ranges_of(&[1, 2, 3, 100])
        );
        assert_eq!(
            parse_nodelist("nid[0,2-4,9-10]").unwrap(),
            ranges_of(&[0, 2, 3, 4, 9, 10])
        );
    }

    #[test]
    fn unsorted_overlapping_and_adjacent_ranges_merge() {
        let set = parse_nodelist("nid[5,1-3,3,4]").unwrap();
        assert_eq!(set.runs(), &[(1, 5)]);
        assert_eq!(set.len(), 5);
        let set = parse_nodelist("nid[10-20,0-1,15-30,2]").unwrap();
        assert_eq!(set.runs(), &[(0, 2), (10, 30)]);
        assert_eq!(set.to_string(), "nid[0-2,10-30]");
    }

    /// Merging adjacent ranges must not compute `u32::MAX + 1`; debug
    /// builds would panic on the overflow.
    #[test]
    fn the_top_of_the_nid_space_parses() {
        let set = parse_nodelist("nid[4294967294-4294967295]").unwrap();
        assert_eq!(set.runs(), &[(4_294_967_294, 4_294_967_295)]);
        assert_eq!(set.len(), 2);
        let set = parse_nodelist("nid[4294967295,0]").unwrap();
        assert_eq!(set.runs(), &[(0, 0), (4_294_967_295, 4_294_967_295)]);
        assert_eq!(set.to_string(), "nid[0,4294967295]");
        let set = parse_nodelist("nid[4294967295,4294967294,4294967295]").unwrap();
        assert_eq!(set.runs(), &[(4_294_967_294, 4_294_967_295)]);
        assert!(parse_nodelist("nid[4294967296]").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_nodelist("").is_err());
        assert!(parse_nodelist("nid[").is_err());
        assert!(parse_nodelist("[1-3]").is_err());
        assert!(parse_nodelist("nid[3-1]").is_err());
        assert!(parse_nodelist("nid[a-b]").is_err());
        assert!(parse_nodelist("nid[1,,2]").is_err());
        assert!(parse_nodelist("nid[0-99999999]").is_err());
    }

    #[test]
    fn fault_reasons_match_wrapper() {
        let f = parse_nodelist_bytes(b"nid[3-1]").unwrap_err();
        assert_eq!(f.source_name(), "nodelist");
        assert_eq!(f.reason(), "inverted range");
        assert_eq!(
            parse_nodelist("nid[3-1]").unwrap_err().reason(),
            "inverted range"
        );
    }

    proptest! {
        #[test]
        fn round_trip(nids in proptest::collection::btree_set(0u32..5_000, 0..100)) {
            let set = ranges_of(&nids.into_iter().collect::<Vec<_>>());
            let text = format_nodelist(&set);
            let back = parse_nodelist(&text).unwrap();
            prop_assert_eq!(back, set);
        }
    }
}
