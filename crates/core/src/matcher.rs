//! Stage 5: matching error events to application deaths.
//!
//! For a run that terminated abnormally, the question is: *was there an
//! error event that plausibly explains the death?* An event qualifies when
//! it overlaps the **death window** `[end − lead, end + lag]` in time and
//! either is machine-scope or touches one of the run's nodes.
//!
//! Events are indexed by start time; because coalesced events are bounded
//! in span, a binary search plus a short backward scan answers each query
//! in `O(log E + k)`.

use logdiver_types::{RangeSet, SimDuration, Timestamp};

use crate::coalesce::ErrorEvent;

/// What the classifier needs from an event table: window queries and id
/// lookups. Implemented by the batch [`MatchIndex`] and by the streaming
/// engine's live index, so classification is one code path with two
/// drivers.
pub trait EventLookup {
    /// Event ids whose `[start, end]` overlaps `[death − lead, death + lag]`
    /// and which touch the run spatially, in (start, id) order.
    fn matches_for(
        &self,
        death: Timestamp,
        nodes: &RangeSet,
        lead: SimDuration,
        lag: SimDuration,
    ) -> Vec<u32>;

    /// Looks up an event by id.
    fn by_id(&self, id: u32) -> Option<&ErrorEvent>;
}

/// Time-indexed event table.
#[derive(Debug)]
pub struct MatchIndex {
    events: Vec<ErrorEvent>,
    max_span: SimDuration,
}

impl MatchIndex {
    /// Builds the index (events must be the output of
    /// [`crate::coalesce::coalesce`], which is start-ordered).
    pub fn new(mut events: Vec<ErrorEvent>) -> Self {
        // The coalescer already emits start-ordered events, so the common
        // caller skips the sort entirely; unordered external input still
        // gets sorted as a fallback.
        if !events.is_sorted_by_key(|e| e.start) {
            events.sort_by_key(|e| e.start);
        }
        debug_assert!(events.is_sorted_by_key(|e| e.start));
        let max_span = events
            .iter()
            .map(ErrorEvent::span)
            .max()
            .unwrap_or(SimDuration::ZERO);
        MatchIndex { events, max_span }
    }

    /// The indexed events (sorted by start).
    pub fn events(&self) -> &[ErrorEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are indexed.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Event ids whose `[start, end]` overlaps `[death − lead, death + lag]`
    /// and which touch the run spatially (machine scope, or node
    /// intersection with `nodes`).
    pub fn matches_for(
        &self,
        death: Timestamp,
        nodes: &RangeSet,
        lead: SimDuration,
        lag: SimDuration,
    ) -> Vec<u32> {
        let win_lo = death - lead;
        let win_hi = death + lag;
        // Events starting after win_hi cannot overlap; events starting
        // before win_lo − max_span cannot reach win_lo.
        let scan_lo = win_lo - self.max_span;
        let first = self.events.partition_point(|e| e.start < scan_lo);
        let mut out = Vec::new();
        for e in &self.events[first..] {
            if e.start > win_hi {
                break;
            }
            if e.end < win_lo {
                continue;
            }
            let spatial = e.system_scope || nodes.intersects_any(&e.nodes);
            if spatial {
                out.push(e.id);
            }
        }
        out
    }

    /// Looks up an event by id.
    pub fn by_id(&self, id: u32) -> Option<&ErrorEvent> {
        // ids are dense coalesce indices but the table was re-sorted; a
        // linear probe at the id position usually hits, fall back to scan.
        self.events
            .get(id as usize)
            .filter(|e| e.id == id)
            .or_else(|| self.events.iter().find(|e| e.id == id))
    }
}

impl EventLookup for MatchIndex {
    fn matches_for(
        &self,
        death: Timestamp,
        nodes: &RangeSet,
        lead: SimDuration,
        lag: SimDuration,
    ) -> Vec<u32> {
        MatchIndex::matches_for(self, death, nodes, lead, lag)
    }

    fn by_id(&self, id: u32) -> Option<&ErrorEvent> {
        MatchIndex::by_id(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver_types::{ErrorCategory, NodeId, NodeSet, Severity};

    fn t(secs: i64) -> Timestamp {
        Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(secs)
    }

    fn event(id: u32, start: i64, end: i64, nodes: &[u32], system: bool) -> ErrorEvent {
        ErrorEvent {
            id,
            start: t(start),
            end: t(end),
            categories: vec![ErrorCategory::MemoryUncorrectable],
            severity: Severity::Fatal,
            nodes: nodes.iter().copied().map(NodeId::new).collect(),
            system_scope: system,
            entry_count: 1,
        }
    }

    fn ranges(nids: &[u32]) -> RangeSet {
        let set: NodeSet = nids.iter().copied().map(NodeId::new).collect();
        RangeSet::from(&set)
    }

    #[test]
    fn node_intersection_required_for_local_events() {
        let idx = MatchIndex::new(vec![
            event(0, 100, 130, &[4], false),
            event(1, 100, 130, &[9], false),
        ]);
        let lead = SimDuration::from_secs(60);
        let lag = SimDuration::from_secs(60);
        let m = idx.matches_for(t(120), &ranges(&[4, 5]), lead, lag);
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn system_scope_matches_without_nodes() {
        let idx = MatchIndex::new(vec![event(0, 100, 150, &[], true)]);
        let m = idx.matches_for(
            t(160),
            &ranges(&[7_000]),
            SimDuration::from_secs(60),
            SimDuration::from_secs(60),
        );
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn time_window_is_respected() {
        let idx = MatchIndex::new(vec![event(0, 100, 110, &[4], false)]);
        let lead = SimDuration::from_secs(30);
        let lag = SimDuration::from_secs(30);
        // Death long after the event: no match.
        assert!(idx.matches_for(t(500), &ranges(&[4]), lead, lag).is_empty());
        // Death right after: match (event end within lead of death).
        assert_eq!(idx.matches_for(t(130), &ranges(&[4]), lead, lag), vec![0]);
        // Death slightly before the event starts (within lag): match.
        assert_eq!(idx.matches_for(t(80), &ranges(&[4]), lead, lag), vec![0]);
        // Death way before: no match.
        assert!(idx.matches_for(t(0), &ranges(&[4]), lead, lag).is_empty());
    }

    #[test]
    fn long_spanning_event_is_found() {
        // An event spanning [0, 1000] must match a death at 900 even though
        // its start is far before the window.
        let idx = MatchIndex::new(vec![
            event(0, 0, 1_000, &[4], false),
            event(1, 850, 860, &[9], false),
        ]);
        let m = idx.matches_for(
            t(900),
            &ranges(&[4]),
            SimDuration::from_secs(10),
            SimDuration::from_secs(10),
        );
        assert_eq!(m, vec![0]);
    }

    #[test]
    fn by_id_finds_events_after_sorting() {
        let idx = MatchIndex::new(vec![
            event(1, 200, 210, &[0], false),
            event(0, 10, 20, &[4], false),
        ]);
        assert_eq!(idx.by_id(1).unwrap().start, t(200));
        assert_eq!(idx.by_id(0).unwrap().start, t(10));
        assert!(idx.by_id(7).is_none());
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }
}
