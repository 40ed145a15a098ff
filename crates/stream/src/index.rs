//! Live event index: the streaming counterpart of
//! [`logdiver::matcher::MatchIndex`].
//!
//! Events arrive one at a time as the coalescer closes them (not in start
//! order — different spatial groups close at different watermarks), so the
//! index keeps an insertion vector plus a `(start, id)`-sorted view. The
//! sorted view makes [`EventLookup::matches_for`] return ids in exactly the
//! order the batch index produces: the batch table is built from id-ordered
//! events with a stable sort by start, which is `(start, id)` order.

use std::collections::HashMap;

use logdiver::coalesce::ErrorEvent;
use logdiver::matcher::EventLookup;
use logdiver_types::RangeSet;
use logdiver_types::{SimDuration, Timestamp};

/// A growing, queryable table of closed error events.
#[derive(Debug)]
pub struct StreamIndex {
    events: Vec<ErrorEvent>,
    /// `(start, id, position in events)`, sorted.
    order: Vec<(Timestamp, u32, usize)>,
    by_id: HashMap<u32, usize>,
    max_span: SimDuration,
    lethal: u64,
}

impl Default for StreamIndex {
    fn default() -> Self {
        StreamIndex {
            events: Vec::new(),
            order: Vec::new(),
            by_id: HashMap::new(),
            max_span: SimDuration::ZERO,
            lethal: 0,
        }
    }
}

impl StreamIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one closed event. Events usually close in roughly increasing
    /// start order, so the sorted insert is cheap in practice.
    pub fn insert(&mut self, event: ErrorEvent) {
        let pos = self.events.len();
        self.max_span = self.max_span.max(event.span());
        if event.is_lethal() {
            self.lethal += 1;
        }
        self.by_id.insert(event.id, pos);
        let key = (event.start, event.id);
        let at = self.order.partition_point(|&(s, i, _)| (s, i) < key);
        self.order.insert(at, (event.start, event.id, pos));
        self.events.push(event);
    }

    /// Number of closed events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have closed yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Closed lethal events.
    pub fn lethal_count(&self) -> u64 {
        self.lethal
    }

    /// The events in `(start, id)` order — the order
    /// [`logdiver::pipeline::Analysis::events`] uses, and the order
    /// checkpoints carry them in: which spatial group closed first depends
    /// on where the watermark happened to stop, the sorted view does not.
    pub fn events_in_order(&self) -> Vec<ErrorEvent> {
        self.order
            .iter()
            .map(|&(_, _, pos)| self.events[pos].clone())
            .collect()
    }

    /// Rebuilds an index by inserting `events` in order — the checkpoint
    /// round trip. Whatever that order, the rebuilt index answers every
    /// query as the original does: lookups go through the sorted view and
    /// the id map, never through insertion positions.
    pub fn from_events(events: Vec<ErrorEvent>) -> Self {
        let mut index = StreamIndex::new();
        for event in events {
            index.insert(event);
        }
        index
    }
}

impl EventLookup for StreamIndex {
    fn matches_for(
        &self,
        death: Timestamp,
        nodes: &RangeSet,
        lead: SimDuration,
        lag: SimDuration,
    ) -> Vec<u32> {
        let win_lo = death - lead;
        let win_hi = death + lag;
        // Mirrors MatchIndex::matches_for. The max span here covers every
        // indexed event, so the scan floor is sound for them; events not yet
        // indexed are the caller's responsibility (runs are only classified
        // once every event that could overlap their window has closed).
        let scan_lo = win_lo - self.max_span;
        let first = self.order.partition_point(|&(s, _, _)| s < scan_lo);
        let mut out = Vec::new();
        for &(start, _, pos) in &self.order[first..] {
            if start > win_hi {
                break;
            }
            let e = &self.events[pos];
            if e.end < win_lo {
                continue;
            }
            if e.system_scope || nodes.intersects_any(&e.nodes) {
                out.push(e.id);
            }
        }
        out
    }

    fn by_id(&self, id: u32) -> Option<&ErrorEvent> {
        self.by_id.get(&id).map(|&pos| &self.events[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logdiver::matcher::MatchIndex;
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
    fn agrees_with_batch_index_on_any_insert_order() {
        let events = vec![
            event(0, 100, 130, &[4], false),
            event(1, 100, 160, &[], true),
            event(2, 50, 1_900, &[9], false),
            event(3, 400, 410, &[4, 9], false),
        ];
        // Insert in a scrambled order; the batch index always sees id order.
        let mut stream = StreamIndex::new();
        for i in [2usize, 0, 3, 1] {
            stream.insert(events[i].clone());
        }
        let batch = MatchIndex::new(events);
        let lead = SimDuration::from_secs(120);
        let lag = SimDuration::from_secs(120);
        for death in [0i64, 90, 120, 200, 420, 1_000, 2_500] {
            for nids in [&[4u32][..], &[9], &[4, 9], &[77]] {
                assert_eq!(
                    EventLookup::matches_for(&stream, t(death), &ranges(nids), lead, lag),
                    batch.matches_for(t(death), &ranges(nids), lead, lag),
                    "death={death} nodes={nids:?}"
                );
            }
        }
        for id in 0..5 {
            assert_eq!(EventLookup::by_id(&stream, id), batch.by_id(id));
        }
        assert_eq!(stream.events_in_order(), batch.events().to_vec());
        assert_eq!(stream.len(), 4);
        assert!(!stream.is_empty());
        assert_eq!(stream.lethal_count(), 4);
    }
}
