//! Stage 3: coalescing — spatial-temporal tupling of filtered entries into
//! error events.
//!
//! A single underlying problem produces many log entries (an MCE line, an
//! EDAC dump, a heartbeat declaration; a correctable-error flood; a link
//! failure plus the reroute bracket). Classic tupling groups entries that
//! are close in **time** (gap-based window) and **space** (same blade for
//! node-scoped entries; machine scope for fabric/filesystem entries), so
//! the attribution stage reasons about *events*, not lines.

use std::collections::HashMap;

use bw_topology::location::NODES_PER_BLADE;
use logdiver_types::category::ErrorScope;
use logdiver_types::codec::{Decode, DecodeError, Encode, Reader};
use logdiver_types::{ErrorCategory, NodeId, Severity, SimDuration, Timestamp};
use serde::{Deserialize, Serialize};

use crate::filter::FilteredEntry;

/// A coalesced error event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorEvent {
    /// Dense event id (index in the event table).
    pub id: u32,
    /// First member entry's timestamp.
    pub start: Timestamp,
    /// Last member entry's timestamp.
    pub end: Timestamp,
    /// Distinct categories seen, in first-seen order.
    pub categories: Vec<ErrorCategory>,
    /// Maximum severity over members.
    pub severity: Severity,
    /// Distinct nodes involved (empty for machine-scope events).
    pub nodes: Vec<NodeId>,
    /// True for machine-scope events (fabric, filesystem).
    pub system_scope: bool,
    /// Member entries folded in.
    pub entry_count: u32,
}

logdiver_types::codec_struct!(ErrorEvent {
    id,
    start,
    end,
    categories,
    severity,
    nodes,
    system_scope,
    entry_count
});

impl ErrorEvent {
    /// True when any member category can kill an application by itself.
    pub fn is_lethal(&self) -> bool {
        self.categories.iter().any(|c| c.is_application_lethal())
    }

    /// The root-cause category of the event.
    ///
    /// A lethal event typically contains a specific cause (MCE, GPU DBE,
    /// kernel panic) *followed by* the generic heartbeat declaration the
    /// health sweep adds when it finds the corpse. Root-cause preference:
    /// the earliest-seen lethal category that is not the generic
    /// declaration, then the earliest lethal one, then severity.
    pub fn dominant_category(&self) -> ErrorCategory {
        let generic = ErrorCategory::NodeHeartbeatFault;
        self.categories
            .iter()
            .copied()
            .find(|c| c.is_application_lethal() && *c != generic)
            .or_else(|| {
                self.categories
                    .iter()
                    .copied()
                    .find(|c| c.is_application_lethal())
            })
            .or_else(|| self.categories.iter().copied().max_by_key(|c| c.severity()))
            // Events absorb at least one entry, so the category list is
            // never empty; the Info-severity maintenance notice is the
            // inert fallback the type demands instead of a panic path.
            .unwrap_or(ErrorCategory::MaintenanceNotice)
    }

    /// Event duration.
    pub fn span(&self) -> SimDuration {
        self.end - self.start
    }

    fn absorb(&mut self, e: &FilteredEntry) {
        self.end = self.end.max(e.timestamp);
        self.severity = self.severity.max(e.severity);
        if !self.categories.contains(&e.category) {
            self.categories.push(e.category);
        }
        if let Some(n) = e.node {
            if !self.nodes.contains(&n) {
                self.nodes.push(n);
            }
        }
        self.entry_count += 1;
    }
}

/// Spatial grouping key.
///
/// Public only so a [`Coalescer`]'s open state can be externalized with
/// [`Coalescer::state`] and rebuilt with [`Coalescer::restore`] — e.g. by
/// the streaming engine's checkpoint machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GroupKey {
    /// Machine-scope stream (fabric, filesystem, reroutes).
    System,
    /// Blade-scoped stream.
    Blade(u32),
    /// Launcher complaints: per-application point events. They must never
    /// chain with (or extend) fabric/filesystem events — on a busy machine
    /// launch errors arrive every few minutes, and letting them bridge the
    /// gap would weld the whole machine-scope stream into one giant event.
    Launcher,
}

impl Encode for GroupKey {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GroupKey::System => out.push(0),
            GroupKey::Blade(blade) => {
                out.push(1);
                blade.encode(out);
            }
            GroupKey::Launcher => out.push(2),
        }
    }
}

impl Decode for GroupKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(GroupKey::System),
            1 => Ok(GroupKey::Blade(u32::decode(r)?)),
            2 => Ok(GroupKey::Launcher),
            _ => Err(r.bad("unknown GroupKey tag")),
        }
    }
}

fn key_of(e: &FilteredEntry) -> GroupKey {
    if e.category == ErrorCategory::AlpsLaunchFailure {
        return GroupKey::Launcher;
    }
    let system = e.category.scope() == ErrorScope::System || e.node.is_none();
    match (system, e.node) {
        (false, Some(n)) => GroupKey::Blade(n.value() / NODES_PER_BLADE),
        _ => GroupKey::System,
    }
}

/// Hard ceiling on one event's span: even a steady drizzle of related
/// entries (each within the gap of the last) is cut after 30 minutes, the
/// classic truncated-tupling rule that keeps events attributable.
pub const MAX_EVENT_SPAN: SimDuration = SimDuration::from_secs(1_800);

/// Incremental tupling: entries go in one at a time (non-decreasing
/// timestamps), events come out as they become final.
///
/// This is the single coalescing implementation; the batch [`coalesce`]
/// drives it in one shot, the streaming engine feeds it record by record
/// and harvests closed events on every watermark advance. An open event
/// closes once no future entry at or after the watermark could absorb it —
/// its gap has lapsed or its span ceiling is reached.
///
/// Coalescing is **idempotent under exact duplicates**: a replayed record
/// (identical timestamp, category, severity, node and source — the shape a
/// syslog relay reconnect or an adversarial replay produces) folds into
/// the event at most once, and the collapse count is reported via
/// [`Coalescer::duplicates`]. The dedup window is one timestamp per
/// spatial group, which is exactly where a replay can land: duplicates
/// share their original's timestamp by construction.
#[derive(Debug)]
pub struct Coalescer {
    gap: SimDuration,
    open: HashMap<GroupKey, ErrorEvent>,
    closed: Vec<ErrorEvent>,
    next_id: u32,
    /// Distinct entries already absorbed at each group's newest timestamp
    /// (order-insensitive, so both pipeline drivers dedup identically
    /// regardless of how ties were sequenced).
    seen: HashMap<GroupKey, SeenSlot>,
    duplicates: u64,
}

/// The distinct entries one group has absorbed at its newest timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SeenSlot {
    at: Timestamp,
    entries: Vec<FilteredEntry>,
}

logdiver_types::codec_struct!(SeenSlot { at, entries });

impl Coalescer {
    /// Creates a coalescer with the given chaining gap.
    pub fn new(gap: SimDuration) -> Self {
        Coalescer {
            gap,
            open: HashMap::new(),
            closed: Vec::new(),
            next_id: 0,
            seen: HashMap::new(),
            duplicates: 0,
        }
    }

    /// Exact-duplicate entries collapsed so far (see [`Coalescer::push`]).
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Feeds one entry. Entries must arrive in non-decreasing timestamp
    /// order (the batch driver sorts; the streaming engine's reorder buffer
    /// guarantees it). An entry identical to one already absorbed at the
    /// same timestamp in the same spatial group is a replay: it is counted
    /// and dropped, never double-absorbed.
    pub fn push(&mut self, e: &FilteredEntry) {
        let key = key_of(e);
        match self.seen.get_mut(&key) {
            Some(slot) if slot.at == e.timestamp => {
                if slot.entries.contains(e) {
                    self.duplicates += 1;
                    return;
                }
                slot.entries.push(*e);
            }
            Some(slot) => {
                *slot = SeenSlot {
                    at: e.timestamp,
                    entries: vec![*e],
                };
            }
            None => {
                self.seen.insert(
                    key,
                    SeenSlot {
                        at: e.timestamp,
                        entries: vec![*e],
                    },
                );
            }
        }
        match self.open.get_mut(&key) {
            Some(ev)
                if e.timestamp - ev.end <= self.gap && e.timestamp - ev.start <= MAX_EVENT_SPAN =>
            {
                ev.absorb(e);
            }
            slot => {
                let fresh = ErrorEvent {
                    id: self.next_id,
                    start: e.timestamp,
                    end: e.timestamp,
                    categories: vec![e.category],
                    severity: e.severity,
                    nodes: e.node.into_iter().collect(),
                    system_scope: key == GroupKey::System,
                    entry_count: 1,
                };
                self.next_id += 1;
                match slot {
                    Some(ev) => self.closed.push(std::mem::replace(ev, fresh)),
                    None => {
                        self.open.insert(key, fresh);
                    }
                }
            }
        }
    }

    /// Closes every open event that no entry at or after `watermark` could
    /// still absorb, and drains all events closed so far.
    pub fn take_closed(&mut self, watermark: Timestamp) -> Vec<ErrorEvent> {
        let gap = self.gap;
        let mut newly_closed: Vec<ErrorEvent> = Vec::new();
        self.open.retain(|_, ev| {
            let still_open = watermark - ev.end <= gap && watermark - ev.start <= MAX_EVENT_SPAN;
            if !still_open {
                newly_closed.push(ev.clone());
            }
            still_open
        });
        self.closed.append(&mut newly_closed);
        // A replay always carries its original's timestamp, so once a
        // group's event is closed (its end is a full gap behind the
        // watermark and later input is at/after the watermark) its dedup
        // slot can never match again — drop it to keep state bounded.
        let open = &self.open;
        self.seen.retain(|k, _| open.contains_key(k));
        std::mem::take(&mut self.closed)
    }

    /// Number of events still open.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Closes everything and returns all not-yet-taken events in id
    /// (creation) order.
    pub fn finish(mut self) -> Vec<ErrorEvent> {
        self.closed.extend(self.open.into_values());
        self.closed.sort_by_key(|e| e.id);
        self.closed
    }

    /// Externalizes the open state (serializable, deterministic ordering)
    /// so a crashed driver can rebuild an equivalent coalescer with
    /// [`Coalescer::restore`].
    pub fn state(&self) -> CoalescerState {
        let mut open: Vec<(GroupKey, ErrorEvent)> =
            self.open.iter().map(|(k, v)| (*k, v.clone())).collect();
        open.sort_by_key(|(k, _)| *k);
        let mut seen: Vec<(GroupKey, SeenSlot)> =
            self.seen.iter().map(|(k, v)| (*k, v.clone())).collect();
        seen.sort_by_key(|(k, _)| *k);
        CoalescerState {
            open,
            closed: self.closed.clone(),
            next_id: self.next_id,
            seen,
            duplicates: self.duplicates,
        }
    }

    /// Rebuilds a coalescer from externalized state. With the same `gap`
    /// the restored coalescer behaves identically to the original on any
    /// further input.
    pub fn restore(gap: SimDuration, state: CoalescerState) -> Self {
        Coalescer {
            gap,
            open: state.open.into_iter().collect(),
            closed: state.closed,
            next_id: state.next_id,
            seen: state.seen.into_iter().collect(),
            duplicates: state.duplicates,
        }
    }
}

/// Serializable open state of a [`Coalescer`] (see [`Coalescer::state`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoalescerState {
    /// Open events by spatial group, sorted by key for determinism.
    open: Vec<(GroupKey, ErrorEvent)>,
    /// Events closed but not yet taken.
    closed: Vec<ErrorEvent>,
    /// Next event id to assign.
    next_id: u32,
    /// Per-group dedup slots, sorted by key for determinism.
    seen: Vec<(GroupKey, SeenSlot)>,
    /// Exact duplicates collapsed so far.
    duplicates: u64,
}

impl CoalescerState {
    /// Number of events still open.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }
}

logdiver_types::codec_struct!(CoalescerState {
    open,
    closed,
    next_id,
    seen,
    duplicates
});

/// Coalesces time-sorted filtered entries with the given gap.
///
/// Every *distinct* input entry lands in exactly one event (exact
/// duplicates collapse — see [`Coalescer::push`]); events of one spatial
/// group never overlap (closing happens when the gap is exceeded), and no
/// event spans more than [`MAX_EVENT_SPAN`].
pub fn coalesce(entries: &[FilteredEntry], gap: SimDuration) -> Vec<ErrorEvent> {
    debug_assert!(entries.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
    let mut coalescer = Coalescer::new(gap);
    for e in entries {
        coalescer.push(e);
    }
    coalescer.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::EntrySource;
    use proptest::prelude::*;

    fn entry(secs: i64, cat: ErrorCategory, node: Option<u32>) -> FilteredEntry {
        FilteredEntry {
            timestamp: Timestamp::PRODUCTION_EPOCH + SimDuration::from_secs(secs),
            category: cat,
            severity: cat.severity(),
            node: node.map(NodeId::new),
            source: EntrySource::Syslog,
        }
    }

    #[test]
    fn burst_on_one_node_becomes_one_event() {
        let entries: Vec<_> = (0..10)
            .map(|i| entry(i * 10, ErrorCategory::MemoryCorrectable, Some(8)))
            .collect();
        let events = coalesce(&entries, SimDuration::from_secs(60));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].entry_count, 10);
        assert_eq!(events[0].span(), SimDuration::from_secs(90));
        assert!(!events[0].is_lethal());
    }

    #[test]
    fn gap_splits_events() {
        let entries = vec![
            entry(0, ErrorCategory::MemoryCorrectable, Some(8)),
            entry(30, ErrorCategory::MemoryCorrectable, Some(8)),
            entry(500, ErrorCategory::MemoryCorrectable, Some(8)),
        ];
        let events = coalesce(&entries, SimDuration::from_secs(60));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].entry_count, 2);
        assert_eq!(events[1].entry_count, 1);
    }

    #[test]
    fn blade_groups_nodes_together_but_not_across() {
        // nids 8..11 share blade 2; nid 12 is blade 3.
        let entries = vec![
            entry(0, ErrorCategory::MachineCheckException, Some(8)),
            entry(5, ErrorCategory::NodeHeartbeatFault, Some(9)),
            entry(6, ErrorCategory::MachineCheckException, Some(12)),
        ];
        let events = coalesce(&entries, SimDuration::from_secs(60));
        assert_eq!(events.len(), 2);
        let blade2 = events
            .iter()
            .find(|e| e.nodes.contains(&NodeId::new(8)))
            .unwrap();
        assert_eq!(blade2.entry_count, 2);
        assert_eq!(blade2.categories.len(), 2);
        assert!(blade2.is_lethal());
        assert_eq!(blade2.severity, Severity::Fatal);
    }

    #[test]
    fn system_scope_categories_merge_machine_wide() {
        let entries = vec![
            entry(0, ErrorCategory::GeminiLinkFailure, None),
            entry(3, ErrorCategory::GeminiRouteReconfig, None),
            entry(45, ErrorCategory::GeminiRouteReconfig, None),
        ];
        let events = coalesce(&entries, SimDuration::from_secs(300));
        assert_eq!(events.len(), 1);
        assert!(events[0].system_scope);
        assert!(events[0].is_lethal());
        assert_eq!(
            events[0].dominant_category(),
            ErrorCategory::GeminiLinkFailure
        );
    }

    #[test]
    fn launcher_entries_never_bridge_system_events() {
        // Launch errors every 2 min would otherwise chain reroutes (20 min
        // apart) into one mega event.
        let mut entries = Vec::new();
        for k in 0..20 {
            entries.push(entry(k * 120, ErrorCategory::AlpsLaunchFailure, None));
        }
        entries.push(entry(5, ErrorCategory::GeminiRouteReconfig, None));
        entries.push(entry(1_500, ErrorCategory::GeminiRouteReconfig, None));
        entries.sort_by_key(|e| e.timestamp);
        let events = coalesce(&entries, SimDuration::from_secs(300));
        let system: Vec<&ErrorEvent> = events
            .iter()
            .filter(|e| e.categories.contains(&ErrorCategory::GeminiRouteReconfig))
            .collect();
        assert_eq!(system.len(), 2, "reroutes must stay separate events");
        for ev in system {
            assert!(!ev.categories.contains(&ErrorCategory::AlpsLaunchFailure));
        }
    }

    #[test]
    fn max_span_truncates_steady_drizzle() {
        // Entries every 200 s for 2 hours: the gap never closes the event,
        // the span ceiling must.
        let entries: Vec<_> = (0..36)
            .map(|k| entry(k * 200, ErrorCategory::MemoryCorrectable, Some(8)))
            .collect();
        let events = coalesce(&entries, SimDuration::from_secs(300));
        assert!(
            events.len() >= 3,
            "expected truncation, got {} events",
            events.len()
        );
        for ev in &events {
            assert!(ev.span() <= MAX_EVENT_SPAN);
        }
        let total: u32 = events.iter().map(|e| e.entry_count).sum();
        assert_eq!(total as usize, entries.len());
    }

    #[test]
    fn node_scoped_link_entry_groups_by_blade() {
        // A GeminiLinkFailure reported *by a node* still groups on the blade
        // (scope Blade), while the netwatch one (node=None) is system-wide.
        let entries = vec![
            entry(0, ErrorCategory::MachineCheckException, Some(4)),
            entry(1, ErrorCategory::GeminiRouteReconfig, None),
        ];
        let events = coalesce(&entries, SimDuration::from_secs(300));
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn state_round_trip_preserves_behavior() {
        let entries: Vec<_> = (0..40)
            .map(|k| {
                entry(
                    k * 70,
                    ErrorCategory::MemoryCorrectable,
                    Some((k as u32 % 8) * 4),
                )
            })
            .collect();
        let gap = SimDuration::from_secs(120);
        for split in [0usize, 1, 7, 20, 39, 40] {
            let mut whole = Coalescer::new(gap);
            let mut first = Coalescer::new(gap);
            for e in &entries[..split] {
                whole.push(e);
                first.push(e);
            }
            // Serialize mid-stream, rebuild, and continue on the copy.
            let json = serde_json::to_string(&first.state()).unwrap();
            let state: CoalescerState = serde_json::from_str(&json).unwrap();
            let mut resumed = Coalescer::restore(gap, state);
            for e in &entries[split..] {
                whole.push(e);
                resumed.push(e);
            }
            assert_eq!(resumed.finish(), whole.finish(), "split at {split}");
        }
    }

    #[test]
    fn exact_duplicate_replay_is_collapsed() {
        // A syslog relay reconnect replays two lines; the event must count
        // each underlying entry once and report the collapse.
        let a = entry(0, ErrorCategory::MachineCheckException, Some(8));
        let b = entry(40, ErrorCategory::NodeHeartbeatFault, Some(9));
        let mut co = Coalescer::new(SimDuration::from_secs(60));
        for e in [&a, &a, &b, &b, &b] {
            co.push(e);
        }
        assert_eq!(co.duplicates(), 3);
        let events = co.finish();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].entry_count, 2, "duplicates must not inflate");
        assert_eq!(events[0].categories.len(), 2);
    }

    #[test]
    fn duplicate_replay_is_idempotent() {
        // Replaying every entry once yields byte-identical events.
        let entries: Vec<_> = (0..30)
            .map(|k| {
                entry(
                    k * 37,
                    ErrorCategory::MemoryUncorrectable,
                    Some((k as u32 % 4) * 4),
                )
            })
            .collect();
        let gap = SimDuration::from_secs(120);
        let clean = coalesce(&entries, gap);
        let mut replayed = Vec::new();
        for e in &entries {
            replayed.push(*e);
            replayed.push(*e);
        }
        let doubled = coalesce(&replayed, gap);
        assert_eq!(doubled, clean);
    }

    #[test]
    fn distinct_same_second_entries_are_not_deduped() {
        // Two *different* categories on one blade in the same second are
        // genuinely distinct records, not a replay.
        let entries = vec![
            entry(0, ErrorCategory::MachineCheckException, Some(8)),
            entry(0, ErrorCategory::NodeHeartbeatFault, Some(8)),
        ];
        let mut co = Coalescer::new(SimDuration::from_secs(60));
        for e in &entries {
            co.push(e);
        }
        assert_eq!(co.duplicates(), 0);
        let events = co.finish();
        assert_eq!(events[0].entry_count, 2);
    }

    #[test]
    fn dedup_state_survives_round_trip() {
        // Checkpoint between an entry and its replay: the resumed
        // coalescer must still recognize the duplicate.
        let a = entry(0, ErrorCategory::MachineCheckException, Some(8));
        let mut co = Coalescer::new(SimDuration::from_secs(60));
        co.push(&a);
        let json = serde_json::to_string(&co.state()).unwrap();
        let state: CoalescerState = serde_json::from_str(&json).unwrap();
        let mut resumed = Coalescer::restore(SimDuration::from_secs(60), state);
        resumed.push(&a);
        assert_eq!(resumed.duplicates(), 1);
        let events = resumed.finish();
        assert_eq!(events[0].entry_count, 1);
    }

    proptest! {
        #[test]
        fn every_entry_lands_in_exactly_one_event(
            mut times in proptest::collection::vec(0i64..5_000, 1..120),
            gap in 10i64..600,
        ) {
            times.sort_unstable();
            let entries: Vec<_> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| entry(t, ErrorCategory::MemoryUncorrectable, Some((i as u32 % 16) * 4)))
                .collect();
            let events = coalesce(&entries, SimDuration::from_secs(gap));
            let total: u32 = events.iter().map(|e| e.entry_count).sum();
            // Same blade + same second + same category means the generator
            // produced an exact duplicate, which the coalescer collapses.
            let distinct: std::collections::HashSet<_> = entries
                .iter()
                .map(|e| (e.timestamp, e.node))
                .collect();
            prop_assert_eq!(total as usize, distinct.len());
            for e in &events {
                prop_assert!(e.start <= e.end);
                prop_assert!(!e.categories.is_empty());
            }
            // Events in one blade group do not overlap and are gap-separated.
            use std::collections::HashMap;
            let mut by_first_node: HashMap<u32, Vec<&ErrorEvent>> = HashMap::new();
            for e in &events {
                if let Some(n) = e.nodes.first() {
                    by_first_node.entry(n.value() / 4).or_default().push(e);
                }
            }
            for group in by_first_node.values() {
                for w in group.windows(2) {
                    prop_assert!(w[1].start - w[0].end > SimDuration::from_secs(gap));
                }
            }
        }
    }
}
