//! Stage 2: filtering — from parsed records to categorized error entries.
//!
//! The consolidated syslog is overwhelmingly operational chatter; this
//! stage keeps only lines matching a curated **pattern table** and tags
//! them with an [`ErrorCategory`]. The table below was written against the
//! message phrasings observed in the logs (as the real LogDiver's template
//! base was reverse-engineered from Cray's `craylog` output) — it is
//! deliberately independent of the emitting code and is exercised against
//! both matching and non-matching corpora in the tests.
//!
//! ## The byte hot path
//!
//! Classification runs on **raw message bytes**: [`Pattern::matches_bytes`]
//! is a byte substring conjunction, and the `&str` entry points delegate to
//! it. The two agree exactly — `str::contains` is byte substring search,
//! and because UTF-8 is self-synchronizing a byte-level match of a valid
//! UTF-8 needle always lands on a character boundary. This is what lets
//! [`filter_columns`] classify borrowed arena slices **before** any record
//! materializes: a discarded line (the overwhelming majority) never
//! allocates, and a kept line only resolves its host to a [`NodeId`].
//!
//! Each pattern carries a precomputed *screen* — the set of its fragments'
//! first bytes plus the longest fragment's length. Per message, one pass
//! builds a 256-bit byte-presence bitmap; a pattern whose screen bytes are
//! not all present (or whose longest fragment cannot fit) is skipped
//! without any substring search. Screens are conservative, never changing
//! the match result — a property the tests pin against the naive scan.

use logdiver_types::{ErrorCategory, NodeId, Severity, Timestamp};
use serde::{Deserialize, Serialize};

use crate::parse::ParsedColumns;

/// Which source a filtered entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EntrySource {
    /// Consolidated syslog.
    Syslog,
    /// Hardware error log.
    HwErr,
    /// HSN netwatch.
    Netwatch,
}

logdiver_types::codec_enum!(EntrySource {
    Syslog = 0,
    HwErr = 1,
    Netwatch = 2,
});

/// One categorized error-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilteredEntry {
    /// When it was logged.
    pub timestamp: Timestamp,
    /// Assigned category.
    pub category: ErrorCategory,
    /// Severity (from the record when structured, from the category
    /// otherwise).
    pub severity: Severity,
    /// Reporting node, when one is identifiable.
    pub node: Option<NodeId>,
    /// Originating source.
    pub source: EntrySource,
}

logdiver_types::codec_struct!(FilteredEntry {
    timestamp,
    category,
    severity,
    node,
    source
});

/// A substring-conjunction pattern: matches when *all* fragments occur.
#[derive(Debug, Clone)]
pub struct Pattern {
    fragments: &'static [&'static str],
    category: ErrorCategory,
}

impl Pattern {
    /// Builds a pattern from its fragments and target category.
    pub const fn new(fragments: &'static [&'static str], category: ErrorCategory) -> Self {
        Pattern {
            fragments,
            category,
        }
    }

    /// The conjunction fragments, in declaration order.
    pub fn fragments(&self) -> &'static [&'static str] {
        self.fragments
    }

    /// The category assigned on a match.
    pub fn category(&self) -> ErrorCategory {
        self.category
    }

    /// True when every fragment occurs in `message`.
    pub fn matches(&self, message: &str) -> bool {
        self.matches_bytes(message.as_bytes())
    }

    /// True when every fragment occurs in `message`, scanned as raw bytes.
    ///
    /// For valid UTF-8 input this is exactly [`Pattern::matches`]; for
    /// damaged input it degrades gracefully (a fragment simply cannot
    /// start inside a torn multi-byte sequence).
    pub fn matches_bytes(&self, message: &[u8]) -> bool {
        self.fragments
            .iter()
            .all(|f| craylog::scan::find_seq(message, f.as_bytes()).is_some())
    }
}

/// Precomputed skip data for one pattern: the set of fragment first bytes
/// (as a 256-bit mask) and the longest fragment's length. A message that
/// lacks any screened byte, or is shorter than the longest fragment,
/// cannot match — checked against a per-message presence bitmap before any
/// substring search runs.
#[derive(Debug, Clone, Copy)]
struct Screen {
    need: [u64; 4],
    min_len: usize,
}

impl Screen {
    fn for_pattern(p: &Pattern) -> Self {
        let mut need = [0u64; 4];
        let mut min_len = 0;
        for f in p.fragments {
            if let Some(&b) = f.as_bytes().first() {
                need[(b >> 6) as usize] |= 1 << (b & 63);
            }
            min_len = min_len.max(f.len());
        }
        Screen { need, min_len }
    }

    #[inline]
    fn admits(&self, have: &[u64; 4], len: usize) -> bool {
        len >= self.min_len
            && self.need[0] & have[0] == self.need[0]
            && self.need[1] & have[1] == self.need[1]
            && self.need[2] & have[2] == self.need[2]
            && self.need[3] & have[3] == self.need[3]
    }
}

/// Which byte values occur in `message`, as a 256-bit bitmap.
#[inline]
fn byte_presence(message: &[u8]) -> [u64; 4] {
    let mut have = [0u64; 4];
    for &b in message {
        have[(b >> 6) as usize] |= 1 << (b & 63);
    }
    have
}

/// A declared precedence between two lexically overlapping rules of
/// *different* categories: messages matching both are intentionally won by
/// the earlier rule. `logdiver lint` demands one of these (with a reason)
/// for every cross-category overlap it detects — the in-table record of
/// ordering intent that first-match-wins otherwise leaves implicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct OverlapWaiver {
    /// First fragment of the earlier (winning) rule.
    pub earlier: &'static str,
    /// First fragment of the later (yielding) rule.
    pub later: &'static str,
    /// Why the earlier rule winning is correct. Required.
    pub reason: &'static str,
}

/// The curated pattern table (first match wins).
#[derive(Debug, Clone)]
pub struct PatternTable {
    patterns: Vec<Pattern>,
    waivers: Vec<OverlapWaiver>,
    screens: Vec<Screen>,
}

impl Default for PatternTable {
    fn default() -> Self {
        Self::curated()
    }
}

impl PatternTable {
    /// The curated table for Cray XE/XK syslog streams.
    ///
    /// Ordering is load-bearing (first match wins). Within a subsystem the
    /// more specific phrasing precedes the generic one (`"LCB lane
    /// shutdown"` before `"link failed"`, `"UE row"` before `"CE row"`),
    /// and every cross-category overlap is recorded as an
    /// [`OverlapWaiver`] below — `logdiver lint` verifies the list is
    /// exact: no unwaived overlap, no stale waiver, and every waived
    /// pair's witness string actually classifies to the earlier rule.
    pub fn curated() -> Self {
        use ErrorCategory::*;
        let patterns = vec![
            Pattern {
                fragments: &["Machine Check Exception"],
                category: MachineCheckException,
            },
            Pattern {
                fragments: &["Machine Check", "unrecoverable"],
                category: MachineCheckException,
            },
            Pattern {
                fragments: &["DRAM ECC error"],
                category: MemoryUncorrectable,
            },
            Pattern {
                fragments: &["EDAC", "UE row"],
                category: MemoryUncorrectable,
            },
            Pattern {
                fragments: &["uncorrectable memory error"],
                category: MemoryUncorrectable,
            },
            Pattern {
                fragments: &["EDAC", "CE row"],
                category: MemoryCorrectable,
            },
            Pattern {
                fragments: &["LCB lane shutdown"],
                category: GeminiLinkFailure,
            },
            Pattern {
                fragments: &["link failed"],
                category: GeminiLinkFailure,
            },
            Pattern {
                fragments: &["running degraded", "lanes up"],
                category: GeminiLaneDegrade,
            },
            Pattern {
                fragments: &["route table recomputation"],
                category: GeminiRouteReconfig,
            },
            Pattern {
                fragments: &["traffic quiesced"],
                category: GeminiRouteReconfig,
            },
            Pattern {
                fragments: &["heartbeat fault"],
                category: NodeHeartbeatFault,
            },
            Pattern {
                fragments: &["declaring node dead"],
                category: NodeHeartbeatFault,
            },
            Pattern {
                fragments: &["L0 controller unresponsive"],
                category: BladeControllerFailure,
            },
            Pattern {
                fragments: &["VRM fault"],
                category: VoltageFault,
            },
            Pattern {
                fragments: &["Kernel panic"],
                category: KernelPanic,
            },
            Pattern {
                fragments: &["unable to handle kernel paging request"],
                category: KernelPanic,
            },
            Pattern {
                fragments: &["softlockup detected"],
                category: NodeHang,
            },
            Pattern {
                fragments: &["node unresponsive"],
                category: NodeHang,
            },
            Pattern {
                fragments: &["Connection to service was lost"],
                category: LustreOstFailure,
            },
            Pattern {
                fragments: &["failed over", "I/O will block"],
                category: LustreOstFailure,
            },
            Pattern {
                fragments: &["MDS failover"],
                category: LustreMdsFailover,
            },
            Pattern {
                fragments: &["client evicted"],
                category: LustreClientEviction,
            },
            Pattern {
                fragments: &["Double Bit ECC Error"],
                category: GpuDoubleBitError,
            },
            Pattern {
                fragments: &["fallen off the bus"],
                category: GpuBusError,
            },
            Pattern {
                fragments: &["page retirement"],
                category: GpuPageRetirement,
            },
            Pattern {
                fragments: &["placement failed"],
                category: AlpsLaunchFailure,
            },
            Pattern {
                fragments: &["warm swap"],
                category: MaintenanceNotice,
            },
        ];
        // Ordering intent for every cross-category lexical overlap in the
        // table above. Each entry says: a message matching both rules is
        // *meant* to be won by the earlier one, and why.
        let waivers = vec![
            OverlapWaiver {
                earlier: "DRAM ECC error",
                later: "Double Bit ECC Error",
                reason: "generic word `error`; host-memory ECC text outranks GPU Xid text — \
                         real GPU lines carry `Double Bit`/`Xid`, which host rules never match",
            },
            OverlapWaiver {
                earlier: "EDAC",
                later: "EDAC",
                reason: "UE row is checked before CE row so an uncorrectable report that also \
                         mentions the corrected counter is never downgraded to a warning",
            },
            OverlapWaiver {
                earlier: "uncorrectable memory error",
                later: "Double Bit ECC Error",
                reason: "generic word `error`; a line naming an uncorrectable host memory error \
                         attributes to Memory even if GPU ECC chatter is appended",
            },
            OverlapWaiver {
                earlier: "link failed",
                later: "failed over",
                reason: "generic word `failed`; an HSN link failure that triggers Lustre \
                         failover text is root-caused to the interconnect",
            },
            OverlapWaiver {
                earlier: "link failed",
                later: "placement failed",
                reason: "generic word `failed`; a link failure aborting a placement is the \
                         interconnect's fault, not the launcher's",
            },
            OverlapWaiver {
                earlier: "failed over",
                later: "placement failed",
                reason: "generic word `failed`; filesystem failover noted in a placement \
                         message outranks the launcher symptom",
            },
            OverlapWaiver {
                earlier: "heartbeat fault",
                later: "VRM fault",
                reason: "generic word `fault`; a heartbeat loss co-reported with a voltage \
                         fault is counted once, as the node-death signal",
            },
            OverlapWaiver {
                earlier: "declaring node dead",
                later: "node unresponsive",
                reason: "generic word `node`; a declared node death subsumes the softer \
                         hang/unresponsive phrasing",
            },
            OverlapWaiver {
                earlier: "L0 controller unresponsive",
                later: "node unresponsive",
                reason: "shared word `unresponsive`; the blade-controller diagnosis is more \
                         specific than a generic node hang",
            },
        ];
        Self::build(patterns, waivers)
    }

    /// Builds a table from user-supplied rules (first match wins), with no
    /// overlap waivers declared. Chain [`PatternTable::with_waivers`] to
    /// record ordering intent for cross-category overlaps.
    pub fn from_rules(patterns: Vec<Pattern>) -> Self {
        Self::build(patterns, Vec::new())
    }

    /// The one place screens are derived, so every constructor agrees.
    fn build(patterns: Vec<Pattern>, waivers: Vec<OverlapWaiver>) -> Self {
        let screens = patterns.iter().map(Screen::for_pattern).collect();
        PatternTable {
            patterns,
            waivers,
            screens,
        }
    }

    /// Replaces the declared overlap waivers.
    #[must_use]
    pub fn with_waivers(mut self, waivers: Vec<OverlapWaiver>) -> Self {
        self.waivers = waivers;
        self
    }

    /// The rules, in match-priority order.
    pub fn rules(&self) -> &[Pattern] {
        &self.patterns
    }

    /// The declared cross-category precedence waivers.
    pub fn waivers(&self) -> &[OverlapWaiver] {
        &self.waivers
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no patterns are loaded.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Classifies a message; `None` means "operational chatter, discard".
    pub fn classify(&self, message: &str) -> Option<ErrorCategory> {
        self.classify_index(message).map(|(_, category)| category)
    }

    /// Classifies a message, also reporting *which* rule (0-based index in
    /// [`PatternTable::rules`]) won — the introspection hook the rule-set
    /// verifier uses to prove its witness strings resolve as claimed.
    pub fn classify_index(&self, message: &str) -> Option<(usize, ErrorCategory)> {
        self.classify_index_bytes(message.as_bytes())
    }

    /// Byte-level [`PatternTable::classify`] — the zero-copy hot path.
    pub fn classify_bytes(&self, message: &[u8]) -> Option<ErrorCategory> {
        self.classify_index_bytes(message)
            .map(|(_, category)| category)
    }

    /// Byte-level [`PatternTable::classify_index`]. One presence-bitmap
    /// pass over the message, then first-match-wins over the rules with
    /// each rule's [`Screen`] consulted before its substring scan.
    pub fn classify_index_bytes(&self, message: &[u8]) -> Option<(usize, ErrorCategory)> {
        let have = byte_presence(message);
        for (i, (p, s)) in self.patterns.iter().zip(&self.screens).enumerate() {
            if s.admits(&have, message.len()) && p.matches_bytes(message) {
                return Some((i, p.category));
            }
        }
        None
    }
}

/// Accounting for the filter stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FilterStats {
    /// Syslog lines examined.
    pub syslog_examined: u64,
    /// Syslog lines kept.
    pub syslog_kept: u64,
    /// Structured records (hwerr + netwatch) kept.
    pub structured_kept: u64,
}

logdiver_types::codec_struct!(FilterStats {
    syslog_examined,
    syslog_kept,
    structured_kept
});

impl FilterStats {
    /// Fraction of syslog discarded as noise.
    pub fn syslog_discard_ratio(&self) -> f64 {
        if self.syslog_examined == 0 {
            0.0
        } else {
            1.0 - self.syslog_kept as f64 / self.syslog_examined as f64
        }
    }
}

/// Converts one netwatch record (always kept).
pub fn entry_from_netwatch(rec: &craylog::netwatch::NetwatchRecord) -> FilteredEntry {
    use craylog::netwatch::NetwatchEvent::*;
    let category = match rec.event {
        LinkFailed { .. } => ErrorCategory::GeminiLinkFailure,
        LaneDegrade { .. } => ErrorCategory::GeminiLaneDegrade,
        RerouteStart { .. } | RerouteDone { .. } => ErrorCategory::GeminiRouteReconfig,
    };
    FilteredEntry {
        timestamp: rec.timestamp,
        category,
        severity: category.severity(),
        node: None,
        source: EntrySource::Netwatch,
    }
}

/// The key the entry stream is ordered by: time, then node (node-less
/// entries last), with source order (syslog, hwerr, netwatch) breaking the
/// remaining ties — exactly the order [`filter_columns`]'s stable sort
/// produces. The streaming reorder buffer sorts by this same key so both
/// drivers feed the coalescer identically.
pub fn entry_sort_key(e: &FilteredEntry) -> (Timestamp, u32) {
    (e.timestamp, e.node.map(|n| n.value()).unwrap_or(u32::MAX))
}

/// Below this many syslog records the parallel scan is all overhead.
const PAR_FILTER_MIN_RECORDS: usize = 4096;

/// Filters one columnar syslog record from its borrowed field slices;
/// `None` means "operational chatter, discard". Classification runs on the
/// raw message bytes, and the host is resolved to a node **only on a
/// keep** — a discarded line costs one bitmap pass and some screened
/// substring scans, nothing more.
pub fn entry_from_syslog_bytes(
    timestamp: Timestamp,
    host: &[u8],
    message: &[u8],
    table: &PatternTable,
) -> Option<FilteredEntry> {
    table.classify_bytes(message).map(|category| FilteredEntry {
        timestamp,
        category,
        severity: category.severity(),
        node: NodeId::parse_hostname_bytes(host),
        source: EntrySource::Syslog,
    })
}

/// Converts one reduced hardware-error record (always kept).
fn entry_from_hwerr_parsed(h: &crate::parse::HwErrParsed) -> FilteredEntry {
    FilteredEntry {
        timestamp: h.timestamp,
        category: h.category,
        severity: h.severity,
        node: Some(h.node),
        source: EntrySource::HwErr,
    }
}

/// Runs the filter over columnar parse output — the pipeline's stage 2.
/// Only the syslog scan (the volume) parallelizes; per-chunk keeps are
/// concatenated in chunk order — i.e. record order — before one stable
/// sort, so entries, order and stats are the same for any thread count.
pub fn filter_columns(
    cols: &ParsedColumns<'_>,
    table: &PatternTable,
    threads: usize,
) -> (Vec<FilteredEntry>, FilterStats) {
    let syslog = &cols.syslog;
    let mut stats = FilterStats {
        syslog_examined: syslog.len() as u64,
        ..FilterStats::default()
    };

    let mut entries: Vec<FilteredEntry>;
    if threads <= 1 || syslog.len() < PAR_FILTER_MIN_RECORDS {
        entries = Vec::new();
        for i in 0..syslog.len() {
            if let Some(entry) =
                entry_from_syslog_bytes(syslog.times[i], syslog.hosts[i], syslog.messages[i], table)
            {
                entries.push(entry);
            }
        }
    } else {
        let chunk_len = (syslog.len() / (threads * 4)).max(PAR_FILTER_MIN_RECORDS / 4);
        let ranges: Vec<std::ops::Range<usize>> = (0..syslog.len())
            .step_by(chunk_len)
            .map(|lo| lo..(lo + chunk_len).min(syslog.len()))
            .collect();
        let results = crate::exec::par_map(threads, ranges, |range| {
            range
                .filter_map(|i| {
                    entry_from_syslog_bytes(
                        syslog.times[i],
                        syslog.hosts[i],
                        syslog.messages[i],
                        table,
                    )
                })
                .collect::<Vec<FilteredEntry>>()
        });
        entries = results.into_iter().flatten().collect();
    }
    stats.syslog_kept = entries.len() as u64;

    for h in &cols.hwerr {
        stats.structured_kept += 1;
        entries.push(entry_from_hwerr_parsed(h));
    }
    for rec in &cols.netwatch {
        stats.structured_kept += 1;
        entries.push(entry_from_netwatch(rec));
    }
    entries.sort_by_key(entry_sort_key);
    (entries, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use craylog::templates;
    use logdiver_types::ErrorCategory;

    #[test]
    fn table_classifies_every_emitted_template() {
        // The table must recognize every phrasing the machine produces —
        // validated against the emitter corpus without sharing code with it.
        let table = PatternTable::curated();
        for cat in ErrorCategory::ALL {
            for variant in 0..16 {
                let msg = templates::error_message(cat, variant);
                let got = table.classify(&msg);
                assert_eq!(got, Some(cat), "message {msg:?} classified as {got:?}");
            }
        }
    }

    #[test]
    fn table_discards_noise_corpus() {
        let table = PatternTable::curated();
        for variant in 0..200 {
            let (_tag, msg) = templates::noise_message(variant);
            assert_eq!(table.classify(&msg), None, "noise matched: {msg:?}");
        }
    }

    #[test]
    fn filter_routes_sources() {
        let mut logs = crate::input::LogCollection::new();
        logs.syslog.push(
            "2013-03-28 12:30:00 nid00004 kernel: Machine Check Exception: bank 2 status 0xdead"
                .into(),
        );
        logs.syslog
            .push("2013-03-28 12:30:01 nid00004 ntpd: time slew +0.001s".into());
        logs.hwerr
            .push("2013-03-28 12:30:02|c0-0c0s1n0|MEM_UE|FATAL|dimm=1".into());
        logs.netwatch
            .push("2013-03-28 12:30:03 netwatch LINK_FAILED coord=(1,2,3) dim=X".into());
        let sources = crate::parse::collection_lines(&logs);
        let cols = crate::parse::parse_columns_threads(&sources, 1);
        let (entries, stats) = filter_columns(&cols, &PatternTable::curated(), 1);
        assert_eq!(entries.len(), 3);
        assert_eq!(stats.syslog_examined, 2);
        assert_eq!(stats.syslog_kept, 1);
        assert_eq!(stats.structured_kept, 2);
        assert!((stats.syslog_discard_ratio() - 0.5).abs() < 1e-12);
        // Entries are time-sorted.
        assert!(entries.windows(2).all(|w| w[0].timestamp <= w[1].timestamp));
        // hwerr location resolved to a nid: c0-0c0s1n0 = blade 1 node 0 = nid 4.
        assert_eq!(entries[1].node, Some(NodeId::new(4)));
        assert_eq!(entries[2].node, None);
    }

    #[test]
    fn first_match_wins_is_stable() {
        let table = PatternTable::curated();
        // A message with both MCE and panic fragments hits the earlier rule.
        let msg = "Machine Check Exception: then Kernel panic followed";
        assert_eq!(
            table.classify(msg),
            Some(ErrorCategory::MachineCheckException)
        );
    }

    #[test]
    fn empty_message_discards() {
        let table = PatternTable::curated();
        assert_eq!(table.classify(""), None);
        assert!(!table.is_empty());
        assert!(table.len() > 20);
    }

    /// Locks the verified rule ordering: the specific phrasing precedes the
    /// generic one wherever the rule-set verifier found an overlap, and the
    /// waiver list records exactly the pairs the verifier flags. Reordering
    /// the table invalidates the verification — this test makes that a
    /// loud failure instead of a silent semantics change.
    #[test]
    fn curated_ordering_intent_is_locked() {
        let table = PatternTable::curated();
        let pos = |first_fragment: &str, cat: ErrorCategory| {
            table
                .rules()
                .iter()
                .position(|p| p.fragments()[0] == first_fragment && p.category() == cat)
                .unwrap_or_else(|| panic!("rule {first_fragment:?} missing"))
        };
        use ErrorCategory::*;
        // Specific-before-generic within the interconnect rules.
        assert!(
            pos("LCB lane shutdown", GeminiLinkFailure) < pos("link failed", GeminiLinkFailure)
        );
        // Uncorrectable before correctable for EDAC rows.
        assert!(pos("EDAC", MemoryUncorrectable) < pos("EDAC", MemoryCorrectable));
        // Host-memory ECC before GPU ECC (shared word `error`).
        assert!(
            pos("DRAM ECC error", MemoryUncorrectable)
                < pos("Double Bit ECC Error", GpuDoubleBitError)
        );
        // Node-death signals before generic hang/unresponsive phrasings.
        assert!(
            pos("declaring node dead", NodeHeartbeatFault) < pos("node unresponsive", NodeHang)
        );
        assert!(
            pos("L0 controller unresponsive", BladeControllerFailure)
                < pos("node unresponsive", NodeHang)
        );
        // Heartbeat loss before voltage fault (shared word `fault`).
        assert!(pos("heartbeat fault", NodeHeartbeatFault) < pos("VRM fault", VoltageFault));
        // `failed` chain: interconnect > filesystem > launcher.
        assert!(pos("link failed", GeminiLinkFailure) < pos("failed over", LustreOstFailure));
        assert!(pos("failed over", LustreOstFailure) < pos("placement failed", AlpsLaunchFailure));
        // Every waiver names rules that exist, earlier-first.
        for w in table.waivers() {
            let earlier = table
                .rules()
                .iter()
                .position(|p| p.fragments()[0] == w.earlier);
            let later = table
                .rules()
                .iter()
                .rposition(|p| p.fragments()[0] == w.later);
            let (Some(e), Some(l)) = (earlier, later) else {
                panic!(
                    "waiver ({:?}, {:?}) names a missing rule",
                    w.earlier, w.later
                );
            };
            assert!(
                e < l,
                "waiver ({:?}, {:?}) is not earlier-first",
                w.earlier,
                w.later
            );
            assert!(!w.reason.trim().is_empty(), "waiver reasons are required");
        }
    }

    /// The naive scan the screens must never disagree with.
    fn classify_unscreened(table: &PatternTable, message: &str) -> Option<(usize, ErrorCategory)> {
        table
            .rules()
            .iter()
            .position(|p| p.fragments().iter().all(|f| message.contains(f)))
            .map(|i| (i, table.rules()[i].category()))
    }

    #[test]
    fn screens_never_change_classification() {
        let table = PatternTable::curated();
        let mut corpus: Vec<String> = Vec::new();
        for cat in ErrorCategory::ALL {
            for variant in 0..16 {
                corpus.push(templates::error_message(cat, variant));
            }
        }
        for variant in 0..200 {
            corpus.push(templates::noise_message(variant).1);
        }
        // Truncations exercise the min-len screen; they must degrade to
        // whatever the naive scan says, never to a different rule.
        corpus.push("Machine Check Exceptio".into());
        corpus.push("".into());
        for msg in &corpus {
            assert_eq!(
                table.classify_index(msg),
                classify_unscreened(&table, msg),
                "screen diverged on {msg:?}"
            );
        }
    }

    proptest::proptest! {
        /// Arbitrary (including non-ASCII) messages: the screened byte
        /// path and the naive `str::contains` scan always agree.
        #[test]
        fn classify_bytes_matches_str_contains(msg in ".{0,120}") {
            let table = PatternTable::curated();
            proptest::prop_assert_eq!(
                table.classify_index_bytes(msg.as_bytes()),
                classify_unscreened(&table, &msg)
            );
        }
    }

    #[test]
    fn filter_columns_matches_record_filter() {
        let mut logs = crate::input::LogCollection::new();
        // Enough volume that threads=4 takes the parallel chunked path.
        for i in 0..2500u32 {
            logs.syslog.push(format!(
                "2013-03-28 12:30:{:02} nid{:05} kernel: Machine Check Exception: bank {i}",
                i % 60,
                i % 8
            ));
            logs.syslog.push(format!(
                "2013-03-28 12:31:{:02} nid{:05} ntpd: time slew +0.00{i}s",
                i % 60,
                i % 8
            ));
        }
        logs.syslog
            .push("2013-03-28 12:30:00 smw xtnmd: heartbeat fault on c0-0c1s2n3".into());
        logs.hwerr
            .push("2013-03-28 12:30:02|c0-0c0s1n0|MEM_UE|FATAL|dimm=1".into());
        logs.netwatch
            .push("2013-03-28 12:30:03 netwatch LINK_FAILED coord=(1,2,3) dim=X".into());

        let table = PatternTable::curated();
        let (want_entries, want_stats) =
            crate::oracle::filter(&crate::oracle::parse(&logs), &table);

        let sources = crate::parse::collection_lines(&logs);
        let cols = crate::parse::parse_columns_threads(&sources, 1);
        for threads in [1, 4] {
            let (entries, stats) = filter_columns(&cols, &table, threads);
            assert_eq!(entries, want_entries, "threads={threads}");
            assert_eq!(stats, want_stats, "threads={threads}");
        }
    }
}
