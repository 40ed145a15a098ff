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
//! Classification runs on **raw message bytes**. `PatternTable::build`
//! compiles the table's distinct fragments once into a dense
//! Aho–Corasick DFA; one left-to-right pass over a message walks it, one
//! table load per byte, and collects the set of fragments that occur.
//! Rule *i* fires when its fragment set is a subset of that found set, and
//! the lowest firing *i* wins — exactly first-match-wins over
//! [`Pattern::matches`], which stays the per-rule definition the automaton
//! is tested against. Byte and `&str` matching agree: `str::contains` is
//! byte substring search, and because UTF-8 is self-synchronizing a
//! byte-level match of a valid UTF-8 needle always lands on a character
//! boundary. This is what lets [`filter_columns`] classify borrowed arena
//! slices **before** any record materializes: a discarded line (the
//! overwhelming majority) never allocates, and a kept line only resolves
//! its host to a [`NodeId`].
//!
//! The DFA maps bytes to classes (every byte that occurs in no fragment
//! shares one class), stores premultiplied state ids so a step is
//! `trans[state + class]`, and numbers the states where some fragment
//! ends last, so "did a fragment just end?" is one compare and the found
//! set is touched only then. The compiled automaton sits behind an
//! [`Arc`], so cloning a table (once per stream engine, serve tenant and
//! parse worker) shares it instead of copying it.

use std::sync::Arc;

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

    /// True when every fragment occurs in `message` — the definition of
    /// a rule match, which the compiled automaton reproduces.
    pub fn matches(&self, message: &str) -> bool {
        self.fragments.iter().all(|f| message.contains(f))
    }
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
    automaton: Arc<Automaton>,
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

    /// The one place the automaton is compiled, so every constructor
    /// agrees.
    fn build(patterns: Vec<Pattern>, waivers: Vec<OverlapWaiver>) -> Self {
        let automaton = Arc::new(Automaton::compile(&patterns));
        PatternTable {
            patterns,
            waivers,
            automaton,
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

    /// Byte-level [`PatternTable::classify_index`]: one automaton pass
    /// over the message collects the fragments that occur, then the lowest
    /// rule whose fragments all occurred wins.
    pub fn classify_index_bytes(&self, message: &[u8]) -> Option<(usize, ErrorCategory)> {
        let i = self.automaton.first_match(message)?;
        self.patterns.get(i).map(|p| (i, p.category))
    }
}

/// The distinct fragments of a table compiled into one dense
/// Aho–Corasick DFA, plus each rule's fragment set.
///
/// States are rows of `stride` transitions, one per byte class; a state id
/// is its row index times `stride`, so a step is one load. Row 0 is the
/// root, and the rows whose found set is non-empty — where some fragment
/// ends, directly or through a failure link — come last, from
/// `first_output` on. State ids are `u32`: a table would need over 16 M
/// fragment bytes (a 16 GiB transition table) to overflow them.
struct Automaton {
    /// Byte value → byte class. All bytes in no fragment share one class.
    classes: [u8; 256],
    /// Byte classes, i.e. transitions per state.
    stride: usize,
    /// Row-major transitions holding premultiplied state ids.
    trans: Vec<u32>,
    /// The first output state's id; every id at or past it is one.
    first_output: u32,
    /// `u64` words per fragment set (bit `f % 64` of word `f / 64` is
    /// fragment `f`); at least 1.
    words: usize,
    /// The found set of each output state, in state order.
    outputs: Vec<u64>,
    /// Each rule's fragment set, in rule order. Empty fragments are
    /// left out: they occur in every message.
    rule_sets: Vec<u64>,
    /// The first rule with an empty fragment set, which fires on any
    /// message — the answer when no fragment occurs.
    unconditional: Option<usize>,
}

impl std::fmt::Debug for Automaton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Automaton")
            .field("states", &(self.trans.len() / self.stride))
            .field("classes", &self.stride)
            .field("words", &self.words)
            .finish_non_exhaustive()
    }
}

impl Automaton {
    fn compile(patterns: &[Pattern]) -> Self {
        // Distinct non-empty fragments, numbered by first appearance.
        let mut fragments: Vec<&[u8]> = Vec::new();
        let mut rule_ids: Vec<Vec<usize>> = Vec::with_capacity(patterns.len());
        for p in patterns {
            let mut ids = Vec::with_capacity(p.fragments.len());
            for f in p.fragments.iter().map(|f| f.as_bytes()) {
                if f.is_empty() {
                    continue;
                }
                let id = match fragments.iter().position(|&g| g == f) {
                    Some(id) => id,
                    None => {
                        fragments.push(f);
                        fragments.len() - 1
                    }
                };
                ids.push(id);
            }
            rule_ids.push(ids);
        }
        let words = fragments.len().div_ceil(64).max(1);
        let set_of = |ids: &[usize]| {
            let mut set = vec![0u64; words];
            for &id in ids {
                set[id / 64] |= 1 << (id % 64);
            }
            set
        };
        let rule_sets: Vec<u64> = rule_ids.iter().flat_map(|ids| set_of(ids)).collect();
        let unconditional = rule_ids.iter().position(|ids| ids.is_empty());

        // Byte classes: each byte some fragment uses gets its own class,
        // every other byte the one class after them. Fragments are UTF-8,
        // so at most 243 byte values occur and that class always exists.
        let mut used = [false; 256];
        for &b in fragments.iter().flat_map(|f| f.iter()) {
            used[usize::from(b)] = true;
        }
        let distinct = used.iter().filter(|&&u| u).count();
        let mut classes = [distinct as u8; 256];
        for (class, b) in (0..256).filter(|&b| used[b]).enumerate() {
            classes[b] = class as u8;
        }
        let stride = distinct + 1;

        // The trie, one dense row per state; `NONE` marks a missing edge.
        const NONE: usize = usize::MAX;
        let mut trie: Vec<usize> = vec![NONE; stride];
        let mut found: Vec<u64> = vec![0; words];
        for (id, f) in fragments.iter().enumerate() {
            let mut state = 0;
            for &b in f.iter() {
                let edge = state * stride + usize::from(classes[usize::from(b)]);
                if trie[edge] == NONE {
                    trie[edge] = trie.len() / stride;
                    trie.resize(trie.len() + stride, NONE);
                    found.resize(found.len() + words, 0);
                }
                state = trie[edge];
            }
            found[state * words + id / 64] |= 1 << (id % 64);
        }
        let states = trie.len() / stride;

        // Breadth-first: fill every missing edge from the failure state's
        // row (already complete, being shallower) and inherit its found set.
        let mut dfa = trie.clone();
        let mut fail = vec![0usize; states];
        let mut order = Vec::with_capacity(states);
        let mut queue = std::collections::VecDeque::new();
        for c in 0..stride {
            match trie[c] {
                NONE => dfa[c] = 0,
                child => queue.push_back(child),
            }
        }
        order.push(0);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for w in 0..words {
                found[u * words + w] |= found[fail[u] * words + w];
            }
            for c in 0..stride {
                let via_fail = dfa[fail[u] * stride + c];
                match trie[u * stride + c] {
                    NONE => dfa[u * stride + c] = via_fail,
                    child => {
                        fail[child] = via_fail;
                        queue.push_back(child);
                    }
                }
            }
        }

        // Renumber: states that find nothing first (root at 0), output
        // states last, breadth-first within each group.
        let is_output = |u: usize| found[u * words..(u + 1) * words].iter().any(|&w| w != 0);
        let (quiet, loud): (Vec<usize>, Vec<usize>) =
            order.into_iter().partition(|&u| !is_output(u));
        let mut row = vec![0usize; states];
        for (new, &old) in quiet.iter().chain(&loud).enumerate() {
            row[old] = new;
        }
        let mut trans = vec![0u32; states * stride];
        let mut outputs = Vec::with_capacity(loud.len() * words);
        for &old in quiet.iter().chain(&loud) {
            let base = row[old] * stride;
            for c in 0..stride {
                trans[base + c] = (row[dfa[old * stride + c]] * stride) as u32;
            }
        }
        for &old in &loud {
            outputs.extend_from_slice(&found[old * words..(old + 1) * words]);
        }
        Automaton {
            classes,
            stride,
            trans,
            first_output: (quiet.len() * stride) as u32,
            words,
            outputs,
            rule_sets,
            unconditional,
        }
    }

    /// The lowest rule whose fragments all occur in `message`.
    #[inline]
    fn first_match(&self, message: &[u8]) -> Option<usize> {
        if self.words == 1 {
            let mut found = [0u64; 1];
            self.scan(message, &mut found);
            self.resolve(&found)
        } else {
            let mut found = vec![0u64; self.words];
            self.scan(message, &mut found);
            self.resolve(&found)
        }
    }

    /// ORs into `found` every fragment that occurs in `message`.
    #[inline]
    fn scan(&self, message: &[u8], found: &mut [u64]) {
        let mut state = 0u32;
        for &b in message {
            state = self.trans[state as usize + usize::from(self.classes[usize::from(b)])];
            if state >= self.first_output {
                let at = (state - self.first_output) as usize / self.stride * self.words;
                for (f, o) in found.iter_mut().zip(&self.outputs[at..at + self.words]) {
                    *f |= o;
                }
            }
        }
    }

    /// First-match-wins over the rules' fragment sets.
    #[inline]
    fn resolve(&self, found: &[u64]) -> Option<usize> {
        if found.iter().all(|&w| w == 0) {
            return self.unconditional;
        }
        self.rule_sets
            .chunks_exact(self.words)
            .position(|need| need.iter().zip(found).all(|(n, f)| n & !f == 0))
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
/// keep** — a discarded line costs one automaton pass over its message,
/// nothing more.
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

    /// The naive first-match-wins scan the automaton must reproduce.
    fn classify_naive(table: &PatternTable, message: &str) -> Option<(usize, ErrorCategory)> {
        table
            .rules()
            .iter()
            .position(|p| p.matches(message))
            .map(|i| (i, table.rules()[i].category()))
    }

    /// The naive scan over raw bytes, for messages that are not UTF-8.
    fn classify_naive_bytes(
        table: &PatternTable,
        message: &[u8],
    ) -> Option<(usize, ErrorCategory)> {
        let occurs = |f: &str| f.is_empty() || message.windows(f.len()).any(|w| w == f.as_bytes());
        table
            .rules()
            .iter()
            .position(|p| p.fragments().iter().all(|f| occurs(f)))
            .map(|i| (i, table.rules()[i].category()))
    }

    #[test]
    fn automaton_agrees_with_naive_scan_on_the_corpus() {
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
        corpus.push("Machine Check Exceptio".into());
        corpus.push("".into());
        for msg in &corpus {
            assert_eq!(
                table.classify_index(msg),
                classify_naive(&table, msg),
                "automaton diverged on {msg:?}"
            );
        }
    }

    #[test]
    fn clones_share_the_automaton() {
        let table = PatternTable::curated();
        let copy = table.clone();
        assert!(Arc::ptr_eq(&table.automaton, &copy.automaton));
        assert_eq!(Arc::strong_count(&table.automaton), 2);
    }

    #[test]
    fn degenerate_tables_follow_the_definition() {
        let empty = PatternTable::from_rules(Vec::new());
        assert_eq!(empty.classify_index_bytes(b"anything"), None);
        // An empty fragment occurs everywhere, so its rule fires on any
        // message — but only where no earlier rule does.
        let table = PatternTable::from_rules(vec![
            Pattern::new(&["fault", "VRM"], ErrorCategory::VoltageFault),
            Pattern::new(&[""], ErrorCategory::MaintenanceNotice),
            Pattern::new(&["fault"], ErrorCategory::NodeHeartbeatFault),
        ]);
        for msg in ["", "fault", "VRM fault", "x"] {
            assert_eq!(
                table.classify_index(msg),
                classify_naive(&table, msg),
                "{msg:?}"
            );
        }
        // One fragment holding every byte value UTF-8 can hold: the
        // most byte classes any table can have.
        let mut seen = [false; 256];
        let mut all = String::new();
        for c in (0..=0x10ffff).filter_map(char::from_u32) {
            let mut buf = [0; 4];
            let bytes = c.encode_utf8(&mut buf).as_bytes();
            if bytes.iter().any(|&b| !seen[usize::from(b)]) {
                bytes.iter().for_each(|&b| seen[usize::from(b)] = true);
                all.push(c);
            }
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 243);
        let all: &'static str = Box::leak(all.into_boxed_str());
        let frags: &'static [&'static str] = Box::leak(vec![all].into_boxed_slice());
        let table = PatternTable::from_rules(vec![Pattern::new(frags, ErrorCategory::KernelPanic)]);
        assert_eq!(
            table.classify_index(all),
            Some((0, ErrorCategory::KernelPanic))
        );
        assert_eq!(table.classify_index(&all[1..]), None);
    }

    /// Fragments that overlap every way Aho–Corasick can get wrong: shared
    /// prefixes and suffixes, one inside another, repeats, multi-byte
    /// UTF-8.
    const FRAGMENT_POOL: &[&str] = &[
        "fault",
        "heartbeat fault",
        "heartbeat",
        "beat",
        "VRM fault",
        "fault on",
        "link failed",
        "link",
        "failed over",
        "failed",
        "placement failed",
        "lane",
        "lanes up",
        "LCB lane shutdown",
        "ECC",
        "DRAM ECC error",
        "Double Bit ECC Error",
        "error",
        "ror",
        "EDAC",
        "UE row",
        "CE row",
        "row",
        "aaa",
        "aa",
        "abab",
        "bab",
        "n\u{e9}ud mort",
        "\u{e9}",
    ];

    /// A pool of at least 70 distinct fragments, sharing prefixes
    /// (`frag`) and suffixes (`0`…`9`), so a found set spans two words.
    fn wide_pool() -> Vec<&'static str> {
        let mut pool = FRAGMENT_POOL.to_vec();
        for i in 0..48 {
            let f = format!("frag{}{}", ["", "x", "yx"][i % 3], i);
            pool.push(Box::leak(f.into_boxed_str()));
        }
        pool
    }

    /// Rules of 1–3 fragments drawn (with repeats) from `pool`.
    fn table_from(pool: &[&'static str], picks: &[(Vec<usize>, usize)]) -> PatternTable {
        let rules = picks
            .iter()
            .map(|(frags, cat)| {
                let frags: Vec<&'static str> =
                    frags.iter().map(|&i| pool[i % pool.len()]).collect();
                let frags: &'static [&'static str] = Box::leak(frags.into_boxed_slice());
                Pattern::new(frags, ErrorCategory::ALL[cat % ErrorCategory::ALL.len()])
            })
            .collect();
        PatternTable::from_rules(rules)
    }

    /// A message: arbitrary bytes with pool fragments spliced in whole,
    /// cut short, or with their first byte dropped.
    fn message_from(pool: &[&'static str], pieces: &[(u8, usize, Vec<u8>)]) -> Vec<u8> {
        let mut msg = Vec::new();
        for (kind, pick, noise) in pieces {
            let f = pool[pick % pool.len()].as_bytes();
            match kind % 4 {
                0 => msg.extend_from_slice(f),
                1 => msg.extend_from_slice(&f[..f.len() - 1]),
                2 => msg.extend_from_slice(&f[1..]),
                _ => {}
            }
            msg.extend_from_slice(noise);
        }
        msg
    }

    fn rules_strategy() -> impl proptest::strategy::Strategy<Value = Vec<(Vec<usize>, usize)>> {
        use proptest::prelude::*;
        proptest::collection::vec(
            (
                proptest::collection::vec(any::<usize>(), 1..4),
                any::<usize>(),
            ),
            1..40,
        )
    }

    fn pieces_strategy() -> impl proptest::strategy::Strategy<Value = Vec<(u8, usize, Vec<u8>)>> {
        use proptest::prelude::*;
        proptest::collection::vec(
            (
                any::<u8>(),
                any::<usize>(),
                proptest::collection::vec(any::<u8>(), 0..6),
            ),
            0..8,
        )
    }

    proptest::proptest! {
        /// Arbitrary (including non-ASCII) messages: the byte path
        /// and the naive `str::contains` scan always agree.
        #[test]
        fn classify_bytes_matches_str_contains(msg in ".{0,120}") {
            let table = PatternTable::curated();
            proptest::prop_assert_eq!(
                table.classify_index_bytes(msg.as_bytes()),
                classify_naive(&table, &msg)
            );
        }

        /// Random tables over overlapping fragments, arbitrary-byte
        /// messages: the automaton picks the same rule as the naive scan.
        #[test]
        fn automaton_agrees_with_naive_scan(
            rules in rules_strategy(),
            messages in proptest::collection::vec(pieces_strategy(), 1..8),
        ) {
            let table = table_from(FRAGMENT_POOL, &rules);
            for pieces in &messages {
                let msg = message_from(FRAGMENT_POOL, pieces);
                proptest::prop_assert_eq!(
                    table.classify_index_bytes(&msg),
                    classify_naive_bytes(&table, &msg)
                );
            }
        }

        /// The same over a table with more than 64 distinct fragments,
        /// whose found set spills into a second word.
        #[test]
        fn automaton_agrees_with_naive_scan_past_one_word(
            rules in rules_strategy(),
            messages in proptest::collection::vec(pieces_strategy(), 1..8),
        ) {
            let pool = wide_pool();
            // Every pool fragment in some rule, then the random rules.
            let mut picks: Vec<(Vec<usize>, usize)> = (0..pool.len()).map(|i| (vec![i], i)).collect();
            picks.extend(rules);
            picks.rotate_left(pool.len() / 2);
            let table = table_from(&pool, &picks);
            proptest::prop_assert!(table.automaton.words >= 2);
            for pieces in &messages {
                let msg = message_from(&pool, pieces);
                proptest::prop_assert_eq!(
                    table.classify_index_bytes(&msg),
                    classify_naive_bytes(&table, &msg)
                );
            }
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
