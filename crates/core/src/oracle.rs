//! Test-only reference for stages 1–2: craylog's owned `*Record::parse`
//! and a naive first-match-wins scan of
//! [`Pattern::matches`](crate::filter::Pattern::matches), one serial
//! loop per source. The columnar path's unit tests compare against it
//! field for field; the byte parsers, the compiled pattern automaton and
//! the chunked merges are all on the other side of the comparison.

use craylog::alps::AlpsRecord;
use craylog::hwerr::HwErrRecord;
use craylog::netwatch::NetwatchRecord;
use craylog::syslog::SyslogRecord;
use craylog::torque::TorqueRecord;

use crate::filter::{
    entry_from_netwatch, entry_sort_key, EntrySource, FilterStats, FilteredEntry, PatternTable,
};
use crate::input::LogCollection;
use crate::parse::ParseCounts;

/// Owned records per source, with the stage-1 accounting.
pub(crate) struct Records {
    pub syslog: Vec<SyslogRecord>,
    pub hwerr: Vec<HwErrRecord>,
    pub alps: Vec<AlpsRecord>,
    pub torque: Vec<TorqueRecord>,
    pub netwatch: Vec<NetwatchRecord>,
    pub counts: [ParseCounts; 5],
}

fn parse_source<T>(lines: &[String], parse: impl Fn(&str) -> Option<T>) -> (Vec<T>, ParseCounts) {
    let mut counts = ParseCounts::default();
    let mut recs = Vec::new();
    for line in lines {
        counts.total += 1;
        let rec = if line.trim().is_empty() {
            None
        } else {
            parse(line)
        };
        match rec {
            Some(rec) => recs.push(rec),
            None => counts.bad += 1,
        }
    }
    (recs, counts)
}

pub(crate) fn parse(logs: &LogCollection) -> Records {
    let (syslog, c0) = parse_source(&logs.syslog, |l| SyslogRecord::parse(l).ok());
    let (hwerr, c1) = parse_source(&logs.hwerr, |l| HwErrRecord::parse(l).ok());
    let (alps, c2) = parse_source(&logs.alps, |l| AlpsRecord::parse(l).ok());
    let (torque, c3) = parse_source(&logs.torque, |l| TorqueRecord::parse(l).ok());
    let (netwatch, c4) = parse_source(&logs.netwatch, |l| NetwatchRecord::parse(l).ok());
    Records {
        syslog,
        hwerr,
        alps,
        torque,
        netwatch,
        counts: [c0, c1, c2, c3, c4],
    }
}

pub(crate) fn filter(recs: &Records, table: &PatternTable) -> (Vec<FilteredEntry>, FilterStats) {
    let mut entries = Vec::new();
    let mut stats = FilterStats::default();
    for rec in &recs.syslog {
        stats.syslog_examined += 1;
        let rule = table.rules().iter().find(|p| p.matches(&rec.message));
        if let Some(category) = rule.map(|p| p.category()) {
            stats.syslog_kept += 1;
            entries.push(FilteredEntry {
                timestamp: rec.timestamp,
                category,
                severity: category.severity(),
                node: rec.node(),
                source: EntrySource::Syslog,
            });
        }
    }
    for rec in &recs.hwerr {
        stats.structured_kept += 1;
        entries.push(FilteredEntry {
            timestamp: rec.timestamp,
            category: rec.category,
            severity: rec.severity,
            node: Some(rec.location.to_nid()),
            source: EntrySource::HwErr,
        });
    }
    for rec in &recs.netwatch {
        stats.structured_kept += 1;
        entries.push(entry_from_netwatch(rec));
    }
    entries.sort_by_key(entry_sort_key);
    (entries, stats)
}
