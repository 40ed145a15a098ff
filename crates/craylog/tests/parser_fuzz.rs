//! Fuzz-style property tests: no parser may panic on arbitrary input, and
//! every parser must reject what the others emit (format confusion is an
//! error, not a misparse).
//!
//! The `differential_*` properties pin the zero-copy byte parsers against
//! the retired allocating parsers (frozen in `craylog::reference`): same
//! accept/reject decision and byte-identical records on every input,
//! including corrupt and lossy-UTF-8 corpora. The reference nodelist
//! parser still builds a dense `NodeSet`; its result is compared through
//! `RangeSet::from`, the canonical ranges of the same nids.

use craylog::alps::AlpsRecord;
use craylog::hwerr::HwErrRecord;
use craylog::netwatch::NetwatchRecord;
mod reference;
use craylog::syslog::SyslogRecord;
use craylog::torque::TorqueRecord;
use logdiver_types::RangeSet;
use proptest::prelude::*;

/// Asserts the live parser and the frozen reference parser agree on `line`:
/// identical records on accept, reject on both sides otherwise.
fn assert_parsers_agree(line: &str) {
    match (SyslogRecord::parse(line), reference::parse_syslog(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "syslog records differ on {line:?}"),
        (new, old) => assert_eq!(new.is_ok(), old.is_ok(), "syslog decision on {line:?}"),
    }
    match (HwErrRecord::parse(line), reference::parse_hwerr(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "hwerr records differ on {line:?}"),
        (new, old) => assert_eq!(new.is_ok(), old.is_ok(), "hwerr decision on {line:?}"),
    }
    match (AlpsRecord::parse(line), reference::parse_alps(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "alps records differ on {line:?}"),
        (new, old) => assert_eq!(new.is_ok(), old.is_ok(), "alps decision on {line:?}"),
    }
    match (TorqueRecord::parse(line), reference::parse_torque(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "torque records differ on {line:?}"),
        (new, old) => assert_eq!(new.is_ok(), old.is_ok(), "torque decision on {line:?}"),
    }
    match (NetwatchRecord::parse(line), reference::parse_netwatch(line)) {
        (Ok(new), Ok(old)) => assert_eq!(new, old, "netwatch records differ on {line:?}"),
        (new, old) => assert_eq!(new.is_ok(), old.is_ok(), "netwatch decision on {line:?}"),
    }
    match (
        craylog::parse_nodelist(line),
        reference::parse_nodelist(line),
    ) {
        (Ok(new), Ok(old)) => assert_eq!(
            new,
            RangeSet::from(&old),
            "nodelist sets differ on {line:?}"
        ),
        (new, old) => assert_eq!(new.is_ok(), old.is_ok(), "nodelist decision on {line:?}"),
    }
}

/// One comma-separated part of a nodelist, picked by `kind`: mostly
/// singletons and ranges over a small nid space, so unsorted,
/// overlapping, duplicate and adjacent parts are common; now and then an
/// inverted range or a malformed part. Nids stay small because the
/// reference parser allocates a bit per nid up to the largest.
fn nodelist_part((kind, a, w, pick): (u32, u32, u32, usize)) -> String {
    const MALFORMED: [&str; 8] = [
        "",
        "0-1000001",
        "4294967296",
        "-3",
        "3-",
        "1-2-3",
        " 4",
        "x",
    ];
    match kind {
        0..=16 => a.to_string(),
        17..=33 => format!("{a}-{}", a + w),
        34..=36 => format!("{}-{a}", a + w + 1),
        _ => MALFORMED[pick].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn no_parser_panics_on_arbitrary_bytes(line in "\\PC*") {
        let _ = SyslogRecord::parse(&line);
        let _ = HwErrRecord::parse(&line);
        let _ = AlpsRecord::parse(&line);
        let _ = TorqueRecord::parse(&line);
        let _ = NetwatchRecord::parse(&line);
        let _ = craylog::parse_nodelist(&line);
    }

    #[test]
    fn no_parser_panics_on_almost_valid_lines(
        prefix in "2013-03-28 12:30:0[0-9]",
        middle in "[ -~]{0,60}",
    ) {
        let line = format!("{prefix} {middle}");
        let _ = SyslogRecord::parse(&line);
        let _ = HwErrRecord::parse(&line);
        let _ = AlpsRecord::parse(&line);
        let _ = TorqueRecord::parse(&line);
        let _ = NetwatchRecord::parse(&line);
    }

    /// What a tailer hands the parsers after a torn write: the line was cut
    /// at an arbitrary *byte* (possibly mid-UTF-8-sequence) and decoded
    /// lossily, so the parser sees replacement characters, not invalid
    /// bytes. No parser may panic, and every such fragment must parse or be
    /// cleanly rejected (→ quarantine), never produce a misparse of the
    /// wrong source.
    #[test]
    fn lossy_utf8_truncation_never_panics(cut in 1usize..120, which in 0usize..4) {
        let lines = [
            // Multibyte payloads in every position a field can hold them.
            "2013-03-28 12:30:00 nid04008 sshd: Accepted publickey for Çelik·α from 10.0.0.1",
            "2013-03-28 12:30:00|c12-3c1s5n2|MEM_UE|FATAL|dimm=3 note=κρίσιμο",
            "2013-03-28 12:30:00 apsys PLACED apid=1 batch=2.bw user=u0001 cmd=Ünïcode type=XE width=1 nodelist=nid[0]",
            "2013-03-28 12:30:00 netwatch LINK_FAILED coord=(1,2,3) dim=X läne=ü",
        ];
        let full = lines[which].as_bytes();
        let cut = cut.min(full.len());
        let line = String::from_utf8_lossy(&full[..cut]);
        let _ = SyslogRecord::parse(&line);
        let _ = HwErrRecord::parse(&line);
        let _ = AlpsRecord::parse(&line);
        let _ = TorqueRecord::parse(&line);
        let _ = NetwatchRecord::parse(&line);
    }

    #[test]
    fn truncation_never_panics(cut in 0usize..80) {
        let lines = [
            "2013-03-28 12:30:00 nid04008 kernel: Machine Check Exception: bank 4",
            "2013-03-28 12:30:00|c12-3c1s5n2|MEM_UE|FATAL|dimm=3",
            "2013-03-28 12:30:00 apsys PLACED apid=1 batch=2.bw user=u0001 cmd=x type=XE width=1 nodelist=nid[0]",
            "2013-03-28 12:00:00;E;1.bw;user=u0001 queue=q nodes=1 walltime=1 start=0 end=1 exit_status=0",
            "2013-03-28 12:30:00 netwatch LINK_FAILED coord=(1,2,3) dim=X",
        ];
        for full in lines {
            let cut = cut.min(full.len());
            let line = &full[..cut];
            let _ = SyslogRecord::parse(line);
            let _ = HwErrRecord::parse(line);
            let _ = AlpsRecord::parse(line);
            let _ = TorqueRecord::parse(line);
            let _ = NetwatchRecord::parse(line);
        }
    }

    /// Differential: the range-building nodelist parser against the frozen
    /// dense one, on lists in any order with overlapping, duplicate and
    /// adjacent parts: the same nids on accept, and the same decision and
    /// reason otherwise.
    #[test]
    fn differential_nodelists(
        parts in proptest::collection::vec((0u32..38, 0u32..300, 0u32..40, 0usize..8), 0..12),
    ) {
        let parts: Vec<String> = parts.into_iter().map(nodelist_part).collect();
        let line = format!("nid[{}]", parts.join(","));
        match (craylog::parse_nodelist(&line), reference::parse_nodelist(&line)) {
            (Ok(new), Ok(old)) => {
                prop_assert_eq!(new.len(), old.len() as u64);
                prop_assert_eq!(new.to_string(), old.to_string());
                prop_assert_eq!(new, RangeSet::from(&old));
            }
            (Err(new), Err(old)) => prop_assert_eq!(new.reason(), old.reason()),
            (new, old) => prop_assert!(false, "{line:?}: new {new:?}, reference {old:?}"),
        }
    }

    /// Differential: arbitrary (printable-and-beyond) unicode input.
    #[test]
    fn differential_arbitrary_input(line in "\\PC{0,120}") {
        assert_parsers_agree(&line);
    }

    /// Differential: lines that exercise real field grammar — timestamps,
    /// `key=value` runs, separators — where a boundary disagreement between
    /// the byte scanners and the `str` idioms would actually show up.
    #[test]
    fn differential_almost_valid_lines(
        ts in "2013-03-2[0-9] 1[0-2]:[0-5][0-9]:[0-5][0-9]",
        body in "[a-z =.;|,()\\[\\]0-9-]{0,80}",
    ) {
        assert_parsers_agree(&format!("{ts}{body}"));
        assert_parsers_agree(&format!("{ts} {body}"));
    }

    /// Differential: valid emitted records mutated by a byte-level cut and
    /// lossy re-decode — the torn-write corpus. The old parsers saw exactly
    /// this shape (a tailer decodes lossily before handing over a &str), so
    /// the new byte parsers must agree on every replacement-character form.
    #[test]
    fn differential_lossy_utf8_corpus(cut in 1usize..120, which in 0usize..6) {
        let lines = [
            "2013-03-28 12:30:00 nid04008 sshd: Accepted publickey for Çelik·α from 10.0.0.1",
            "2013-03-28 12:30:00|c12-3c1s5n2|MEM_UE|FATAL|dimm=3 note=κρίσιμο",
            "2013-03-28 12:30:00 apsys PLACED apid=1 batch=2.bw user=u0001 cmd=Ünïcode type=XE width=1 nodelist=nid[0]",
            "2013-03-28 12:30:00 apsys LAUNCHERR apid=7 reason=échec du placement",
            "2013-03-28 12:00:00;E;1.bw;user=u0001 queue=qüeue nodes=1 walltime=1 start=0 end=1 exit_status=0",
            "2013-03-28 12:30:00 netwatch LINK_FAILED coord=(1,2,3) dim=X läne=ü",
        ];
        let full = lines[which].as_bytes();
        let cut = cut.min(full.len());
        let line = String::from_utf8_lossy(&full[..cut]);
        assert_parsers_agree(&line);
    }
}

/// Differential spot-checks on the exact canonical forms each source emits —
/// the happy path must produce byte-identical records, not merely agree on
/// accept/reject.
#[test]
fn differential_canonical_lines() {
    for line in [
        "2013-03-28 12:30:00 nid04008 kernel: Machine Check Exception: bank 4",
        "2013-03-28 12:30:00 smw xtnlrd: heartbeat sweep complete",
        "2013-03-28 12:30:00|c12-3c1s5n2|MEM_UE|FATAL|dimm=3 syndrome=0x9f",
        "2013-03-28 12:30:00|c0-0c0s0n0|MCE|CRIT|status=a|b",
        "2013-03-28 12:30:00 apsys PLACED apid=1000321 batch=98765.bw user=u0421 cmd=namd2 type=XE width=3 nodelist=nid[0-2]",
        "2013-03-28 16:30:00 apsys EXIT apid=1000321 code=0 signal=none node_failed=no runtime=14400",
        "2013-03-28 12:29:59 apsys LAUNCHERR apid=1000322 reason=placement timeout",
        "2013-03-28 12:00:00;S;98765.bw;user=u0421 queue=normal nodes=4096 walltime=86400",
        "2013-03-29 02:00:00;E;98765.bw;user=u0421 queue=normal nodes=4096 walltime=86400 start=1364472000 end=1364522400 exit_status=0",
        "2013-03-28 12:30:00 netwatch LINK_FAILED coord=(12,3,20) dim=X",
        "2013-03-28 12:30:05 netwatch LANE_DEGRADE coord=(4,0,9) dim=Z lanes=2",
        "2013-03-28 12:30:12 netwatch REROUTE_START affected=41472",
        "2013-03-28 12:31:02 netwatch REROUTE_DONE duration=50",
        // Loose-grammar timestamps the old parsers accepted via str::parse.
        "+2013-3-28 1:2:3 nid00001 kernel: loose form",
        "02013-03-28 12:30:00 nid00001 kernel: five digit year",
    ] {
        assert_parsers_agree(line);
    }
}

/// Empty trailing fragments — what a reader yields for the blank artifacts
/// of torn writes, double newlines, and truncated-to-nothing records. Every
/// parser must reject them (so the stream engine quarantines them) without
/// panicking.
#[test]
fn empty_and_blank_fragments_are_rejected() {
    for line in ["", " ", "\t", "   \t ", "\u{FFFD}", "\u{FFFD}\u{FFFD}"] {
        assert!(SyslogRecord::parse(line).is_err(), "syslog took {line:?}");
        assert!(HwErrRecord::parse(line).is_err(), "hwerr took {line:?}");
        assert!(AlpsRecord::parse(line).is_err(), "alps took {line:?}");
        assert!(TorqueRecord::parse(line).is_err(), "torque took {line:?}");
        assert!(
            NetwatchRecord::parse(line).is_err(),
            "netwatch took {line:?}"
        );
    }
}

/// A record whose timestamp itself was cut mid-digit — the most common torn
/// shape — must be rejected, not parsed with a garbage time.
#[test]
fn torn_timestamp_is_rejected() {
    for line in [
        "2013-03-28 12:3",
        "2013-03-28 12:30:0",
        "2013-03-2",
        "2013-03-28 ",
    ] {
        assert!(SyslogRecord::parse(line).is_err(), "syslog took {line:?}");
        assert!(AlpsRecord::parse(line).is_err(), "alps took {line:?}");
        assert!(
            NetwatchRecord::parse(line).is_err(),
            "netwatch took {line:?}"
        );
    }
}

#[test]
fn parsers_reject_each_others_formats() {
    let syslog = "2013-03-28 12:30:00 nid04008 kernel: hello world";
    let hwerr = "2013-03-28 12:30:00|c12-3c1s5n2|MEM_UE|FATAL|dimm=3";
    let alps = "2013-03-28 12:30:00 apsys EXIT apid=1 code=0 signal=none node_failed=no runtime=1";
    let torque = "2013-03-28 12:00:00;S;1.bw;user=u0001 queue=q nodes=1 walltime=1";
    let netwatch = "2013-03-28 12:30:00 netwatch REROUTE_DONE duration=50";

    assert!(HwErrRecord::parse(syslog).is_err());
    assert!(TorqueRecord::parse(syslog).is_err());
    assert!(NetwatchRecord::parse(syslog).is_err());
    assert!(AlpsRecord::parse(syslog).is_err());

    assert!(SyslogRecord::parse(hwerr).is_err());
    assert!(AlpsRecord::parse(hwerr).is_err());
    assert!(TorqueRecord::parse(hwerr).is_err());

    assert!(HwErrRecord::parse(alps).is_err());
    assert!(TorqueRecord::parse(alps).is_err());
    assert!(NetwatchRecord::parse(alps).is_err());

    assert!(AlpsRecord::parse(torque).is_err());
    assert!(NetwatchRecord::parse(torque).is_err());

    assert!(AlpsRecord::parse(netwatch).is_err());
    assert!(HwErrRecord::parse(netwatch).is_err());
}
