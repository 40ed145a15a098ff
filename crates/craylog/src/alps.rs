//! ALPS (Application Level Placement Scheduler) logs.
//!
//! The paper's unit of analysis is the *application run* — one `aprun`
//! launch inside a batch job, identified by its **apid**. The `apsys` log
//! records placement at launch and the exit status at teardown:
//!
//! ```text
//! 2013-03-28 12:30:00 apsys PLACED apid=1000321 batch=98765.bw user=u0421 cmd=namd2 type=XE width=4096 nodelist=nid[0-4095]
//! 2013-03-28 16:30:00 apsys EXIT apid=1000321 code=0 signal=none node_failed=no runtime=14400
//! 2013-03-28 12:29:59 apsys LAUNCHERR apid=1000322 reason=placement timeout
//! ```
//!
//! Parsing is byte-level ([`AlpsRecord::parse_bytes`]): fields are located
//! with [`crate::scan`] helpers and decoded from exact subslices; the only
//! per-record allocations are the ones the owning record itself demands
//! (the placed [`RangeSet`], one pair per nid range, and a LAUNCHERR
//! reason string).

use std::fmt;

use logdiver_types::{AppId, ExitStatus, JobId, NodeType, RangeSet, Sym, Timestamp, UserId};
use serde::{Deserialize, Serialize};

use crate::error::{CraylogError, CraylogFault};
use crate::nodelist::{format_nodelist, parse_nodelist_bytes};
use crate::scan::{field_value, parse_int, split_once_byte, split_once_seq};

/// Application placement record, written at launch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppPlacedRecord {
    /// Launch time.
    pub timestamp: Timestamp,
    /// Application id.
    pub apid: AppId,
    /// Enclosing batch job.
    pub job: JobId,
    /// Anonymized user.
    pub user: UserId,
    /// Executable name. Interned — the same few hundred executables account
    /// for millions of launches.
    pub command: Sym,
    /// Node class the application runs on.
    pub node_type: NodeType,
    /// Number of nodes (redundant with the nodelist; kept because the real
    /// log keeps it and it lets the parser cross-check).
    pub width: u32,
    /// Placed nodes, as the ranges the nodelist names.
    pub nodes: RangeSet,
}

/// Application exit record, written at teardown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppExitRecord {
    /// Teardown time.
    pub timestamp: Timestamp,
    /// Application id.
    pub apid: AppId,
    /// Exit status as the launcher saw it.
    pub exit: ExitStatus,
    /// Wall-clock runtime in seconds.
    pub runtime_secs: i64,
}

/// Launch-failure record: ALPS could not start the application at all.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppLaunchErrRecord {
    /// Failure time.
    pub timestamp: Timestamp,
    /// Application id that failed to launch.
    pub apid: AppId,
    /// Reason text.
    pub reason: String,
}

/// Any line of the `apsys` log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlpsRecord {
    /// Placement at launch.
    Placed(AppPlacedRecord),
    /// Exit at teardown.
    Exit(AppExitRecord),
    /// Launch failure.
    LaunchErr(AppLaunchErrRecord),
}

impl AlpsRecord {
    /// Timestamp of the record, whatever its kind.
    pub fn timestamp(&self) -> Timestamp {
        match self {
            AlpsRecord::Placed(r) => r.timestamp,
            AlpsRecord::Exit(r) => r.timestamp,
            AlpsRecord::LaunchErr(r) => r.timestamp,
        }
    }

    /// Apid of the record, whatever its kind.
    pub fn apid(&self) -> AppId {
        match self {
            AlpsRecord::Placed(r) => r.apid,
            AlpsRecord::Exit(r) => r.apid,
            AlpsRecord::LaunchErr(r) => r.apid,
        }
    }

    /// Parses one `apsys` line from raw bytes — the zero-copy path.
    ///
    /// # Errors
    ///
    /// Returns an allocation-free [`CraylogFault`] when the line is not a
    /// well-formed PLACED, EXIT or LAUNCHERR record.
    pub fn parse_bytes(line: &[u8]) -> Result<Self, CraylogFault> {
        let err = |reason: &'static str| CraylogFault::new("alps", reason);
        if line.len() < 20 {
            return Err(err("line shorter than a timestamp"));
        }
        let (ts, rest) = line.split_at(19);
        let timestamp = Timestamp::parse_bytes(ts).ok_or_else(|| err("bad timestamp"))?;
        let rest = rest
            .strip_prefix(b" apsys ")
            .ok_or_else(|| err("missing apsys tag"))?;
        let (verb, fields) = split_once_byte(rest, b' ').ok_or_else(|| err("missing verb"))?;

        // key=value fields; values never contain spaces except `reason`,
        // which is always last.
        let get = |key: &[u8]| field_value(fields, key);

        match verb {
            b"PLACED" => {
                let apid = AppId::new(
                    parse_int(get(b"apid").ok_or_else(|| err("missing apid"))?)
                        .ok_or_else(|| err("bad apid"))?,
                );
                let job_num = get(b"batch")
                    .ok_or_else(|| err("missing batch"))?
                    .strip_suffix(b".bw")
                    .and_then(parse_int)
                    .ok_or_else(|| err("bad batch id"))?;
                let user = UserId::new(
                    get(b"user")
                        .ok_or_else(|| err("missing user"))?
                        .strip_prefix(b"u")
                        .and_then(parse_int)
                        .ok_or_else(|| err("bad user"))?,
                );
                let command = Sym::resolve_bytes(get(b"cmd").ok_or_else(|| err("missing cmd"))?)
                    .ok_or_else(|| err("bad cmd"))?;
                let node_type = get(b"type")
                    .ok_or_else(|| err("missing type"))
                    .map(|t| std::str::from_utf8(t).ok().and_then(NodeType::parse_label))?
                    .ok_or_else(|| err("bad node type"))?;
                let width: u32 = parse_int(get(b"width").ok_or_else(|| err("missing width"))?)
                    .ok_or_else(|| err("bad width"))?;
                let nodes =
                    parse_nodelist_bytes(get(b"nodelist").ok_or_else(|| err("missing nodelist"))?)
                        .map_err(|f| CraylogFault::new("alps", f.reason()))?;
                if nodes.len() != u64::from(width) {
                    return Err(err("width disagrees with nodelist"));
                }
                Ok(AlpsRecord::Placed(AppPlacedRecord {
                    timestamp,
                    apid,
                    job: JobId::new(job_num),
                    user,
                    command,
                    node_type,
                    width,
                    nodes,
                }))
            }
            b"EXIT" => {
                let apid = AppId::new(
                    parse_int(get(b"apid").ok_or_else(|| err("missing apid"))?)
                        .ok_or_else(|| err("bad apid"))?,
                );
                let code: i32 = parse_int(get(b"code").ok_or_else(|| err("missing code"))?)
                    .ok_or_else(|| err("bad code"))?;
                let signal = match get(b"signal").ok_or_else(|| err("missing signal"))? {
                    b"none" => None,
                    s => Some(parse_int(s).ok_or_else(|| err("bad signal"))?),
                };
                let node_failed =
                    match get(b"node_failed").ok_or_else(|| err("missing node_failed"))? {
                        b"yes" => true,
                        b"no" => false,
                        _ => return Err(err("bad node_failed")),
                    };
                let runtime_secs: i64 =
                    parse_int(get(b"runtime").ok_or_else(|| err("missing runtime"))?)
                        .ok_or_else(|| err("bad runtime"))?;
                Ok(AlpsRecord::Exit(AppExitRecord {
                    timestamp,
                    apid,
                    exit: ExitStatus {
                        code,
                        signal,
                        node_failed,
                    },
                    runtime_secs,
                }))
            }
            b"LAUNCHERR" => {
                let apid = AppId::new(
                    parse_int(get(b"apid").ok_or_else(|| err("missing apid"))?)
                        .ok_or_else(|| err("bad apid"))?,
                );
                let (_, reason) =
                    split_once_seq(fields, b"reason=").ok_or_else(|| err("missing reason"))?;
                let reason = std::str::from_utf8(reason)
                    .map_err(|_| err("bad reason"))?
                    // lint: allow(hot-path-alloc) LAUNCHERR is rare by construction; the record owns its reason text
                    .to_string();
                Ok(AlpsRecord::LaunchErr(AppLaunchErrRecord {
                    timestamp,
                    apid,
                    reason,
                }))
            }
            _ => Err(err("unknown verb")),
        }
    }

    /// Parses one `apsys` line.
    ///
    /// # Errors
    ///
    /// Returns [`CraylogError`] when the line is not a well-formed PLACED,
    /// EXIT or LAUNCHERR record.
    pub fn parse(line: &str) -> Result<Self, CraylogError> {
        Self::parse_bytes(line.as_bytes()).map_err(|f| f.with_line(line))
    }
}

/// Clones, as `From<&String> for String` does: callers that hold records
/// by reference feed APIs that take them by value, moving the nodes out
/// when they own them.
impl From<&AlpsRecord> for AlpsRecord {
    fn from(rec: &AlpsRecord) -> Self {
        rec.clone()
    }
}

impl fmt::Display for AlpsRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlpsRecord::Placed(r) => write!(
                f,
                "{} apsys PLACED apid={} batch={} user={} cmd={} type={} width={} nodelist={}",
                r.timestamp,
                r.apid,
                r.job,
                r.user,
                r.command,
                r.node_type,
                r.width,
                format_nodelist(&r.nodes)
            ),
            AlpsRecord::Exit(r) => {
                let signal = match r.exit.signal {
                    // lint: allow(hot-path-alloc) Display is the simulator's emit side, not the parse loop
                    Some(s) => s.to_string(),
                    // lint: allow(hot-path-alloc) Display is the simulator's emit side, not the parse loop
                    None => "none".to_string(),
                };
                write!(
                    f,
                    "{} apsys EXIT apid={} code={} signal={} node_failed={} runtime={}",
                    r.timestamp,
                    r.apid,
                    r.exit.code,
                    signal,
                    if r.exit.node_failed { "yes" } else { "no" },
                    r.runtime_secs
                )
            }
            AlpsRecord::LaunchErr(r) => {
                write!(
                    f,
                    "{} apsys LAUNCHERR apid={} reason={}",
                    r.timestamp, r.apid, r.reason
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn placed() -> AlpsRecord {
        AlpsRecord::Placed(AppPlacedRecord {
            timestamp: Timestamp::from_ymd_hms(2013, 3, 28, 12, 30, 0),
            apid: AppId::new(1_000_321),
            job: JobId::new(98_765),
            user: UserId::new(421),
            command: "namd2".into(),
            node_type: NodeType::Xe,
            width: 3,
            nodes: RangeSet::from_unordered_runs(vec![(0, 2)]).unwrap(),
        })
    }

    #[test]
    fn placed_round_trip() {
        let rec = placed();
        let line = rec.to_string();
        assert!(line.contains("PLACED"));
        assert!(line.contains("nodelist=nid[0-2]"));
        assert_eq!(AlpsRecord::parse(&line).unwrap(), rec);
    }

    #[test]
    fn exit_round_trip_clean_and_signal() {
        for exit in [
            ExitStatus::SUCCESS,
            ExitStatus::with_code(137),
            ExitStatus::with_signal(11),
            ExitStatus::with_signal(9).and_node_failed(),
        ] {
            let rec = AlpsRecord::Exit(AppExitRecord {
                timestamp: Timestamp::from_ymd_hms(2013, 3, 28, 16, 30, 0),
                apid: AppId::new(7),
                exit,
                runtime_secs: 14_400,
            });
            assert_eq!(AlpsRecord::parse(&rec.to_string()).unwrap(), rec);
        }
    }

    #[test]
    fn launcherr_keeps_multiword_reason() {
        let rec = AlpsRecord::LaunchErr(AppLaunchErrRecord {
            timestamp: Timestamp::from_ymd_hms(2013, 3, 28, 12, 29, 59),
            apid: AppId::new(1_000_322),
            reason: "placement timeout on gemini quiesce".into(),
        });
        let back = AlpsRecord::parse(&rec.to_string()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let line = "2013-03-28 12:30:00 apsys PLACED apid=1 batch=2.bw user=u0001 cmd=x type=XE width=5 nodelist=nid[0-2]";
        assert!(AlpsRecord::parse(line).is_err());
    }

    /// A nodelist naming every nid there is counts 2^32, which a `u32`
    /// count wraps to 0; it must not pass for `width=0`.
    #[test]
    fn width_check_counts_past_u32() {
        let mut nodelist = String::from("nid[");
        let mut first = 0u64;
        while first <= u64::from(u32::MAX) {
            let last = (first + 1_000_000).min(u64::from(u32::MAX));
            if first > 0 {
                nodelist.push(',');
            }
            nodelist.push_str(&format!("{first}-{last}"));
            first = last + 1;
        }
        nodelist.push(']');
        let line = format!(
            "2013-03-28 12:30:00 apsys PLACED apid=1 batch=2.bw user=u0001 cmd=x type=XE width=0 nodelist={nodelist}"
        );
        assert!(line.len() > 80_000, "{} bytes", line.len());
        let f = AlpsRecord::parse_bytes(line.as_bytes()).unwrap_err();
        assert_eq!(f.reason(), "width disagrees with nodelist");
        assert_eq!(
            parse_nodelist_bytes(nodelist.as_bytes()).unwrap().len(),
            1 << 32
        );
    }

    #[test]
    fn rejects_malformed() {
        assert!(AlpsRecord::parse("").is_err());
        assert!(AlpsRecord::parse("2013-03-28 12:30:00 apsys NOPE apid=1").is_err());
        assert!(AlpsRecord::parse(
            "2013-03-28 12:30:00 apsys EXIT apid=1 code=x signal=none node_failed=no runtime=1"
        )
        .is_err());
        assert!(AlpsRecord::parse("2013-03-28 12:30:00 other EXIT apid=1").is_err());
    }

    #[test]
    fn byte_parse_matches_str_parse() {
        let line =
            "2013-03-28 12:30:00 apsys EXIT apid=1 code=0 signal=none node_failed=no runtime=1";
        assert_eq!(
            AlpsRecord::parse_bytes(line.as_bytes()).unwrap(),
            AlpsRecord::parse(line).unwrap()
        );
        let f = AlpsRecord::parse_bytes(b"2013-03-28 12:30:00 apsys EXIT apid=x").unwrap_err();
        assert_eq!(f.source_name(), "alps");
        assert_eq!(f.reason(), "bad apid");
    }

    #[test]
    fn accessors_cover_all_variants() {
        let p = placed();
        assert_eq!(p.apid(), AppId::new(1_000_321));
        let e = AlpsRecord::Exit(AppExitRecord {
            timestamp: Timestamp::from_unix(0),
            apid: AppId::new(9),
            exit: ExitStatus::SUCCESS,
            runtime_secs: 1,
        });
        assert_eq!(e.apid(), AppId::new(9));
        assert_eq!(e.timestamp(), Timestamp::from_unix(0));
    }

    proptest! {
        #[test]
        fn exit_round_trip_property(apid in 0u64..10_000_000,
                                    code in -128i32..256,
                                    runtime in 0i64..1_000_000,
                                    node_failed in any::<bool>()) {
            let rec = AlpsRecord::Exit(AppExitRecord {
                timestamp: Timestamp::from_unix(1_400_000_000),
                apid: AppId::new(apid),
                exit: ExitStatus { code, signal: None, node_failed },
                runtime_secs: runtime,
            });
            prop_assert_eq!(AlpsRecord::parse(&rec.to_string()).unwrap(), rec);
        }
    }
}
