//! The retired allocating parsers, kept verbatim as a differential oracle.
//!
//! When the hot path moved to the zero-copy byte parsers, these
//! `str`-splitting implementations were frozen here instead of deleted:
//! the `parser_fuzz` differential proptests replay arbitrary (and
//! deliberately corrupt / lossy-UTF-8) corpora through both and require
//! byte-identical records and identical accept/reject decisions. They
//! live with that test, outside the library: a production build carries
//! one parser per format.

use logdiver_types::{
    AppId, ErrorCategory, ExitStatus, JobId, NodeId, NodeSet, NodeType, RangeSet, Severity, Sym,
    Timestamp, UserId,
};

use bw_topology::torus::Dim;
use bw_topology::{Location, TorusCoord};
use craylog::alps::{AlpsRecord, AppExitRecord, AppLaunchErrRecord, AppPlacedRecord};
use craylog::error::CraylogError;
use craylog::hwerr::HwErrRecord;
use craylog::netwatch::{NetwatchEvent, NetwatchRecord};
use craylog::syslog::SyslogRecord;
use craylog::torque::{TorqueEventKind, TorqueRecord};

pub fn parse_syslog(line: &str) -> Result<SyslogRecord, CraylogError> {
    let err = |reason: &'static str| CraylogError::new("syslog", reason, line);
    if line.len() < 21 {
        return Err(err("line shorter than a timestamp"));
    }
    let (ts_str, rest) = line
        .split_at_checked(19)
        .ok_or_else(|| err("timestamp spans a non-ASCII boundary"))?;
    let timestamp: Timestamp = ts_str.parse().map_err(|_| err("bad timestamp"))?;
    let rest = rest
        .strip_prefix(' ')
        .ok_or_else(|| err("missing space after timestamp"))?;
    let (host, rest) = rest
        .split_once(' ')
        .ok_or_else(|| err("missing host field"))?;
    if host.is_empty() {
        return Err(err("empty host"));
    }
    let (tag, message) = rest
        .split_once(": ")
        .ok_or_else(|| err("missing tag separator"))?;
    if tag.is_empty() || tag.contains(' ') {
        return Err(err("bad tag"));
    }
    Ok(SyslogRecord {
        timestamp,
        host: Sym::intern(host),
        tag: Sym::intern(tag),
        message: message.to_string(),
    })
}

pub fn parse_hwerr(line: &str) -> Result<HwErrRecord, CraylogError> {
    let err = |reason: &'static str| CraylogError::new("hwerr", reason, line);
    let mut fields = line.splitn(5, '|');
    let ts = fields.next().ok_or_else(|| err("missing timestamp"))?;
    let timestamp: Timestamp = ts.parse().map_err(|_| err("bad timestamp"))?;
    let loc = fields.next().ok_or_else(|| err("missing location"))?;
    let location = Location::parse(loc).ok_or_else(|| err("bad location code"))?;
    let cat = fields.next().ok_or_else(|| err("missing category"))?;
    let category = ErrorCategory::parse_token(cat).ok_or_else(|| err("unknown category"))?;
    let sev = fields.next().ok_or_else(|| err("missing severity"))?;
    let severity = Severity::parse_label(sev).ok_or_else(|| err("unknown severity"))?;
    let detail = fields.next().unwrap_or("").to_string();
    Ok(HwErrRecord {
        timestamp,
        location,
        category,
        severity,
        detail,
    })
}

pub fn parse_nodelist(s: &str) -> Result<NodeSet, CraylogError> {
    let err = |reason: &'static str| CraylogError::new("nodelist", reason, s);
    let inner = s
        .strip_prefix("nid[")
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| err("missing nid[...] wrapper"))?;
    let mut set = NodeSet::new();
    if inner.is_empty() {
        return Ok(set);
    }
    for part in inner.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                let first: u32 = a.parse().map_err(|_| err("bad range start"))?;
                let last: u32 = b.parse().map_err(|_| err("bad range end"))?;
                if first > last {
                    return Err(err("inverted range"));
                }
                if last - first > 1_000_000 {
                    return Err(err("range implausibly large"));
                }
                for nid in first..=last {
                    set.insert(NodeId::new(nid));
                }
            }
            None => {
                let nid: u32 = part.parse().map_err(|_| err("bad nid"))?;
                set.insert(NodeId::new(nid));
            }
        }
    }
    Ok(set)
}

pub fn parse_alps(line: &str) -> Result<AlpsRecord, CraylogError> {
    let err = |reason: &'static str| CraylogError::new("alps", reason, line);
    if line.len() < 20 {
        return Err(err("line shorter than a timestamp"));
    }
    let (ts_str, rest) = line
        .split_at_checked(19)
        .ok_or_else(|| err("timestamp spans a non-ASCII boundary"))?;
    let timestamp: Timestamp = ts_str.parse().map_err(|_| err("bad timestamp"))?;
    let rest = rest
        .strip_prefix(" apsys ")
        .ok_or_else(|| err("missing apsys tag"))?;
    let (verb, fields_str) = rest.split_once(' ').ok_or_else(|| err("missing verb"))?;

    let get = |key: &str| -> Option<&str> {
        let pat = format!("{key}=");
        fields_str
            .split(' ')
            .find_map(|f| f.strip_prefix(pat.as_str()))
    };

    match verb {
        "PLACED" => {
            let apid = AppId::new(
                get("apid")
                    .ok_or_else(|| err("missing apid"))?
                    .parse()
                    .map_err(|_| err("bad apid"))?,
            );
            let job_str = get("batch").ok_or_else(|| err("missing batch"))?;
            let job_num = job_str
                .strip_suffix(".bw")
                .ok_or_else(|| err("bad batch id"))?
                .parse()
                .map_err(|_| err("bad batch id"))?;
            let user_str = get("user").ok_or_else(|| err("missing user"))?;
            let user = UserId::new(
                user_str
                    .strip_prefix('u')
                    .ok_or_else(|| err("bad user"))?
                    .parse()
                    .map_err(|_| err("bad user"))?,
            );
            let command = Sym::intern(get("cmd").ok_or_else(|| err("missing cmd"))?);
            let node_type = NodeType::parse_label(get("type").ok_or_else(|| err("missing type"))?)
                .ok_or_else(|| err("bad node type"))?;
            let width: u32 = get("width")
                .ok_or_else(|| err("missing width"))?
                .parse()
                .map_err(|_| err("bad width"))?;
            let nodes = parse_nodelist(get("nodelist").ok_or_else(|| err("missing nodelist"))?)
                .map_err(|e| CraylogError::new("alps", e.reason().to_string(), line))?;
            if nodes.len() as u32 != width {
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
                // The record holds ranges now; the frozen parser's dense
                // set converts at the boundary, nothing above it changed.
                nodes: RangeSet::from(&nodes),
            }))
        }
        "EXIT" => {
            let apid = AppId::new(
                get("apid")
                    .ok_or_else(|| err("missing apid"))?
                    .parse()
                    .map_err(|_| err("bad apid"))?,
            );
            let code: i32 = get("code")
                .ok_or_else(|| err("missing code"))?
                .parse()
                .map_err(|_| err("bad code"))?;
            let signal = match get("signal").ok_or_else(|| err("missing signal"))? {
                "none" => None,
                s => Some(s.parse().map_err(|_| err("bad signal"))?),
            };
            let node_failed = match get("node_failed").ok_or_else(|| err("missing node_failed"))? {
                "yes" => true,
                "no" => false,
                _ => return Err(err("bad node_failed")),
            };
            let runtime_secs: i64 = get("runtime")
                .ok_or_else(|| err("missing runtime"))?
                .parse()
                .map_err(|_| err("bad runtime"))?;
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
        "LAUNCHERR" => {
            let apid = AppId::new(
                get("apid")
                    .ok_or_else(|| err("missing apid"))?
                    .parse()
                    .map_err(|_| err("bad apid"))?,
            );
            let reason = fields_str
                .split_once("reason=")
                .map(|(_, r)| r.to_string())
                .ok_or_else(|| err("missing reason"))?;
            Ok(AlpsRecord::LaunchErr(AppLaunchErrRecord {
                timestamp,
                apid,
                reason,
            }))
        }
        other => Err(CraylogError::new(
            "alps",
            format!("unknown verb {other}"),
            line,
        )),
    }
}

pub fn parse_torque(line: &str) -> Result<TorqueRecord, CraylogError> {
    let err = |reason: &'static str| CraylogError::new("torque", reason, line);
    let mut parts = line.splitn(4, ';');
    let ts = parts.next().ok_or_else(|| err("missing timestamp"))?;
    let timestamp: Timestamp = ts.parse().map_err(|_| err("bad timestamp"))?;
    let kind = match parts.next().ok_or_else(|| err("missing kind"))? {
        "S" => TorqueEventKind::Start,
        "E" => TorqueEventKind::End,
        _ => return Err(err("unknown kind")),
    };
    let job_str = parts.next().ok_or_else(|| err("missing job id"))?;
    let job = JobId::new(
        job_str
            .strip_suffix(".bw")
            .ok_or_else(|| err("bad job id"))?
            .parse()
            .map_err(|_| err("bad job id"))?,
    );
    let fields_str = parts.next().ok_or_else(|| err("missing fields"))?;
    let get = |key: &str| -> Option<&str> {
        let pat = format!("{key}=");
        fields_str
            .split(' ')
            .find_map(|f| f.strip_prefix(pat.as_str()))
    };
    let user_str = get("user").ok_or_else(|| err("missing user"))?;
    let user = UserId::new(
        user_str
            .strip_prefix('u')
            .ok_or_else(|| err("bad user"))?
            .parse()
            .map_err(|_| err("bad user"))?,
    );
    let queue = Sym::intern(get("queue").ok_or_else(|| err("missing queue"))?);
    let nodes: u32 = get("nodes")
        .ok_or_else(|| err("missing nodes"))?
        .parse()
        .map_err(|_| err("bad nodes"))?;
    let walltime_secs: i64 = get("walltime")
        .ok_or_else(|| err("missing walltime"))?
        .parse()
        .map_err(|_| err("bad walltime"))?;
    let (start, end, exit_status) = match kind {
        TorqueEventKind::Start => (None, None, None),
        TorqueEventKind::End => {
            let s: i64 = get("start")
                .ok_or_else(|| err("missing start"))?
                .parse()
                .map_err(|_| err("bad start"))?;
            let e: i64 = get("end")
                .ok_or_else(|| err("missing end"))?
                .parse()
                .map_err(|_| err("bad end"))?;
            let x: i32 = get("exit_status")
                .ok_or_else(|| err("missing exit_status"))?
                .parse()
                .map_err(|_| err("bad exit_status"))?;
            (
                Some(Timestamp::from_unix(s)),
                Some(Timestamp::from_unix(e)),
                Some(x),
            )
        }
    };
    Ok(TorqueRecord {
        timestamp,
        kind,
        job,
        user,
        queue,
        nodes,
        walltime_secs,
        start,
        end,
        exit_status,
    })
}

fn parse_dim(s: &str) -> Option<Dim> {
    match s {
        "X" => Some(Dim::X),
        "Y" => Some(Dim::Y),
        "Z" => Some(Dim::Z),
        _ => None,
    }
}

fn parse_coord(s: &str) -> Option<TorusCoord> {
    let inner = s.strip_prefix('(')?.strip_suffix(')')?;
    let mut it = inner.split(',');
    let x = it.next()?.parse().ok()?;
    let y = it.next()?.parse().ok()?;
    let z = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(TorusCoord { x, y, z })
}

pub fn parse_netwatch(line: &str) -> Result<NetwatchRecord, CraylogError> {
    let err = |reason: &'static str| CraylogError::new("netwatch", reason, line);
    if line.len() < 20 {
        return Err(err("line shorter than a timestamp"));
    }
    let (ts_str, rest) = line
        .split_at_checked(19)
        .ok_or_else(|| err("timestamp spans a non-ASCII boundary"))?;
    let timestamp: Timestamp = ts_str.parse().map_err(|_| err("bad timestamp"))?;
    let rest = rest
        .strip_prefix(" netwatch ")
        .ok_or_else(|| err("missing netwatch tag"))?;
    let (verb, fields_str) = rest.split_once(' ').unwrap_or((rest, ""));
    let get = |key: &str| -> Option<&str> {
        let pat = format!("{key}=");
        fields_str
            .split(' ')
            .find_map(|f| f.strip_prefix(pat.as_str()))
    };
    let event = match verb {
        "LINK_FAILED" => NetwatchEvent::LinkFailed {
            coord: parse_coord(get("coord").ok_or_else(|| err("missing coord"))?)
                .ok_or_else(|| err("bad coord"))?,
            dim: parse_dim(get("dim").ok_or_else(|| err("missing dim"))?)
                .ok_or_else(|| err("bad dim"))?,
        },
        "LANE_DEGRADE" => NetwatchEvent::LaneDegrade {
            coord: parse_coord(get("coord").ok_or_else(|| err("missing coord"))?)
                .ok_or_else(|| err("bad coord"))?,
            dim: parse_dim(get("dim").ok_or_else(|| err("missing dim"))?)
                .ok_or_else(|| err("bad dim"))?,
            lanes: get("lanes")
                .ok_or_else(|| err("missing lanes"))?
                .parse()
                .map_err(|_| err("bad lanes"))?,
        },
        "REROUTE_START" => NetwatchEvent::RerouteStart {
            affected: get("affected")
                .ok_or_else(|| err("missing affected"))?
                .parse()
                .map_err(|_| err("bad affected"))?,
        },
        "REROUTE_DONE" => NetwatchEvent::RerouteDone {
            duration_secs: get("duration")
                .ok_or_else(|| err("missing duration"))?
                .parse()
                .map_err(|_| err("bad duration"))?,
        },
        other => {
            return Err(CraylogError::new(
                "netwatch",
                format!("unknown verb {other}"),
                line,
            ))
        }
    };
    Ok(NetwatchRecord { timestamp, event })
}
