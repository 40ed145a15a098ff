//! Rendering simulation happenings into raw log lines.
//!
//! All formatting goes through the `craylog` emitters, so everything the
//! simulator writes is guaranteed parseable by the same crate's parsers —
//! the corruption injected for robustness testing is added *on top* by the
//! test harnesses, not here.

use bw_faults::{FaultEvent, FaultKind};
use bw_topology::{Location, Machine};
use craylog::alps::{AlpsRecord, AppExitRecord, AppLaunchErrRecord, AppPlacedRecord};
use craylog::hwerr::HwErrRecord;
use craylog::netwatch::{NetwatchEvent, NetwatchRecord};
use craylog::syslog::SyslogRecord;
use craylog::templates;
use craylog::torque::TorqueRecord;
use logdiver_types::{
    AppId, ExitStatus, JobId, NodeId, NodeSet, NodeType, RangeSet, SimDuration, Timestamp, UserId,
};

use crate::output::{LogStream, SimOutput};

/// Emits the Torque start record for a job.
pub fn job_start(
    out: &mut dyn SimOutput,
    t: Timestamp,
    job: JobId,
    user: UserId,
    queue: &str,
    nodes: u32,
    walltime: SimDuration,
) {
    let rec = TorqueRecord::start(t, job, user, queue, nodes, walltime.as_secs());
    out.log_line(LogStream::Torque, &rec.to_string());
}

/// Emits the Torque end record for a job.
#[allow(clippy::too_many_arguments)]
pub fn job_end(
    out: &mut dyn SimOutput,
    t: Timestamp,
    job: JobId,
    user: UserId,
    queue: &str,
    nodes: u32,
    walltime: SimDuration,
    started: Timestamp,
    exit_status: i32,
) {
    let rec = TorqueRecord::end(
        t,
        job,
        user,
        queue,
        nodes,
        walltime.as_secs(),
        started,
        exit_status,
    );
    out.log_line(LogStream::Torque, &rec.to_string());
}

/// Emits the ALPS placement record for an application.
#[allow(clippy::too_many_arguments)]
pub fn app_placed(
    out: &mut dyn SimOutput,
    t: Timestamp,
    apid: AppId,
    job: JobId,
    user: UserId,
    command: &str,
    node_type: NodeType,
    nodes: &NodeSet,
) {
    let rec = AlpsRecord::Placed(AppPlacedRecord {
        timestamp: t,
        apid,
        job,
        user,
        command: command.into(),
        node_type,
        width: nodes.len() as u32,
        nodes: RangeSet::from(nodes),
    });
    out.log_line(LogStream::Alps, &rec.to_string());
}

/// Emits the ALPS exit record for an application.
pub fn app_exit(
    out: &mut dyn SimOutput,
    t: Timestamp,
    apid: AppId,
    exit: ExitStatus,
    runtime: SimDuration,
) {
    let rec = AlpsRecord::Exit(AppExitRecord {
        timestamp: t,
        apid,
        exit,
        runtime_secs: runtime.as_secs().max(0),
    });
    out.log_line(LogStream::Alps, &rec.to_string());
}

/// Emits an ALPS launch-failure record.
pub fn launch_error(out: &mut dyn SimOutput, t: Timestamp, apid: AppId, reason: &str) {
    let rec = AlpsRecord::LaunchErr(AppLaunchErrRecord {
        timestamp: t,
        apid,
        reason: reason.to_string(),
    });
    out.log_line(LogStream::Alps, &rec.to_string());
    // The launcher also complains in syslog from a service host.
    let sys = SyslogRecord {
        timestamp: t,
        host: "boot".into(),
        tag: "apsched".into(),
        message: templates::error_message(
            logdiver_types::ErrorCategory::AlpsLaunchFailure,
            apid.value() as u32,
        ),
    };
    out.log_line(LogStream::Syslog, &sys.to_string());
}

/// Emits the log evidence of a fault event (call only when detected).
///
/// Every lethal hardware fault produces a structured hardware-error record
/// keyed by location, plus one or more free-text syslog lines; interconnect
/// and filesystem events produce their own streams.
pub fn fault_evidence(
    out: &mut dyn SimOutput,
    machine: &Machine,
    event: &FaultEvent,
    variant: u32,
) {
    let t = event.time;
    match &event.kind {
        FaultKind::NodeCrash { nid, cause } => {
            let cat = cause.category();
            hwerr_line(out, t + SimDuration::from_secs(1), *nid, cat, variant);
            syslog_error(out, t, *nid, cat, variant);
            // The heartbeat sweep declares the node dead shortly after.
            let dead = logdiver_types::ErrorCategory::NodeHeartbeatFault;
            hwerr_line(out, t + SimDuration::from_secs(31), *nid, dead, variant);
            smw_line(out, t + SimDuration::from_secs(31), dead, variant);
        }
        FaultKind::GpuFault { nid, kind } => {
            let cat = kind.category();
            syslog_error(out, t, *nid, cat, variant);
            hwerr_line(out, t + SimDuration::from_secs(5), *nid, cat, variant);
        }
        FaultKind::BladeFailure { blade } => {
            let nid = NodeId::new(blade * 4);
            let cat = logdiver_types::ErrorCategory::BladeControllerFailure;
            hwerr_line(out, t + SimDuration::from_secs(2), nid, cat, variant);
            smw_line(out, t, cat, variant);
        }
        FaultKind::GeminiLinkFailure { link, stall } => {
            out.log_line(
                LogStream::Netwatch,
                &NetwatchRecord {
                    timestamp: t,
                    event: NetwatchEvent::LinkFailed {
                        coord: link.coord,
                        dim: link.dim,
                    },
                }
                .to_string(),
            );
            out.log_line(
                LogStream::Netwatch,
                &NetwatchRecord {
                    timestamp: t + SimDuration::from_secs(3),
                    event: NetwatchEvent::RerouteStart {
                        affected: machine.torus().link_count(),
                    },
                }
                .to_string(),
            );
            out.log_line(
                LogStream::Netwatch,
                &NetwatchRecord {
                    timestamp: t + *stall,
                    event: NetwatchEvent::RerouteDone {
                        duration_secs: stall.as_secs().max(0) as u32,
                    },
                }
                .to_string(),
            );
            // The nodes behind the Gemini see the link drop too.
            let [a, _b] = machine.torus().nids_at(link.coord);
            syslog_error(
                out,
                t,
                a,
                logdiver_types::ErrorCategory::GeminiLinkFailure,
                variant,
            );
            smw_line(
                out,
                t + SimDuration::from_secs(3),
                logdiver_types::ErrorCategory::GeminiRouteReconfig,
                variant,
            );
        }
        FaultKind::LustreOstFailure { ost } => {
            let sys = SyslogRecord {
                timestamp: t,
                host: machine.lustre().oss_of(*ost).to_string().into(),
                tag: "lustre".into(),
                message: format!(
                    "LustreError: {}: {} failed over, client I/O will block",
                    137 + variant % 20,
                    ost
                ),
            };
            out.log_line(LogStream::Syslog, &sys.to_string());
            // Evictions ripple to a few random-ish clients.
            for k in 0..3u32 {
                let nid = NodeId::new(
                    (variant.wrapping_mul(2_654_435_761).wrapping_add(k * 97))
                        % machine.compute_nodes().max(1),
                );
                syslog_error(
                    out,
                    t + SimDuration::from_secs(5 + k as i64),
                    nid,
                    logdiver_types::ErrorCategory::LustreClientEviction,
                    variant + k,
                );
            }
        }
        FaultKind::LustreMdsFailover { mds } => {
            let sys = SyslogRecord {
                timestamp: t,
                host: mds.to_string().into(),
                tag: "lustre".into(),
                message: templates::error_message(
                    logdiver_types::ErrorCategory::LustreMdsFailover,
                    variant,
                ),
            };
            out.log_line(LogStream::Syslog, &sys.to_string());
        }
        FaultKind::MemoryCeFlood { nid } => {
            // A flood: a burst of correctable-error lines over ~2 minutes.
            let n = 4 + variant % 24;
            for k in 0..n {
                syslog_error(
                    out,
                    t + SimDuration::from_secs((k as i64 * 120) / n as i64),
                    *nid,
                    logdiver_types::ErrorCategory::MemoryCorrectable,
                    variant + k,
                );
            }
            hwerr_line(
                out,
                t,
                *nid,
                logdiver_types::ErrorCategory::MemoryCorrectable,
                variant,
            );
        }
        FaultKind::GpuPageRetirement { nid } => {
            syslog_error(
                out,
                t,
                *nid,
                logdiver_types::ErrorCategory::GpuPageRetirement,
                variant,
            );
        }
        FaultKind::Maintenance { blade } => {
            let nid = NodeId::new(blade * 4);
            syslog_error(
                out,
                t,
                nid,
                logdiver_types::ErrorCategory::MaintenanceNotice,
                variant,
            );
            smw_line(
                out,
                t,
                logdiver_types::ErrorCategory::MaintenanceNotice,
                variant,
            );
        }
    }
}

/// Emits one benign chatter line.
pub fn noise(out: &mut dyn SimOutput, machine: &Machine, t: Timestamp, variant: u32) {
    let (tag, message) = templates::noise_message(variant);
    let host = if variant.is_multiple_of(5) {
        "smw".to_string()
    } else {
        NodeId::new(variant.wrapping_mul(48_271) % machine.total_nodes().max(1)).hostname()
    };
    let rec = SyslogRecord {
        timestamp: t,
        host: host.into(),
        tag: tag.into(),
        message,
    };
    out.log_line(LogStream::Syslog, &rec.to_string());
}

fn hwerr_line(
    out: &mut dyn SimOutput,
    t: Timestamp,
    nid: NodeId,
    cat: logdiver_types::ErrorCategory,
    variant: u32,
) {
    let rec = HwErrRecord::new(t, Location::of_nid(nid), cat, format!("v={variant}"));
    out.log_line(LogStream::HwErr, &rec.to_string());
}

fn syslog_error(
    out: &mut dyn SimOutput,
    t: Timestamp,
    nid: NodeId,
    cat: logdiver_types::ErrorCategory,
    variant: u32,
) {
    let rec = SyslogRecord::from_node(
        t,
        nid,
        templates::tag_for(cat),
        templates::error_message(cat, variant),
    );
    out.log_line(LogStream::Syslog, &rec.to_string());
}

fn smw_line(
    out: &mut dyn SimOutput,
    t: Timestamp,
    cat: logdiver_types::ErrorCategory,
    variant: u32,
) {
    let rec = SyslogRecord {
        timestamp: t,
        host: "smw".into(),
        tag: templates::tag_for(cat).into(),
        message: templates::error_message(cat, variant),
    };
    out.log_line(LogStream::Syslog, &rec.to_string());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::MemoryOutput;
    use bw_faults::{FaultEvent, GpuFaultKind, NodeCrashCause};
    use bw_topology::Machine;

    fn t0() -> Timestamp {
        Timestamp::PRODUCTION_EPOCH
    }

    #[test]
    fn emitted_alps_lines_parse_back() {
        let mut out = MemoryOutput::new();
        let nodes: NodeSet = (0..4).map(NodeId::new).collect();
        app_placed(
            &mut out,
            t0(),
            AppId::new(5),
            JobId::new(2),
            UserId::new(1),
            "namd2",
            NodeType::Xe,
            &nodes,
        );
        app_exit(
            &mut out,
            t0(),
            AppId::new(5),
            ExitStatus::SUCCESS,
            SimDuration::from_hours(1),
        );
        launch_error(&mut out, t0(), AppId::new(6), "placement timeout");
        for line in &out.alps {
            AlpsRecord::parse(line).unwrap();
        }
        assert_eq!(out.alps.len(), 3);
        assert_eq!(out.syslog.len(), 1, "launch error also hits syslog");
    }

    #[test]
    fn emitted_torque_lines_parse_back() {
        let mut out = MemoryOutput::new();
        job_start(
            &mut out,
            t0(),
            JobId::new(9),
            UserId::new(3),
            "normal",
            128,
            SimDuration::from_hours(4),
        );
        job_end(
            &mut out,
            t0() + SimDuration::from_hours(2),
            JobId::new(9),
            UserId::new(3),
            "normal",
            128,
            SimDuration::from_hours(4),
            t0(),
            0,
        );
        for line in &out.torque {
            TorqueRecord::parse(line).unwrap();
        }
    }

    #[test]
    fn node_crash_evidence_has_hwerr_and_syslog() {
        let machine = Machine::blue_waters_scaled(64);
        let mut out = MemoryOutput::new();
        let ev = FaultEvent {
            time: t0(),
            kind: FaultKind::NodeCrash {
                nid: NodeId::new(7),
                cause: NodeCrashCause::MachineCheck,
            },
            repair: SimDuration::from_hours(4),
            detected: true,
        };
        fault_evidence(&mut out, &machine, &ev, 3);
        assert_eq!(out.hwerr.len(), 2, "cause + heartbeat declaration");
        assert!(out.syslog.len() >= 2);
        for line in &out.hwerr {
            HwErrRecord::parse(line).unwrap();
        }
        for line in &out.syslog {
            SyslogRecord::parse(line).unwrap();
        }
    }

    #[test]
    fn link_failure_emits_reroute_bracket() {
        let machine = Machine::blue_waters_scaled(64);
        let mut out = MemoryOutput::new();
        let link = machine.torus().link_by_index(0);
        let ev = FaultEvent {
            time: t0(),
            kind: FaultKind::GeminiLinkFailure {
                link,
                stall: SimDuration::from_secs(45),
            },
            repair: SimDuration::ZERO,
            detected: true,
        };
        fault_evidence(&mut out, &machine, &ev, 1);
        assert_eq!(out.netwatch.len(), 3);
        for line in &out.netwatch {
            NetwatchRecord::parse(line).unwrap();
        }
        assert!(out.netwatch[1].contains("REROUTE_START"));
        assert!(out.netwatch[2].contains("REROUTE_DONE"));
    }

    #[test]
    fn ce_flood_is_a_burst() {
        let machine = Machine::blue_waters_scaled(64);
        let mut out = MemoryOutput::new();
        let ev = FaultEvent {
            time: t0(),
            kind: FaultKind::MemoryCeFlood {
                nid: NodeId::new(3),
            },
            repair: SimDuration::ZERO,
            detected: true,
        };
        fault_evidence(&mut out, &machine, &ev, 20);
        assert!(
            out.syslog.len() >= 4,
            "flood should burst: {}",
            out.syslog.len()
        );
    }

    #[test]
    fn gpu_fault_evidence_parses() {
        let machine = Machine::blue_waters_scaled(64);
        let mut out = MemoryOutput::new();
        let nid = machine.nodes_of_type(NodeType::Xk).next().unwrap();
        let ev = FaultEvent {
            time: t0(),
            kind: FaultKind::GpuFault {
                nid,
                kind: GpuFaultKind::DoubleBitEcc,
            },
            repair: SimDuration::from_hours(1),
            detected: true,
        };
        fault_evidence(&mut out, &machine, &ev, 2);
        assert!(out.syslog[0].contains("Xid"));
        HwErrRecord::parse(&out.hwerr[0]).unwrap();
    }

    #[test]
    fn noise_lines_parse() {
        let machine = Machine::blue_waters_scaled(64);
        let mut out = MemoryOutput::new();
        for v in 0..40 {
            noise(&mut out, &machine, t0(), v);
        }
        for line in &out.syslog {
            SyslogRecord::parse(line).unwrap();
        }
        assert_eq!(out.syslog.len(), 40);
    }
}
