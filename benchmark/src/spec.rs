//! What the benchmark runs and what it reports: the tables `BENCHMARK.json`
//! repeats for the driver. A self-test holds the two together.

use crate::corpus::CorpusSpec;

/// Which front door a workload goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `logdiver analyze`, a fresh process per iteration.
    Batch,
    /// `logdiver stream` with count-cadence checkpoints.
    Stream,
    /// `logdiver-serve` over TCP, replayed by `logdiver_push::deliver`
    /// beside an open-loop probe.
    Serve,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Front door.
    pub kind: Kind,
    /// Corpus the program is given (one tenant's worth, for `Serve`).
    pub corpus: CorpusSpec,
}

/// The six workloads: each front door on a corpus whose work sits in
/// parse+filter (`noise`) and on one whose work sits in the join and the
/// engine state (`runs`), so an optimisation of one layer has a workload
/// that exercises it and one that should not move.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "batch_noise",
        kind: Kind::Batch,
        corpus: CorpusSpec::NOISE,
    },
    Workload {
        name: "batch_runs",
        kind: Kind::Batch,
        corpus: CorpusSpec::RUNS,
    },
    Workload {
        name: "stream_noise",
        kind: Kind::Stream,
        corpus: CorpusSpec::NOISE,
    },
    Workload {
        name: "stream_runs",
        kind: Kind::Stream,
        corpus: CorpusSpec::RUNS_HALF,
    },
    Workload {
        name: "serve_chatter",
        kind: Kind::Serve,
        corpus: CorpusSpec::NOISE_SMALL,
    },
    Workload {
        name: "serve_bulk",
        kind: Kind::Serve,
        corpus: CorpusSpec::RUNS_SMALL,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Seconds one run measures when `--seconds` is not given; the driver
/// passes `run_seconds` of `BENCHMARK.json`, which a self-test keeps
/// equal to this.
pub const RUN_SECONDS: u64 = 8;

/// Tenants thread A replays one after another in a `Serve` workload.
pub const TENANTS: usize = 4;

/// Period of the open-loop probe.
pub const PROBE_PERIOD_MS: u64 = 2;

/// `logdiver stream --checkpoint-every`: count cadence only, so the number
/// of checkpoints is a function of the corpus.
pub const STREAM_CHECKPOINT_EVERY: u64 = 50_000;

/// Lateness every stream engine and tenant runs with: a whole day, so no
/// line of a corpus is dropped as late and reports equal the batch one.
pub const LATENESS_SECS: i64 = 86_400;

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("lines_per_s", "lines/s"),
    ("peak_rss_mb", "MB"),
    ("response_tail_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`. A
/// metric whose layer a workload does not run reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.input.load_s", "s"),
    ("core.input.bytes", "B"),
    ("core.parse.busy_s", "s"),
    ("core.parse.lines", "count"),
    ("core.parse.quarantined", "count"),
    ("core.filter.busy_s", "s"),
    ("core.filter.kept_share", "ratio"),
    ("core.coverage.busy_s", "s"),
    ("core.workload.reconstruct_s", "s"),
    ("core.workload.runs", "count"),
    ("core.coalesce.busy_s", "s"),
    ("core.coalesce.events", "count"),
    ("core.classify.busy_s", "s"),
    ("core.metrics.busy_s", "s"),
    ("core.report.render_s", "s"),
    ("core.teardown_s", "s"),
    ("core.residual_s", "s"),
    ("core.exec.t2_speedup", "ratio"),
    ("stream.engine.push_s", "s"),
    ("stream.engine.drain_s", "s"),
    ("stream.engine.lines", "count"),
    ("stream.engine.vs_batch", "ratio"),
    ("stream.engine.shards2_speedup", "ratio"),
    ("stream.checkpoint.capture_s", "s"),
    ("stream.checkpoint.encode_s", "s"),
    ("stream.checkpoint.write_s", "s"),
    ("stream.checkpoint.decode_s", "s"),
    ("stream.checkpoint.count", "count"),
    ("stream.checkpoint.bytes", "B"),
    ("stream.checkpoint.overhead_share", "ratio"),
    ("stream.engine.resume_s", "s"),
    ("stream.residual_s", "s"),
    ("stream.inline.busy_s", "s"),
    ("serve.tenant.offer_s", "s"),
    ("serve.tenant.pump_s", "s"),
    ("serve.proto.parse_s", "s"),
    ("serve.server.feed_s", "s"),
    ("serve.server.self_s", "s"),
    ("serve.server.checkpoint_all_s", "s"),
    ("serve.server.checkpoints", "count"),
    ("serve.store.encode_s", "s"),
    ("serve.store.write_s", "s"),
    ("serve.store.bytes", "B"),
    ("serve.store.resume_s", "s"),
    ("serve.daemon.restart_s", "s"),
    ("serve.server.report_s", "s"),
    ("client.session.busy_s", "s"),
    ("client.session.lines", "count"),
    ("serve.daemon.wire_residual_s", "s"),
    ("serve.daemon.probe_ack_p50_ms", "ms"),
    ("serve.daemon.probe_ack_p99_ms", "ms"),
    ("serve.daemon.probe_late_p99_ms", "ms"),
    ("serve.server.accepted", "count"),
    ("serve.server.applied", "count"),
    ("serve.server.dups", "count"),
    ("serve.server.shed_quota", "count"),
    ("serve.server.shed_budget", "count"),
    ("serve.server.shed_overload", "count"),
    ("serve.server.shed_draining", "count"),
    ("trace.wall_s", "s"),
    ("trace.rows_s", "s"),
    ("trace.gap_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        crate::compare::field(v, key).unwrap_or_else(|| panic!("BENCHMARK.json has no {key:?}"))
    }

    fn names_and_units(v: &Value) -> Vec<(String, String)> {
        let Value::Array(items) = v else {
            panic!("expected an array, got {v:?}");
        };
        items
            .iter()
            .map(|m| {
                let (Value::Str(name), Value::Str(unit)) = (field(m, "name"), field(m, "unit"))
                else {
                    panic!("metric without name or unit: {m:?}");
                };
                (name.clone(), unit.clone())
            })
            .collect()
    }

    fn own(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");

        let Value::Array(workloads) = field(&doc, "workloads") else {
            panic!("workloads is not an array");
        };
        let named: Vec<&Value> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<Value> = WORKLOADS
            .iter()
            .map(|w| Value::Str(w.name.to_string()))
            .collect();
        assert_eq!(named, ours.iter().collect::<Vec<_>>());

        assert_eq!(names_and_units(field(&doc, "end_to_end")), own(END_TO_END));
        assert_eq!(names_and_units(field(&doc, "per_layer")), own(PER_LAYER));
        assert_eq!(
            field(&doc, "run_seconds"),
            &Value::Int(RUN_SECONDS as i64),
            "run_seconds"
        );
        assert_eq!(
            field(&doc, "paths"),
            &Value::Array(vec![Value::Str("benchmark".to_string())])
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_driver_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
