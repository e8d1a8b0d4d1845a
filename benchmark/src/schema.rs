//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics. `BENCHMARK.json` lists the same names (pinned by
//! `tests/schema.rs`); every run reports every name of its pass.

use std::collections::BTreeMap;

/// Measured seconds of one run when the caller does not say.
pub const RUN_SECONDS: f64 = 16.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening before a change counts as a regression, as a
    /// share of the parent's median. Per-layer metrics carry 0 (no
    /// bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "serve_static",
        "read-mostly steady state every user query pays: closed-loop JSON requests against a recorded 35-AS database; api+JSON, statcache hits and select do all the work, no writer runs",
    ),
    (
        "serve_churn",
        "same requests, open loop at 5000 req/s while a paced writer appends and retention expires: merge, recompute and MVCC snapshot reads under a live writer; stalls cannot hide",
    ),
    (
        "campaign_1000as",
        "write path at scale on a 1000-AS topology: lazy path combination in set-up, sim data plane, tools, runner, WAL group commit, WAL-replay recovery, failover sessions; no serve path",
    ),
    (
        "longitudinal_35as",
        "same campaign code dominated by maintenance: rollup catch-up, retention expiry and a checkpoint every round, then snapshot recovery; paired with campaign_1000as it isolates upkeep cost",
    ),
];

/// End-to-end metrics. Every workload reports every one of them (the
/// driver's contract), so each is defined on all four — see the README
/// for what an "operation" and a "latency unit" are per workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.10),
    e2e("latency_p50_us", "us", Better::Lower, 0.10),
    // Not a timing, but seeds store different data: ten seeds spread
    // by 0.009-0.023 on `longitudinal_35as`.
    e2e("disk_bytes_per_sample", "B", Better::Lower, 0.08),
    // One run in ten keeps a few MiB more (0.04-0.07 of 56-85 MiB).
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.20),
];

use Better::{Higher, Lower};

/// Per-layer metrics, from the traced pass. A metric whose layer a
/// workload never enters reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // api
    layer("api.json_decode_us", "us", Lower),
    layer("api.dispatch_us", "us", Lower),
    layer("api.dispatch_recommend_us", "us", Lower),
    layer("api.dispatch_showpaths_us", "us", Lower),
    layer("api.dispatch_evaluate_us", "us", Lower),
    layer("api.dispatch_strategy_us", "us", Lower),
    layer("api.dispatch_health_us", "us", Lower),
    layer("api.json_encode_us", "us", Lower),
    layer("api.json_share", "ratio", Lower),
    layer("api.response_bytes", "B", Lower),
    layer("api.request_p999_us", "us", Lower),
    layer("api.errors", "count", Lower),
    layer("serve.slo_miss_share", "ratio", Lower),
    // select
    layer("select.recommend_us", "us", Lower),
    layer("select.strategy_rank_us", "us", Lower),
    layer("select.candidates", "count", Lower),
    // statcache
    layer("statcache.hit", "count", Higher),
    layer("statcache.merge", "count", Lower),
    layer("statcache.recompute", "count", Lower),
    layer("statcache.hit_share", "ratio", Higher),
    layer("statcache.recompute_docs", "count", Lower),
    layer("statcache.merge_us", "us", Lower),
    layer("statcache.recompute_us", "us", Lower),
    // pathdb
    layer("pathdb.snapshot.hit", "count", Higher),
    layer("pathdb.snapshot.merge", "count", Lower),
    layer("pathdb.snapshot.clone", "count", Lower),
    layer("pathdb.snapshot.merge_docs", "count", Lower),
    layer("pathdb.snapshot.merge_read_us", "us", Lower),
    layer("pathdb.snapshot.clone_read_us", "us", Lower),
    layer("pathdb.plan.full_scan", "count", Lower),
    layer("pathdb.plan.index_point", "count", Higher),
    layer("pathdb.plan.index_range", "count", Higher),
    layer("pathdb.plan.index_intersect", "count", Higher),
    layer("pathdb.wal.commit_groups", "count", Lower),
    layer("pathdb.wal.ops", "count", Lower),
    layer("pathdb.wal.commit_us_p50", "us", Lower),
    layer("pathdb.wal.commit_us_p95", "us", Lower),
    layer("pathdb.wal.disk_commit_us_p50", "us", Lower),
    layer("pathdb.wal.disk_commit_us_p95", "us", Lower),
    layer("pathdb.wal.bytes_per_sample", "B", Lower),
    layer("pathdb.wal.share", "ratio", Lower),
    layer("pathdb.insert_many_us", "us", Lower),
    layer("pathdb.checkpoint_ms_p50", "ms", Lower),
    layer("pathdb.checkpoint_ms_p95", "ms", Lower),
    layer("pathdb.checkpoint_ms_max", "ms", Lower),
    layer("pathdb.checkpoint.rewritten", "count", Lower),
    layer("pathdb.checkpoint.kept_in_log", "count", Higher),
    layer("pathdb.checkpoint.clean", "count", Higher),
    layer("pathdb.checkpoint.share", "ratio", Lower),
    layer("pathdb.rollup.catch_up_ns_per_row", "ns", Lower),
    layer("pathdb.rollup.rows_folded", "count", Lower),
    layer("pathdb.rollup.buckets", "count", Lower),
    layer("pathdb.rollup.read_ms", "ms", Lower),
    layer("pathdb.retention.expire_us_per_row", "us", Lower),
    layer("pathdb.retention.expired_rows", "count", Lower),
    layer("pathdb.recovery.snapshot_docs", "count", Lower),
    layer("pathdb.recovery.wal_groups_replayed", "count", Lower),
    layer("pathdb.recovery_ms", "ms", Lower),
    // sim
    layer("sim.generate_ms", "ms", Lower),
    layer("sim.bringup_ms", "ms", Lower),
    layer("sim.paths_cold_us", "us", Lower),
    layer("sim.paths_warm_us", "us", Lower),
    layer("sim.pathserver.lazy_forced", "count", Lower),
    layer("sim.pathcache.hit", "count", Higher),
    layer("sim.pathcache.miss", "count", Lower),
    layer("sim.compile_cache.hit", "count", Higher),
    layer("sim.compile_cache.miss", "count", Lower),
    layer("sim.compile_cache.refresh", "count", Lower),
    layer("sim.ping_us", "us", Lower),
    layer("sim.bwtest_us", "us", Lower),
    layer("sim.fork_ns", "ns", Lower),
    layer("sim.chaos.transitions", "count", Lower),
    // tools
    layer("tools.ping_us", "us", Lower),
    layer("tools.bwtest_us", "us", Lower),
    layer("tools.showpaths_us", "us", Lower),
    // runner
    layer("runner.collect_paths_ms", "ms", Lower),
    layer("runner.measure_path_us", "us", Lower),
    layer("runner.self_share", "ratio", Lower),
    layer("runner.retries", "count", Lower),
    layer("runner.breaker_trips", "count", Lower),
    layer("runner.errors", "count", Lower),
    // failover
    layer("failover.ticks_per_s", "1/s", Higher),
    layer("failover.tick_us", "us", Lower),
    layer("failover.switches", "count", Lower),
    layer("failover.switch_p50_sim_ms", "ms", Lower),
    layer("failover.switch_p99_sim_ms", "ms", Lower),
    layer("failover.sla_violations", "count", Lower),
    // longitudinal
    layer("longitudinal.analytics_ms", "ms", Lower),
    layer("longitudinal.churn_analyze_ms", "ms", Lower),
    layer("longitudinal.dataset_ms", "ms", Lower),
    // harness
    layer("bench.cpu_s", "s", Lower),
    layer("bench.latency_tail_us", "us", Lower),
    layer("bench.unattributed_share", "ratio", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.generator_late_share", "ratio", Lower),
];

/// Measured values of one pass, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every metric of `defs` present with its unit.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    use serde_json::{Map, Number, Value};
    let mut metrics = Map::new();
    for def in defs {
        let v = values
            .get(def.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let mut m = Map::new();
        m.insert("value".into(), Value::Number(Number::Float(v)));
        m.insert("unit".into(), Value::String(def.unit.into()));
        metrics.insert(def.name.into(), Value::Object(m));
    }
    let mut line = Map::new();
    line.insert("correct".into(), Value::Bool(correct));
    line.insert(
        "attempted".into(),
        Value::Number(Number::Int(attempted.max(1) as i64)),
    );
    line.insert("failed".into(), Value::Number(Number::Int(failed as i64)));
    line.insert("metrics".into(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line)).expect("result lines always serialize")
}
