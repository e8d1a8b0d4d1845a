//! Telemetry for the UPIN stack: spans, metrics and deterministic export.
//!
//! Every layer of the workspace — the campaign runner, the path database
//! planner and WAL, the selection caches, the network simulator — records
//! into a [`Recorder`]. The trait's default methods are empty, so code
//! instrumented against the bundled [`NoopRecorder`] compiles down to a
//! virtual call that immediately returns; the overhead budget is ≤3% on
//! the campaign hot path (pinned by `tests/telemetry.rs` in the root
//! crate).
//!
//! Three design rules keep exports reproducible:
//!
//! 1. **The caller owns the clock.** This crate never reads wall time;
//!    every `span_start`/`span_end`/`event` carries a timestamp supplied
//!    by the caller, which on the measurement path is the *simulated*
//!    network clock. Same seed → same clock values → same export.
//! 2. **Deterministic aggregation.** All maps are `BTreeMap`s, ids are
//!    sequential, and floating-point observations (histograms, gauges)
//!    must be recorded from a deterministic call order — in practice the
//!    campaign runner records them from the commit thread in destination
//!    order, while worker threads only bump `u64` counters (commutative).
//! 3. **Wall-clock metrics are quarantined by name.** Real I/O timings
//!    (WAL fsync, checkpoint, recovery) are genuinely nondeterministic;
//!    they are recorded under the reserved `wall.` prefix so consumers
//!    can tell at a glance which part of an export is reproducible. They
//!    only appear at all when a run touches disk.
//!
//! [`Telemetry`] is the collecting implementation: it aggregates metrics,
//! keeps the span tree, and exports `metrics_json()` / `trace_json()` —
//! byte-identical across same-seed runs. [`MetricsDoc`] parses an export
//! back and renders the `report telemetry` summary table.
//!
//! ```
//! use upin_telemetry::{AttrValue, Recorder, SpanId, Telemetry};
//!
//! let t = Telemetry::new();
//! let root = t.span_start("campaign", SpanId::NONE, 0.0, &[]);
//! let dest = t.span_start("destination", root, 0.0, &[("server", AttrValue::I64(3))]);
//! t.add("campaign.measurements", 12);
//! t.observe("campaign.destination_ms", 41.5);
//! t.span_end(dest, 41.5);
//! t.span_end(root, 50.0);
//! let json = t.metrics_json();
//! let doc = upin_telemetry::MetricsDoc::parse(&json).unwrap();
//! assert_eq!(doc.counters["campaign.measurements"], 12);
//! ```

mod export;
mod metrics;
mod recorder;
mod span;
mod telemetry;

pub use export::{MetricsDoc, ParseError};
pub use metrics::HistogramSummary;
pub use recorder::{noop, AttrValue, NoopRecorder, Recorder, SpanId};
pub use span::{OwnedAttr, SpanRecord};
pub use telemetry::Telemetry;

/// Render a labeled metric name: `with_label("hist", "server", "3")` →
/// `"hist{server=3}"`. Per-destination series use this so the flat
/// metric namespace still carries structure.
pub fn with_label(base: &str, key: &str, value: &str) -> String {
    let mut s = String::with_capacity(base.len() + key.len() + value.len() + 3);
    s.push_str(base);
    s.push('{');
    s.push_str(key);
    s.push('=');
    s.push_str(value);
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_label_formats() {
        assert_eq!(with_label("a.b_ms", "server", "17"), "a.b_ms{server=17}");
    }
}
