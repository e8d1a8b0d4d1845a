//! The collecting [`Recorder`]: aggregates metrics and keeps the span
//! tree, behind one mutex (contention is negligible next to the work
//! being measured; worker threads only bump counters).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::export::MetricsDoc;
use crate::metrics::Histogram;
use crate::recorder::{AttrValue, Recorder, SpanId};
use crate::span::{own_attrs, EventRecord, SpanRecord};

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
}

/// A recorder that collects everything. Wrap it in an `Arc` and hand
/// clones to the database, the network and the runner; export once the
/// run completes.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Mutex<Inner>,
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Snapshot the metric state into an exportable document.
    pub fn metrics_doc(&self) -> MetricsDoc {
        let inner = self.inner.lock().unwrap();
        MetricsDoc {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.summary()))
                .collect(),
        }
    }

    /// Deterministic JSON export of the metrics registry: sorted keys,
    /// fixed layout, shortest-roundtrip float rendering. Same seed →
    /// byte-identical output (wall-clock metrics, under the `wall.`
    /// prefix, only exist for runs that touch disk).
    pub fn metrics_json(&self) -> String {
        self.metrics_doc().to_json()
    }

    /// Deterministic JSON export of the span tree and events, in id
    /// (i.e. start) order.
    pub fn trace_json(&self) -> String {
        use serde::json::{into_text, write_f64, write_str, write_u64};
        let inner = self.inner.lock().unwrap();
        let mut out = b"{\n  \"spans\": [".to_vec();
        for (i, s) in inner.spans.iter().enumerate() {
            out.extend_from_slice(if i == 0 { b"\n" } else { b",\n" });
            out.extend_from_slice(b"    {\"id\": ");
            write_u64(&mut out, s.id.0);
            out.extend_from_slice(b", \"parent\": ");
            write_u64(&mut out, s.parent.0);
            out.extend_from_slice(b", \"name\": ");
            write_str(&mut out, &s.name);
            out.extend_from_slice(b", \"start_ms\": ");
            write_f64(&mut out, s.start_ms);
            out.extend_from_slice(b", \"end_ms\": ");
            write_f64(&mut out, s.end_ms);
            out.extend_from_slice(b", \"attrs\": ");
            write_attrs(&mut out, &s.attrs);
            out.push(b'}');
        }
        out.extend_from_slice(b"\n  ],\n  \"events\": [");
        for (i, e) in inner.events.iter().enumerate() {
            out.extend_from_slice(if i == 0 { b"\n" } else { b",\n" });
            out.extend_from_slice(b"    {\"span\": ");
            write_u64(&mut out, e.span.0);
            out.extend_from_slice(b", \"name\": ");
            write_str(&mut out, &e.name);
            out.extend_from_slice(b", \"at_ms\": ");
            write_f64(&mut out, e.at_ms);
            out.extend_from_slice(b", \"attrs\": ");
            write_attrs(&mut out, &e.attrs);
            out.push(b'}');
        }
        out.extend_from_slice(b"\n  ]\n}\n");
        into_text(out)
    }

    /// All spans recorded so far (open spans have `NaN` end times).
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.lock().unwrap().spans.clone()
    }

    /// Value of a counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

fn write_attrs(out: &mut Vec<u8>, attrs: &[(String, crate::span::OwnedAttr)]) {
    use crate::span::OwnedAttr;
    use serde::json::{write_f64, write_i64, write_str};
    out.push(b'{');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        write_str(out, k);
        out.extend_from_slice(b": ");
        match v {
            OwnedAttr::I64(n) => write_i64(out, *n),
            OwnedAttr::F64(f) => write_f64(out, *f),
            OwnedAttr::Str(s) => write_str(out, s),
        }
    }
    out.push(b'}');
}

impl Recorder for Telemetry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: &str, delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.counters.get_mut(counter) {
            Some(v) => *v = v.saturating_add(delta),
            None => {
                inner.counters.insert(counter.to_string(), delta);
            }
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    fn observe(&self, hist: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        match inner.histograms.get_mut(hist) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::new();
                h.observe(value);
                inner.histograms.insert(hist.to_string(), h);
            }
        }
    }

    fn span_start(
        &self,
        name: &str,
        parent: SpanId,
        start_ms: f64,
        attrs: &[(&str, AttrValue<'_>)],
    ) -> SpanId {
        let mut inner = self.inner.lock().unwrap();
        let id = SpanId(inner.spans.len() as u64 + 1);
        inner.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            start_ms,
            end_ms: f64::NAN,
            attrs: own_attrs(attrs),
        });
        id
    }

    fn span_end(&self, id: SpanId, end_ms: f64) {
        if id.is_none() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(s) = inner.spans.get_mut(id.0 as usize - 1) {
            s.end_ms = end_ms;
        }
    }

    fn event(&self, span: SpanId, name: &str, at_ms: f64, attrs: &[(&str, AttrValue<'_>)]) {
        let mut inner = self.inner.lock().unwrap();
        inner.events.push(EventRecord {
            span,
            name: name.to_string(),
            at_ms,
            attrs: own_attrs(attrs),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_form_a_tree_with_durations() {
        let t = Telemetry::new();
        let root = t.span_start("campaign", SpanId::NONE, 10.0, &[]);
        let kid = t.span_start("destination", root, 11.0, &[("server", AttrValue::I64(2))]);
        t.span_end(kid, 15.5);
        t.span_end(root, 20.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, SpanId::NONE);
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[1].duration_ms(), 4.5);
        assert!(spans.iter().all(|s| s.closed()));
    }

    #[test]
    fn counters_saturate_and_accumulate() {
        let t = Telemetry::new();
        t.add("c", 2);
        t.add("c", 3);
        assert_eq!(t.counter("c"), 5);
        t.add("c", u64::MAX);
        assert_eq!(t.counter("c"), u64::MAX);
        assert_eq!(t.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let t = Telemetry::new();
        t.gauge("g", 1.0);
        t.gauge("g", -2.5);
        let doc = t.metrics_doc();
        assert_eq!(doc.gauges["g"], -2.5);
    }

    #[test]
    fn ending_the_none_span_is_a_noop() {
        let t = Telemetry::new();
        t.span_end(SpanId::NONE, 5.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_json_is_deterministic() {
        let make = || {
            let t = Telemetry::new();
            let root = t.span_start("a", SpanId::NONE, 0.0, &[("k", AttrValue::Str("v"))]);
            t.event(root, "retry", 1.25, &[("attempt", AttrValue::I64(1))]);
            t.span_end(root, 2.0);
            t.trace_json()
        };
        assert_eq!(make(), make());
        assert!(make().contains("\"retry\""));
    }
}
