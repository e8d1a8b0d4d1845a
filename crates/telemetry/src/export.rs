//! Deterministic JSON export, the matching parser, and the
//! `report telemetry` summary table.
//!
//! The writer is hand-rolled with a fixed layout: sorted keys,
//! two-space indentation, strings and shortest-roundtrip floats (`{:?}`
//! text, `null` when not finite) from the workspace's one pair of
//! scalar writers in `serde::json`, trailing newline. Two exports of
//! equal registries are byte-identical — that is the contract the CI
//! `telemetry-smoke` job diffs against.

use serde::json::{write_f64, write_str, write_u64};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::HistogramSummary;

/// A parsed (or about-to-be-written) metrics export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsDoc {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsDoc {
    /// Serialize with the fixed deterministic layout.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        section(&mut out, "counters", &self.counters, |out, v| {
            write_u64(out, *v)
        });
        out.push_str(",\n");
        section(&mut out, "gauges", &self.gauges, |out, v| {
            write_f64(out, *v)
        });
        out.push_str(",\n");
        section(&mut out, "histograms", &self.histograms, |out, h| {
            out.push_str("{\n      \"count\": ");
            write_u64(out, h.count);
            let names = ["sum", "min", "max", "p50", "p95", "p99"];
            for (name, v) in names.iter().zip([h.sum, h.min, h.max, h.p50, h.p95, h.p99]) {
                out.push_str(&format!(",\n      \"{name}\": "));
                write_f64(out, v);
            }
            out.push_str(",\n      \"buckets\": [");
            for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
                out.push_str(if j == 0 { "[" } else { ", [" });
                write_f64(out, *lo);
                out.push_str(", ");
                write_f64(out, *hi);
                out.push_str(", ");
                write_u64(out, *c);
                out.push(']');
            }
            out.push_str("]\n    }");
        });
        out.push_str("\n}\n");
        out
    }

    /// Parse an export produced by `MetricsDoc::to_json`: any JSON of
    /// that shape, unknown keys ignored. The file is untrusted, so it
    /// is read by the workspace's one JSON reader (`serde_json`:
    /// bounded nesting, strict numbers and escapes, exact `u64`
    /// counters) and every defect is a [`ParseError`].
    pub fn parse(text: &str) -> Result<MetricsDoc, ParseError> {
        let root: Value =
            serde_json::from_str(text).map_err(|e| ParseError { msg: e.to_string() })?;
        let mut doc = MetricsDoc::default();
        for (key, v) in object(&root, "top-level")? {
            match key.as_str() {
                "counters" => {
                    for (name, n) in object(v, key)? {
                        doc.counters.insert(name.clone(), as_u64(n, name)?);
                    }
                }
                "gauges" => {
                    for (name, n) in object(v, key)? {
                        doc.gauges.insert(name.clone(), as_f64(n, name)?);
                    }
                }
                "histograms" => {
                    for (name, h) in object(v, key)? {
                        doc.histograms.insert(name.clone(), histogram(h, name)?);
                    }
                }
                _ => {}
            }
        }
        Ok(doc)
    }

    /// Human-readable summary table for `report telemetry`.
    pub fn render_table(&self) -> String {
        let mut out = String::from("telemetry summary\n");
        if self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty() {
            out.push_str("  (no metrics recorded)\n");
            return out;
        }
        let name_w = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<name_w$}  {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<name_w$}  {v:>12.3}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\nhistograms\n");
            out.push_str(&format!(
                "  {:<name_w$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "name", "count", "p50", "p95", "p99", "max"
            ));
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<name_w$}  {:>8}  {:>10.2}  {:>10.2}  {:>10.2}  {:>10.2}\n",
                    k, h.count, h.p50, h.p95, h.p99, h.max
                ));
            }
        }
        out
    }
}

/// Error from [`MetricsDoc::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

/// One `"name": { "key": value, ... }` member of the export, `value`
/// writing what follows each key.
fn section<V>(
    out: &mut String,
    name: &str,
    map: &BTreeMap<String, V>,
    value: impl Fn(&mut String, &V),
) {
    out.push_str(&format!("  \"{name}\": {{"));
    for (i, (k, v)) in map.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        write_str(out, k);
        out.push_str(": ");
        value(out, v);
    }
    out.push_str(if map.is_empty() { "}" } else { "\n  }" });
}

// ---- reading the value tree ---------------------------------------------

fn expected(what: &str, wanted: &str) -> ParseError {
    ParseError {
        msg: format!("{what}: expected {wanted}"),
    }
}

fn object<'a>(v: &'a Value, what: &str) -> Result<&'a Map, ParseError> {
    v.as_object().ok_or_else(|| expected(what, "an object"))
}

fn array<'a>(v: &'a Value, what: &str) -> Result<&'a [Value], ParseError> {
    (v.as_array().map(Vec::as_slice)).ok_or_else(|| expected(what, "an array"))
}

/// `null` is how the writer spells a non-finite float.
fn as_f64(v: &Value, what: &str) -> Result<f64, ParseError> {
    match v {
        Value::Null => Ok(f64::NAN),
        Value::Number(n) => n.as_f64().ok_or_else(|| expected(what, "a number")),
        _ => Err(expected(what, "a number")),
    }
}

fn as_u64(v: &Value, what: &str) -> Result<u64, ParseError> {
    let n = match v {
        Value::Number(n) => n.as_u64(),
        _ => None,
    };
    n.ok_or_else(|| expected(what, "a non-negative integer"))
}

fn histogram(v: &Value, name: &str) -> Result<HistogramSummary, ParseError> {
    let mut h = HistogramSummary::default();
    for (field, v) in object(v, name)? {
        match field.as_str() {
            "count" => h.count = as_u64(v, field)?,
            "sum" => h.sum = as_f64(v, field)?,
            "min" => h.min = as_f64(v, field)?,
            "max" => h.max = as_f64(v, field)?,
            "p50" => h.p50 = as_f64(v, field)?,
            "p95" => h.p95 = as_f64(v, field)?,
            "p99" => h.p99 = as_f64(v, field)?,
            "buckets" => {
                for bucket in array(v, field)? {
                    let [lo, hi, count] = array(bucket, "bucket")? else {
                        return Err(expected("bucket", "a [lo, hi, count] triple"));
                    };
                    let count = as_u64(count, "bucket count")?;
                    h.buckets
                        .push((as_f64(lo, "bucket lo")?, as_f64(hi, "bucket hi")?, count));
                }
            }
            _ => {}
        }
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsDoc {
        let mut doc = MetricsDoc::default();
        doc.counters.insert("a.count".into(), 7);
        doc.counters.insert("z".into(), 0);
        doc.gauges.insert("g\"quoted\"".into(), -1.25);
        doc.histograms.insert(
            "h_ms".into(),
            HistogramSummary {
                count: 3,
                sum: 6.5,
                min: 1.0,
                max: 4.0,
                p50: 1.5,
                p95: 4.0,
                p99: 4.0,
                buckets: vec![(0.0, 1.0, 1), (1.0, 2.0, 1), (2.0, 4.0, 1)],
            },
        );
        doc
    }

    #[test]
    fn roundtrip_is_lossless() {
        let doc = sample();
        let json = doc.to_json();
        let back = MetricsDoc::parse(&json).unwrap();
        assert_eq!(doc, back);
        // And stable: serializing the parse is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_doc_roundtrips() {
        let doc = MetricsDoc::default();
        let back = MetricsDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(doc, back);
    }

    #[test]
    fn export_is_sorted_and_terminated() {
        let json = sample().to_json();
        assert!(json.ends_with('\n'));
        let a = json.find("a.count").unwrap();
        let z = json.find("\"z\"").unwrap();
        assert!(a < z, "counters must be sorted");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(MetricsDoc::parse("not json").is_err());
        assert!(MetricsDoc::parse("{\"counters\": 5}").is_err());
        assert!(MetricsDoc::parse("{} trailing").is_err());
        assert!(MetricsDoc::parse("{\"counters\": {\"x\": -1}}").is_err());
    }

    /// The layout is a contract (CI diffs exports): these are the bytes
    /// the writer produced before its three sections shared one helper.
    #[test]
    fn export_bytes_are_pinned() {
        let empty = "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n";
        assert_eq!(MetricsDoc::default().to_json(), empty);
        let golden = r#"{
  "counters": {
    "a.count": 7,
    "z": 0
  },
  "gauges": {
    "g\"quoted\"": -1.25
  },
  "histograms": {
    "h_ms": {
      "count": 3,
      "sum": 6.5,
      "min": 1.0,
      "max": 4.0,
      "p50": 1.5,
      "p95": 4.0,
      "p99": 4.0,
      "buckets": [[0.0, 1.0, 1], [1.0, 2.0, 1], [2.0, 4.0, 1]]
    }
  }
}
"#;
        assert_eq!(sample().to_json(), golden);
    }

    /// Regression: the private recursive-descent reader had no depth
    /// bound, so a file of `[` overflowed the stack (abort, not error).
    #[test]
    fn hostile_nesting_is_a_parse_error() {
        let deep = "[".repeat(300_000);
        assert!(MetricsDoc::parse(&deep).is_err());
        // Also under a key the shape ignores, and inside the shape.
        assert!(MetricsDoc::parse(&format!("{{\"x\": {deep}")).is_err());
        assert!(MetricsDoc::parse(&format!("{{\"counters\": {{\"c\": {deep}")).is_err());
        let closed = format!("{{\"x\": {}{}}}", "[".repeat(200), "]".repeat(200));
        let err = MetricsDoc::parse(&closed).unwrap_err();
        assert!(
            err.to_string().starts_with("metrics parse error: "),
            "{err}"
        );
        // What is legal still skips: unknown keys of any shape.
        let odd = r#"{"x": [1, {"y": [true, false, null, "s\n"]}], "counters": {"c": 1}}"#;
        assert_eq!(MetricsDoc::parse(odd).unwrap().counters["c"], 1);
    }

    /// Regression: a lone surrogate escape became U+FFFD, so two
    /// different metric names could collapse into one key.
    #[test]
    fn lone_surrogates_are_refused_and_pairs_decoded() {
        assert!(MetricsDoc::parse(r#"{"counters": {"\ud83d": 1}}"#).is_err());
        assert!(MetricsDoc::parse(r#"{"counters": {"\ud83d\u0041": 1}}"#).is_err());
        let paired = MetricsDoc::parse(r#"{"counters": {"\ud83d\ude00": 1}}"#).unwrap();
        assert_eq!(paired.counters["\u{1f600}"], 1);
    }

    /// Regression: counters travelled through `f64`, so a value above
    /// 2^53 came back off by one.
    #[test]
    fn counters_above_2_pow_53_are_exact() {
        let mut doc = MetricsDoc::default();
        doc.counters.insert("big".into(), 9_007_199_254_740_993);
        doc.counters.insert("max".into(), u64::MAX);
        doc.histograms.insert(
            "h".into(),
            HistogramSummary {
                count: 9_007_199_254_740_993,
                buckets: vec![(0.0, 1.0, u64::MAX)],
                ..HistogramSummary::default()
            },
        );
        assert_eq!(MetricsDoc::parse(&doc.to_json()).unwrap(), doc);
    }

    /// Regression: spellings JSON does not have were read as numbers.
    #[test]
    fn malformed_numbers_are_refused() {
        for bad in ["01", "1.", "-", "+1", "1e", ".5", "1e999", "1.5"] {
            let text = format!("{{\"counters\": {{\"c\": {bad}}}}}");
            assert!(MetricsDoc::parse(&text).is_err(), "{bad}");
        }
        for bad in ["01", "1.", "-.5", "1e999", "\"1\"", "true"] {
            let text = format!("{{\"gauges\": {{\"g\": {bad}}}}}");
            assert!(MetricsDoc::parse(&text).is_err(), "{bad}");
        }
        let nan = MetricsDoc::parse(r#"{"gauges": {"g": null}}"#).unwrap();
        assert!(nan.gauges["g"].is_nan());
        for bad in ["[1, 2]", "[1, 2, 3, 4]", "[1, 2, 3.5]", "[1, 2, -3]", "7"] {
            let text = format!("{{\"histograms\": {{\"h\": {{\"buckets\": [{bad}]}}}}}}");
            assert!(MetricsDoc::parse(&text).is_err(), "{bad}");
        }
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample().render_table();
        assert!(table.contains("a.count"));
        assert!(table.contains("h_ms"));
        assert!(table.contains("p95"));
        let empty = MetricsDoc::default().render_table();
        assert!(empty.contains("no metrics"));
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let mut doc = MetricsDoc::default();
        doc.counters.insert("hop.17-ffaa:1:c3é\t".into(), 2);
        let back = MetricsDoc::parse(&doc.to_json()).unwrap();
        assert_eq!(doc, back);
    }
}
