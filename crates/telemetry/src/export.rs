//! Deterministic JSON export, the matching parser, and the
//! `report telemetry` summary table.
//!
//! The writer is hand-rolled with a fixed layout: sorted keys,
//! two-space indentation, strings and shortest-roundtrip floats (`{:?}`
//! text, `null` when not finite) from the workspace's one pair of
//! scalar writers in `serde::json`, trailing newline. Two exports of
//! equal registries are byte-identical — that is the contract the CI
//! `telemetry-smoke` job diffs against.

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
    pub fn to_json(&self) -> String {
        use serde::json::{write_f64, write_str};
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, k);
            out.push_str(": ");
            out.push_str(&v.to_string());
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, k);
            out.push_str(": ");
            write_f64(&mut out, *v);
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, k);
            out.push_str(": {\n");
            out.push_str("      \"count\": ");
            out.push_str(&h.count.to_string());
            out.push_str(",\n      \"sum\": ");
            write_f64(&mut out, h.sum);
            out.push_str(",\n      \"min\": ");
            write_f64(&mut out, h.min);
            out.push_str(",\n      \"max\": ");
            write_f64(&mut out, h.max);
            out.push_str(",\n      \"p50\": ");
            write_f64(&mut out, h.p50);
            out.push_str(",\n      \"p95\": ");
            write_f64(&mut out, h.p95);
            out.push_str(",\n      \"p99\": ");
            write_f64(&mut out, h.p99);
            out.push_str(",\n      \"buckets\": [");
            for (j, (lo, hi, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('[');
                write_f64(&mut out, *lo);
                out.push_str(", ");
                write_f64(&mut out, *hi);
                out.push_str(", ");
                out.push_str(&c.to_string());
                out.push(']');
            }
            out.push_str("]\n    }");
        }
        out.push_str(if self.histograms.is_empty() {
            "}\n}\n"
        } else {
            "\n  }\n}\n"
        });
        out
    }

    /// Parse an export produced by [`MetricsDoc::to_json`] (any valid
    /// JSON with the same shape is accepted).
    pub fn parse(text: &str) -> Result<MetricsDoc, ParseError> {
        let value = Parser::new(text).parse_document()?;
        let top = value.as_obj("top-level")?;
        let mut doc = MetricsDoc::default();
        for (key, v) in top {
            match key.as_str() {
                "counters" => {
                    for (name, n) in v.as_obj("counters")? {
                        doc.counters.insert(name.clone(), n.as_u64(name)?);
                    }
                }
                "gauges" => {
                    for (name, n) in v.as_obj("gauges")? {
                        doc.gauges.insert(name.clone(), n.as_f64(name)?);
                    }
                }
                "histograms" => {
                    for (name, h) in v.as_obj("histograms")? {
                        let fields = h.as_obj(name)?;
                        let mut s = HistogramSummary::default();
                        for (f, fv) in fields {
                            match f.as_str() {
                                "count" => s.count = fv.as_u64(f)?,
                                "sum" => s.sum = fv.as_f64(f)?,
                                "min" => s.min = fv.as_f64(f)?,
                                "max" => s.max = fv.as_f64(f)?,
                                "p50" => s.p50 = fv.as_f64(f)?,
                                "p95" => s.p95 = fv.as_f64(f)?,
                                "p99" => s.p99 = fv.as_f64(f)?,
                                "buckets" => {
                                    for b in fv.as_arr(f)? {
                                        let triple = b.as_arr("bucket")?;
                                        if triple.len() != 3 {
                                            return Err(ParseError::shape(
                                                "bucket is not a [lo, hi, count] triple",
                                            ));
                                        }
                                        s.buckets.push((
                                            triple[0].as_f64("bucket lo")?,
                                            triple[1].as_f64("bucket hi")?,
                                            triple[2].as_u64("bucket count")?,
                                        ));
                                    }
                                }
                                _ => {}
                            }
                        }
                        doc.histograms.insert(name.clone(), s);
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

impl ParseError {
    fn shape(msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "metrics parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

// ---- a minimal JSON reader (numbers, strings, arrays, objects) -------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], ParseError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(ParseError {
                msg: format!("{what}: expected an object"),
            }),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], ParseError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(ParseError {
                msg: format!("{what}: expected an array"),
            }),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, ParseError> {
        match self {
            Json::Num(n) => Ok(*n),
            Json::Null => Ok(f64::NAN),
            _ => Err(ParseError {
                msg: format!("{what}: expected a number"),
            }),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, ParseError> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(ParseError {
                msg: format!("{what}: expected a non-negative integer"),
            }),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(mut self) -> Result<Json, ParseError> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(ParseError::shape("trailing data after document"));
        }
        Ok(v)
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: format!("{msg} at byte {}", self.pos),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':', "expected ':'")?;
            let v = self.value()?;
            fields.push((key, v));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected '\"'")?;
        let mut s = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = (start + len).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
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
