//! Owned span and event records kept by the collecting recorder.

use crate::recorder::{AttrValue, SpanId};

/// An attribute value materialized into owned storage.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedAttr {
    I64(i64),
    F64(f64),
    Str(String),
}

impl OwnedAttr {
    fn from_borrowed(v: &AttrValue<'_>) -> OwnedAttr {
        match v {
            AttrValue::I64(i) => OwnedAttr::I64(*i),
            AttrValue::F64(f) => OwnedAttr::F64(*f),
            AttrValue::Str(s) => OwnedAttr::Str((*s).to_string()),
        }
    }
}

pub(crate) fn own_attrs(attrs: &[(&str, AttrValue<'_>)]) -> Vec<(String, OwnedAttr)> {
    attrs
        .iter()
        .map(|(k, v)| ((*k).to_string(), OwnedAttr::from_borrowed(v)))
        .collect()
}

/// One node of the span tree. `end_ms` is `NaN` until the span closes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub start_ms: f64,
    pub end_ms: f64,
    pub attrs: Vec<(String, OwnedAttr)>,
}

impl SpanRecord {
    pub fn closed(&self) -> bool {
        !self.end_ms.is_nan()
    }

    pub fn duration_ms(&self) -> f64 {
        if self.closed() {
            self.end_ms - self.start_ms
        } else {
            0.0
        }
    }
}

/// A point-in-time event, optionally attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EventRecord {
    pub span: SpanId,
    pub name: String,
    pub at_ms: f64,
    pub attrs: Vec<(String, OwnedAttr)>,
}
