//! Document update operators (`$set`, `$inc`).

use crate::document::Document;
use crate::value::Value;

/// One mutation applied to a matching document.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum UpdateOp {
    /// Set a (dotted) field.
    Set(String, Value),
    /// Numerically increment a field; missing fields start at 0.
    /// Integer fields incremented by integers stay integers.
    Inc(String, f64),
}

/// An ordered list of update operators.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Update {
    ops: Vec<UpdateOp>,
}

impl Update {
    pub fn new() -> Update {
        Update::default()
    }

    pub fn set<K: Into<String>, V: Into<Value>>(mut self, k: K, v: V) -> Update {
        self.ops.push(UpdateOp::Set(k.into(), v.into()));
        self
    }

    pub fn inc<K: Into<String>>(mut self, k: K, by: f64) -> Update {
        self.ops.push(UpdateOp::Inc(k.into(), by));
        self
    }

    /// Apply all operators to `doc` in order. The `_id` field is
    /// immutable: operators addressing it, or a dotted path under it,
    /// are ignored.
    pub(crate) fn apply(&self, doc: &mut Document) {
        for op in &self.ops {
            let (UpdateOp::Set(k, _) | UpdateOp::Inc(k, _)) = op;
            if k.split('.').next() == Some("_id") {
                continue;
            }
            match op {
                UpdateOp::Set(k, v) => doc.set_path(k, v.clone()),
                UpdateOp::Inc(k, by) => {
                    let next = match doc.get_path(k) {
                        Some(v) => {
                            // A sum that leaves i64 carries on as a float.
                            let whole = match v {
                                Value::Int(i) if by.fract() == 0.0 => i.checked_add(*by as i64),
                                _ => None,
                            };
                            match (whole, v.as_number()) {
                                (Some(n), _) => Value::Int(n),
                                (None, Some(f)) => Value::Float(f + by),
                                (None, None) => continue, // non-numeric: no-op
                            }
                        }
                        None => {
                            if by.fract() == 0.0 {
                                Value::Int(*by as i64)
                            } else {
                                Value::Float(*by)
                            }
                        }
                    };
                    doc.set_path(k, next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn set_adds_and_overwrites() {
        let mut d = doc! { "a" => 1i64 };
        Update::new().set("b", 2i64).set("a", 3i64).apply(&mut d);
        assert_eq!(d.get("a"), Some(&Value::Int(3)));
        assert_eq!(d.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn id_is_immutable() {
        let mut d = doc! { "_id" => "x", "a" => 1i64 };
        Update::new()
            .set("_id", "y")
            .inc("_id", 1.0)
            .set("_id.x", 1i64)
            .inc("_id.n", 1.0)
            .apply(&mut d);
        assert_eq!(d, doc! { "_id" => "x", "a" => 1i64 });
    }

    #[test]
    fn inc_integer_stays_integer() {
        let mut d = doc! { "n" => 5i64 };
        Update::new().inc("n", 2.0).apply(&mut d);
        assert_eq!(d.get("n"), Some(&Value::Int(7)));
    }

    #[test]
    fn inc_past_i64_carries_on_as_a_float() {
        let mut d = doc! { "hi" => i64::MAX, "lo" => i64::MIN, "fits" => i64::MAX - 1 };
        Update::new()
            .inc("hi", 1.0)
            .inc("lo", -1.0)
            .inc("fits", 1.0)
            .apply(&mut d);
        assert_eq!(d.get("hi"), Some(&Value::Float(i64::MAX as f64 + 1.0)));
        assert_eq!(d.get("lo"), Some(&Value::Float(i64::MIN as f64 - 1.0)));
        assert_eq!(d.get("fits"), Some(&Value::Int(i64::MAX)));
    }

    #[test]
    fn inc_float_and_missing() {
        let mut d = doc! { "f" => 1.5f64 };
        Update::new()
            .inc("f", 0.5)
            .inc("new", 3.0)
            .inc("newf", 0.25)
            .apply(&mut d);
        assert_eq!(d.get("f"), Some(&Value::Float(2.0)));
        assert_eq!(d.get("new"), Some(&Value::Int(3)));
        assert_eq!(d.get("newf"), Some(&Value::Float(0.25)));
    }

    #[test]
    fn inc_non_numeric_is_noop() {
        let mut d = doc! { "s" => "text" };
        Update::new().inc("s", 1.0).apply(&mut d);
        assert_eq!(d.get("s").unwrap().as_str(), Some("text"));
    }

    #[test]
    fn dotted_updates() {
        let mut d = Document::new();
        Update::new()
            .set("s.latency.avg", 20.0)
            .inc("s.count", 1.0)
            .apply(&mut d);
        assert_eq!(d.get_path("s.latency.avg"), Some(&Value::Float(20.0)));
        assert_eq!(d.get_path("s.count"), Some(&Value::Int(1)));
    }
}
