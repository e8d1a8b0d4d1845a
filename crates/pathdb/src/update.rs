//! Document update operators (`$set`, `$unset`, `$inc`, `$push`, ...).

use crate::document::Document;
use crate::value::Value;

/// One mutation applied to a matching document.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Set a (dotted) field.
    Set(String, Value),
    /// Remove a (dotted) field.
    Unset(String),
    /// Numerically increment a field; missing fields start at 0.
    /// Integer fields incremented by integers stay integers.
    Inc(String, f64),
    /// Append to an array field; missing fields become 1-element arrays;
    /// non-array fields are replaced.
    Push(String, Value),
    /// Set only if the field is currently absent.
    SetOnInsert(String, Value),
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

    pub fn unset<K: Into<String>>(mut self, k: K) -> Update {
        self.ops.push(UpdateOp::Unset(k.into()));
        self
    }

    pub fn inc<K: Into<String>>(mut self, k: K, by: f64) -> Update {
        self.ops.push(UpdateOp::Inc(k.into(), by));
        self
    }

    pub fn push<K: Into<String>, V: Into<Value>>(mut self, k: K, v: V) -> Update {
        self.ops.push(UpdateOp::Push(k.into(), v.into()));
        self
    }

    pub fn set_on_insert<K: Into<String>, V: Into<Value>>(mut self, k: K, v: V) -> Update {
        self.ops.push(UpdateOp::SetOnInsert(k.into(), v.into()));
        self
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// Apply all operators to `doc` in order. The `_id` field is
    /// immutable: operators addressing it are ignored.
    pub fn apply(&self, doc: &mut Document) {
        for op in &self.ops {
            match op {
                UpdateOp::Set(k, v) => {
                    if k != "_id" {
                        doc.set_path(k, v.clone());
                    }
                }
                UpdateOp::Unset(k) => {
                    if k != "_id" {
                        doc.remove_path(k);
                    }
                }
                UpdateOp::Inc(k, by) => {
                    if k == "_id" {
                        continue;
                    }
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
                UpdateOp::Push(k, v) => {
                    if k == "_id" {
                        continue;
                    }
                    match doc.get_path(k) {
                        Some(Value::Array(arr)) => {
                            let mut arr = arr.clone();
                            arr.push(v.clone());
                            doc.set_path(k, Value::Array(arr));
                        }
                        _ => doc.set_path(k, Value::Array(vec![v.clone()])),
                    }
                }
                UpdateOp::SetOnInsert(k, v) => {
                    if k != "_id" && doc.get_path(k).is_none() {
                        doc.set_path(k, v.clone());
                    }
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
    fn set_and_unset() {
        let mut d = doc! { "a" => 1i64 };
        Update::new().set("b", 2i64).unset("a").apply(&mut d);
        assert_eq!(d.get("a"), None);
        assert_eq!(d.get("b"), Some(&Value::Int(2)));
    }

    #[test]
    fn id_is_immutable() {
        let mut d = doc! { "_id" => "x", "a" => 1i64 };
        Update::new()
            .set("_id", "y")
            .unset("_id")
            .inc("_id", 1.0)
            .push("_id", 1i64)
            .apply(&mut d);
        assert_eq!(d.id(), Some("x"));
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
    fn push_semantics() {
        let mut d = doc! { "a" => vec![1i64], "scalar" => 9i64 };
        Update::new()
            .push("a", 2i64)
            .push("missing", 1i64)
            .push("scalar", 1i64)
            .apply(&mut d);
        assert_eq!(
            d.get("a"),
            Some(&Value::Array(vec![1i64.into(), 2i64.into()]))
        );
        assert_eq!(d.get("missing"), Some(&Value::Array(vec![1i64.into()])));
        assert_eq!(d.get("scalar"), Some(&Value::Array(vec![1i64.into()])));
    }

    #[test]
    fn set_on_insert_only_fills_gaps() {
        let mut d = doc! { "a" => 1i64 };
        Update::new()
            .set_on_insert("a", 99i64)
            .set_on_insert("b", 2i64)
            .apply(&mut d);
        assert_eq!(d.get("a"), Some(&Value::Int(1)));
        assert_eq!(d.get("b"), Some(&Value::Int(2)));
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
