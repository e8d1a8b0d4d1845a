//! Document update operators (`$set`).

use crate::document::Document;
use crate::value::Value;

/// An ordered list of `$set`s of (dotted) fields.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Update {
    sets: Vec<(String, Value)>,
}

impl Update {
    pub fn new() -> Update {
        Update::default()
    }

    pub fn set<K: Into<String>, V: Into<Value>>(mut self, k: K, v: V) -> Update {
        self.sets.push((k.into(), v.into()));
        self
    }

    /// Apply all operators to `doc` in order. The `_id` field is
    /// immutable: operators addressing it, or a dotted path under it,
    /// are ignored.
    pub(crate) fn apply(&self, doc: &mut Document) {
        for (k, v) in &self.sets {
            if k.split('.').next() != Some("_id") {
                doc.set_path(k, v.clone());
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
            .set("_id.x", 1i64)
            .apply(&mut d);
        assert_eq!(d, doc! { "_id" => "x", "a" => 1i64 });
    }

    #[test]
    fn dotted_updates() {
        let mut d = Document::new();
        Update::new()
            .set("s.latency.avg", 20.0)
            .set("s.count", 1i64)
            .apply(&mut d);
        let d = crate::RowRef::from(&d);
        assert_eq!(d.get_path("s.latency.avg"), Some(Value::Float(20.0).view()));
        assert_eq!(d.get_path("s.count"), Some(Value::Int(1).view()));
    }
}
