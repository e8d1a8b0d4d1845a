//! Ordered documents: the unit of storage, a MongoDB-style record.

use crate::value::Value;
use std::fmt;

/// An insertion-ordered string-keyed record.
///
/// Field order is preserved (like BSON); lookup is linear, which is the
/// right trade-off for the paper's documents (≤ ~15 fields). Dotted
/// paths (`"stats.latency_ms"`) address nested documents.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    fields: Vec<(String, Value)>,
}

impl Document {
    pub fn new() -> Document {
        Document::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.fields.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Direct (non-dotted) field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Set a direct field, overwriting in place to preserve order.
    pub fn set<K: Into<String>, V: Into<Value>>(&mut self, key: K, value: V) -> &mut Self {
        let key = key.into();
        let value = value.into();
        match self.fields.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.fields.push((key, value)),
        }
        self
    }

    /// Remove a direct field, returning its value.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Dotted-path lookup: `"a.b.c"` descends nested documents.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut cur: Option<&Value> = None;
        for (i, part) in path.split('.').enumerate() {
            cur = if i == 0 {
                self.get(part)
            } else {
                cur?.as_doc()?.get(part)
            };
        }
        cur
    }

    /// Dotted-path set, creating intermediate documents as needed.
    /// Overwrites non-document intermediates.
    pub fn set_path<V: Into<Value>>(&mut self, path: &str, value: V) {
        let parts: Vec<&str> = path.split('.').collect();
        set_path_inner(self, &parts, value.into());
    }

    /// Dotted-path removal; returns the removed value.
    pub fn remove_path(&mut self, path: &str) -> Option<Value> {
        let (head, rest) = match path.split_once('.') {
            Some((h, r)) => (h, Some(r)),
            None => (path, None),
        };
        match rest {
            None => self.remove(head),
            Some(rest) => match self.fields.iter_mut().find(|(k, _)| k == head) {
                Some((_, Value::Doc(d))) => d.remove_path(rest),
                _ => None,
            },
        }
    }

    /// The `_id` field as a string, if present.
    pub fn id(&self) -> Option<&str> {
        self.get("_id").and_then(Value::as_str)
    }
}

fn set_path_inner(doc: &mut Document, parts: &[&str], value: Value) {
    match parts {
        [] => {}
        [leaf] => {
            doc.set(*leaf, value);
        }
        [head, rest @ ..] => {
            let needs_doc = !matches!(doc.get(head), Some(Value::Doc(_)));
            if needs_doc {
                doc.set(*head, Document::new());
            }
            if let Some(Value::Doc(d)) = doc
                .fields
                .iter_mut()
                .find(|(k, _)| k == head)
                .map(|(_, v)| v)
            {
                set_path_inner(d, rest, value);
            }
        }
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        crate::value::write_json_doc(&mut out, self);
        f.write_str(&out)
    }
}

impl<'a> IntoIterator for &'a Document {
    type Item = (&'a str, &'a Value);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a Value)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.fields.iter().map(|(k, v)| (k.as_str(), v)))
    }
}

/// Terse document literal:
/// `doc! { "server_id" => 2, "hops" => 6 }`.
#[macro_export]
macro_rules! doc {
    () => { $crate::document::Document::new() };
    ($($k:expr => $v:expr),+ $(,)?) => {{
        let mut d = $crate::document::Document::new();
        $( d.set($k, $v); )+
        d
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_preserves_order_and_overwrites_in_place() {
        let mut d = Document::new();
        d.set("a", 1i64).set("b", 2i64).set("c", 3i64);
        d.set("b", 20i64);
        let keys: Vec<&str> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
        assert_eq!(d.get("b"), Some(&Value::Int(20)));
    }

    #[test]
    fn doc_macro_builds_documents() {
        let d = doc! { "x" => 1i64, "y" => "hello" };
        assert_eq!(d.get("x"), Some(&Value::Int(1)));
        assert_eq!(d.get("y").unwrap().as_str(), Some("hello"));
    }

    #[test]
    fn dotted_path_get_set_remove() {
        let mut d = Document::new();
        d.set_path("stats.latency.avg", 21.5f64);
        d.set_path("stats.latency.max", 30.0f64);
        assert_eq!(d.get_path("stats.latency.avg"), Some(&Value::Float(21.5)));
        assert_eq!(d.get_path("stats.missing"), None);
        assert_eq!(d.get_path("missing.deep"), None);
        let removed = d.remove_path("stats.latency.avg");
        assert_eq!(removed, Some(Value::Float(21.5)));
        assert_eq!(d.get_path("stats.latency.avg"), None);
        assert_eq!(d.get_path("stats.latency.max"), Some(&Value::Float(30.0)));
    }

    #[test]
    fn set_path_overwrites_scalar_intermediate() {
        let mut d = doc! { "a" => 5i64 };
        d.set_path("a.b", 1i64);
        assert_eq!(d.get_path("a.b"), Some(&Value::Int(1)));
    }

    #[test]
    fn id_accessor() {
        let d = doc! { "_id" => "2_15" };
        assert_eq!(d.id(), Some("2_15"));
        assert_eq!(Document::new().id(), None);
        let n = doc! { "_id" => 7i64 };
        assert_eq!(n.id(), None, "non-string ids are not exposed as &str");
    }

    #[test]
    fn remove_missing_is_none() {
        let mut d = doc! { "a" => 1i64 };
        assert_eq!(d.remove("zz"), None);
        assert_eq!(d.remove_path("a.b"), None);
    }
}
