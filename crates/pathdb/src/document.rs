//! Ordered documents: the unit of storage, a MongoDB-style record.

use crate::value::Value;
use std::cell::RefCell;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// An insertion-ordered string-keyed record.
///
/// Field order is preserved (like BSON); lookup is linear, which is the
/// right trade-off for the paper's documents (≤ ~15 fields). Dotted
/// paths (`"stats.latency_ms"`) address nested documents.
///
/// Field names are shared, not copied: every row of a collection spells
/// the same fifteen-odd names, so a name is an `Arc<str>` from a
/// per-thread table, a row holds refcounts, and cloning a row bumps
/// them. The table is bounded — names of at most 64 bytes, at most
/// 1 024 of them per thread; any other name is a copy of its own per
/// row — so a file of hostile, ever-new names cannot grow it. Sharing is
/// invisible: equality, order and every byte written use the names'
/// content.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Document {
    fields: Vec<(Arc<str>, Value)>,
}

/// Longest name the per-thread table shares.
const SHARED_NAME_MAX: usize = 64;
/// Names the per-thread table holds at most.
const SHARED_NAMES: usize = 1024;

thread_local! {
    static NAMES: RefCell<HashSet<Arc<str>>> = RefCell::new(HashSet::new());
}

/// `key` as a field name: the table's shared copy when it has (or has
/// room for) one, else a copy of its own.
fn field_name(key: &str) -> Arc<str> {
    if key.len() > SHARED_NAME_MAX {
        return Arc::from(key);
    }
    NAMES.with(|names| {
        let mut names = names.borrow_mut();
        if let Some(name) = names.get(key) {
            return Arc::clone(name);
        }
        let name: Arc<str> = Arc::from(key);
        if names.len() < SHARED_NAMES {
            names.insert(Arc::clone(&name));
        }
        name
    })
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
        self.fields
            .iter()
            .find(|(k, _)| **k == *key)
            .map(|(_, v)| v)
    }

    /// Set a direct field, overwriting in place to preserve order.
    pub fn set<K: AsRef<str>, V: Into<Value>>(&mut self, key: K, value: V) -> &mut Self {
        let key = key.as_ref();
        let value = value.into();
        match self.fields.iter_mut().find(|(k, _)| **k == *key) {
            Some((_, v)) => *v = value,
            None => self.fields.push((field_name(key), value)),
        }
        self
    }

    /// Remove a direct field, returning its value.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| **k == *key)?;
        Some(self.fields.remove(i).1)
    }

    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (&**k, v))
    }

    /// Dotted-path lookup: `"a.b.c"` descends nested documents.
    pub(crate) fn get_path(&self, path: &str) -> Option<&Value> {
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
    pub(crate) fn set_path<V: Into<Value>>(&mut self, path: &str, value: V) {
        let parts: Vec<&str> = path.split('.').collect();
        set_path_inner(self, &parts, value.into());
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
                .find(|(k, _)| **k == **head)
                .map(|(_, v)| v)
            {
                set_path_inner(d, rest, value);
            }
        }
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        crate::value::write_json_doc(&mut out, self);
        f.write_str(&serde::json::into_text(out))
    }
}

impl<'a> IntoIterator for &'a Document {
    type Item = (&'a str, &'a Value);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a Value)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.fields.iter().map(|(k, v)| (&**k, v)))
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
    fn dotted_path_get_set() {
        let mut d = Document::new();
        d.set_path("stats.latency.avg", 21.5f64);
        d.set_path("stats.latency.max", 30.0f64);
        assert_eq!(d.get_path("stats.latency.avg"), Some(&Value::Float(21.5)));
        assert_eq!(d.get_path("stats.missing"), None);
        assert_eq!(d.get_path("missing.deep"), None);
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

    /// The `Arc` a row holds for `key`.
    fn name<'a>(d: &'a Document, key: &str) -> &'a Arc<str> {
        &d.fields.iter().find(|(k, _)| &**k == key).unwrap().0
    }

    #[test]
    fn rows_share_field_names_however_they_were_built() {
        use crate::snapshot::{decode_jsonl, encode_jsonl_seq, LoadOptions};
        use crate::wal::{encode_group, read_wal, WalOp};
        let built = doc! { "_id" => "a", "avg_latency_ms" => 20.5f64 };
        let mut set = Document::new();
        set.set(String::from("avg_latency_ms"), 21.0f64);
        let json = Value::from_json(&Value::Doc(built.clone()).to_json());
        let Value::Doc(json) = json else {
            panic!("a document")
        };
        let log = encode_group(&[WalOp::Insert {
            coll: "paths_stats".into(),
            doc: built.clone(),
        }]);
        let mut logged = Vec::new();
        read_wal(&log[..], log.len() as u64, |group| logged.extend(group)).unwrap();
        let [WalOp::Insert { doc: logged, .. }] = &logged[..] else {
            panic!("one insert")
        };
        let slice = encode_jsonl_seq([(7, &built)].into_iter());
        let (sliced, _) = decode_jsonl(&slice, "slice", &LoadOptions::default()).unwrap();
        let first = name(&built, "avg_latency_ms");
        for other in [&set, &json, logged, &sliced[0], &built.clone()] {
            assert!(Arc::ptr_eq(first, name(other, "avg_latency_ms")));
        }
    }

    #[test]
    fn the_name_table_stops_at_its_cap() {
        let names: Vec<String> = (0..2000).map(|i| format!("field_{i}")).collect();
        let rows: Vec<Document> = names.iter().map(|n| doc! { n => 1i64 }).collect();
        assert_eq!(NAMES.with(|t| t.borrow().len()), SHARED_NAMES);
        // Past the cap, and past the length bound, each row has its own copy.
        let last = names.last().unwrap();
        let again = doc! { last => 2i64 };
        assert!(!Arc::ptr_eq(name(&rows[1999], last), name(&again, last)));
        let long = "n".repeat(SHARED_NAME_MAX + 1);
        let (a, b) = (doc! { &long => 1i64 }, doc! { &long => 1i64 });
        assert!(!Arc::ptr_eq(name(&a, &long), name(&b, &long)));
        for row in rows.into_iter().chain([a]) {
            let row = Value::Doc(row);
            assert_eq!(Value::from_json(&row.to_json()), row);
        }
    }

    #[test]
    fn remove_missing_is_none() {
        let mut d = doc! { "a" => 1i64 };
        assert_eq!(d.remove("zz"), None);
    }
}
