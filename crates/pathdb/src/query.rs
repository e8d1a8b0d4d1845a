//! Query filters: a typed AST with MongoDB operator semantics.
//!
//! The paper's selection layer issues queries like *"all paths_stats
//! documents whose `server_id` is 2, whose `isds` contain no excluded
//! domain, and whose average loss is below 1 %"*. [`Filter`] expresses
//! exactly this: field comparisons with numeric widening, array-contains
//! semantics on `Eq`, set operators, existence checks, substring match
//! and boolean combinators.

use crate::document::Document;
use crate::value::Value;
use std::cmp::Ordering;

/// A predicate over documents.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Matches every document.
    True,
    /// Field equals value. If the field holds an array, matches when any
    /// element equals the value (Mongo semantics).
    Eq(String, Value),
    /// Negation of [`Filter::Eq`].
    Ne(String, Value),
    Gt(String, Value),
    Gte(String, Value),
    Lt(String, Value),
    Lte(String, Value),
    /// Field value (or any array element) is one of the listed values.
    In(String, Vec<Value>),
    /// Field value is none of the listed values (also true when the
    /// field is missing, as in Mongo).
    Nin(String, Vec<Value>),
    /// Field exists (or not).
    Exists(String, bool),
    /// String field contains the given substring.
    Contains(String, String),
    /// Array field: every listed value appears in it (`$all`).
    All(String, Vec<Value>),
    /// Array field: its length equals the given size (`$size`).
    Size(String, usize),
    And(Vec<Filter>),
    Or(Vec<Filter>),
    Not(Box<Filter>),
}

impl Filter {
    // -- builder helpers ------------------------------------------------

    pub fn eq<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Eq(k.into(), v.into())
    }
    pub fn ne<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Ne(k.into(), v.into())
    }
    pub fn gt<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Gt(k.into(), v.into())
    }
    pub fn gte<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Gte(k.into(), v.into())
    }
    pub fn lt<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Lt(k.into(), v.into())
    }
    pub fn lte<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Lte(k.into(), v.into())
    }
    pub fn is_in<K: Into<String>, V: Into<Value>>(k: K, vs: Vec<V>) -> Filter {
        Filter::In(k.into(), vs.into_iter().map(Into::into).collect())
    }
    pub fn not_in<K: Into<String>, V: Into<Value>>(k: K, vs: Vec<V>) -> Filter {
        Filter::Nin(k.into(), vs.into_iter().map(Into::into).collect())
    }
    pub fn exists<K: Into<String>>(k: K) -> Filter {
        Filter::Exists(k.into(), true)
    }
    pub fn contains<K: Into<String>, S: Into<String>>(k: K, s: S) -> Filter {
        Filter::Contains(k.into(), s.into())
    }

    /// Conjunction, flattening nested `And`s.
    pub fn and(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::True, f) | (f, Filter::True) => f,
            (Filter::And(mut a), Filter::And(b)) => {
                a.extend(b);
                Filter::And(a)
            }
            (Filter::And(mut a), f) => {
                a.push(f);
                Filter::And(a)
            }
            (f, Filter::And(mut b)) => {
                b.insert(0, f);
                Filter::And(b)
            }
            (a, b) => Filter::And(vec![a, b]),
        }
    }

    /// Disjunction.
    pub fn or(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::Or(mut a), Filter::Or(b)) => {
                a.extend(b);
                Filter::Or(a)
            }
            (Filter::Or(mut a), f) => {
                a.push(f);
                Filter::Or(a)
            }
            (f, Filter::Or(mut b)) => {
                b.insert(0, f);
                Filter::Or(b)
            }
            (a, b) => Filter::Or(vec![a, b]),
        }
    }

    pub fn negate(self) -> Filter {
        Filter::Not(Box::new(self))
    }

    // -- evaluation ------------------------------------------------------

    /// Evaluate the filter against a document.
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(k, v) => field_eq(doc, k, v),
            Filter::Ne(k, v) => !field_eq(doc, k, v),
            Filter::Gt(k, v) => field_cmp(doc, k, v, |o| o == Ordering::Greater),
            Filter::Gte(k, v) => field_cmp(doc, k, v, |o| o != Ordering::Less),
            Filter::Lt(k, v) => field_cmp(doc, k, v, |o| o == Ordering::Less),
            Filter::Lte(k, v) => field_cmp(doc, k, v, |o| o != Ordering::Greater),
            Filter::In(k, vs) => vs.iter().any(|v| field_eq(doc, k, v)),
            Filter::Nin(k, vs) => !vs.iter().any(|v| field_eq(doc, k, v)),
            Filter::Exists(k, want) => doc.get_path(k).is_some() == *want,
            Filter::Contains(k, s) => doc
                .get_path(k)
                .and_then(Value::as_str)
                .is_some_and(|f| f.contains(s.as_str())),
            Filter::All(k, vs) => match doc.get_path(k) {
                Some(Value::Array(arr)) => vs.iter().all(|v| arr.iter().any(|e| e.query_eq(v))),
                _ => vs.is_empty(),
            },
            Filter::Size(k, n) => doc
                .get_path(k)
                .and_then(Value::as_array)
                .is_some_and(|a| a.len() == *n),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
        }
    }
}

fn field_eq(doc: &Document, key: &str, v: &Value) -> bool {
    match doc.get_path(key) {
        Some(field) => {
            if field.query_eq(v) {
                return true;
            }
            // Array-contains semantics.
            matches!(field, Value::Array(arr) if arr.iter().any(|e| e.query_eq(v)))
        }
        None => v.is_null(),
    }
}

fn field_cmp(doc: &Document, key: &str, v: &Value, pred: impl Fn(Ordering) -> bool) -> bool {
    match doc.get_path(key) {
        Some(field) => field.query_cmp(v).is_some_and(pred),
        None => false,
    }
}

/// Sort direction for query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    Asc,
    Desc,
}

/// Find options: sort keys, pagination, projection.
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// Sort by these fields in order, under `Value::sort_cmp`'s total
    /// order; missing fields sort after present ones (ascending).
    pub sort: Vec<(String, Order)>,
    pub skip: usize,
    pub limit: Option<usize>,
    /// Keep only these fields (plus `_id`) when non-empty.
    pub projection: Vec<String>,
}

impl FindOptions {
    pub fn sorted_by<K: Into<String>>(mut self, key: K, order: Order) -> Self {
        self.sort.push((key.into(), order));
        self
    }

    pub fn limited(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    pub fn skipping(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }

    /// Comparison between documents under the configured sort keys.
    /// Uses `Value::sort_cmp`'s total order (type-ranked across
    /// types), so results are deterministic and an ordered index scan
    /// reproduces the same order.
    pub fn doc_cmp(&self, a: &Document, b: &Document) -> Ordering {
        for (key, order) in &self.sort {
            let av = a.get_path(key);
            let bv = b.get_path(key);
            let ord = match (av, bv) {
                (Some(x), Some(y)) => x.sort_cmp(y),
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            };
            let ord = match order {
                Order::Asc => ord,
                Order::Desc => ord.reverse(),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Apply the projection to one document.
    pub fn apply_projection(&self, doc: &Document) -> Document {
        if self.projection.is_empty() {
            return doc.clone();
        }
        let mut out = Document::new();
        if let Some(v) = doc.get("_id") {
            out.set("_id", v.clone());
        }
        for key in &self.projection {
            if key == "_id" {
                continue;
            }
            if let Some(v) = doc.get_path(key) {
                out.set_path(key, v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn sample() -> Document {
        doc! {
            "_id" => "2_15",
            "server_id" => 2i64,
            "hops" => 7i64,
            "avg_latency_ms" => 155.2f64,
            "isds" => vec![16i64, 17, 19],
            "status" => "alive",
            "nested" => doc! { "loss" => 0.02f64 },
        }
    }

    #[test]
    fn eq_with_numeric_widening() {
        assert!(Filter::eq("server_id", 2.0f64).matches(&sample()));
        assert!(Filter::eq("hops", 7i64).matches(&sample()));
        assert!(!Filter::eq("hops", 6i64).matches(&sample()));
    }

    #[test]
    fn eq_on_array_is_contains() {
        assert!(Filter::eq("isds", 17i64).matches(&sample()));
        assert!(!Filter::eq("isds", 18i64).matches(&sample()));
    }

    #[test]
    fn missing_field_equals_null_only() {
        assert!(Filter::eq("nope", Value::Null).matches(&sample()));
        assert!(!Filter::eq("nope", 1i64).matches(&sample()));
    }

    #[test]
    fn range_operators() {
        let d = sample();
        assert!(Filter::gt("avg_latency_ms", 100i64).matches(&d));
        assert!(Filter::lt("avg_latency_ms", 200i64).matches(&d));
        assert!(Filter::gte("hops", 7i64).matches(&d));
        assert!(Filter::lte("hops", 7i64).matches(&d));
        assert!(!Filter::gt("hops", 7i64).matches(&d));
        // Cross-type range never matches.
        assert!(!Filter::gt("status", 3i64).matches(&d));
        // Missing field never matches a range.
        assert!(!Filter::lt("nope", 3i64).matches(&d));
    }

    #[test]
    fn in_and_nin() {
        let d = sample();
        assert!(Filter::is_in("hops", vec![6i64, 7]).matches(&d));
        assert!(!Filter::is_in("hops", vec![5i64]).matches(&d));
        assert!(Filter::not_in("hops", vec![5i64, 6]).matches(&d));
        // Nin is true for missing fields, like Mongo.
        assert!(Filter::not_in("nope", vec![1i64]).matches(&d));
        // In with array field: membership of any element.
        assert!(Filter::is_in("isds", vec![19i64, 99]).matches(&d));
    }

    #[test]
    fn exists_contains_all_size() {
        let d = sample();
        assert!(Filter::exists("status").matches(&d));
        assert!(Filter::Exists("nope".into(), false).matches(&d));
        assert!(Filter::exists("nested.loss").matches(&d));
        assert!(Filter::contains("_id", "_15").matches(&d));
        assert!(!Filter::contains("_id", "xx").matches(&d));
        let all = |vs: [i64; 2]| Filter::All("isds".into(), vs.map(Value::from).to_vec());
        assert!(all([16, 19]).matches(&d));
        assert!(!all([16, 18]).matches(&d));
        assert!(Filter::Size("isds".into(), 3).matches(&d));
        assert!(!Filter::Size("isds".into(), 2).matches(&d));
    }

    #[test]
    fn boolean_combinators() {
        let d = sample();
        let f = Filter::eq("server_id", 2i64)
            .and(Filter::lt("avg_latency_ms", 200.0))
            .and(Filter::not_in("isds", vec![20i64]));
        assert!(f.matches(&d));
        let g = Filter::eq("server_id", 9i64).or(Filter::eq("status", "alive"));
        assert!(g.matches(&d));
        assert!(!g.clone().negate().matches(&d));
        // And flattening keeps all clauses.
        if let Filter::And(clauses) = &f {
            assert_eq!(clauses.len(), 3);
        } else {
            panic!("expected flattened And");
        }
    }

    #[test]
    fn and_with_true_simplifies() {
        let f = Filter::True.and(Filter::eq("hops", 7i64));
        assert_eq!(f, Filter::eq("hops", 7i64));
    }

    #[test]
    fn nested_dotted_queries() {
        assert!(Filter::lt("nested.loss", 0.1f64).matches(&sample()));
        assert!(!Filter::gt("nested.loss", 0.1f64).matches(&sample()));
    }

    #[test]
    fn sort_and_projection() {
        let mut opts = FindOptions::default().sorted_by("hops", Order::Desc);
        opts.projection.push("hops".into());
        let a = doc! { "_id" => "a", "hops" => 6i64, "x" => 1i64 };
        let b = doc! { "_id" => "b", "hops" => 7i64, "x" => 2i64 };
        assert_eq!(opts.doc_cmp(&a, &b), Ordering::Greater);
        let p = opts.apply_projection(&a);
        assert!(p.contains_key("_id"));
        assert!(p.contains_key("hops"));
        assert!(!p.contains_key("x"));
    }

    #[test]
    fn sort_missing_fields_last() {
        let opts = FindOptions::default().sorted_by("k", Order::Asc);
        let with = doc! { "k" => 1i64 };
        let without = doc! { "z" => 1i64 };
        assert_eq!(opts.doc_cmp(&with, &without), Ordering::Less);
    }
}
