//! Query filters: a typed AST with MongoDB operator semantics.
//!
//! The paper's selection layer issues queries like *"all paths_stats
//! documents whose `server_id` is 2, whose `isds` contain no excluded
//! domain, and whose average loss is below 1 %"*. [`Filter`] expresses
//! exactly this: field comparisons with numeric widening, array-contains
//! semantics on `Eq`, exclusion from a set, existence checks, substring
//! match and conjunction — the operators the system sends, no others.

use crate::document::RowRef;
use crate::value::{Value, ValueRef};
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
    Gte(String, Value),
    Lt(String, Value),
    Lte(String, Value),
    /// Field value is none of the listed values (also true when the
    /// field is missing, as in Mongo).
    Nin(String, Vec<Value>),
    /// Field exists (or not).
    Exists(String, bool),
    /// String field contains the given substring.
    Contains(String, String),
    And(Vec<Filter>),
}

impl Filter {
    // -- builder helpers ------------------------------------------------

    pub fn eq<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Eq(k.into(), v.into())
    }
    pub fn ne<K: Into<String>, V: Into<Value>>(k: K, v: V) -> Filter {
        Filter::Ne(k.into(), v.into())
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

    // -- evaluation ------------------------------------------------------

    /// Evaluate the filter against a row (a [`RowRef`], or a
    /// `&Document`).
    pub fn matches<'a>(&self, row: impl Into<RowRef<'a>>) -> bool {
        self.matches_row(row.into())
    }

    fn matches_row(&self, doc: RowRef<'_>) -> bool {
        match self {
            Filter::True => true,
            Filter::Eq(k, v) => field_eq(doc.get_path(k), v),
            Filter::Ne(k, v) => !field_eq(doc.get_path(k), v),
            Filter::Gte(k, v) => field_cmp(doc, k, v, |o| o != Ordering::Less),
            Filter::Lt(k, v) => field_cmp(doc, k, v, |o| o == Ordering::Less),
            Filter::Lte(k, v) => field_cmp(doc, k, v, |o| o != Ordering::Greater),
            Filter::Nin(k, vs) => match doc.get_path(k) {
                // An array's items are read once, not once per value.
                Some(field @ ValueRef::Array(items)) => {
                    let listed = |e: ValueRef<'_>| vs.iter().any(|v| e.query_eq(v.view()));
                    !listed(field) && !items.iter().any(listed)
                }
                field => !vs.iter().any(|v| field_eq(field, v)),
            },
            Filter::Exists(k, want) => doc.get_path(k).is_some() == *want,
            Filter::Contains(k, s) => doc
                .get_path(k)
                .and_then(ValueRef::as_str)
                .is_some_and(|f| f.contains(s.as_str())),
            Filter::And(fs) => fs.iter().all(|f| f.matches_row(doc)),
        }
    }
}

/// `Eq` against a row's `field` (`None`: the row lacks it).
fn field_eq(field: Option<ValueRef<'_>>, v: &Value) -> bool {
    match field {
        Some(field) => {
            if field.query_eq(v.view()) {
                return true;
            }
            // Array-contains semantics.
            matches!(field, ValueRef::Array(arr) if arr.iter().any(|e| e.query_eq(v.view())))
        }
        None => v.is_null(),
    }
}

fn field_cmp(doc: RowRef<'_>, key: &str, v: &Value, pred: impl Fn(Ordering) -> bool) -> bool {
    match doc.get_path(key) {
        Some(field) => field.query_cmp(v.view()).is_some_and(pred),
        None => false,
    }
}

/// Sort direction for query results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    Asc,
    Desc,
}

/// Find options: sort keys and pagination.
#[derive(Debug, Clone, Default)]
pub struct FindOptions {
    /// Sort by these fields in order, under `ValueRef::sort_cmp`'s total
    /// order; missing fields sort after present ones (ascending).
    pub sort: Vec<(String, Order)>,
    pub skip: usize,
    pub limit: Option<usize>,
}

impl FindOptions {
    pub fn sorted_by<K: Into<String>>(mut self, key: K, order: Order) -> Self {
        self.sort.push((key.into(), order));
        self
    }

    pub(crate) fn limited(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    pub fn skipping(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }

    /// Comparison between documents under the configured sort keys.
    /// Uses `ValueRef::sort_cmp`'s total order (type-ranked across
    /// types), so results are deterministic and an ordered index scan
    /// reproduces the same order.
    pub fn doc_cmp<'a, 'b>(&self, a: impl Into<RowRef<'a>>, b: impl Into<RowRef<'b>>) -> Ordering {
        let (a, b) = (a.into(), b.into());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::document::Document;

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
        assert!(Filter::gte("avg_latency_ms", 100i64).matches(&d));
        assert!(Filter::lt("avg_latency_ms", 200i64).matches(&d));
        assert!(Filter::gte("hops", 7i64).matches(&d));
        assert!(Filter::lte("hops", 7i64).matches(&d));
        assert!(!Filter::lt("hops", 7i64).matches(&d));
        // Cross-type range never matches.
        assert!(!Filter::gte("status", 3i64).matches(&d));
        // Missing field never matches a range.
        assert!(!Filter::lt("nope", 3i64).matches(&d));
    }

    #[test]
    fn nin() {
        let d = sample();
        assert!(Filter::not_in("hops", vec![5i64, 6]).matches(&d));
        // Nin is true for missing fields, like Mongo.
        assert!(Filter::not_in("nope", vec![1i64]).matches(&d));
        // Nin with array field: no element may be listed.
        assert!(!Filter::not_in("isds", vec![19i64, 99]).matches(&d));
    }

    #[test]
    fn exists_and_contains() {
        let d = sample();
        assert!(Filter::exists("status").matches(&d));
        assert!(Filter::Exists("nope".into(), false).matches(&d));
        assert!(Filter::exists("nested.loss").matches(&d));
        assert!(Filter::contains("_id", "_15").matches(&d));
        assert!(!Filter::contains("_id", "xx").matches(&d));
    }

    #[test]
    fn conjunction() {
        let d = sample();
        let f = Filter::eq("server_id", 2i64)
            .and(Filter::lt("avg_latency_ms", 200.0))
            .and(Filter::not_in("isds", vec![20i64]));
        assert!(f.matches(&d));
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
        assert!(!Filter::gte("nested.loss", 0.1f64).matches(&sample()));
    }

    #[test]
    fn sort_descending() {
        let opts = FindOptions::default().sorted_by("hops", Order::Desc);
        let a = doc! { "_id" => "a", "hops" => 6i64, "x" => 1i64 };
        let b = doc! { "_id" => "b", "hops" => 7i64, "x" => 2i64 };
        assert_eq!(opts.doc_cmp(&a, &b), Ordering::Greater);
    }

    #[test]
    fn sort_missing_fields_last() {
        let opts = FindOptions::default().sorted_by("k", Order::Asc);
        let with = doc! { "k" => 1i64 };
        let without = doc! { "z" => 1i64 };
        assert_eq!(opts.doc_cmp(&with, &without), Ordering::Less);
    }
}

#[cfg(test)]
mod props {
    //! Property-based tests of the document store: value round-trips,
    //! filter algebra and collection invariants.

    use crate::value::tests::Compare;
    use crate::{doc, Collection, Document, Filter, RowRef, Value};
    use proptest::prelude::*;

    // ---- generators -----------------------------------------------------------

    fn arb_scalar() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i32>().prop_map(|i| Value::Int(i as i64)),
            (-1.0e9..1.0e9f64).prop_map(Value::Float),
            "[a-z0-9_]{0,12}".prop_map(Value::Str),
        ]
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        arb_scalar().prop_recursive(3, 24, 6, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                prop::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|pairs| {
                    let mut d = Document::new();
                    for (k, v) in pairs {
                        d.set(k, v);
                    }
                    Value::Doc(d)
                }),
            ]
        })
    }

    fn arb_doc() -> impl Strategy<Value = Document> {
        prop::collection::vec(("[a-z]{1,8}", arb_value()), 0..8).prop_map(|pairs| {
            let mut d = Document::new();
            for (k, v) in pairs {
                d.set(k, v);
            }
            d
        })
    }

    proptest! {
        #[test]
        fn json_roundtrip(v in arb_value()) {
            let back = Value::from_json(&v.to_json());
            prop_assert_eq!(back, v);
        }

        #[test]
        fn query_eq_is_reflexive_for_json_representable(v in arb_value()) {
            prop_assert!(v.query_eq(&v));
        }

        #[test]
        fn index_key_consistent_with_query_eq(a in arb_scalar(), b in arb_scalar()) {
            // Equal values must share an index key (the converse need not
            // hold for floats vs ints, which is exactly why Eq widens).
            if a.query_eq(&b) {
                prop_assert_eq!(a.index_key(), b.index_key());
            }
        }

        #[test]
        fn set_then_get_path(segments in prop::collection::vec("[a-z]{1,5}", 1..4), v in arb_scalar()) {
            let path = segments.join(".");
            let mut d = Document::new();
            d.set_path(&path, v.clone());
            prop_assert_eq!(RowRef::from(&d).get_path(&path), Some(v.view()));
        }

        #[test]
        fn and_agrees_with_pointwise(d in arb_doc(), k1 in "[a-z]{1,4}", k2 in "[a-z]{1,4}", v in arb_scalar()) {
            let f1 = Filter::exists(k1);
            let f2 = Filter::eq(k2, v);
            let and = f1.clone().and(f2.clone());
            prop_assert_eq!(and.matches(&d), f1.matches(&d) && f2.matches(&d));
        }

        #[test]
        fn ne_is_not_eq(d in arb_doc(), k in "[a-z]{1,6}", v in arb_scalar()) {
            prop_assert_eq!(
                Filter::ne(k.clone(), v.clone()).matches(&d),
                !Filter::eq(k, v).matches(&d)
            );
        }

        #[test]
        fn range_trichotomy_on_numbers(x in -1000i64..1000, y in -1000i64..1000) {
            let d = doc! { "v" => x };
            let lt = Filter::lt("v", y).matches(&d);
            let eq = Filter::eq("v", y).matches(&d);
            prop_assert_eq!((lt, eq), (x < y, x == y));
            prop_assert_eq!(Filter::gte("v", y).matches(&d), !lt);
            prop_assert_eq!(Filter::lte("v", y).matches(&d), lt || eq);
        }

        #[test]
        fn insert_find_delete_roundtrip(ids in prop::collection::hash_set("[a-z0-9]{1,8}", 1..20)) {
            let mut coll = Collection::new("t");
            for (i, id) in ids.iter().enumerate() {
                coll.insert_one(doc! { "_id" => id.clone(), "ord" => i as i64 }).unwrap();
            }
            prop_assert_eq!(coll.len(), ids.len());
            for id in &ids {
                prop_assert!(coll.find_by_id(id.clone()).is_some());
                // Re-inserting any existing id fails.
                let dup = coll.insert_one(doc! { "_id" => id.clone() });
                prop_assert!(dup.is_err(), "duplicate id must be rejected");
            }
            let removed = coll.delete_many(&Filter::True);
            prop_assert_eq!(removed, ids.len());
            prop_assert!(coll.is_empty());
        }

        #[test]
        fn indexed_and_scan_queries_agree(
            vals in prop::collection::vec(0i64..5, 1..40),
            probe in 0i64..5,
        ) {
            let mut scan = Collection::new("scan");
            let mut idx = Collection::new("idx");
            idx.create_index("k");
            for (i, v) in vals.iter().enumerate() {
                let d = doc! { "_id" => i.to_string(), "k" => *v };
                scan.insert_one(d.clone()).unwrap();
                idx.insert_one(d).unwrap();
            }
            let f = Filter::eq("k", probe);
            prop_assert_eq!(scan.query(&f).run(), idx.query(&f).run());
        }

        #[test]
        fn sort_orders_results(vals in prop::collection::vec(-100i64..100, 1..30)) {
            let mut coll = Collection::new("t");
            for (i, v) in vals.iter().enumerate() {
                coll.insert_one(doc! { "_id" => i.to_string(), "v" => *v }).unwrap();
            }
            let out = coll.query_all().sort("v").run();
            let sorted: Vec<i64> = out.iter().map(|d| d.get("v").unwrap().as_int().unwrap()).collect();
            let mut expect = vals.clone();
            expect.sort_unstable();
            prop_assert_eq!(sorted, expect);
        }
    }
}
