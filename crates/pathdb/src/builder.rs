//! The chainable read API: [`Query`].
//!
//! One entry point for every read — find, count, distinct, explain:
//!
//! ```
//! use pathdb::{doc, Collection, Filter};
//!
//! let mut col = Collection::new("paths_stats");
//! for (id, rtt) in [("a", 30.0), ("b", 10.0), ("c", 20.0)] {
//!     col.insert_one(doc! { "_id" => id, "rtt" => rtt }).unwrap();
//! }
//! let fastest = col.query(Filter::True).sort("rtt").limit(2).run();
//! assert_eq!(fastest[0].id(), Some("b"));
//! assert_eq!(col.query(Filter::gte("rtt", 15.0)).count(), 2);
//! assert!(col.query(Filter::eq("rtt", 10.0)).first().is_some());
//! ```
//!
//! Terminal methods (`run`, `first`, `count`, `distinct`, `refs`,
//! `explain`) execute through the cost-based planner ([`crate::plan`]);
//! the `props` tests below pin their results to a naive full scan.

use crate::collection::Collection;
use crate::document::{Document, RowRef};
use crate::plan::QueryPlan;
use crate::query::{Filter, FindOptions, Order};
use crate::value::Value;

/// A query under construction against one collection. Created by
/// [`Collection::query`]; consumed by one of the terminal methods.
#[derive(Debug, Clone)]
#[must_use = "a Query does nothing until a terminal method (`run`, `first`, `count`, ...) executes it"]
pub struct Query<'c> {
    coll: &'c Collection,
    filter: Filter,
    opts: FindOptions,
}

impl<'c> Query<'c> {
    pub(crate) fn new(coll: &'c Collection, filter: Filter) -> Query<'c> {
        Query {
            coll,
            filter,
            opts: FindOptions::default(),
        }
    }

    // ---- chainable modifiers -----------------------------------------

    /// Sort ascending by `field` (appended after any prior sort key).
    pub fn sort<K: Into<String>>(mut self, field: K) -> Self {
        self.opts = self.opts.sorted_by(field, Order::Asc);
        self
    }

    /// Sort by `field` in the given [`Order`].
    pub fn sort_by<K: Into<String>>(mut self, field: K, order: Order) -> Self {
        self.opts = self.opts.sorted_by(field, order);
        self
    }

    /// Return at most `n` documents.
    pub fn limit(mut self, n: usize) -> Self {
        self.opts = self.opts.limited(n);
        self
    }

    /// Skip the first `n` matches.
    pub fn skip(mut self, n: usize) -> Self {
        self.opts = self.opts.skipping(n);
        self
    }

    // ---- terminals ---------------------------------------------------

    /// Execute: matching documents, sorted/paginated/projected.
    pub fn run(self) -> Vec<Document> {
        self.coll.run_find(&self.filter, &self.opts)
    }

    /// Execute: the first match only (early-exits the scan).
    pub fn first(mut self) -> Option<Document> {
        self.opts.limit = Some(1);
        self.coll.run_find(&self.filter, &self.opts).pop()
    }

    /// Execute: how many documents match. Sort/skip/limit
    /// are ignored, matching the old `count(filter)` semantics.
    pub fn count(self) -> usize {
        self.coll.run_count(&self.filter)
    }

    /// Execute: distinct values of `field` among matches (array fields
    /// contribute their elements).
    pub fn distinct(self, field: &str) -> Vec<Value> {
        self.coll.run_distinct(field, &self.filter)
    }

    /// Execute: borrowed matches in insertion order — the clone-free
    /// path for aggregation. Sort/pagination are ignored.
    pub fn refs(self) -> Vec<RowRef<'c>> {
        self.coll.run_refs(&self.filter)
    }

    /// The planner's decision for this query, without executing it. It
    /// depends on the filter alone: sort, skip and limit run over the
    /// matches whichever access path found them.
    pub fn explain(self) -> QueryPlan {
        self.coll.run_explain(&self.filter)
    }
}

impl Collection {
    /// Start a chainable query. Accepts a [`Filter`] by value or by
    /// reference (cloned).
    pub fn query<F: Into<Filter>>(&self, filter: F) -> Query<'_> {
        Query::new(self, filter.into())
    }

    /// Query every document: shorthand for `query(Filter::True)`.
    pub fn query_all(&self) -> Query<'_> {
        Query::new(self, Filter::True)
    }
}

impl From<&Filter> for Filter {
    fn from(f: &Filter) -> Filter {
        f.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::plan::Access;

    fn sample() -> Collection {
        let mut c = Collection::new("t");
        for (id, server, rtt) in [
            ("a", 1i64, 30.0),
            ("b", 1, 10.0),
            ("c", 2, 20.0),
            ("d", 2, 40.0),
        ] {
            c.insert_one(doc! { "_id" => id, "server_id" => server, "rtt" => rtt })
                .unwrap();
        }
        c
    }

    #[test]
    fn chain_sort_limit_run() {
        let c = sample();
        let out = c.query(Filter::True).sort("rtt").limit(2).run();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id(), Some("b"));
        assert_eq!(out[1].id(), Some("c"));
        let out = c.query_all().sort_by("rtt", Order::Desc).limit(1).run();
        assert_eq!(out[0].id(), Some("d"));
    }

    #[test]
    fn first_count_distinct() {
        let c = sample();
        assert_eq!(
            c.query(Filter::eq("server_id", 2i64)).first().unwrap().id(),
            Some("c")
        );
        assert!(c.query(Filter::eq("server_id", 9i64)).first().is_none());
        assert_eq!(c.query(Filter::gte("rtt", 15.0)).count(), 3);
        assert_eq!(c.query_all().distinct("server_id").len(), 2);
    }

    #[test]
    fn skip_limit_refs() {
        let c = sample();
        let out = c.query_all().sort("rtt").skip(1).limit(2).run();
        assert_eq!(out.len(), 2);
        let refs = c.query(Filter::eq("server_id", 1i64)).refs();
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn explain_reflects_indexes() {
        let mut c = sample();
        let f = Filter::eq("server_id", 1i64);
        assert!(c.query(&f).explain().access.is_full_scan());
        c.create_index("server_id");
        assert_eq!(
            c.query(&f).explain().access,
            Access::IndexPoint {
                field: "server_id".into(),
                candidates: 2
            }
        );
    }

    #[test]
    fn query_accepts_borrowed_filters() {
        let c = sample();
        let f = Filter::eq("server_id", 1i64);
        assert_eq!(c.query(&f).count(), 2);
        assert_eq!(c.query(f).count(), 2); // and owned
    }
}

#[cfg(test)]
mod props {
    //! Property-based correctness of the chainable [`Query`] builder
    //! against a naive reference evaluator: for any collection, filter and
    //! option combination, the builder (which may route through indexes and
    //! early-exit scans) must return exactly what a full in-order scan
    //! computes. This test replaced the deprecated `find*/count/distinct`
    //! equivalence suite when that legacy surface was deleted.

    use crate::{doc, Collection, Document, Filter, Order, RowRef, Value};
    use proptest::prelude::*;

    fn populated(rows: &[(i64, f64, bool)]) -> Collection {
        let mut coll = Collection::new("t");
        coll.create_index("server_id");
        for (i, (server, rtt, with_err)) in rows.iter().enumerate() {
            let mut d = doc! {
                "_id" => format!("{server}_{i}"),
                "server_id" => *server,
                "rtt" => *rtt,
            };
            if *with_err {
                d.set("error", "timeout");
            }
            coll.insert_one(d).unwrap();
        }
        coll
    }

    fn arb_rows() -> impl Strategy<Value = Vec<(i64, f64, bool)>> {
        prop::collection::vec((0..6i64, -100.0..100.0f64, any::<bool>()), 0..40)
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        prop_oneof![
            Just(Filter::True),
            (0..6i64).prop_map(|s| Filter::eq("server_id", s)),
            (-100.0..100.0f64).prop_map(|r| Filter::lt("rtt", r)),
            (0..6i64, -100.0..100.0f64)
                .prop_map(|(s, r)| Filter::eq("server_id", s).and(Filter::gte("rtt", r))),
            Just(Filter::exists("error")),
        ]
    }

    /// The reference: a full scan in insertion order, no indexes, no
    /// early exit.
    fn naive_scan(coll: &Collection, f: &Filter) -> Vec<Document> {
        coll.iter()
            .filter(|d| f.matches(d))
            .map(RowRef::to_document)
            .collect()
    }

    fn rtt_of(d: &Document) -> f64 {
        match d.get("rtt") {
            Some(Value::Float(x)) => *x,
            _ => f64::NAN,
        }
    }

    proptest! {
        #[test]
        fn builder_run_matches_a_naive_scan(rows in arb_rows(), f in arb_filter()) {
            let coll = populated(&rows);
            prop_assert_eq!(coll.query(&f).run(), naive_scan(&coll, &f));
        }

        #[test]
        fn builder_sort_skip_limit_match_a_naive_pipeline(
            rows in arb_rows(),
            f in arb_filter(),
            desc in any::<bool>(),
            skip in 0..5usize,
            limit in 1..8usize,
        ) {
            let coll = populated(&rows);
            let order = if desc { Order::Desc } else { Order::Asc };

            // Reference pipeline: scan, stable-sort on rtt, skip, limit.
            let mut expect = naive_scan(&coll, &f);
            expect.sort_by(|a, b| {
                let cmp = rtt_of(a).partial_cmp(&rtt_of(b)).unwrap();
                if desc { cmp.reverse() } else { cmp }
            });
            let expect: Vec<Document> =
                expect.into_iter().skip(skip).take(limit).collect();

            let via_builder = coll
                .query(&f)
                .sort_by("rtt", order)
                .skip(skip)
                .limit(limit)
                .run();
            prop_assert_eq!(&via_builder, &expect);
        }

        #[test]
        fn builder_count_first_distinct_refs_match_the_scan(
            rows in arb_rows(),
            f in arb_filter(),
        ) {
            let coll = populated(&rows);
            let expect = naive_scan(&coll, &f);
            prop_assert_eq!(coll.query(&f).count(), expect.len());
            prop_assert_eq!(coll.query(&f).first(), expect.first().cloned());

            // Distinct: first-encounter order over the scan.
            let mut seen = std::collections::BTreeSet::new();
            let mut distinct = Vec::new();
            for d in &expect {
                if let Some(v) = d.get("server_id") {
                    if seen.insert(v.index_key()) {
                        distinct.push(v.clone());
                    }
                }
            }
            prop_assert_eq!(coll.query(&f).distinct("server_id"), distinct);

            let refs_builder: Vec<String> = coll
                .query(&f)
                .refs()
                .iter()
                .filter_map(|d| d.id().map(String::from))
                .collect();
            let refs_expect: Vec<String> = expect
                .iter()
                .filter_map(|d| d.id().map(String::from))
                .collect();
            prop_assert_eq!(refs_builder, refs_expect);
        }
    }
}
