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
//! assert_eq!(col.query(Filter::gt("rtt", 15.0)).count(), 2);
//! assert!(col.query(Filter::eq("rtt", 10.0)).first().is_some());
//! ```
//!
//! Terminal methods (`run`, `first`, `count`, `distinct`, `refs`,
//! `explain`) execute through the cost-based planner ([`crate::plan`]);
//! `tests/prop_builder.rs` pins their results to a naive full scan.

use crate::collection::Collection;
use crate::document::Document;
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

    /// Replace the options wholesale (escape hatch for callers that
    /// already hold a [`FindOptions`]).
    pub fn with_options(mut self, opts: FindOptions) -> Self {
        self.opts = opts;
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

    /// Execute: how many documents match. Sort/skip/limit/projection
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
    /// path for aggregation. Sort/pagination/projection are ignored.
    pub fn refs(self) -> Vec<&'c Document> {
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
        assert_eq!(c.query(Filter::gt("rtt", 15.0)).count(), 3);
        assert_eq!(c.query_all().distinct("server_id").len(), 2);
    }

    #[test]
    fn skip_project_refs() {
        let c = sample();
        let mut q = c.query_all().sort("rtt").skip(1).limit(2);
        q.opts.projection.push("rtt".into());
        let out = q.run();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains_key("_id"));
        assert!(out[0].contains_key("rtt"));
        assert!(!out[0].contains_key("server_id"));
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
                keys: 1,
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

    #[test]
    fn with_options_escape_hatch() {
        let c = sample();
        let opts = FindOptions::default()
            .sorted_by("rtt", Order::Desc)
            .limited(1);
        let out = c.query_all().with_options(opts).run();
        assert_eq!(out[0].id(), Some("d"));
    }
}
