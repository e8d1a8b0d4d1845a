//! The query planner: point, range or scan.
//!
//! Given a [`Filter`] and the collection's indexes, the planner picks
//! one access path: a primary-index probe (`Eq` on `_id`), a point
//! lookup on one secondary index (`Eq`), a range scan over one
//! ordered secondary index (`Gt/Gte/Lt/Lte`), or a full scan. Every
//! indexable conjunct of the filter is costed by the candidates its
//! index would produce, and the cheapest wins if it touches fewer
//! documents than the collection holds. The chosen path yields a
//! *superset* of the matching documents in ascending insertion order;
//! the full filter always runs as a residual over the candidates, so a
//! plan can only over-approximate, never miss.
//!
//! Those four paths are all the system's own queries use: an `Eq` on
//! `server_id`, an `Lt` on a time field, a scan. Everything else the
//! [`Filter`] language says (`Or`, `Not`, several conjuncts on one
//! field) is answered by the residual over whichever path won.
//! [`Query::explain`](crate::builder::Query::explain) exposes the
//! decision for tests and observability, and every planning decision
//! bumps a `pathdb.plan.*` telemetry counter.

use crate::collection::{Collection, FieldIndex};
use crate::document::Document;
use crate::query::{Filter, FindOptions};
use crate::value::Value;
use std::ops::Bound;

/// How the planner locates candidate documents for a filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// Every document is tested against the filter.
    FullScan { documents: usize },
    /// Unique `_id` index probe (`Eq` on `_id`).
    Primary { keys: usize },
    /// Point lookups (`Eq`) on one secondary index.
    IndexPoint {
        field: String,
        /// Index keys probed (one per `$eq`).
        keys: usize,
        /// Candidate documents the probes produced.
        candidates: usize,
    },
    /// Range scan over one ordered secondary index (`Gt/Gte/Lt/Lte`).
    IndexRange { field: String, candidates: usize },
}

impl Access {
    pub fn is_full_scan(&self) -> bool {
        matches!(self, Access::FullScan { .. })
    }
}

/// The planner's decision for a query — what [`crate::Query::explain`]
/// returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryPlan {
    /// How candidate documents are located.
    pub access: Access,
}

// ---- indexable atoms ----------------------------------------------------

/// An indexable conjunct of the filter and the index that serves it.
/// Its candidates are a superset of the documents matching the conjunct
/// it came from.
enum Atom<'a> {
    /// `Eq` on `_id`: probe the primary index for this key.
    Primary { key: String },
    /// `Eq` with a non-null value on an indexed field: probe this exact
    /// key.
    Point {
        field: &'a str,
        index: &'a FieldIndex,
        key: String,
    },
    /// `Gt/Gte/Lt/Lte` with a scalar bound on an indexed field: scan
    /// this key range.
    Range {
        field: &'a str,
        index: &'a FieldIndex,
        lo: Bound<String>,
        hi: Bound<String>,
    },
}

/// The atom a non-`And` conjunct contributes, if an index serves it.
/// Names stay borrowed and keys are rendered only for a served field.
fn atom_of<'a>(coll: &'a Collection, filter: &'a Filter) -> Option<Atom<'a>> {
    let point = |field: &'a str, v: &Value| {
        // `Eq(k, Null)` also matches documents *missing* the field,
        // which no index contains.
        if v.is_null() {
            return None;
        }
        let index = match field {
            "_id" => None,
            _ => Some(coll.indexes.get(field)?),
        };
        let key = v.index_key();
        Some(match index {
            None => Atom::Primary { key },
            Some(index) => Atom::Point { field, index, key },
        })
    };
    let range = |field: &'a str, v: &Value, inclusive: bool, lower: bool| {
        // Only a scalar orders against one key class (and `Null` is out
        // as for points).
        if !matches!(
            v,
            Value::Bool(_) | Value::Int(_) | Value::Float(_) | Value::Str(_)
        ) {
            return None;
        }
        let index = coll.indexes.get(field)?;
        let (lo, hi) = key_range(v.index_key(), inclusive, lower);
        Some(Atom::Range {
            field,
            index,
            lo,
            hi,
        })
    };
    match filter {
        Filter::Eq(k, v) => point(k, v),
        Filter::Gt(k, v) => range(k, v, false, true),
        Filter::Gte(k, v) => range(k, v, true, true),
        Filter::Lt(k, v) => range(k, v, false, false),
        Filter::Lte(k, v) => range(k, v, true, false),
        _ => None,
    }
}

/// The `BTreeMap::range` bounds of one comparison against `key`, clamped
/// to the key's class (a number bound can only match number keys, etc.):
/// from the key to the start of the next class for a lower bound, from
/// the start of the class to the key for an upper one. Neither can
/// invert, so the map never panics on them.
fn key_range(key: String, inclusive: bool, lower: bool) -> (Bound<String>, Bound<String>) {
    // Every key opens with its class digit and a `:`, so "<c>:" is ≤
    // every key in the class.
    let class = key.as_bytes()[0];
    let start = |c: u8| format!("{}:", c as char);
    let at = if inclusive {
        Bound::Included(key)
    } else {
        Bound::Excluded(key)
    };
    if lower {
        (at, Bound::Excluded(start(class + 1)))
    } else {
        (Bound::Included(start(class)), at)
    }
}

impl Atom<'_> {
    /// Candidates the probe would produce: posting-list sizes for
    /// points, a walk over the keys in range for ranges.
    fn count(&self, coll: &Collection) -> usize {
        match self {
            Atom::Primary { key } => coll.primary.contains_key(key.as_str()) as usize,
            Atom::Point { index, key, .. } => index.point_count(key),
            Atom::Range { index, lo, hi, .. } => index.range_count(lo, hi),
        }
    }

    /// The candidate seqs, ascending and deduped.
    fn seqs(&self, coll: &Collection) -> Vec<u64> {
        let mut seqs: Vec<u64> = match self {
            Atom::Primary { key } => coll
                .primary
                .get(key.as_str())
                .copied()
                .into_iter()
                .collect(),
            Atom::Point { index, key, .. } => index.point_seqs(key).collect(),
            Atom::Range { index, lo, hi, .. } => index.range_seqs(lo, hi).collect(),
        };
        seqs.sort_unstable();
        seqs.dedup();
        seqs
    }

    fn access(&self, candidates: usize) -> Access {
        match self {
            Atom::Primary { .. } => Access::Primary { keys: candidates },
            Atom::Point { field, .. } => Access::IndexPoint {
                field: field.to_string(),
                keys: 1,
                candidates,
            },
            Atom::Range { field, .. } => Access::IndexRange {
                field: field.to_string(),
                candidates,
            },
        }
    }
}

/// Keep in `best` the cheapest atom among the conjuncts of `filter`
/// (nested `And`s flattened), the first one on ties.
fn cheapest<'a>(coll: &'a Collection, filter: &'a Filter, best: &mut Option<(usize, Atom<'a>)>) {
    if let Filter::And(fs) = filter {
        for f in fs {
            cheapest(coll, f, best);
        }
    } else if let Some(atom) = atom_of(coll, filter) {
        let count = atom.count(coll);
        if best.as_ref().is_none_or(|(least, _)| count < *least) {
            *best = Some((count, atom));
        }
    }
}

// ---- access-path selection ----------------------------------------------

/// The chosen access path plus (for indexed paths) the materialized
/// candidate seqs in ascending insertion order.
pub(crate) struct AccessChoice {
    pub access: Access,
    /// `None` = full scan: iterate `docs` directly.
    pub seqs: Option<Vec<u64>>,
}

/// Pick the cheapest access path for a filter. The returned candidates
/// are a superset of the matching documents; callers must still apply
/// the filter as a residual.
pub(crate) fn choose_access(coll: &Collection, filter: &Filter) -> AccessChoice {
    let n = coll.docs.len();
    let mut best = None;
    cheapest(coll, filter, &mut best);
    let choice = match best {
        // An indexed path must beat the full scan it replaces.
        Some((count, atom)) if count < n => {
            let seqs = atom.seqs(coll);
            AccessChoice {
                access: atom.access(seqs.len()),
                seqs: Some(seqs),
            }
        }
        _ => AccessChoice {
            access: Access::FullScan { documents: n },
            seqs: None,
        },
    };
    let rec = coll.rec();
    let (variant, hit) = match &choice.access {
        Access::FullScan { .. } => ("pathdb.plan.full_scan", false),
        Access::Primary { .. } => ("pathdb.plan.primary", true),
        Access::IndexPoint { .. } => ("pathdb.plan.index_point", true),
        Access::IndexRange { .. } => ("pathdb.plan.index_range", true),
    };
    rec.add(variant, 1);
    rec.add(
        if hit {
            "pathdb.plan.index_hit"
        } else {
            "pathdb.plan.index_miss"
        },
        1,
    );
    choice
}

pub(crate) fn explain(coll: &Collection, filter: &Filter) -> QueryPlan {
    QueryPlan {
        access: choose_access(coll, filter).access,
    }
}

// ---- execution ----------------------------------------------------------

/// Matching seqs in ascending insertion order, via the chosen access
/// path plus the residual filter.
pub(crate) fn matching_seqs(coll: &Collection, filter: &Filter) -> Vec<u64> {
    match choose_access(coll, filter).seqs {
        Some(seqs) => seqs
            .into_iter()
            .filter(|&s| coll.docs.get(s).is_some_and(|d| filter.matches(d)))
            .collect(),
        None => coll
            .docs
            .iter()
            .filter(|(_, d)| filter.matches(d))
            .map(|(s, _)| s)
            .collect(),
    }
}

/// Planner-served `find_with`: the matches in insertion order, sorted
/// when asked, then skip/take.
pub(crate) fn find_with(coll: &Collection, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
    match choose_access(coll, filter).seqs {
        Some(seqs) => page(
            seqs.iter()
                .filter_map(|&s| coll.docs.get(s))
                .filter(|d| filter.matches(d)),
            opts,
        ),
        None => page(coll.docs.values().filter(|d| filter.matches(d)), opts),
    }
}

/// Skip and take `matches`, stable-sorted first when `opts`
/// sorts. Unsorted, nothing past the last match taken is read, so
/// `first()` stops at the first match.
fn page<'a>(matches: impl Iterator<Item = &'a Document>, opts: &FindOptions) -> Vec<Document> {
    let take = opts.limit.unwrap_or(usize::MAX);
    if opts.sort.is_empty() {
        return matches.skip(opts.skip).take(take).cloned().collect();
    }
    let mut sorted: Vec<&Document> = matches.collect();
    sorted.sort_by(|a, b| opts.doc_cmp(a, b));
    sorted
        .into_iter()
        .skip(opts.skip)
        .take(take)
        .cloned()
        .collect()
}

#[cfg(test)]
mod props {
    //! Property-based oracle for the query planner: whatever access path
    //! `find_with` picks (point lookup, ordered range scan, index-served
    //! sort, limit pushdown), the observable results must be
    //! byte-identical — same documents, same order — to a naive full scan
    //! over the live documents in insertion order.
    //!
    //! The generators deliberately produce colliding values (small ints,
    //! int-valued floats, shared strings, nulls, arrays) and interleave
    //! index creation with inserts, updates and deletes, so the planner's
    //! incremental index maintenance and its append/reshape bookkeeping are
    //! exercised alongside plan selection.

    use crate::{Collection, Document, Filter, FindOptions, Order, Query, Update, Value};
    use proptest::prelude::*;
    use std::collections::HashSet;

    // ---- generators -----------------------------------------------------------

    /// A small field pool so filters, sorts and indexes actually collide.
    fn arb_field() -> impl Strategy<Value = String> {
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(String::from)
    }

    /// Values chosen to collide across types: `Int(2)` vs `Float(2.0)`
    /// unify under the canonical index key, `0.5` exercises the float
    /// residual, arrays exercise multikey indexing.
    fn arb_val() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (-3i64..6).prop_map(Value::Int),
            prop_oneof![
                Just(Value::Float(-1.5)),
                Just(Value::Float(0.5)),
                Just(Value::Float(2.0)),
                Just(Value::Float(2.5)),
                Just(Value::Float(4.0)),
            ],
            prop_oneof![Just("x"), Just("y"), Just("zed")].prop_map(|s| Value::Str(s.into())),
            prop::collection::vec((-2i64..3).prop_map(Value::Int), 0..3).prop_map(Value::Array),
        ]
    }

    /// One indexable (or not) comparison — the planner's atoms plus the
    /// operators it must treat as residual-only: every operator the system
    /// sends.
    fn arb_leaf() -> impl Strategy<Value = Filter> {
        (
            arb_field(),
            arb_val(),
            prop::collection::vec(arb_val(), 0..3),
        )
            .prop_flat_map(|(k, v, vs)| {
                prop_oneof![
                    Just(Filter::eq(k.clone(), v.clone())),
                    Just(Filter::ne(k.clone(), v.clone())),
                    Just(Filter::gt(k.clone(), v.clone())),
                    Just(Filter::gte(k.clone(), v.clone())),
                    Just(Filter::lt(k.clone(), v.clone())),
                    Just(Filter::lte(k.clone(), v.clone())),
                    Just(Filter::not_in(k.clone(), vs.clone())),
                    Just(Filter::exists(k.clone())),
                    Just(Filter::contains(k.clone(), "e")),
                ]
            })
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        arb_leaf().prop_recursive(3, 16, 3, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| a.and(b))
        })
    }

    fn arb_opts() -> impl Strategy<Value = FindOptions> {
        (
            prop::option::of((arb_field(), any::<bool>())),
            0usize..5,
            prop::option::of(0usize..8),
        )
            .prop_map(|(sort, skip, limit)| {
                let mut opts = FindOptions::default();
                if let Some((key, asc)) = sort {
                    opts = opts.sorted_by(key, if asc { Order::Asc } else { Order::Desc });
                }
                opts.skip = skip;
                opts.limit = limit;
                opts
            })
    }

    /// `opts` spelled through the builder.
    fn with<'c>(q: Query<'c>, opts: &FindOptions) -> Query<'c> {
        let q = opts
            .sort
            .iter()
            .fold(q, |q, (key, order)| q.sort_by(key.clone(), *order));
        let q = q.skip(opts.skip);
        match opts.limit {
            Some(n) => q.limit(n),
            None => q,
        }
    }

    /// Rows as field lists; `_id` is assigned positionally by the test.
    fn arb_rows() -> impl Strategy<Value = Vec<Vec<(String, Value)>>> {
        prop::collection::vec(prop::collection::vec((arb_field(), arb_val()), 0..4), 0..40)
    }

    // ---- the oracle -----------------------------------------------------------

    /// The naive semantics `find_with` must reproduce exactly: filter the
    /// live documents in insertion order, stable-sort, paginate.
    fn naive_find(mirror: &[Document], filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        let mut out: Vec<Document> = mirror
            .iter()
            .filter(|d| filter.matches(d))
            .cloned()
            .collect();
        if !opts.sort.is_empty() {
            out.sort_by(|a, b| opts.doc_cmp(a, b));
        }
        out.into_iter()
            .skip(opts.skip)
            .take(opts.limit.unwrap_or(usize::MAX))
            .collect()
    }

    fn naive_distinct(mirror: &[Document], field: &str, filter: &Filter) -> Vec<Value> {
        let mut seen: HashSet<String> = HashSet::new();
        let mut out = Vec::new();
        for d in mirror.iter().filter(|d| filter.matches(d)) {
            let candidates: Vec<Value> = match d.get_path(field) {
                Some(Value::Array(a)) => a.clone(),
                Some(v) => vec![v.clone()],
                None => continue,
            };
            for v in candidates {
                if seen.insert(v.index_key()) {
                    out.push(v);
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn planner_results_equal_full_scan(
            rows in arb_rows(),
            index_fields in prop::collection::hash_set(arb_field(), 0..3),
            index_first in any::<bool>(),
            update in prop::option::of((arb_leaf(), arb_field(), arb_val())),
            delete in prop::option::of(arb_leaf()),
            filter in arb_filter(),
            opts in arb_opts(),
        ) {
            let mut coll = Collection::new("t");
            if index_first {
                for f in &index_fields {
                    coll.create_index(f);
                }
            }
            // `mirror` tracks the live documents in insertion order — the
            // ground truth the planner must reproduce.
            let mut mirror: Vec<Document> = Vec::new();
            for (i, fields) in rows.iter().enumerate() {
                let mut d = Document::new();
                d.set("_id", i.to_string());
                for (k, v) in fields {
                    d.set(k.clone(), v.clone());
                }
                coll.insert_one(d.clone()).unwrap();
                mirror.push(d);
            }
            if !index_first {
                for f in &index_fields {
                    coll.create_index(f);
                }
            }
            if let Some((sel, key, val)) = &update {
                coll.update_many(sel, &Update::new().set(key.clone(), val.clone()));
                for d in &mut mirror {
                    if sel.matches(d) {
                        d.set(key.clone(), val.clone());
                    }
                }
            }
            if let Some(sel) = &delete {
                coll.delete_many(sel);
                mirror.retain(|d| !sel.matches(d));
            }

            // The builder: same documents, same order, under every plan.
            let got = with(coll.query(&filter), &opts).run();
            let expect = naive_find(&mirror, &filter, &opts);
            prop_assert_eq!(
                &got, &expect,
                "plan diverged from full scan: {:?}",
                with(coll.query(&filter), &opts).explain()
            );

            // count / first / distinct ride the same matching_seqs path.
            prop_assert_eq!(
                coll.query(&filter).count(),
                mirror.iter().filter(|d| filter.matches(d)).count()
            );
            prop_assert_eq!(
                coll.query(&filter).first(),
                mirror.iter().find(|d| filter.matches(d)).cloned()
            );
            for field in ["a", "b", "c"] {
                prop_assert_eq!(
                    coll.query(&filter).distinct(field),
                    naive_distinct(&mirror, field, &filter)
                );
            }
        }

        /// Focused variant: single-field range conjunctions with an ordered
        /// index and an index-served sort on the same field — the planner's
        /// hot path for the selection engine's canonical queries.
        #[test]
        fn indexed_range_and_sort_equal_full_scan(
            vals in prop::collection::vec(prop_oneof![
                (-50i64..50).prop_map(Value::Int),
                (-50i64..50).prop_map(|i| Value::Float(i as f64 / 2.0)),
            ], 1..60),
            lo in -30i64..30,
            width in 0i64..40,
            desc in any::<bool>(),
            skip in 0usize..4,
            limit in prop::option::of(1usize..10),
        ) {
            let mut coll = Collection::new("t");
            coll.create_index("v");
            let mut mirror = Vec::new();
            for (i, v) in vals.iter().enumerate() {
                let mut d = Document::new();
                d.set("_id", i.to_string());
                d.set("v", v.clone());
                coll.insert_one(d.clone()).unwrap();
                mirror.push(d);
            }
            let filter = Filter::gte("v", lo).and(Filter::lt("v", lo + width));
            let mut opts = FindOptions::default()
                .sorted_by("v", if desc { Order::Desc } else { Order::Asc });
            opts.skip = skip;
            opts.limit = limit;

            let got = with(coll.query(&filter), &opts).run();
            let expect = naive_find(&mirror, &filter, &opts);
            prop_assert_eq!(
                &got, &expect,
                "plan diverged: {:?}",
                with(coll.query(&filter), &opts).explain()
            );
            // A *selective* between-conjunction on an indexed field must not
            // degrade to a full collection scan. (When the range covers every
            // document the planner rightly refuses the index.)
            let matched = mirror.iter().filter(|d| filter.matches(d)).count();
            if matched < mirror.len() {
                prop_assert!(
                    !coll.query(&filter).explain().access.is_full_scan(),
                    "range conjunction on an indexed field fell back to a scan"
                );
            }
        }
    }
}
