//! Incremental cache for what every reader derives from a destination's
//! `paths_stats` rows: measurements grouped by path, aggregates per path.
//!
//! Requests repeat against a database that changes rarely, and a
//! running campaign only appends. So there is one entry per (stats
//! collection, destination) and one function, `fetch`, that `match`es
//! on what pathdb says happened since the entry was filed
//! ([`Collection::delta_since`]): `Same` → share what the entry holds;
//! `Appended` → decode only the rows past the remembered watermark,
//! merge them in, re-derive the aggregates of their paths; `Reshaped`
//! (updates, deletes) → start over; `Ahead` (the caller's pin is older
//! than the entry) → start over *beside* the cache and leave the entry
//! alone. Aggregates also read path metadata, so they remember their
//! `paths` version too: a newer `paths` rebuilds them from the grouping
//! the entry has, an older one is again answered beside it.
//!
//! Every fetch is **version-pinned**: it reads MVCC snapshots
//! ([`Collection::read_snapshot`]) and files what it derives under *their*
//! versions, never under those of the live, concurrently written collection.

use crate::error::SuiteResult;
use crate::schema::{parse_path_doc, PathId, PathMeasurement, PATHS, PATHS_STATS};
use crate::select::{build_aggregate, SharedAggregate};
use parking_lot::{Mutex, RwLock};
use pathdb::{Collection, CollectionHandle, Database, Delta, Filter};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock, Weak};

/// The grouping shape every consumer works from: measurements per path,
/// ordered by timestamp within each path.
pub(crate) type GroupedMeasurements = BTreeMap<PathId, Vec<PathMeasurement>>;

/// Whiskers, mean jitter and mean loss of every path of a destination,
/// each shared by reference with every answer that carries it and
/// encoded as JSON at most once: a path's aggregate is rebuilt, and so
/// re-encoded, only by the fetch that finds its rows or metadata changed.
pub(crate) type PathAggregates = BTreeMap<PathId, SharedAggregate>;

#[derive(Default)]
struct Entry {
    /// `Weak`, so the cache never keeps a dropped database alive;
    /// [`is_live`] guards against its address naming another collection.
    stats: Weak<RwLock<Collection>>,
    stats_version: u64,
    watermark: u64,
    grouped: Arc<GroupedMeasurements>,
    /// Filed once asked for, from `paths` as of `paths_version`, and
    /// from then on kept at `stats_version` along with `grouped`.
    aggs: Option<Arc<PathAggregates>>,
    paths: Weak<RwLock<Collection>>,
    paths_version: u64,
}

/// Keyed by collection identity (its handle's address) and destination.
static CACHE: OnceLock<Mutex<HashMap<(usize, u32), Entry>>> = OnceLock::new();

fn is_live(filed: &Weak<RwLock<Collection>>, handle: &CollectionHandle) -> bool {
    filed.upgrade().is_some_and(|c| Arc::ptr_eq(&c, handle))
}

/// All measurements of `server_id`, grouped by path and sorted by
/// timestamp. Shared: an unchanged database costs an `Arc` clone, an
/// append-only campaign the rows it added since the previous call.
pub(crate) fn grouped_measurements(
    db: &Database,
    server_id: u32,
) -> SuiteResult<Arc<GroupedMeasurements>> {
    grouped_measurements_at(db, &db.read_snapshot(PATHS_STATS), server_id)
}

/// `grouped_measurements` of an explicit pin of `paths_stats`.
pub(crate) fn grouped_measurements_at(
    db: &Database,
    stats_snap: &Collection,
    server_id: u32,
) -> SuiteResult<Arc<GroupedMeasurements>> {
    Ok(fetch(db, stats_snap, None, server_id)?.0)
}

/// Per-path aggregates of every path `paths` lists for `server_id`.
/// The selection engine intersects this constraint-independent map with
/// its candidate set, so one entry serves every `Constraints` variation.
pub(crate) fn aggregated_paths(db: &Database, server_id: u32) -> SuiteResult<Arc<PathAggregates>> {
    let (paths_snap, stats_snap) = pin_pair(db);
    aggregated_paths_at(db, &paths_snap, &stats_snap, server_id)
}

/// Pin an MVCC snapshot of the `paths` + `paths_stats` pair — the unit
/// of consistency every read of the selection engine works from.
pub(crate) fn pin_pair(db: &Database) -> (Arc<Collection>, Arc<Collection>) {
    (db.read_snapshot(PATHS), db.read_snapshot(PATHS_STATS))
}

/// [`aggregated_paths`] of an explicit [`pin_pair`]: readers of one
/// version pair get identical aggregates, whatever a campaign is writing.
pub(crate) fn aggregated_paths_at(
    db: &Database,
    paths_snap: &Collection,
    stats_snap: &Collection,
    server_id: u32,
) -> SuiteResult<Arc<PathAggregates>> {
    let (_, aggs) = fetch(db, stats_snap, Some(paths_snap), server_id)?;
    Ok(aggs.expect("a paths pin is answered with aggregates"))
}

/// The one state machine: bring the destination's entry to the pinned
/// `stats` (and `paths`), or leave it be and answer an older pin beside it.
fn fetch(
    db: &Database,
    stats: &Collection,
    paths: Option<&Collection>,
    server_id: u32,
) -> SuiteResult<(Arc<GroupedMeasurements>, Option<Arc<PathAggregates>>)> {
    let rec = db.recorder();
    let filter = || Filter::eq("server_id", server_id as i64);
    let handle = db.collection(PATHS_STATS);
    let paths = paths.map(|snap| (db.collection(PATHS), snap));
    let aggregate = |e: &mut Entry| -> SuiteResult<()> {
        let Some((handle, paths)) = &paths else {
            return Ok(());
        };
        rec.add("statcache.agg.recompute", 1);
        let mut by_path = BTreeMap::new();
        for d in paths.query(filter()).refs() {
            let (id, sequence, hops) = parse_path_doc(d)?;
            let ms = e.grouped.get(&id).map_or(&[][..], Vec::as_slice);
            by_path.insert(id, build_aggregate(&*rec, id, sequence, hops, ms).into());
        }
        e.aggs = Some(Arc::new(by_path));
        (e.paths, e.paths_version) = (Arc::downgrade(handle), paths.mutation_version());
        Ok(())
    };
    // Pinned `paths` against what `e`'s aggregates were built from.
    let paths_delta = |e: &Entry| {
        let (handle, paths) = paths.as_ref()?;
        let filed = e.aggs.is_some() && is_live(&e.paths, handle);
        filed.then(|| paths.delta_since(e.paths_version))
    };
    let answer = |e: &Entry| (e.grouped.clone(), e.aggs.clone());
    // One lock from decision to filing: no rebuild is paid for twice.
    let mut map = CACHE.get_or_init(Default::default).lock();
    let key = (Arc::as_ptr(&handle) as usize, server_id);
    let entry = map.entry(key).or_default();
    // Never filed, or for a collection that is gone: as good as reshaped.
    let filed = is_live(&entry.stats, &handle).then(|| stats.delta_since(entry.stats_version));
    match filed.unwrap_or(Delta::Reshaped) {
        Delta::Same if paths_delta(entry) == Some(Delta::Same) => {
            rec.add("statcache.agg.hit", 1);
            return Ok(answer(entry));
        }
        Delta::Same => rec.add("statcache.grouped.hit", 1),
        Delta::Appended => {
            // Decode first: a malformed document leaves the entry whole.
            let (appended, filter) = (stats.iter_from(entry.watermark), filter());
            let fresh = (appended.filter(|d| filter.matches(d)))
                .map(PathMeasurement::from_doc)
                .collect::<SuiteResult<Vec<_>>>()?;
            if !fresh.is_empty() {
                let grouped = Arc::make_mut(&mut entry.grouped);
                let touched: BTreeSet<PathId> = fresh.iter().map(|m| m.stat_id.path).collect();
                for m in fresh {
                    grouped.entry(m.stat_id.path).or_default().push(m);
                }
                let mut aggs = entry.aggs.as_mut().map(Arc::make_mut);
                for path in touched {
                    let ms = grouped.get_mut(&path).expect("a row was just pushed");
                    // Stable: on timestamp ties earlier rows stay ahead
                    // of appended ones, as a full recompute places them.
                    ms.sort_by_key(|m| m.stat_id.timestamp_ms);
                    // A path `paths` does not list has no aggregate.
                    if let Some(agg) = aggs.as_mut().and_then(|aggs| aggs.get_mut(&path)) {
                        let sequence = agg.sequence.clone();
                        *agg = build_aggregate(&*rec, path, sequence, agg.hops, ms).into();
                    }
                }
            }
            entry.stats_version = stats.mutation_version();
            entry.watermark = stats.append_watermark();
            rec.add("statcache.grouped.merge", 1);
        }
        delta @ (Delta::Reshaped | Delta::Ahead) => {
            let grouped = compute(stats, server_id)?;
            rec.add("statcache.grouped.recompute", 1);
            let rows = grouped.values().map(|v| v.len() as u64).sum();
            rec.add("statcache.recompute_docs", rows);
            let mut fresh = Entry {
                stats: Arc::downgrade(&handle),
                stats_version: stats.mutation_version(),
                watermark: stats.append_watermark(),
                grouped: Arc::new(grouped),
                ..Entry::default()
            };
            aggregate(&mut fresh)?;
            let answer = answer(&fresh);
            // `Ahead`: a later reader filed a newer image than this
            // pin, and regressing it would re-merge rows it holds.
            if delta == Delta::Reshaped {
                *entry = fresh;
                map.retain(|_, e| e.stats.strong_count() > 0);
            }
            return Ok(answer);
        }
    }
    // `grouped` is at the pin; so is `aggs`, for *its* `paths` version.
    match paths_delta(entry) {
        Some(Delta::Same) => rec.add("statcache.agg.recompute", 1),
        Some(Delta::Ahead) => {
            let mut beside = Entry {
                grouped: entry.grouped.clone(),
                ..Entry::default()
            };
            aggregate(&mut beside)?;
            return Ok(answer(&beside));
        }
        // (Without a `paths` pin there is nothing to compare, or to do.)
        Some(Delta::Appended | Delta::Reshaped) | None => aggregate(entry)?,
    }
    Ok(answer(entry))
}

/// Full grouping, an index point lookup ([`crate::schema::ensure_indexes`]).
fn compute(coll: &Collection, server_id: u32) -> SuiteResult<GroupedMeasurements> {
    let mut grouped: GroupedMeasurements = BTreeMap::new();
    for d in coll.query(Filter::eq("server_id", server_id as i64)).refs() {
        let m = PathMeasurement::from_doc(d)?;
        grouped.entry(m.stat_id.path).or_default().push(m);
    }
    for ms in grouped.values_mut() {
        ms.sort_by_key(|m| m.stat_id.timestamp_ms);
    }
    Ok(grouped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::StatId;
    use pathdb::Update;

    fn measurement(server_id: u32, path_index: u32, ts: u64, lat: f64) -> PathMeasurement {
        PathMeasurement {
            stat_id: StatId {
                path: PathId {
                    server_id,
                    path_index,
                },
                timestamp_ms: ts,
            },
            isds: vec![16, 17],
            hops: 6,
            avg_latency_ms: Some(lat),
            jitter_ms: Some(0.5),
            loss_pct: 0.0,
            bw_up_64: None,
            bw_down_64: None,
            bw_up_mtu: None,
            bw_down_mtu: None,
            target_mbps: 12.0,
            error: None,
        }
    }

    fn insert(db: &Database, m: &PathMeasurement) {
        let handle = db.collection(PATHS_STATS);
        handle.write().insert_one(m.to_doc()).unwrap();
    }

    #[test]
    fn unchanged_database_returns_the_shared_grouping() {
        let db = Database::new();
        insert(&db, &measurement(1, 0, 1000, 20.0));
        insert(&db, &measurement(1, 1, 1000, 30.0));
        let first = grouped_measurements(&db, 1).unwrap();
        let second = grouped_measurements(&db, 1).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "version-equal hit must share");
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn appends_merge_incrementally_and_match_a_recompute() {
        let db = Database::new();
        insert(&db, &measurement(1, 0, 2000, 20.0));
        let warm = grouped_measurements(&db, 1).unwrap();
        assert_eq!(
            warm[&PathId {
                server_id: 1,
                path_index: 0
            }]
                .len(),
            1
        );

        // Appends, including an out-of-order timestamp and a new path.
        insert(&db, &measurement(1, 0, 1000, 21.0));
        insert(&db, &measurement(1, 2, 3000, 90.0));
        insert(&db, &measurement(2, 0, 3000, 50.0)); // other destination

        let merged = grouped_measurements(&db, 1).unwrap();
        let handle = db.collection(PATHS_STATS);
        let recomputed = compute(&handle.read(), 1).unwrap();
        assert_eq!(*merged, recomputed, "merge must equal full recompute");
        let p0 = &merged[&PathId {
            server_id: 1,
            path_index: 0,
        }];
        assert_eq!(
            p0.iter()
                .map(|m| m.stat_id.timestamp_ms)
                .collect::<Vec<_>>(),
            vec![1000, 2000],
            "appended rows are re-sorted by timestamp"
        );
        assert!(!merged.contains_key(&PathId {
            server_id: 2,
            path_index: 0
        }));
    }

    #[test]
    fn updates_and_deletes_invalidate_the_grouping() {
        let db = Database::new();
        let m = measurement(1, 0, 1000, 20.0);
        insert(&db, &m);
        insert(&db, &measurement(1, 1, 1000, 40.0));
        let before = grouped_measurements(&db, 1).unwrap();
        assert_eq!(before.len(), 2);

        let handle = db.collection(PATHS_STATS);
        handle.write().update_many(
            &Filter::eq("_id", m.stat_id.to_string()),
            &Update::new().set("avg_latency_ms", 99.0),
        );
        let after_update = grouped_measurements(&db, 1).unwrap();
        let p0 = &after_update[&PathId {
            server_id: 1,
            path_index: 0,
        }];
        assert_eq!(p0[0].avg_latency_ms, Some(99.0));

        handle
            .write()
            .delete_many(&Filter::eq("_id", m.stat_id.to_string()));
        let after_delete = grouped_measurements(&db, 1).unwrap();
        assert!(!after_delete.contains_key(&PathId {
            server_id: 1,
            path_index: 0
        }));
        assert_eq!(after_delete.len(), 1);
    }

    fn insert_path(db: &Database, server_id: u32, path_index: u32, hops: i64) {
        let handle = db.collection(PATHS);
        handle
            .write()
            .insert_one(pathdb::doc! {
                "_id" => format!("{server_id}_{path_index}"),
                "server_id" => server_id as i64,
                "path_index" => path_index as i64,
                "sequence" => format!("seq-{path_index}"),
                "hops" => hops,
            })
            .unwrap();
    }

    #[test]
    fn unchanged_database_shares_the_aggregates() {
        let db = Database::new();
        insert_path(&db, 1, 0, 5);
        insert(&db, &measurement(1, 0, 1000, 20.0));
        let first = aggregated_paths(&db, 1).unwrap();
        let second = aggregated_paths(&db, 1).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "version-equal hit must share");
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };
        assert_eq!(first[&pid].samples, 1);
        assert_eq!(first[&pid].latency.as_ref().unwrap().mean, 20.0);
    }

    /// An aggregate's JSON is encoded once and shared, bytes and all,
    /// until a fetch finds its own rows changed: an append to one path
    /// re-derives (and so re-encodes) that path only, and what is
    /// written always equals the value tree's rendering.
    #[test]
    fn each_aggregate_is_encoded_once_per_version() {
        use serde::Serialize;
        let db = Database::new();
        insert_path(&db, 1, 0, 5);
        insert_path(&db, 1, 1, 6);
        insert(&db, &measurement(1, 0, 1000, 20.0));
        insert(&db, &measurement(1, 1, 1000, 30.0));
        let [p0, p1] = [0, 1].map(|path_index| PathId {
            server_id: 1,
            path_index,
        });
        let tree = |a: &SharedAggregate| a.to_jval().to_string().into_bytes();
        let first = aggregated_paths(&db, 1).unwrap();
        for path in [p0, p1] {
            let mut written = Vec::new();
            first[&path].write_json(&mut written);
            first[&path].write_json(&mut written);
            assert_eq!(written, [tree(&first[&path]), tree(&first[&path])].concat());
        }
        let again = aggregated_paths(&db, 1).unwrap();
        assert!(std::ptr::eq(again[&p0].json(), first[&p0].json()));

        insert(&db, &measurement(1, 1, 2000, 50.0));
        let after = aggregated_paths(&db, 1).unwrap();
        assert!(
            std::ptr::eq(after[&p0].json(), first[&p0].json()),
            "an untouched path keeps its bytes"
        );
        assert!(
            !std::ptr::eq(after[&p1].json(), first[&p1].json()),
            "a re-derived path is encoded anew"
        );
        assert_eq!(after[&p1].json(), tree(&after[&p1]));
        assert_ne!(after[&p1].json(), first[&p1].json(), "two samples now");
    }

    #[test]
    fn either_collection_changing_invalidates_the_aggregates() {
        let db = Database::new();
        insert_path(&db, 1, 0, 5);
        insert(&db, &measurement(1, 0, 1000, 20.0));
        let before = aggregated_paths(&db, 1).unwrap();
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };

        // Stats append: the sample count grows.
        insert(&db, &measurement(1, 0, 2000, 40.0));
        let after_stats = aggregated_paths(&db, 1).unwrap();
        assert!(!Arc::ptr_eq(&before, &after_stats));
        assert_eq!(after_stats[&pid].samples, 2);
        assert_eq!(after_stats[&pid].latency.as_ref().unwrap().mean, 30.0);

        // Path metadata update: the cached hops must refresh too.
        let handle = db.collection(PATHS);
        handle
            .write()
            .update_many(&Filter::eq("_id", "1_0"), &Update::new().set("hops", 9i64));
        let after_paths = aggregated_paths(&db, 1).unwrap();
        assert_eq!(after_paths[&pid].hops, 9);
    }

    #[test]
    fn pinned_fetch_never_mixes_versions_with_a_concurrent_writer() {
        // Regression: the old fetch read `stats_version` from a
        // momentary lock, then re-read the (possibly newer) live data —
        // so two readers could get differently-shaped aggregates for
        // the same version pair. Pinned snapshots make that impossible.
        let db = Database::new();
        insert_path(&db, 1, 0, 5);
        insert(&db, &measurement(1, 0, 1000, 20.0));
        let (paths_snap, stats_snap) = pin_pair(&db);
        // A "concurrent writer" lands another batch after the pin.
        insert(&db, &measurement(1, 0, 2000, 80.0));
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };
        // The pinned fetch reflects exactly the pinned data...
        let pinned = aggregated_paths_at(&db, &paths_snap, &stats_snap, 1).unwrap();
        assert_eq!(pinned[&pid].samples, 1);
        assert_eq!(pinned[&pid].latency.as_ref().unwrap().mean, 20.0);
        // ...and a second reader of the same version pair gets the
        // identical shape.
        let again = aggregated_paths_at(&db, &paths_snap, &stats_snap, 1).unwrap();
        assert_eq!(*pinned, *again);
        // A live fetch sees the newer write under its own version pair,
        let live = aggregated_paths(&db, 1).unwrap();
        assert_eq!(live[&pid].samples, 2);
        assert_eq!(live[&pid].latency.as_ref().unwrap().mean, 50.0);
        // and serves hits afterwards — the pinned reads did not poison
        // the cache.
        let live2 = aggregated_paths(&db, 1).unwrap();
        assert!(Arc::ptr_eq(&live, &live2));
    }

    #[test]
    fn pinned_fetch_does_not_regress_a_newer_cache_entry() {
        let db = Database::new();
        insert_path(&db, 1, 0, 5);
        insert(&db, &measurement(1, 0, 1000, 20.0));
        let (paths_old, stats_old) = pin_pair(&db);
        insert(&db, &measurement(1, 0, 2000, 80.0));
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };
        // A reader of the live pair files the newer entry first.
        let live = aggregated_paths(&db, 1).unwrap();
        assert_eq!(live[&pid].samples, 2);
        // A straggler still holding the old pin gets its own (older)
        // consistent view...
        let pinned = aggregated_paths_at(&db, &paths_old, &stats_old, 1).unwrap();
        assert_eq!(pinned[&pid].samples, 1);
        // ...without evicting the newer entry.
        let live2 = aggregated_paths(&db, 1).unwrap();
        assert!(Arc::ptr_eq(&live, &live2));
    }

    /// A re-created collection restarts its version counter, so equal
    /// versions alone would serve what was filed for its predecessor;
    /// the `Weak` + pointer guard ([`is_live`]) is what tells them apart.
    #[test]
    fn dropped_and_recreated_collection_never_hits_a_stale_entry() {
        let db = Database::new();
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };
        insert_path(&db, 1, 0, 5);
        insert(&db, &measurement(1, 0, 1000, 20.0));
        assert_eq!(aggregated_paths(&db, 1).unwrap()[&pid].hops, 5);
        let (paths_was, stats_was) = pin_pair(&db);

        // `paths` again, same version, other content.
        assert!(db.drop_collection(PATHS));
        insert_path(&db, 1, 0, 9);
        assert_eq!(
            db.read_snapshot(PATHS).mutation_version(),
            paths_was.mutation_version()
        );
        assert_eq!(aggregated_paths(&db, 1).unwrap()[&pid].hops, 9);

        // `paths_stats` again, same version, other content.
        assert!(db.drop_collection(PATHS_STATS));
        insert(&db, &measurement(1, 0, 1000, 80.0));
        assert_eq!(
            db.read_snapshot(PATHS_STATS).mutation_version(),
            stats_was.mutation_version()
        );
        assert_eq!(
            grouped_measurements(&db, 1).unwrap()[&pid][0].avg_latency_ms,
            Some(80.0)
        );
        let aggs = aggregated_paths(&db, 1).unwrap();
        assert_eq!(aggs[&pid].latency.as_ref().unwrap().mean, 80.0);
    }

    #[test]
    fn distinct_databases_do_not_share_entries() {
        let a = Database::new();
        let b = Database::new();
        insert(&a, &measurement(1, 0, 1000, 20.0));
        insert(&b, &measurement(1, 0, 1000, 80.0));
        let ga = grouped_measurements(&a, 1).unwrap();
        let gb = grouped_measurements(&b, 1).unwrap();
        let pid = PathId {
            server_id: 1,
            path_index: 0,
        };
        assert_eq!(ga[&pid][0].avg_latency_ms, Some(20.0));
        assert_eq!(gb[&pid][0].avg_latency_ms, Some(80.0));
    }
}

#[cfg(test)]
mod props {
    //! The stats cache's one state machine against from-scratch
    //! recomputation, and a model of its counters.

    use crate::schema::{PathId, PathMeasurement, StatId, PATHS, PATHS_STATS};
    use crate::statcache::{self, GroupedMeasurements, PathAggregates};
    use pathdb::{doc, Collection, Database, Delta, Filter, RowRef, Update, ValueRef};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::Arc;
    use upin_telemetry::Telemetry;

    // ---- the stats cache against from-scratch recomputation -----------------

    /// One step of a reader/writer interleaving over destinations 1..=3.
    #[derive(Debug, Clone)]
    enum CacheOp {
        /// One `insert_many` batch of `(path_index, timestamp, latency)` rows.
        Append(u32, Vec<(u32, u64, f64)>),
        UpdateStats(u32, u32, f64),
        DeleteStats(u32, u32),
        /// `paths` metadata update.
        SetHops(u32, u32, i64),
        /// A new `paths` document (`paths` only appended).
        AddPath(u32),
        /// Pin the pair now, into one of three slots, to be used later.
        Pin(usize),
        /// Fetch `dest` from a slot's pin (a live pin if the slot is empty or
        /// `None`): 0 grouped, 1 aggregated, 2 grouped then aggregated, 3
        /// aggregated then grouped.
        Fetch(u32, Option<usize>, u8),
    }

    fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
        let dest = || 1u32..4;
        let path = || 0u32..5;
        let append = || {
            let rows = prop::collection::vec((path(), 0u64..40, 1.0..300.0f64), 1..6);
            (dest(), rows).prop_map(|(d, rows)| CacheOp::Append(d, rows))
        };
        let fetch = || {
            (dest(), prop::option::of(0usize..3), 0u8..4)
                .prop_map(|(d, s, k)| CacheOp::Fetch(d, s, k))
        };
        // Reshapes start an entry over, so they are the rare ops: the arms
        // worth reaching are the ones that carry an entry forward.
        prop_oneof![
            append(),
            append(),
            append(),
            (dest(), path(), 1.0..300.0f64).prop_map(|(d, p, l)| CacheOp::UpdateStats(d, p, l)),
            (dest(), path()).prop_map(|(d, p)| CacheOp::DeleteStats(d, p)),
            (dest(), path(), 2i64..9).prop_map(|(d, p, h)| CacheOp::SetHops(d, p, h)),
            dest().prop_map(CacheOp::AddPath),
            (0usize..3).prop_map(CacheOp::Pin),
            (0usize..3).prop_map(CacheOp::Pin),
            fetch(),
            fetch(),
            fetch(),
            fetch(),
            fetch(),
            fetch(),
        ]
    }

    fn stats_row(dest: u32, path_index: u32, timestamp_ms: u64, lat: f64) -> PathMeasurement {
        PathMeasurement {
            stat_id: StatId {
                path: PathId {
                    server_id: dest,
                    path_index,
                },
                timestamp_ms,
            },
            isds: vec![16, 17],
            hops: 6,
            avg_latency_ms: Some(lat),
            jitter_ms: Some(lat / 10.0),
            loss_pct: 0.5,
            bw_up_64: None,
            bw_down_64: None,
            bw_up_mtu: Some(lat / 2.0),
            bw_down_mtu: None,
            target_mbps: 12.0,
            error: None,
        }
    }

    fn path_doc(dest: u32, path_index: u32) -> pathdb::Document {
        doc! {
            "_id" => format!("{dest}_{path_index}"),
            "server_id" => dest as i64,
            "path_index" => path_index as i64,
            "sequence" => format!("seq-{dest}-{path_index}"),
            "hops" => 5i64,
        }
    }

    type Pins = (Arc<Collection>, Arc<Collection>);

    /// The grouping of a pinned `paths_stats`, by hand.
    fn grouped_from_scratch(stats: &Collection, dest: u32) -> GroupedMeasurements {
        let mut grouped = GroupedMeasurements::new();
        for d in stats.iter() {
            if d.get("server_id").and_then(ValueRef::as_int) == Some(dest as i64) {
                let m = PathMeasurement::from_doc(d).unwrap();
                grouped.entry(m.stat_id.path).or_default().push(m);
            }
        }
        for ms in grouped.values_mut() {
            ms.sort_by_key(|m| m.stat_id.timestamp_ms);
        }
        grouped
    }

    /// The aggregates of a pinned pair, as a database that has never been
    /// asked anything builds them from a copy of the two images.
    fn aggregates_from_scratch(pins: &Pins, dest: u32) -> PathAggregates {
        let fresh = Database::new();
        for (name, image) in [(PATHS, &pins.0), (PATHS_STATS, &pins.1)] {
            let docs: Vec<_> = image.iter().map(RowRef::to_document).collect();
            fresh.collection(name).write().insert_many(docs).unwrap();
        }
        (*statcache::aggregated_paths(&fresh, dest).unwrap()).clone()
    }

    /// What the cache must remember per destination, and what its counters
    /// must read: a hit only on equal versions, a merge only on `Appended`,
    /// a pin older than the entry answered without touching it.
    #[derive(Default)]
    struct CacheModel {
        /// `(stats_version, paths_version once aggregates were filed)`.
        entries: HashMap<u32, (u64, Option<u64>)>,
        counters: BTreeMap<&'static str, u64>,
    }

    impl CacheModel {
        fn tick(&mut self, name: &'static str, by: u64) {
            *self.counters.entry(name).or_default() += by;
        }

        fn fetch(&mut self, dest: u32, pins: &Pins, aggregated: bool, rows: u64) {
            let (pv, sv) = (pins.0.mutation_version(), pins.1.mutation_version());
            let filed = self.entries.get(&dest).copied();
            let delta = filed.map_or(Delta::Reshaped, |(esv, _)| pins.1.delta_since(esv));
            if aggregated && delta == Delta::Same && filed.and_then(|e| e.1) == Some(pv) {
                return self.tick("statcache.agg.hit", 1);
            }
            if aggregated {
                self.tick("statcache.agg.recompute", 1);
            }
            let entry = match delta {
                Delta::Same => {
                    self.tick("statcache.grouped.hit", 1);
                    filed.unwrap()
                }
                Delta::Appended => {
                    self.tick("statcache.grouped.merge", 1);
                    (sv, filed.unwrap().1)
                }
                Delta::Reshaped | Delta::Ahead => {
                    self.tick("statcache.grouped.recompute", 1);
                    self.tick("statcache.recompute_docs", rows);
                    if delta == Delta::Ahead {
                        return;
                    }
                    (sv, None)
                }
            };
            // Aggregates move to the pinned `paths` unless they are newer.
            let newer = entry
                .1
                .is_some_and(|epv| pins.0.delta_since(epv) == Delta::Ahead);
            let epv = if aggregated && !newer {
                Some(pv)
            } else {
                entry.1
            };
            self.entries.insert(dest, (entry.0, epv));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The oracle for the stats cache's state machine: whatever the
        /// interleaving of appends, reshapes, `paths` changes, pins taken
        /// early and used late, and fetch orders, every answer equals a
        /// from-scratch recomputation over the snapshot it was pinned at —
        /// each aggregate's encoded JSON too — and the counters tick as
        /// [`CacheModel`] says.
        #[test]
        fn statcache_answers_equal_a_from_scratch_recompute(
            ops in prop::collection::vec(arb_cache_op(), 1..80),
        ) {
            let mut db = Database::new();
            let telemetry = Arc::new(Telemetry::new());
            db.set_recorder(Some(telemetry.clone()));
            let (paths, stats) = (db.collection(PATHS), db.collection(PATHS_STATS));
            let mut next_path = [0u32; 4];
            for dest in 1u32..4 {
                for _ in 0..3 {
                    paths.write().insert_one(path_doc(dest, next_path[dest as usize])).unwrap();
                    next_path[dest as usize] += 1;
                }
            }
            let mut slots: [Option<Pins>; 3] = [None, None, None];
            let mut model = CacheModel::default();
            for (seq, op) in ops.into_iter().enumerate() {
                match op {
                    CacheOp::Append(dest, rows) => {
                        // `seq` keeps `_id`s unique; timestamps still arrive
                        // out of order.
                        let docs = rows.iter().enumerate().map(|(i, &(p, ts, lat))| {
                            stats_row(dest, p, ts * 10_000 + (seq * 10 + i) as u64, lat).to_doc()
                        });
                        stats.write().insert_many(docs.collect()).unwrap();
                    }
                    CacheOp::UpdateStats(dest, p, lat) => {
                        let filter = Filter::eq("path_id", format!("{dest}_{p}"));
                        stats.write().update_many(&filter, &Update::new().set("avg_latency_ms", lat));
                    }
                    CacheOp::DeleteStats(dest, p) => {
                        stats.write().delete_many(&Filter::eq("path_id", format!("{dest}_{p}")));
                    }
                    CacheOp::SetHops(dest, p, hops) => {
                        let filter = Filter::eq("_id", format!("{dest}_{p}"));
                        paths.write().update_many(&filter, &Update::new().set("hops", hops));
                    }
                    CacheOp::AddPath(dest) => {
                        paths.write().insert_one(path_doc(dest, next_path[dest as usize])).unwrap();
                        next_path[dest as usize] += 1;
                    }
                    CacheOp::Pin(slot) => slots[slot] = Some(statcache::pin_pair(&db)),
                    CacheOp::Fetch(dest, slot, kind) => {
                        let pins = slot
                            .and_then(|s| slots[s].clone())
                            .unwrap_or_else(|| statcache::pin_pair(&db));
                        let grouped = grouped_from_scratch(&pins.1, dest);
                        let rows = grouped.values().map(|ms| ms.len() as u64).sum();
                        let order: &[bool] = match kind {
                            0 => &[false],
                            1 => &[true],
                            2 => &[false, true],
                            _ => &[true, false],
                        };
                        for &aggregated in order {
                            if aggregated {
                                let got = statcache::aggregated_paths_at(&db, &pins.0, &pins.1, dest);
                                let (got, want) = (got.unwrap(), aggregates_from_scratch(&pins, dest));
                                prop_assert_eq!(&*got, &want);
                                // And the bytes an answer splices in: encoded
                                // once per version, never carried over stale.
                                let json = |a| serde_json::to_string(a).unwrap();
                                for (id, a) in got.iter() {
                                    prop_assert_eq!(json(a), json(&want[id]), "{:?} after {:?}", id, op);
                                }
                            } else {
                                let got = statcache::grouped_measurements_at(&db, &pins.1, dest);
                                prop_assert_eq!(&*got.unwrap(), &grouped);
                            }
                            model.fetch(dest, &pins, aggregated, rows);
                            for name in [
                                "statcache.agg.hit",
                                "statcache.agg.recompute",
                                "statcache.grouped.hit",
                                "statcache.grouped.merge",
                                "statcache.grouped.recompute",
                                "statcache.recompute_docs",
                            ] {
                                let want = model.counters.get(name).copied().unwrap_or(0);
                                prop_assert_eq!(telemetry.counter(name), want, "{} after {:?}", name, op);
                            }
                        }
                    }
                }
            }
        }
    }
}
