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
use crate::select::{build_aggregate, PathAggregate};
use parking_lot::{Mutex, RwLock};
use pathdb::{Collection, CollectionHandle, Database, Delta, Filter};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, OnceLock, Weak};

/// The grouping shape every consumer works from: measurements per path,
/// ordered by timestamp within each path.
pub type GroupedMeasurements = BTreeMap<PathId, Vec<PathMeasurement>>;

/// Whiskers, mean jitter and mean loss of every path of a destination.
pub type PathAggregates = BTreeMap<PathId, PathAggregate>;

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
pub fn grouped_measurements_at(
    db: &Database,
    stats_snap: &Collection,
    server_id: u32,
) -> SuiteResult<Arc<GroupedMeasurements>> {
    Ok(fetch(db, stats_snap, None, server_id)?.0)
}

/// Per-path aggregates of every path `paths` lists for `server_id`.
/// The selection engine intersects this constraint-independent map with
/// its candidate set, so one entry serves every `Constraints` variation.
pub fn aggregated_paths(db: &Database, server_id: u32) -> SuiteResult<Arc<PathAggregates>> {
    let (paths_snap, stats_snap) = pin_pair(db);
    aggregated_paths_at(db, &paths_snap, &stats_snap, server_id)
}

/// Pin an MVCC snapshot of the `paths` + `paths_stats` pair — the unit
/// of consistency every read of the selection engine works from.
pub fn pin_pair(db: &Database) -> (Arc<Collection>, Arc<Collection>) {
    (db.read_snapshot(PATHS), db.read_snapshot(PATHS_STATS))
}

/// [`aggregated_paths`] of an explicit [`pin_pair`]: readers of one
/// version pair get identical aggregates, whatever a campaign is writing.
pub fn aggregated_paths_at(
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
            by_path.insert(id, build_aggregate(&*rec, id, sequence, hops, ms));
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
                        let sequence = std::mem::take(&mut agg.sequence);
                        *agg = build_aggregate(&*rec, path, sequence, agg.hops, ms);
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
