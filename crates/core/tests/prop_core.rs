//! Property-based tests of the UPIN core: id codecs, measurement
//! round-trips, whisker invariants, constraint-filter agreement and the
//! stats cache's one state machine against from-scratch recomputation.

use pathdb::{doc, Collection, Database, Delta, Filter, Update, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use upin_core::analysis::{quantile, Whisker};
use upin_core::multi::{dominates, pareto_front, weighted_rank, Weights};
use upin_core::schema::{PathId, PathMeasurement, StatId, PATHS, PATHS_STATS};
use upin_core::select::{doc_violates, Constraints, Objective, PathAggregate};
use upin_core::statcache::{self, GroupedMeasurements, PathAggregates};
use upin_telemetry::Telemetry;

fn arb_aggregate(idx: u32) -> impl Strategy<Value = PathAggregate> {
    (5.0..400.0f64, 0.0..30.0f64, 1.0..100.0f64).prop_map(move |(lat, loss, bw)| {
        let w = |mean: f64| Whisker {
            n: 5,
            min: mean,
            q1: mean,
            median: mean,
            q3: mean,
            max: mean,
            mean,
            std: 0.0,
        };
        PathAggregate {
            path_id: PathId {
                server_id: 1,
                path_index: idx,
            },
            sequence: format!("seq-{idx}"),
            hops: 6,
            samples: 5,
            latency: Some(w(lat)),
            jitter_ms: Some(lat / 20.0),
            mean_loss_pct: Some(loss),
            bw_up_mtu: Some(w(bw / 3.0)),
            bw_down_mtu: Some(w(bw)),
        }
    })
}

fn arb_candidates() -> impl Strategy<Value = Vec<PathAggregate>> {
    prop::collection::vec(0u32..1000, 1..20).prop_flat_map(|idxs| {
        idxs.into_iter()
            .enumerate()
            .map(|(i, _)| arb_aggregate(i as u32))
            .collect::<Vec<_>>()
    })
}

fn arb_path_id() -> impl Strategy<Value = PathId> {
    (1u32..100, 0u32..1000).prop_map(|(server_id, path_index)| PathId {
        server_id,
        path_index,
    })
}

proptest! {
    #[test]
    fn path_id_roundtrip(id in arb_path_id()) {
        prop_assert_eq!(id.to_string().parse::<PathId>().unwrap(), id);
    }

    #[test]
    fn stat_id_roundtrip(path in arb_path_id(), ts in any::<u32>()) {
        let id = StatId { path, timestamp_ms: ts as u64 };
        prop_assert_eq!(id.to_string().parse::<StatId>().unwrap(), id);
    }

    #[test]
    fn measurement_doc_roundtrip(
        path in arb_path_id(),
        ts in any::<u32>(),
        hops in 2usize..10,
        lat in prop::option::of(1.0..500.0f64),
        loss in 0.0..100.0f64,
        bw in prop::option::of(0.0..200.0f64),
        target in prop::sample::select(vec![12.0, 150.0]),
        err in prop::option::of("[a-z ]{1,20}"),
        isds in prop::collection::vec(1u16..30, 1..5),
    ) {
        let mut sorted = isds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let m = PathMeasurement {
            stat_id: StatId { path, timestamp_ms: ts as u64 },
            isds: sorted,
            hops,
            avg_latency_ms: lat,
            jitter_ms: lat.map(|l| l / 10.0),
            loss_pct: loss,
            bw_up_64: bw,
            bw_down_64: bw.map(|b| b * 2.0),
            bw_up_mtu: bw,
            bw_down_mtu: bw,
            target_mbps: target,
            error: err,
        };
        let back = PathMeasurement::from_doc(&m.to_doc()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn whisker_orders_its_five_numbers(samples in prop::collection::vec(-1e6..1e6f64, 1..200)) {
        let w = Whisker::from_samples(&samples).unwrap();
        prop_assert!(w.min <= w.q1);
        prop_assert!(w.q1 <= w.median);
        prop_assert!(w.median <= w.q3);
        prop_assert!(w.q3 <= w.max);
        prop_assert!(w.min <= w.mean && w.mean <= w.max);
        prop_assert!(w.std >= 0.0);
        prop_assert_eq!(w.n, samples.len());
    }

    #[test]
    fn quantile_is_monotone(samples in prop::collection::vec(-1e6..1e6f64, 1..100),
                            q1 in 0.0..1.0f64, q2 in 0.0..1.0f64) {
        let mut v = samples;
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile(&v, lo) <= quantile(&v, hi));
    }

    /// Pareto-front soundness and completeness on random candidate sets:
    /// no front member dominates another; every non-member is dominated
    /// by some member.
    #[test]
    fn pareto_front_is_sound_and_complete(cands in arb_candidates()) {
        let criteria = [Objective::MinLatency, Objective::MinLoss, Objective::MaxBandwidthDown];
        let front = pareto_front(&cands, &criteria);
        prop_assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                prop_assert!(!dominates(a, b, &criteria) || a.path_id == b.path_id);
            }
        }
        for c in &cands {
            if !front.iter().any(|f| f.path_id == c.path_id) {
                prop_assert!(
                    front.iter().any(|f| dominates(f, c, &criteria)),
                    "non-member {:?} must be dominated", c.path_id
                );
            }
        }
    }

    /// Any weighted-scalarization winner lies on the Pareto front of the
    /// active criteria.
    #[test]
    fn weighted_winner_is_pareto_optimal(
        cands in arb_candidates(),
        wl in 0.1..10.0f64,
        wo in 0.1..10.0f64,
        wb in 0.1..10.0f64,
    ) {
        let weights = Weights {
            latency: wl,
            loss: wo,
            bw_down: wb,
            ..Weights::default()
        };
        let ranked = weighted_rank(&cands, &weights);
        prop_assert!(!ranked.is_empty());
        let winner = ranked[0].1.path_id;
        let front = pareto_front(&cands, &weights.active());
        prop_assert!(front.iter().any(|f| f.path_id == winner));
        // Scores are normalized and sorted.
        for w in ranked.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        prop_assert!(ranked.iter().all(|(s, _)| (0.0..=1.0 + 1e-12).contains(s)));
    }

    /// The Constraints → Filter translation agrees with the direct
    /// document check on randomly generated path documents.
    #[test]
    fn constraints_filter_agrees_with_direct_check(
        isds in prop::collection::vec(1u16..30, 1..4),
        countries in prop::collection::vec(prop::sample::select(vec!["CH", "DE", "US", "SG", "KR"]), 1..4),
        hops in 2i64..10,
        excl_isd in 1u16..30,
        excl_country in prop::sample::select(vec!["CH", "DE", "US", "SG", "KR"]),
        max_hops in prop::option::of(2usize..10),
    ) {
        let server_id = 3u32;
        let d = doc! {
            "_id" => "3_0",
            "server_id" => server_id as i64,
            "hops" => hops,
            "isds" => isds.iter().map(|i| *i as i64).collect::<Vec<i64>>(),
            "ases" => Vec::<String>::new(),
            "countries" => countries.iter().map(|c| c.to_string()).collect::<Vec<String>>(),
            "operators" => Vec::<String>::new(),
        };
        let c = Constraints {
            exclude_isds: vec![excl_isd],
            exclude_countries: vec![excl_country.to_string()],
            max_hops,
            ..Constraints::default()
        };
        let filter_says_keep = c.to_filter(server_id).matches(&d);
        prop_assert_eq!(filter_says_keep, !doc_violates(&d, &c));
    }
}

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
        (dest(), prop::option::of(0usize..3), 0u8..4).prop_map(|(d, s, k)| CacheOp::Fetch(d, s, k))
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
        if d.get("server_id").and_then(Value::as_int) == Some(dest as i64) {
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
        let docs: Vec<_> = image.iter().cloned().collect();
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
    /// from-scratch recomputation over the snapshot it was pinned at,
    /// and the counters tick as [`CacheModel`] says.
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
                            prop_assert_eq!(&*got.unwrap(), &aggregates_from_scratch(&pins, dest));
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
