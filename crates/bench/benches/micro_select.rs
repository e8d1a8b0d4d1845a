//! Selection-engine scalability (§4.1.1): "the amount of data generated
//! grows both with the number of tests performed per destination, as
//! well as the number of destinations tested" — and the user-facing
//! query layer has to stay responsive on top of it.
//!
//! Benches recommendation latency over synthetic campaigns of growing
//! size, with and without a secondary index on `server_id`, plus the
//! multi-criteria rankers over wide candidate sets.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathdb::{doc, Filter, Update};
use upin_bench::synthetic_db;
use upin_core::multi::{pareto_front, weighted_rank, Weights};
use upin_core::schema::PATHS_STATS;
use upin_core::select::{aggregate_paths, recommend, Constraints, Objective, UserRequest};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro_select");
    g.sample_size(20);

    for &(servers, paths_per, rounds) in &[(21u32, 10u32, 10u32), (21, 24, 60)] {
        let total = servers * paths_per * rounds;
        let scan = synthetic_db(servers, paths_per, rounds, false);
        let indexed = synthetic_db(servers, paths_per, rounds, true);
        let request = UserRequest {
            server_id: 7,
            objective: Objective::MinLatency,
            constraints: Constraints {
                exclude_countries: vec!["United States".into()],
                ..Constraints::default()
            },
        };
        g.bench_function(format!("recommend/scan_{total}_docs"), |b| {
            b.iter(|| recommend(&scan, black_box(&request), 3).unwrap())
        });
        g.bench_function(format!("recommend/indexed_{total}_docs"), |b| {
            b.iter(|| recommend(&indexed, black_box(&request), 3).unwrap())
        });
    }

    // Stats-cache regimes on the large campaign. Repeated
    // recommendations against an unchanged database hit the memoized
    // per-path grouping; an append-only campaign pays only for the new
    // rows; an in-place update (reshape) forces the full recompute that
    // every query used to pay.
    let warm = synthetic_db(21, 24, 60, true);
    let cached_req = UserRequest {
        server_id: 7,
        objective: Objective::MinLatency,
        constraints: Constraints::default(),
    };
    recommend(&warm, &cached_req, 3).unwrap(); // prime the cache
    g.bench_function("recommend/cached_repeat_30240_docs", |b| {
        b.iter(|| recommend(&warm, black_box(&cached_req), 3).unwrap())
    });
    g.bench_function("recommend/append_merge_30240_docs", |b| {
        let handle = warm.collection(PATHS_STATS);
        let mut n = 0u32;
        b.iter(|| {
            n += 1;
            handle
                .write()
                .insert_one(doc! {
                    "_id" => format!("7_0_{}", 200_000 + n),
                    "path_id" => "7_0",
                    "server_id" => 7i64,
                    "timestamp_ms" => (200_000 + n) as i64,
                    "isds" => vec![16i64, 17],
                    "hops" => 5i64,
                    "avg_latency_ms" => 33.0,
                    "jitter_ms" => 0.4,
                    "loss_pct" => 0.0,
                    "bw_up_mtu_mbps" => 9.0,
                    "bw_down_mtu_mbps" => 11.0,
                    "target_mbps" => 12.0,
                })
                .unwrap();
            recommend(&warm, black_box(&cached_req), 3).unwrap()
        })
    });
    g.bench_function("recommend/full_recompute_30240_docs", |b| {
        let handle = warm.collection(PATHS_STATS);
        b.iter(|| {
            handle.write().update_many(
                &Filter::eq("_id", "7_0_0"),
                &Update::new().set("jitter_ms", 0.4),
            );
            recommend(&warm, black_box(&cached_req), 3).unwrap()
        })
    });

    // Multi-criteria rankers over a wide candidate set.
    let db = synthetic_db(1, 200, 20, true);
    let candidates = aggregate_paths(&db, 1, &Constraints::default()).unwrap();
    assert_eq!(candidates.len(), 200);
    let criteria = [
        Objective::MinLatency,
        Objective::MinLoss,
        Objective::MaxBandwidthDown,
    ];
    g.bench_function("pareto_front/200_candidates", |b| {
        b.iter(|| pareto_front(black_box(&candidates), &criteria))
    });
    let weights = Weights {
        latency: 2.0,
        loss: 1.0,
        bw_down: 1.0,
        ..Weights::default()
    };
    g.bench_function("weighted_rank/200_candidates", |b| {
        b.iter(|| weighted_rank(black_box(&candidates), &weights))
    });

    // Sanity: the two DB variants answer identically.
    let scan = synthetic_db(21, 10, 10, false);
    let indexed = synthetic_db(21, 10, 10, true);
    let req = UserRequest {
        server_id: 3,
        objective: Objective::MinLoss,
        constraints: Constraints::default(),
    };
    let a = recommend(&scan, &req, 5).unwrap();
    let b = recommend(&indexed, &req, 5).unwrap();
    assert_eq!(
        a.iter().map(|r| r.aggregate.path_id).collect::<Vec<_>>(),
        b.iter().map(|r| r.aggregate.path_id).collect::<Vec<_>>(),
    );

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
