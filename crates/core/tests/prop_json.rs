//! Oracle for the streaming JSON encoder: `serde_json::to_string`
//! writes straight into its buffer, `to_jval()` builds the value tree —
//! the two must agree byte for byte on every service request and
//! response and on arbitrary value trees. The tree is the reference;
//! every CLI / loadgen / WAL byte pin rests on this equality.

use proptest::prelude::*;
use serde::Serialize;
use serde_json::{Map, Number, Value};
use upin_core::analysis::Whisker;
use upin_core::api::*;
use upin_core::multi::Weights;
use upin_core::schema::PathId;
use upin_core::select::{Constraints, Objective, PathAggregate};

fn assert_stream_equals_tree<T: Serialize>(x: &T) {
    let streamed = serde_json::to_string(x).unwrap();
    let tree = x.to_jval();
    assert_eq!(streamed, tree.to_string());
    // And the bytes are JSON the tree parser reads back to the same tree.
    assert_eq!(serde_json::from_str::<Value>(&streamed).unwrap(), tree);
}

/// Strings that exercise every escape class: quotes, backslashes, the
/// named control escapes, the rest of C0, DEL, and multi-byte scalars.
fn arb_string() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'Z', '7', ' ', '-', ':', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
        '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '€', '日', '😀',
    ];
    prop::collection::vec(prop::sample::select(alphabet), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Floats including the values JSON cannot carry (rendered as `null`),
/// both zeros, integral values on either side of the positional range,
/// and subnormals.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        prop::sample::select(vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -3.0,
            1e15,
            -1e15,
            999_999_999_999_999.0,
            1e16,
            1e300,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            0.1,
            1.0 / 3.0,
        ]),
        -1e6..1e6f64,
        any::<u64>().prop_map(f64::from_bits),
    ]
}

fn arb_usize() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(usize::MAX), 0usize..100_000]
}

fn arb_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..1000]
}

fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(i64::MAX as u64),
        Just(i64::MAX as u64 + 1),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop::sample::select(vec![
        Objective::MinLatency,
        Objective::MinJitter,
        Objective::MaxBandwidthDown,
        Objective::MaxBandwidthUp,
        Objective::MinLoss,
    ])
}

fn arb_strings() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_string(), 0..4)
}

fn arb_constraints() -> impl Strategy<Value = Constraints> {
    (
        (
            prop::collection::vec(any::<u16>(), 0..4),
            arb_strings(),
            arb_strings(),
            arb_strings(),
        ),
        (
            prop::option::of(arb_usize()),
            prop::option::of(arb_f64()),
            arb_usize(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (exclude_isds, exclude_ases, exclude_countries, exclude_operators),
                (max_hops, max_loss_pct, min_samples, require_alive),
            )| Constraints {
                exclude_isds,
                exclude_ases,
                exclude_countries,
                exclude_operators,
                max_hops,
                max_loss_pct,
                min_samples,
                require_alive,
            },
        )
}

fn arb_weights() -> impl Strategy<Value = Weights> {
    (arb_f64(), arb_f64(), arb_f64(), (arb_f64(), arb_f64())).prop_map(
        |(latency, jitter, loss, (bw_down, bw_up))| Weights {
            latency,
            jitter,
            loss,
            bw_down,
            bw_up,
        },
    )
}

fn arb_request() -> impl Strategy<Value = ServiceRequest> {
    let recommend = (
        (arb_string(), arb_objective(), arb_constraints()),
        (arb_usize(), any::<bool>(), prop::option::of(arb_weights())),
    )
        .prop_map(
            |((destination, objective, constraints), (k, pareto, weights))| {
                ServiceRequest::Recommend(RecommendRequest {
                    destination,
                    objective,
                    constraints,
                    k,
                    pareto,
                    weights,
                })
            },
        );
    let showpaths = (arb_string(), arb_usize(), any::<bool>()).prop_map(
        |(destination, max_paths, extended)| {
            ServiceRequest::ShowPaths(ShowPathsRequest {
                destination,
                max_paths,
                extended,
            })
        },
    );
    let evaluate = (arb_string(), arb_objective(), arb_constraints()).prop_map(
        |(destination, objective, constraints)| {
            ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
                destination,
                objective,
                constraints,
            })
        },
    );
    let strategy = (
        (arb_string(), arb_string(), arb_objective()),
        (arb_constraints(), arb_usize(), arb_u64()),
    )
        .prop_map(
            |((destination, strategy, objective), (constraints, k, seed))| {
                ServiceRequest::StrategyScore(StrategyScoreRequest {
                    destination,
                    strategy,
                    objective,
                    constraints,
                    k,
                    seed,
                })
            },
        );
    prop_oneof![
        recommend,
        showpaths,
        evaluate,
        strategy,
        Just(ServiceRequest::Health)
    ]
}

fn arb_whisker() -> impl Strategy<Value = Whisker> {
    (
        (arb_usize(), arb_f64(), arb_f64(), arb_f64()),
        (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
    )
        .prop_map(|((n, min, q1, median), (q3, max, mean, std))| Whisker {
            n,
            min,
            q1,
            median,
            q3,
            max,
            mean,
            std,
        })
}

fn arb_aggregate() -> impl Strategy<Value = PathAggregate> {
    (
        (arb_u32(), arb_u32(), arb_string(), arb_usize()),
        (
            arb_usize(),
            prop::option::of(arb_whisker()),
            prop::option::of(arb_f64()),
            prop::option::of(arb_f64()),
        ),
        (
            prop::option::of(arb_whisker()),
            prop::option::of(arb_whisker()),
        ),
    )
        .prop_map(
            |(
                (server_id, path_index, sequence, hops),
                (samples, latency, jitter_ms, mean_loss_pct),
                (bw_up_mtu, bw_down_mtu),
            )| PathAggregate {
                path_id: PathId {
                    server_id,
                    path_index,
                },
                sequence,
                hops,
                samples,
                latency,
                jitter_ms,
                mean_loss_pct,
                bw_up_mtu,
                bw_down_mtu,
            },
        )
}

fn arb_entries() -> impl Strategy<Value = Vec<RankedEntry>> {
    prop::collection::vec(
        (arb_usize(), prop::option::of(arb_f64()), arb_aggregate()).prop_map(
            |(rank, score, aggregate)| RankedEntry {
                rank,
                score,
                aggregate,
            },
        ),
        0..4,
    )
}

fn arb_error() -> impl Strategy<Value = ServiceError> {
    let code = prop::sample::select(vec![
        ErrorCode::InvalidRequest,
        ErrorCode::UnknownDestination,
        ErrorCode::NoMatch,
        ErrorCode::AllGated,
        ErrorCode::AllUnscorable,
        ErrorCode::NoCompleteStatistics,
        ErrorCode::UnknownStrategy,
        ErrorCode::Tool,
        ErrorCode::Db,
        ErrorCode::Schema,
        ErrorCode::NoCandidates,
        ErrorCode::Unauthorized,
        ErrorCode::Campaign,
    ]);
    (
        code,
        prop::option::of(arb_u32()),
        prop::option::of(arb_usize()),
        (
            prop::option::of(arb_usize()),
            prop::option::of(arb_string()),
        ),
    )
        .prop_map(|(code, server_id, matched, (gated, detail))| ServiceError {
            code,
            server_id,
            matched,
            gated,
            detail,
        })
}

fn arb_response() -> impl Strategy<Value = ServiceResponse> {
    let mode = prop::sample::select(vec![
        RecommendMode::Ranked,
        RecommendMode::Weighted,
        RecommendMode::Pareto,
    ]);
    let recommend = (arb_u32(), mode, arb_entries()).prop_map(|(server_id, mode, entries)| {
        ServiceResponse::Recommend(RecommendResponse {
            server_id,
            mode,
            entries,
        })
    });
    let line = (
        (arb_usize(), arb_string(), arb_u32()),
        (arb_f64(), arb_string(), arb_usize()),
    )
        .prop_map(
            |((index, path, mtu), (latency_ms, status, hops))| PathLine {
                index,
                path,
                mtu,
                latency_ms,
                status,
                hops,
            },
        );
    let showpaths = (
        arb_string(),
        any::<bool>(),
        prop::collection::vec(line, 0..4),
    )
        .prop_map(|(destination, extended, paths)| {
            ServiceResponse::ShowPaths(ShowPathsResponse {
                destination,
                extended,
                paths,
            })
        });
    let evaluate = (
        (arb_u32(), arb_objective(), arb_usize()),
        (arb_usize(), arb_usize(), arb_usize()),
    )
        .prop_map(
            |((server_id, objective, stored), (matched, gated, scorable))| {
                ServiceResponse::EvaluateConstraint(ConstraintReport {
                    server_id,
                    objective,
                    stored,
                    matched,
                    gated,
                    scorable,
                })
            },
        );
    let strategy =
        (arb_u32(), arb_string(), arb_entries()).prop_map(|(server_id, strategy, entries)| {
            ServiceResponse::StrategyScore(StrategyScoreResponse {
                server_id,
                strategy,
                entries,
            })
        });
    let collection =
        (arb_string(), arb_usize(), arb_u64()).prop_map(|(name, docs, version)| CollectionStatus {
            name,
            docs,
            version,
        });
    let health = (prop::collection::vec(collection, 0..4), arb_usize()).prop_map(
        |(collections, destinations)| {
            ServiceResponse::Health(HealthStatus {
                collections,
                destinations,
            })
        },
    );
    prop_oneof![
        recommend,
        showpaths,
        evaluate,
        strategy,
        health,
        arb_error().prop_map(ServiceResponse::Error)
    ]
}

/// Arbitrary trees, built directly so they also hold what no parser
/// would produce: non-finite `Float`s and `UInt`s.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|i| Value::Number(Number::Int(i))),
        arb_u64().prop_map(|u| Value::Number(Number::from(u))),
        arb_f64().prop_map(|f| Value::Number(Number::Float(f))),
        arb_string().prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec((arb_string(), inner), 0..4)
                .prop_map(|entries| Value::Object(entries.into_iter().collect::<Map>())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_stream_the_bytes_the_tree_renders(req in arb_request()) {
        assert_stream_equals_tree(&req);
        // Non-finite floats render as `null`, which `Option<f64>` reads
        // back as `None` — so compare re-encodings, not values.
        let json = req.to_json_string();
        let back = ServiceRequest::from_json_str(&json).unwrap();
        prop_assert_eq!(back.to_json_string(), json);
    }

    #[test]
    fn responses_stream_the_bytes_the_tree_renders(resp in arb_response()) {
        assert_stream_equals_tree(&resp);
        let json = resp.to_json_string();
        let back = ServiceResponse::from_json_str(&json).unwrap();
        prop_assert_eq!(back.to_json_string(), json);
    }

    #[test]
    fn value_trees_stream_the_bytes_display_renders(v in arb_value()) {
        let streamed = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(&streamed, &v.to_string());
        // Pretty output is the same document, whitespace aside.
        let pretty = serde_json::to_string_pretty(&v).unwrap();
        prop_assert_eq!(
            serde_json::from_str::<Value>(&pretty).unwrap(),
            serde_json::from_str::<Value>(&streamed).unwrap()
        );
    }
}
