//! Oracles for the JSON codec, each against the slower thing it
//! replaced. The streaming encoder: `serde_json::to_string` writes
//! straight into its buffer, `to_jval()` builds the value tree — the
//! two must agree byte for byte on every service request and response
//! and on arbitrary value trees. The float writer: `write_f64` against
//! `{:?}`, its contract, and against the parser. The typed decoder:
//! `from_str::<T>` against the value tree read with `from_jval`. Every
//! CLI / `upin serve` / slice-line byte pin rests on these equalities.

use proptest::prelude::*;
use serde::json::Reader;
use serde::{Deserialize, Serialize};
use serde_json::{Map, Number, Value};
use std::fmt::Debug;
use upin_core::analysis::Whisker;
use upin_core::api::*;
use upin_core::multi::Weights;
use upin_core::schema::PathId;
use upin_core::select::{Constraints, Objective, PathAggregate, Recommendation};

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

fn arb_entries() -> impl Strategy<Value = Vec<Recommendation>> {
    prop::collection::vec(
        (arb_usize(), prop::option::of(arb_f64()), arb_aggregate()).prop_map(
            |(rank, score, aggregate)| Recommendation {
                rank,
                score,
                aggregate: aggregate.into(),
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
        // The first encoding filed each aggregate's bytes; this one
        // splices them in, and must not differ by a byte.
        let json = resp.to_json_string();
        prop_assert_eq!(&json, &resp.to_jval().to_string());
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

// ---- floats: `write_f64` is `{:?}` without `fmt` ---------------------------

/// What a byte writer appended, as text.
fn written(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    write(&mut out);
    String::from_utf8(out).unwrap()
}

fn assert_float_text(x: f64) {
    let text = written(|out| serde::json::write_f64(out, x));
    if !x.is_finite() {
        assert_eq!(text, "null");
        return;
    }
    assert_eq!(text, format!("{x:?}"), "bits {:#018x}", x.to_bits());
    let back: f64 = serde_json::from_str(&text).unwrap();
    assert_eq!(back.to_bits(), x.to_bits(), "{text} read back as {back:?}");
}

/// `x`, its negation and the two floats on either side of each.
fn assert_float_text_around(x: f64) {
    let bits = x.abs().to_bits();
    for b in [bits.saturating_sub(1), bits, bits + 1] {
        assert_float_text(f64::from_bits(b));
        assert_float_text(-f64::from_bits(b));
    }
}

/// The classes random bit patterns all but never hit: exact decimal
/// ties, powers of ten, every binary exponent, the notation switch
/// points and the ends of the range.
#[test]
fn float_text_is_debug_text_on_structured_classes() {
    // The tie that told `{:?}` from round-half-even: 1658206780088562.25
    // is exact in binary, both 17-digit neighbours are exactly 0.05
    // away, and std prints the upper one.
    let tie = 6_632_827_120_354_249.0 / 4.0;
    assert_eq!(format!("{tie:?}"), "1658206780088562.3");
    assert_float_text_around(tie);

    for n in -324..=308 {
        for lead in ["1", "1.5", "2.5", "5", "9.999999999999999"] {
            let x: f64 = format!("{lead}e{n}").parse().unwrap();
            assert_float_text_around(x);
        }
    }
    for biased in 0..=2046u64 {
        for fraction in [0, 1, 1 << 51, (1 << 52) - 1] {
            assert_float_text_around(f64::from_bits(biased << 52 | fraction));
        }
    }
    for fraction in (1..=4096).chain((0..52).map(|s| 1 << s)) {
        assert_float_text_around(f64::from_bits(fraction)); // subnormals
    }
    for x in [
        0.0,
        1e-4,
        1e15,
        1e16,
        999_999_999_999_999.9,
        9_999_999_999_999_998.0,
        0.00009999999999999999,
        f64::MIN_POSITIVE,
        f64::MAX,
        5e-324,
        f64::EPSILON,
    ] {
        assert_float_text_around(x);
        for ulps in 2..=4 {
            assert_float_text(f64::from_bits(x.to_bits() + ulps));
            assert_float_text(f64::from_bits(x.to_bits().saturating_sub(ulps)));
        }
    }
    for i in 0..=20_000 {
        assert_float_text(f64::from(i) / 10.0);
        assert_float_text(f64::from(i) / 1000.0);
        assert_float_text(-f64::from(i) / 1000.0);
    }
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_float_text(x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50_000))]

    #[test]
    fn float_text_is_debug_text_on_random_bits(bits in any::<u64>()) {
        assert_float_text(f64::from_bits(bits));
    }

    /// `m / 2^k` is exact in binary and ends in …5, …25, …125 in
    /// decimal: with 16 or more digits before those, the two shortest
    /// candidates are exactly equally far away.
    #[test]
    fn float_text_is_debug_text_on_dyadic_ties(m in 0u64..1 << 53, k in 1i32..=6) {
        assert_float_text(m as f64 / f64::from(1 << k));
        // The same tail one decimal place further left.
        assert_float_text((m >> 3) as f64 / f64::from(1 << k));
    }
}

// ---- strings and integers: the byte writers against their references -----

/// Up to 300 characters: a long clean run (so a scan that works in
/// blocks crosses block boundaries), one character from the escape
/// alphabet at any offset, and multi-byte scalars at either edge.
fn arb_long_string() -> impl Strategy<Value = String> {
    let clean = vec![
        'a', 'Z', '7', ' ', '-', ':', '/', '\u{7f}', 'é', 'ß', '€', '日', '😀',
    ];
    let escaped = vec![
        '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
    ];
    let edge = vec!['é', '€', '日', '😀'];
    (
        prop::collection::vec(prop::sample::select(clean), 0..298),
        prop::option::of((any::<prop::sample::Index>(), prop::sample::select(escaped))),
        prop::option::of(prop::sample::select(edge.clone())),
        prop::option::of(prop::sample::select(edge)),
    )
        .prop_map(|(mut run, escaped, lead, trail)| {
            if let Some((at, c)) = escaped {
                run.insert(at.index(run.len() + 1), c);
            }
            lead.into_iter().chain(run).chain(trail).collect()
        })
}

fn assert_int_text(v: i64) {
    assert_eq!(written(|out| serde::json::write_i64(out, v)), v.to_string());
    let u = v as u64;
    assert_eq!(written(|out| serde::json::write_u64(out, u)), u.to_string());
}

#[test]
fn integer_text_is_to_string_text_at_every_power_of_ten() {
    let mut power = 1u64;
    loop {
        for u in [power - 1, power, power + 1] {
            assert_int_text(u as i64);
            assert_int_text((u as i64).wrapping_neg());
        }
        match power.checked_mul(10) {
            Some(next) => power = next,
            None => break,
        }
    }
    for v in [0, 1, -1, i64::MIN, i64::MIN + 1, i64::MAX, u64::MAX as i64] {
        assert_int_text(v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn long_strings_are_written_as_the_reference_spells_them(s in arb_long_string()) {
        let mut reference = String::new();
        write_escaped(&mut reference, &s, false);
        prop_assert_eq!(written(|out| serde::json::write_str(out, &s)), reference);
    }

    #[test]
    fn integer_text_is_to_string_text_on_random_bits(bits in any::<u64>()) {
        assert_int_text(bits as i64);
        // And at every width, not mostly at 19 and 20 digits.
        assert_int_text((bits >> (bits % 64)) as i64);
    }
}

// ---- decode: the typed fast path against the tree --------------------------

/// `from_str::<T>` must answer exactly what reading the value tree with
/// `from_jval` answers: equal values (compared as `{:?}`, so a NaN
/// equals itself and the zeros differ) or equal error strings.
fn assert_decodes_like_the_tree<T: Deserialize + Debug>(text: &str) {
    let typed = serde_json::from_str::<T>(text).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_jval(&v));
    assert_eq!(format!("{typed:?}"), format!("{tree:?}"), "{text}");
}

/// Whether the strict reader alone accepts the whole of `text`.
fn takes_the_fast_path<T: Deserialize>(text: &str) -> bool {
    let mut r = Reader::new(text);
    T::read_json(&mut r).is_some() && r.at_end()
}

/// Ways of spelling a document differently from how the encoder does.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    /// Members of every object in reverse order.
    Reordered,
    /// Whitespace between all tokens.
    Spaced,
    /// Every object under the outermost (enum) one repeats its first
    /// key, with a different value.
    DuplicatedKeys,
    /// Every object has a member no type declares.
    UnknownKeys,
    /// Every letter and digit of a string value as a `\u` escape.
    EscapedStrings,
    /// The same in object keys.
    EscapedKeys,
    /// `3.0` where the encoder writes `3`.
    FloatForInt,
    /// `null` where the encoder writes a non-integral number.
    NullForFloat,
    /// A second key in the outermost (enum) object.
    SecondVariantKey,
    /// The same, in front of the real one.
    LeadingStrangerKey,
}

impl Mutation {
    const ALL: [Mutation; 10] = [
        Mutation::Reordered,
        Mutation::Spaced,
        Mutation::DuplicatedKeys,
        Mutation::UnknownKeys,
        Mutation::EscapedStrings,
        Mutation::EscapedKeys,
        Mutation::FloatForInt,
        Mutation::NullForFloat,
        Mutation::SecondVariantKey,
        Mutation::LeadingStrangerKey,
    ];

    /// Whether the strict reader must decline a document this mutation
    /// changed — it is specified to, and that is what keeps it from
    /// having to reproduce the tree's leniencies.
    fn must_be_declined(self) -> bool {
        !matches!(
            self,
            Mutation::Reordered | Mutation::Spaced | Mutation::NullForFloat
        )
    }
}

/// The reference string writer, spelled out from the JSON grammar one
/// character at a time: the two structural characters and the named
/// control escapes, `\u00XX` for the rest of C0, anything else as
/// itself — what `write_str` writes. With `escape_more`, every letter
/// and digit and every scalar beyond the BMP becomes a `\u` escape too,
/// which the encoder never writes.
fn write_escaped(out: &mut String, s: &str, escape_more: bool) {
    out.push('"');
    for c in s.chars() {
        match c {
            c if escape_more && (c.is_ascii_alphanumeric() || c as u32 > 0xFFFF) => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn mutant(v: &Value, m: Mutation) -> String {
    let mut out = String::new();
    write_mutant(v, m, true, &mut out);
    out
}

fn write_mutant(v: &Value, m: Mutation, outermost: bool, out: &mut String) {
    let gap = if m == Mutation::Spaced { " \n\t" } else { "" };
    let join = |out: &mut String, open: char, parts: Vec<String>, close: char| {
        out.push(open);
        out.push_str(gap);
        out.push_str(&parts.join(&format!("{gap},{gap}")));
        out.push_str(gap);
        out.push(close);
    };
    match v {
        Value::Number(Number::Int(i)) if m == Mutation::FloatForInt => {
            out.push_str(&format!("{i}.0"));
        }
        Value::Number(Number::Float(_)) if m == Mutation::NullForFloat => out.push_str("null"),
        Value::String(s) if m == Mutation::EscapedStrings => write_escaped(out, s, true),
        Value::Array(items) => {
            let parts = items.iter().map(|item| {
                let mut part = String::new();
                write_mutant(item, m, false, &mut part);
                part
            });
            join(out, '[', parts.collect(), ']');
        }
        Value::Object(map) => {
            let member = |key: &str, value: &Value| {
                let mut part = String::new();
                if m == Mutation::EscapedKeys {
                    write_escaped(&mut part, key, true);
                } else {
                    part.push_str(&written(|out| serde::json::write_str(out, key)));
                }
                part.push_str(gap);
                part.push(':');
                part.push_str(gap);
                write_mutant(value, m, false, &mut part);
                part
            };
            let mut parts: Vec<String> = map.iter().map(|(k, v)| member(k, v)).collect();
            match m {
                Mutation::Reordered => parts.reverse(),
                Mutation::DuplicatedKeys if !outermost => {
                    if let Some((key, value)) = map.iter().next() {
                        // The tree keeps the last duplicate, so make it differ.
                        let other = match value {
                            Value::Bool(b) => Value::Bool(!b),
                            Value::Number(Number::Int(i)) => Value::from(i ^ 1),
                            Value::String(s) => Value::String(format!("{s}x")),
                            same => same.clone(),
                        };
                        parts.push(member(key, &other));
                    }
                }
                Mutation::UnknownKeys => parts.push(r#""no_such_field":[1,{"a":null}]"#.into()),
                Mutation::SecondVariantKey if outermost => parts.push(r#""Health":null"#.into()),
                Mutation::LeadingStrangerKey if outermost => {
                    parts.insert(0, r#""Stranger":1"#.into())
                }
                _ => {}
            }
            join(out, '{', parts, '}');
        }
        plain => out.push_str(&plain.to_string()),
    }
}

/// `text` is the encoder's output for some `T`: the typed decoder must
/// agree with the tree on it and on every mutant of it.
fn assert_mutants_decode_like_the_tree<T: Deserialize + Debug>(text: &str) {
    assert_decodes_like_the_tree::<T>(text);
    let tree: Value = serde_json::from_str(text).unwrap();
    for m in Mutation::ALL {
        let spelled = mutant(&tree, m);
        assert_decodes_like_the_tree::<T>(&spelled);
        if spelled != text && m.must_be_declined() {
            assert!(
                !takes_the_fast_path::<T>(&spelled),
                "{m:?} accepted: {spelled}"
            );
        }
    }
}

fn sample_aggregate(path_index: u32) -> PathAggregate {
    let whisker = |scale: f64| Whisker {
        n: 40,
        min: 21.25 * scale,
        q1: 22.017 * scale,
        median: 22.4 * scale,
        q3: 23.000000000000004 * scale,
        max: 31.0 * scale,
        mean: 22.91234567890123 * scale,
        std: 1.0e-7 * scale,
    };
    PathAggregate {
        path_id: PathId {
            server_id: 2,
            path_index,
        },
        sequence: "17-ffaa:1:eaf#0,1 17-ffaa:0:1107#3,1 16-ffaa:0:1002#5,0".into(),
        hops: 3,
        samples: 40,
        latency: Some(whisker(1.0)),
        jitter_ms: Some(0.3125),
        mean_loss_pct: None,
        bw_up_mtu: Some(whisker(3.7)),
        bw_down_mtu: None,
    }
}

fn sample_entries() -> Vec<Recommendation> {
    (0..3)
        .map(|i| Recommendation {
            rank: i + 1,
            score: (i != 1).then_some(22.4 + i as f64),
            aggregate: sample_aggregate(i as u32).into(),
        })
        .collect()
}

/// One request of every variant, shaped like the load generator's
/// catalog and the CLI's request files: no character that needs an
/// escape.
fn catalog_requests() -> Vec<ServiceRequest> {
    let constraints = Constraints {
        exclude_isds: vec![19, 20],
        exclude_ases: vec!["17-ffaa:0:1107".into()],
        exclude_countries: vec!["CH".into(), "Südkorea".into()],
        exclude_operators: vec![],
        max_hops: Some(6),
        max_loss_pct: Some(2.5),
        min_samples: 3,
        require_alive: true,
    };
    vec![
        ServiceRequest::Recommend(RecommendRequest {
            destination: "2".into(),
            objective: Objective::MinJitter,
            constraints: constraints.clone(),
            k: 3,
            pareto: false,
            weights: Some(Weights {
                latency: 1.0,
                jitter: 0.25,
                loss: 0.0,
                bw_down: 2e-3,
                bw_up: 0.0,
            }),
        }),
        ServiceRequest::ShowPaths(ShowPathsRequest {
            destination: "16-ffaa:0:1002".into(),
            max_paths: 10,
            extended: true,
        }),
        ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
            destination: "16-ffaa:0:1002,[172.31.43.7]".into(),
            objective: Objective::MaxBandwidthDown,
            constraints: Constraints::default(),
        }),
        ServiceRequest::StrategyScore(StrategyScoreRequest {
            destination: "7".into(),
            strategy: "widest-path".into(),
            objective: Objective::MinLoss,
            constraints,
            k: 5,
            seed: u64::MAX,
        }),
        ServiceRequest::Health,
    ]
}

fn catalog_responses() -> Vec<ServiceResponse> {
    vec![
        ServiceResponse::Recommend(RecommendResponse {
            server_id: 2,
            mode: RecommendMode::Weighted,
            entries: sample_entries(),
        }),
        ServiceResponse::ShowPaths(ShowPathsResponse {
            destination: "16-ffaa:0:1002".into(),
            extended: true,
            paths: (0..3)
                .map(|index| PathLine {
                    index,
                    path: "17-ffaa:1:eaf 1>3 17-ffaa:0:1107 1>5 16-ffaa:0:1002".into(),
                    mtu: 1472,
                    latency_ms: 21.5 + index as f64 / 3.0,
                    status: "alive".into(),
                    hops: 3,
                })
                .collect(),
        }),
        ServiceResponse::EvaluateConstraint(ConstraintReport {
            server_id: 2,
            objective: Objective::MinLatency,
            stored: 12,
            matched: 9,
            gated: 4,
            scorable: 4,
        }),
        ServiceResponse::StrategyScore(StrategyScoreResponse {
            server_id: 7,
            strategy: "paper".into(),
            entries: sample_entries(),
        }),
        ServiceResponse::Health(HealthStatus {
            collections: vec![CollectionStatus {
                name: "paths_stats".into(),
                docs: 25_200,
                version: 1 << 40,
            }],
            destinations: 21,
        }),
        ServiceResponse::Error(ServiceError {
            code: ErrorCode::AllGated,
            server_id: Some(3),
            matched: Some(4),
            gated: None,
            detail: Some("no path passed min_samples = 50".into()),
        }),
    ]
}

fn assert_catalog_line<T: Deserialize + Debug>(line: &str) {
    assert!(
        takes_the_fast_path::<T>(line),
        "fell back to the tree: {line}"
    );
    assert_mutants_decode_like_the_tree::<T>(line);
    // Cut anywhere, the two readings fail — or succeed — alike.
    for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
        assert_decodes_like_the_tree::<T>(&line[..cut]);
    }
}

#[test]
fn catalog_lines_take_the_fast_path_and_decode_like_the_tree() {
    for req in catalog_requests() {
        assert_catalog_line::<ServiceRequest>(&req.to_json_string());
    }
    for resp in catalog_responses() {
        assert_catalog_line::<ServiceResponse>(&resp.to_json_string());
    }
    // The shapes request files are written in by hand: spaced, fields
    // left to their defaults, in any order.
    for line in [
        r#"{"Recommend": {"destination": "2", "k": 3}}"#,
        r#" {"ShowPaths":{"max_paths":2,"destination":"16-ffaa:0:1002"}} "#,
        "\"Health\"\n",
    ] {
        assert!(takes_the_fast_path::<ServiceRequest>(line), "{line}");
        assert_decodes_like_the_tree::<ServiceRequest>(line);
    }
    // Hostile spellings get the tree's verdict, whichever side answers.
    for line in [
        r#"{"Recommend":{"destination":"1","k":01}}"#,
        r#"{"Recommend":{"destination":"1","k":1e0}}"#,
        r#"{"Recommend":{"destination":"1","k":-1}}"#,
        r#"{"Recommend":{"destination":"1","k":18446744073709551616}}"#,
        r#"{"Recommend":{"destination":"1","constraints":{"max_loss_pct":1e999},"k":1}}"#,
        r#"{"Recommend":{"destination":"\u+031","k":1}}"#,
        r#"{"Recommend":{"destination":"\ud83d","k":1}}"#,
        r#"{"Recommend":{"destination":"1","k":1}}{"#,
        r#"{"Recommend":{"destination":"1","k":1,}}"#,
        r#"{"Recommend":{}}"#,
        r#"{"Recommend":null}"#,
        r#"{"Health":null}"#,
        r#"{}"#,
        r#""Recommend""#,
        r#""Healthy""#,
        r#"["Health"]"#,
        "",
    ] {
        assert_decodes_like_the_tree::<ServiceRequest>(line);
        assert_decodes_like_the_tree::<ServiceResponse>(line);
    }
    let nested = |n: usize| "{\"Recommend\":".repeat(n);
    assert_decodes_like_the_tree::<ServiceRequest>(&nested(200_000));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_decode_like_the_tree(req in arb_request()) {
        assert_mutants_decode_like_the_tree::<ServiceRequest>(&req.to_json_string());
    }

    #[test]
    fn responses_decode_like_the_tree(resp in arb_response()) {
        assert_mutants_decode_like_the_tree::<ServiceResponse>(&resp.to_json_string());
    }
}
