//! Closed-loop load generator for the path-intelligence service.
//!
//! Simulates a population of users hammering one [`PathIntelService`]
//! through a [`Transport`]: `--clients N` closed-loop clients (each
//! waits for its response before issuing the next request) and a seeded
//! preference/constraint [`Mix`] deciding what each client asks. A
//! campaign can write to the same database concurrently — the service's
//! MVCC snapshot reads are exactly what makes that safe.
//!
//! [`LoadgenOutcome::report`] is deterministic: request counts per kind,
//! an order-independent workload digest and the error count, plus a
//! response digest when no concurrent writer races. Same seed ⇒
//! byte-identical, pinned by tests and the `serve-smoke` CI job. Nothing
//! here is timed; what a request costs is the end-to-end benchmark's
//! `serve_static` / `serve_churn` (`benchmark/README.md`).

use crate::api::{
    parse_objective, EvaluateConstraintRequest, PathIntelService, RecommendRequest, ServiceRequest,
    ServiceResponse, ShowPathsRequest, StrategyScoreRequest, Transport,
};
use crate::error::{SuiteError, SuiteResult};
use crate::multi::Weights;
use crate::select::Constraints;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Most client threads one run may start (`--clients`).
const MAX_CLIENTS: usize = 1_024;

/// Most requests one run may issue over all clients (`--clients` ×
/// `--requests`). Every stream is synthesized before any is sent, so
/// [`run_loadgen`] refuses a larger run before anything is sized by
/// it.
const MAX_REQUESTS: usize = 10_000_000;

/// One weighted line of a request mix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MixEntry {
    /// Relative weight among the mix entries.
    pub weight: u32,
    /// `recommend` | `showpaths` | `evaluate` | `strategy` | `health`.
    pub kind: String,
    /// Objective name (`latency`, `jitter`, ...); default latency.
    #[serde(default)]
    pub objective: Option<String>,
    /// Recommendations per request; 0 means the default of 3.
    #[serde(default)]
    pub k: usize,
    /// Strategy registry key for `kind = "strategy"`.
    #[serde(default)]
    pub strategy: Option<String>,
    /// Ask for the Pareto menu instead of a ranking.
    #[serde(default)]
    pub pareto: bool,
    /// Weighted scalarization instead of a single objective.
    #[serde(default)]
    pub weights: Option<Weights>,
    /// Constraint template applied to every request of this entry.
    #[serde(default)]
    pub constraints: Option<Constraints>,
}

/// A user-population request mix (the `--mix FILE` payload).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mix {
    pub entries: Vec<MixEntry>,
}

impl Mix {
    /// The default population: mostly recommends, some path listings,
    /// a sprinkle of funnel evaluations and health probes.
    pub fn default_mix() -> Mix {
        Mix {
            entries: vec![
                MixEntry {
                    weight: 6,
                    kind: "recommend".into(),
                    objective: None,
                    k: 3,
                    strategy: None,
                    pareto: false,
                    weights: None,
                    constraints: None,
                },
                MixEntry {
                    weight: 2,
                    kind: "showpaths".into(),
                    objective: None,
                    k: 0,
                    strategy: None,
                    pareto: false,
                    weights: None,
                    constraints: None,
                },
                MixEntry {
                    weight: 1,
                    kind: "evaluate".into(),
                    objective: None,
                    k: 0,
                    strategy: None,
                    pareto: false,
                    weights: None,
                    constraints: None,
                },
                MixEntry {
                    weight: 1,
                    kind: "health".into(),
                    objective: None,
                    k: 0,
                    strategy: None,
                    pareto: false,
                    weights: None,
                    constraints: None,
                },
            ],
        }
    }

    /// The sum of the entry weights a stream rolls against, if it is
    /// positive and fits the `u32` the roll is drawn in.
    fn total_weight(&self) -> Result<u32, String> {
        let total: u64 = self.entries.iter().map(|e| u64::from(e.weight)).sum();
        match u32::try_from(total) {
            Ok(0) => Err("mix entries all have weight 0".into()),
            Ok(total) => Ok(total),
            Err(_) => Err(format!("mix weights sum to {total}, past {}", u32::MAX)),
        }
    }

    /// Parse a `--mix FILE` JSON payload.
    pub fn from_json_str(s: &str) -> Result<Mix, String> {
        let mix: Mix = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if mix.entries.is_empty() {
            return Err("mix has no entries".into());
        }
        mix.total_weight()?;
        for e in &mix.entries {
            match e.kind.as_str() {
                "recommend" | "showpaths" | "evaluate" | "strategy" | "health" => {}
                other => {
                    return Err(format!(
                        "unknown mix kind {other:?} \
                         (recommend|showpaths|evaluate|strategy|health)"
                    ))
                }
            }
            if let Some(name) = &e.objective {
                parse_objective(name)?;
            }
        }
        Ok(mix)
    }
}

/// Knobs of one loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Seed of the per-client request streams.
    pub seed: u64,
    pub mix: Mix,
    /// Run a measurement campaign against the same database while the
    /// clients read (the MVCC torture scenario).
    pub concurrent_campaign: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            clients: 4,
            requests_per_client: 100,
            seed: 42,
            mix: Mix::default_mix(),
            concurrent_campaign: false,
        }
    }
}

/// What a loadgen run produced.
#[derive(Debug, Clone)]
pub struct LoadgenOutcome {
    /// Deterministic report: byte-identical for the same seed + config.
    pub report: String,
    /// Responses that came back as [`ServiceResponse::Error`].
    pub errors: u64,
}

/// 64-bit FNV-1a — the digest of the deterministic report.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = if h == 0 { 0xcbf2_9ce4_8422_2325 } else { h };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Synthesize the full request stream of one client: seeded weighted
/// picks over the mix, destinations drawn uniformly from the registered
/// population. Pure — no clocks, no service.
fn client_stream(
    cfg: &LoadgenConfig,
    dests: &[(u32, String)],
    client: usize,
) -> SuiteResult<Vec<ServiceRequest>> {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let total_weight = cfg.mix.total_weight().map_err(SuiteError::InvalidRequest)?;
    let mut out = Vec::with_capacity(cfg.requests_per_client);
    for _ in 0..cfg.requests_per_client {
        let mut roll = rng.gen_range(0..total_weight);
        let entry = cfg
            .mix
            .entries
            .iter()
            .find(|e| {
                if roll < e.weight {
                    true
                } else {
                    roll -= e.weight;
                    false
                }
            })
            .expect("weights sum over entries");
        let (server_id, ia) = &dests[rng.gen_range(0..dests.len())];
        let objective = match &entry.objective {
            Some(name) => parse_objective(name).map_err(SuiteError::InvalidRequest)?,
            None => Default::default(),
        };
        let constraints = entry.constraints.clone().unwrap_or_default();
        let k = if entry.k == 0 { 3 } else { entry.k };
        out.push(match entry.kind.as_str() {
            "recommend" => ServiceRequest::Recommend(RecommendRequest {
                destination: server_id.to_string(),
                objective,
                constraints,
                k,
                pareto: entry.pareto,
                weights: entry.weights,
            }),
            "showpaths" => ServiceRequest::ShowPaths(ShowPathsRequest {
                destination: ia.clone(),
                max_paths: 10,
                extended: true,
            }),
            "evaluate" => ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
                destination: server_id.to_string(),
                objective,
                constraints,
            }),
            "strategy" => ServiceRequest::StrategyScore(StrategyScoreRequest {
                destination: server_id.to_string(),
                strategy: entry
                    .strategy
                    .clone()
                    .unwrap_or_else(|| "paper".to_string()),
                objective,
                constraints,
                k,
                seed: cfg.seed,
            }),
            _ => ServiceRequest::Health,
        });
    }
    Ok(out)
}

fn kind_of(req: &ServiceRequest) -> &'static str {
    match req {
        ServiceRequest::Recommend(_) => "recommend",
        ServiceRequest::ShowPaths(_) => "showpaths",
        ServiceRequest::EvaluateConstraint(_) => "evaluate",
        ServiceRequest::StrategyScore(_) => "strategy",
        ServiceRequest::Health => "health",
    }
}

/// Run the load generator against a service through the given
/// transport. Blocks until every client drained its stream (and the
/// concurrent campaign writer, if any, parked).
pub fn run_loadgen(
    service: &Arc<PathIntelService>,
    transport: &dyn Transport,
    cfg: &LoadgenConfig,
) -> SuiteResult<LoadgenOutcome> {
    if cfg.clients == 0 || cfg.requests_per_client == 0 {
        return Err(SuiteError::InvalidRequest(
            "loadgen needs at least one client and one request".into(),
        ));
    }
    if cfg.clients > MAX_CLIENTS {
        return Err(SuiteError::InvalidRequest(format!(
            "{} clients exceed the limit of {MAX_CLIENTS}",
            cfg.clients
        )));
    }
    if cfg.requests_per_client > MAX_REQUESTS / cfg.clients {
        return Err(SuiteError::InvalidRequest(format!(
            "{} clients x {} requests exceed the limit of {MAX_REQUESTS} requests",
            cfg.clients, cfg.requests_per_client
        )));
    }
    let dests: Vec<(u32, String)> = crate::collect::destinations(service.db())?
        .into_iter()
        .map(|(id, addr)| (id, addr.ia.to_string()))
        .collect();
    if dests.is_empty() {
        return Err(SuiteError::InvalidRequest(
            "no registered destinations to load against".into(),
        ));
    }

    // Synthesize every client's stream up front.
    let streams: Vec<Vec<ServiceRequest>> = (0..cfg.clients)
        .map(|c| client_stream(cfg, &dests, c))
        .collect::<SuiteResult<_>>()?;
    let mut workload_digest = 0u64;
    let mut kind_counts: Vec<(&'static str, u64)> = vec![
        ("recommend", 0),
        ("showpaths", 0),
        ("evaluate", 0),
        ("strategy", 0),
        ("health", 0),
    ];
    for stream in &streams {
        for req in stream {
            workload_digest = fnv1a(workload_digest, req.to_json_string().as_bytes());
            let kind = kind_of(req);
            for slot in kind_counts.iter_mut() {
                if slot.0 == kind {
                    slot.1 += 1;
                }
            }
        }
    }

    // Closed-loop clients, optional concurrent writer.
    let stop_writer = AtomicBool::new(false);
    let errors = AtomicU64::new(0);
    let mut client_digests: Vec<u64> = Vec::new();
    std::thread::scope(|scope| -> SuiteResult<()> {
        let writer = if cfg.concurrent_campaign {
            let db = service.db();
            let net = service.net();
            // A database loaded from disk pairs with a fresh network
            // whose clock restarted at zero, but stat `_id`s embed the
            // measurement timestamp — rewinding over a recorded
            // campaign would make the writer collide with stored rows.
            // Park the clock just past the newest stored sample first.
            let newest = {
                let handle = db.collection(crate::schema::PATHS_STATS);
                let coll = handle.read();
                coll.iter()
                    .filter_map(|d| match d.get("timestamp_ms") {
                        Some(pathdb::Value::Int(ts)) => Some(*ts as f64),
                        Some(pathdb::Value::Float(ts)) => Some(*ts),
                        _ => None,
                    })
                    .fold(f64::NEG_INFINITY, f64::max)
            };
            if newest.is_finite() && net.now_ms() <= newest {
                net.advance_ms(newest - net.now_ms() + 1_000.0);
            }
            let stop = &stop_writer;
            Some(scope.spawn(move || -> SuiteResult<()> {
                let mut salt = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // One short campaign iteration per lap: a real
                    // writer, batching one insert_many per destination.
                    let cfg = crate::config::SuiteConfig {
                        iterations: 1,
                        skip_collection: salt > 0,
                        ping_count: 2,
                        run_bwtests: false,
                        ..crate::config::SuiteConfig::default()
                    };
                    let fork = net.fork(0xC0FFEE ^ salt);
                    crate::suite::TestSuite::new(&fork, db, cfg).run()?;
                    // The lap advanced only the fork's snapshot of the
                    // clock; push the base past it so the next lap's
                    // timestamps never overlap this one's.
                    let lap_end = fork.now_ms();
                    if net.now_ms() < lap_end {
                        net.advance_ms(lap_end - net.now_ms());
                    }
                    net.advance_ms(1_000.0);
                    salt += 1;
                }
                Ok(())
            }))
        } else {
            None
        };

        // The response digest is only reported (and only meaningful)
        // without a concurrent writer.
        let want_digest = !cfg.concurrent_campaign;
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let errors = &errors;
                scope.spawn(move || {
                    let mut digest = 0u64;
                    for req in stream {
                        let resp = transport.call(req);
                        if matches!(resp, ServiceResponse::Error(_)) {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        if want_digest {
                            digest = fnv1a(digest, resp.to_json_string().as_bytes());
                        }
                    }
                    digest
                })
            })
            .collect();
        for h in handles {
            client_digests.push(h.join().expect("loadgen client panicked"));
        }
        stop_writer.store(true, Ordering::Relaxed);
        if let Some(w) = writer {
            w.join().expect("campaign writer panicked")?;
        }
        Ok(())
    })?;
    let errors = errors.load(Ordering::Relaxed);

    // Deterministic report. Response digests are only meaningful when
    // no concurrent writer races the readers: a growing database
    // legitimately changes answers over time.
    let mut report = format!(
        "loadgen: {} client(s) x {} request(s), seed {}\n",
        cfg.clients, cfg.requests_per_client, cfg.seed
    );
    for (kind, n) in &kind_counts {
        if *n > 0 {
            report.push_str(&format!("  {kind}: {n}\n"));
        }
    }
    report.push_str(&format!("  workload digest: {workload_digest:016x}\n"));
    report.push_str(&format!("  errors: {errors}\n"));
    if !cfg.concurrent_campaign {
        let mut response_digest = 0u64;
        for d in &client_digests {
            response_digest = fnv1a(response_digest, &d.to_be_bytes());
        }
        report.push_str(&format!("  response digest: {response_digest:016x}\n"));
    }

    Ok(LoadgenOutcome { report, errors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::register_available_servers;
    use pathdb::Database;
    use scion_sim::net::ScionNetwork;
    use scion_sim::topology::scionlab::{scionlab_topology, MY_AS};

    fn measured_service() -> Arc<PathIntelService> {
        let net = Arc::new(ScionNetwork::new(scionlab_topology(), 42));
        let db = Arc::new(Database::new());
        register_available_servers(&db, &net).unwrap();
        let cfg = crate::config::SuiteConfig {
            iterations: 1,
            ping_count: 2,
            run_bwtests: false,
            ..crate::config::SuiteConfig::default()
        };
        crate::suite::TestSuite::new(&net, &db, cfg).run().unwrap();
        Arc::new(PathIntelService::new(db, net, MY_AS, 42))
    }

    #[test]
    fn mix_files_parse_and_reject_nonsense() {
        let mix = Mix::from_json_str(
            r#"{"entries": [
                {"weight": 3, "kind": "recommend", "objective": "jitter", "k": 2},
                {"weight": 1, "kind": "showpaths"}
            ]}"#,
        )
        .unwrap();
        assert_eq!(mix.entries.len(), 2);
        assert_eq!(mix.entries[0].objective.as_deref(), Some("jitter"));

        assert!(Mix::from_json_str(r#"{"entries": []}"#).is_err());
        assert!(
            Mix::from_json_str(r#"{"entries": [{"weight": 1, "kind": "frobnicate"}]}"#).is_err()
        );
        assert!(Mix::from_json_str(
            r#"{"entries": [{"weight": 1, "kind": "recommend", "objective": "vibes"}]}"#
        )
        .is_err());
    }

    /// The `InvalidRequest` message `run_loadgen` refuses `cfg` with.
    /// Validation comes before any request is issued, so registered
    /// servers are all the service needs.
    fn refused(cfg: LoadgenConfig) -> String {
        let net = Arc::new(ScionNetwork::new(scionlab_topology(), 42));
        let db = Arc::new(Database::new());
        register_available_servers(&db, &net).unwrap();
        let svc = Arc::new(PathIntelService::new(db, net, MY_AS, 42));
        match run_loadgen(&svc, svc.as_ref(), &cfg) {
            Err(SuiteError::InvalidRequest(m)) => m,
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn runs_past_the_client_and_request_caps_are_refused() {
        // A stream capacity past `isize::MAX` aborted the process.
        let m = refused(LoadgenConfig {
            requests_per_client: usize::MAX,
            ..LoadgenConfig::default()
        });
        assert!(m.contains("exceed the limit of 10000000 requests"), "{m}");
        let m = refused(LoadgenConfig {
            clients: MAX_CLIENTS + 1,
            requests_per_client: 1,
            ..LoadgenConfig::default()
        });
        assert!(m.contains("exceed the limit of 1024"), "{m}");
    }

    #[test]
    fn mix_weights_summing_past_u32_are_refused() {
        // The sum wrapped to 0 and the roll panicked on an empty range.
        let wrapping = r#"{"entries": [
            {"weight": 4294967295, "kind": "recommend"},
            {"weight": 1, "kind": "health"}
        ]}"#;
        let m = Mix::from_json_str(wrapping).unwrap_err();
        assert!(m.contains("sum to 4294967296"), "{m}");
        let mut mix = Mix::default_mix();
        mix.entries[0].weight = u32::MAX;
        let m = refused(LoadgenConfig {
            mix,
            ..LoadgenConfig::default()
        });
        assert!(m.contains("mix weights sum to"), "{m}");
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let cfg = LoadgenConfig {
            clients: 2,
            requests_per_client: 20,
            ..LoadgenConfig::default()
        };
        let dests = vec![
            (1u32, "16-ffaa:0:1002".to_string()),
            (2, "16-ffaa:0:1003".into()),
        ];
        let a = client_stream(&cfg, &dests, 0).unwrap();
        let b = client_stream(&cfg, &dests, 0).unwrap();
        assert_eq!(a, b);
        let other_client = client_stream(&cfg, &dests, 1).unwrap();
        assert_ne!(a, other_client, "clients draw distinct streams");
        let reseeded = client_stream(
            &LoadgenConfig {
                seed: 43,
                ..cfg.clone()
            },
            &dests,
            0,
        )
        .unwrap();
        assert_ne!(a, reseeded);
    }

    #[test]
    fn loadgen_reports_are_byte_identical_for_the_same_seed() {
        let svc = measured_service();
        let cfg = LoadgenConfig {
            clients: 3,
            requests_per_client: 30,
            ..LoadgenConfig::default()
        };
        let a = run_loadgen(&svc, svc.as_ref(), &cfg).unwrap();
        let b = run_loadgen(&svc, svc.as_ref(), &cfg).unwrap();
        assert_eq!(a.report, b.report, "deterministic report must pin");
        assert_eq!(
            a.errors, 0,
            "measured DB answers every request:\n{}",
            a.report
        );
    }

    #[test]
    fn concurrent_campaign_keeps_the_workload_side_deterministic() {
        let svc = measured_service();
        let cfg = LoadgenConfig {
            clients: 2,
            requests_per_client: 25,
            concurrent_campaign: true,
            ..LoadgenConfig::default()
        };
        let a = run_loadgen(&svc, svc.as_ref(), &cfg).unwrap();
        let b = run_loadgen(&svc, svc.as_ref(), &cfg).unwrap();
        assert_eq!(a.report, b.report, "workload side stays deterministic");
        assert!(
            !a.report.contains("response digest"),
            "response digest is meaningless under a concurrent writer:\n{}",
            a.report
        );
        assert!(a.report.contains("  errors: 0\n"), "{}", a.report);
    }
}
