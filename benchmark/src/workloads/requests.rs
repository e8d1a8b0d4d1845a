//! The seeded request mix of the two serve workloads.
//!
//! A *catalog* holds every distinct request line the mix can draw
//! (each destination × each template of each kind); a *stream* is a
//! seeded sequence of catalog indices. The service sees only the
//! generated JSON lines.

use super::{es, Res};
use pathdb::{Database, Filter, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use upin_core::api::{
    EvaluateConstraintRequest, RecommendRequest, ServiceRequest, ShowPathsRequest,
    StrategyScoreRequest,
};
use upin_core::multi::Weights;
use upin_core::schema::PATHS;
use upin_core::select::{Constraints, Objective};

/// Index of the request kind `PathIntelService::dispatch` distinguishes.
pub fn kind_index(req: &ServiceRequest) -> usize {
    match req {
        ServiceRequest::Recommend(_) => 0,
        ServiceRequest::ShowPaths(_) => 1,
        ServiceRequest::EvaluateConstraint(_) => 2,
        ServiceRequest::StrategyScore(_) => 3,
        ServiceRequest::Health => 4,
    }
}

/// Mix weights, in percent: plain recommend, recommend under
/// constraints, weighted/Pareto recommend, strategy score, extended
/// showpaths, constraint evaluation, health.
const MIX: [u32; 7] = [50, 10, 5, 5, 20, 5, 5];

pub struct Catalog {
    pub lines: Vec<String>,
    pub requests: Vec<ServiceRequest>,
    /// Catalog indices per mix entry.
    by_entry: [Vec<u32>; 7],
}

/// Constraints under which `server_id` keeps at least one stored path:
/// "no more hops than the shortest path" always does, and "avoid this
/// transit AS" does when some stored path avoids it.
fn keeping_constraints(db: &Database, server_id: u32) -> Res<[Constraints; 2]> {
    let docs = db
        .collection(PATHS)
        .read()
        .query(Filter::eq("server_id", server_id as i64))
        .run();
    let min_hops = docs
        .iter()
        .filter_map(|d| d.get("hops").and_then(Value::as_int))
        .min()
        .ok_or_else(|| format!("destination {server_id} has no stored path"))?;
    let shortest = Constraints {
        max_hops: Some(min_hops as usize),
        min_samples: 1,
        ..Constraints::default()
    };
    let ases_of = |d: &pathdb::Document| -> BTreeSet<String> {
        d.get("ases")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default()
    };
    let per_path: Vec<BTreeSet<String>> = docs.iter().map(ases_of).collect();
    let all: BTreeSet<&String> = per_path.iter().flatten().collect();
    let avoidable = all
        .into_iter()
        .find(|a| per_path.iter().any(|p| !p.contains(*a)));
    let detour = match avoidable {
        Some(a) => Constraints {
            exclude_ases: vec![a.clone()],
            ..Constraints::default()
        },
        None => shortest.clone(),
    };
    Ok([shortest, detour])
}

impl Catalog {
    /// Every request line the mix can draw for the destinations
    /// registered in `db`.
    pub fn build(db: &Database, seed: u64) -> Res<Catalog> {
        let dests = upin_core::collect::destinations(db).map_err(es)?;
        if dests.is_empty() {
            return Err("no registered destinations".into());
        }
        let mut requests = Vec::new();
        let mut by_entry: [Vec<u32>; 7] = Default::default();
        let mut push = |entry: usize, req: ServiceRequest| {
            by_entry[entry].push(requests.len() as u32);
            requests.push(req);
        };
        // Objectives a ping+bandwidth campaign can always score.
        let objectives = [
            Objective::MinLatency,
            Objective::MinJitter,
            Objective::MinLoss,
            Objective::MaxBandwidthDown,
            Objective::MaxBandwidthUp,
        ];
        for (server_id, addr) in &dests {
            let dest = server_id.to_string();
            for objective in objectives {
                push(
                    0,
                    ServiceRequest::Recommend(RecommendRequest {
                        destination: dest.clone(),
                        objective,
                        constraints: Constraints::default(),
                        k: 3,
                        pareto: false,
                        weights: None,
                    }),
                );
            }
            for constraints in keeping_constraints(db, *server_id)? {
                push(
                    1,
                    ServiceRequest::Recommend(RecommendRequest {
                        destination: dest.clone(),
                        objective: Objective::MinLatency,
                        constraints,
                        k: 3,
                        pareto: false,
                        weights: None,
                    }),
                );
            }
            for pareto in [false, true] {
                push(
                    2,
                    ServiceRequest::Recommend(RecommendRequest {
                        destination: dest.clone(),
                        objective: Objective::MinLatency,
                        constraints: Constraints::default(),
                        k: 3,
                        pareto,
                        weights: (!pareto).then_some(Weights {
                            latency: 1.0,
                            jitter: 0.5,
                            loss: 1.0,
                            ..Weights::default()
                        }),
                    }),
                );
            }
            for strategy in upin_core::strategy::names() {
                push(
                    3,
                    ServiceRequest::StrategyScore(StrategyScoreRequest {
                        destination: dest.clone(),
                        strategy: strategy.to_string(),
                        objective: Objective::MinLatency,
                        constraints: Constraints::default(),
                        k: 3,
                        seed,
                    }),
                );
            }
            push(
                4,
                ServiceRequest::ShowPaths(ShowPathsRequest {
                    destination: addr.ia.to_string(),
                    max_paths: 10,
                    extended: true,
                }),
            );
            push(
                5,
                ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
                    destination: dest.clone(),
                    objective: Objective::MinLatency,
                    constraints: Constraints::default(),
                }),
            );
        }
        push(6, ServiceRequest::Health);
        let lines = requests
            .iter()
            .map(ServiceRequest::to_json_string)
            .collect();
        Ok(Catalog {
            lines,
            requests,
            by_entry,
        })
    }

    /// `n` seeded draws: a mix entry by weight, then one of its lines
    /// uniformly (so destinations are uniform within every kind).
    pub fn stream(&self, seed: u64, n: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e21_7e57_0a11_0ad5);
        let total: u32 = MIX.iter().sum();
        (0..n)
            .map(|_| {
                let mut roll = rng.gen_range(0..total);
                let entry = MIX
                    .iter()
                    .position(|&w| {
                        if roll < w {
                            true
                        } else {
                            roll -= w;
                            false
                        }
                    })
                    .expect("weights sum to the roll range");
                let lines = &self.by_entry[entry];
                lines[rng.gen_range(0..lines.len())]
            })
            .collect()
    }
}
