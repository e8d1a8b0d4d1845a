//! The typed service API: one request/response surface for all path
//! intelligence.
//!
//! The paper's user-driven path control is interactive — a user asks
//! "which path should I take, under my constraints?" — so the query
//! side of this repo is exposed as a single typed dispatcher instead of
//! a bag of ad-hoc function calls. A [`ServiceRequest`] names what the
//! user wants (recommend / showpaths / constraint evaluation / strategy
//! scoring / health), a [`PathIntelService`] owns the hot `Arc`'d
//! database + network state and answers it with a [`ServiceResponse`],
//! and every error is a typed [`ServiceError`] payload (code + counts)
//! that the CLI renders as plain text — the CLI owns no error prose of
//! its own.
//!
//! Requests and responses round-trip through JSON (`to_json_string` /
//! `from_json_str`), and [`PathIntelService::dispatch_json`] is the one
//! line codec over [`PathIntelService::dispatch`]. Reads go through
//! the MVCC snapshots of [`pathdb::Collection::read_snapshot`]: a
//! dispatch pins one consistent image of the database and never blocks
//! on — or observes half of — a concurrent campaign batch.

use crate::error::{SelectionFailure, SuiteError};
use crate::multi::Weights;
use crate::schema;
use crate::select::{
    select, Constraints, Objective, Order, PathAggregate, Recommendation, SharedAggregate,
    UserRequest,
};
use crate::strategy::StrategyContext;
use pathdb::{Collection, Database, Filter};
use scion_sim::addr::{IsdAsn, ScionAddr};
use scion_sim::net::ScionNetwork;
use scion_tools::showpaths::ShowpathsOptions;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// One query against the path-intelligence service. Externally tagged
/// in JSON: `{"Recommend": {...}}`, `"Health"`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceRequest {
    Recommend(RecommendRequest),
    ShowPaths(ShowPathsRequest),
    EvaluateConstraint(EvaluateConstraintRequest),
    StrategyScore(StrategyScoreRequest),
    Health,
}

/// "Which path should I take?" — the paper's core query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendRequest {
    /// Server id (`"1"`), SCION address, or ISD-AS of the destination.
    pub destination: String,
    #[serde(default)]
    pub objective: Objective,
    #[serde(default)]
    pub constraints: Constraints,
    /// How many recommendations to return.
    pub k: usize,
    /// List the whole Pareto trade-off menu instead of one ranking.
    #[serde(default)]
    pub pareto: bool,
    /// Weighted scalarization over several objectives; wins over the
    /// single `objective` when present.
    #[serde(default)]
    pub weights: Option<Weights>,
}

/// "Which paths exist?" — the `scion showpaths` surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShowPathsRequest {
    /// Destination ISD-AS, e.g. `"16-ffaa:0:1002"`.
    pub destination: String,
    /// Maximum paths to list (the CLI default is 10).
    pub max_paths: usize,
    /// Include MTU / latency / status / hop columns.
    #[serde(default)]
    pub extended: bool,
}

/// "How far do my constraints get?" — the selection funnel, stage by
/// stage, without committing to a ranking.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluateConstraintRequest {
    pub destination: String,
    #[serde(default)]
    pub objective: Objective,
    #[serde(default)]
    pub constraints: Constraints,
}

/// Rank through one registered selection strategy (PR 6 registry).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyScoreRequest {
    pub destination: String,
    /// Registry key, e.g. `"paper"`, `"widest-path"`.
    pub strategy: String,
    #[serde(default)]
    pub objective: Objective,
    #[serde(default)]
    pub constraints: Constraints,
    pub k: usize,
    /// Seed for strategies that use randomness (`random`).
    #[serde(default)]
    pub seed: u64,
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// The service's answer; `Error` carries the typed failure payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServiceResponse {
    Recommend(RecommendResponse),
    ShowPaths(ShowPathsResponse),
    EvaluateConstraint(ConstraintReport),
    StrategyScore(StrategyScoreResponse),
    Health(HealthStatus),
    Error(ServiceError),
}

/// Which recommend pipeline produced the entries (decides rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecommendMode {
    /// Single-objective ranking (the paper's engine).
    Ranked,
    /// Weighted multi-criteria scalarization.
    Weighted,
    /// Pareto front over latency/loss/downstream.
    Pareto,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendResponse {
    pub server_id: u32,
    pub mode: RecommendMode,
    pub entries: Vec<Recommendation>,
}

/// One listed path, flattened for transport.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathLine {
    pub index: usize,
    pub path: String,
    pub mtu: u32,
    pub latency_ms: f64,
    pub status: String,
    pub hops: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShowPathsResponse {
    pub destination: String,
    pub extended: bool,
    pub paths: Vec<PathLine>,
}

/// The selection funnel for one constraint set: how many stored paths
/// survive each stage. `scorable == 0` predicts a [`SelectionFailure`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstraintReport {
    pub server_id: u32,
    pub objective: Objective,
    /// Paths stored for the destination.
    pub stored: usize,
    /// Paths passing the metadata constraints.
    pub matched: usize,
    /// Paths passing the `min_samples` / `max_loss_pct` gates.
    pub gated: usize,
    /// Paths carrying the objective's statistic.
    pub scorable: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StrategyScoreResponse {
    pub server_id: u32,
    pub strategy: String,
    pub entries: Vec<Recommendation>,
}

/// Shape of one collection as seen by the service's pinned snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectionStatus {
    pub name: String,
    pub docs: usize,
    pub version: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthStatus {
    pub collections: Vec<CollectionStatus>,
    /// Registered measurable destinations.
    pub destinations: usize,
}

// ---------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------

/// Machine-readable failure class. The selection codes mirror
/// [`SelectionFailure`]; the rest mirror [`SuiteError`] plus the
/// request-level failures only the service can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// Malformed request (e.g. `k = 0`, unparsable JSON).
    InvalidRequest,
    /// The destination token names nothing registered.
    UnknownDestination,
    /// No stored path passed the metadata constraints.
    NoMatch,
    /// Matches existed but the statistics gates removed all of them.
    AllGated,
    /// Gated candidates lack the objective's statistic.
    AllUnscorable,
    /// Weighted ranking found no candidate with complete statistics.
    NoCompleteStatistics,
    /// The named strategy is not registered.
    UnknownStrategy,
    Tool,
    Db,
    Schema,
    NoCandidates,
    Campaign,
}

/// The typed error payload of [`ServiceResponse::Error`]: a code plus
/// the funnel counts (for selection failures) or a detail string. All
/// user-facing error prose is derived from this payload — see
/// [`ServiceError::message`] and [`ServiceError::render`]; the CLI and
/// [`SelectionFailure`]'s `Display` are pure renderers over it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceError {
    pub code: ErrorCode,
    #[serde(default)]
    pub server_id: Option<u32>,
    #[serde(default)]
    pub matched: Option<usize>,
    #[serde(default)]
    pub gated: Option<usize>,
    /// Free-form detail for the non-counted codes.
    #[serde(default)]
    pub detail: Option<String>,
}

impl ServiceError {
    /// A detail-only error.
    pub(crate) fn new(code: ErrorCode, detail: impl Into<String>) -> ServiceError {
        ServiceError {
            code,
            server_id: None,
            matched: None,
            gated: None,
            detail: Some(detail.into()),
        }
    }

    /// Lift a classified selection failure into the typed payload.
    pub(crate) fn from_selection(f: &SelectionFailure) -> ServiceError {
        let (code, server_id, matched, gated) = match *f {
            SelectionFailure::NoMatch { server_id } => (ErrorCode::NoMatch, server_id, None, None),
            SelectionFailure::AllGated { server_id, matched } => {
                (ErrorCode::AllGated, server_id, Some(matched), None)
            }
            SelectionFailure::AllUnscorable {
                server_id,
                matched,
                gated,
            } => (
                ErrorCode::AllUnscorable,
                server_id,
                Some(matched),
                Some(gated),
            ),
        };
        ServiceError {
            code,
            server_id: Some(server_id),
            matched,
            gated,
            detail: None,
        }
    }

    /// Lift any core error into the typed payload.
    fn from_suite(e: &SuiteError) -> ServiceError {
        match e {
            SuiteError::Selection(f) => ServiceError::from_selection(f),
            SuiteError::InvalidRequest(m) => ServiceError::new(ErrorCode::InvalidRequest, m),
            SuiteError::Tool(t) => ServiceError::new(ErrorCode::Tool, t.to_string()),
            SuiteError::Db(d) => ServiceError::new(ErrorCode::Db, d.to_string()),
            SuiteError::Schema(m) => ServiceError::new(ErrorCode::Schema, m),
            SuiteError::NoCandidates(m) => ServiceError::new(ErrorCode::NoCandidates, m),
            SuiteError::Campaign(m) => ServiceError::new(ErrorCode::Campaign, m),
        }
    }

    /// The bare failure message, without any category prefix. This is
    /// the single source of the selection-failure prose:
    /// `SelectionFailure`'s `Display` delegates here.
    pub fn message(&self) -> String {
        let id = self.server_id.unwrap_or(0);
        let matched = self.matched.unwrap_or(0);
        let gated = self.gated.unwrap_or(0);
        match self.code {
            ErrorCode::NoMatch => {
                format!("no path to destination {id} matches the constraints")
            }
            ErrorCode::AllGated => format!(
                "destination {id}: {matched} path(s) match the constraints, \
                 but all were removed by the min_samples/max_loss_pct gates"
            ),
            ErrorCode::AllUnscorable => format!(
                "destination {id}: {matched} path(s) match, {gated} passed the \
                 gates, but none carries the objective's statistic"
            ),
            _ => self.detail.clone().unwrap_or_default(),
        }
    }

    /// The full user-facing error line, category prefix included —
    /// byte-identical to what the pre-service CLI printed for the same
    /// failure.
    pub fn render(&self) -> String {
        match self.code {
            ErrorCode::NoMatch | ErrorCode::AllGated | ErrorCode::AllUnscorable => {
                format!("no candidate paths: {}", self.message())
            }
            ErrorCode::InvalidRequest => format!("invalid request: {}", self.message()),
            ErrorCode::Db => format!("database error: {}", self.message()),
            ErrorCode::Schema => format!("schema error: {}", self.message()),
            ErrorCode::NoCandidates => format!("no candidate paths: {}", self.message()),
            ErrorCode::Campaign => format!("campaign runner error: {}", self.message()),
            ErrorCode::UnknownDestination
            | ErrorCode::NoCompleteStatistics
            | ErrorCode::UnknownStrategy
            | ErrorCode::Tool => self.message(),
        }
    }
}

// ---------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------

impl ServiceRequest {
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(self).expect("requests always serialize")
    }

    pub fn from_json_str(s: &str) -> Result<ServiceRequest, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

/// Initial buffer of [`ServiceResponse::to_json_string`]. The
/// end-to-end benchmark's `serve_static` mix averages 1 930 B per answer
/// with medians of 2 334 B (`Recommend`) and 2 552 B (`StrategyScore`),
/// so a 1 KiB start regrew twice for most answers; 3 KiB holds the
/// median of the largest kind with a fifth to spare, and the buffer is
/// written to the transport and dropped, so the slack is never kept.
const RESPONSE_CAPACITY: usize = 3072;

impl ServiceResponse {
    /// The answer line: streamed into one byte buffer, then checked as
    /// UTF-8 once, whole.
    pub fn to_json_string(&self) -> String {
        let mut out = Vec::with_capacity(RESPONSE_CAPACITY);
        self.write_json(&mut out);
        serde::json::into_text(out)
    }

    pub fn from_json_str(s: &str) -> Result<ServiceResponse, String> {
        serde_json::from_str(s).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// The path-intelligence service: owns `Arc`'d database + network state
/// and answers [`ServiceRequest`]s. `Send + Sync` — one instance serves
/// any number of reader threads while a campaign writes, because every
/// read pins an MVCC snapshot instead of holding a collection lock.
pub struct PathIntelService {
    db: Arc<Database>,
    net: Arc<ScionNetwork>,
    local: IsdAsn,
    /// Default seed for seedable strategies when the request carries 0.
    seed: u64,
}

impl PathIntelService {
    pub fn new(
        db: Arc<Database>,
        net: Arc<ScionNetwork>,
        local: IsdAsn,
        seed: u64,
    ) -> PathIntelService {
        PathIntelService {
            db,
            net,
            local,
            seed,
        }
    }

    /// The database the service answers from.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The simulated network `ShowPaths` queries.
    pub fn net(&self) -> &ScionNetwork {
        &self.net
    }

    /// Resolve a destination token — numeric server id, SCION address,
    /// or ISD-AS — to a registered server id.
    pub fn resolve_destination(&self, token: &str) -> Result<u32, ServiceError> {
        if let Ok(id) = token.parse::<u32>() {
            // One `_id` point read; only the address and ISD-AS
            // spellings need every registered address parsed.
            let handle = self.db.collection(schema::AVAILABLE_SERVERS);
            return match handle.read().find_by_id(id.to_string()) {
                Some(_) => Ok(id),
                None => Err(ServiceError::new(
                    ErrorCode::UnknownDestination,
                    format!("no registered destination has id {id}"),
                )),
            };
        }
        let dests =
            crate::collect::destinations(&self.db).map_err(|e| ServiceError::from_suite(&e))?;
        if let Ok(addr) = token.parse::<ScionAddr>() {
            return dests
                .iter()
                .find(|(_, a)| *a == addr)
                .map(|(id, _)| *id)
                .ok_or_else(|| {
                    ServiceError::new(
                        ErrorCode::UnknownDestination,
                        format!("{addr} is not a registered destination"),
                    )
                });
        }
        if let Ok(ia) = token.parse::<IsdAsn>() {
            return dests
                .iter()
                .find(|(_, a)| a.ia == ia)
                .map(|(id, _)| *id)
                .ok_or_else(|| {
                    ServiceError::new(
                        ErrorCode::UnknownDestination,
                        format!("no registered destination in {ia}"),
                    )
                });
        }
        Err(ServiceError::new(
            ErrorCode::UnknownDestination,
            format!("destination {token:?} is neither a server id, address, nor ISD-AS"),
        ))
    }

    /// Answer a request, or say exactly why not. The error side is the
    /// typed payload a transport wraps as [`ServiceResponse::Error`].
    pub fn try_dispatch(&self, req: &ServiceRequest) -> Result<ServiceResponse, ServiceError> {
        match req {
            ServiceRequest::Recommend(r) => self.recommend(r).map(ServiceResponse::Recommend),
            ServiceRequest::ShowPaths(r) => self.showpaths(r).map(ServiceResponse::ShowPaths),
            ServiceRequest::EvaluateConstraint(r) => self
                .evaluate_constraint(r)
                .map(ServiceResponse::EvaluateConstraint),
            ServiceRequest::StrategyScore(r) => {
                self.strategy_score(r).map(ServiceResponse::StrategyScore)
            }
            ServiceRequest::Health => self.health().map(ServiceResponse::Health),
        }
    }

    /// Answer a request; failures become [`ServiceResponse::Error`].
    pub fn dispatch(&self, req: &ServiceRequest) -> ServiceResponse {
        self.try_dispatch(req)
            .unwrap_or_else(ServiceResponse::Error)
    }

    /// One JSON request line in, one JSON response line out: the line
    /// codec over [`Self::dispatch`]. A line that does not decode is
    /// answered with an `InvalidRequest` error line.
    pub fn dispatch_json(&self, line: &str) -> String {
        match ServiceRequest::from_json_str(line) {
            Ok(req) => self.dispatch(&req).to_json_string(),
            Err(e) => ServiceResponse::Error(ServiceError::new(
                ErrorCode::InvalidRequest,
                format!("bad request JSON: {e}"),
            ))
            .to_json_string(),
        }
    }

    fn recommend(&self, req: &RecommendRequest) -> Result<RecommendResponse, ServiceError> {
        let (mode, order) = match req.weights {
            Some(w) => {
                w.validate()
                    .map_err(|m| ServiceError::new(ErrorCode::InvalidRequest, m))?;
                (RecommendMode::Weighted, Order::Weighted(w))
            }
            None if req.pareto => (RecommendMode::Pareto, Order::Pareto),
            None => (RecommendMode::Ranked, Order::Gated),
        };
        let server_id = self.resolve_destination(&req.destination)?;
        let request = UserRequest {
            server_id,
            objective: req.objective,
            constraints: req.constraints.clone(),
        };
        let ctx = StrategyContext {
            db: &self.db,
            seed: self.seed,
        };
        let entries = select(&ctx, &request, req.k, order).map_err(|e| match e {
            // A weighted ranking has no gates: whatever emptied it, no
            // candidate carries every weighted statistic.
            SuiteError::Selection(_) if mode == RecommendMode::Weighted => ServiceError::new(
                ErrorCode::NoCompleteStatistics,
                "no candidates with complete statistics",
            ),
            e => ServiceError::from_suite(&e),
        })?;
        Ok(RecommendResponse {
            server_id,
            mode,
            entries,
        })
    }

    fn showpaths(&self, req: &ShowPathsRequest) -> Result<ShowPathsResponse, ServiceError> {
        let dst: IsdAsn = req.destination.parse().map_err(|_| {
            ServiceError::new(
                ErrorCode::InvalidRequest,
                format!("bad ISD-AS {:?}", req.destination),
            )
        })?;
        let opts = ShowpathsOptions {
            max_paths: req.max_paths,
            extended: req.extended,
        };
        let r = scion_tools::showpaths::showpaths(&self.net, self.local, dst, opts)
            .map_err(|e| ServiceError::new(ErrorCode::Tool, e.to_string()))?;
        Ok(ShowPathsResponse {
            destination: r.destination.to_string(),
            extended: r.options.extended,
            paths: r
                .paths
                .iter()
                .map(|e| PathLine {
                    index: e.index,
                    path: e.path.to_string(),
                    mtu: e.path.mtu,
                    latency_ms: e.path.expected_latency_ms,
                    status: e.path.status.to_string(),
                    hops: e.path.hop_count(),
                })
                .collect(),
        })
    }

    fn evaluate_constraint(
        &self,
        req: &EvaluateConstraintRequest,
    ) -> Result<ConstraintReport, ServiceError> {
        let server_id = self.resolve_destination(&req.destination)?;
        self.constraint_funnel(&crate::statcache::pin_pair(&self.db), server_id, req)
    }

    /// The funnel as one pinned `paths` + `paths_stats` pair shows it:
    /// `stored` and `matched` are counted in the same `paths` image, so
    /// a path collection landing mid-request cannot report more matches
    /// than stored paths.
    fn constraint_funnel(
        &self,
        pins: &(Arc<Collection>, Arc<Collection>),
        server_id: u32,
        req: &EvaluateConstraintRequest,
    ) -> Result<ConstraintReport, ServiceError> {
        let stored = pins
            .0
            .query(Filter::eq("server_id", server_id as i64))
            .count();
        let candidates =
            crate::select::aggregate_paths_at(&self.db, pins, server_id, &req.constraints)
                .map_err(|e| ServiceError::from_suite(&e))?;
        let matched = candidates.len();
        let gated: Vec<&SharedAggregate> = candidates
            .iter()
            .filter(|a| req.constraints.admits(a))
            .collect();
        let scorable = gated
            .iter()
            .filter(|a| crate::multi::criterion_value(a, req.objective).is_some())
            .count();
        Ok(ConstraintReport {
            server_id,
            objective: req.objective,
            stored,
            matched,
            gated: gated.len(),
            scorable,
        })
    }

    fn strategy_score(
        &self,
        req: &StrategyScoreRequest,
    ) -> Result<StrategyScoreResponse, ServiceError> {
        let server_id = self.resolve_destination(&req.destination)?;
        let strategy = crate::strategy::by_name(&req.strategy).ok_or_else(|| {
            ServiceError::new(
                ErrorCode::UnknownStrategy,
                format!(
                    "unknown strategy {:?} (known: {})",
                    req.strategy,
                    crate::strategy::names().join(", ")
                ),
            )
        })?;
        let seed = if req.seed == 0 { self.seed } else { req.seed };
        let ctx = StrategyContext { db: &self.db, seed };
        let request = UserRequest {
            server_id,
            objective: req.objective,
            constraints: req.constraints.clone(),
        };
        let entries = strategy
            .rank(&ctx, &request, req.k)
            .map_err(|e| ServiceError::from_suite(&e))?;
        Ok(StrategyScoreResponse {
            server_id,
            strategy: req.strategy.clone(),
            entries,
        })
    }

    fn health(&self) -> Result<HealthStatus, ServiceError> {
        let mut names = self.db.collection_names();
        names.sort();
        let collections = names
            .into_iter()
            .map(|name| {
                let snap = self.db.read_snapshot(&name);
                CollectionStatus {
                    docs: snap.len(),
                    version: snap.mutation_version(),
                    name,
                }
            })
            .collect();
        let destinations = if self.db.has_collection(schema::AVAILABLE_SERVERS) {
            self.db.read_snapshot(schema::AVAILABLE_SERVERS).len()
        } else {
            0
        };
        Ok(HealthStatus {
            collections,
            destinations,
        })
    }
}

// ---------------------------------------------------------------------
// Renderers — the CLI's entire text surface for service responses
// ---------------------------------------------------------------------

/// Parse a CLI objective name. The error text is the CLI's
/// historical usage line — the CLI maps it straight into a usage error.
pub fn parse_objective(name: &str) -> Result<Objective, String> {
    match name {
        "latency" => Ok(Objective::MinLatency),
        "jitter" => Ok(Objective::MinJitter),
        "loss" => Ok(Objective::MinLoss),
        "bw-down" => Ok(Objective::MaxBandwidthDown),
        "bw-up" => Ok(Objective::MaxBandwidthUp),
        other => Err(format!(
            "unknown objective {other:?} (latency|jitter|loss|bw-up|bw-down)"
        )),
    }
}

/// One aggregate line pair, exactly as the pre-service CLI printed it.
fn render_aggregate(tag: &str, a: &PathAggregate) -> String {
    let lat = a
        .latency
        .as_ref()
        .map(|w| format!("{:.1} ms", w.mean))
        .unwrap_or_else(|| "-".into());
    let down = a
        .bw_down_mtu
        .as_ref()
        .map(|w| format!("{:.1} Mbps", w.mean))
        .unwrap_or_else(|| "-".into());
    let loss = a
        .mean_loss_pct
        .map(|l| format!("{l:.1}%"))
        .unwrap_or_else(|| "-".into());
    format!(
        "{tag} {}  hops={} samples={} latency={} loss={} down={}\n    via {}\n",
        a.path_id, a.hops, a.samples, lat, loss, down, a.sequence
    )
}

/// Render a recommend response — ranked, weighted, or Pareto.
fn render_recommend(r: &RecommendResponse) -> String {
    let mut out = String::new();
    if r.mode == RecommendMode::Pareto {
        out.push_str(&format!(
            "{} Pareto-optimal path(s) over latency/loss/downstream:\n",
            r.entries.len()
        ));
    }
    for e in &r.entries {
        let tag = match r.mode {
            RecommendMode::Ranked => format!("#{}", e.rank),
            RecommendMode::Weighted => {
                format!("#{} [{:.3}]", e.rank, e.score.unwrap_or(f64::NAN))
            }
            RecommendMode::Pareto => "*".to_string(),
        };
        out.push_str(&render_aggregate(&tag, &e.aggregate));
    }
    out
}

/// Render a showpaths response, byte-identical to
/// `ShowpathsResult::render`.
fn render_showpaths(r: &ShowPathsResponse) -> String {
    let mut out = format!(
        "Available paths to {} ({} shown)\n",
        r.destination,
        r.paths.len()
    );
    for e in &r.paths {
        out.push_str(&format!("[{:>2}] {}", e.index, e.path));
        if r.extended {
            out.push_str(&format!(
                " MTU: {} Latency: {:.2}ms Status: {} Hops: {}",
                e.mtu, e.latency_ms, e.status, e.hops
            ));
        }
        out.push('\n');
    }
    out
}

/// Render the constraint funnel.
fn render_constraint_report(r: &ConstraintReport) -> String {
    let objective = match r.objective {
        Objective::MinLatency => "latency",
        Objective::MinJitter => "jitter",
        Objective::MinLoss => "loss",
        Objective::MaxBandwidthDown => "bw-down",
        Objective::MaxBandwidthUp => "bw-up",
    };
    format!(
        "constraint funnel for destination {}:\n\
         \x20 stored paths:        {}\n\
         \x20 match constraints:   {}\n\
         \x20 pass gates:          {}\n\
         \x20 scorable ({objective}): {}\n",
        r.server_id, r.stored, r.matched, r.gated, r.scorable
    )
}

/// Render a strategy scoring.
fn render_strategy_score(r: &StrategyScoreResponse) -> String {
    let mut out = format!("strategy {} for destination {}:\n", r.strategy, r.server_id);
    for e in &r.entries {
        out.push_str(&render_aggregate(&format!("#{}", e.rank), &e.aggregate));
    }
    out
}

/// Render a health status.
fn render_health(h: &HealthStatus) -> String {
    let mut out = format!(
        "service healthy: {} collection(s), {} destination(s)\n",
        h.collections.len(),
        h.destinations
    );
    for c in &h.collections {
        out.push_str(&format!(
            "  {}: {} doc(s) (v{})\n",
            c.name, c.docs, c.version
        ));
    }
    out
}

/// Render any response for a terminal user.
pub fn render_response(r: &ServiceResponse) -> String {
    match r {
        ServiceResponse::Recommend(x) => render_recommend(x),
        ServiceResponse::ShowPaths(x) => render_showpaths(x),
        ServiceResponse::EvaluateConstraint(x) => render_constraint_report(x),
        ServiceResponse::StrategyScore(x) => render_strategy_score(x),
        ServiceResponse::Health(x) => render_health(x),
        ServiceResponse::Error(e) => format!("error: {}\n", e.render()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::register_available_servers;
    use scion_sim::topology::scionlab::scionlab_topology;

    fn service() -> PathIntelService {
        let net = Arc::new(ScionNetwork::new(scionlab_topology(), 7));
        let db = Arc::new(Database::new());
        register_available_servers(&db, &net).unwrap();
        let local = scion_sim::topology::scionlab::MY_AS;
        PathIntelService::new(db, net, local, 7)
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            ServiceRequest::Recommend(RecommendRequest {
                destination: "1".into(),
                objective: Objective::MinJitter,
                constraints: Constraints {
                    exclude_countries: vec!["Singapore".into()],
                    max_hops: Some(6),
                    ..Constraints::default()
                },
                k: 3,
                pareto: false,
                weights: Some(Weights {
                    latency: 5.0,
                    loss: 1.0,
                    ..Weights::default()
                }),
            }),
            ServiceRequest::ShowPaths(ShowPathsRequest {
                destination: "16-ffaa:0:1002".into(),
                max_paths: 10,
                extended: true,
            }),
            ServiceRequest::EvaluateConstraint(EvaluateConstraintRequest {
                destination: "2".into(),
                objective: Objective::MinLoss,
                constraints: Constraints::default(),
            }),
            ServiceRequest::StrategyScore(StrategyScoreRequest {
                destination: "1".into(),
                strategy: "widest-path".into(),
                objective: Objective::default(),
                constraints: Constraints::default(),
                k: 5,
                seed: 42,
            }),
            ServiceRequest::Health,
        ];
        for req in reqs {
            let json = req.to_json_string();
            let back = ServiceRequest::from_json_str(&json).unwrap();
            assert_eq!(req, back, "{json}");
        }
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resp = ServiceResponse::Error(ServiceError::from_selection(
            &SelectionFailure::AllUnscorable {
                server_id: 3,
                matched: 7,
                gated: 2,
            },
        ));
        let back = ServiceResponse::from_json_str(&resp.to_json_string()).unwrap();
        assert_eq!(resp, back);

        let svc = service();
        let health = svc.dispatch(&ServiceRequest::Health);
        let back = ServiceResponse::from_json_str(&health.to_json_string()).unwrap();
        assert_eq!(health, back);
    }

    #[test]
    fn selection_failure_prose_comes_from_the_typed_payload() {
        // The Display impl and the service payload must agree — the
        // payload is the single source of the error text.
        let failures = [
            SelectionFailure::NoMatch { server_id: 9 },
            SelectionFailure::AllGated {
                server_id: 2,
                matched: 4,
            },
            SelectionFailure::AllUnscorable {
                server_id: 2,
                matched: 4,
                gated: 3,
            },
        ];
        for f in failures {
            let payload = ServiceError::from_selection(&f);
            assert_eq!(payload.message(), f.to_string());
            assert_eq!(
                payload.render(),
                SuiteError::Selection(f).to_string(),
                "full render matches the SuiteError display chain"
            );
        }
    }

    #[test]
    fn unknown_destination_is_typed() {
        let svc = service();
        let err = svc
            .try_dispatch(&ServiceRequest::Recommend(RecommendRequest {
                destination: "no-such-thing".into(),
                objective: Objective::default(),
                constraints: Constraints::default(),
                k: 3,
                pareto: false,
                weights: None,
            }))
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownDestination);
        assert!(
            err.render().contains("neither a server id"),
            "{}",
            err.render()
        );
    }

    #[test]
    fn showpaths_through_the_service_matches_the_tool() {
        let svc = service();
        let dst = "16-ffaa:0:1002";
        let resp = svc.dispatch(&ServiceRequest::ShowPaths(ShowPathsRequest {
            destination: dst.into(),
            max_paths: 5,
            extended: true,
        }));
        let ServiceResponse::ShowPaths(sp) = resp else {
            panic!("unexpected response {resp:?}");
        };
        let direct = scion_tools::showpaths::showpaths(
            svc.net(),
            scion_sim::topology::scionlab::MY_AS,
            dst.parse().unwrap(),
            ShowpathsOptions {
                max_paths: 5,
                extended: true,
            },
        )
        .unwrap();
        assert_eq!(render_showpaths(&sp), direct.render());
    }

    #[test]
    fn health_reports_pinned_collection_shapes() {
        let svc = service();
        let ServiceResponse::Health(h) = svc.dispatch(&ServiceRequest::Health) else {
            panic!("health must answer");
        };
        assert!(h.destinations > 0);
        assert!(h
            .collections
            .iter()
            .any(|c| c.name == schema::AVAILABLE_SERVERS && c.docs == h.destinations));
        let text = render_health(&h);
        assert!(text.contains("service healthy"), "{text}");
    }

    #[test]
    fn bad_request_json_is_answered_not_crashed() {
        let svc = service();
        // The nested lines are far deeper than any stack: the parser's
        // depth bound must turn them into an ordinary error.
        let lines = [
            "{not json".to_string(),
            "[".repeat(200_000),
            "{\"Recommend\":".repeat(200_000),
            // Numbers and escapes JSON has no spelling for: a leading
            // zero, a bare fraction point, a signed \u escape, and a
            // literal no finite double is near (once read as infinity).
            r#"{"Recommend":{"destination":"1","k":01}}"#.to_string(),
            r#"{"Recommend":{"destination":"1","k":1,"constraints":{"max_loss_pct":1.}}}"#
                .to_string(),
            r#"{"Recommend":{"destination":"1","k":1,"constraints":{"max_loss_pct":-.5}}}"#
                .to_string(),
            r#"{"Recommend":{"destination":"\u+031","k":1}}"#.to_string(),
            r#"{"Recommend":{"destination":"1","constraints":{"max_loss_pct":1e999},"k":1}}"#
                .to_string(),
        ];
        for line in &lines {
            let out = svc.dispatch_json(line);
            let resp = ServiceResponse::from_json_str(&out).unwrap();
            let ServiceResponse::Error(e) = resp else {
                panic!("expected an error response: {out}");
            };
            assert_eq!(e.code, ErrorCode::InvalidRequest);
            assert!(e.message().starts_with("bad request JSON: "), "{out}");
        }
    }

    #[test]
    fn full_range_u64_seed_round_trips_through_request_json() {
        let req = |seed| {
            ServiceRequest::StrategyScore(StrategyScoreRequest {
                destination: "1".into(),
                strategy: "random".into(),
                objective: Objective::default(),
                constraints: Constraints::default(),
                k: 1,
                seed,
            })
        };
        let json = req(u64::MAX).to_json_string();
        assert!(json.ends_with("\"seed\":18446744073709551615}}"), "{json}");
        assert_eq!(ServiceRequest::from_json_str(&json).unwrap(), req(u64::MAX));
        // Below 2^63 the bytes are what they always were.
        let json = req(i64::MAX as u64).to_json_string();
        assert!(json.ends_with("\"seed\":9223372036854775807}}"), "{json}");
        assert_eq!(
            ServiceRequest::from_json_str(&json).unwrap(),
            req(i64::MAX as u64)
        );
    }

    /// Regression: `stored` came from one pin of `paths` and `matched`
    /// from a later one, so a path collection landing between the two
    /// reported a funnel with `matched > stored`.
    #[test]
    fn constraint_funnel_counts_stored_and_matched_in_one_pin() {
        let svc = service();
        let insert_path = |index: i64| {
            let doc = pathdb::doc! {
                "_id" => format!("1_{index}"),
                "server_id" => 1i64,
                "path_index" => index,
                "sequence" => format!("seq-{index}"),
                "hops" => 5i64,
            };
            svc.db
                .collection(schema::PATHS)
                .write()
                .insert_one(doc)
                .unwrap();
        };
        insert_path(0);
        insert_path(1);
        let pins = crate::statcache::pin_pair(&svc.db);
        insert_path(2);
        for constraints in [
            Constraints::default(),
            Constraints {
                max_hops: Some(9),
                ..Constraints::default()
            },
        ] {
            let req = EvaluateConstraintRequest {
                destination: "1".into(),
                objective: Objective::default(),
                constraints,
            };
            let pinned = svc.constraint_funnel(&pins, 1, &req).unwrap();
            assert_eq!((pinned.stored, pinned.matched), (2, 2), "{req:?}");
            let live = svc.evaluate_constraint(&req).unwrap();
            assert_eq!((live.stored, live.matched), (3, 3), "{req:?}");
        }
    }

    /// Destination 1 with two paths on the Pareto front: path 0 is
    /// faster, path 1 loses less.
    fn two_tradeoffs(svc: &PathIntelService) {
        use crate::schema::{PathId, PathMeasurement, StatId};
        for (index, latency, loss) in [(0u32, 20.0, 2.0), (1, 40.0, 0.0)] {
            let path = pathdb::doc! {
                "_id" => format!("1_{index}"),
                "server_id" => 1i64,
                "path_index" => index as i64,
                "sequence" => format!("seq-{index}"),
                "hops" => 5i64,
            };
            svc.db
                .collection(schema::PATHS)
                .write()
                .insert_one(path)
                .unwrap();
            let m = PathMeasurement {
                stat_id: StatId {
                    path: PathId {
                        server_id: 1,
                        path_index: index,
                    },
                    timestamp_ms: 1000,
                },
                isds: vec![17],
                hops: 5,
                avg_latency_ms: Some(latency),
                jitter_ms: Some(1.0),
                loss_pct: loss,
                bw_up_mtu: Some(10.0),
                bw_down_mtu: Some(10.0),
                bw_up_64: None,
                bw_down_64: None,
                target_mbps: 12.0,
                error: None,
            };
            let handle = svc.db.collection(schema::PATHS_STATS);
            handle.write().insert_one(m.to_doc()).unwrap();
        }
    }

    /// `k = 0` answers `InvalidRequest` however the ranking is spelled
    /// (a weighted one used to answer `NoCompleteStatistics`, a Pareto
    /// one the whole menu); for `k >= 1` the Pareto menu stays whole.
    #[test]
    fn k_zero_is_invalid_in_every_ranking_spelling() {
        let svc = service();
        two_tradeoffs(&svc);
        let recommend = |k, pareto, weights| {
            ServiceRequest::Recommend(RecommendRequest {
                destination: "1".into(),
                objective: Objective::default(),
                constraints: Constraints::default(),
                k,
                pareto,
                weights,
            })
        };
        let weights = Some(Weights {
            latency: 1.0,
            ..Weights::default()
        });
        // Every registry row's `k = 0` is `strategy::tests`' to check.
        let spellings = [
            recommend(0, false, None),
            recommend(0, false, weights),
            recommend(0, true, None),
            ServiceRequest::StrategyScore(StrategyScoreRequest {
                destination: "1".into(),
                strategy: "random".into(),
                objective: Objective::default(),
                constraints: Constraints::default(),
                k: 0,
                seed: 3,
            }),
        ];
        for req in &spellings {
            let err = svc.try_dispatch(req).unwrap_err();
            assert_eq!(err.code, ErrorCode::InvalidRequest, "{req:?}: {err:?}");
        }
        for req in [recommend(1, false, None), recommend(1, false, weights)] {
            let ServiceResponse::Recommend(r) = svc.dispatch(&req) else {
                panic!("{req:?} must rank");
            };
            assert_eq!(r.entries.len(), 1, "{req:?}");
        }
        let ServiceResponse::Recommend(menu) = svc.dispatch(&recommend(1, true, None)) else {
            panic!("the Pareto menu must answer");
        };
        assert_eq!(menu.entries.len(), 2, "the menu is not cut to k");
        assert!(menu.entries.iter().all(|e| e.score.is_none()));
    }

    mod props {
        use super::*;
        use crate::select::props::{arb_db, arb_request, populate};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// `ConstraintReport`'s promise, over generated statistics
            /// and constraints: `scorable == 0` predicts the failure a
            /// ranked recommend answers, with the funnel's own counts,
            /// and otherwise it returns `min(k, scorable)` entries.
            #[test]
            fn the_funnel_predicts_the_ranking(
                dests in arb_db(),
                (server_id, objective, min_samples, max_loss_pct, max_hops) in arb_request(),
                k in 1usize..6,
            ) {
                let svc = service();
                populate(&svc.db, &dests);
                let constraints = Constraints {
                    min_samples,
                    max_loss_pct,
                    max_hops,
                    ..Constraints::default()
                };
                let funnel = svc
                    .evaluate_constraint(&EvaluateConstraintRequest {
                        destination: server_id.to_string(),
                        objective,
                        constraints: constraints.clone(),
                    })
                    .unwrap();
                let ranked = svc.recommend(&RecommendRequest {
                    destination: server_id.to_string(),
                    objective,
                    constraints,
                    k,
                    pareto: false,
                    weights: None,
                });
                if funnel.scorable == 0 {
                    let err = ranked.unwrap_err();
                    let (matched, gated) = (funnel.matched, funnel.gated);
                    let want = if matched == 0 {
                        (ErrorCode::NoMatch, None, None)
                    } else if gated == 0 {
                        (ErrorCode::AllGated, Some(matched), None)
                    } else {
                        (ErrorCode::AllUnscorable, Some(matched), Some(gated))
                    };
                    prop_assert_eq!((err.code, err.matched, err.gated), want);
                } else {
                    let entries = ranked.unwrap().entries;
                    prop_assert_eq!(entries.len(), k.min(funnel.scorable));
                }
            }
        }
    }

    #[test]
    fn dispatch_json_round_trips_a_health_call() {
        let line = ServiceRequest::Health.to_json_string();
        let out = service().dispatch_json(&line);
        let resp = ServiceResponse::from_json_str(&out).unwrap();
        assert!(matches!(resp, ServiceResponse::Health(_)), "{out}");
    }
}
