//! # upin-core — user-driven path control over SCION
//!
//! The primary contribution of *"Evaluation of SCION for User-driven
//! Path Control: a Usability Study"* (Battipaglia, Boldrini, Koning,
//! Grosso — SC-W 2023), reimplemented as a library:
//!
//! * [`schema`] — the three-collection database schema of the paper's
//!   Fig. 3 (`availableServers`, `paths`, `paths_stats`) with the
//!   composite id codecs (`"2_15"`, `"2_15_<timestamp>"`).
//! * [`collect`] — the path-collection stage (`showpaths --extended
//!   -m 40`, retention at `min_hops + 1`, insertion + stale deletion).
//! * [`measure`] — the measurement stage (`ping -c 30 --interval 0.1s`,
//!   bandwidth tests at 64 B and MTU), with per-destination batched
//!   insertion and fault-tolerant error recording.
//! * [`runner`] — the campaign engine, `run_tests`: retry with
//!   deterministic exponential backoff, per-destination circuit breaker,
//!   and destination-ordered commits that make parallel campaigns
//!   bit-identical to sequential ones.
//! * [`pool`] — the one bounded worker pool behind every `--parallel`.
//! * [`longitudinal`] — the one continuous driver: periodic rounds with
//!   rollup catch-up, retention and a checkpoint after each, from
//!   minutes to simulated months.
//! * [`suite`] — the `test_suite.sh` wrapper, `run_suite`
//!   (`<iterations>`, `--skip`, `--some-only`, plus an optional
//!   `--parallel` mode).
//! * [`select`] — the selection engine: performance objectives and
//!   geographic/sovereignty/operator exclusion constraints over the
//!   collected statistics.
//! * [`strategy`] — pluggable selection strategies behind one trait:
//!   the paper's ranking plus shortest-path, widest-path, latency /
//!   jitter / loss greedy, seeded-random and SCION-default baselines.
//! * [`axioms`] — the strategy-evaluation harness: replay every
//!   registered strategy over a recorded campaign and score
//!   Pareto-efficiency, stability under fault epochs, and fairness.
//! * [`failover`] — long-lived sessions that survive chaos schedules:
//!   epoch-driven failure detection, ranked re-selection with
//!   hysteresis and seeded backoff, measured switch SLAs, and graceful
//!   degradation to stale recommendations instead of errors.
//! * [`statcache`] — incremental memoization of per-destination
//!   measurement groupings and per-path aggregates, keyed on the
//!   collections' mutation versions: unchanged databases answer
//!   `recommend` from cache and append-only campaigns merge only the
//!   new rows.
//! * [`analysis`] / [`report`] — the statistics behind every figure of
//!   the paper's §6 and their text renderings.
//! * [`verify`] — the UPIN Path Tracer / Path Verifier roles (§2.1):
//!   re-trace a delivered path, record it for audit, and check the
//!   observed hops and latency against the user's intent.
//!
//! ```
//! use pathdb::Database;
//! use scion_sim::net::ScionNetwork;
//! use upin_core::collect::register_available_servers;
//! use upin_core::config::SuiteConfig;
//! use upin_core::suite::run_suite;
//!
//! let net = ScionNetwork::scionlab(42);
//! let db = Database::new();
//! let cfg = SuiteConfig { some_only: true, ping_count: 3, run_bwtests: false,
//!                         ..SuiteConfig::default() };
//! register_available_servers(&db, &net).unwrap();
//! let report = run_suite(&db, &net, &cfg).unwrap();
//! assert!(report.measurement.inserted > 0);
//! ```

pub mod analysis;
pub mod api;
pub mod axioms;
pub mod churn;
pub mod collect;
pub mod config;
pub mod dataset;
pub mod error;
pub mod failover;
pub mod health;
pub mod longitudinal;
pub mod measure;
pub mod multi;
pub mod pool;
pub mod report;
pub mod runner;
pub mod schema;
pub mod select;
pub mod statcache;
pub mod strategy;
pub mod suite;
pub mod verify;

pub use api::{PathIntelService, ServiceError, ServiceRequest, ServiceResponse};
pub use axioms::{evaluate_strategies, EvalConfig, Scorecard};
pub use churn::ChurnReport;
pub use config::SuiteConfig;
pub use dataset::{dataset_files, DatasetFile};
pub use error::{SelectionFailure, SuiteError};
pub use failover::{run_chaos_campaign, ChaosReport, FailoverConfig};
pub use longitudinal::{run_longitudinal, LongitudinalConfig, LongitudinalReport};
pub use schema::{PathId, PathMeasurement, StatId};
pub use select::{Constraints, Objective, Recommendation, UserRequest};
pub use strategy::{Strategy, StrategyContext};
pub use suite::{run_suite, SuiteReport};
