//! Path verification: the UPIN framework's *Path Tracer* and *Path
//! Verifier* components (§2.1).
//!
//! The paper's scope is the Path Controller; its framework section
//! defines two sibling components this module implements on top of the
//! same substrate:
//!
//! * the **Tracer** "gathers measurements on the traffic in the UPIN
//!   domain ... to store important details for the possible
//!   verification" — here, per-hop traceroute records written to a
//!   `path_traces` collection;
//! * the **Verifier** "examines whether the desires of the user are
//!   satisfied" — here, checking a delivered path against the request's
//!   exclusion constraints (from the actually-traversed ASes, not the
//!   promised ones) and against its performance objective.

use crate::error::{SuiteError, SuiteResult};
use crate::select::{Constraints, Objective, Recommendation};
use pathdb::{doc, Database, Value};
use scion_sim::addr::IsdAsn;
use scion_sim::net::ScionNetwork;
use scion_sim::path::ScionPath;
use scion_tools::ping::PathSelection;
use scion_tools::traceroute::traceroute;

/// Collection holding tracer records.
pub(crate) const PATH_TRACES: &str = "path_traces";

/// One verification finding.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The path traversed an excluded ISD.
    ExcludedIsd(u16),
    /// The path traversed an excluded AS.
    ExcludedAs(IsdAsn),
    /// The path traversed a device in an excluded country.
    ExcludedCountry(String),
    /// The path traversed a device run by an excluded operator.
    ExcludedOperator(String),
    /// More hops than the request allowed.
    TooManyHops { limit: usize, actual: usize },
    /// A hop did not answer the tracer at all.
    SilentHop(IsdAsn),
    /// Measured end-to-end RTT exceeds the promised latency by more
    /// than the tolerance factor.
    LatencyRegression { promised_ms: f64, measured_ms: f64 },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ExcludedIsd(i) => write!(f, "traversed excluded ISD {i}"),
            Violation::ExcludedAs(ia) => write!(f, "traversed excluded AS {ia}"),
            Violation::ExcludedCountry(c) => write!(f, "traversed excluded country {c}"),
            Violation::ExcludedOperator(o) => write!(f, "traversed excluded operator {o}"),
            Violation::TooManyHops { limit, actual } => {
                write!(f, "{actual} hops exceed the {limit}-hop bound")
            }
            Violation::SilentHop(ia) => write!(f, "hop {ia} did not answer the tracer"),
            Violation::LatencyRegression {
                promised_ms,
                measured_ms,
            } => write!(
                f,
                "measured {measured_ms:.1} ms vs promised {promised_ms:.1} ms"
            ),
        }
    }
}

/// Result of verifying one delivered path.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// The trace the verdict is based on: (AS, RTT to it in ms).
    pub trace: Vec<(IsdAsn, Option<f64>)>,
    pub violations: Vec<Violation>,
}

impl VerificationReport {
    pub fn satisfied(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Trace a path hop by hop and persist the record (the Tracer role).
/// Returns the per-hop RTTs.
pub(crate) fn trace_and_record(
    db: &Database,
    net: &ScionNetwork,
    local: IsdAsn,
    path: &ScionPath,
) -> SuiteResult<Vec<(IsdAsn, Option<f64>)>> {
    let dst = path
        .dst()
        .ok_or_else(|| SuiteError::Schema("path without destination".into()))?;
    let report = traceroute(net, local, dst, &PathSelection::Sequence(path.sequence()))?;
    let trace: Vec<(IsdAsn, Option<f64>)> = report.hops.iter().map(|h| (h.ia, h.rtt_ms)).collect();

    let record = doc! {
        "sequence" => path.sequence(),
        "timestamp_ms" => net.now_ms(),
        "hops" => trace
            .iter()
            .map(|(ia, rtt)| {
                Value::Doc(doc! {
                    "ia" => ia.to_string(),
                    "rtt_ms" => *rtt,
                })
            })
            .collect::<Vec<Value>>(),
    };
    let handle = db.collection(PATH_TRACES);
    handle.write().insert_one(record)?;
    Ok(trace)
}

/// Verify a recommendation end to end (the Verifier role): re-trace the
/// path and check the *observed* ASes against the constraints, plus the
/// latency objective against the promise, within `tolerance` (e.g. 1.5
/// = 50 % slack).
pub fn verify_recommendation(
    db: &Database,
    net: &ScionNetwork,
    local: IsdAsn,
    recommendation: &Recommendation,
    constraints: &Constraints,
    objective: Objective,
    tolerance: f64,
) -> SuiteResult<VerificationReport> {
    let path = ScionPath::from_sequence(&recommendation.aggregate.sequence)
        .map_err(|e| SuiteError::Schema(format!("bad stored sequence: {e}")))?;
    let trace = trace_and_record(db, net, local, &path)?;
    let mut violations = Vec::new();

    // Constraint checks against the actually-traversed ASes.
    for (ia, rtt) in &trace {
        if constraints.exclude_isds.contains(&ia.isd.0) {
            violations.push(Violation::ExcludedIsd(ia.isd.0));
        }
        if constraints
            .exclude_ases
            .iter()
            .any(|a| a == &ia.to_string())
        {
            violations.push(Violation::ExcludedAs(*ia));
        }
        if let Some(idx) = net.topology().index_of(*ia) {
            let node = net.topology().node(idx);
            if constraints
                .exclude_countries
                .contains(&node.location.country)
            {
                violations.push(Violation::ExcludedCountry(node.location.country.clone()));
            }
            if constraints.exclude_operators.contains(&node.operator) {
                violations.push(Violation::ExcludedOperator(node.operator.clone()));
            }
        }
        if rtt.is_none() && *ia != local {
            violations.push(Violation::SilentHop(*ia));
        }
    }
    if let Some(limit) = constraints.max_hops {
        if trace.len() > limit {
            violations.push(Violation::TooManyHops {
                limit,
                actual: trace.len(),
            });
        }
    }

    // Objective check: the end-to-end RTT must not regress beyond the
    // tolerance over the promised aggregate.
    if objective == Objective::MinLatency {
        if let (Some(promised), Some(measured)) = (
            recommendation.aggregate.latency.as_ref().map(|w| w.mean),
            trace.last().and_then(|(_, rtt)| *rtt),
        ) {
            if measured > promised * tolerance {
                violations.push(Violation::LatencyRegression {
                    promised_ms: promised,
                    measured_ms: measured,
                });
            }
        }
    }

    Ok(VerificationReport { trace, violations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use crate::config::SuiteConfig;
    use crate::measure::run_tests;
    use crate::select::{recommend, UserRequest};
    use pathdb::Document;
    use scion_sim::topology::scionlab::{paper_destinations, AWS_SINGAPORE, MY_AS};

    /// Stored trace records for a sequence, newest last.
    fn traces_for(db: &Database, sequence: &str) -> Vec<Document> {
        let handle = db.collection(PATH_TRACES);
        let coll = handle.read();
        coll.query(pathdb::Filter::eq("sequence", sequence)).run()
    }

    fn campaign() -> (Database, ScionNetwork, u32) {
        let net = ScionNetwork::scionlab(77);
        let db = Database::new();
        register_available_servers(&db, &net).unwrap();
        let cfg = SuiteConfig {
            iterations: 2,
            ping_count: 5,
            run_bwtests: false,
            ..SuiteConfig::default()
        };
        collect_paths(&db, &net, &cfg).unwrap();
        let ireland = crate::analysis::server_id_of(&db, paper_destinations()[1]).unwrap();
        {
            let handle = db.collection(crate::schema::AVAILABLE_SERVERS);
            handle
                .write()
                .delete_many(&pathdb::Filter::ne("_id", ireland.to_string()));
        }
        run_tests(&db, &net, &cfg).unwrap();
        (db, net, ireland)
    }

    #[test]
    fn honest_recommendation_verifies_clean() {
        let (db, net, server_id) = campaign();
        let constraints = Constraints {
            exclude_countries: vec!["United States".into(), "Singapore".into()],
            ..Constraints::default()
        };
        let recs = recommend(
            &db,
            &UserRequest {
                server_id,
                objective: Objective::MinLatency,
                constraints: constraints.clone(),
            },
            1,
        )
        .unwrap();
        let report = verify_recommendation(
            &db,
            &net,
            MY_AS,
            &recs[0],
            &constraints,
            Objective::MinLatency,
            1.5,
        )
        .unwrap();
        assert!(report.satisfied(), "{:?}", report.violations);
        assert_eq!(report.trace.len(), recs[0].aggregate.hops);
        // The trace was recorded for audit.
        assert_eq!(traces_for(&db, &recs[0].aggregate.sequence).len(), 1);
    }

    #[test]
    fn verifier_catches_constraint_violations() {
        let (db, net, server_id) = campaign();
        // Recommend without constraints, then verify against a stricter
        // request: the Singapore detour must be flagged.
        let recs = recommend(
            &db,
            &UserRequest {
                server_id,
                objective: Objective::MinLatency,
                constraints: Constraints::default(),
            },
            100,
        )
        .unwrap();
        let sg = recs
            .iter()
            .find(|r| r.aggregate.sequence.contains(&AWS_SINGAPORE.to_string()))
            .expect("a Singapore path is among candidates");
        let strict = Constraints {
            exclude_countries: vec!["Singapore".into()],
            exclude_ases: vec![AWS_SINGAPORE.to_string()],
            max_hops: Some(6),
            ..Constraints::default()
        };
        let report =
            verify_recommendation(&db, &net, MY_AS, sg, &strict, Objective::MinLatency, 10.0)
                .unwrap();
        assert!(!report.satisfied());
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ExcludedCountry(c) if c == "Singapore")));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::ExcludedAs(ia) if *ia == AWS_SINGAPORE)));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TooManyHops { actual: 7, .. })));
    }

    #[test]
    fn verifier_catches_latency_regression() {
        let (db, net, server_id) = campaign();
        let recs = recommend(
            &db,
            &UserRequest {
                server_id,
                objective: Objective::MinLatency,
                constraints: Constraints::default(),
            },
            1,
        )
        .unwrap();
        // Congest the whole window so the re-trace comes back slower is
        // hard without changing delay; instead verify with an absurdly
        // tight tolerance: any real measurement exceeds promise × 0.01.
        let report = verify_recommendation(
            &db,
            &net,
            MY_AS,
            &recs[0],
            &Constraints::default(),
            Objective::MinLatency,
            0.01,
        )
        .unwrap();
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LatencyRegression { .. })));
    }

    #[test]
    fn violation_messages_render() {
        for v in [
            Violation::ExcludedIsd(20),
            Violation::ExcludedCountry("Singapore".into()),
            Violation::TooManyHops {
                limit: 6,
                actual: 7,
            },
            Violation::LatencyRegression {
                promised_ms: 25.0,
                measured_ms: 180.0,
            },
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
