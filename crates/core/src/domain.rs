//! The UPIN *Domain Explorer* (§2.1): "obtains metadata about
//! properties of the network, including security and environmental
//! details. It stores detailed knowledge on the nodes in the network."
//!
//! Two sources feed the `domains` collection:
//!
//! * **static exploration** — per-AS facts from the control plane
//!   (ISD, role, operator, country, link degree, hosted servers);
//! * **measurement enrichment** — per-AS latency contributions derived
//!   from stored traceroute records (`path_traces`).
//!
//! The selection and verification layers use this collection to resolve
//! symbolic exclusions ("no devices in the United States") into
//! concrete AS sets.

use crate::error::{SuiteError, SuiteResult};
use crate::verify::PATH_TRACES;
use pathdb::{doc, Database, Document, Filter, Value};
use scion_sim::addr::IsdAsn;
use scion_sim::net::ScionNetwork;
use std::collections::BTreeMap;

/// Collection holding per-AS domain knowledge.
pub const DOMAINS: &str = "domains";

/// Decoded domain record.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainInfo {
    pub ia: IsdAsn,
    pub name: String,
    pub operator: String,
    pub country: String,
    pub kind: String,
    /// Number of inter-AS links.
    pub degree: usize,
    /// Number of measurable servers hosted.
    pub servers: usize,
    /// Mean per-AS RTT contribution observed by the tracer, ms.
    pub latency_contribution_ms: Option<f64>,
    /// Number of trace observations backing the contribution.
    pub observations: usize,
}

/// Populate (or refresh) the static metadata of every AS. Idempotent;
/// preserves measurement-derived fields on refresh.
pub fn explore(db: &Database, net: &ScionNetwork) -> SuiteResult<usize> {
    let handle = db.collection(DOMAINS);
    let mut coll = handle.write();
    let topo = net.topology();
    let mut count = 0;
    for (idx, node) in topo.ases() {
        let degree = topo.links_of(idx).count();
        let id = node.ia.to_string();
        let existing = coll.find_by_id(id.clone());
        let (contribution, observations) = existing
            .map(|d| {
                (
                    d.get("latency_contribution_ms")
                        .cloned()
                        .unwrap_or(Value::Null),
                    d.get("observations").cloned().unwrap_or(Value::Int(0)),
                )
            })
            .unwrap_or((Value::Null, Value::Int(0)));
        coll.delete_many(&Filter::eq("_id", id.clone()));
        coll.insert_one(doc! {
            "_id" => id,
            "isd" => node.ia.isd.0 as i64,
            "name" => node.name.clone(),
            "kind" => format!("{:?}", node.kind),
            "operator" => node.operator.clone(),
            "country" => node.location.country.clone(),
            "city" => node.location.city.clone(),
            "degree" => degree as i64,
            "servers" => node.servers.len() as i64,
            "latency_contribution_ms" => contribution,
            "observations" => observations,
        })?;
        count += 1;
    }
    Ok(count)
}

/// Fold the tracer's records into per-AS latency contributions: for each
/// consecutive hop pair of every stored trace, the RTT delta is charged
/// to the entered AS. Returns how many domains were enriched.
pub fn enrich_from_traces(db: &Database) -> SuiteResult<usize> {
    // Charge each RTT delta to the entered AS: (sum, count) per AS, in
    // trace order so the float sums do not depend on the map.
    let mut per_as: BTreeMap<String, (f64, i64)> = BTreeMap::new();
    {
        let handle = db.collection(PATH_TRACES);
        let coll = handle.read();
        for trace in coll.query_all().run() {
            let Some(Value::Array(hops)) = trace.get("hops") else {
                continue;
            };
            let mut prev_rtt = 0.0;
            for h in hops {
                let Some(hd) = h.as_doc() else { continue };
                let Some(ia) = hd.get("ia").and_then(Value::as_str) else {
                    continue;
                };
                let Some(rtt) = hd.get("rtt_ms").and_then(Value::as_float) else {
                    continue;
                };
                let delta = (rtt - prev_rtt).max(0.0);
                prev_rtt = rtt;
                let (sum, n) = per_as.entry(ia.to_string()).or_insert((0.0, 0));
                *sum += delta;
                *n += 1;
            }
        }
    }

    let handle = db.collection(DOMAINS);
    let mut coll = handle.write();
    let mut enriched = 0;
    for (ia, (sum, n)) in per_as {
        enriched += coll.update_many(
            &Filter::eq("_id", ia),
            &pathdb::Update::new()
                .set("latency_contribution_ms", sum / n as f64)
                .set("observations", n),
        );
    }
    Ok(enriched)
}

/// Decode all domain records matching `filter`.
pub fn domains_matching(db: &Database, filter: &Filter) -> SuiteResult<Vec<DomainInfo>> {
    let handle = db.collection(DOMAINS);
    let coll = handle.read();
    coll.query(filter).run().iter().map(decode).collect()
}

fn decode(d: &Document) -> SuiteResult<DomainInfo> {
    let ia: IsdAsn = d
        .id()
        .ok_or_else(|| SuiteError::Schema("domain doc without _id".into()))?
        .parse()
        .map_err(|e| SuiteError::Schema(format!("bad domain id: {e}")))?;
    let s = |k: &str| {
        d.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    Ok(DomainInfo {
        ia,
        name: s("name"),
        operator: s("operator"),
        country: s("country"),
        kind: s("kind"),
        degree: d.get("degree").and_then(Value::as_int).unwrap_or(0) as usize,
        servers: d.get("servers").and_then(Value::as_int).unwrap_or(0) as usize,
        latency_contribution_ms: d.get("latency_contribution_ms").and_then(Value::as_float),
        observations: d.get("observations").and_then(Value::as_int).unwrap_or(0) as usize,
    })
}

/// Resolve a symbolic constraint set to the concrete ASes it excludes,
/// using domain knowledge (countries and operators → AS list).
pub fn resolve_exclusions(
    db: &Database,
    constraints: &crate::select::Constraints,
) -> SuiteResult<Vec<IsdAsn>> {
    let mut filter = Filter::Or(
        constraints
            .exclude_countries
            .iter()
            .map(|c| Filter::eq("country", c.clone()))
            .chain(
                constraints
                    .exclude_operators
                    .iter()
                    .map(|o| Filter::eq("operator", o.clone())),
            )
            .chain(
                constraints
                    .exclude_isds
                    .iter()
                    .map(|i| Filter::eq("isd", *i as i64)),
            )
            .collect(),
    );
    if let Filter::Or(v) = &filter {
        if v.is_empty() {
            filter = Filter::eq("_id", Value::Null); // matches nothing
        }
    }
    let mut out: Vec<IsdAsn> = domains_matching(db, &filter)?
        .into_iter()
        .map(|d| d.ia)
        .collect();
    for ia in &constraints.exclude_ases {
        if let Ok(parsed) = ia.parse::<IsdAsn>() {
            if !out.contains(&parsed) {
                out.push(parsed);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::Constraints;
    use crate::verify::trace_and_record;
    use scion_sim::topology::scionlab::{
        AWS_IRELAND, AWS_N_VIRGINIA, AWS_OHIO, AWS_SINGAPORE, MY_AS,
    };

    fn explored() -> (Database, ScionNetwork) {
        let net = ScionNetwork::scionlab(66);
        let db = Database::new();
        explore(&db, &net).unwrap();
        (db, net)
    }

    #[test]
    fn explore_registers_every_as() {
        let (db, net) = explored();
        assert_eq!(
            db.collection(DOMAINS).read().len(),
            net.topology().num_ases()
        );
        let infos = domains_matching(&db, &Filter::eq("country", "Switzerland")).unwrap();
        assert!(infos.len() >= 5, "{infos:?}");
        assert!(infos.iter().any(|d| d.ia == MY_AS));
        // Static facts are filled.
        let ireland = domains_matching(&db, &Filter::eq("_id", AWS_IRELAND.to_string())).unwrap();
        assert_eq!(ireland[0].operator, "AWS");
        assert_eq!(ireland[0].servers, 1);
        assert!(ireland[0].degree >= 3);
        assert!(ireland[0].latency_contribution_ms.is_none());
    }

    #[test]
    fn explore_is_idempotent_and_preserves_enrichment() {
        let (db, net) = explored();
        // Fake an enrichment, re-explore, and check it survives.
        db.collection(DOMAINS).write().update_many(
            &Filter::eq("_id", AWS_IRELAND.to_string()),
            &pathdb::Update::new()
                .set("latency_contribution_ms", 7.5)
                .set("observations", 3i64),
        );
        explore(&db, &net).unwrap();
        let d = domains_matching(&db, &Filter::eq("_id", AWS_IRELAND.to_string())).unwrap();
        assert_eq!(d[0].latency_contribution_ms, Some(7.5));
        assert_eq!(d[0].observations, 3);
    }

    #[test]
    fn traces_enrich_latency_contributions() {
        let (db, net) = explored();
        // Record a few traces over distinct paths to Ireland.
        for p in net.paths(MY_AS, AWS_IRELAND, 3) {
            trace_and_record(&db, &net, MY_AS, &p).unwrap();
        }
        let enriched = enrich_from_traces(&db).unwrap();
        assert!(enriched >= 5, "enriched {enriched}");
        // The transatlantic AS (Ireland, entered over the long link)
        // carries a much larger contribution than ETHZ-AP next door.
        let ireland = domains_matching(&db, &Filter::eq("_id", AWS_IRELAND.to_string())).unwrap();
        let ethz_ap = domains_matching(
            &db,
            &Filter::eq("_id", scion_sim::topology::scionlab::ETHZ_AP.to_string()),
        )
        .unwrap();
        let irish = ireland[0].latency_contribution_ms.unwrap();
        let local = ethz_ap[0].latency_contribution_ms.unwrap();
        assert!(irish > local + 5.0, "{irish} vs {local}");
        assert!(ireland[0].observations > 0);
    }

    #[test]
    fn enrich_without_traces_is_a_noop() {
        let (db, _) = explored();
        assert_eq!(enrich_from_traces(&db).unwrap(), 0);
    }

    #[test]
    fn symbolic_exclusions_resolve_to_concrete_ases() {
        let (db, _) = explored();
        let c = Constraints {
            exclude_countries: vec!["Singapore".into()],
            exclude_operators: vec!["KISTI".into()],
            exclude_ases: vec![AWS_OHIO.to_string()],
            ..Constraints::default()
        };
        let ases = resolve_exclusions(&db, &c).unwrap();
        assert!(ases.contains(&AWS_SINGAPORE));
        assert!(ases.contains(&AWS_OHIO));
        assert!(ases.iter().any(|ia| ia.isd.0 == 20), "KISTI ASes resolved");
        assert!(!ases.contains(&AWS_IRELAND));
        assert!(!ases.contains(&AWS_N_VIRGINIA));
        // Empty constraints resolve to nothing.
        assert!(resolve_exclusions(&db, &Constraints::default())
            .unwrap()
            .is_empty());
    }
}
