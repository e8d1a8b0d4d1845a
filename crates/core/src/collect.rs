//! Path collection: the `collect_paths.py` stage of the suite (§5.2).
//!
//! For every destination in `availableServers`, runs
//! `scion showpaths --extended -m 40`, retains only paths with at most
//! `min_hops + 1` hops ("conserving time by excluding paths that are
//! overly lengthy"), pre-processes the output into `paths` documents —
//! including the per-hop country/operator metadata the selection engine
//! filters on — inserts new paths and deletes paths that are no longer
//! available.

use crate::config::SuiteConfig;
use crate::error::{SuiteError, SuiteResult};
use crate::schema::{self, PathId, AVAILABLE_SERVERS, PATHS};
use pathdb::{Database, Filter, Update, Value};
use scion_sim::addr::ScionAddr;
use scion_sim::net::ScionNetwork;
use scion_sim::path::ScionPath;
use scion_tools::showpaths::{showpaths, ShowpathsOptions};
use std::collections::HashMap;

/// Populate `availableServers` from the network's server inventory,
/// assigning the progressive integer ids (1..=N) of the paper's schema.
/// Idempotent: wipes and rewrites the collection.
pub fn register_available_servers(db: &Database, net: &ScionNetwork) -> SuiteResult<usize> {
    schema::ensure_indexes(db);
    let handle = db.collection(AVAILABLE_SERVERS);
    let mut coll = handle.write();
    coll.delete_many(&Filter::True);
    let mut count = 0u32;
    for addr in net.topology().all_servers() {
        count += 1;
        let idx = net
            .topology()
            .server_as(addr)
            .expect("inventory addresses resolve");
        let node = net.topology().node(idx);
        let name = node
            .servers
            .iter()
            .find(|s| s.host == addr.host)
            .map(|s| s.name.clone())
            .unwrap_or_else(|| node.name.clone());
        coll.insert_one(schema::server_doc(count, addr, &name))?;
    }
    Ok(count as usize)
}

/// Destinations from `availableServers`, ordered by id.
pub fn destinations(db: &Database) -> SuiteResult<Vec<(u32, ScionAddr)>> {
    let handle = db.collection(AVAILABLE_SERVERS);
    let coll = handle.read();
    let mut out = Vec::with_capacity(coll.len());
    for d in coll.query_all().run() {
        out.push(schema::parse_server_doc(&d)?);
    }
    out.sort_by_key(|(id, _)| *id);
    Ok(out)
}

/// Outcome of one collection run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CollectReport {
    pub destinations: usize,
    /// Paths returned by showpaths in total.
    pub discovered: usize,
    /// Paths surviving the `min_hops + slack` retention rule.
    pub retained: usize,
    pub inserted: usize,
    pub updated: usize,
    pub deleted: usize,
    /// Destinations that had to be skipped (no paths / tool errors).
    pub skipped: Vec<u32>,
}

/// Run the collection stage.
pub fn collect_paths(
    db: &Database,
    net: &ScionNetwork,
    cfg: &SuiteConfig,
) -> SuiteResult<CollectReport> {
    let mut report = CollectReport::default();
    let dests = destinations(db)?;
    report.destinations = dests.len();
    for (server_id, addr) in dests {
        match collect_for_destination(db, net, cfg, server_id, addr) {
            Ok((discovered, retained, inserted, updated, deleted)) => {
                report.discovered += discovered;
                report.retained += retained;
                report.inserted += inserted;
                report.updated += updated;
                report.deleted += deleted;
            }
            Err(SuiteError::Tool(_)) | Err(SuiteError::NoCandidates(_)) => {
                // Fault tolerance (§4.1.2): a dead destination must not
                // kill the campaign.
                report.skipped.push(server_id);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(report)
}

/// Retention rule of §5.2: keep paths with `hops ≤ min_hops + slack`.
fn retain_short_paths(paths: &[ScionPath], slack: usize) -> Vec<&ScionPath> {
    let Some(min) = paths.iter().map(ScionPath::hop_count).min() else {
        return Vec::new();
    };
    paths
        .iter()
        .filter(|p| p.hop_count() <= min + slack)
        .collect()
}

fn collect_for_destination(
    db: &Database,
    net: &ScionNetwork,
    cfg: &SuiteConfig,
    server_id: u32,
    addr: ScionAddr,
) -> SuiteResult<(usize, usize, usize, usize, usize)> {
    let result = showpaths(
        net,
        cfg.local_as,
        addr.ia,
        ShowpathsOptions {
            max_paths: cfg.max_paths,
            extended: true,
        },
    )?;
    let all: Vec<ScionPath> = result.paths.into_iter().map(|e| e.path).collect();
    if all.is_empty() {
        return Err(SuiteError::NoCandidates(format!("no paths to {addr}")));
    }
    let discovered = all.len();
    let retained: Vec<&ScionPath> = retain_short_paths(&all, cfg.hop_slack);

    // Existing paths for this destination: sequence → (id, index).
    let handle = db.collection(PATHS);
    let mut coll = handle.write();
    let existing = coll
        .query(Filter::eq("server_id", server_id as i64))
        .sort("path_index")
        .run();
    let mut by_sequence: HashMap<String, PathId> = HashMap::new();
    let mut next_index = 0u32;
    for d in &existing {
        let (id, seq, _) = schema::parse_path_doc(d)?;
        next_index = next_index.max(id.path_index + 1);
        by_sequence.insert(seq, id);
    }

    let mut inserted = 0;
    let mut updated = 0;
    let mut fresh_docs = Vec::new();
    let mut live_ids: Vec<String> = Vec::with_capacity(retained.len());
    for path in &retained {
        let seq = path.sequence();
        let (countries, operators) = hop_metadata(net, path);
        match by_sequence.get(&seq) {
            Some(id) => {
                // Refresh mutable metadata in place.
                coll.update_many(
                    &Filter::eq("_id", id.to_string()),
                    &Update::new()
                        .set("status", path.status.to_string())
                        .set("mtu", path.mtu as i64)
                        .set("expected_latency_ms", path.expected_latency_ms),
                );
                updated += 1;
                live_ids.push(id.to_string());
            }
            None => {
                let id = PathId {
                    server_id,
                    path_index: next_index,
                };
                next_index += 1;
                fresh_docs.push(schema::path_doc(id, path, countries, operators));
                live_ids.push(id.to_string());
                inserted += 1;
            }
        }
    }
    coll.insert_many(fresh_docs)?;

    // Delete paths for this destination that are no longer available.
    let deleted = coll.delete_many(
        &Filter::eq("server_id", server_id as i64).and(Filter::not_in(
            "_id",
            live_ids.into_iter().map(Value::from).collect(),
        )),
    );
    Ok((discovered, retained.len(), inserted, updated, deleted))
}

/// Per-hop country and operator sets of a path (deduplicated,
/// order-preserving) — the Domain-Explorer-style metadata stored with
/// each path for sovereignty/operator exclusion queries.
fn hop_metadata(net: &ScionNetwork, path: &ScionPath) -> (Vec<String>, Vec<String>) {
    let topo = net.topology();
    let mut countries: Vec<String> = Vec::new();
    let mut operators: Vec<String> = Vec::new();
    for hop in &path.hops {
        if let Some(idx) = topo.index_of(hop.ia) {
            let node = topo.node(idx);
            if !countries.contains(&node.location.country) {
                countries.push(node.location.country.clone());
            }
            if !operators.contains(&node.operator) {
                operators.push(node.operator.clone());
            }
        }
    }
    (countries, operators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_sim::topology::scionlab::{AWS_IRELAND, MY_AS};

    fn setup() -> (Database, ScionNetwork, SuiteConfig) {
        let net = ScionNetwork::scionlab(5);
        let db = Database::new();
        register_available_servers(&db, &net).unwrap();
        (db, net, SuiteConfig::default())
    }

    #[test]
    fn registers_21_servers_with_progressive_ids() {
        let (db, _, _) = setup();
        let dests = destinations(&db).unwrap();
        assert_eq!(dests.len(), 21);
        let ids: Vec<u32> = dests.iter().map(|(i, _)| *i).collect();
        assert_eq!(ids, (1..=21).collect::<Vec<u32>>());
    }

    #[test]
    fn collect_populates_paths_with_retention() {
        let (db, net, cfg) = setup();
        let report = collect_paths(&db, &net, &cfg).unwrap();
        assert_eq!(report.destinations, 21);
        assert!(report.skipped.is_empty());
        assert!(report.retained <= report.discovered);
        assert_eq!(report.inserted, report.retained);
        let handle = db.collection(PATHS);
        let coll = handle.read();
        assert_eq!(coll.len(), report.retained);

        // Retention: per destination, hops ≤ min + 1.
        for (server_id, _) in destinations(&db).unwrap() {
            let docs = coll.query(Filter::eq("server_id", server_id as i64)).run();
            let hops: Vec<i64> = docs
                .iter()
                .map(|d| d.get("hops").unwrap().as_int().unwrap())
                .collect();
            let min = *hops.iter().min().unwrap();
            assert!(
                hops.iter().all(|h| *h <= min + 1),
                "server {server_id}: {hops:?}"
            );
        }
    }

    #[test]
    fn recollection_is_stable() {
        let (db, net, cfg) = setup();
        let first = collect_paths(&db, &net, &cfg).unwrap();
        let second = collect_paths(&db, &net, &cfg).unwrap();
        assert_eq!(second.inserted, 0, "no new paths on an unchanged network");
        assert_eq!(second.deleted, 0);
        assert_eq!(second.updated, first.retained);
        // Ids are stable across runs.
        let handle = db.collection(PATHS);
        assert_eq!(handle.read().len(), first.retained);
    }

    #[test]
    fn stale_paths_are_deleted() {
        let (db, net, cfg) = setup();
        collect_paths(&db, &net, &cfg).unwrap();
        // Forge a stale path for destination 1 that the network will not
        // rediscover.
        {
            let handle = db.collection(PATHS);
            handle
                .write()
                .insert_one(pathdb::doc! {
                    "_id" => "1_999",
                    "server_id" => 1i64,
                    "path_index" => 999i64,
                    "sequence" => "bogus",
                    "hops" => 3i64,
                })
                .unwrap();
        }
        let report = collect_paths(&db, &net, &cfg).unwrap();
        assert_eq!(report.deleted, 1);
        let handle = db.collection(PATHS);
        assert!(handle.read().find_by_id("1_999").is_none());
    }

    #[test]
    fn retention_rule_is_min_plus_slack() {
        let net = ScionNetwork::scionlab(5);
        let paths = net.paths(MY_AS, AWS_IRELAND, 40);
        let kept = retain_short_paths(&paths, 1);
        let min = paths.iter().map(ScionPath::hop_count).min().unwrap();
        assert!(kept.iter().all(|p| p.hop_count() <= min + 1));
        assert!(kept.len() < paths.len(), "some 8-hop paths must be dropped");
        let all = retain_short_paths(&paths, 99);
        assert_eq!(all.len(), paths.len());
        assert!(retain_short_paths(&[], 1).is_empty());
    }

    #[test]
    fn hop_metadata_collects_countries_and_operators() {
        let net = ScionNetwork::scionlab(5);
        let paths = net.paths(MY_AS, AWS_IRELAND, 1);
        let (countries, operators) = hop_metadata(&net, &paths[0]);
        assert!(countries.contains(&"Switzerland".to_string()));
        assert!(countries.contains(&"Ireland".to_string()));
        assert!(operators.contains(&"AWS".to_string()));
        // Deduplicated.
        let mut c = countries.clone();
        c.dedup();
        assert_eq!(c.len(), countries.len());
    }
}
