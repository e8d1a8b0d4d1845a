//! Longitudinal dataset export: the campaign's durable artifacts as
//! flat, diffable files.
//!
//! A usability study wants its measurement history analyzable outside
//! the suite (spreadsheets, notebooks); after a longitudinal run the
//! raw rows are mostly expired, so the export is built from what
//! survives — the hourly rollups, the path inventory and the churn
//! analytics. Every file is rendered deterministically (sorted rows,
//! shortest-round-trip float formatting), so two same-seed runs export
//! byte-identical datasets — CI diffs them directly.

use crate::churn::analyze;
use crate::error::SuiteResult;
use crate::schema::{parse_path_spec, stats_rollup, PATHS};
use pathdb::rollup::read_rollup;
use pathdb::{Database, Value};
use std::fmt::Write;

/// One exported file: name plus full contents.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetFile {
    pub name: String,
    pub contents: String,
}

/// Render a rollup group value as a CSV cell.
fn cell(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f:?}"),
        Value::Bool(b) => b.to_string(),
        Value::Null => String::new(),
        other => other.to_string(),
    }
}

/// `rollups.csv`: one row per `(group, bucket, field)` aggregate.
fn rollups_csv(db: &Database) -> String {
    let cfg = stats_rollup();
    let mut out =
        String::from("server_id,path_id,bucket_start_ms,field,n,sum,min,max,mean,p50,p99\n");
    for agg in read_rollup(db, &cfg) {
        let group: Vec<String> = agg.group.iter().map(cell).collect();
        let group = group.join(",");
        for (name, f) in &agg.fields {
            let _ = writeln!(
                out,
                "{group},{},{name},{},{:?},{:?},{:?},{:?},{:?},{:?}",
                agg.bucket_start_ms,
                f.n,
                f.sum,
                f.min,
                f.max,
                f.mean(),
                f.p50(),
                f.p99(),
            );
        }
    }
    out
}

/// `paths.csv`: the discovered path inventory, sorted by id.
fn paths_csv(db: &Database) -> SuiteResult<String> {
    let handle = db.collection(PATHS);
    let coll = handle.read();
    let mut specs = Vec::new();
    for doc in coll.iter() {
        specs.push(parse_path_spec(doc)?);
    }
    specs.sort_by_key(|s| s.id);
    let mut out = String::from("path_id,server_id,hops,isds,sequence\n");
    for s in specs {
        let isds: Vec<String> = s.isds.iter().map(u16::to_string).collect();
        let _ = writeln!(
            out,
            "{},{},{},{},\"{}\"",
            s.id,
            s.id.server_id,
            s.hops,
            isds.join(";"),
            s.sequence
        );
    }
    Ok(out)
}

/// Build the full dataset in memory. The caller (CLI `export dataset`)
/// writes the files; keeping the render side-effect-free is what makes
/// it unit-testable and byte-deterministic.
pub fn dataset_files(db: &Database) -> SuiteResult<Vec<DatasetFile>> {
    let cfg = stats_rollup();
    let churn = analyze(&read_rollup(db, &cfg), cfg.bucket_ms);
    let mut files = vec![
        DatasetFile {
            name: "rollups.csv".into(),
            contents: rollups_csv(db),
        },
        DatasetFile {
            name: "paths.csv".into(),
            contents: paths_csv(db)?,
        },
        DatasetFile {
            name: "churn.json".into(),
            contents: churn.to_json_string(),
        },
    ];
    let mut manifest = String::from("{\n  \"files\": [\n");
    for (i, f) in files.iter().enumerate() {
        let rows = f.contents.lines().count().saturating_sub(1);
        let comma = if i + 1 < files.len() { "," } else { "" };
        let _ = writeln!(
            manifest,
            "    {{\"name\": \"{}\", \"bytes\": {}, \"rows\": {}}}{comma}",
            f.name,
            f.contents.len(),
            rows
        );
    }
    manifest.push_str("  ]\n}\n");
    files.push(DatasetFile {
        name: "manifest.json".into(),
        contents: manifest,
    });
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::{collect_paths, register_available_servers};
    use crate::config::SuiteConfig;
    use crate::longitudinal::{run_longitudinal, LongitudinalConfig};
    use scion_sim::net::ScionNetwork;

    fn populated() -> Database {
        let db = Database::new();
        let net = ScionNetwork::scionlab(33);
        register_available_servers(&db, &net).unwrap();
        let campaign = SuiteConfig {
            iterations: 1,
            some_only: true,
            ping_count: 3,
            run_bwtests: false,
            skip_collection: true,
            ..SuiteConfig::default()
        };
        collect_paths(&db, &net, &campaign).unwrap();
        let cfg = LongitudinalConfig {
            campaign,
            sim_days: 1,
            rounds_per_day: 2,
            retention_hours: 24.0,
            schedule: None,
            disk_probe_day: 1,
        };
        run_longitudinal(&db, &net, &cfg).unwrap();
        db
    }

    #[test]
    fn export_contains_the_four_files_with_data() {
        let db = populated();
        let files = dataset_files(&db).unwrap();
        let names: Vec<&str> = files.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["rollups.csv", "paths.csv", "churn.json", "manifest.json"]
        );
        let rollups = &files[0].contents;
        assert!(rollups.starts_with("server_id,path_id,bucket_start_ms"));
        assert!(rollups.lines().count() > 1, "rollup rows exported");
        assert!(files[1].contents.lines().count() > 1, "path rows exported");
        assert!(files[2].contents.contains("\"tracked_paths\""));
        assert!(files[3].contents.contains("\"rollups.csv\""));
    }

    #[test]
    fn export_is_byte_deterministic() {
        let a = dataset_files(&populated()).unwrap();
        let b = dataset_files(&populated()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_database_exports_headers_only() {
        let files = dataset_files(&Database::new()).unwrap();
        assert_eq!(files[0].contents.lines().count(), 1);
        assert_eq!(files[1].contents.lines().count(), 1);
        assert!(files[3].contents.contains("\"rows\": 0"));
    }
}
