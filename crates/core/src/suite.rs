//! The test-suite wrapper: the `test_suite.sh` entry point (§5.1).
//!
//! Chains the collection stage (unless `--skip`) with the measurement
//! stage and reports combined statistics. This is the unit the paper's
//! user invokes: `./test_suite.sh 100 --skip`.

use crate::collect::{collect_paths, register_available_servers, CollectReport};
use crate::config::SuiteConfig;
use crate::error::SuiteResult;
use crate::measure::{run_tests, MeasureReport};
use pathdb::Database;
use scion_sim::net::ScionNetwork;

/// Combined outcome of one suite run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SuiteReport {
    /// `None` when collection was skipped.
    pub collection: Option<CollectReport>,
    pub measurement: MeasureReport,
}

impl SuiteReport {
    /// Human-readable summary (what the wrapper prints on exit).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.collection {
            Some(c) => out.push_str(&format!(
                "collection: {} destinations, {} discovered, {} retained, {} inserted, {} deleted, {} skipped\n",
                c.destinations, c.discovered, c.retained, c.inserted, c.deleted, c.skipped.len()
            )),
            None => out.push_str("collection: skipped (--skip)\n"),
        }
        let m = &self.measurement;
        out.push_str(&format!(
            "measurement: {} iterations x {} destinations, {} samples stored, {} errors\n",
            m.iterations, m.destinations, m.inserted, m.errors
        ));
        if m.retries > 0 || m.skipped > 0 {
            out.push_str(&format!(
                "runner: {} retries, {} path measurements skipped by the circuit breaker\n",
                m.retries, m.skipped
            ));
        }
        if !m.tripped.is_empty() {
            let ids: Vec<String> = m.tripped.iter().map(u32::to_string).collect();
            out.push_str(&format!(
                "breaker tripped: destinations {}\n",
                ids.join(", ")
            ));
        }
        out
    }
}

/// The test-suite: a network handle, a database and a configuration.
pub struct TestSuite<'a> {
    net: &'a ScionNetwork,
    db: &'a Database,
    cfg: SuiteConfig,
}

impl<'a> TestSuite<'a> {
    pub fn new(net: &'a ScionNetwork, db: &'a Database, cfg: SuiteConfig) -> TestSuite<'a> {
        TestSuite { net, db, cfg }
    }

    /// Ensure `availableServers` is populated (first-run bootstrap).
    pub fn bootstrap(&self) -> SuiteResult<usize> {
        register_available_servers(self.db, self.net)
    }

    /// Run the whole suite: collect (unless skipped), then measure.
    /// On a durable database the campaign's results are checkpointed
    /// before returning, truncating the WAL the measurements landed in.
    pub fn run(&self) -> SuiteResult<SuiteReport> {
        let collection = if self.cfg.skip_collection {
            None
        } else {
            Some(collect_paths(self.db, self.net, &self.cfg)?)
        };
        let measurement = run_tests(self.db, self.net, &self.cfg)?;
        self.db.checkpoint_if_durable()?;
        Ok(SuiteReport {
            collection,
            measurement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{PATHS, PATHS_STATS};

    fn quick() -> SuiteConfig {
        SuiteConfig {
            some_only: true,
            ping_count: 3,
            run_bwtests: false,
            ..SuiteConfig::default()
        }
    }

    #[test]
    fn full_run_collects_and_measures() {
        let net = ScionNetwork::scionlab(13);
        let db = Database::new();
        let suite = TestSuite::new(&net, &db, quick());
        assert_eq!(suite.bootstrap().unwrap(), 21);
        let report = suite.run().unwrap();
        assert!(report.collection.is_some());
        assert!(report.measurement.inserted > 0);
        let text = report.render();
        assert!(text.contains("collection:"), "{text}");
        assert!(text.contains("measurement:"), "{text}");
    }

    #[test]
    fn skip_reuses_stored_paths() {
        let net = ScionNetwork::scionlab(13);
        let db = Database::new();
        let suite = TestSuite::new(&net, &db, quick());
        suite.bootstrap().unwrap();
        suite.run().unwrap();
        let paths_before = db.collection(PATHS).read().len();
        let stats_before = db.collection(PATHS_STATS).read().len();

        let skipping = TestSuite::new(
            &net,
            &db,
            SuiteConfig {
                skip_collection: true,
                ..quick()
            },
        );
        let report = skipping.run().unwrap();
        assert!(report.collection.is_none());
        assert!(report.render().contains("skipped (--skip)"));
        assert_eq!(db.collection(PATHS).read().len(), paths_before);
        assert!(db.collection(PATHS_STATS).read().len() > stats_before);
        // No duplicate-id clashes on append.
        let handle = db.collection(PATHS_STATS);
        let coll = handle.read();
        assert_eq!(coll.query_all().count(), coll.len());
    }
}
