//! Persistence integration: campaign data survives a save/load cycle
//! and a resumed campaign appends cleanly (the crash-recovery story of
//! §4.1.2).

use upin::pathdb::Database;
use upin::upin_core::analysis;
use upin::upin_core::schema::{PATHS, PATHS_STATS};
use upin::upin_core::{run_suite, SuiteConfig};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("upin-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quick_cfg() -> SuiteConfig {
    SuiteConfig {
        iterations: 1,
        some_only: true,
        ping_count: 4,
        run_bwtests: false,
        skip_collection: true,
        ..SuiteConfig::default()
    }
}

#[test]
fn save_load_preserves_campaign() {
    let dir = tmpdir("roundtrip");
    let (net, db, _) = upin::standard_setup(201);
    run_suite(&db, &net, &quick_cfg()).unwrap();
    db.save_dir(&dir).unwrap();

    let loaded = Database::load_dir(&dir).unwrap();
    assert_eq!(loaded.collection_names(), db.collection_names());
    for name in db.collection_names() {
        let a = db.collection(&name);
        let b = loaded.collection(&name);
        assert_eq!(a.read().len(), b.read().len(), "{name}");
        // Documents identical, field for field.
        let av: Vec<String> = a
            .read()
            .query_all()
            .run()
            .iter()
            .map(|d| d.to_string())
            .collect();
        let bv: Vec<String> = b
            .read()
            .query_all()
            .run()
            .iter()
            .map(|d| d.to_string())
            .collect();
        assert_eq!(av, bv, "{name}");
    }
    // Analyses run identically on the reloaded database.
    let h1 = analysis::reachability(&db).unwrap();
    let h2 = analysis::reachability(&loaded).unwrap();
    assert_eq!(h1, h2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resumed_campaign_appends_without_clashes() {
    let dir = tmpdir("resume");
    // Session 1: campaign, persist, "crash".
    let (net, db, _) = upin::standard_setup(202);
    run_suite(&db, &net, &quick_cfg()).unwrap();
    let first_stats = db.collection(PATHS_STATS).read().len();
    db.save_dir(&dir).unwrap();
    drop(db);

    // Session 2: reload and continue with `--skip` against a network
    // whose clock has moved on.
    let db = Database::load_dir(&dir).unwrap();
    net.advance_ms(60_000.0);
    run_suite(&db, &net, &quick_cfg()).unwrap();
    let after = db.collection(PATHS_STATS).read().len();
    assert_eq!(
        after,
        2 * first_stats,
        "second round appends the same volume"
    );
    // Ids remain unique (timestamps moved on).
    let coll = db.collection(PATHS_STATS);
    assert_eq!(coll.read().query_all().count(), after);
    // Paths were reused, not duplicated.
    assert_eq!(
        db.collection(PATHS).read().len(),
        Database::load_dir(&dir)
            .unwrap()
            .collection(PATHS)
            .read()
            .len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reloaded_database_serves_recommendations() {
    use upin::upin_core::select::{recommend, Constraints, Objective, UserRequest};
    let dir = tmpdir("select");
    let (net, db, _) = upin::standard_setup(203);
    run_suite(&db, &net, &quick_cfg()).unwrap();
    db.save_dir(&dir).unwrap();

    let loaded = Database::load_dir(&dir).unwrap();
    let server_id = 1; // --some_only measured the first destination
    let recs = recommend(
        &loaded,
        &UserRequest {
            server_id,
            objective: Objective::MinLatency,
            constraints: Constraints::default(),
        },
        3,
    )
    .unwrap();
    assert!(!recs.is_empty());
    assert!(recs[0].aggregate.latency.is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}
