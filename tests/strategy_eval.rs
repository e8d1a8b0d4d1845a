//! End-to-end axiom harness: a recorded campaign evaluated by every
//! registered strategy, with the determinism contract the scorecard
//! depends on — same seed means byte-identical results.

use upin::pathdb::Database;
use upin::scion_sim::net::ScionNetwork;
use upin::standard_setup;
use upin::upin_core::axioms::{evaluate_strategies, load_scorecards, store_scorecards, EvalConfig};
use upin::upin_core::report::render_strategies;
use upin::upin_core::{run_suite, SuiteConfig};

/// A measured database + network at `seed`.
fn campaign(seed: u64) -> (ScionNetwork, Database) {
    let (net, db, _) = standard_setup(seed);
    let cfg = SuiteConfig {
        iterations: 1,
        ping_count: 3,
        run_bwtests: true,
        some_only: true,
        skip_collection: true,
        ..SuiteConfig::default()
    };
    run_suite(&db, &net, &cfg).unwrap();
    (net, db)
}

fn eval_cfg() -> EvalConfig {
    EvalConfig {
        epochs: 4,
        seed: 42,
        ..EvalConfig::default()
    }
}

#[test]
fn harness_ranks_the_full_registry_deterministically() {
    let (net, db) = campaign(42);
    let local = upin::scion_sim::topology::scionlab::MY_AS;

    let cards = evaluate_strategies(&db, &net, local, &eval_cfg()).unwrap();
    assert!(
        cards.len() >= 7,
        "expected >= 7 ranked strategies, got {}",
        cards.len()
    );
    // Best-first by combined score.
    for w in cards.windows(2) {
        assert!(w[0].combined >= w[1].combined, "{cards:?}");
    }
    // The measured destinations gave every strategy something to rank.
    assert!(
        cards.iter().all(|c| c.answered > 0 || c.failures > 0),
        "{cards:?}"
    );
    let paper = cards.iter().find(|c| c.strategy == "paper").unwrap();
    assert!(paper.answered > 0, "paper answered nothing: {paper:?}");
    assert!(
        paper.pareto_efficiency.is_some() && paper.stability.is_some(),
        "axioms unscored for paper: {paper:?}"
    );

    // Same seed, fresh campaign → byte-identical scorecard.
    let (net2, db2) = campaign(42);
    let again = evaluate_strategies(&db2, &net2, local, &eval_cfg()).unwrap();
    assert_eq!(format!("{cards:?}"), format!("{again:?}"));
}

#[test]
fn scorecards_persist_and_render() {
    let (net, db) = campaign(7);
    let local = upin::scion_sim::topology::scionlab::MY_AS;
    let cfg = eval_cfg();
    let cards = evaluate_strategies(&db, &net, local, &cfg).unwrap();
    store_scorecards(&db, &cards, &cfg).unwrap();

    // The stored docs round-trip in rank order (float fields survive
    // the 6-decimal persistence rounding bit-for-bit on reload).
    let loaded = load_scorecards(&db).unwrap();
    assert_eq!(loaded.len(), cards.len());
    let order: Vec<&str> = loaded.iter().map(|c| c.strategy.as_str()).collect();
    let expect: Vec<&str> = cards.iter().map(|c| c.strategy.as_str()).collect();
    assert_eq!(order, expect);
    let reloaded = load_scorecards(&db).unwrap();
    assert_eq!(format!("{loaded:?}"), format!("{reloaded:?}"));

    // The report table carries one row per strategy.
    let table = render_strategies(&loaded);
    assert!(table.contains("Strategy scorecard"), "{table}");
    for c in &loaded {
        assert!(table.contains(c.strategy.as_str()), "{table}");
    }

    // Liveness perturbation epochs matter: with a single epoch there
    // are no transitions, so stability is unscored rather than invented.
    let one_epoch = EvalConfig {
        epochs: 1,
        ..eval_cfg()
    };
    let cards1 = evaluate_strategies(&db, &net, local, &one_epoch).unwrap();
    assert!(
        cards1
            .iter()
            .filter(|c| c.answered > 0)
            .all(|c| c.stability.is_none()),
        "{cards1:?}"
    );
}
