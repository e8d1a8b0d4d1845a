//! Byte pin of every ranking spelling the service answers.
//!
//! Each line of `REQUESTS` goes through `upin serve --requests` (the
//! `dispatch_json` line codec) against the seed-42 `campaign 1
//! --some-only` database, and must answer exactly the corresponding line
//! of `tests/fixtures/ranking_pin.jsonl`. The fixture was recorded from
//! the binary before ranking became one `select` function: ranked
//! recommends under all five objectives, constrained, weighted and
//! Pareto recommends, `StrategyScore` under every registry name, the
//! failure classes each of them answers, and the constraint funnel.

const REQUESTS: &[&str] = &[
    // Ranked, one line per objective.
    r#"{"Recommend":{"destination":"1","objective":"MinLatency","k":3}}"#,
    r#"{"Recommend":{"destination":"1","objective":"MinJitter","k":3}}"#,
    r#"{"Recommend":{"destination":"1","objective":"MinLoss","k":3}}"#,
    r#"{"Recommend":{"destination":"1","objective":"MaxBandwidthDown","k":3}}"#,
    r#"{"Recommend":{"destination":"1","objective":"MaxBandwidthUp","k":3}}"#,
    r#"{"Recommend":{"destination":"1","k":100}}"#,
    // Constrained: exclusions, gates, and the failure classes.
    r#"{"Recommend":{"destination":"1","constraints":{"exclude_countries":["Singapore","United States"],"max_hops":7},"k":5}}"#,
    r#"{"Recommend":{"destination":"1","objective":"MinJitter","constraints":{"exclude_isds":[18],"max_loss_pct":1.0},"k":10}}"#,
    r#"{"Recommend":{"destination":"1","constraints":{"min_samples":2},"k":3}}"#,
    r#"{"Recommend":{"destination":"1","constraints":{"exclude_countries":["Switzerland"]},"k":3}}"#,
    r#"{"Recommend":{"destination":"2","objective":"MinLatency","k":3}}"#,
    r#"{"Recommend":{"destination":"1","k":0}}"#,
    // Weighted.
    r#"{"Recommend":{"destination":"1","k":3,"weights":{"latency":5,"loss":1}}}"#,
    r#"{"Recommend":{"destination":"1","k":3,"weights":{"latency":1,"jitter":0.5,"loss":1}}}"#,
    r#"{"Recommend":{"destination":"1","constraints":{"exclude_countries":["Singapore"]},"k":20,"weights":{"bw_down":1,"bw_up":2}}}"#,
    r#"{"Recommend":{"destination":"1","k":3,"weights":{}}}"#,
    r#"{"Recommend":{"destination":"2","k":3,"weights":{"latency":1}}}"#,
    // Pareto: the whole menu, whatever k says.
    r#"{"Recommend":{"destination":"1","k":3,"pareto":true}}"#,
    r#"{"Recommend":{"destination":"1","constraints":{"exclude_countries":["Singapore"]},"k":1,"pareto":true}}"#,
    r#"{"Recommend":{"destination":"2","k":3,"pareto":true}}"#,
    // Every registry name, `random` with an explicit seed.
    r#"{"StrategyScore":{"destination":"1","strategy":"paper","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"shortest-path","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"widest-path","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"lowest-latency","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"lowest-jitter","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"lowest-loss","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"random","k":3,"seed":7}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"scion-default","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"random","k":100}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"paper","objective":"MaxBandwidthDown","constraints":{"max_hops":7,"max_loss_pct":2.0},"k":4}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"widest-path","constraints":{"exclude_countries":["Singapore"]},"k":100}}"#,
    r#"{"StrategyScore":{"destination":"2","strategy":"lowest-latency","k":3}}"#,
    r#"{"StrategyScore":{"destination":"2","strategy":"scion-default","k":2}}"#,
    r#"{"StrategyScore":{"destination":"2","strategy":"random","k":2,"seed":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"lowest-loss","constraints":{"exclude_countries":["Switzerland"]},"k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"no-such","k":3}}"#,
    r#"{"StrategyScore":{"destination":"1","strategy":"random","k":0,"seed":7}}"#,
    // The funnel the rankings above walk through.
    r#"{"EvaluateConstraint":{"destination":"1"}}"#,
    r#"{"EvaluateConstraint":{"destination":"1","objective":"MaxBandwidthUp","constraints":{"max_loss_pct":0.5}}}"#,
    r#"{"EvaluateConstraint":{"destination":"1","constraints":{"min_samples":2}}}"#,
    r#"{"EvaluateConstraint":{"destination":"1","constraints":{"exclude_countries":["Switzerland"]}}}"#,
    r#"{"EvaluateConstraint":{"destination":"2","objective":"MinJitter"}}"#,
];

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    upin_cli::run(&argv).unwrap_or_else(|e| panic!("upin {args:?}: {e}"))
}

#[test]
fn every_ranking_spelling_answers_its_recorded_bytes() {
    let dir = std::env::temp_dir().join(format!("upin-ranking-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.to_str().unwrap();
    run(&["campaign", "1", "--some-only", "--seed", "42", "--db", db]);
    let requests = dir.join("requests.jsonl");
    std::fs::write(&requests, REQUESTS.join("\n") + "\n").unwrap();
    let answers = run(&[
        "serve",
        "--db",
        db,
        "--seed",
        "42",
        "--requests",
        requests.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&dir).unwrap();

    let expected: Vec<&str> = include_str!("fixtures/ranking_pin.jsonl").lines().collect();
    let answers: Vec<&str> = answers.lines().collect();
    assert_eq!(answers.len(), REQUESTS.len());
    assert_eq!(expected.len(), REQUESTS.len());
    for ((request, want), have) in REQUESTS.iter().zip(&expected).zip(&answers) {
        assert_eq!(have, want, "answer to {request}");
    }
}
