//! `BENCHMARK.json` names what the harness reports, within the limits
//! the driver's contract sets.

use serde_json::Value;
use upin_benchmark::schema::{
    result_line, MetricDef, Values, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_metrics(listed: &Value, defs: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().expect("metric list");
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        let obj = entry.as_object().unwrap();
        assert_eq!(entry["name"].as_str(), Some(def.name));
        assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
        assert_eq!(
            entry["better"].as_str(),
            Some(def.better.as_str()),
            "{}",
            def.name
        );
        assert!(valid_name(def.name), "{}", def.name);
        assert!(valid_unit(def.unit), "{}", def.unit);
        if bounded {
            assert_eq!(obj.len(), 4);
            let bound = entry["bound"].as_f64().unwrap();
            // Calibration may only widen a bound, up to the ceiling.
            assert!(bound >= def.bound && bound <= 0.25, "{}: {bound}", def.name);
        } else {
            assert_eq!(obj.len(), 3);
        }
    }
}

#[test]
fn manifest_matches_the_schema() {
    let m = manifest();
    let keys: Vec<&str> = m.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(m["run_seconds"].as_i64(), Some(RUN_SECONDS as i64));
    assert_eq!(m["paths"].as_array().unwrap().len(), 1);
    assert_eq!(m["paths"][0].as_str(), Some("benchmark"));
    let workloads = m["workloads"].as_array().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(entry["name"].as_str(), Some(name));
        assert_eq!(entry["why"].as_str(), Some(why));
        assert!(
            valid_name(name) && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
    check_metrics(&m["end_to_end"], &END_TO_END, true);
    check_metrics(&m["per_layer"], PER_LAYER, false);
    assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s" && d.better.as_str() == "lower"));
    let command = m["command"].as_array().unwrap();
    assert!(command.len() <= 32);
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}

#[test]
fn metric_names_are_used_once() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|d| d.name)
        .chain(WORKLOADS.iter().map(|(n, _)| *n))
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut values = Values::new();
    values.insert("setup_s", 0.8127);
    values.insert("ops_per_s", f64::NAN); // never leaks into the JSON
    let line = result_line(&END_TO_END, &values, true, 0, 0);
    assert!(!line.contains('\n'));
    let v: Value = serde_json::from_str(&line).unwrap();
    let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v["attempted"].as_i64(), Some(1), "attempted is at least 1");
    let metrics = v["metrics"].as_object().unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
    assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
    assert_eq!(v["metrics"]["ops_per_s"]["value"].as_f64(), Some(0.0));
}
