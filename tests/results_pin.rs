//! `results/` is the reproduction's headline output: one file per entry
//! of `upin_bench::FIGURES`, as `figures all --seed 42 --iterations 10`
//! renders it. Each file must equal that rendering byte for byte, and
//! every claim the figure makes about its series must hold — except the
//! ones `upin_bench::EXPECTED_FAILURES` lists, which must not. One run of
//! each figure judges both, so a change that moves a figure or breaks a
//! finding of the paper fails here instead of going unnoticed.

use std::path::PathBuf;
use upin_bench::{Figure, EXPECTED_FAILURES, FIGURES};

#[test]
fn results_are_what_the_figures_render() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let (mut stale, mut wrong, mut listed) = (Vec::new(), Vec::new(), Vec::new());
    for (name, render) in FIGURES {
        let Figure { text, claims } = render(42, 10);
        let path = dir.join(format!("{name}.txt"));
        if std::fs::read_to_string(&path).unwrap_or_default() != text {
            stale.push(name);
        }
        for claim in claims {
            let expected = EXPECTED_FAILURES
                .iter()
                .position(|(figure, text, _)| *figure == name && *text == claim.text);
            listed.extend(expected);
            match (claim.holds, expected) {
                (false, None) => wrong.push(format!("{name}: does not hold: {}", claim.text)),
                (true, Some(_)) => wrong.push(format!(
                    "{name}: holds, but is listed as an expected failure: {}",
                    claim.text
                )),
                _ => {}
            }
        }
    }
    for (i, (figure, text, _)) in EXPECTED_FAILURES.iter().enumerate() {
        if !listed.contains(&i) {
            wrong.push(format!(
                "{figure}: no such claim to expect a failure of: {text}"
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "results/ differs from the figures for {stale:?}; if the change is meant, regenerate with:\n  \
         cargo run --release -p upin-bench --bin figures -- all --seed 42 --iterations 10 --out results"
    );
    assert!(
        wrong.is_empty(),
        "the paper's claims at seed 42: {wrong:#?}"
    );
}
