//! `results/` is the reproduction's headline output: one file per entry
//! of `upin_bench::FIGURES`, as `figures all --seed 42 --iterations 10`
//! renders it. Each file must equal that rendering byte for byte, so a
//! change that moves a figure fails here instead of going unnoticed.

use std::path::PathBuf;

#[test]
fn results_are_what_the_figures_render() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut stale = Vec::new();
    for (name, render) in upin_bench::FIGURES {
        let path = dir.join(format!("{name}.txt"));
        let file = std::fs::read_to_string(&path).unwrap_or_default();
        if file != render(42, 10) {
            stale.push(name);
        }
    }
    assert!(
        stale.is_empty(),
        "results/ differs from the figures for {stale:?}; if the change is meant, regenerate with:\n  \
         cargo run --release -p upin-bench --bin figures -- all --seed 42 --iterations 10 --out results"
    );
}
