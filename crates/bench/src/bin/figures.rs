//! Regenerate every figure of the paper as text series.
//!
//! ```text
//! figures [NAME...|all] [--seed N] [--iterations N] [--out DIR]
//! ```
//!
//! `NAME` is an entry of `upin_bench::FIGURES` (the usage line lists
//! them). Each figure's text goes to stdout, and each of its claims to
//! stderr with whether it holds; pass `--out <dir>` to also write one
//! `<figure>.txt` per figure (the inputs to EXPERIMENTS.md).

use scion_tools::args::Spec;
use std::io::Write;
use upin_bench::FIGURES;

fn main() {
    let spec = Spec::new(0, usize::MAX)
        .value("seed")
        .value("iterations")
        .value("out");
    let p = spec.parse(std::env::args().skip(1)).unwrap_or_else(usage);
    let seed: u64 = p.get_or("seed", 42).unwrap_or_else(usage);
    let iterations: u32 = p.get_or("iterations", 10).unwrap_or_else(usage);
    let mut which: Vec<&str> = p.positional.iter().map(String::as_str).collect();
    if which.is_empty() || which.contains(&"all") {
        which = FIGURES.iter().map(|(name, _)| *name).collect();
    }
    let figures: Vec<_> = which
        .iter()
        .map(|w| match FIGURES.iter().find(|(name, _)| name == w) {
            Some(figure) => figure,
            None => usage(format!("unknown figure {w:?}")),
        })
        .collect();

    for (name, render) in figures {
        let figure = render(seed, iterations);
        println!("{}", figure.text);
        for claim in &figure.claims {
            let verdict = if claim.holds { "holds" } else { "FAILS" };
            eprintln!("{name}: {verdict}: {}", claim.text);
        }
        if let Some(dir) = p.opt("out") {
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = format!("{dir}/{name}.txt");
            let mut f = std::fs::File::create(&path).expect("create figure file");
            f.write_all(figure.text.as_bytes())
                .expect("write figure file");
        }
    }
}

fn usage<T>(error: String) -> T {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    eprintln!("{error}");
    eprintln!(
        "usage: figures [{}|all] [--seed N] [--iterations N] [--out DIR]",
        names.join("|")
    );
    std::process::exit(2);
}
