//! Regenerate every figure of the paper as text series.
//!
//! ```text
//! figures [fig4|fig5|fig6|fig7|fig8|fig9|summary|all] [--seed N] [--iterations N]
//! ```
//!
//! Output goes to stdout; pass `--out <dir>` to also write one
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
        let text = render(seed, iterations);
        println!("{text}");
        if let Some(dir) = p.opt("out") {
            std::fs::create_dir_all(dir).expect("create output dir");
            let path = format!("{dir}/{name}.txt");
            let mut f = std::fs::File::create(&path).expect("create figure file");
            f.write_all(text.as_bytes()).expect("write figure file");
        }
    }
}

fn usage<T>(error: String) -> T {
    eprintln!("{error}");
    eprintln!(
        "usage: figures [fig4|fig5|fig6|fig7|fig8|fig9|summary|all] [--seed N] [--iterations N] [--out DIR]"
    );
    std::process::exit(2);
}
