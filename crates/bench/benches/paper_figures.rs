//! Figs. 4–9 of the paper, timed end to end (network → campaign →
//! database → analysis → rendering), each as its `upin_bench::FIGURES`
//! entry at seed 42 and 3 iterations. Whether they still show what the
//! paper reports is the root test `results_pin`'s job, at the documented
//! seed 42 and 10 iterations.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper_figures");
    g.sample_size(10);
    for (name, figure) in upin_bench::FIGURES
        .iter()
        .filter(|(n, _)| n.starts_with("fig"))
    {
        g.bench_function(*name, |b| b.iter(|| figure(black_box(42), 3)));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
