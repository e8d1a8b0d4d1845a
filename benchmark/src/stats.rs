//! Estimators: nearest-rank percentiles, the fastest of repeated work,
//! and the quartiles the acceptance rule is written in.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the data at or below it. `q` in `(0, 1]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median (mean of the two middle samples for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of several repetitions of the same work.
///
/// Interference on a shared box only ever adds time, and it arrives in
/// bursts of a second or a few, so of several runs of identical work
/// the fastest is the one nearest to what the program itself costs; the
/// median sits wherever the bursts happened to fall.
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `(p50, tail)` of the quietest window: `samples` is cut into windows
/// of `window` consecutive samples (each window is the same work), the
/// median and the `tail_q` percentile are taken per window, and each is
/// reported from the window where it is lowest. A trailing partial
/// window is ignored.
pub fn quietest_window(samples: &[f64], window: usize, tail_q: f64) -> (f64, f64) {
    assert!(
        window > 0 && samples.len() >= window,
        "at least one full window"
    );
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for w in samples.chunks_exact(window) {
        let mut w = w.to_vec();
        sort(&mut w);
        p50s.push(percentile_sorted(&w, 0.50));
        tails.push(percentile_sorted(&w, tail_q));
    }
    (fastest(&p50s), fastest(&tails))
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the acceptance spread is defined with.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}
