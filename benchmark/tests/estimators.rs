//! Percentile, fastest-repetition, quietest-window and quartile
//! estimators.

use upin_benchmark::stats::{
    fastest, iqr_share, median, percentile_sorted, quartiles, quietest_window,
};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile_sorted(&v, 0.50), 50.0);
    assert_eq!(percentile_sorted(&v, 0.99), 99.0);
    assert_eq!(percentile_sorted(&v, 1.0), 100.0);
    // Small samples: the percentile is always an observed value.
    assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0], 0.5), 2.0);
    assert_eq!(percentile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn disturbed_repetitions_do_not_move_the_fastest() {
    let steady = [1.0, 1.0, 1.0, 1.0, 1.0];
    let disturbed = [1.0, 1.4, 10.0, 1.3, 1.0];
    assert_eq!(fastest(&steady), 1.0);
    assert_eq!(fastest(&disturbed), 1.0);
    // The median would have read 1.3, the mean 2.94.
    assert_eq!(median(&disturbed), 1.3);
    // A slowdown of the work itself moves it in full.
    assert_eq!(fastest(&[1.2, 1.7, 1.2]), 1.2);
}

#[test]
fn quietest_window_takes_each_statistic_from_its_lowest_window() {
    // Three windows of four samples; the middle one is disturbed.
    let samples = [
        1.0, 2.0, 3.0, 9.0, // p50 2, max 9
        5.0, 6.0, 7.0, 8.0, // p50 6, max 8
        2.0, 2.0, 4.0, 10.0, // p50 2, max 10
        99.0, // partial window: ignored
    ];
    assert_eq!(quietest_window(&samples, 4, 1.0), (2.0, 8.0));
    // A stall present in every window stays in the tail.
    let stalls = [1.0, 1.0, 50.0, 1.0, 1.0, 60.0];
    assert_eq!(quietest_window(&stalls, 3, 1.0), (1.0, 50.0));
    // One window: the plain percentiles.
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(quietest_window(&v, 100, 0.99), (50.0, 99.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
    assert_eq!(
        quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
        (15.0, 40.0, 120.0)
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    assert_eq!(iqr_share(&v), (8.25 - 2.75) / 5.5);
}
