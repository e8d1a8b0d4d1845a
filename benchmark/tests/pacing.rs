//! The reader-paced writer performs exactly ceil(requests / 500) laps,
//! however the two threads are scheduled.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use upin_benchmark::pacing::{run_paced_writer, Pacer};

fn laps_for(requests: u64, slow_writer: bool) -> u64 {
    let pacer = Pacer::new(500);
    let start = Barrier::new(2);
    let ran = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            start.wait();
            run_paced_writer(&pacer, |_| {
                if slow_writer {
                    // Falls behind the reader; must catch up afterwards.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        });
        start.wait();
        for _ in 0..requests {
            pacer.request_issued();
        }
        pacer.finish();
        let laps = writer.join().expect("writer panicked");
        assert_eq!(laps, ran.load(Ordering::Relaxed));
        laps
    })
}

#[test]
fn laps_are_the_ceiling_of_requests_over_500() {
    for (requests, laps) in [
        (0, 0),
        (1, 1),
        (499, 1),
        (500, 1),
        (501, 2),
        (1200, 3),
        (60_000, 120),
    ] {
        assert_eq!(laps_for(requests, false), laps, "{requests} requests");
    }
}

#[test]
fn a_writer_that_falls_behind_still_runs_every_released_lap() {
    assert_eq!(laps_for(5_000, true), 10);
    assert_eq!(laps_for(5_001, true), 11);
}
