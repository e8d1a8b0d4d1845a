//! Reader-paced writer: the amount of write work is a function of the
//! number of requests issued, never of how fast the scheduler lets the
//! writer thread run.
//!
//! Lap `k` (0-based) is released once request `k * per_lap + 1` has
//! been issued, so `n` requests release exactly `ceil(n / per_lap)`
//! laps, and the writer finishes the laps already released after the
//! reader stops.

use std::sync::{Condvar, Mutex};

#[derive(Default)]
struct State {
    issued: u64,
    reader_done: bool,
}

/// The writer sleeps on a condition variable between laps and is woken
/// once per released lap. (It used to poll a counter every 50 us; on a
/// virtual machine each of those 20 000 wake-ups a second is an exit to
/// the host on the writer's processor, which showed in the reader's
/// latencies.)
pub struct Pacer {
    per_lap: u64,
    state: Mutex<State>,
    released: Condvar,
}

impl Pacer {
    pub fn new(per_lap: u64) -> Pacer {
        assert!(per_lap > 0);
        Pacer {
            per_lap,
            state: Mutex::default(),
            released: Condvar::new(),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics while holding the pacer")
    }

    /// Reader side: one more request has been issued.
    pub fn request_issued(&self) {
        let mut state = self.state();
        state.issued += 1;
        // The first request of a lap's worth releases that lap.
        if state.issued % self.per_lap == 1 % self.per_lap {
            self.released.notify_one();
        }
    }

    /// Reader side: no more requests will be issued.
    pub fn finish(&self) {
        self.state().reader_done = true;
        self.released.notify_all();
    }

    /// Writer side: block until lap `lap` is released (`true`) or the
    /// reader finished without releasing it (`false`).
    pub fn lap_released(&self, lap: u64) -> bool {
        let mut state = self.state();
        loop {
            if state.issued.div_ceil(self.per_lap) > lap {
                return true;
            }
            if state.reader_done {
                return false;
            }
            state = self
                .released
                .wait(state)
                .expect("no thread panics while holding the pacer");
        }
    }
}

/// Drive `lap(k)` for every released lap; returns how many ran.
pub fn run_paced_writer(pacer: &Pacer, mut lap: impl FnMut(u64)) -> u64 {
    let mut k = 0;
    while pacer.lap_released(k) {
        lap(k);
        k += 1;
    }
    k
}
