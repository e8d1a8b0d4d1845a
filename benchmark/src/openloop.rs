//! Open-loop request generator: requests are due on a fixed schedule
//! whatever the service does, and each is timed from its *due* time.
//!
//! A closed loop hides stalls — while the service is stuck the client
//! sends nothing, so only one request sees the delay (coordinated
//! omission). Here a stall delays every request that fell due during
//! it, and each of them is charged the wait.

use std::time::Instant;

/// The generator's view of time; the self-tests drive a fake one.
pub trait Clock {
    fn now_ns(&mut self) -> u64;
    /// Return once `now_ns() >= deadline_ns`; returns the idle time, ns.
    fn wait_until(&mut self, deadline_ns: u64) -> u64;
}

/// Wall clock that spins to the deadline (two cores, two threads: the
/// generator owns its core, and sleeping would make it late).
pub struct SpinClock(Instant);

impl SpinClock {
    pub fn start() -> SpinClock {
        SpinClock(Instant::now())
    }
}

impl Clock for SpinClock {
    fn now_ns(&mut self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&mut self, deadline_ns: u64) -> u64 {
        let from = self.now_ns();
        let mut now = from;
        while now < deadline_ns {
            std::hint::spin_loop();
            now = self.now_ns();
        }
        now - from
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenLoopOutcome {
    /// Completion minus due time of each request, ns, in issue order.
    pub latency_ns: Vec<u64>,
    /// Requests whose send was already late when the generator reached
    /// them (the previous request finished after this one's due time).
    pub late_sends: u64,
    /// Time the generator idled waiting for due times, ns.
    pub idle_ns: u64,
    /// First due time to last completion, ns.
    pub wall_ns: u64,
}

impl OpenLoopOutcome {
    pub fn generator_late_share(&self) -> f64 {
        self.late_sends as f64 / self.latency_ns.len().max(1) as f64
    }

    /// Share of requests answered later than `limit_ns` after due.
    pub fn miss_share(&self, limit_ns: u64) -> f64 {
        let missed = self.latency_ns.iter().filter(|&&l| l > limit_ns).count();
        missed as f64 / self.latency_ns.len().max(1) as f64
    }
}

/// Issue `n` requests, request `i` due at `i * period_ns`; `serve(i)`
/// runs the request to completion.
pub fn run_open_loop(
    clock: &mut impl Clock,
    n: usize,
    period_ns: u64,
    mut serve: impl FnMut(usize),
) -> OpenLoopOutcome {
    let mut out = OpenLoopOutcome {
        latency_ns: Vec::with_capacity(n),
        ..OpenLoopOutcome::default()
    };
    let origin = clock.now_ns();
    for i in 0..n {
        let due = origin + i as u64 * period_ns;
        if clock.now_ns() > due {
            out.late_sends += 1;
        } else {
            out.idle_ns += clock.wait_until(due);
        }
        serve(i);
        out.latency_ns.push(clock.now_ns() - due);
    }
    out.wall_ns = clock.now_ns() - origin;
    out
}
