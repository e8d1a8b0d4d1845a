//! The open-loop scheduler charges a stall to every request that fell
//! due during it, and reports how late the generator ran.

use std::cell::Cell;
use std::rc::Rc;
use upin_benchmark::openloop::{run_open_loop, Clock};

/// A clock the test drives: waiting jumps to the deadline, serving
/// advances it by the service time.
#[derive(Clone)]
struct FakeClock(Rc<Cell<u64>>);

impl Clock for FakeClock {
    fn now_ns(&mut self) -> u64 {
        self.0.get()
    }

    fn wait_until(&mut self, deadline_ns: u64) -> u64 {
        let idle = deadline_ns.saturating_sub(self.0.get());
        self.0.set(self.0.get() + idle);
        idle
    }
}

const MS: u64 = 1_000_000;
const PERIOD: u64 = MS; // one request per millisecond
const SERVICE: u64 = 100_000; // 0.1 ms each

#[test]
fn an_injected_stall_is_charged_to_the_requests_due_during_it() {
    let now = Rc::new(Cell::new(0u64));
    let mut clock = FakeClock(now.clone());
    let out = run_open_loop(&mut clock, 200, PERIOD, |i| {
        // Request 20 hits a 50 ms stall.
        let cost = if i == 20 { 50 * MS } else { SERVICE };
        now.set(now.get() + cost);
    });

    // Before the stall: each request is served on time.
    for i in 0..20 {
        assert_eq!(out.latency_ns[i], SERVICE, "request {i}");
    }
    assert_eq!(out.latency_ns[20], 50 * MS);
    // Request 21 was due at 21 ms but could only start at 70 ms: it is
    // charged the 49 ms it waited plus its own service time. A closed
    // loop would have reported 0.1 ms for it.
    assert_eq!(out.latency_ns[21], 49 * MS + SERVICE);
    assert_eq!(out.latency_ns[22], 48 * MS + 2 * SERVICE);
    // The backlog drains at 0.9 ms per request: request 20 + k waits
    // 50 - k + 0.1 k ms, so the queue is gone after ~55 requests.
    let late: Vec<usize> = (0..200).filter(|&i| out.latency_ns[i] > SERVICE).collect();
    assert_eq!(late.first(), Some(&20));
    assert_eq!(late.last(), Some(&75));
    assert_eq!(late.len(), 56);
    // Every request after the stall whose send was already late.
    assert_eq!(out.late_sends, 55);
    assert_eq!(out.generator_late_share(), 55.0 / 200.0);
    // All 56 miss a 1 ms limit except the last few of the drain.
    let missed = out.latency_ns.iter().filter(|&&l| l > MS).count();
    assert_eq!(out.miss_share(MS), missed as f64 / 200.0);
    assert!(missed >= 50, "{missed}");
    // Afterwards the schedule is met again.
    assert_eq!(out.latency_ns[199], SERVICE);
    assert_eq!(out.wall_ns, 199 * MS + SERVICE);
}

#[test]
fn a_healthy_service_is_never_late() {
    let now = Rc::new(Cell::new(0u64));
    let mut clock = FakeClock(now.clone());
    let out = run_open_loop(&mut clock, 50, PERIOD, |_| now.set(now.get() + SERVICE));
    assert_eq!(out.late_sends, 0);
    assert_eq!(out.generator_late_share(), 0.0);
    assert_eq!(out.miss_share(MS), 0.0);
    assert_eq!(out.idle_ns, 49 * (PERIOD - SERVICE));
}
