//! Simulated time for the data plane's discrete-event simulation.
//!
//! The probe simulation in [`crate::dataplane::scmp`] orders its events
//! by a [`SimTime`] fire time, then by scheduling order, so runs are
//! fully deterministic for a fixed seed.

/// Simulated time in nanoseconds since simulation start.
///
/// Nanosecond resolution keeps serialization delays of small packets on
/// fast links (≈ 50 ns for 64 B at 10 Gbps) representable without
/// floating-point drift in the event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub fn from_ms(ms: f64) -> SimTime {
        SimTime((ms * 1_000_000.0).round().max(0.0) as u64)
    }

    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition of a duration in nanoseconds.
    pub fn plus_ns(self, ns: u64) -> SimTime {
        SimTime(self.0.saturating_add(ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions_roundtrip() {
        let t = SimTime::from_ms(12.5);
        assert_eq!(t.0, 12_500_000);
        assert!((t.as_ms() - 12.5).abs() < 1e-9);
    }
}
