//! Property-based tests of the tool layer: bwtester parameter algebra.

use proptest::prelude::*;
use scion_tools::bwtester::BwParams;

proptest! {
    /// The `?` wildcard solves the bandwidth identity: for any
    /// (duration, size, bandwidth), the inferred packet count satisfies
    /// `bandwidth ≈ size × 8 × count / duration` to rounding error.
    #[test]
    fn count_wildcard_satisfies_identity(
        duration in 1u32..=10,
        size in 4u32..1473,
        mbps in 1u32..500,
    ) {
        let spec = format!("{},{},?,{}Mbps", duration, size, mbps);
        let p = BwParams::parse(&spec).unwrap();
        let implied = p.packet_bytes as f64 * 8.0 * p.num_packets as f64
            / p.duration_s / 1e6;
        let err = (implied - mbps as f64).abs() / mbps as f64;
        prop_assert!(err < 0.01, "{spec}: implied {implied}");
        prop_assert_eq!(p.num_packets, p.flow().num_packets());
    }

    /// A fully-specified tuple derived from a solved one always passes
    /// the consistency check.
    #[test]
    fn solved_tuple_is_self_consistent(
        duration in 1u32..=10,
        size in 4u32..1473,
        mbps in 1u32..500,
    ) {
        let p = BwParams::parse(&format!("{},{},?,{}Mbps", duration, size, mbps)).unwrap();
        let full = format!(
            "{},{},{},{}Mbps",
            p.duration_s, p.packet_bytes, p.num_packets, p.target_mbps
        );
        let q = BwParams::parse(&full).unwrap();
        prop_assert_eq!(p, q);
    }

    /// The bandwidth wildcard inverts the count wildcard.
    #[test]
    fn bandwidth_wildcard_inverts(
        duration in 1u32..=10,
        size in 4u32..1473,
        count in 1u64..1_000_000,
    ) {
        let spec = format!("{},{},{},?", duration, size, count);
        let p = BwParams::parse(&spec).unwrap();
        let expect = size as f64 * 8.0 * count as f64 / duration as f64 / 1e6;
        prop_assert!((p.target_mbps - expect).abs() < 1e-9);
    }

    /// Limits always reject: any duration > 10 s or size < 4 B fails.
    #[test]
    fn limits_enforced(duration in 11u32..100, size in 0u32..4) {
        let long = BwParams::parse(&format!("{},100,?,10Mbps", duration));
        let tiny = BwParams::parse(&format!("3,{},?,10Mbps", size));
        prop_assert!(long.is_err(), "duration over the cap must fail");
        prop_assert!(tiny.is_err(), "packet size under the floor must fail");
    }
}
