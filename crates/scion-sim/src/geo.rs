//! Geographic model: AS locations, great-circle distances and
//! speed-of-light propagation delays.
//!
//! The paper's central latency finding is that *physical distance between
//! hops dominates latency* (more than hop count or ISD membership). To make
//! that an emergent property of the simulation rather than a hard-coded
//! outcome, every AS carries a real-world coordinate and link propagation
//! delay is derived from the great-circle distance at an effective signal
//! speed typical of long-haul fiber.

use serde::{Deserialize, Serialize};

/// Mean Earth radius in kilometers (IUGG).
const EARTH_RADIUS_KM: f64 = 6371.0;

/// Effective propagation speed in fiber, km per millisecond.
///
/// Light in fiber travels at roughly 2/3 c ≈ 200 km/ms; real WAN routes
/// are not geodesics, so we use a slightly lower effective speed to absorb
/// route stretch. This calibration is what places the Europe↔US-East RTT
/// near the familiar ~80 ms mark.
const FIBER_KM_PER_MS: f64 = 170.0;

/// A geographic coordinate (degrees) plus human-readable placement,
/// attached to every AS in the topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoLocation {
    pub lat: f64,
    pub lon: f64,
    /// City name as shown on the SCIONLab map (e.g. "Magdeburg").
    pub city: String,
    /// ISO-ish country label used for sovereignty constraints
    /// (e.g. "Germany", "United States", "South Korea").
    pub country: String,
}

impl GeoLocation {
    pub fn new(lat: f64, lon: f64, city: &str, country: &str) -> GeoLocation {
        GeoLocation {
            lat,
            lon,
            city: city.to_string(),
            country: country.to_string(),
        }
    }

    /// Great-circle distance to `other` in kilometers (haversine formula).
    pub fn distance_km(&self, other: &GeoLocation) -> f64 {
        haversine_km(self.lat, self.lon, other.lat, other.lon)
    }

    /// One-way propagation delay to `other` in milliseconds, assuming the
    /// effective fiber speed [`FIBER_KM_PER_MS`] plus a small fixed
    /// per-link equipment latency.
    pub(crate) fn propagation_ms(&self, other: &GeoLocation) -> f64 {
        propagation_delay_ms(self.distance_km(other))
    }
}

/// Haversine great-circle distance between two (lat, lon) points, in km.
fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    let (phi1, phi2) = (lat1.to_radians(), lat2.to_radians());
    let dphi = (lat2 - lat1).to_radians();
    let dlambda = (lon2 - lon1).to_radians();
    let a = (dphi / 2.0).sin().powi(2) + phi1.cos() * phi2.cos() * (dlambda / 2.0).sin().powi(2);
    2.0 * EARTH_RADIUS_KM * a.sqrt().atan2((1.0 - a).sqrt())
}

/// One-way propagation delay for a link spanning `distance_km`, in ms.
///
/// A constant 0.15 ms floor models local switching/serialization even for
/// co-located ASes (two VMs in the same data center still observe sub-ms,
/// nonzero RTTs on SCIONLab).
fn propagation_delay_ms(distance_km: f64) -> f64 {
    0.15 + distance_km / FIBER_KM_PER_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zurich() -> GeoLocation {
        GeoLocation::new(47.3769, 8.5417, "Zurich", "Switzerland")
    }
    fn virginia() -> GeoLocation {
        GeoLocation::new(38.9, -77.4, "Ashburn", "United States")
    }
    fn singapore() -> GeoLocation {
        GeoLocation::new(1.3521, 103.8198, "Singapore", "Singapore")
    }

    #[test]
    fn haversine_known_distances() {
        // Zurich -> Ashburn is about 6,600 km.
        let d = zurich().distance_km(&virginia());
        assert!((6200.0..7000.0).contains(&d), "got {d}");
        // Zurich -> Singapore is about 10,300 km.
        let d = zurich().distance_km(&singapore());
        assert!((9900.0..10800.0).contains(&d), "got {d}");
    }

    #[test]
    fn haversine_is_symmetric_and_zero_on_self() {
        let a = zurich();
        let b = singapore();
        let ab = a.distance_km(&b);
        let ba = b.distance_km(&a);
        assert!((ab - ba).abs() < 1e-9);
        assert!(a.distance_km(&a) < 1e-9);
    }

    #[test]
    fn transatlantic_one_way_delay_is_plausible() {
        // One-way Europe -> US East should land in the 30..50 ms window,
        // giving the familiar ~80 ms RTT.
        let ms = zurich().propagation_ms(&virginia());
        assert!((30.0..50.0).contains(&ms), "got {ms}");
    }

    #[test]
    fn colocated_links_have_nonzero_floor() {
        let ms = propagation_delay_ms(0.0);
        assert!(ms > 0.0 && ms < 1.0);
    }

    #[test]
    fn antimeridian_crossing_takes_the_short_way() {
        // Fiji (179°E) to Samoa (-172°W): ~1,150 km across the
        // antimeridian, not ~38,000 km the long way round.
        let d = haversine_km(-17.7, 178.8, -13.8, -171.8);
        assert!((900.0..1500.0).contains(&d), "got {d}");
    }

    #[test]
    fn poles_and_hemispheres() {
        // Pole to pole is half the circumference.
        let d = haversine_km(90.0, 0.0, -90.0, 0.0);
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_KM).abs() < 1.0);
        // Longitude is irrelevant at the pole.
        let a = haversine_km(90.0, 0.0, 47.0, 8.0);
        let b = haversine_km(90.0, 123.0, 47.0, 8.0);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn delay_monotonic_in_distance() {
        let mut prev = 0.0;
        for km in [0.0, 10.0, 100.0, 1000.0, 10000.0] {
            let d = propagation_delay_ms(km);
            assert!(d > prev);
            prev = d;
        }
    }
}
