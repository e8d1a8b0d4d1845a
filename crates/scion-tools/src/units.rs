//! Parsing of the unit-suffixed values the SCION CLI tools accept:
//! durations (`0.1s`, `500ms`) and bandwidths (`12Mbps`, `150Mbps`).

use std::fmt;

/// Errors from unit parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct UnitError(pub(crate) String);

impl fmt::Display for UnitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid value: {}", self.0)
    }
}

impl std::error::Error for UnitError {}

/// Parse a duration like `0.1s`, `100ms`, `2m` into milliseconds.
/// A bare number is interpreted as seconds, matching the Go tools.
pub(crate) fn parse_duration_ms(s: &str) -> Result<f64, UnitError> {
    let s = s.trim();
    let (num, factor) = if let Some(v) = s.strip_suffix("ms") {
        (v, 1.0)
    } else if let Some(v) = s.strip_suffix('s') {
        (v, 1000.0)
    } else if let Some(v) = s.strip_suffix('m') {
        (v, 60_000.0)
    } else {
        (s, 1000.0)
    };
    let v: f64 = num.trim().parse().map_err(|_| UnitError(s.to_string()))?;
    if !v.is_finite() || v < 0.0 {
        return Err(UnitError(s.to_string()));
    }
    Ok(v * factor)
}

/// Parse a bandwidth like `12Mbps`, `1500kbps`, `1Gbps`, or a bare
/// bits-per-second count, into Mbps.
pub(crate) fn parse_bandwidth_mbps(s: &str) -> Result<f64, UnitError> {
    let t = s.trim();
    let lower = t.to_ascii_lowercase();
    let (num, factor) = if let Some(v) = lower.strip_suffix("gbps") {
        (v.to_string(), 1000.0)
    } else if let Some(v) = lower.strip_suffix("mbps") {
        (v.to_string(), 1.0)
    } else if let Some(v) = lower.strip_suffix("kbps") {
        (v.to_string(), 0.001)
    } else if let Some(v) = lower.strip_suffix("bps") {
        (v.to_string(), 1e-6)
    } else {
        (lower.clone(), 1e-6)
    };
    let v: f64 = num.trim().parse().map_err(|_| UnitError(s.to_string()))?;
    if !v.is_finite() || v < 0.0 {
        return Err(UnitError(s.to_string()));
    }
    Ok(v * factor)
}

/// Render a bandwidth in the `NMbps` form the tools print.
pub(crate) fn format_bandwidth_mbps(mbps: f64) -> String {
    if mbps >= 1000.0 {
        format!("{:.2}Gbps", mbps / 1000.0)
    } else if mbps >= 1.0 {
        format!("{mbps:.2}Mbps")
    } else {
        format!("{:.0}kbps", mbps * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations() {
        assert_eq!(parse_duration_ms("0.1s").unwrap(), 100.0);
        assert_eq!(parse_duration_ms("100ms").unwrap(), 100.0);
        assert_eq!(parse_duration_ms("2m").unwrap(), 120_000.0);
        assert_eq!(parse_duration_ms("3").unwrap(), 3000.0);
        assert!(parse_duration_ms("abc").is_err());
        assert!(parse_duration_ms("-1s").is_err());
    }

    #[test]
    fn bandwidths() {
        assert_eq!(parse_bandwidth_mbps("12Mbps").unwrap(), 12.0);
        assert_eq!(parse_bandwidth_mbps("150Mbps").unwrap(), 150.0);
        assert_eq!(parse_bandwidth_mbps("1Gbps").unwrap(), 1000.0);
        assert_eq!(parse_bandwidth_mbps("500kbps").unwrap(), 0.5);
        assert_eq!(parse_bandwidth_mbps("1000000").unwrap(), 1.0);
        assert!(parse_bandwidth_mbps("12Mbs").is_err());
        assert!((parse_bandwidth_mbps("12mbps").unwrap() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_formatting() {
        assert_eq!(format_bandwidth_mbps(12.0), "12.00Mbps");
        assert_eq!(format_bandwidth_mbps(1500.0), "1.50Gbps");
        assert_eq!(format_bandwidth_mbps(0.5), "500kbps");
    }
}

#[cfg(test)]
mod props {
    //! Unit parsing and rendering round-trips.

    use super::*;
    use proptest::prelude::*;

    proptest! {
    #[test]
    fn bandwidth_format_parse_roundtrip(mbps in 0.001..5000.0f64) {
        let s = format_bandwidth_mbps(mbps);
        let back = parse_bandwidth_mbps(&s).unwrap();
        // Rendering rounds to 2 decimals (or whole kbps).
        prop_assert!((back - mbps).abs() / mbps < 0.02, "{mbps} -> {s} -> {back}");
    }

    #[test]
    fn duration_parse_units_consistent(ms in 1u32..1_000_000) {
        let from_ms = parse_duration_ms(&format!("{}ms", ms)).unwrap();
        prop_assert_eq!(from_ms, ms as f64);
        let from_s = parse_duration_ms(&format!("{}s", ms as f64 / 1000.0)).unwrap();
        prop_assert!((from_s - ms as f64).abs() < 1e-6);
    }
    }
}
