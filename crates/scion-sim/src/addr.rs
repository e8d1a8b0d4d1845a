//! SCION addressing: ISD numbers, AS numbers, ISD-AS pairs and full
//! SCION host addresses.
//!
//! SCION identifies an autonomous system by the pair of an *isolation
//! domain* (ISD) number and an *AS number* (ASN). ASNs are 48-bit values
//! conventionally rendered as three colon-separated 16-bit hexadecimal
//! groups, e.g. `ffaa:0:1002`. A full ISD-AS is rendered with a dash:
//! `16-ffaa:0:1002`, and a host address appends a bracketed IP:
//! `16-ffaa:0:1002,[172.31.43.7]`. All of these formats appear verbatim in
//! the paper and in SCIONLab tooling output, so we implement exact
//! round-tripping parsers and formatters for them.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Errors produced when parsing any of the SCION address formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrParseError {
    /// The ISD component was missing or not a decimal number.
    BadIsd(String),
    /// The ASN component was malformed (wrong group count or non-hex digits).
    BadAsn(String),
    /// The ISD-AS separator (`-`) was missing.
    MissingSeparator(String),
    /// The host part (`,[ip]`) was malformed.
    BadHost(String),
}

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrParseError::BadIsd(s) => write!(f, "invalid ISD number: {s:?}"),
            AddrParseError::BadAsn(s) => write!(f, "invalid AS number: {s:?}"),
            AddrParseError::MissingSeparator(s) => {
                write!(f, "missing `-` separator in ISD-AS: {s:?}")
            }
            AddrParseError::BadHost(s) => write!(f, "invalid SCION host address: {s:?}"),
        }
    }
}

impl std::error::Error for AddrParseError {}

/// A stack buffer the address and path types render themselves into, so
/// one `Display` call costs one `Formatter::write_str` instead of a
/// nested `write!` per field. The fields are all 16-bit groups — ISD
/// and interface ids in decimal, ASN groups in hex without leading
/// zeros.
pub(crate) struct Text {
    buf: [u8; Text::CAPACITY],
    len: usize,
}

impl Text {
    const CAPACITY: usize = 256;
    /// Longest single hop, `>65535 65535-ffff:ffff:ffff 65535`: callers
    /// rendering an unbounded hop list flush when less than this is left.
    pub(crate) const HOP: usize = 33;

    pub(crate) fn new() -> Text {
        Text {
            buf: [0; Text::CAPACITY],
            len: 0,
        }
    }

    pub(crate) fn room(&self) -> usize {
        Text::CAPACITY - self.len
    }

    pub(crate) fn clear(&mut self) {
        self.len = 0;
    }

    pub(crate) fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len]).expect("only ASCII is pushed")
    }

    #[inline]
    pub(crate) fn push(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    /// `n` in `digits` digits of base `RADIX` (a constant, so the
    /// divisions compile to shifts and multiplications), written in
    /// place from the last digit backwards.
    #[inline]
    fn group<const RADIX: u16>(&mut self, mut n: u16, digits: usize) {
        let end = self.len + digits;
        for slot in self.buf[self.len..end].iter_mut().rev() {
            *slot = b"0123456789abcdef"[usize::from(n % RADIX)];
            n /= RADIX;
        }
        self.len = end;
    }

    #[inline]
    pub(crate) fn dec(&mut self, n: u16) {
        let digits = 1 + [10, 100, 1000, 10000].iter().filter(|&&p| n >= p).count();
        self.group::<10>(n, digits);
    }

    #[inline]
    fn hex(&mut self, n: u16) {
        let digits = (19 - (n | 1).leading_zeros() as usize) / 4;
        self.group::<16>(n, digits);
    }

    /// `16-ffaa:0:1002`
    #[inline]
    pub(crate) fn isd_asn(&mut self, ia: IsdAsn) {
        self.dec(ia.isd.0);
        self.push(b'-');
        self.asn(ia.asn);
    }

    #[inline]
    fn asn(&mut self, asn: Asn) {
        let (a, b, c) = asn.groups();
        self.hex(a);
        self.push(b':');
        self.hex(b);
        self.push(b':');
        self.hex(c);
    }
}

/// An isolation domain number.
///
/// ISDs are SCION's trust and routing-plane partitions; SCIONLab uses
/// small decimal numbers (16 = AWS, 17 = Switzerland, 19 = EU, 20 = KR, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Isd(pub u16);

impl fmt::Display for Isd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        text.dec(self.0);
        f.write_str(text.as_str())
    }
}

impl FromStr for Isd {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse::<u16>()
            .map(Isd)
            .map_err(|_| AddrParseError::BadIsd(s.to_string()))
    }
}

/// A 48-bit SCION AS number.
///
/// Stored as the raw 48-bit value; displayed in the standard
/// `hex:hex:hex` grouping (e.g. `ffaa:0:1303`). Groups are printed
/// without leading zeros, mirroring the SCIONLab tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Asn(pub u64);

impl Asn {
    /// Build an ASN from its three 16-bit groups, high to low.
    pub(crate) const fn from_groups(a: u16, b: u16, c: u16) -> Asn {
        Asn(((a as u64) << 32) | ((b as u64) << 16) | (c as u64))
    }

    /// The three 16-bit groups, high to low.
    pub const fn groups(self) -> (u16, u16, u16) {
        (
            ((self.0 >> 32) & 0xffff) as u16,
            ((self.0 >> 16) & 0xffff) as u16,
            (self.0 & 0xffff) as u16,
        )
    }
}

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        text.asn(*self);
        f.write_str(text.as_str())
    }
}

impl FromStr for Asn {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 3 {
            return Err(AddrParseError::BadAsn(s.to_string()));
        }
        let mut groups = [0u16; 3];
        for (i, p) in parts.iter().enumerate() {
            if p.is_empty() || p.len() > 4 {
                return Err(AddrParseError::BadAsn(s.to_string()));
            }
            groups[i] =
                u16::from_str_radix(p, 16).map_err(|_| AddrParseError::BadAsn(s.to_string()))?;
        }
        Ok(Asn::from_groups(groups[0], groups[1], groups[2]))
    }
}

/// An ISD-AS pair, the globally unique identifier of a SCION AS,
/// rendered as `16-ffaa:0:1002`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IsdAsn {
    pub isd: Isd,
    pub asn: Asn,
}

impl IsdAsn {
    pub const fn new(isd: u16, asn: Asn) -> IsdAsn {
        IsdAsn { isd: Isd(isd), asn }
    }
}

impl fmt::Display for IsdAsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        text.isd_asn(*self);
        f.write_str(text.as_str())
    }
}

impl FromStr for IsdAsn {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (isd, asn) = s
            .split_once('-')
            .ok_or_else(|| AddrParseError::MissingSeparator(s.to_string()))?;
        Ok(IsdAsn {
            isd: isd.parse()?,
            asn: asn.parse()?,
        })
    }
}

/// An IPv4 host address inside an AS.
///
/// SCIONLab end hosts are addressed by an IP local to the AS; the paper's
/// destinations are all IPv4 (e.g. `172.31.43.7`). We carry the four
/// octets directly instead of using `std::net::Ipv4Addr` so the type can
/// derive `Serialize`/`Deserialize` without extra glue and stays trivially
/// copyable in packet headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct HostAddr(pub [u8; 4]);

impl HostAddr {
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> HostAddr {
        HostAddr([a, b, c, d])
    }
}

impl fmt::Display for HostAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.0;
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl FromStr for HostAddr {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in s.split('.') {
            if n == 4 {
                return Err(AddrParseError::BadHost(s.to_string()));
            }
            // Reject empty parts and leading '+' that u8::parse would accept.
            if part.is_empty() || !part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(AddrParseError::BadHost(s.to_string()));
            }
            octets[n] = part
                .parse::<u8>()
                .map_err(|_| AddrParseError::BadHost(s.to_string()))?;
            n += 1;
        }
        if n != 4 {
            return Err(AddrParseError::BadHost(s.to_string()));
        }
        Ok(HostAddr(octets))
    }
}

/// A full SCION host address: `ISD-ASN,[host-ip]`.
///
/// This is the destination format taken by `scion ping` and
/// `scion-bwtestclient`, e.g. `16-ffaa:0:1002,[172.31.43.7]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ScionAddr {
    pub ia: IsdAsn,
    pub host: HostAddr,
}

impl ScionAddr {
    pub const fn new(ia: IsdAsn, host: HostAddr) -> ScionAddr {
        ScionAddr { ia, host }
    }
}

impl fmt::Display for ScionAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper's exact rendering: `16-ffaa:0:1002,[172.31.43.7]`.
        write!(f, "{},[{}]", self.ia, self.host)
    }
}

impl FromStr for ScionAddr {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ia, host) = s
            .split_once(",[")
            .ok_or_else(|| AddrParseError::BadHost(s.to_string()))?;
        let host = host
            .strip_suffix(']')
            .ok_or_else(|| AddrParseError::BadHost(s.to_string()))?;
        Ok(ScionAddr {
            ia: ia.parse()?,
            host: host.parse()?,
        })
    }
}

/// Identifier of an AS-local interface (the endpoint of an inter-AS link).
///
/// SCION hop fields name the ingress/egress interface of each transited
/// AS; `scion showpaths` prints them in hop predicates such as
/// `17-ffaa:0:1107#2`. Interface id 0 conventionally means "none" (the
/// path starts or ends in this AS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IfaceId(pub u16);

impl IfaceId {
    /// The "no interface" sentinel used at path endpoints.
    pub(crate) const NONE: IfaceId = IfaceId(0);

    pub(crate) fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for IfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = Text::new();
        text.dec(self.0);
        f.write_str(text.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asn_display_matches_scionlab_format() {
        assert_eq!(
            Asn::from_groups(0xffaa, 0, 0x1002).to_string(),
            "ffaa:0:1002"
        );
        assert_eq!(Asn(0).to_string(), "0:0:0");
    }

    #[test]
    fn asn_roundtrip() {
        for s in ["ffaa:0:1002", "0:0:1", "1:2:3", "ffff:ffff:ffff"] {
            let a: Asn = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn asn_rejects_malformed() {
        for s in [
            "",
            "ffaa",
            "ffaa:0",
            "ffaa:0:1002:5",
            "xyz:0:1",
            "fffff:0:1",
            ":0:1",
        ] {
            assert!(s.parse::<Asn>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn isd_asn_roundtrip() {
        let ia: IsdAsn = "19-ffaa:0:1303".parse().unwrap();
        assert_eq!(ia.isd, Isd(19));
        assert_eq!(ia.asn, Asn::from_groups(0xffaa, 0, 0x1303));
        assert_eq!(ia.to_string(), "19-ffaa:0:1303");
    }

    #[test]
    fn isd_asn_rejects_missing_separator() {
        assert!(matches!(
            "19ffaa:0:1303".parse::<IsdAsn>(),
            Err(AddrParseError::MissingSeparator(_))
        ));
    }

    #[test]
    fn scion_addr_roundtrip_paper_examples() {
        // Exact destination strings that appear in the paper.
        for s in [
            "16-ffaa:0:1002,[172.31.43.7]",
            "16-ffaa:0:1003,[172.31.19.144]",
            "19-ffaa:0:1303,[141.44.25.144]",
        ] {
            let a: ScionAddr = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
    }

    #[test]
    fn scion_addr_rejects_malformed() {
        for s in [
            "16-ffaa:0:1002",
            "16-ffaa:0:1002,172.31.43.7",
            "16-ffaa:0:1002,[172.31.43]",
            "16-ffaa:0:1002,[172.31.43.7",
            "16-ffaa:0:1002,[999.31.43.7]",
            "16-ffaa:0:1002,[1.2.3.4.5]",
        ] {
            assert!(s.parse::<ScionAddr>().is_err(), "{s} should not parse");
        }
    }

    #[test]
    fn host_addr_rejects_plus_and_whitespace() {
        assert!("+1.2.3.4".parse::<HostAddr>().is_err());
        assert!("1. 2.3.4".parse::<HostAddr>().is_err());
    }

    #[test]
    fn iface_none_sentinel() {
        assert!(IfaceId::NONE.is_none());
        assert!(!IfaceId(3).is_none());
    }
}
