//! Toy control-plane cryptography: hop-field MACs.
//!
//! SCION's control plane authenticates path-construction beacons with
//! per-AS symmetric keys (hop-field MACs). This module provides the same
//! *structure* — key derivation, chained MAC verification — on top of a
//! small keyed hash.
//!
//! **This is not cryptographically secure.** The keyed hash is a
//! SipHash-style mixer adequate for simulation-grade tamper detection and
//! for exercising verification code paths; it must never be used outside
//! the simulator.

use crate::addr::IsdAsn;
use serde::{Deserialize, Serialize};

/// A 128-bit symmetric key used by an AS to MAC its hop fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SymmetricKey(pub [u8; 16]);

impl SymmetricKey {
    /// Derive an AS's forwarding key deterministically from a network
    /// master secret, so repeated simulator constructions agree.
    pub fn derive(master: u64, ia: IsdAsn) -> SymmetricKey {
        let mut out = [0u8; 16];
        let a = mix64(master ^ (ia.isd.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let b = mix64(a ^ ia.asn.0);
        out[..8].copy_from_slice(&a.to_le_bytes());
        out[8..].copy_from_slice(&b.to_le_bytes());
        SymmetricKey(out)
    }
}

/// A MAC tag over a hop field (truncated to 48 bits like SCION's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MacTag(pub u64);

/// 64-bit finalizer (splitmix64) used as the core mixing primitive.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Keyed hash of `data` under `key`, truncated to 48 bits.
pub(crate) fn keyed_mac(key: &SymmetricKey, data: &[u8]) -> MacTag {
    let k0 = u64::from_le_bytes(key.0[..8].try_into().expect("8 bytes"));
    let k1 = u64::from_le_bytes(key.0[8..].try_into().expect("8 bytes"));
    let mut state = k0 ^ 0x736f_6d65_7073_6575;
    for chunk in data.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        state = mix64(state ^ u64::from_le_bytes(word) ^ k1);
    }
    // Fold in the length to distinguish trailing-zero-padded inputs.
    state = mix64(state ^ (data.len() as u64).wrapping_mul(0xff51_afd7_ed55_8ccd));
    MacTag(state & 0xffff_ffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Asn;

    fn ia(isd: u16, c: u16) -> IsdAsn {
        IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, c))
    }

    #[test]
    fn key_derivation_is_deterministic_and_distinct() {
        let a = SymmetricKey::derive(42, ia(16, 0x1002));
        let b = SymmetricKey::derive(42, ia(16, 0x1002));
        let c = SymmetricKey::derive(42, ia(16, 0x1003));
        let d = SymmetricKey::derive(43, ia(16, 0x1002));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn mac_is_48_bits_and_input_sensitive() {
        let k = SymmetricKey::derive(1, ia(19, 0x1303));
        let m1 = keyed_mac(&k, b"hop field one");
        let m2 = keyed_mac(&k, b"hop field two");
        assert!(m1.0 <= 0xffff_ffff_ffff);
        assert_ne!(m1, m2);
    }

    #[test]
    fn mac_distinguishes_zero_padded_lengths() {
        let k = SymmetricKey::derive(1, ia(19, 0x1303));
        assert_ne!(keyed_mac(&k, &[0u8; 7]), keyed_mac(&k, &[0u8; 8]));
        assert_ne!(keyed_mac(&k, b""), keyed_mac(&k, &[0u8]));
    }

    #[test]
    fn mac_depends_on_key() {
        let k1 = SymmetricKey::derive(1, ia(19, 0x1303));
        let k2 = SymmetricKey::derive(1, ia(19, 0x1304));
        assert_ne!(keyed_mac(&k1, b"data"), keyed_mac(&k2, b"data"));
    }
}
