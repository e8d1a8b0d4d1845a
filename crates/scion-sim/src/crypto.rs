//! Toy control-plane cryptography: AS key pairs, certificates signed by
//! core ASes, trust-root configurations (TRCs) and hop-field MACs.
//!
//! SCION's control plane authenticates path-construction beacons with
//! per-AS symmetric keys (hop-field MACs) and authenticates ASes with
//! public-key certificates chained to the ISD's core ASes. This module
//! provides the same *structure* — key issuance, certificate chains,
//! chained MAC verification — on top of a small keyed hash.
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
pub fn keyed_mac(key: &SymmetricKey, data: &[u8]) -> MacTag {
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

/// A simulated public/private key pair. The "public key" is just a mixed
/// image of the private key; signatures are MACs under the private key
/// that verifiers can check because the simulator (like a PKI) exposes the
/// mapping through [`Certificate`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPair {
    pub public: u64,
    private: u64,
}

impl KeyPair {
    pub fn derive(master: u64, ia: IsdAsn) -> KeyPair {
        let private = mix64(master ^ mix64(ia.asn.0) ^ ((ia.isd.0 as u64) << 48));
        KeyPair {
            public: mix64(private ^ 0x5ca1_ab1e),
            private,
        }
    }

    /// Sign arbitrary bytes. See module docs: simulation-grade only.
    pub fn sign(&self, data: &[u8]) -> Signature {
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&self.private.to_le_bytes());
        key[8..].copy_from_slice(&mix64(self.private).to_le_bytes());
        Signature(keyed_mac(&SymmetricKey(key), data).0)
    }

    /// Verify a signature produced by the key pair with this public key.
    ///
    /// In the simulation, verification recomputes the private key image
    /// registered in the certificate; a real deployment would use
    /// asymmetric crypto. The indirection keeps call sites shaped like
    /// real verification code.
    pub fn verify(&self, data: &[u8], sig: &Signature) -> bool {
        self.sign(data) == *sig
    }
}

/// A signature over certificate or measurement payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(pub u64);

/// A public-key certificate binding an AS to its public key, signed by a
/// core AS of its ISD (the ISD's root of trust).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Certificate {
    pub subject: IsdAsn,
    pub subject_public: u64,
    pub issuer: IsdAsn,
    pub signature: Signature,
}

impl Certificate {
    /// Issue a certificate for `subject` under the `issuer_keys` of a core AS.
    pub fn issue(
        issuer: IsdAsn,
        issuer_keys: &KeyPair,
        subject: IsdAsn,
        subject_public: u64,
    ) -> Certificate {
        let payload = cert_payload(subject, subject_public, issuer);
        Certificate {
            subject,
            subject_public,
            issuer,
            signature: issuer_keys.sign(&payload),
        }
    }

    /// Check the certificate against the issuer's key pair.
    pub fn verify(&self, issuer_keys: &KeyPair) -> bool {
        let payload = cert_payload(self.subject, self.subject_public, self.issuer);
        issuer_keys.verify(&payload, &self.signature)
    }
}

fn cert_payload(subject: IsdAsn, subject_public: u64, issuer: IsdAsn) -> Vec<u8> {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&subject.isd.0.to_le_bytes());
    v.extend_from_slice(&subject.asn.0.to_le_bytes());
    v.extend_from_slice(&subject_public.to_le_bytes());
    v.extend_from_slice(&issuer.isd.0.to_le_bytes());
    v.extend_from_slice(&issuer.asn.0.to_le_bytes());
    v
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

    #[test]
    fn signature_verifies_and_rejects_tampering() {
        let kp = KeyPair::derive(7, ia(17, 0x1101));
        let sig = kp.sign(b"measurement batch");
        assert!(kp.verify(b"measurement batch", &sig));
        assert!(!kp.verify(b"measurement botch", &sig));
        let other = KeyPair::derive(7, ia(17, 0x1102));
        assert!(!other.verify(b"measurement batch", &sig));
    }

    #[test]
    fn certificate_chain_verifies() {
        let core = ia(17, 0x1101);
        let leaf = ia(17, 0x1107);
        let core_keys = KeyPair::derive(99, core);
        let leaf_keys = KeyPair::derive(99, leaf);
        let cert = Certificate::issue(core, &core_keys, leaf, leaf_keys.public);
        assert!(cert.verify(&core_keys));
        // Tampered subject key fails verification.
        let mut bad = cert.clone();
        bad.subject_public ^= 1;
        assert!(!bad.verify(&core_keys));
    }
}
