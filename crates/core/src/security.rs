//! Database write protection: PKC-authenticated measurement batches.
//!
//! §4.2.2 designs (without fully implementing) two safeguards: write
//! access to the database gated on public-key certificates, and
//! authentication/integrity of the produced statistics "to avoid fake
//! performances injection that may alter analysis". This module
//! implements both on top of the simulator's certificate chain: a
//! measurement AS signs each batch with its key pair; the store verifies
//! the signature and that the signer's certificate was issued by a
//! trusted core AS before accepting the write.

use crate::error::{SuiteError, SuiteResult};
use pathdb::{Database, Document, Value};
use scion_sim::addr::IsdAsn;
use scion_sim::crypto::{Certificate, KeyPair, Signature};
use std::collections::HashMap;

/// A measurement producer: an AS with keys and a core-issued PKC.
#[derive(Debug, Clone)]
pub struct WriterIdentity {
    pub ia: IsdAsn,
    keys: KeyPair,
    pub cert: Certificate,
}

impl WriterIdentity {
    /// Provision an identity: derive the AS key pair and have `issuer`
    /// (a core AS) certify it.
    pub fn provision(master: u64, ia: IsdAsn, issuer: IsdAsn) -> WriterIdentity {
        let keys = KeyPair::derive(master, ia);
        let issuer_keys = KeyPair::derive(master, issuer);
        let cert = Certificate::issue(issuer, &issuer_keys, ia, keys.public);
        WriterIdentity { ia, keys, cert }
    }

    /// Sign a batch of documents.
    pub fn sign(&self, docs: Vec<Document>) -> SignedBatch {
        let signature = self.keys.sign(&batch_bytes(&docs));
        SignedBatch {
            docs,
            signer: self.ia,
            signer_public: self.keys.public,
            cert: self.cert.clone(),
            signature,
        }
    }
}

/// A batch of documents with provenance.
#[derive(Debug, Clone)]
pub struct SignedBatch {
    pub docs: Vec<Document>,
    pub signer: IsdAsn,
    pub signer_public: u64,
    pub cert: Certificate,
    pub signature: Signature,
}

/// Canonical byte representation of a batch (documents are ordered and
/// field order is preserved, so this is deterministic).
fn batch_bytes(docs: &[Document]) -> Vec<u8> {
    let mut out = Vec::new();
    for d in docs {
        out.extend_from_slice(Value::Doc(d.clone()).to_json().to_string().as_bytes());
        out.push(b'\n');
    }
    out
}

/// The write gatekeeper: trusted certificate issuers plus an authorized
/// writer list.
///
/// The toy crypto is symmetric under the hood, so "verifying with a
/// public key" is modeled by re-deriving key pairs from the network
/// master secret and checking that the derived public half matches the
/// certified one. A forger without the master secret can neither mint a
/// certificate from a trusted issuer nor produce a batch signature that
/// verifies under the certified key.
pub struct SecureWriter {
    /// The network master secret used for key re-derivation.
    master: u64,
    /// Core ASes trusted to issue writer certificates.
    issuers: HashMap<IsdAsn, KeyPair>,
    /// ASes allowed to write at all.
    authorized: Vec<IsdAsn>,
}

impl SecureWriter {
    pub fn new(master: u64) -> SecureWriter {
        SecureWriter {
            master,
            issuers: HashMap::new(),
            authorized: Vec::new(),
        }
    }

    /// Trust `issuer` as a certificate root.
    pub fn trust_issuer(&mut self, issuer: IsdAsn) -> &mut Self {
        self.issuers
            .insert(issuer, KeyPair::derive(self.master, issuer));
        self
    }

    /// Authorize an AS to write.
    pub fn authorize(&mut self, ia: IsdAsn) -> &mut Self {
        if !self.authorized.contains(&ia) {
            self.authorized.push(ia);
        }
        self
    }

    /// Verify a batch end to end: authorization, certificate chain,
    /// signer binding and batch signature.
    pub(crate) fn verify(&self, batch: &SignedBatch) -> SuiteResult<()> {
        if !self.authorized.contains(&batch.signer) {
            return Err(SuiteError::Unauthorized(format!(
                "{} is not an authorized writer",
                batch.signer
            )));
        }
        let issuer_keys = self.issuers.get(&batch.cert.issuer).ok_or_else(|| {
            SuiteError::Unauthorized(format!("untrusted issuer {}", batch.cert.issuer))
        })?;
        if batch.cert.subject != batch.signer || batch.cert.subject_public != batch.signer_public {
            return Err(SuiteError::Unauthorized(
                "certificate does not bind the signer".into(),
            ));
        }
        if !batch.cert.verify(issuer_keys) {
            return Err(SuiteError::Unauthorized("invalid certificate".into()));
        }
        // Verify the batch signature under the certified key: re-derive
        // the signer's pair and insist its public half matches the
        // certificate before checking the signature.
        let signer_keys = KeyPair::derive(self.master, batch.signer);
        if signer_keys.public != batch.signer_public {
            return Err(SuiteError::Unauthorized(
                "certified key is not the signer's".into(),
            ));
        }
        if !signer_keys.verify(&batch_bytes(&batch.docs), &batch.signature) {
            return Err(SuiteError::Unauthorized("batch signature mismatch".into()));
        }
        Ok(())
    }

    /// Verify then bulk-insert into `collection`. The all-or-nothing
    /// insert keeps a rejected batch entirely out of the database.
    pub fn insert_signed(
        &self,
        db: &Database,
        collection: &str,
        batch: SignedBatch,
    ) -> SuiteResult<Vec<String>> {
        self.verify(&batch)?;
        let handle = db.collection(collection);
        let ids = handle.write().insert_many(batch.docs)?;
        Ok(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdb::doc;
    use scion_sim::topology::scionlab::{ETHZ_CORE, MY_AS, SWISSCOM_CORE};

    const MASTER: u64 = 0xfeed;

    fn provisioned() -> (WriterIdentity, SecureWriter) {
        let identity = WriterIdentity::provision(MASTER, MY_AS, ETHZ_CORE);
        let mut writer = SecureWriter::new(MASTER);
        writer.trust_issuer(ETHZ_CORE).authorize(MY_AS);
        (identity, writer)
    }

    fn sample_docs() -> Vec<Document> {
        vec![
            doc! { "_id" => "1_0_100", "avg_latency_ms" => 20.0 },
            doc! { "_id" => "1_1_100", "avg_latency_ms" => 25.0 },
        ]
    }

    #[test]
    fn honest_batch_is_accepted_and_stored() {
        let (identity, writer) = provisioned();
        let db = Database::new();
        let batch = identity.sign(sample_docs());
        let ids = writer.insert_signed(&db, "paths_stats", batch).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(db.collection("paths_stats").read().len(), 2);
    }

    #[test]
    fn tampered_documents_are_rejected() {
        let (identity, writer) = provisioned();
        let db = Database::new();
        let mut batch = identity.sign(sample_docs());
        // Inject a fake performance value after signing.
        batch.docs[0].set("avg_latency_ms", 1.0);
        let err = writer.insert_signed(&db, "paths_stats", batch);
        assert!(matches!(err, Err(SuiteError::Unauthorized(_))));
        assert_eq!(
            db.collection("paths_stats").read().len(),
            0,
            "nothing stored"
        );
    }

    #[test]
    fn unauthorized_writer_is_rejected() {
        let (identity, _) = provisioned();
        let mut writer = SecureWriter::new(MASTER);
        writer.trust_issuer(ETHZ_CORE); // trusted issuer, but no authorization
        let err = writer.verify(&identity.sign(sample_docs()));
        assert!(matches!(err, Err(SuiteError::Unauthorized(_))));
    }

    #[test]
    fn untrusted_issuer_is_rejected() {
        let identity = WriterIdentity::provision(MASTER, MY_AS, SWISSCOM_CORE);
        let mut writer = SecureWriter::new(MASTER);
        writer.trust_issuer(ETHZ_CORE).authorize(MY_AS);
        let err = writer.verify(&identity.sign(sample_docs()));
        assert!(matches!(err, Err(SuiteError::Unauthorized(_))));
    }

    #[test]
    fn forged_signature_without_master_fails() {
        let (identity, writer) = provisioned();
        let mut batch = identity.sign(sample_docs());
        // An attacker re-signs with a different key (wrong master).
        let forged_keys = KeyPair::derive(MASTER ^ 1, MY_AS);
        batch.signature = forged_keys.sign(b"whatever");
        assert!(matches!(
            writer.verify(&batch),
            Err(SuiteError::Unauthorized(_))
        ));
    }

    #[test]
    fn certificate_signer_binding_is_checked() {
        let (identity, writer) = provisioned();
        let mut batch = identity.sign(sample_docs());
        batch.signer_public ^= 1;
        assert!(matches!(
            writer.verify(&batch),
            Err(SuiteError::Unauthorized(_))
        ));
    }
}
