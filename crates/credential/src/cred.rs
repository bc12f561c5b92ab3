//! Attribute credentials — the simulated X.509 attribute certificates /
//! SAML attribute assertions of PERMIS (§5.1).
//!
//! The substitution (documented in DESIGN.md §3): real PKI signatures
//! are replaced by HMAC-SHA256 tags over a canonical to-be-signed byte
//! string, keyed per authority. The CVS behaviour the paper depends on —
//! accept valid credentials from trusted issuers, reject tampered,
//! expired, revoked or forged ones — is preserved exactly.

use audit::hmac::{hmac_sha256, verify_tag};
use msod::RoleRef;

/// The transport encoding a credential claims to use — cosmetic, both
/// validate identically (the paper supports both, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CredentialFormat {
    /// X.509 attribute certificate \[20\].
    X509Ac,
    /// SAML attribute assertion \[19\].
    SamlAssertion,
}

/// A signed statement: `issuer` asserts that `subject` holds attribute
/// `role` between `valid_from` and `valid_to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeCredential {
    /// Subject DN (the holder).
    pub subject: String,
    /// Issuer DN (the source of authority).
    pub issuer: String,
    /// The asserted role attribute.
    pub role: RoleRef,
    /// Validity window (inclusive bounds, caller-defined time scale).
    pub valid_from: u64,
    /// End of the validity window.
    pub valid_to: u64,
    /// Issuer-scoped serial number (for revocation).
    pub serial: u64,
    /// Claimed transport encoding.
    pub format: CredentialFormat,
    /// HMAC-SHA256 over [`Self::tbs_bytes`] under the issuer's key.
    pub signature: [u8; 32],
}

impl AttributeCredential {
    /// Canonical to-be-signed byte string. Fields are length-prefixed so
    /// no two distinct credentials share an encoding.
    pub fn tbs_bytes(
        subject: &str,
        issuer: &str,
        role: &RoleRef,
        valid_from: u64,
        valid_to: u64,
        serial: u64,
    ) -> Vec<u8> {
        let mut buf = Vec::with_capacity(96);
        for field in [subject, issuer, &role.role_type, &role.value] {
            buf.extend_from_slice(&(field.len() as u32).to_le_bytes());
            buf.extend_from_slice(field.as_bytes());
        }
        buf.extend_from_slice(&valid_from.to_le_bytes());
        buf.extend_from_slice(&valid_to.to_le_bytes());
        buf.extend_from_slice(&serial.to_le_bytes());
        buf
    }

    /// Recompute the signature under `key` and compare in constant time.
    pub fn verify(&self, key: &[u8]) -> bool {
        let tbs = Self::tbs_bytes(
            &self.subject,
            &self.issuer,
            &self.role,
            self.valid_from,
            self.valid_to,
            self.serial,
        );
        let expected = hmac_sha256(key, &tbs);
        verify_tag(&expected, &self.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &[u8]) -> AttributeCredential {
        let role = RoleRef::new("employee", "Teller");
        let tbs = AttributeCredential::tbs_bytes("cn=alice", "cn=HR", &role, 0, 100, 7);
        AttributeCredential {
            subject: "cn=alice".into(),
            issuer: "cn=HR".into(),
            role,
            valid_from: 0,
            valid_to: 100,
            serial: 7,
            format: CredentialFormat::X509Ac,
            signature: hmac_sha256(key, &tbs),
        }
    }

    #[test]
    fn verify_roundtrip() {
        let cred = sample(b"hr-key");
        assert!(cred.verify(b"hr-key"));
        assert!(!cred.verify(b"other-key"));
    }

    #[test]
    fn tamper_any_field_breaks_signature() {
        let base = sample(b"hr-key");
        let mut c = base.clone();
        c.subject = "cn=mallory".into();
        assert!(!c.verify(b"hr-key"));
        let mut c = base.clone();
        c.role = RoleRef::new("employee", "Auditor");
        assert!(!c.verify(b"hr-key"));
        let mut c = base.clone();
        c.valid_to = u64::MAX;
        assert!(!c.verify(b"hr-key"));
        let mut c = base.clone();
        c.serial = 8;
        assert!(!c.verify(b"hr-key"));
    }

    #[test]
    fn tbs_is_injective_on_field_boundaries() {
        // ("ab","c") and ("a","bc") must encode differently.
        let r1 = RoleRef::new("ab", "c");
        let r2 = RoleRef::new("a", "bc");
        assert_ne!(
            AttributeCredential::tbs_bytes("s", "i", &r1, 0, 0, 0),
            AttributeCredential::tbs_bytes("s", "i", &r2, 0, 0, 0)
        );
    }
}
