//! Decision requests and outcomes — the PEP/PDP interface of §4.1.

use context::ContextInstance;
use credential::{AttributeCredential, CredentialError};
use msod::{DenyDetail, GrantDetail, RequestLimit, RoleRef};

/// How the requester's roles reach the CVS.
#[derive(Debug, Clone)]
pub enum Credentials {
    /// Push mode: the requester presented signed credentials. The user
    /// may *partially disclose* their roles by pushing a subset — the
    /// scenario that defeats standard SSD/DSD (§2.1).
    Push(Vec<AttributeCredential>),
    /// Pull mode: the CVS fetches from the directory configured on the
    /// PDP.
    Pull,
    /// Pre-validated roles (e.g. from an upstream CVS); skips
    /// credential validation. Used by tests and by the workflow engine.
    Validated(Vec<RoleRef>),
}

/// One access-control decision request, carrying the five §4.1
/// parameter sets: user ID (mandatory for MSoD), roles/credentials,
/// operation, target, environment — plus the business-context instance.
#[derive(Debug, Clone)]
pub struct DecisionRequest {
    /// The user's authenticated identity (a DN or a resolved local id).
    pub subject: String,
    /// The user's roles or credentials.
    pub credentials: Credentials,
    /// Requested operation.
    pub operation: String,
    /// Requested target object / URI.
    pub target: String,
    /// The current business-context instance, identified by the PEP.
    pub context: ContextInstance,
    /// Environmental / contextual parameters (time of day etc.).
    pub environment: Vec<(String, String)>,
    /// Request time (drives credential validity and the ADI timestamp).
    pub timestamp: u64,
}

impl DecisionRequest {
    /// Convenience constructor with pre-validated roles and an empty
    /// environment.
    pub fn with_roles(
        subject: impl Into<String>,
        roles: Vec<RoleRef>,
        operation: impl Into<String>,
        target: impl Into<String>,
        context: ContextInstance,
        timestamp: u64,
    ) -> Self {
        DecisionRequest {
            subject: subject.into(),
            credentials: Credentials::Validated(roles),
            operation: operation.into(),
            target: target.into(),
            context,
            environment: Vec::new(),
            timestamp,
        }
    }
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq)]
pub enum DenyReason {
    /// The subject DN falls outside every policy subject domain.
    SubjectOutsideDomain,
    /// No valid role survived credential validation.
    NoValidRoles {
        /// Credentials rejected during validation, with reasons.
        rejected: Vec<CredentialError>,
    },
    /// The RBAC target-access policy does not permit the operation.
    RbacDenied,
    /// An MSoD constraint was violated (the decision-time SoD check).
    Msod(DenyDetail),
    /// The request exceeds a fixed bound of the MSoD decision engine
    /// (too many roles or context components, or too many matching
    /// policies), so it was denied without being evaluated. Nothing was
    /// retained.
    ResourceLimit(RequestLimit),
    /// The request was malformed (e.g. a context value containing `,`,
    /// which the audit encoding cannot round-trip).
    InvalidRequest(String),
    /// The request reached a replica that is not the serving primary.
    /// Decisions mutate the retained ADI, so only the lease-holding
    /// primary may take them; the caller should re-resolve the primary
    /// and retry there. Nothing was evaluated or retained.
    NotPrimary,
}

impl std::fmt::Display for DenyReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DenyReason::SubjectOutsideDomain => write!(f, "subject outside policy domain"),
            DenyReason::NoValidRoles { rejected } => {
                write!(f, "no valid roles ({} credential(s) rejected)", rejected.len())
            }
            DenyReason::RbacDenied => write!(f, "RBAC target access policy denies"),
            DenyReason::Msod(d) => write!(f, "MSoD violation: {d}"),
            DenyReason::ResourceLimit(limit) => write!(f, "resource limit: {limit}"),
            DenyReason::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            DenyReason::NotPrimary => {
                write!(f, "not the primary replica: decisions must go to the lease holder")
            }
        }
    }
}

/// The PDP's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionOutcome {
    /// Access granted. `msod` describes what the MSoD stage recorded;
    /// `None` when no MSoD policy applied.
    Grant {
        /// The roles the decision was based on (post-validation).
        roles: Vec<RoleRef>,
        /// MSoD bookkeeping, when an MSoD policy matched.
        msod: Option<GrantDetail>,
    },
    /// Access denied.
    Deny {
        /// The roles the decision was based on (post-validation; empty
        /// when validation itself failed).
        roles: Vec<RoleRef>,
        /// Human-readable explanation.
        reason: DenyReason,
    },
}

impl DecisionOutcome {
    /// Whether access was granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, DecisionOutcome::Grant { .. })
    }

    /// The denial reason, if denied.
    pub fn deny_reason(&self) -> Option<&DenyReason> {
        match self {
            DecisionOutcome::Deny { reason, .. } => Some(reason),
            DecisionOutcome::Grant { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let req = DecisionRequest::with_roles(
            "cn=alice",
            vec![RoleRef::new("e", "Teller")],
            "op",
            "t",
            "A=1".parse().unwrap(),
            5,
        );
        assert_eq!(req.subject, "cn=alice");
        assert!(matches!(req.credentials, Credentials::Validated(_)));

        let grant = DecisionOutcome::Grant { roles: vec![], msod: None };
        assert!(grant.is_granted());
        assert!(grant.deny_reason().is_none());
        let deny = DecisionOutcome::Deny { roles: vec![], reason: DenyReason::RbacDenied };
        assert!(!deny.is_granted());
        assert_eq!(deny.deny_reason(), Some(&DenyReason::RbacDenied));
    }

    #[test]
    fn deny_reason_display() {
        assert!(DenyReason::RbacDenied.to_string().contains("RBAC"));
        assert!(DenyReason::SubjectOutsideDomain.to_string().contains("domain"));
        assert!(DenyReason::InvalidRequest("x".into()).to_string().contains("x"));
    }
}
