//! The retained-ADI management port (§4.3).
//!
//! The paper proposes — as immediate future work — "a management port on
//! the PDP ... treating the retained ADI as a target resource that only
//! trusted administrators are allowed to access via the PDP's management
//! port. We can securely maintain the retained ADI, by defining an RBAC
//! policy to protect it. A new role of say 'RetainedADIController' is
//! created with privileges to perform some operations on the retained
//! ADI such as 'remove record' or 'purge'."
//!
//! This module implements that design: management operations are
//! themselves decision requests against the pseudo-target
//! [`MGMT_TARGET`], so the PDP's own policy (and audit trail) governs
//! and records ADI administration. The port itself is
//! [`DecisionService::manage`](crate::DecisionService::manage) and
//! [`DecisionService::inspect`](crate::DecisionService::inspect).

use context::{BoundContext, ContextName};

/// The pseudo-target URI representing the retained ADI resource.
pub const MGMT_TARGET: &str = "pdp:retainedADI";

/// The conventional administrator role name from §4.3.
pub const RETAINED_ADI_CONTROLLER: &str = "RetainedADIController";

/// A management operation on the retained ADI.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagementOp {
    /// Delete every record within a (bound) business context — for
    /// contexts with no defined or implied last step.
    PurgeContext(BoundContext),
    /// Delete records older than a cutoff (age-based cleanup; the
    /// timestamp in each 6-tuple exists "for administrative purposes").
    PurgeOlderThan(u64),
    /// Delete everything.
    PurgeAll,
}

impl ManagementOp {
    /// The operation name checked against the target-access policy.
    pub fn operation_name(&self) -> &'static str {
        match self {
            ManagementOp::PurgeContext(_) => "purgeContext",
            ManagementOp::PurgeOlderThan(_) => "purgeOlderThan",
            ManagementOp::PurgeAll => "purge",
        }
    }
}

/// Convenience: build the bound context for a fully-literal context
/// name string (e.g. `"TaxOffice=Kent"`), as administrators would name
/// the scope to purge.
pub fn purge_scope(name: &str) -> Result<BoundContext, context::ContextError> {
    let parsed: ContextName = name.parse()?;
    BoundContext::from_name(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Credentials, DecisionRequest, DecisionService, DenyReason};
    use msod::RoleRef;

    /// A policy protecting the mgmt port plus one business target, with
    /// an MSoD policy that has NO last step (so only management can
    /// shrink the ADI).
    const POLICY: &str = r#"<RBACPolicy id="vo" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="http://vo/resource">
      <AllowedRole value="Member"/>
      <AllowedRole value="Reviewer"/>
    </TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Project=!">
      <MMER ForbiddenCardinality="2">
        <Role type="permisRole" value="Member"/>
        <Role type="permisRole" value="Reviewer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

    fn service() -> DecisionService {
        DecisionService::from_xml_symbolized(POLICY, b"key".to_vec()).unwrap()
    }

    fn work(svc: &DecisionService, user: &str, role: &str, project: &str, ts: u64) -> bool {
        svc.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("permisRole", role)],
            "work",
            "http://vo/resource",
            format!("Project={project}").parse().unwrap(),
            ts,
        ))
        .is_granted()
    }

    fn controller_creds() -> Credentials {
        Credentials::Validated(vec![RoleRef::new("permisRole", RETAINED_ADI_CONTROLLER)])
    }

    #[test]
    fn controller_can_purge_context() {
        let svc = service();
        assert!(work(&svc, "alice", "Member", "p1", 1));
        assert!(work(&svc, "alice", "Member", "p2", 2));
        assert_eq!(svc.adi().len(), 2);

        let removed = svc
            .manage(
                "cn=admin",
                controller_creds(),
                ManagementOp::PurgeContext(purge_scope("Project=p1").unwrap()),
                10,
            )
            .unwrap();
        assert_eq!(removed, 1);
        assert_eq!(svc.adi().len(), 1);
        // After the purge, alice may review p1 again (fresh instance)
        // but is still locked out of p2.
        assert!(work(&svc, "alice", "Reviewer", "p1", 11));
        assert!(!work(&svc, "alice", "Reviewer", "p2", 12));
    }

    #[test]
    fn non_controller_denied() {
        let svc = service();
        work(&svc, "alice", "Member", "p1", 1);
        let err = svc
            .manage(
                "cn=alice",
                Credentials::Validated(vec![RoleRef::new("permisRole", "Member")]),
                ManagementOp::PurgeAll,
                10,
            )
            .unwrap_err();
        assert_eq!(err, DenyReason::RbacDenied);
        assert_eq!(svc.adi().len(), 1, "denied management must not touch the ADI");
    }

    #[test]
    fn purge_older_than() {
        let svc = service();
        for (i, u) in ["a", "b", "c", "d"].iter().enumerate() {
            work(&svc, u, "Member", "p1", i as u64 * 10);
        }
        let removed = svc
            .manage("cn=admin", controller_creds(), ManagementOp::PurgeOlderThan(15), 100)
            .unwrap();
        assert_eq!(removed, 2);
        assert_eq!(svc.adi().len(), 2);
    }

    #[test]
    fn purge_all() {
        let svc = service();
        work(&svc, "a", "Member", "p1", 1);
        work(&svc, "b", "Member", "p2", 2);
        let removed =
            svc.manage("cn=admin", controller_creds(), ManagementOp::PurgeAll, 10).unwrap();
        assert_eq!(removed, 2);
        assert!(svc.adi().is_empty());
    }

    #[test]
    fn management_actions_are_audited() {
        let svc = service();
        work(&svc, "a", "Member", "p1", 1);
        svc.manage("cn=admin", controller_creds(), ManagementOp::PurgeAll, 10).unwrap();
        let kinds: Vec<audit::EventKind> =
            svc.with_trail(|t| t.open_records().iter().map(|r| r.event.kind).collect());
        // work grant, mgmt grant, admin purge.
        assert!(kinds.contains(&audit::EventKind::AdminPurge));
        assert_eq!(kinds.iter().filter(|k| **k == audit::EventKind::Grant).count(), 2);
    }

    #[test]
    fn inspect_requires_controller_and_filters() {
        let svc = service();
        work(&svc, "alice", "Member", "p1", 1);
        work(&svc, "bob", "Member", "p2", 2);
        // Unauthorized read refused.
        assert!(svc
            .inspect(
                "cn=alice",
                Credentials::Validated(vec![RoleRef::new("permisRole", "Member")]),
                None,
                5,
            )
            .is_err());
        // Controller reads all, then filtered.
        let all = svc.inspect("cn=admin", controller_creds(), None, 6).unwrap();
        assert_eq!(all.len(), 2);
        let alice_only = svc.inspect("cn=admin", controller_creds(), Some("alice"), 7).unwrap();
        assert_eq!(alice_only.len(), 1);
        assert_eq!(alice_only[0].user, "alice");
        // Reads never mutate.
        assert_eq!(svc.adi().len(), 2);
    }

    #[test]
    fn purge_scope_rejects_unbound() {
        assert!(purge_scope("Project=p1").is_ok());
        assert!(purge_scope("Project=!").is_err());
        assert!(purge_scope("Project=*").is_ok()); // '*' is a legal bound wildcard
    }
}
