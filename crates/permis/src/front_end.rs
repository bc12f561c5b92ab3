//! The stateless decision front end of the PERMIS CVS/PDP (paper §5,
//! Figure 4): subject-domain check, CVS credential validation and the
//! interim RBAC decision that run before the MSoD stage, plus the
//! role encoding the audit trail stores.

use credential::{CredentialValidationService, Directory};
use msod::RoleRef;
use policy::PdpPolicy;

use crate::request::{Credentials, DecisionRequest, DenyReason};

/// The stateless decision front end — subject domain check, CVS
/// credential validation, interim RBAC decision — run by
/// [`crate::DecisionService::decide`] before the MSoD stage. Every
/// input is borrowed immutably, which is what lets the service run it
/// against a shared core snapshot without locking. Returns the
/// validated roles, or the roles known so far plus the denial.
#[allow(clippy::result_large_err)]
pub(crate) fn validate_front_end(
    policy: &PdpPolicy,
    cvs: &CredentialValidationService,
    directory: &Directory,
    req: &DecisionRequest,
) -> Result<Vec<RoleRef>, (Vec<RoleRef>, DenyReason)> {
    // §4.1: the user's ID is mandatory for MSoD — without it the PDP
    // cannot link the user's sessions together.
    if req.subject.trim().is_empty() {
        return Err((
            Vec::new(),
            DenyReason::InvalidRequest("subject ID is mandatory for multi-session SoD".into()),
        ));
    }
    // The audit encoding stores the context instance in display form;
    // reject values it cannot round-trip.
    if req.context.pairs().iter().any(|(t, v)| t.contains(',') || v.contains(',')) {
        return Err((
            Vec::new(),
            DenyReason::InvalidRequest("business-context types/values must not contain ','".into()),
        ));
    }

    if !policy.covers_subject(&req.subject) {
        return Err((Vec::new(), DenyReason::SubjectOutsideDomain));
    }

    // CVS stage.
    let (roles, rejected) = match &req.credentials {
        Credentials::Push(creds) => {
            let out = cvs.validate_push(&req.subject, creds, req.timestamp);
            (out.roles, out.rejected)
        }
        Credentials::Pull => {
            let out = cvs.validate_pull(&req.subject, directory, req.timestamp);
            (out.roles, out.rejected)
        }
        Credentials::Validated(roles) => (roles.clone(), Vec::new()),
    };
    if roles.is_empty() {
        return Err((roles, DenyReason::NoValidRoles { rejected }));
    }

    // Interim RBAC decision (Figure 3's "normal checking"), including
    // any environmental conditions on the matching rules.
    if !policy.rbac_permits_env(&roles, &req.operation, &req.target, &req.environment) {
        return Err((roles, DenyReason::RbacDenied));
    }
    Ok(roles)
}

/// Roles are stored in audit records as `type:value` (role types are
/// NCNames, so the first `:` is unambiguous).
pub(crate) fn encode_role(role: &RoleRef) -> String {
    format!("{}:{}", role.role_type, role.value)
}

/// Inverse of [`encode_role`].
pub(crate) fn decode_role(s: &str) -> Option<RoleRef> {
    let (t, v) = s.split_once(':')?;
    Some(RoleRef::new(t, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecisionService;
    use audit::EventKind;
    use context::ContextInstance;
    use credential::Authority;

    pub(crate) const BANK_POLICY: &str = r#"<RBACPolicy id="bank" roleType="employee">
  <SubjectPolicy>
    <SubjectDomain dn="o=bank"/>
  </SubjectPolicy>
  <SOAPolicy>
    <SOA dn="cn=HR, o=bank"/>
  </SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="http://bank/till">
      <AllowedRole value="Teller"/>
    </TargetAccess>
    <TargetAccess operation="audit" targetURI="http://bank/books">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="http://audit.location.com/audit">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="http://audit.location.com/audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

    fn bank_service() -> (DecisionService, Authority) {
        let svc = DecisionService::from_xml_symbolized(BANK_POLICY, b"trail-key".to_vec()).unwrap();
        let hr = Authority::new("cn=HR, o=bank", b"hr-key".to_vec());
        svc.register_authority_key(hr.dn(), hr.verification_key().to_vec());
        (svc, hr)
    }

    fn ctx(s: &str) -> ContextInstance {
        s.parse().unwrap()
    }

    #[test]
    fn full_pipeline_push_mode() {
        let (svc, mut hr) = bank_service();
        let cred = hr.issue("cn=alice, o=bank", RoleRef::new("employee", "Teller"), 0, 100);
        let req = DecisionRequest {
            subject: "cn=alice, o=bank".into(),
            credentials: Credentials::Push(vec![cred]),
            operation: "handleCash".into(),
            target: "http://bank/till".into(),
            context: ctx("Branch=York, Period=2006"),
            environment: vec![],
            timestamp: 10,
        };
        let out = svc.decide(&req);
        assert!(out.is_granted(), "{out:?}");
        assert_eq!(svc.adi().len(), 1);
        assert_eq!(svc.with_trail(|t| t.len()), 1);
    }

    #[test]
    fn pull_mode_via_directory() {
        let (svc, mut hr) = bank_service();
        let cred = hr.issue("cn=bob, o=bank", RoleRef::new("employee", "Auditor"), 0, 100);
        svc.publish_credential(cred);
        let req = DecisionRequest {
            subject: "cn=bob, o=bank".into(),
            credentials: Credentials::Pull,
            operation: "audit".into(),
            target: "http://bank/books".into(),
            context: ctx("Branch=York, Period=2006"),
            environment: vec![],
            timestamp: 10,
        };
        assert!(svc.decide(&req).is_granted());
    }

    #[test]
    fn msod_deny_across_sessions_and_branches() {
        let (svc, mut hr) = bank_service();
        let teller = hr.issue("cn=alice, o=bank", RoleRef::new("employee", "Teller"), 0, 1000);
        let auditor = hr.issue("cn=alice, o=bank", RoleRef::new("employee", "Auditor"), 0, 1000);

        // Session 1: alice presents ONLY the teller credential (partial
        // disclosure) and handles cash.
        let out = svc.decide(&DecisionRequest {
            subject: "cn=alice, o=bank".into(),
            credentials: Credentials::Push(vec![teller]),
            operation: "handleCash".into(),
            target: "http://bank/till".into(),
            context: ctx("Branch=York, Period=2006"),
            environment: vec![],
            timestamp: 10,
        });
        assert!(out.is_granted());

        // Session 2, weeks later, different branch: only the auditor
        // credential. Standard RBAC would grant; MSoD denies.
        let out = svc.decide(&DecisionRequest {
            subject: "cn=alice, o=bank".into(),
            credentials: Credentials::Push(vec![auditor]),
            operation: "audit".into(),
            target: "http://bank/books".into(),
            context: ctx("Branch=Leeds, Period=2006"),
            environment: vec![],
            timestamp: 500,
        });
        assert!(matches!(out.deny_reason(), Some(DenyReason::Msod(_))), "{out:?}");
        // The denial is in the audit trail.
        assert_eq!(
            svc.with_trail(|t| t.open_records().last().unwrap().event.kind),
            EventKind::Deny
        );
    }

    #[test]
    fn rbac_denies_before_msod() {
        let (svc, _) = bank_service();
        let out = svc.decide(&DecisionRequest::with_roles(
            "cn=alice, o=bank",
            vec![RoleRef::new("employee", "Teller")],
            "audit", // tellers may not audit
            "http://bank/books",
            ctx("Branch=York, Period=2006"),
            10,
        ));
        assert_eq!(out.deny_reason(), Some(&DenyReason::RbacDenied));
        // Nothing retained on an RBAC denial.
        assert_eq!(svc.adi().len(), 0);
    }

    #[test]
    fn subject_domain_enforced() {
        let (svc, _) = bank_service();
        let out = svc.decide(&DecisionRequest::with_roles(
            "cn=eve, o=crime",
            vec![RoleRef::new("employee", "Teller")],
            "handleCash",
            "http://bank/till",
            ctx("Branch=York, Period=2006"),
            10,
        ));
        assert_eq!(out.deny_reason(), Some(&DenyReason::SubjectOutsideDomain));
    }

    #[test]
    fn invalid_credentials_denied() {
        let (svc, mut hr) = bank_service();
        let mut forged = hr.issue("cn=alice, o=bank", RoleRef::new("employee", "Teller"), 0, 100);
        forged.role = RoleRef::new("employee", "Auditor");
        let out = svc.decide(&DecisionRequest {
            subject: "cn=alice, o=bank".into(),
            credentials: Credentials::Push(vec![forged]),
            operation: "audit".into(),
            target: "http://bank/books".into(),
            context: ctx("Branch=York, Period=2006"),
            environment: vec![],
            timestamp: 10,
        });
        assert!(
            matches!(out.deny_reason(), Some(DenyReason::NoValidRoles { rejected }) if rejected.len() == 1)
        );
    }

    #[test]
    fn commit_audit_terminates_context() {
        let (svc, _) = bank_service();
        let york = ctx("Branch=York, Period=2006");
        svc.decide(&DecisionRequest::with_roles(
            "cn=alice, o=bank",
            vec![RoleRef::new("employee", "Teller")],
            "handleCash",
            "http://bank/till",
            york.clone(),
            10,
        ));
        assert_eq!(svc.adi().len(), 1);
        let out = svc.decide(&DecisionRequest::with_roles(
            "cn=zoe, o=bank",
            vec![RoleRef::new("employee", "Auditor")],
            "CommitAudit",
            "http://audit.location.com/audit",
            york,
            20,
        ));
        assert!(out.is_granted());
        assert_eq!(svc.adi().len(), 0);
        // A ContextTerminated event is in the trail.
        assert!(svc.with_trail(|t| t
            .open_records()
            .iter()
            .any(|r| r.event.kind == EventKind::ContextTerminated)));
    }

    #[test]
    fn empty_subject_rejected() {
        let (svc, _) = bank_service();
        let out = svc.decide(&DecisionRequest::with_roles(
            "   ",
            vec![RoleRef::new("employee", "Teller")],
            "handleCash",
            "http://bank/till",
            ctx("Branch=York, Period=2006"),
            10,
        ));
        assert!(matches!(out.deny_reason(), Some(DenyReason::InvalidRequest(_))));
    }

    #[test]
    fn comma_in_context_value_rejected() {
        let (svc, _) = bank_service();
        let bad = ContextInstance::from_pairs(vec![("P".into(), "a,b".into())]).unwrap();
        let out = svc.decide(&DecisionRequest::with_roles(
            "cn=alice, o=bank",
            vec![RoleRef::new("employee", "Teller")],
            "handleCash",
            "http://bank/till",
            bad,
            10,
        ));
        assert!(matches!(out.deny_reason(), Some(DenyReason::InvalidRequest(_))));
    }

    #[test]
    fn role_encoding_roundtrip() {
        let r = RoleRef::new("employee", "Head:Teller");
        assert_eq!(decode_role(&encode_role(&r)).unwrap(), r);
        assert!(decode_role("no-colon").is_none());
    }
}
