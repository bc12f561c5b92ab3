//! Experiment E12 — §4.3: the retained-ADI management port, protected by
//! the PDP's own RBAC policy via the `RetainedADIController` role, with
//! real signed credentials for the administrators.

use credential::Authority;
use msod::RoleRef;
use permis::{
    purge_scope, Credentials, DecisionRequest, DecisionService, DenyReason, ManagementOp,
    RETAINED_ADI_CONTROLLER,
};

/// A VO policy whose MSoD context has **no last step** — exactly the
/// case §4.3 says needs administrative management, "otherwise it will
/// get too large and performance will be degraded".
const POLICY: &str = r#"<RBACPolicy id="vo" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=VO-Admin"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="contribute" targetURI="http://vo/data">
      <AllowedRole value="Contributor"/><AllowedRole value="Reviewer"/>
    </TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Project=!">
      <MMER ForbiddenCardinality="2">
        <Role type="permisRole" value="Contributor"/>
        <Role type="permisRole" value="Reviewer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

struct Vo {
    pdp: DecisionService,
    soa: Authority,
}

impl Vo {
    fn new() -> Self {
        let pdp = DecisionService::from_xml_symbolized(POLICY, b"vo-key".to_vec()).unwrap();
        let soa = Authority::new("cn=VO-Admin", b"soa-key".to_vec());
        pdp.register_authority_key(soa.dn(), soa.verification_key().to_vec());
        Vo { pdp, soa }
    }

    fn contribute(&mut self, user: &str, role: &str, project: &str, ts: u64) -> bool {
        let cred = self.soa.issue(user, RoleRef::new("permisRole", role), 0, u64::MAX);
        self.pdp
            .decide(&DecisionRequest {
                subject: user.into(),
                credentials: Credentials::Push(vec![cred]),
                operation: "contribute".into(),
                target: "http://vo/data".into(),
                context: format!("Project={project}").parse().unwrap(),
                environment: vec![],
                timestamp: ts,
            })
            .is_granted()
    }

    fn admin_creds(&mut self, user: &str) -> Credentials {
        Credentials::Push(vec![self.soa.issue(
            user,
            RoleRef::new("permisRole", RETAINED_ADI_CONTROLLER),
            0,
            u64::MAX,
        )])
    }
}

#[test]
fn adi_grows_without_last_step_until_managed() {
    let mut vo = Vo::new();
    for i in 0..20 {
        assert!(vo.contribute(&format!("user{i}"), "Contributor", "alpha", i));
    }
    assert_eq!(vo.pdp.adi().len(), 20, "no last step: nothing ever purges");

    let creds = vo.admin_creds("cn=root");
    let removed = vo
        .pdp
        .manage(
            "cn=root",
            creds,
            ManagementOp::PurgeContext(purge_scope("Project=alpha").unwrap()),
            100,
        )
        .unwrap();
    assert_eq!(removed, 20);
    assert!(vo.pdp.adi().is_empty());
}

#[test]
fn purge_is_scoped_to_the_named_context() {
    let mut vo = Vo::new();
    vo.contribute("alice", "Contributor", "alpha", 1);
    vo.contribute("bob", "Contributor", "beta", 2);
    let creds = vo.admin_creds("cn=root");
    vo.pdp
        .manage(
            "cn=root",
            creds,
            ManagementOp::PurgeContext(purge_scope("Project=alpha").unwrap()),
            10,
        )
        .unwrap();
    // alpha freed; beta still constrained.
    assert!(vo.contribute("alice", "Reviewer", "alpha", 11));
    assert!(!vo.contribute("bob", "Reviewer", "beta", 12));
}

#[test]
fn age_based_purge() {
    let mut vo = Vo::new();
    vo.contribute("old", "Contributor", "alpha", 10);
    vo.contribute("new", "Contributor", "alpha", 9_000);
    let creds = vo.admin_creds("cn=root");
    let removed =
        vo.pdp.manage("cn=root", creds, ManagementOp::PurgeOlderThan(5_000), 10_000).unwrap();
    assert_eq!(removed, 1);
    assert!(vo.contribute("old", "Reviewer", "alpha", 10_001));
    assert!(!vo.contribute("new", "Reviewer", "alpha", 10_002));
}

#[test]
fn only_the_controller_role_may_manage() {
    let mut vo = Vo::new();
    vo.contribute("alice", "Contributor", "alpha", 1);

    // A contributor with a perfectly valid credential is refused.
    let cred = vo.soa.issue("alice", RoleRef::new("permisRole", "Contributor"), 0, u64::MAX);
    let err = vo
        .pdp
        .manage("alice", Credentials::Push(vec![cred]), ManagementOp::PurgeAll, 10)
        .unwrap_err();
    assert_eq!(err, DenyReason::RbacDenied);

    // A forged controller credential is refused by the CVS.
    let mut wrong = Authority::new("cn=VO-Admin", b"not-the-key".to_vec());
    let forged =
        wrong.issue("mallory", RoleRef::new("permisRole", RETAINED_ADI_CONTROLLER), 0, u64::MAX);
    let err = vo
        .pdp
        .manage("mallory", Credentials::Push(vec![forged]), ManagementOp::PurgeAll, 11)
        .unwrap_err();
    assert!(matches!(err, DenyReason::NoValidRoles { .. }));

    assert_eq!(vo.pdp.adi().len(), 1, "failed management attempts change nothing");
}

#[test]
fn management_survives_recovery() {
    // A management purge must hold after a crash/restart: recovery
    // replays the AdminPurge audit record.
    let dir = std::env::temp_dir().join(format!("msod-mgmt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut vo = Vo::new();
        vo.pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
        vo.contribute("alice", "Contributor", "alpha", 1);
        vo.contribute("bob", "Contributor", "beta", 2);
        let creds = vo.admin_creds("cn=root");
        vo.pdp
            .manage(
                "cn=root",
                creds,
                ManagementOp::PurgeContext(purge_scope("Project=alpha").unwrap()),
                10,
            )
            .unwrap();
        vo.pdp.rotate_and_persist().unwrap();
    }
    let mut vo = Vo::new();
    vo.pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
    let report = vo.pdp.recover(usize::MAX, 0).unwrap();
    assert!(report.purges_applied >= 1);
    // alpha's record is gone; beta's survives.
    assert_eq!(vo.pdp.adi().len(), 1);
    assert!(vo.contribute("alice", "Reviewer", "alpha", 100));
    assert!(!vo.contribute("bob", "Reviewer", "beta", 101));
    let _ = std::fs::remove_dir_all(&dir);
}
