//! Experiment E1 — the paper's motivating claim (§1, §2.1):
//! ANSI RBAC's SSD and DSD constraints, implemented faithfully, fail in
//! (a) multi-authority virtual organisations, (b) business processes
//! spanning sessions, and (c) partial role disclosure — and MSoD closes
//! each gap.

use msod::{MemoryAdi, Mmer, MsodEngine, MsodPolicy, MsodPolicySet, MsodRequest, RoleRef};
use rbac::{HierarchyKind, Rbac, RbacError};

/// ANSI SSD works when one administrative function sees all
/// assignments...
#[test]
fn ssd_works_in_a_single_domain() {
    let mut sys = Rbac::new(HierarchyKind::General);
    let alice = sys.add_user("alice").unwrap();
    let teller = sys.add_role("Teller").unwrap();
    let auditor = sys.add_role("Auditor").unwrap();
    sys.create_ssd_set("bank", [teller, auditor], 2).unwrap();
    sys.assign_user(alice, teller).unwrap();
    assert!(matches!(sys.assign_user(alice, auditor), Err(RbacError::SsdViolation { .. })));
}

/// ...but in a VO each authority runs its own RBAC system: neither
/// violates its local SSD, yet the user ends up holding both
/// conflicting roles (§2.1: "no single administrative function will
/// know all the roles that have already been assigned").
#[test]
fn ssd_fails_across_independent_authorities() {
    let make_domain = |role_name: &str| {
        let mut sys = Rbac::new(HierarchyKind::General);
        let alice = sys.add_user("alice").unwrap();
        let teller = sys.add_role("Teller").unwrap();
        let auditor = sys.add_role("Auditor").unwrap();
        sys.create_ssd_set("bank", [teller, auditor], 2).unwrap();
        let role = if role_name == "Teller" { teller } else { auditor };
        sys.assign_user(alice, role).unwrap();
        (sys, alice, role)
    };
    // Domain A assigns Teller; domain B independently assigns Auditor.
    let (domain_a, alice_a, _) = make_domain("Teller");
    let (domain_b, alice_b, _) = make_domain("Auditor");
    // Both local SSD checks passed; alice factually holds both roles.
    assert_eq!(domain_a.assigned_roles(alice_a).unwrap().len(), 1);
    assert_eq!(domain_b.assigned_roles(alice_b).unwrap().len(), 1);
    // No error was ever raised anywhere: the conflict is invisible.
}

/// ANSI DSD only constrains *simultaneous* activation within a session:
/// activating the conflicting roles in two sequential sessions slips
/// through (§2.1: "a user may never activate conflicting roles
/// simultaneously").
#[test]
fn dsd_blind_to_sequential_sessions() {
    let mut sys = Rbac::new(HierarchyKind::General);
    let alice = sys.add_user("alice").unwrap();
    let teller = sys.add_role("Teller").unwrap();
    let auditor = sys.add_role("Auditor").unwrap();
    sys.create_dsd_set("bank", [teller, auditor], 2).unwrap();
    sys.assign_user(alice, teller).unwrap();
    sys.assign_user(alice, auditor).unwrap(); // DSD permits holding both

    let s1 = sys.create_session(alice, [teller]).unwrap();
    // Simultaneous activation IS blocked:
    assert!(matches!(sys.add_active_role(alice, s1, auditor), Err(RbacError::DsdViolation { .. })));
    sys.delete_session(alice, s1).unwrap();
    // ...but a fresh session activates the conflicting role unhindered.
    let s2 = sys.create_session(alice, [auditor]).unwrap();
    assert!(sys.session(s2).is_ok());
}

/// The MSoD engine run over the same two-session story: the second
/// session is denied, because the decision consults history.
#[test]
fn msod_closes_the_multi_session_gap() {
    let policy = MsodPolicy::new(
        "Branch=*, Period=!".parse().unwrap(),
        None,
        None,
        vec![Mmer::new(
            vec![RoleRef::new("employee", "Teller"), RoleRef::new("employee", "Auditor")],
            2,
        )
        .unwrap()],
        vec![],
    )
    .unwrap();
    let engine = MsodEngine::new(MsodPolicySet::new(vec![policy]));
    let mut adi = MemoryAdi::new();
    let ctx: context::ContextInstance = "Branch=York, Period=2006".parse().unwrap();

    // Session 1: Teller.
    let teller = [RoleRef::new("employee", "Teller")];
    assert!(engine
        .enforce(
            &mut adi,
            &MsodRequest {
                user: "alice",
                roles: &teller,
                operation: "handleCash",
                target: "till",
                context: &ctx,
                timestamp: 1,
            }
        )
        .is_granted());

    // Session 2, later: Auditor — denied where DSD was blind.
    let auditor = [RoleRef::new("employee", "Auditor")];
    assert!(!engine
        .enforce(
            &mut adi,
            &MsodRequest {
                user: "alice",
                roles: &auditor,
                operation: "audit",
                target: "books",
                context: &ctx,
                timestamp: 99,
            }
        )
        .is_granted());
}

/// Partial disclosure: a user holding both roles presents one at a
/// time. Single-session checks see nothing wrong; MSoD still links the
/// sessions by user ID (§2.1's "partially discloses his roles").
#[test]
fn msod_defeats_partial_disclosure() {
    use permis::{Credentials, DecisionRequest, DecisionService};

    let policy_xml = r#"<RBACPolicy id="vo" roleType="employee">
  <SOAPolicy><SOA dn="cn=A"/><SOA dn="cn=B"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="Teller"/><AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy_xml, b"k".to_vec()).unwrap();
    // Two independent authorities, each issuing one role.
    let mut auth_a = credential::Authority::new("cn=A", b"ka".to_vec());
    let mut auth_b = credential::Authority::new("cn=B", b"kb".to_vec());
    pdp.register_authority_key("cn=A", b"ka".to_vec());
    pdp.register_authority_key("cn=B", b"kb".to_vec());
    let teller_cred = auth_a.issue("alice", RoleRef::new("employee", "Teller"), 0, 1000);
    let auditor_cred = auth_b.issue("alice", RoleRef::new("employee", "Auditor"), 0, 1000);

    let req = |creds: Vec<credential::AttributeCredential>, ts| DecisionRequest {
        subject: "alice".into(),
        credentials: Credentials::Push(creds),
        operation: "work".into(),
        target: "res".into(),
        context: "Period=2006".parse().unwrap(),
        environment: vec![],
        timestamp: ts,
    };
    // Session 1: only the Teller credential — granted.
    assert!(pdp.decide(&req(vec![teller_cred], 1)).is_granted());
    // Session 2: only the Auditor credential — each credential is
    // individually valid, but the MSoD history says no.
    assert!(!pdp.decide(&req(vec![auditor_cred], 2)).is_granted());
}
