//! Extension behaviours beyond the paper's minimum: nested-context
//! termination cascades (§3's containment inference), delegated roles
//! under MSoD, and the strict first-step engine option.

use credential::{Authority, DelegableCredential, DelegationChain, Delegator};
use msod::{EngineOptions, RoleRef};
use permis::{Credentials, DecisionRequest, DecisionService};

/// §3: "If the last step is omitted, the PDP may infer that a business
/// context is no longer active if a containing business context
/// [instance] is terminated (since all the contained ones must also be
/// terminated)." Terminating an OUTER policy's context purges the
/// retained ADI of contained instances, because the bound outer context
/// covers every subordinate record.
#[test]
fn outer_termination_cascades_to_inner_contexts() {
    let policy = r#"<RBACPolicy id="nested" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
    <TargetAccess operation="closeProject" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <!-- Outer policy: per project, with a last step. -->
    <MSoDPolicy BusinessContext="Project=!">
      <LastStep operation="closeProject" targetURI="res"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/><Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
    <!-- Inner policy: per task within a project, NO last step. -->
    <MSoDPolicy BusinessContext="Project=!, Task=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/><Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let act = |pdp: &DecisionService, user: &str, role: &str, op: &str, ctx: &str, ts: u64| {
        pdp.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", role)],
            op,
            "res",
            ctx.parse().unwrap(),
            ts,
        ))
        .is_granted()
    };

    // Work inside two tasks of project p1; records accumulate for both
    // the outer and inner scopes (one record each, shared).
    assert!(act(&pdp, "alice", "A", "work", "Project=p1, Task=t1", 1));
    assert!(act(&pdp, "alice", "A", "work", "Project=p1, Task=t2", 2));
    assert!(act(&pdp, "bob", "B", "work", "Project=p2, Task=t9", 3));
    assert_eq!(pdp.adi().len(), 3);

    // Inner scope bites within a task...
    assert!(!act(&pdp, "alice", "B", "work", "Project=p1, Task=t1", 4));

    // Terminating the CONTAINING project purges the contained task
    // records too — the §3 inference.
    assert!(act(&pdp, "zoe", "A", "closeProject", "Project=p1", 5));
    assert_eq!(pdp.adi().len(), 1, "only project p2's record survives");
    assert!(act(&pdp, "alice", "B", "work", "Project=p1, Task=t1", 6));

    // p2 was untouched by p1's closure.
    assert!(!act(&pdp, "bob", "A", "work", "Project=p2, Task=t9", 7));
}

/// A role acquired through a valid delegation chain is still a role:
/// once the delegatee uses it, MSoD history binds them like anyone
/// else. (Delegation widens who *holds* roles — precisely why
/// decision-time history checking matters in a VO.)
#[test]
fn delegated_roles_are_subject_to_msod() {
    let policy = r#"<RBACPolicy id="vo" roleType="e">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="Signer"/><AllowedRole value="Payer"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Cheque=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="Signer"/><Role type="e" value="Payer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();

    // SOA issues alice a delegable Signer role; alice delegates to bob.
    let mut soa = Authority::new("cn=SOA", b"soa-key".to_vec());
    pdp.register_authority_key("cn=SOA", b"soa-key".to_vec());
    let mut cvs = credential::CredentialValidationService::new();
    cvs.register_key("cn=SOA", b"soa-key".to_vec());
    cvs.trust("cn=SOA");
    let mut alice = Delegator::new("cn=alice", "alice-key", b"alice-key".to_vec());
    cvs.register_key(alice.dn(), alice.verification_key().to_vec());

    let chain = DelegationChain::root(DelegableCredential {
        credential: soa.issue("cn=alice", RoleRef::new("e", "Signer"), 0, 1000),
        remaining_depth: 1,
        holder_key_id: "alice-key".into(),
    });
    let chain = alice.delegate(&chain, "cn=bob", 0, 1000).unwrap();
    let bob_role = cvs.validate_chain("cn=bob", &chain, 10).unwrap();
    assert_eq!(bob_role, RoleRef::new("e", "Signer"));

    // bob uses the delegated role on cheque 7 — retained like any grant.
    let out = pdp.decide(&DecisionRequest::with_roles(
        "cn=bob",
        vec![bob_role],
        "work",
        "res",
        "Cheque=7".parse().unwrap(),
        11,
    ));
    assert!(out.is_granted());

    // Later, bob gets a (directly issued) Payer role. MSoD still says
    // no on the same cheque.
    let payer = soa.issue("cn=bob", RoleRef::new("e", "Payer"), 0, 1000);
    let out = pdp.decide(&DecisionRequest {
        subject: "cn=bob".into(),
        credentials: Credentials::Push(vec![payer]),
        operation: "work".into(),
        target: "res".into(),
        context: "Cheque=7".parse().unwrap(),
        environment: vec![],
        timestamp: 50,
    });
    assert!(!out.is_granted());
}

/// The strict first-step option closes the published algorithm's window
/// where the context-starting operation skips constraint checks.
#[test]
fn strict_first_step_option_end_to_end() {
    let policy_xml = r#"<RBACPolicy id="strict" roleType="e">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="A"/><Role type="e" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let both = vec![RoleRef::new("e", "A"), RoleRef::new("e", "B")];
    let req = DecisionRequest::with_roles("u", both, "work", "res", "P=1".parse().unwrap(), 1);

    // Faithful mode: the starting operation slips through (step 4).
    let faithful = DecisionService::from_xml_symbolized(policy_xml, b"k".to_vec()).unwrap();
    assert!(faithful.decide(&req).is_granted());

    // Strict mode: denied even on the first step.
    let strict = DecisionService::from_xml_symbolized(policy_xml, b"k".to_vec()).unwrap();
    strict.set_engine_options(EngineOptions { check_constraints_on_first_step: true });
    assert!(!strict.decide(&req).is_granted());
}

/// Environmental conditions (§4.1's contextual information) gate the
/// RBAC layer: the same request succeeds inside office hours and fails
/// outside them, independently of MSoD.
#[test]
fn environment_conditions_gate_rbac() {
    let policy = r#"<RBACPolicy id="hours" roleType="e">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <Condition name="timeOfDay" ge="09:00" le="17:00"/>
      <AllowedRole value="Clerk"/>
    </TargetAccess>
  </TargetAccessPolicy>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let mut req = DecisionRequest::with_roles(
        "u",
        vec![RoleRef::new("e", "Clerk")],
        "work",
        "res",
        "P=1".parse().unwrap(),
        1,
    );
    req.environment = vec![("timeOfDay".into(), "10:15".into())];
    assert!(pdp.decide(&req).is_granted());
    req.environment = vec![("timeOfDay".into(), "22:40".into())];
    assert!(!pdp.decide(&req).is_granted());
    req.environment.clear(); // missing parameter fails closed
    assert!(!pdp.decide(&req).is_granted());
}

/// Crash consistency at arbitrary cut points: for any prefix of a
/// workload, persist → crash → recover yields a PDP that continues the
/// suffix with decisions identical to a PDP that never crashed.
#[test]
fn recovery_consistent_at_any_cut_point() {
    use audit::TrailStore;
    use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

    let cfg =
        WorkloadConfig { users: 8, contexts: 3, role_pairs: 2, requests: 60, terminate_percent: 8 };
    let policy = workload_policy_xml(&cfg);
    let requests = gen_requests(&cfg, 77);

    for cut in [1usize, 7, 23, 42, 59] {
        let dir = std::env::temp_dir().join(format!("msod-cut-{}-{cut}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let survivor = DecisionService::from_xml_symbolized(&policy, b"key".to_vec()).unwrap();
        let victim = DecisionService::from_xml_symbolized(&policy, b"key".to_vec()).unwrap();
        victim.attach_store(TrailStore::open(&dir).unwrap());

        for req in &requests[..cut] {
            let a = survivor.decide(req).is_granted();
            let b = victim.decide(req).is_granted();
            assert_eq!(a, b);
        }
        victim.rotate_and_persist().unwrap();
        drop(victim);

        let recovered = DecisionService::from_xml_symbolized(&policy, b"key".to_vec()).unwrap();
        recovered.attach_store(TrailStore::open(&dir).unwrap());
        recovered.recover(usize::MAX, 0).unwrap();
        assert_eq!(recovered.adi().snapshot(), survivor.adi().snapshot(), "cut at {cut}");

        for (i, req) in requests[cut..].iter().enumerate() {
            let a = survivor.decide(req).is_granted();
            let b = recovered.decide(req).is_granted();
            assert_eq!(a, b, "cut {cut}, suffix request {i}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// What-if evaluation via a clone: probing a service seeded with a copy
/// of the live retained ADI answers "would this be denied?" without
/// contaminating the live history.
#[test]
fn what_if_probing_with_clone() {
    let policy = r#"<RBACPolicy id="whatif" roleType="e">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="A"/><Role type="e" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let live = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let req = |role: &str, ts| {
        DecisionRequest::with_roles(
            "u",
            vec![RoleRef::new("e", role)],
            "work",
            "res",
            "P=1".parse().unwrap(),
            ts,
        )
    };
    assert!(live.decide(&req("A", 1)).is_granted());
    let before = live.adi().snapshot();

    // Probe: would role B be denied? Ask a clone.
    let probe = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    probe.adi().with_exclusive(|adi| before.iter().cloned().for_each(|rec| adi.add(rec)));
    assert!(!probe.decide(&req("B", 2)).is_granted());
    // Would a different user's B be granted?
    let other = DecisionRequest::with_roles(
        "v",
        vec![RoleRef::new("e", "B")],
        "work",
        "res",
        "P=1".parse().unwrap(),
        3,
    );
    assert!(probe.decide(&other).is_granted());

    // The live PDP is untouched by all the probing.
    assert_eq!(live.adi().snapshot(), before);
    assert_eq!(live.with_trail(|t| t.len()), 1);
}

/// Revocation propagates into decisions: a revoked credential stops
/// working mid-stream, but history already made stays retained.
#[test]
fn revocation_mid_stream() {
    let policy = r#"<RBACPolicy id="rev" roleType="e">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res"><AllowedRole value="A"/><AllowedRole value="B"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <MMER ForbiddenCardinality="2">
        <Role type="e" value="A"/><Role type="e" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let mut soa = Authority::new("cn=SOA", b"soa".to_vec());
    pdp.register_authority_key("cn=SOA", b"soa".to_vec());
    let cred_a = soa.issue("u", RoleRef::new("e", "A"), 0, 1000);
    let serial = cred_a.serial;

    let mk = |cred: credential::AttributeCredential, ts| DecisionRequest {
        subject: "u".into(),
        credentials: Credentials::Push(vec![cred]),
        operation: "work".into(),
        target: "res".into(),
        context: "P=1".parse().unwrap(),
        environment: vec![],
        timestamp: ts,
    };
    assert!(pdp.decide(&mk(cred_a.clone(), 1)).is_granted());

    // The SOA revokes the credential; the CVS learns of it.
    soa.revoke(serial);
    pdp.revoke_credential("cn=SOA", serial);
    assert!(!pdp.decide(&mk(cred_a, 2)).is_granted());

    // The retained history from the pre-revocation grant still binds:
    // u may not now act as B in the same instance.
    let cred_b = soa.issue("u", RoleRef::new("e", "B"), 0, 1000);
    assert!(!pdp.decide(&mk(cred_b, 3)).is_granted());
    assert_eq!(pdp.adi().len(), 1);
}
