//! Experiments E10/E11 — the §6 related-work comparison, executable:
//! the same scenarios through (a) the MSoD PDP, (b) the Bertino
//! precomputed-assignment planner [12], (c) the Crampton anti-role
//! enforcer [18]. Each test pins one cell of the expressiveness matrix
//! recorded in EXPERIMENTS.md.

use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};
use workflow::{
    AntiRoleEnforcer, Assignment, BertinoPlanner, ProcessDefinition, ProcessRun, TAX_POLICY,
};

fn rr(v: &str) -> RoleRef {
    RoleRef::new("employee", v)
}

/// Cell 1 — the tax-refund workflow: BOTH MSoD and Bertino enforce all
/// four SoD rules (agreement on the paper's shared example).
#[test]
fn both_enforce_the_workflow_example() {
    // MSoD side.
    let pdp = DecisionService::from_xml_symbolized(TAX_POLICY, b"k".to_vec()).unwrap();
    let mut run = ProcessRun::new(
        ProcessDefinition::tax_refund(),
        "TaxOffice=Kent, taxRefundProcess=1".parse().unwrap(),
    );
    // Bertino side.
    let mut planner = BertinoPlanner::new(ProcessDefinition::tax_refund());
    planner.tax_refund_constraints();
    for c in ["carol", "chris"] {
        planner.add_user(c, ["Clerk".to_owned()]);
    }
    for m in ["mike", "mary", "max"] {
        planner.add_user(m, ["Manager".to_owned()]);
    }
    let mut assignment = Assignment::new();

    let script: [(&str, &str, bool); 8] = [
        ("T1", "carol", true),
        ("T2", "mike", true),
        ("T2", "mike", false), // same manager twice
        ("T2", "mary", true),
        ("T3", "mike", false), // approver collects
        ("T3", "max", true),
        ("T4", "carol", false), // preparer confirms
        ("T4", "chris", true),
    ];
    for (ts, (task, user, expect)) in script.iter().enumerate() {
        let msod_says = run.attempt(&pdp, task, user, ts as u64).is_granted();
        let bertino_says = planner.authorize(&assignment, task, user);
        assert_eq!(msod_says, *expect, "MSoD at {task}/{user}");
        assert_eq!(bertino_says, *expect, "Bertino at {task}/{user}");
        if *expect {
            assignment.entry((*task).to_owned()).or_default().push((*user).to_owned());
        }
    }
}

/// Cell 2 — Example 1 (bank audit): no workflow exists. MSoD enforces
/// it; the Bertino planner cannot even pose the question (its API is
/// task-bound: every authorization names a workflow task).
#[test]
fn bertino_cannot_express_nonworkflow_sod() {
    // MSoD enforces the ad-hoc operation stream.
    let policy = r#"<RBACPolicy id="bank" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
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
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let act = |pdp: &DecisionService, role: &str, ts: u64| {
        pdp.decide(&DecisionRequest::with_roles(
            "alice",
            vec![rr(role)],
            "work",
            "res",
            "Period=2006".parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    assert!(act(&pdp, "Teller", 1));
    assert!(!act(&pdp, "Auditor", 2));

    // The Bertino planner has no notion of an operation outside a
    // pre-declared workflow task: an unknown task is unanswerable
    // (authorize returns false for *everyone*, i.e. it cannot implement
    // this policy at all — it would have to deny all business).
    let planner = BertinoPlanner::new(ProcessDefinition::tax_refund());
    let a = Assignment::new();
    assert!(!planner.authorize(&a, "handleCash", "alice"));
    assert!(!planner.authorize(&a, "handleCash", "anyone-else"));
}

/// Cell 3 — the VO / partial-knowledge failure: Bertino's soundness
/// rests on complete central knowledge of user-role assignments; MSoD
/// needs none (it reacts to the roles actually presented).
#[test]
fn bertino_requires_central_knowledge_msod_does_not() {
    // Planner believes carol is only a Clerk.
    let mut planner = BertinoPlanner::new(ProcessDefinition::tax_refund());
    planner.tax_refund_constraints();
    planner.add_user("carol", ["Clerk".to_owned()]);
    planner.add_user("chris", ["Clerk".to_owned()]);
    for m in ["mike", "mary", "max"] {
        planner.add_user(m, ["Manager".to_owned()]);
    }
    let mut a = Assignment::new();
    assert!(planner.authorize(&a, "T1", "carol"));
    a.entry("T1".into()).or_default().push("carol".into());
    // Carol's second (externally issued) Manager role is invisible to
    // the central planner — it denies her T2 for the WRONG reason (no
    // role), and once the role is registered there is no T1/T2
    // constraint so she could hold both pen and stamp.
    assert!(!planner.authorize(&a, "T2", "carol"));
    planner.add_user("carol", ["Manager".to_owned()]);
    assert!(planner.authorize(&a, "T2", "carol"), "planner blind spot");

    // MSoD: carol presents her externally-issued Manager role; the PDP
    // never knew her full role set, yet the per-instance MMEP still
    // applies to whatever she *does*.
    let pdp = DecisionService::from_xml_symbolized(TAX_POLICY, b"k".to_vec()).unwrap();
    let ctx: context::ContextInstance = "TaxOffice=Kent, taxRefundProcess=1".parse().unwrap();
    assert!(pdp
        .decide(&DecisionRequest::with_roles(
            "carol",
            vec![rr("Clerk")],
            "prepareCheck",
            "http://www.myTaxOffice.com/Check",
            ctx.clone(),
            1,
        ))
        .is_granted());
    assert!(pdp
        .decide(&DecisionRequest::with_roles(
            "carol",
            vec![rr("Manager")],
            "approve/disapproveCheck",
            "http://www.myTaxOffice.com/Check",
            ctx.clone(),
            2,
        ))
        .is_granted());
    // But she cannot ALSO confirm the check she prepared — history, not
    // role knowledge, is what binds her.
    assert!(!pdp
        .decide(&DecisionRequest::with_roles(
            "carol",
            vec![rr("Clerk")],
            "confirmCheck",
            "http://secret.location.com/audit",
            ctx,
            3,
        ))
        .is_granted());
}

/// Cell 4 — anti-roles enforce the basic exclusion but cannot scope it:
/// ending one business context forgets every other one too (E11).
#[test]
fn antirole_purge_is_unscoped_msod_purge_is_exact() {
    // Anti-role enforcer: Teller/Auditor exclusion + Preparer/Confirmer.
    let mut anti = AntiRoleEnforcer::new();
    anti.add_rule(vec![rr("Teller"), rr("Auditor")]);
    anti.add_rule(vec![rr("Preparer"), rr("Confirmer")]);
    assert!(anti.decide("alice", &rr("Teller")));
    assert!(anti.decide("carol", &rr("Preparer")));
    assert!(!anti.permits("alice", &rr("Auditor")));
    assert!(!anti.permits("carol", &rr("Confirmer")));
    // End the audit period: the ONLY tool is a global purge, which also
    // frees carol mid-process.
    anti.periodic_purge();
    assert!(anti.permits("carol", &rr("Confirmer")), "collateral damage");

    // MSoD: terminating the audit period purges exactly that context.
    let policy = r#"<RBACPolicy id="both" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="Teller"/><AllowedRole value="Auditor"/>
      <AllowedRole value="Preparer"/><AllowedRole value="Confirmer"/>
    </TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="res">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Period=!">
      <LastStep operation="CommitAudit" targetURI="res"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
    <MSoDPolicy BusinessContext="Refund=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Preparer"/>
        <Role type="employee" value="Confirmer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let act = |pdp: &DecisionService, user: &str, role: &str, op: &str, ctx: &str, ts: u64| {
        pdp.decide(&DecisionRequest::with_roles(
            user,
            vec![rr(role)],
            op,
            "res",
            ctx.parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    assert!(act(&pdp, "alice", "Teller", "work", "Period=2006", 1));
    assert!(act(&pdp, "carol", "Preparer", "work", "Refund=77", 2));
    // Commit the audit: the Period context is flushed...
    assert!(act(&pdp, "zoe", "Auditor", "CommitAudit", "Period=2006", 3));
    assert!(act(&pdp, "alice", "Auditor", "work", "Period=2006", 4));
    // ...while carol's live refund constraint is untouched.
    assert!(!act(&pdp, "carol", "Confirmer", "work", "Refund=77", 5));
}

/// Cell 5 — anti-roles cannot express m-out-of-n (m > 2); MSoD can.
#[test]
fn antirole_cannot_do_m_of_n() {
    // Anti-role: acting in A immediately prohibits B and C — this is
    // 2-out-of-3, not 3-out-of-3.
    let mut anti = AntiRoleEnforcer::new();
    anti.add_rule(vec![rr("A"), rr("B"), rr("C")]);
    assert!(anti.decide("u", &rr("A")));
    assert!(!anti.permits("u", &rr("B")), "anti-role over-restricts at m=3");

    // MSoD with ForbiddenCardinality 3 allows any two, forbids three.
    let policy = r#"<RBACPolicy id="m3" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/><AllowedRole value="C"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <MMER ForbiddenCardinality="3">
        <Role type="employee" value="A"/>
        <Role type="employee" value="B"/>
        <Role type="employee" value="C"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let pdp = DecisionService::from_xml_symbolized(policy, b"k".to_vec()).unwrap();
    let act = |pdp: &DecisionService, role: &str, ts: u64| {
        pdp.decide(&DecisionRequest::with_roles(
            "u",
            vec![rr(role)],
            "work",
            "res",
            "P=1".parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    assert!(act(&pdp, "A", 1));
    assert!(act(&pdp, "B", 2), "two of three is allowed at m=3");
    assert!(!act(&pdp, "C", 3), "the third is forbidden");
}

/// Blacklist growth (E11's correctness side): anti-role state grows
/// monotonically with touched rules; MSoD's retained ADI shrinks at
/// every context termination.
#[test]
fn state_growth_profiles_differ() {
    let mut anti = AntiRoleEnforcer::new();
    for i in 0..30 {
        anti.add_rule(vec![rr(&format!("X{i}")), rr(&format!("Y{i}"))]);
    }
    for i in 0..30 {
        anti.decide("u", &rr(&format!("X{i}")));
    }
    assert_eq!(anti.total_prohibitions(), 30);

    let cfg = workflow::scenarios::WorkloadConfig {
        users: 10,
        contexts: 5,
        role_pairs: 2,
        requests: 400,
        terminate_percent: 20, // frequent last steps
    };
    let pdp = DecisionService::from_xml_symbolized(
        &workflow::scenarios::workload_policy_xml(&cfg),
        b"k".to_vec(),
    )
    .unwrap();
    let mut max_adi = 0usize;
    for req in workflow::scenarios::gen_requests(&cfg, 5) {
        pdp.decide(&req);
        max_adi = max_adi.max(pdp.adi().len());
    }
    // With 20% terminations the ADI stays small relative to request
    // count — bounded steady state, not monotone growth.
    assert!(max_adi < 100, "ADI peaked at {max_adi} for 400 requests");
}
