//! Experiment E3 — the paper's Example 2 (tax refund, from Bertino et
//! al. [12]) run end-to-end: four sequential tasks, T2 twice by
//! different managers, enforced purely by the PDP's MMEP constraints
//! across multiple user sessions and process instances.

use msod::RoleRef;
use permis::{DecisionRequest, DecisionService, DenyReason};
use workflow::{AttemptOutcome, ProcessDefinition, ProcessRun, TAX_POLICY};

fn pdp() -> DecisionService {
    DecisionService::from_xml_symbolized(TAX_POLICY, b"tax-key".to_vec()).unwrap()
}

fn run(pdp_ref: &DecisionService, instance: u32) -> ProcessRun {
    let _ = &pdp_ref;
    ProcessRun::new(
        ProcessDefinition::tax_refund(),
        format!("TaxOffice=Kent, taxRefundProcess={instance}").parse().unwrap(),
    )
}

/// The paper's happy path needs five people: preparer, two approvers,
/// one collector, one confirmer.
#[test]
fn five_distinct_people_complete_a_refund() {
    let pdp = pdp();
    let mut r = run(&pdp, 1);
    assert!(r.attempt(&pdp, "T1", "carol", 1).is_granted());
    assert!(r.attempt(&pdp, "T2", "mike", 2).is_granted());
    assert!(r.attempt(&pdp, "T2", "mary", 3).is_granted());
    assert!(r.attempt(&pdp, "T3", "max", 4).is_granted());
    assert!(r.attempt(&pdp, "T4", "chris", 5).is_granted());
    assert!(r.is_complete());
    // confirmCheck is the last step: retained ADI flushed.
    assert_eq!(pdp.adi().len(), 0);
}

/// Each of the four Example 2 SoD requirements, denied individually.
#[test]
fn each_sod_rule_bites() {
    // (a) T2 may not be performed twice by the same manager — even via
    // a direct PEP request bypassing the workflow engine.
    let pdp = pdp();
    let mut r = run(&pdp, 1);
    r.attempt(&pdp, "T1", "carol", 1);
    r.attempt(&pdp, "T2", "mike", 2);
    let direct = DecisionRequest::with_roles(
        "mike",
        vec![RoleRef::new("employee", "Manager")],
        "approve/disapproveCheck",
        "http://www.myTaxOffice.com/Check",
        r.context().clone(),
        3,
    );
    assert!(matches!(pdp.decide(&direct).deny_reason(), Some(DenyReason::Msod(_))));

    // (b) the collector must differ from both approvers.
    r.attempt(&pdp, "T2", "mary", 4);
    assert!(!r.attempt(&pdp, "T3", "mary", 5).is_granted());
    assert!(r.attempt(&pdp, "T3", "max", 6).is_granted());

    // (c) the confirming clerk must differ from the preparer.
    assert!(!r.attempt(&pdp, "T4", "carol", 7).is_granted());

    // (d) a manager who collected cannot also have approved — covered
    // by the same MMEP; verify the reverse order too in a new instance.
    let mut r2 = run(&pdp, 2);
    r2.attempt(&pdp, "T1", "carol", 10);
    r2.attempt(&pdp, "T2", "mike", 11);
    r2.attempt(&pdp, "T2", "mary", 12);
    r2.attempt(&pdp, "T3", "max", 13);
    // max now tries to ALSO approve in the same instance (suppose T2
    // were reopened): direct request is denied.
    let direct = DecisionRequest::with_roles(
        "max",
        vec![RoleRef::new("employee", "Manager")],
        "approve/disapproveCheck",
        "http://www.myTaxOffice.com/Check",
        r2.context().clone(),
        14,
    );
    assert!(matches!(pdp.decide(&direct).deny_reason(), Some(DenyReason::Msod(_))));
}

/// "the same clerk is authorized to do either Task 1 or Task 4 in a
/// different tax refund process instance" (§2.2).
#[test]
fn constraints_are_per_instance() {
    let pdp = pdp();
    let mut r1 = run(&pdp, 1);
    let mut r2 = run(&pdp, 2);
    assert!(r1.attempt(&pdp, "T1", "carol", 1).is_granted());
    // Same clerk prepares instance 2 as well: fine.
    assert!(r2.attempt(&pdp, "T1", "chris", 2).is_granted());
    // carol may confirm instance 2 (she only prepared instance 1).
    r2.attempt(&pdp, "T2", "mike", 3);
    r2.attempt(&pdp, "T2", "mary", 4);
    r2.attempt(&pdp, "T3", "max", 5);
    assert!(r2.attempt(&pdp, "T4", "carol", 6).is_granted());
}

/// "one tax refund process instance might span multiple user sessions,
/// so a manager (or clerk) who has performed a task in an earlier
/// session may not be authorised to perform any [conflicting] task in a
/// subsequent session" — simulated by interleaving two instances over a
/// long timeline with distinct sessions per request.
#[test]
fn constraints_span_sessions_and_interleavings() {
    let pdp = pdp();
    let mut r1 = run(&pdp, 1);
    let mut r2 = run(&pdp, 2);
    // Day 1.
    assert!(r1.attempt(&pdp, "T1", "carol", 100).is_granted());
    assert!(r2.attempt(&pdp, "T1", "dora", 110).is_granted());
    // Day 2.
    assert!(r1.attempt(&pdp, "T2", "mike", 200).is_granted());
    assert!(r2.attempt(&pdp, "T2", "mike", 210).is_granted()); // other instance: OK
                                                               // Day 3.
    assert!(r1.attempt(&pdp, "T2", "mary", 300).is_granted());
    assert!(r2.attempt(&pdp, "T2", "mary", 310).is_granted());
    // Day 30 — long after mike's session ended, he tries to collect.
    assert!(!r1.attempt(&pdp, "T3", "mike", 3000).is_granted());
    assert!(!r2.attempt(&pdp, "T3", "mike", 3010).is_granted());
    assert!(r1.attempt(&pdp, "T3", "max", 3100).is_granted());
    assert!(r2.attempt(&pdp, "T3", "max", 3110).is_granted());
    // Cross-instance confirmation by the preparers of the *other*
    // instance is fine.
    assert!(r1.attempt(&pdp, "T4", "dora", 3200).is_granted());
    assert!(r2.attempt(&pdp, "T4", "carol", 3210).is_granted());
    assert!(r1.is_complete() && r2.is_complete());
}

/// The minimum cast: the process cannot complete with fewer than five
/// people (2 clerks + 3 managers), so a four-person office always gets
/// stuck exactly at the final conflicting task.
#[test]
fn four_people_cannot_finish() {
    let pdp = pdp();
    let mut r = run(&pdp, 1);
    assert!(r.attempt(&pdp, "T1", "carol", 1).is_granted());
    assert!(r.attempt(&pdp, "T2", "mike", 2).is_granted());
    assert!(r.attempt(&pdp, "T2", "mary", 3).is_granted());
    // Only managers mike/mary exist: T3 is stuck.
    assert!(!r.attempt(&pdp, "T3", "mike", 4).is_granted());
    assert!(!r.attempt(&pdp, "T3", "mary", 5).is_granted());
    assert!(!r.is_complete());
}

/// The engine enforces sequencing; the PDP enforces SoD. Out-of-order
/// attempts never reach the PDP.
#[test]
fn sequencing_is_engine_side() {
    let pdp = pdp();
    let mut r = run(&pdp, 1);
    let before = pdp.with_trail(|t| t.len());
    assert!(matches!(r.attempt(&pdp, "T4", "chris", 1), AttemptOutcome::NotAvailable(_)));
    assert_eq!(pdp.with_trail(|t| t.len()), before, "no PDP decision was made");
}

/// First-step gating: operations inside the context before
/// `prepareCheck` do not accumulate history (§3: the FirstStep "tells
/// the PDP when to start enforcing MSoD").
#[test]
fn history_starts_at_first_step() {
    let pdp = pdp();
    // A browse-like operation is not in the target policy, so use a
    // direct request that RBAC would grant: reuse combineResults (a
    // manager op) before the process starts.
    let req = DecisionRequest::with_roles(
        "mike",
        vec![RoleRef::new("employee", "Manager")],
        "combineResults",
        "http://secret.location.com/results",
        "TaxOffice=Kent, taxRefundProcess=9".parse().unwrap(),
        1,
    );
    assert!(pdp.decide(&req).is_granted());
    assert_eq!(pdp.adi().len(), 0, "no history before the first step");
    // After T1, the same operation by the same manager IS recorded and
    // constrains his future approvals.
    let mut r = run(&pdp, 9);
    r.attempt(&pdp, "T1", "carol", 2);
    assert!(pdp.decide(&DecisionRequest { timestamp: 3, ..req.clone() }).is_granted());
    assert!(!pdp.adi().is_empty());
    let approve = DecisionRequest::with_roles(
        "mike",
        vec![RoleRef::new("employee", "Manager")],
        "approve/disapproveCheck",
        "http://www.myTaxOffice.com/Check",
        "TaxOffice=Kent, taxRefundProcess=9".parse().unwrap(),
        4,
    );
    assert!(matches!(pdp.decide(&approve).deny_reason(), Some(DenyReason::Msod(_))));
}
