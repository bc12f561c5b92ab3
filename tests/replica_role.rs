//! Pins the replica-role gate: a `DecisionService` demoted to
//! `ReplicaRole::Replica` refuses every first-hand mutation — decides,
//! batches, management purges (which route their authorization through
//! `decide`) — with `DenyReason::NotPrimary`, while the ungated
//! `apply_decide` path (log application) still runs the full pipeline
//! and the apply epoch tags how much replicated history the replica
//! has. A standalone service is a permanent primary: the default role
//! changes nothing.

use msod_rbac::msod::RoleRef;
use msod_rbac::permis::{
    Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason, ManagementOp,
    ReplicaRole,
};
const POLICY: &str = r#"<RBACPolicy id="replica" roleType="permisRole">
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

fn work(user: &str, role: &str, project: &str, ts: u64) -> DecisionRequest {
    DecisionRequest::with_roles(
        user,
        vec![RoleRef::permis(role)],
        "work",
        "http://vo/resource",
        msod_rbac::context::ContextInstance::from_pairs(vec![(
            "Project".to_owned(),
            format!("p{project}"),
        )])
        .unwrap(),
        ts,
    )
}

fn is_not_primary(outcome: &DecisionOutcome) -> bool {
    outcome.deny_reason() == Some(&DenyReason::NotPrimary)
}

#[test]
fn default_role_is_primary_and_decides() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    assert_eq!(svc.replica_role(), ReplicaRole::Primary);
    assert!(svc.decide(&work("u1", "Member", "1", 1)).is_granted());
}

#[test]
fn replica_denies_decides_without_evaluating_or_retaining() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    svc.set_replica_role(ReplicaRole::Replica);
    let outcome = svc.decide(&work("u1", "Member", "1", 1));
    assert!(is_not_primary(&outcome), "{outcome:?}");
    assert_eq!(svc.adi().len(), 0, "a gated decide must not retain anything");
    // The reason names the routing problem for wire clients.
    assert!(DenyReason::NotPrimary.to_string().contains("primary"));
}

#[test]
fn replica_denies_whole_batches() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    svc.set_replica_role(ReplicaRole::Replica);
    let outcomes = svc.decide_many(&[work("u1", "Member", "1", 1), work("u2", "Reviewer", "1", 2)]);
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes.iter().all(is_not_primary));
}

#[test]
fn replica_denies_management_mutation() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    assert!(svc.decide(&work("u1", "Member", "1", 1)).is_granted());
    svc.set_replica_role(ReplicaRole::Replica);
    // manage() routes its authorization through decide(), so the gate
    // covers §4.3 purges automatically.
    let err = svc
        .manage("cn=Admin", Credentials::Validated(vec![]), ManagementOp::PurgeAll, 10)
        .unwrap_err();
    assert_eq!(err, DenyReason::NotPrimary);
    assert_eq!(svc.adi().len(), 1, "the gated purge must not run");
}

#[test]
fn apply_path_mutates_and_tags_the_epoch() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    svc.set_replica_role(ReplicaRole::Replica);
    assert_eq!(svc.apply_epoch(), 0);

    // Log application: the replica replays the primary's commands
    // through the ungated path; history-dependent verdicts behave
    // exactly as on the primary.
    assert!(svc.apply_decide(&work("u1", "Member", "1", 1)).is_granted());
    svc.set_apply_epoch(1);
    assert!(!svc.apply_decide(&work("u1", "Reviewer", "1", 2)).is_granted());
    svc.set_apply_epoch(2);

    assert_eq!(svc.adi().len(), 1);
    assert_eq!(svc.apply_epoch(), 2);
    if msod_rbac::obs::enabled() {
        let text = svc.metrics_text();
        assert!(text.contains("permis_apply_total 2"), "{text}");
        assert!(text.contains("permis_apply_epoch 2"), "{text}");
        assert!(text.contains("permis_not_primary_denies_total 0"), "{text}");
    }
}

#[test]
fn promotion_restores_first_hand_decides() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    svc.set_replica_role(ReplicaRole::Replica);
    assert!(is_not_primary(&svc.decide(&work("u1", "Member", "1", 1))));
    svc.set_replica_role(ReplicaRole::Primary);
    assert!(svc.decide(&work("u1", "Member", "1", 2)).is_granted());
}

#[test]
fn explained_decides_are_gated_too() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"t".to_vec()).unwrap();
    svc.set_replica_role(ReplicaRole::Replica);
    let (outcome, explanation) = svc.decide_explained(&work("u1", "Member", "1", 1));
    assert!(is_not_primary(&outcome));
    assert!(!explanation.granted);
}
