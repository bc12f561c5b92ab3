//! Experiment E13 — the §6 identity-stability limitations, demonstrated
//! and then repaired:
//!
//! 1. Shibboleth-style transient handles let a user evade MSoD; the fix
//!    is configuring the IdP to release a persistent ID attribute.
//! 2. Liberty-style per-authority aliases split one person into several
//!    identities; the fix is pairwise alias linking folded onto one
//!    local identity before the PDP sees the request.

use credential::{AliasLinker, TransientHandleIssuer};
use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};

const POLICY: &str = r#"<RBACPolicy id="vo" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="Clerk"/><AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="permisRole" value="Clerk"/>
        <Role type="permisRole" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn act(pdp: &DecisionService, subject: &str, role: &str, ts: u64) -> bool {
    pdp.decide(&DecisionRequest::with_roles(
        subject,
        vec![RoleRef::new("permisRole", role)],
        "work",
        "res",
        "Period=2006".parse().unwrap(),
        ts,
    ))
    .is_granted()
}

/// "in Shibboleth a user is given a different handle ID for each
/// session. If this was the only ID ever delivered to the PDP it would
/// not be possible to support MSoD."
#[test]
fn transient_handles_evade_msod() {
    let pdp = DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap();
    let mut idp = TransientHandleIssuer::new();
    // Session 1: alice acts as Clerk under handle #1.
    let s1 = idp.begin_session("alice");
    assert!(act(&pdp, &s1.handle, "Clerk", 1));
    // Session 2: fresh handle — the PDP cannot join the sessions, so
    // the conflicting role sails through. (The vulnerability, shown.)
    let s2 = idp.begin_session("alice");
    assert_ne!(s1.handle, s2.handle);
    assert!(act(&pdp, &s2.handle, "Auditor", 2), "MSoD evaded via transient handles");
}

/// "it is possible to configure Shibboleth to return the user's ID
/// along with their other attributes, in which case MSoD can be
/// supported."
#[test]
fn persistent_id_release_restores_msod() {
    let pdp = DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap();
    let mut idp = TransientHandleIssuer::new().with_persistent_id_release();
    let s1 = idp.begin_session("alice");
    let subject1 = s1.persistent_id.expect("IdP releases the persistent ID");
    assert!(act(&pdp, &subject1, "Clerk", 1));
    let s2 = idp.begin_session("alice");
    let subject2 = s2.persistent_id.unwrap();
    assert_eq!(subject1, subject2);
    assert!(!act(&pdp, &subject2, "Auditor", 2), "MSoD enforced again");
}

/// "a user could use one identity from one authority to activate one
/// role e.g. clerk, and another identity from another authority to
/// activate a second role e.g. auditor. Our MSoD procedure would not be
/// able to detect this."
#[test]
fn unlinked_aliases_evade_msod() {
    let pdp = DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap();
    let linker = AliasLinker::new(); // nothing federated
    let id1 = linker.resolve_or_alias("authA", "alias-A-alice").to_owned();
    let id2 = linker.resolve_or_alias("authB", "alias-B-alice").to_owned();
    assert_ne!(id1, id2);
    assert!(act(&pdp, &id1, "Clerk", 1));
    assert!(act(&pdp, &id2, "Auditor", 2), "MSoD evaded via split identities");
}

/// "the Liberty Model supports identity linking ... In this way MSoD
/// can be enforced by linking the user's aliases to the local identity,
/// and basing the MSoD policy on the local identity."
#[test]
fn alias_linking_restores_msod() {
    let pdp = DecisionService::from_xml_symbolized(POLICY, b"k".to_vec()).unwrap();
    let mut linker = AliasLinker::new();
    linker.link("authA", "alias-A-alice", "alice@vo");
    linker.link("authB", "alias-B-alice", "alice@vo");
    let id1 = linker.resolve_or_alias("authA", "alias-A-alice").to_owned();
    let id2 = linker.resolve_or_alias("authB", "alias-B-alice").to_owned();
    assert_eq!(id1, id2);
    assert!(act(&pdp, &id1, "Clerk", 1));
    assert!(!act(&pdp, &id2, "Auditor", 2));
    // Another person's alias is unaffected.
    linker.link("authA", "alias-A-bob", "bob@vo");
    let bob = linker.resolve_or_alias("authA", "alias-A-bob").to_owned();
    assert!(act(&pdp, &bob, "Auditor", 3));
}
