//! Experiment E4 — Figure 2 of the paper: the same MMER constraint under
//! the three published policy scopings, evaluated end-to-end through the
//! PDP against a hierarchy of business-context instances.
//!
//! - `Branch=*, Period=!` — whole-bank per period;
//! - `Branch=!, Period=!` — per branch per period ("an employee could be
//!   a teller in one branch and an auditor in another");
//! - `Branch=York, Period=!` — the York branch only.

use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};

fn policy_with_scope(scope: &str) -> String {
    format!(
        r#"<RBACPolicy id="bank" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="Teller"/><AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="{scope}">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#
    )
}

fn pdp_with_scope(scope: &str) -> DecisionService {
    DecisionService::from_xml_symbolized(&policy_with_scope(scope), b"k".to_vec()).unwrap()
}

fn act(pdp: &DecisionService, user: &str, role: &str, branch: &str, period: &str, ts: u64) -> bool {
    pdp.decide(&DecisionRequest::with_roles(
        user,
        vec![RoleRef::new("employee", role)],
        "work",
        "res",
        format!("Branch={branch}, Period={period}").parse().unwrap(),
        ts,
    ))
    .is_granted()
}

#[test]
fn star_scope_spans_all_branches() {
    let pdp = pdp_with_scope("Branch=*, Period=!");
    assert!(act(&pdp, "alice", "Teller", "York", "2006", 1));
    // Conflicts bind across every branch within the period...
    assert!(!act(&pdp, "alice", "Auditor", "York", "2006", 2));
    assert!(!act(&pdp, "alice", "Auditor", "Leeds", "2006", 3));
    assert!(!act(&pdp, "alice", "Auditor", "Hull", "2006", 4));
    // ...but not across periods.
    assert!(act(&pdp, "alice", "Auditor", "Leeds", "2007", 5));
}

#[test]
fn bang_scope_is_per_branch() {
    let pdp = pdp_with_scope("Branch=!, Period=!");
    assert!(act(&pdp, "alice", "Teller", "York", "2006", 1));
    // Same branch: conflict.
    assert!(!act(&pdp, "alice", "Auditor", "York", "2006", 2));
    // "an employee could be a teller in one branch and an auditor in
    // another branch".
    assert!(act(&pdp, "alice", "Auditor", "Leeds", "2006", 3));
}

#[test]
fn literal_scope_only_names_york() {
    let pdp = pdp_with_scope("Branch=York, Period=!");
    assert!(act(&pdp, "alice", "Teller", "York", "2006", 1));
    assert!(!act(&pdp, "alice", "Auditor", "York", "2006", 2));
    // Other branches are entirely unconstrained: both roles, same
    // period.
    assert!(act(&pdp, "alice", "Teller", "Leeds", "2006", 3));
    assert!(act(&pdp, "alice", "Auditor", "Leeds", "2006", 4));
}

/// "all contexts which are equal or subordinate to the context in the
/// MMER rule should be applied with the MMER rule" (§2.3): requests in
/// deeper instances (e.g. a desk within a branch) still match.
#[test]
fn subordinate_contexts_inherit_the_rule() {
    let pdp = pdp_with_scope("Branch=*, Period=!");
    let deep = |pdp: &DecisionService, user: &str, role: &str, desk: &str, ts| {
        pdp.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", role)],
            "work",
            "res",
            format!("Branch=York, Period=2006, Desk={desk}").parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    assert!(deep(&pdp, "alice", "Teller", "3", 1));
    // Conflict visible from a different desk, and from the branch level.
    assert!(!deep(&pdp, "alice", "Auditor", "7", 2));
    assert!(!act(&pdp, "alice", "Auditor", "Leeds", "2006", 3));
}

/// Footnote 2 of the paper: contexts *superior* to the policy context
/// are unconstrained — a request carrying only `Branch=York` (no
/// period) does not match a `Branch=*, Period=!` policy.
#[test]
fn superior_contexts_unconstrained() {
    let pdp = pdp_with_scope("Branch=*, Period=!");
    let shallow = |pdp: &DecisionService, role: &str, ts| {
        pdp.decide(&DecisionRequest::with_roles(
            "alice",
            vec![RoleRef::new("employee", role)],
            "work",
            "res",
            "Branch=York".parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    assert!(shallow(&pdp, "Teller", 1));
    assert!(shallow(&pdp, "Auditor", 2), "no period component: policy does not apply");
}

/// The universal context (empty policy scope) constrains everything the
/// organisation does.
#[test]
fn universal_scope_constrains_everything() {
    let pdp = pdp_with_scope("");
    assert!(act(&pdp, "alice", "Teller", "York", "2006", 1));
    assert!(!act(&pdp, "alice", "Auditor", "Leeds", "2099", 2));
    // Even a completely different context shape is covered.
    let other = pdp.decide(&DecisionRequest::with_roles(
        "alice",
        vec![RoleRef::new("employee", "Auditor")],
        "work",
        "res",
        "Dept=IT".parse().unwrap(),
        3,
    ));
    assert!(!other.is_granted());
}

/// The application-side context registry (the "application schema" of
/// §2.2) correctly opens and closes instance subtrees.
#[test]
fn registry_models_instance_lifecycle() {
    use context::{ContextInstance, ContextRegistry};
    let mut reg = ContextRegistry::new();
    let bank: ContextInstance = "Branch=York".parse().unwrap();
    reg.open(bank.clone());
    let audit06 = reg.fresh(&bank, "Period").unwrap();
    assert!(reg.is_active(&audit06));
    // Closing the branch closes the period within it.
    let closed = reg.close(&bank);
    assert_eq!(closed.len(), 2);
    assert!(!reg.is_active(&audit06));
}
