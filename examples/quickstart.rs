//! Quickstart: define an MSoD policy in XML, build a PDP, watch a
//! conflict of interest get caught across two user sessions.
//!
//! Run with: `cargo run --example quickstart`

use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};

const POLICY: &str = r#"<RBACPolicy id="quickstart" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR, o=bank"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="http://bank/till">
      <AllowedRole value="Teller"/>
    </TargetAccess>
    <TargetAccess operation="audit" targetURI="http://bank/books">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn main() {
    let pdp =
        DecisionService::from_xml_symbolized(POLICY, b"trail-key".to_vec()).expect("policy parses");

    let ask = |user: &str, role: &str, op: &str, target: &str, ctx: &str, ts: u64| {
        let outcome = pdp.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", role)],
            op,
            target,
            ctx.parse().expect("valid context"),
            ts,
        ));
        println!(
            "  t={ts:<4} {user:<6} as {role:<8} {op:<11} in [{ctx}]  ->  {}",
            if outcome.is_granted() { "GRANT" } else { "DENY " }
        );
        outcome.is_granted()
    };

    println!("MSoD quickstart — MMER({{Teller, Auditor}}, 2, \"Branch=*, Period=!\")\n");

    println!("Session 1 (January): alice is a teller in York");
    assert!(ask(
        "alice",
        "Teller",
        "handleCash",
        "http://bank/till",
        "Branch=York, Period=2006",
        1
    ));

    println!("\nSession 2 (June): alice was promoted to auditor — different branch,");
    println!("different session, months later. Standard RBAC SSD/DSD see nothing:");
    assert!(!ask(
        "alice",
        "Auditor",
        "audit",
        "http://bank/books",
        "Branch=Leeds, Period=2006",
        600
    ));

    println!("\nbob never handled cash this period, so he may audit:");
    assert!(ask("bob", "Auditor", "audit", "http://bank/books", "Branch=Leeds, Period=2006", 601));

    println!("\nNext period is a fresh '!' instance — alice may audit in 2007:");
    assert!(ask("alice", "Auditor", "audit", "http://bank/books", "Branch=York, Period=2007", 900));

    println!("\nEvery decision is in the tamper-evident audit trail:");
    let records = pdp.with_trail(|trail| {
        trail.verify().expect("trail verifies");
        trail.len()
    });
    println!("  {records} records, hash chain + HMAC seal OK");
}
