//! Experiment E5 — §3 and Appendix A: the paper's two policies parse
//! verbatim, validate against the XSD subset, survive
//! serialize→parse→compile round-trips, and drive the same decisions
//! whether loaded standalone or embedded in an RBAC policy.

use msod::RoleRef;
use permis::{DecisionRequest, DecisionService};
use policy::msod_xml::PAPER_SECTION3_POLICIES;
use policy::{
    msod_policy_set_to_xml, msod_schema, parse_msod_policy_set, parse_rbac_policy, rbac_schema,
};
use xmlkit::Document;

#[test]
fn paper_policies_validate_against_schema() {
    let doc = Document::parse(PAPER_SECTION3_POLICIES).unwrap();
    msod_schema().unwrap().validate(&doc).unwrap();
}

#[test]
fn paper_policies_parse_with_exact_structure() {
    let set = parse_msod_policy_set(PAPER_SECTION3_POLICIES).unwrap();
    assert_eq!(set.len(), 2);
    let bank = &set.policies()[0];
    let tax = &set.policies()[1];

    // Policy 1: LastStep only, one MMER of cardinality 2.
    assert!(bank.first_step.is_none());
    assert_eq!(
        bank.last_step.as_ref().map(|p| (p.operation.as_str(), p.target.as_str())),
        Some(("CommitAudit", "http://audit.location.com/audit"))
    );
    assert_eq!(bank.mmer().len(), 1);
    assert!(bank.mmep().is_empty());
    assert_eq!(
        bank.mmer()[0].roles(),
        &[RoleRef::new("employee", "Teller"), RoleRef::new("employee", "Auditor")]
    );

    // Policy 2: FirstStep+LastStep, two MMEPs, the second with the
    // duplicated approve privilege and 3 entries at cardinality 2.
    assert_eq!(tax.first_step.as_ref().unwrap().operation, "prepareCheck");
    assert_eq!(tax.mmep().len(), 2);
    assert_eq!(tax.mmep()[0].privileges().len(), 2);
    assert_eq!(tax.mmep()[1].privileges().len(), 3);
    assert_eq!(tax.mmep()[1].forbidden_cardinality(), 2);
}

#[test]
fn triple_roundtrip_is_stable() {
    let set1 = parse_msod_policy_set(PAPER_SECTION3_POLICIES).unwrap();
    let xml1 = msod_policy_set_to_xml(&set1);
    let set2 = parse_msod_policy_set(&xml1).unwrap();
    let xml2 = msod_policy_set_to_xml(&set2);
    let set3 = parse_msod_policy_set(&xml2).unwrap();
    assert_eq!(set1, set2);
    assert_eq!(set2, set3);
    assert_eq!(xml1, xml2, "serialization is a fixed point after one round");
}

#[test]
fn reserialized_policy_drives_identical_decisions() {
    // Wrap the paper's MSoD set (reserialized) into an RBAC policy and
    // compare decision streams against the original.
    let set = parse_msod_policy_set(PAPER_SECTION3_POLICIES).unwrap();
    let reserialized = msod_policy_set_to_xml(&set);
    let strip_decl = reserialized.trim_start_matches("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
    let wrap = |msod: &str| {
        format!(
            r#"<RBACPolicy id="combo" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
  </TargetAccessPolicy>
  {msod}
</RBACPolicy>"#
        )
    };
    let pdp_a = DecisionService::from_xml_symbolized(&wrap(PAPER_SECTION3_POLICIES), b"k".to_vec())
        .unwrap();
    let pdp_b = DecisionService::from_xml_symbolized(&wrap(strip_decl), b"k".to_vec()).unwrap();

    let reqs = [
        ("alice", "Teller", "handleCash", "till", "Branch=York, Period=2006"),
        ("alice", "Auditor", "audit", "books", "Branch=Leeds, Period=2006"),
        ("bob", "Auditor", "audit", "books", "Branch=York, Period=2006"),
        ("bob", "Teller", "handleCash", "till", "Branch=York, Period=2007"),
    ];
    for (ts, (user, role, op, target, ctx)) in reqs.iter().enumerate() {
        let req = DecisionRequest::with_roles(
            *user,
            vec![RoleRef::new("employee", *role)],
            *op,
            *target,
            ctx.parse().unwrap(),
            ts as u64,
        );
        assert_eq!(
            pdp_a.decide(&req).is_granted(),
            pdp_b.decide(&req).is_granted(),
            "diverged on {req:?}"
        );
    }
}

#[test]
fn bundled_schemas_are_self_consistent() {
    // Both bundled XSDs parse and expose their root elements.
    assert!(msod_schema().unwrap().element("MSoDPolicySet").is_some());
    assert!(rbac_schema().unwrap().element("RBACPolicy").is_some());
    // Their element inventories cover every name the serializers emit.
    for name in ["MSoDPolicy", "FirstStep", "LastStep", "MMER", "MMEP", "Role", "Operation"] {
        assert!(msod_schema().unwrap().element(name).is_some(), "{name} missing");
    }
    for name in ["SOAPolicy", "TargetAccessPolicy", "TargetAccess", "AllowedRole", "SupRole"] {
        assert!(rbac_schema().unwrap().element(name).is_some(), "{name} missing");
    }
}

#[test]
fn schema_violations_rejected_with_positions() {
    // Unknown child element.
    let bad = r#"<MSoDPolicySet><Bogus/></MSoDPolicySet>"#;
    let err = parse_msod_policy_set(bad).unwrap_err();
    assert!(err.to_string().contains("Bogus"), "{err}");

    // Wrong attribute type (integer).
    let bad = r#"<MSoDPolicySet>
  <MSoDPolicy BusinessContext="P=!">
    <MMER ForbiddenCardinality="two">
      <Role type="e" value="A"/><Role type="e" value="B"/>
    </MMER>
  </MSoDPolicy>
</MSoDPolicySet>"#;
    let err = parse_msod_policy_set(bad).unwrap_err();
    assert!(err.to_string().contains("integer"), "{err}");

    // Malformed XML reports line/column.
    let err = parse_rbac_policy("<RBACPolicy id=\"x\">\n  <Unclosed>").unwrap_err();
    assert!(err.to_string().contains("line"), "{err}");
}

#[test]
fn comments_and_whitespace_are_insignificant() {
    let with_noise = r#"<?xml version="1.0"?>
<!-- leading comment -->
<MSoDPolicySet>
  <!-- a policy -->
  <MSoDPolicy    BusinessContext="P=!"   >
    <MMER ForbiddenCardinality="2"><!-- roles -->
      <Role type="e" value="A"/>
      <Role type="e" value="B"/>
    </MMER>
  </MSoDPolicy>
</MSoDPolicySet>
"#;
    let without = r#"<MSoDPolicySet><MSoDPolicy BusinessContext="P=!"><MMER ForbiddenCardinality="2"><Role type="e" value="A"/><Role type="e" value="B"/></MMER></MSoDPolicy></MSoDPolicySet>"#;
    assert_eq!(parse_msod_policy_set(with_noise).unwrap(), parse_msod_policy_set(without).unwrap());
}

#[test]
fn escaped_values_roundtrip() {
    let xml = r#"<MSoDPolicySet>
  <MSoDPolicy BusinessContext="P=!">
    <MMEP ForbiddenCardinality="2">
      <Operation value="approve/disapprove&amp;commit" target="http://x/?a=1&amp;b=2"/>
      <Operation value="other" target="http://y/&lt;odd&gt;"/>
    </MMEP>
  </MSoDPolicy>
</MSoDPolicySet>"#;
    let set = parse_msod_policy_set(xml).unwrap();
    let p = &set.policies()[0].mmep()[0].privileges()[0];
    assert_eq!(p.operation, "approve/disapprove&commit");
    assert_eq!(p.target, "http://x/?a=1&b=2");
    let re = msod_policy_set_to_xml(&set);
    assert_eq!(parse_msod_policy_set(&re).unwrap(), set);
}
