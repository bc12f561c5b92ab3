//! A dynamic virtual organisation (§2.1): two independent authorities,
//! partial role disclosure, Liberty-style alias linking (§6), and the
//! retained-ADI management port (§4.3) — the full federated story.
//!
//! Run with: `cargo run --example vo_federation`

use credential::{AliasLinker, Authority};
use msod::RoleRef;
use permis::{
    purge_scope, Credentials, DecisionRequest, DecisionService, ManagementOp,
    RETAINED_ADI_CONTROLLER,
};

const POLICY: &str = r#"<RBACPolicy id="vo" roleType="voRole">
  <SOAPolicy>
    <SOA dn="cn=SOA, o=university"/>
    <SOA dn="cn=SOA, o=hospital"/>
    <SOA dn="cn=SOA, o=vo-office"/>
  </SOAPolicy>
  <RoleHierarchyPolicy>
    <SupRole value="PrincipalInvestigator"><SubRole value="Researcher"/></SupRole>
  </RoleHierarchyPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="analyse" targetURI="http://vo/trial-data">
      <AllowedRole value="Researcher"/>
    </TargetAccess>
    <TargetAccess operation="review" targetURI="http://vo/trial-data">
      <AllowedRole value="EthicsReviewer"/>
    </TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Trial=!">
      <MMER ForbiddenCardinality="2">
        <Role type="voRole" value="Researcher"/>
        <Role type="voRole" value="EthicsReviewer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn main() {
    println!("== A clinical-trial VO ======================================");
    println!("Rule: nobody may both analyse a trial's data and sit on its");
    println!("ethics review — whichever authority issued which role.\n");

    let pdp = DecisionService::from_xml_symbolized(POLICY, b"vo-key".to_vec()).expect("policy");

    // Two real-world authorities plus the VO office, each with its own
    // signing key. No one of them sees the whole picture.
    let mut university = Authority::new("cn=SOA, o=university", b"uni-key".to_vec());
    let mut hospital =
        Authority::new("cn=SOA, o=hospital", b"hosp-key".to_vec()).with_saml_format();
    let mut vo_office = Authority::new("cn=SOA, o=vo-office", b"vo-key2".to_vec());
    for a in [&university, &hospital, &vo_office] {
        pdp.register_authority_key(a.dn(), a.verification_key().to_vec());
    }

    // Liberty-style pairwise aliases: the PDP folds every alias of Dr
    // Jones onto one local identity before deciding.
    let mut linker = AliasLinker::new();
    linker.link("o=university", "uni-7f3a", "jones@vo");
    linker.link("o=hospital", "hosp-92c1", "jones@vo");

    let ask = |authority: &mut Authority,
               auth_name: &str,
               alias: &str,
               linker: &AliasLinker,
               role: &str,
               op: &str,
               trial: &str,
               ts: u64| {
        let local = linker.resolve_or_alias(auth_name, alias).to_owned();
        let cred = authority.issue(&local, RoleRef::new("voRole", role), 0, u64::MAX);
        let granted = pdp
            .decide(&DecisionRequest {
                subject: local.clone(),
                credentials: Credentials::Push(vec![cred]),
                operation: op.into(),
                target: "http://vo/trial-data".into(),
                context: format!("Trial={trial}").parse().unwrap(),
                environment: vec![],
                timestamp: ts,
            })
            .is_granted();
        println!(
            "  t={ts:<3} {alias:<10} ({auth_name:<13} -> {local}) as {role:<16} {op:<8} Trial={trial} -> {}",
            if granted { "GRANT" } else { "DENY" }
        );
        granted
    };

    println!("Dr Jones analyses trial T1 with her university identity:");
    assert!(ask(
        &mut university,
        "o=university",
        "uni-7f3a",
        &linker,
        "Researcher",
        "analyse",
        "T1",
        1
    ));

    println!("\nMonths later the hospital nominates 'hosp-92c1' (also Dr Jones)");
    println!("to the ethics review of the SAME trial. Alias linking exposes her:");
    assert!(!ask(
        &mut hospital,
        "o=hospital",
        "hosp-92c1",
        &linker,
        "EthicsReviewer",
        "review",
        "T1",
        200
    ));

    println!("\nShe may review a DIFFERENT trial (per-instance scope):");
    assert!(ask(
        &mut hospital,
        "o=hospital",
        "hosp-92c1",
        &linker,
        "EthicsReviewer",
        "review",
        "T2",
        201
    ));

    println!("\nThe role hierarchy works federatedly too: a PI outranks a");
    println!("Researcher, so a hospital PI can analyse:");
    assert!(ask(
        &mut hospital,
        "o=hospital",
        "hosp-0001",
        &linker,
        "PrincipalInvestigator",
        "analyse",
        "T1",
        300
    ));

    println!("\nTrials have no natural 'last step', so the ADI only grows:");
    println!("  retained ADI: {} records", pdp.adi().len());

    println!("\nThe VO office closes trial T1 through the management port");
    println!("(the PDP's own policy authorizes the {RETAINED_ADI_CONTROLLER} role):");
    let admin_cred = vo_office.issue(
        "registrar@vo",
        RoleRef::new("voRole", RETAINED_ADI_CONTROLLER),
        0,
        u64::MAX,
    );
    let removed = pdp
        .manage(
            "registrar@vo",
            Credentials::Push(vec![admin_cred]),
            ManagementOp::PurgeContext(purge_scope("Trial=T1").unwrap()),
            400,
        )
        .expect("registrar is authorized");
    println!("  purged {removed} record(s); retained ADI now {}", pdp.adi().len());

    println!("\nWith T1 closed, Dr Jones may join its (re-run) ethics review:");
    assert!(ask(
        &mut hospital,
        "o=hospital",
        "hosp-92c1",
        &linker,
        "EthicsReviewer",
        "review",
        "T1",
        500
    ));

    let records = pdp.with_trail(|trail| {
        trail.verify().expect("trail verifies");
        trail.len()
    });
    println!("\nAudit trail: {records} records — every grant, denial and management");
    println!("action across all three authorities, tamper-evident.");
}
