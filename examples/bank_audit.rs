//! Example 1 of the paper — cash processing in a bank — played out over
//! a full audit cycle with signed credentials, partial disclosure,
//! the CommitAudit last step, and a PDP crash + recovery in the middle.
//!
//! Run with: `cargo run --example bank_audit`

use audit::TrailStore;
use credential::Authority;
use msod::RoleRef;
use permis::{Credentials, DecisionRequest, DecisionService};

const POLICY: &str = r#"<RBACPolicy id="bank" roleType="employee">
  <SubjectPolicy><SubjectDomain dn="o=bank"/></SubjectPolicy>
  <SOAPolicy><SOA dn="cn=HR, o=bank"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="http://bank/till">
      <AllowedRole value="Teller"/>
    </TargetAccess>
    <TargetAccess operation="audit" targetURI="http://bank/books">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="http://audit.location.com/audit">
      <AllowedRole value="Auditor"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="http://audit.location.com/audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

struct Bank {
    pdp: DecisionService,
    hr: Authority,
}

impl Bank {
    fn new(store_dir: std::path::PathBuf) -> Self {
        let pdp = DecisionService::from_xml_symbolized(POLICY, b"bank-trail-key".to_vec())
            .expect("policy");
        let hr = Authority::new("cn=HR, o=bank", b"hr-signing-key".to_vec());
        pdp.register_authority_key(hr.dn(), hr.verification_key().to_vec());
        pdp.attach_store(TrailStore::open(&store_dir).expect("store"));
        Bank { pdp, hr }
    }

    fn request(
        &mut self,
        user: &str,
        role: &str,
        op: &str,
        target: &str,
        ctx: &str,
        ts: u64,
    ) -> bool {
        let dn = format!("cn={user}, o=bank");
        // The employee pushes exactly one credential per session —
        // partial disclosure, the scenario that defeats plain RBAC.
        let cred = self.hr.issue(&dn, RoleRef::new("employee", role), 0, u64::MAX);
        let granted = self
            .pdp
            .decide(&DecisionRequest {
                subject: dn,
                credentials: Credentials::Push(vec![cred]),
                operation: op.into(),
                target: target.into(),
                context: ctx.parse().expect("context"),
                environment: vec![],
                timestamp: ts,
            })
            .is_granted();
        println!(
            "  day {ts:<3} {user:<6} [{role:<7}] {op:<11} @ {ctx:<28} -> {}",
            if granted { "GRANT" } else { "DENY" }
        );
        granted
    }
}

fn main() {
    let dir = std::env::temp_dir().join(format!("bank-audit-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!("== The bank's 2006 audit cycle ==============================");
    println!("Policy: MMER({{Teller, Auditor}}, 2, \"Branch=*, Period=!\"),");
    println!("        LastStep = CommitAudit\n");

    let mut bank = Bank::new(dir.clone());

    println!("Q1: normal business.");
    bank.request(
        "alice",
        "Teller",
        "handleCash",
        "http://bank/till",
        "Branch=York, Period=2006",
        5,
    );
    bank.request(
        "carol",
        "Teller",
        "handleCash",
        "http://bank/till",
        "Branch=Leeds, Period=2006",
        9,
    );
    bank.request(
        "alice",
        "Teller",
        "handleCash",
        "http://bank/till",
        "Branch=York, Period=2006",
        40,
    );

    println!("\nQ2: alice is promoted to Auditor. HR issues the credential —");
    println!("nothing stops that (no single authority sees a conflict).");
    println!("But when she tries to USE it this period:");
    let denied = !bank.request(
        "alice",
        "Auditor",
        "audit",
        "http://bank/books",
        "Branch=Leeds, Period=2006",
        130,
    );
    assert!(denied);

    println!("\nMid-year: the PDP host crashes. The secure audit trail is the");
    println!("only survivor. Rotate+persist happened on schedule:");
    bank.pdp.rotate_and_persist().expect("persist");
    let adi_before = bank.pdp.adi().len();
    drop(bank);

    let mut bank = Bank::new(dir.clone());
    let report = bank.pdp.recover(usize::MAX, 0).expect("recovery");
    println!(
        "  recovered: {} segment(s), {} grants replayed, {} ADI records (was {})",
        report.segments_loaded, report.grants_replayed, report.records_retained, adi_before
    );
    assert_eq!(report.records_retained, adi_before);

    println!("\nQ3: alice tries again after the crash — history survived:");
    assert!(!bank.request(
        "alice",
        "Auditor",
        "audit",
        "http://bank/books",
        "Branch=York, Period=2006",
        200
    ));

    println!("\nQ4: the annual audit, by people who never touched cash:");
    bank.request("bob", "Auditor", "audit", "http://bank/books", "Branch=York, Period=2006", 300);
    bank.request("bob", "Auditor", "audit", "http://bank/books", "Branch=Leeds, Period=2006", 301);

    println!("\nYear end: bob commits the audit (the policy's last step).");
    bank.request(
        "bob",
        "Auditor",
        "CommitAudit",
        "http://audit.location.com/audit",
        "Branch=York, Period=2006",
        364,
    );
    println!("  retained ADI after CommitAudit: {} records", bank.pdp.adi().len());
    assert_eq!(bank.pdp.adi().len(), 0);

    println!("\n2007: a new period instance — alice audits at last.");
    assert!(bank.request(
        "alice",
        "Auditor",
        "audit",
        "http://bank/books",
        "Branch=York, Period=2007",
        400
    ));

    let (records, segments) = bank.pdp.with_trail(|trail| {
        trail.verify().expect("tamper-evident");
        (trail.len(), trail.segments().len())
    });
    println!(
        "\nAudit trail: {records} records across {segments} sealed segment(s) + head — verified."
    );

    let _ = std::fs::remove_dir_all(&dir);
}
