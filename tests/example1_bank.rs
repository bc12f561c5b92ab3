//! Experiment E2 — the paper's Example 1 (bank cash processing),
//! end-to-end through the PERMIS PDP with signed credentials: the
//! MMER({Teller, Auditor}, 2, "Branch=*, Period=!") policy enforced
//! decision-by-decision across branches, sessions and audit periods.

use credential::Authority;
use msod::RoleRef;
use permis::{Credentials, DecisionRequest, DecisionService, DenyReason};

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
    fn new() -> Self {
        let pdp = DecisionService::from_xml_symbolized(POLICY, b"bank-trail-key".to_vec()).unwrap();
        let hr = Authority::new("cn=HR, o=bank", b"hr-key".to_vec());
        pdp.register_authority_key(hr.dn(), hr.verification_key().to_vec());
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
        let cred = self.hr.issue(&dn, RoleRef::new("employee", role), 0, 1_000_000);
        self.pdp
            .decide(&DecisionRequest {
                subject: dn,
                credentials: Credentials::Push(vec![cred]),
                operation: op.into(),
                target: target.into(),
                context: ctx.parse().unwrap(),
                environment: vec![("timeOfDay".into(), "09:00".into())],
                timestamp: ts,
            })
            .is_granted()
    }

    fn handle_cash(&mut self, user: &str, branch: &str, period: &str, ts: u64) -> bool {
        self.request(
            user,
            "Teller",
            "handleCash",
            "http://bank/till",
            &format!("Branch={branch}, Period={period}"),
            ts,
        )
    }

    fn audit(&mut self, user: &str, branch: &str, period: &str, ts: u64) -> bool {
        self.request(
            user,
            "Auditor",
            "audit",
            "http://bank/books",
            &format!("Branch={branch}, Period={period}"),
            ts,
        )
    }

    fn commit_audit(&mut self, user: &str, branch: &str, period: &str, ts: u64) -> bool {
        self.request(
            user,
            "Auditor",
            "CommitAudit",
            "http://audit.location.com/audit",
            &format!("Branch={branch}, Period={period}"),
            ts,
        )
    }
}

/// The paper's §2.1 narrative: "if a person has ever acted as a Teller
/// (or an Auditor) before some event such as the annual audit, then he
/// will no longer be authorized to activate the role of Auditor (or a
/// Teller) now."
#[test]
fn promoted_teller_cannot_audit_this_period() {
    let mut bank = Bank::new();
    // January: alice is a teller in York.
    assert!(bank.handle_cash("alice", "York", "2006", 100));
    // June: alice was promoted to auditor. The annual audit begins...
    assert!(!bank.audit("alice", "York", "2006", 600));
    // ...and the star scope blocks her in every branch.
    assert!(!bank.audit("alice", "Leeds", "2006", 601));
    // An untainted auditor proceeds.
    assert!(bank.audit("bob", "York", "2006", 602));
}

/// The reverse direction: an auditor may not subsequently handle cash.
#[test]
fn auditor_cannot_become_teller() {
    let mut bank = Bank::new();
    assert!(bank.audit("bob", "York", "2006", 1));
    assert!(!bank.handle_cash("bob", "Leeds", "2006", 2));
}

/// CommitAudit is the policy's last step: it terminates the period's
/// context instance, flushes retained ADI, and frees everyone.
#[test]
fn commit_audit_resets_the_period() {
    let mut bank = Bank::new();
    assert!(bank.handle_cash("alice", "York", "2006", 1));
    assert!(!bank.audit("alice", "York", "2006", 2));

    assert!(bank.commit_audit("bob", "York", "2006", 3));
    assert_eq!(bank.pdp.adi().len(), 0, "history flushed after CommitAudit");

    // A new audit cycle (same period label = a new instance): alice may
    // now audit.
    assert!(bank.audit("alice", "York", "2006", 4));
}

/// Periods are independent `!` instances: history from 2006 does not
/// constrain 2007.
#[test]
fn new_period_is_a_fresh_instance() {
    let mut bank = Bank::new();
    assert!(bank.handle_cash("alice", "York", "2006", 1));
    assert!(bank.audit("alice", "York", "2007", 2));
    // But within 2007 she is now an auditor — no cash handling.
    assert!(!bank.handle_cash("alice", "York", "2007", 3));
}

/// Same-role repetition never trips the constraint.
#[test]
fn tellers_keep_telling() {
    let mut bank = Bank::new();
    for branch in ["York", "Leeds", "Hull"] {
        for ts in 0..5 {
            assert!(bank.handle_cash("alice", branch, "2006", ts));
        }
    }
    // Exactly one retained record per (constraint-relevant) grant.
    assert_eq!(bank.pdp.adi().len(), 15);
}

/// The audit trail records every decision, grant and deny alike, and
/// stays tamper-evident.
#[test]
fn audit_trail_complete_and_verifiable() {
    let mut bank = Bank::new();
    bank.handle_cash("alice", "York", "2006", 1);
    bank.audit("alice", "York", "2006", 2); // deny
    bank.audit("bob", "York", "2006", 3);
    bank.commit_audit("bob", "York", "2006", 4);

    use audit::EventKind;
    let kinds: Vec<EventKind> = bank.pdp.with_trail(|trail| {
        trail.verify().unwrap();
        trail.open_records().iter().map(|r| r.event.kind).collect()
    });
    assert_eq!(kinds.iter().filter(|k| **k == EventKind::Grant).count(), 3);
    assert_eq!(kinds.iter().filter(|k| **k == EventKind::Deny).count(), 1);
    assert_eq!(kinds.iter().filter(|k| **k == EventKind::ContextTerminated).count(), 1);
}

/// Outsiders and forged credentials stay out regardless of MSoD.
#[test]
fn perimeter_checks_still_hold() {
    let bank = Bank::new();
    // Subject outside o=bank.
    let mut rogue = Authority::new("cn=HR, o=bank", b"wrong-key".to_vec());
    let cred = rogue.issue("cn=eve, o=crime", RoleRef::new("employee", "Teller"), 0, 100);
    let out = bank.pdp.decide(&DecisionRequest {
        subject: "cn=eve, o=crime".into(),
        credentials: Credentials::Push(vec![cred]),
        operation: "handleCash".into(),
        target: "http://bank/till".into(),
        context: "Branch=York, Period=2006".parse().unwrap(),
        environment: vec![],
        timestamp: 1,
    });
    assert_eq!(out.deny_reason(), Some(&DenyReason::SubjectOutsideDomain));

    // Inside the domain but signed with the wrong key.
    let cred = rogue.issue("cn=eve, o=bank", RoleRef::new("employee", "Teller"), 0, 100);
    let out = bank.pdp.decide(&DecisionRequest {
        subject: "cn=eve, o=bank".into(),
        credentials: Credentials::Push(vec![cred]),
        operation: "handleCash".into(),
        target: "http://bank/till".into(),
        context: "Branch=York, Period=2006".parse().unwrap(),
        environment: vec![],
        timestamp: 2,
    });
    assert!(matches!(out.deny_reason(), Some(DenyReason::NoValidRoles { .. })));
}
