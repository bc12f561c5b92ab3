//! The `bank` fixture: one RBAC + MSoD policy document at the width of
//! "ARBAC Policy for a Large Multi-National Bank" (PAPERS.md) —
//! hundreds of branches, role templates instead of single roles — built
//! as XML and handed to the program's own parser, so policy parse and
//! compile are measured on a realistic document.
//!
//! - 16 role-template pairs `Teller_k` / `Auditor_k`, each one MMER(m=2)
//!   policy scoped `Branch=*, Period=!` with last step `commitAudit_k`
//!   (paper Example 1).
//! - 8 MMEP(m=2) policies scoped `TaxOffice=!, Refund=!` over
//!   `{prepare, approve, approve, issue}` with last step
//!   `confirmRefund_j` (paper Example 2; the duplicated `approve` entry
//!   is the "two different managers" rule).
//! - a `Dept=…` context family no MSoD policy matches, and the §4.3
//!   management rule.
//!
//! All sixteen MMER policies share one scope, so every `Branch/Period`
//! request is matched against (and evaluated under) all of them: the
//! matcher table is 24 wide. Period and refund *values* are
//! template-specific (`k03-p000017`), so the templates' instances stay
//! disjoint and a verdict depends only on the requesting template's
//! own history — which is what lets the generator's shadow model know
//! every expected verdict without re-implementing §4.2.

use std::fmt::Write as _;

use msod::RoleRef;

/// Role-template pairs (= MMER policies).
pub const MMER_TEMPLATES: usize = 16;
/// Refund templates (= MMEP policies).
pub const MMEP_TEMPLATES: usize = 8;
/// Branches of the bank.
pub const BRANCHES: usize = 256;
/// Tax offices.
pub const TAX_OFFICES: usize = 64;
/// Departments (the not-applicable context family).
pub const DEPTS: usize = 64;

/// Attribute type of every role in the fixture.
pub const ROLE_TYPE: &str = "employee";
/// DN of the one trusted source of authority.
pub const SOA_DN: &str = "cn=HR, o=bank";
/// Signing key of that authority (HMAC substitution, see `credential`).
pub const SOA_KEY: &[u8] = b"bank-hr-signing-key";
/// Audit-trail HMAC key of every service the benchmark builds.
pub const TRAIL_KEY: &[u8] = b"benchmark-trail-key";
/// The administrator of the §4.3 management port.
pub const ADMIN_DN: &str = "cn=admin, o=bank";

/// The three listed privileges of a refund template, in entry order
/// (`approve` is listed twice in the MMEP).
pub const REFUND_STEPS: [&str; 3] = ["prepareRefund", "approveRefund", "issueRefund"];

/// A role of the fixture.
pub fn role(value: impl Into<String>) -> RoleRef {
    RoleRef::new(ROLE_TYPE, value)
}

/// `Teller_k`.
pub fn teller(k: usize) -> String {
    format!("Teller_{k}")
}

/// `Auditor_k`.
pub fn auditor(k: usize) -> String {
    format!("Auditor_{k}")
}

/// The role a refund step of template `j` needs: clerks prepare and
/// issue, managers approve.
pub fn refund_role(step: usize, j: usize) -> String {
    if step == 1 {
        format!("Manager_{j}")
    } else {
        format!("Clerk_{j}")
    }
}

/// `(operation, target)` of a teller's daily work in template `k`.
pub fn cash_op(k: usize) -> (String, String) {
    (format!("handleCash_{k}"), format!("http://bank/till/{k}"))
}

/// `(operation, target)` of an auditor's work in template `k`.
pub fn audit_op(k: usize) -> (String, String) {
    (format!("audit_{k}"), format!("http://bank/books/{k}"))
}

/// The last step of MMER template `k`.
pub fn commit_op(k: usize) -> (String, String) {
    (format!("commitAudit_{k}"), format!("http://bank/audit/{k}"))
}

/// `(operation, target)` of refund step `step` in template `j`.
pub fn refund_op(step: usize, j: usize) -> (String, String) {
    (format!("{}_{j}", REFUND_STEPS[step]), format!("http://tax/refund/{j}"))
}

/// The last step of MMEP template `j`.
pub fn confirm_op(j: usize) -> (String, String) {
    (format!("confirmRefund_{j}"), format!("http://tax/refund/{j}"))
}

/// The operation every `Staff` member may perform in a `Dept` context.
pub fn report_op() -> (String, String) {
    ("viewReport".to_owned(), "http://bank/reports".to_owned())
}

fn target_access(xml: &mut String, (op, target): (String, String), roles: &[String]) {
    let _ = writeln!(xml, r#"    <TargetAccess operation="{op}" targetURI="{target}">"#);
    for r in roles {
        let _ = writeln!(xml, r#"      <AllowedRole value="{r}"/>"#);
    }
    xml.push_str("    </TargetAccess>\n");
}

/// The fixture's policy document.
pub fn bank_policy_xml() -> String {
    let mut xml = String::with_capacity(32 * 1024);
    let _ = writeln!(xml, r#"<RBACPolicy id="bank" roleType="{ROLE_TYPE}">"#);
    xml.push_str("  <SubjectPolicy>\n    <SubjectDomain dn=\"o=bank\"/>\n  </SubjectPolicy>\n");
    let _ = writeln!(xml, "  <SOAPolicy>\n    <SOA dn=\"{SOA_DN}\"/>\n  </SOAPolicy>");
    xml.push_str("  <TargetAccessPolicy>\n");
    for k in 0..MMER_TEMPLATES {
        target_access(&mut xml, cash_op(k), &[teller(k)]);
        target_access(&mut xml, audit_op(k), &[auditor(k)]);
        target_access(&mut xml, commit_op(k), &[auditor(k)]);
    }
    for j in 0..MMEP_TEMPLATES {
        for step in 0..REFUND_STEPS.len() {
            target_access(&mut xml, refund_op(step, j), &[refund_role(step, j)]);
        }
        target_access(&mut xml, confirm_op(j), &[refund_role(1, j)]);
    }
    target_access(&mut xml, report_op(), &["Staff".to_owned()]);
    target_access(
        &mut xml,
        ("*".to_owned(), permis::MGMT_TARGET.to_owned()),
        &[permis::RETAINED_ADI_CONTROLLER.to_owned()],
    );
    xml.push_str("  </TargetAccessPolicy>\n  <MSoDPolicySet>\n");
    for k in 0..MMER_TEMPLATES {
        let (op, target) = commit_op(k);
        let _ = writeln!(
            xml,
            r#"    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="{op}" targetURI="{target}"/>
      <MMER ForbiddenCardinality="2">
        <Role type="{ROLE_TYPE}" value="{}"/>
        <Role type="{ROLE_TYPE}" value="{}"/>
      </MMER>
    </MSoDPolicy>"#,
            teller(k),
            auditor(k)
        );
    }
    for j in 0..MMEP_TEMPLATES {
        let (op, target) = confirm_op(j);
        let _ = writeln!(
            xml,
            r#"    <MSoDPolicy BusinessContext="TaxOffice=!, Refund=!">
      <LastStep operation="{op}" targetURI="{target}"/>
      <MMEP ForbiddenCardinality="2">"#
        );
        for step in [0, 1, 1, 2] {
            let (op, target) = refund_op(step, j);
            let _ = writeln!(xml, r#"        <Privilege target="{target}" operation="{op}"/>"#);
        }
        xml.push_str("      </MMEP>\n    </MSoDPolicy>\n");
    }
    xml.push_str("  </MSoDPolicySet>\n</RBACPolicy>\n");
    xml
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_parses_to_24_msod_policies() {
        let policy = policy::parse_rbac_policy(&bank_policy_xml()).expect("fixture parses");
        assert_eq!(policy.msod.len(), MMER_TEMPLATES + MMEP_TEMPLATES);
        assert_eq!(policy.trusted_soas, vec![SOA_DN.to_owned()]);
    }
}
