//! Pins the duplicate-privilege MMEP rule (§2.4): listing the same
//! privilege twice in an MMEP multiset means *one* exercise of it is
//! allowed per business-context instance and the duplicate demands a
//! genuine repeat — plus its interaction with purge-on-last-step.
//!
//! Exercised on the in-memory and the journaled service, with every
//! verdict refereed by the spec oracle.

use modelcheck::{oracle_request, project, Oracle};
use msod::{ConstraintKind, RoleRef};
use permis::{DecisionOutcome, DecisionRequest, DecisionService, DenyReason};

/// MMEP {approve@check, approve@check} m=2 — "the same manager may
/// approve a check at most once per process instance".
const DUP_POLICY: &str = r#"<RBACPolicy id="dup" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="approve" targetURI="check">
      <AllowedRole value="Manager"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="approve" target="check"/>
        <Privilege operation="approve" target="check"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

/// Same rule plus a declared last step, so a granted `ship` purges the
/// instance's retained ADI and the count starts over.
const DUP_POLICY_LAST_STEP: &str = r#"<RBACPolicy id="dup2" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="approve" targetURI="check">
      <AllowedRole value="Manager"/>
    </TargetAccess>
    <TargetAccess operation="ship" targetURI="done">
      <AllowedRole value="Manager"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <LastStep operation="ship" targetURI="done"/>
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="approve" target="check"/>
        <Privilege operation="approve" target="check"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

/// {approve@check, approve@check, ship@done} m=3: the forbidden
/// multiset needs approve *twice* and ship *once*.
const TRIPLE_POLICY: &str = r#"<RBACPolicy id="dup3" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="approve" targetURI="check">
      <AllowedRole value="Manager"/>
    </TargetAccess>
    <TargetAccess operation="ship" targetURI="done">
      <AllowedRole value="Manager"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMEP ForbiddenCardinality="3">
        <Privilege operation="approve" target="check"/>
        <Privilege operation="approve" target="check"/>
        <Privilege operation="ship" target="done"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn req(user: &str, op: &str, target: &str, ctx: &str, ts: u64) -> DecisionRequest {
    DecisionRequest::with_roles(
        user,
        vec![RoleRef::new("employee", "Manager")],
        op,
        target,
        ctx.parse().unwrap(),
        ts,
    )
}

fn assert_mmep_deny(out: &DecisionOutcome, current: usize, historic: usize, m: usize) {
    match out.deny_reason() {
        Some(DenyReason::Msod(d)) => {
            assert_eq!(d.kind, ConstraintKind::Mmep);
            assert_eq!((d.current_matches, d.history_matches), (current, historic));
            assert_eq!(d.forbidden_cardinality, m);
        }
        other => panic!("expected an MMEP denial, got {other:?}"),
    }
}

/// Run one scenario on the in-memory and on the journaled service; the
/// closure gets a decide function so the assertions are written once,
/// and every verdict must also equal the spec oracle's.
fn on_both_services(
    xml: &str,
    scenario: impl Fn(&mut dyn FnMut(DecisionRequest) -> DecisionOutcome),
) {
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let policy = policy::parse_rbac_policy(xml).unwrap();
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("msod-dup-{}-{run}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let in_memory = DecisionService::new_symbolized(policy.clone(), b"k".to_vec());
    let (durable, _) =
        DecisionService::open_persistent(policy.clone(), b"k".to_vec(), &dir, 4).unwrap();
    let refereed = |svc: &dyn Fn(&DecisionRequest) -> DecisionOutcome| {
        let mut oracle = Oracle::new(policy.msod.clone());
        scenario(&mut |r| {
            let outcome = svc(&r);
            assert_eq!(project(&outcome), oracle.decide(&oracle_request(&r)), "{r:?}");
            outcome
        });
    };
    refereed(&|r| in_memory.decide(r));
    refereed(&|r| durable.decide(r));
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_entry_allows_one_exercise_per_instance() {
    on_both_services(DUP_POLICY, |decide| {
        // First approval consumes one of the two entries: 1 < 2.
        assert!(decide(req("mike", "approve", "check", "Proc=1", 1)).is_granted());
        // The duplicate demands a *repeat* by the same user in the same
        // instance — which is exactly what this is. 1 current + 1
        // historic = 2 >= 2.
        assert_mmep_deny(&decide(req("mike", "approve", "check", "Proc=1", 2)), 1, 1, 2);
        // Another user's history is separate (§4.2 keys ADI by user).
        assert!(decide(req("mary", "approve", "check", "Proc=1", 3)).is_granted());
        // Another instance is a fresh BC instance.
        assert!(decide(req("mike", "approve", "check", "Proc=2", 4)).is_granted());
        // And mike is still blocked in the original instance.
        assert_mmep_deny(&decide(req("mike", "approve", "check", "Proc=1", 5)), 1, 1, 2);
    });
}

#[test]
fn triple_multiset_needs_every_copy_exercised() {
    on_both_services(TRIPLE_POLICY, |decide| {
        // approve, approve: the two historic approvals can only satisfy
        // ONE remaining approve entry each time — q (ship) is never
        // exercised, so the multiset {approve, approve, ship} is never
        // fully covered and approvals keep flowing.
        assert!(decide(req("mike", "approve", "check", "Proc=1", 1)).is_granted());
        assert!(decide(req("mike", "approve", "check", "Proc=1", 2)).is_granted());
        assert!(decide(req("mike", "approve", "check", "Proc=1", 3)).is_granted());
        // But ship now completes the multiset: 1 current (ship) + 2
        // historic (both approve entries) = 3 >= 3.
        assert_mmep_deny(&decide(req("mike", "ship", "done", "Proc=1", 4)), 1, 2, 3);
        // Order dual: approve + ship history, then a second approve is
        // the completing exercise.
        assert!(decide(req("mary", "approve", "check", "Proc=1", 5)).is_granted());
        assert!(decide(req("mary", "ship", "done", "Proc=1", 6)).is_granted());
        assert_mmep_deny(&decide(req("mary", "approve", "check", "Proc=1", 7)), 1, 2, 3);
    });
}

#[test]
fn last_step_purge_resets_the_duplicate_count() {
    on_both_services(DUP_POLICY_LAST_STEP, |decide| {
        assert!(decide(req("mike", "approve", "check", "Proc=1", 1)).is_granted());
        assert_mmep_deny(&decide(req("mike", "approve", "check", "Proc=1", 2)), 1, 1, 2);
        // The granted last step terminates Proc=1 and purges its
        // retained ADI — including the last step's own record.
        let out = decide(req("mike", "ship", "done", "Proc=1", 3));
        match &out {
            DecisionOutcome::Grant { msod: Some(g), .. } => {
                assert_eq!(g.terminated.len(), 1);
                // Only mike's approval: ship@done is in no MMEP
                // multiset, so the last step itself adds no record
                // (§4.2 step 7 only retains constraint-relevant ADI).
                assert_eq!(g.records_purged, 1);
            }
            other => panic!("last step should grant with MSoD detail, got {other:?}"),
        }
        // A fresh instance of Proc=1: the count starts over.
        assert!(decide(req("mike", "approve", "check", "Proc=1", 4)).is_granted());
        assert_mmep_deny(&decide(req("mike", "approve", "check", "Proc=1", 5)), 1, 1, 2);
    });
}
