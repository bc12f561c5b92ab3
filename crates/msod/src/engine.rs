//! The MSoD enforcement algorithm — a faithful implementation of paper
//! §4.2, steps 1–8.
//!
//! The algorithm runs *after* the normal RBAC check has produced an
//! interim **grant**; it can only confirm the grant (possibly retaining
//! history) or flip it to **deny**. Inputs are the five request
//! parameters of §4.1: user ID, activated role(s), operation, target and
//! business-context instance (plus a timestamp for the retained record).
//!
//! One deliberate resolution of an ambiguity in the published
//! pseudo-code: step 7 stores the `retainedADIlist` per matched policy
//! while iterating, but the algorithm's closing note states "if the
//! access request is denied, then no change needs to be made to the
//! retained ADI". We honour the note — additions and purges from *all*
//! matched policies are buffered and committed only when the overall
//! outcome is a grant.
//!
//! The request and verdict types here are the MSoD stage's interface
//! in every build. `MsodEngine`, the string-keyed transcription of
//! the algorithm over any [`crate::RetainedAdi`], compiles only under `cfg(test)`
//! or the `test-oracle` feature: it is the reference the compiled
//! [`crate::SymEngine`] is tested against, never a decision path.

use context::{BoundContext, ContextInstance};

#[cfg(any(test, feature = "test-oracle"))]
use crate::adi::{AdiRecord, RetainedAdi};
#[cfg(any(test, feature = "test-oracle"))]
use crate::policy::{MsodPolicy, MsodPolicySet};
#[cfg(any(test, feature = "test-oracle"))]
use crate::privilege::Privilege;
use crate::privilege::RoleRef;
use crate::sym::RequestLimit;

/// The request parameters handed from the PEP to the PDP (§4.1).
#[derive(Debug, Clone)]
pub struct MsodRequest<'a> {
    /// The user's authenticated ID — mandatory for MSoD, because it is
    /// what links the user's sessions together (§4.1).
    pub user: &'a str,
    /// The role(s) the user has activated for this request.
    pub roles: &'a [RoleRef],
    /// The requested operation.
    pub operation: &'a str,
    /// The requested target object.
    pub target: &'a str,
    /// The current business-context instance, supplied by the PEP.
    pub context: &'a ContextInstance,
    /// Decision time, recorded into retained ADI.
    pub timestamp: u64,
}

/// Which constraint family produced a denial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintKind {
    /// Mmer.
    Mmer,
    /// Mmep.
    Mmep,
}

/// Why a request was denied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenyDetail {
    /// Index of the violated policy within the policy set.
    pub policy_index: usize,
    /// The bound business context the violation occurred in.
    pub bound: BoundContext,
    /// MMER or MMEP.
    pub kind: ConstraintKind,
    /// Index of the violated constraint within the policy.
    pub constraint_index: usize,
    /// Entries consumed by the current request (`nr`; 1 for MMEP).
    pub current_matches: usize,
    /// Entries matched against retained history (`count`).
    pub history_matches: usize,
    /// The constraint's forbidden cardinality `m`.
    pub forbidden_cardinality: usize,
    /// Retained-ADI records visited while evaluating constraints for
    /// this request, up to and including the violated policy
    /// (observability only — not part of the §4.2 verdict, and not part
    /// of the stable reason string).
    pub records_consulted: usize,
}

impl std::fmt::Display for DenyDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} #{} of policy #{} in context [{}]: {} current + {} historic >= {}",
            match self.kind {
                ConstraintKind::Mmer => "MMER",
                ConstraintKind::Mmep => "MMEP",
            },
            self.constraint_index,
            self.policy_index,
            self.bound,
            self.current_matches,
            self.history_matches,
            self.forbidden_cardinality
        )
    }
}

/// What a confirmed grant did to the retained ADI.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GrantDetail {
    /// Indices of the policies that matched the request's context.
    pub matched_policies: Vec<usize>,
    /// Retained-ADI records added.
    pub records_added: usize,
    /// Bound contexts terminated by a last step.
    pub terminated: Vec<BoundContext>,
    /// Records purged by those terminations.
    pub records_purged: usize,
    /// Retained-ADI records visited while evaluating constraints
    /// (observability only — 0 when no constraint was evaluated).
    pub records_consulted: usize,
}

/// The MSoD stage's verdict on an interim-granted request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsodDecision {
    /// §4.2 step 1: no policy context matched — MSoD does not apply and
    /// the interim grant stands, with no history retained.
    NotApplicable,
    /// The grant stands; history was retained / purged as described.
    Grant(GrantDetail),
    /// The grant is flipped to deny; the retained ADI is unchanged.
    Deny(DenyDetail),
    /// The request exceeds a fixed bound of the decision engine, so it
    /// is denied without being evaluated; the retained ADI is
    /// unchanged.
    ResourceLimit(RequestLimit),
}

impl MsodDecision {
    /// Whether the interim grant survives.
    pub fn is_granted(&self) -> bool {
        matches!(self, MsodDecision::NotApplicable | MsodDecision::Grant(_))
    }
}

/// Tunable engine behaviour.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// The published step 4 jumps straight to step 7 when an operation
    /// *starts* a context instance, so MMER/MMEP are not evaluated on
    /// the very first request (there is no history yet, but a request
    /// that *simultaneously* activates `m` conflicting roles would also
    /// slip through). With this extension enabled, constraints are
    /// evaluated on the first step too. Off by default — faithful mode.
    pub check_constraints_on_first_step: bool,
}

#[cfg(any(test, feature = "test-oracle"))]
/// The enforcement engine: a policy set plus options. Stateless apart
/// from the policies; the retained ADI is passed per call so callers
/// control the backend (in-memory, persistent, …).
#[derive(Debug, Clone, Default)]
pub struct MsodEngine {
    policies: MsodPolicySet,
    options: EngineOptions,
}

#[cfg(any(test, feature = "test-oracle"))]
impl MsodEngine {
    /// Engine over a policy set with default (faithful) options.
    pub fn new(policies: MsodPolicySet) -> Self {
        MsodEngine { policies, options: EngineOptions::default() }
    }

    /// Engine with explicit options.
    pub fn with_options(policies: MsodPolicySet, options: EngineOptions) -> Self {
        MsodEngine { policies, options }
    }

    /// The policy set.
    pub fn policies(&self) -> &MsodPolicySet {
        &self.policies
    }

    /// The engine's behaviour options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Run §4.2 for one interim-granted request.
    pub fn enforce(&self, adi: &mut dyn RetainedAdi, req: &MsodRequest<'_>) -> MsodDecision {
        // Step 1: match the input context instance against the policy
        // set; exit if nothing matches.
        let matched = self.policies.matching(req.context);
        if matched.is_empty() {
            return MsodDecision::NotApplicable;
        }

        // The request yields at most ONE retained record (the 6-tuple is
        // identical whichever policy asks for it; retaining duplicates
        // would inflate later occurrence counts).
        let mut want_record = false;
        let mut consulted = 0usize;
        let mut terminations: Vec<BoundContext> = Vec::new();

        // Step 2/8: iterate every matched policy.
        for &pi in &matched {
            let policy = &self.policies.policies()[pi];
            // Step 1 (substitution): bind '!' components to the input
            // instance. Cannot fail: the instance just matched.
            let bound =
                policy.business_context.bind(req.context).expect("matched instance must bind");

            // Step 3: has this context instance already started (any
            // retained record within the bound context)?
            let started = adi.context_active(&bound);

            if !started {
                // Step 4: recording starts at the policy's first step,
                // or immediately when no first step is declared.
                let starts_now =
                    policy.first_step.is_none() || policy.is_first_step(req.operation, req.target);
                if starts_now {
                    if self.options.check_constraints_on_first_step {
                        if let Some(deny) =
                            check_constraints(policy, pi, &bound, req, adi, &mut consulted)
                        {
                            return MsodDecision::Deny(deny);
                        }
                    }
                    want_record = true;
                }
                // goto 7.
            } else {
                // Steps 5 and 6 against retained history.
                match check_constraints(policy, pi, &bound, req, adi, &mut consulted) {
                    Some(deny) => return MsodDecision::Deny(deny),
                    None => {
                        if constraint_matches_request(policy, req) {
                            want_record = true;
                        }
                    }
                }
            }

            // Step 7: a granted last step terminates the context
            // instance and flushes its history.
            if policy.is_last_step(req.operation, req.target) {
                terminations.push(bound);
            }
        }

        // Commit phase (see module docs): the overall outcome is grant.
        let records_added = usize::from(want_record);
        if want_record {
            adi.add(make_record(req));
        }
        let mut records_purged = 0;
        for bound in &terminations {
            records_purged += adi.purge(bound);
        }
        MsodDecision::Grant(GrantDetail {
            matched_policies: matched,
            records_added,
            terminated: terminations,
            records_purged,
            records_consulted: consulted,
        })
    }
}

#[cfg(any(test, feature = "test-oracle"))]
pub(crate) fn make_record(req: &MsodRequest<'_>) -> AdiRecord {
    AdiRecord {
        user: req.user.to_owned(),
        roles: req.roles.to_vec(),
        operation: req.operation.to_owned(),
        target: req.target.to_owned(),
        context: req.context.clone(),
        timestamp: req.timestamp,
    }
}

#[cfg(any(test, feature = "test-oracle"))]
/// Whether any constraint of `policy` is touched by the request (used to
/// decide whether a step-5/6 grant retains a record).
pub(crate) fn constraint_matches_request(policy: &MsodPolicy, req: &MsodRequest<'_>) -> bool {
    policy.mmer().iter().any(|m| m.split_matches(req.roles).0 > 0)
        || policy.mmep().iter().any(|m| m.split_match(req.operation, req.target).is_some())
}

#[cfg(any(test, feature = "test-oracle"))]
/// Steps 5 (every MMER) and 6 (every MMEP) for one policy. Returns the
/// first violation, if any. `consulted` accumulates the retained
/// records visited, for decision tracing.
pub(crate) fn check_constraints(
    policy: &MsodPolicy,
    policy_index: usize,
    bound: &BoundContext,
    req: &MsodRequest<'_>,
    adi: &dyn RetainedAdi,
    consulted: &mut usize,
) -> Option<DenyDetail> {
    // Split every constraint against the request first; the per-entry
    // tallies borrow the constraint entries themselves, so the single
    // history pass below counts over borrows — no cloned keys, no
    // per-record allocation.
    let mut mmer_splits: Vec<(usize, Vec<Tally<'_, RoleRef>>)> =
        policy.mmer().iter().map(|m| split_to_tallies(m.split_matches(req.roles))).collect();
    let mut mmep_splits: Vec<Option<Vec<Tally<'_, Privilege>>>> = policy
        .mmep()
        .iter()
        .map(|m| m.split_match(req.operation, req.target).map(tally_remaining))
        .collect();

    // One pass over the user's retained history in this bound context:
    // for each remaining constraint entry, count how often history
    // satisfies it (role occurrences for MMER, one privilege occurrence
    // per record for MMEP).
    adi.visit_user_records(req.user, bound, &mut |rec| {
        *consulted += 1;
        for (_, tallies) in &mut mmer_splits {
            for t in tallies.iter_mut() {
                t.seen += rec.roles.iter().filter(|r| *r == t.entry).count();
            }
        }
        for tallies in mmep_splits.iter_mut().flatten() {
            for t in tallies.iter_mut() {
                if t.entry.matches(&rec.operation, &rec.target) {
                    t.seen += 1;
                }
            }
        }
    });

    // Step 5: MMER.
    for (ci, (mmer, (nr, tallies))) in policy.mmer().iter().zip(&mmer_splits).enumerate() {
        // 5.i/5.ii: skip constraints no activated role touches.
        if *nr == 0 {
            continue;
        }
        // 5.iii: count remaining entries satisfiable from history.
        let count = multiset_count(tallies);
        // 5.iv: grant iff count < ForbiddenCardinality - nr. (When
        // nr >= m the right-hand side is <= 0 and the request — which
        // activates m conflicting roles at once — is denied outright.)
        let m = mmer.forbidden_cardinality();
        if count + nr >= m {
            return Some(DenyDetail {
                policy_index,
                bound: bound.clone(),
                kind: ConstraintKind::Mmer,
                constraint_index: ci,
                current_matches: *nr,
                history_matches: count,
                forbidden_cardinality: m,
                records_consulted: *consulted,
            });
        }
    }

    // Step 6: MMEP.
    for (ci, (mmep, split)) in policy.mmep().iter().zip(&mmep_splits).enumerate() {
        // 6.i/6.ii: does the requested privilege match an entry?
        let Some(tallies) = split else {
            continue;
        };
        // 6.iii: count remaining entries satisfiable from history,
        // then grant iff count < ForbiddenCardinality - 1.
        let count = multiset_count(tallies);
        let m = mmep.forbidden_cardinality();
        if count + 1 >= m {
            return Some(DenyDetail {
                policy_index,
                bound: bound.clone(),
                kind: ConstraintKind::Mmep,
                constraint_index: ci,
                current_matches: 1,
                history_matches: count,
                forbidden_cardinality: m,
                records_consulted: *consulted,
            });
        }
    }
    None
}

#[cfg(any(test, feature = "test-oracle"))]
/// One distinct remaining constraint entry: how many times the
/// constraint lists it (`listed`) and how many historic occurrences
/// were seen (`seen`). Borrows the entry from the constraint itself.
struct Tally<'a, T> {
    entry: &'a T,
    listed: usize,
    seen: usize,
}

#[cfg(any(test, feature = "test-oracle"))]
fn tally_remaining<T: Eq>(remaining: Vec<&T>) -> Vec<Tally<'_, T>> {
    let mut tallies: Vec<Tally<'_, T>> = Vec::with_capacity(remaining.len());
    for entry in remaining {
        match tallies.iter_mut().find(|t| t.entry == entry) {
            Some(t) => t.listed += 1,
            None => tallies.push(Tally { entry, listed: 1, seen: 0 }),
        }
    }
    tallies
}

#[cfg(any(test, feature = "test-oracle"))]
fn split_to_tallies<T: Eq>((nr, remaining): (usize, Vec<&T>)) -> (usize, Vec<Tally<'_, T>>) {
    (nr, tally_remaining(remaining))
}

#[cfg(any(test, feature = "test-oracle"))]
/// How many remaining entries (a multiset) history satisfies: for each
/// distinct entry, at most `min(times listed, times seen)` — so a
/// duplicated entry needs genuinely repeated history to count twice.
fn multiset_count<T>(tallies: &[Tally<'_, T>]) -> usize {
    tallies.iter().map(|t| t.listed.min(t.seen)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::MemoryAdi;
    use crate::constraint::{Mmep, Mmer};
    use crate::policy::MsodPolicy;

    fn rr(v: &str) -> RoleRef {
        RoleRef::new("employee", v)
    }

    /// Example 1 of the paper: Teller/Auditor MMER across all branches,
    /// per audit period, terminated by CommitAudit.
    fn bank_engine() -> MsodEngine {
        let policy = MsodPolicy::new(
            "Branch=*, Period=!".parse().unwrap(),
            None,
            Some(Privilege::new("CommitAudit", "http://audit.location.com/audit")),
            vec![Mmer::new(vec![rr("Teller"), rr("Auditor")], 2).unwrap()],
            vec![],
        )
        .unwrap();
        MsodEngine::new(MsodPolicySet::new(vec![policy]))
    }

    fn request<'a>(
        user: &'a str,
        roles: &'a [RoleRef],
        op: &'a str,
        target: &'a str,
        ctx: &'a ContextInstance,
        ts: u64,
    ) -> MsodRequest<'a> {
        MsodRequest { user, roles, operation: op, target, context: ctx, timestamp: ts }
    }

    #[test]
    fn unmatched_context_is_not_applicable() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let ctx: ContextInstance = "Dept=IT".parse().unwrap();
        let roles = [rr("Teller")];
        let d = engine.enforce(&mut adi, &request("alice", &roles, "op", "t", &ctx, 1));
        assert_eq!(d, MsodDecision::NotApplicable);
        assert!(adi.is_empty());
    }

    #[test]
    fn example1_teller_then_auditor_denied_across_sessions() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let leeds: ContextInstance = "Branch=Leeds, Period=2006".parse().unwrap();

        // Session 1: alice handles cash as Teller in York.
        let teller = [rr("Teller")];
        let d =
            engine.enforce(&mut adi, &request("alice", &teller, "handleCash", "till", &york, 1));
        assert!(d.is_granted());
        assert_eq!(adi.len(), 1);

        // Later session: alice (promoted) tries to audit — in ANOTHER
        // branch. The '*' scope still catches her.
        let auditor = [rr("Auditor")];
        let d = engine.enforce(&mut adi, &request("alice", &auditor, "audit", "books", &leeds, 9));
        match d {
            MsodDecision::Deny(detail) => {
                assert_eq!(detail.kind, ConstraintKind::Mmer);
                assert_eq!(detail.current_matches, 1);
                assert_eq!(detail.history_matches, 1);
            }
            other => panic!("expected deny, got {other:?}"),
        }
        // Denial leaves ADI unchanged.
        assert_eq!(adi.len(), 1);

        // A different user may audit.
        let d = engine.enforce(&mut adi, &request("bob", &auditor, "audit", "books", &leeds, 10));
        assert!(d.is_granted());
    }

    #[test]
    fn example1_same_role_repeatedly_is_fine() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let teller = [rr("Teller")];
        for ts in 0..5 {
            let d = engine
                .enforce(&mut adi, &request("alice", &teller, "handleCash", "till", &york, ts));
            assert!(d.is_granted(), "repeat {ts}");
        }
    }

    #[test]
    fn example1_new_period_resets_scope() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let p2006: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let p2007: ContextInstance = "Branch=York, Period=2007".parse().unwrap();
        let teller = [rr("Teller")];
        let auditor = [rr("Auditor")];
        engine.enforce(&mut adi, &request("alice", &teller, "handleCash", "till", &p2006, 1));
        // Next period: alice may audit (the '!' re-binds per instance).
        let d = engine.enforce(&mut adi, &request("alice", &auditor, "audit", "books", &p2007, 2));
        assert!(d.is_granted());
    }

    #[test]
    fn example1_commit_audit_purges_history() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let teller = [rr("Teller")];
        let auditor = [rr("Auditor")];
        engine.enforce(&mut adi, &request("alice", &teller, "handleCash", "till", &york, 1));
        assert_eq!(adi.len(), 1);

        // Bob commits the audit: context instance terminates.
        let d = engine.enforce(
            &mut adi,
            &request("bob", &auditor, "CommitAudit", "http://audit.location.com/audit", &york, 5),
        );
        match &d {
            MsodDecision::Grant(g) => {
                assert_eq!(g.terminated.len(), 1);
                assert!(g.records_purged >= 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(adi.len(), 0);

        // After the purge alice may become an auditor in the SAME period
        // name (a new instance of it).
        let d = engine.enforce(&mut adi, &request("alice", &auditor, "audit", "books", &york, 6));
        assert!(d.is_granted());
    }

    /// Example 2 of the paper: the tax-refund process.
    fn tax_engine() -> MsodEngine {
        let check = "http://www.myTaxOffice.com/Check";
        let audit = "http://secret.location.com/audit";
        let results = "http://secret.location.com/results";
        let approve = Privilege::new("approve/disapproveCheck", check);
        let policy = MsodPolicy::new(
            "TaxOffice=!, taxRefundProcess=!".parse().unwrap(),
            Some(Privilege::new("prepareCheck", check)),
            Some(Privilege::new("confirmCheck", audit)),
            vec![],
            vec![
                Mmep::new(
                    vec![
                        Privilege::new("prepareCheck", check),
                        Privilege::new("confirmCheck", audit),
                    ],
                    2,
                )
                .unwrap(),
                Mmep::new(
                    vec![approve.clone(), approve, Privilege::new("combineResults", results)],
                    2,
                )
                .unwrap(),
            ],
        )
        .unwrap();
        MsodEngine::new(MsodPolicySet::new(vec![policy]))
    }

    const CHECK: &str = "http://www.myTaxOffice.com/Check";
    const AUDIT: &str = "http://secret.location.com/audit";
    const RESULTS: &str = "http://secret.location.com/results";

    #[test]
    fn example2_full_process() {
        let engine = tax_engine();
        let mut adi = MemoryAdi::new();
        let proc1: ContextInstance = "TaxOffice=Kent, taxRefundProcess=77".parse().unwrap();
        let clerk = [rr("Clerk")];
        let manager = [rr("Manager")];

        // T1: clerk carol prepares the check (first step).
        assert!(engine
            .enforce(&mut adi, &request("carol", &clerk, "prepareCheck", CHECK, &proc1, 1))
            .is_granted());

        // T2: manager mike approves.
        assert!(engine
            .enforce(
                &mut adi,
                &request("mike", &manager, "approve/disapproveCheck", CHECK, &proc1, 2)
            )
            .is_granted());
        // T2 again by the SAME manager: denied (duplicate-entry MMEP).
        assert!(!engine
            .enforce(
                &mut adi,
                &request("mike", &manager, "approve/disapproveCheck", CHECK, &proc1, 3)
            )
            .is_granted());
        // T2 by a second manager: granted.
        assert!(engine
            .enforce(
                &mut adi,
                &request("mary", &manager, "approve/disapproveCheck", CHECK, &proc1, 4)
            )
            .is_granted());

        // T3: collecting manager must differ from the approvers.
        assert!(!engine
            .enforce(&mut adi, &request("mike", &manager, "combineResults", RESULTS, &proc1, 5))
            .is_granted());
        assert!(engine
            .enforce(&mut adi, &request("max", &manager, "combineResults", RESULTS, &proc1, 6))
            .is_granted());

        // T4: the confirming clerk must differ from the preparer.
        assert!(!engine
            .enforce(&mut adi, &request("carol", &clerk, "confirmCheck", AUDIT, &proc1, 7))
            .is_granted());
        let d =
            engine.enforce(&mut adi, &request("chris", &clerk, "confirmCheck", AUDIT, &proc1, 8));
        assert!(d.is_granted());
        // confirmCheck is the last step: the instance's ADI is flushed.
        assert_eq!(adi.len(), 0);
    }

    #[test]
    fn example2_other_instance_unaffected() {
        let engine = tax_engine();
        let mut adi = MemoryAdi::new();
        let proc1: ContextInstance = "TaxOffice=Kent, taxRefundProcess=77".parse().unwrap();
        let proc2: ContextInstance = "TaxOffice=Kent, taxRefundProcess=78".parse().unwrap();
        let clerk = [rr("Clerk")];

        engine.enforce(&mut adi, &request("carol", &clerk, "prepareCheck", CHECK, &proc1, 1));
        engine.enforce(&mut adi, &request("bob", &clerk, "prepareCheck", CHECK, &proc2, 2));
        // Carol cannot confirm the instance she prepared...
        assert!(!engine
            .enforce(&mut adi, &request("carol", &clerk, "confirmCheck", AUDIT, &proc1, 3))
            .is_granted());
        // ...but may confirm a different instance (the '!' scope is per
        // process instance, §2.2).
        assert!(engine
            .enforce(&mut adi, &request("carol", &clerk, "confirmCheck", AUDIT, &proc2, 4))
            .is_granted());
    }

    #[test]
    fn recording_waits_for_first_step() {
        let engine = tax_engine();
        let mut adi = MemoryAdi::new();
        let proc1: ContextInstance = "TaxOffice=Kent, taxRefundProcess=77".parse().unwrap();
        let clerk = [rr("Clerk")];
        // An operation before the first step: policy matches but no
        // history is retained (context not started).
        let d = engine.enforce(&mut adi, &request("carol", &clerk, "browse", CHECK, &proc1, 1));
        assert!(d.is_granted());
        assert_eq!(adi.len(), 0);
        // The first step starts recording.
        engine.enforce(&mut adi, &request("carol", &clerk, "prepareCheck", CHECK, &proc1, 2));
        assert_eq!(adi.len(), 1);
    }

    #[test]
    fn deny_never_mutates_adi() {
        let engine = tax_engine();
        let mut adi = MemoryAdi::new();
        let proc1: ContextInstance = "TaxOffice=Kent, taxRefundProcess=77".parse().unwrap();
        let clerk = [rr("Clerk")];
        engine.enforce(&mut adi, &request("carol", &clerk, "prepareCheck", CHECK, &proc1, 1));
        let before = adi.snapshot();
        let d =
            engine.enforce(&mut adi, &request("carol", &clerk, "confirmCheck", AUDIT, &proc1, 2));
        assert!(!d.is_granted());
        assert_eq!(adi.snapshot(), before);
    }

    #[test]
    fn faithful_mode_first_step_skips_constraints() {
        // Step 4 of the published algorithm bypasses steps 5/6 for the
        // operation that starts a context instance.
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let both = [rr("Teller"), rr("Auditor")];
        let d = engine.enforce(&mut adi, &request("alice", &both, "op", "t", &york, 1));
        assert!(d.is_granted(), "faithful mode lets the starting op through");
        // But the very next request hits the retained history.
        let d = engine.enforce(&mut adi, &request("alice", &[rr("Teller")], "op", "t", &york, 2));
        assert!(!d.is_granted());
    }

    #[test]
    fn strict_mode_first_step_checks_constraints() {
        let policy = MsodPolicy::new(
            "Branch=*, Period=!".parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![rr("Teller"), rr("Auditor")], 2).unwrap()],
            vec![],
        )
        .unwrap();
        let engine = MsodEngine::with_options(
            MsodPolicySet::new(vec![policy]),
            EngineOptions { check_constraints_on_first_step: true },
        );
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let both = [rr("Teller"), rr("Auditor")];
        let d = engine.enforce(&mut adi, &request("alice", &both, "op", "t", &york, 1));
        assert!(!d.is_granted(), "strict mode denies m simultaneous roles at start");
    }

    #[test]
    fn three_of_n_cardinality() {
        let policy = MsodPolicy::new(
            "P=!".parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![rr("A"), rr("B"), rr("C"), rr("D")], 3).unwrap()],
            vec![],
        )
        .unwrap();
        let engine = MsodEngine::new(MsodPolicySet::new(vec![policy]));
        let mut adi = MemoryAdi::new();
        let ctx: ContextInstance = "P=1".parse().unwrap();
        // Two distinct conflicting roles are fine; the third is denied.
        assert!(engine
            .enforce(&mut adi, &request("u", &[rr("A")], "o", "t", &ctx, 1))
            .is_granted());
        assert!(engine
            .enforce(&mut adi, &request("u", &[rr("B")], "o", "t", &ctx, 2))
            .is_granted());
        assert!(!engine
            .enforce(&mut adi, &request("u", &[rr("C")], "o", "t", &ctx, 3))
            .is_granted());
        // Re-using an already-held role stays fine.
        assert!(engine
            .enforce(&mut adi, &request("u", &[rr("B")], "o", "t", &ctx, 4))
            .is_granted());
    }

    #[test]
    fn multiple_policies_all_enforced() {
        let p1 = MsodPolicy::new(
            "Org=*".parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![rr("A"), rr("B")], 2).unwrap()],
            vec![],
        )
        .unwrap();
        let p2 = MsodPolicy::new(
            "Org=!, Proc=!".parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![rr("C"), rr("D")], 2).unwrap()],
            vec![],
        )
        .unwrap();
        let engine = MsodEngine::new(MsodPolicySet::new(vec![p1, p2]));
        let mut adi = MemoryAdi::new();
        let ctx: ContextInstance = "Org=acme, Proc=5".parse().unwrap();
        let d = engine.enforce(&mut adi, &request("u", &[rr("A")], "o", "t", &ctx, 1));
        match &d {
            MsodDecision::Grant(g) => assert_eq!(g.matched_policies, vec![0, 1]),
            other => panic!("{other:?}"),
        }
        // Policy 1 (broad) blocks B everywhere in the org...
        let other_proc: ContextInstance = "Org=acme, Proc=6".parse().unwrap();
        assert!(!engine
            .enforce(&mut adi, &request("u", &[rr("B")], "o", "t", &other_proc, 2))
            .is_granted());
        // ...while policy 2 is per-process: C in Proc=5, then D denied in
        // Proc=5 but allowed in Proc=6.
        assert!(engine
            .enforce(&mut adi, &request("u", &[rr("C")], "o", "t", &ctx, 3))
            .is_granted());
        assert!(!engine
            .enforce(&mut adi, &request("u", &[rr("D")], "o", "t", &ctx, 4))
            .is_granted());
        assert!(engine
            .enforce(&mut adi, &request("u", &[rr("D")], "o", "t", &other_proc, 5))
            .is_granted());
    }

    #[test]
    fn multiset_history_counting() {
        let p1 = "p1".to_owned();
        let p2 = "p2".to_owned();
        let seen = |tallies: &mut Vec<Tally<'_, String>>, occ: &[(&str, usize)]| {
            for t in tallies.iter_mut() {
                t.seen = occ.iter().find(|(e, _)| e == t.entry).map_or(0, |(_, n)| *n);
            }
        };
        // remaining {p1, p1, p2}: p1 counted once (1 occurrence), p2 once.
        let mut t = tally_remaining(vec![&p1, &p1, &p2]);
        seen(&mut t, &[("p1", 1), ("p2", 3)]);
        assert_eq!(multiset_count(&t), 2);
        // remaining {p2, p2}: both satisfiable (3 occurrences).
        let mut t = tally_remaining(vec![&p2, &p2]);
        seen(&mut t, &[("p1", 1), ("p2", 3)]);
        assert_eq!(multiset_count(&t), 2);
        assert_eq!(multiset_count(&tally_remaining(Vec::<&String>::new())), 0);
    }
}
