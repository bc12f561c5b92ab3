//! Decision provenance: the full §4.2 derivation behind one verdict.
//!
//! An [`MsodExplanation`] keeps everything a verdict throws away:
//! which policies matched and how their `!` components bound, whether
//! each context instance had started, which MMER/MMEP constraints were
//! touched, the per-entry multiset arithmetic (`listed` / `current` /
//! `seen` / `counted`) and the retained-ADI records that contributed
//! history. The symbol engine captures the derivation as raw interner
//! ids and [`crate::dispatch`] resolves them into this form only once
//! the verdict is in; the string reference engine (`cfg(test)` or the
//! `test-oracle` feature) derives the same form independently.
//!
//! The structure is deliberately *canonical* so independently produced
//! explanations compare with `==`: constraint entries are the full
//! constraint multiset deduplicated and sorted by label (the symbol
//! engine sorts by interner id, the reference engine tallies in
//! first-seen order — both normalize here), contributing
//! record lists and the record table are sorted by timestamp. The
//! modelcheck oracle derives its own [`MsodExplanation`] naively and
//! diffs it against the engine's, so explanations are conformance
//! artifacts, not best-effort logging.

#[cfg(any(test, feature = "test-oracle"))]
use context::BoundContext;

#[cfg(any(test, feature = "test-oracle"))]
use crate::adi::RetainedAdi;
use crate::engine::ConstraintKind;
#[cfg(any(test, feature = "test-oracle"))]
use crate::engine::{constraint_matches_request, MsodEngine, MsodRequest};
#[cfg(any(test, feature = "test-oracle"))]
use crate::policy::MsodPolicy;
#[cfg(any(test, feature = "test-oracle"))]
use crate::privilege::{Privilege, RoleRef};

/// The §4.2 step that produced the outcome.
///
/// Derived from the verdict: `1` — no policy context matched
/// (NotApplicable); `5` — an MMER denied; `6` — an MMEP denied; `7` —
/// granted and a last step terminated at least one context instance;
/// `8` — granted otherwise.
pub fn step_title(step: u8) -> &'static str {
    match step {
        1 => "no MSoD policy context matched; MSoD does not apply",
        5 => "denied by an MMER constraint against retained history",
        6 => "denied by an MMEP constraint against retained history",
        7 => "granted; a last step terminated the context instance",
        8 => "granted",
        _ => "unknown",
    }
}

/// One entry of a constraint multiset, with the counts the §4.2
/// arithmetic derived for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryTrace {
    /// The entry rendered as the constraint names it (`type:value` for
    /// roles, `operation on target` for privileges).
    pub label: String,
    /// Times the constraint lists this entry (duplicates cap use).
    pub listed: usize,
    /// Entries consumed by the current request (`min(activated,
    /// listed)` for MMER; 1 on the matching MMEP entry).
    pub current: usize,
    /// Historic occurrences observed in the consulted records
    /// (uncapped).
    pub seen: usize,
    /// History counted against the constraint:
    /// `min(listed - current, seen)`.
    pub counted: usize,
}

/// One MMER/MMEP evaluation the derivation actually performed
/// (constraints no activated role / requested privilege touches are
/// skipped, exactly as §4.2 steps 5.i/6.i skip them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstraintTrace {
    /// Index of the owning policy within the policy set.
    pub policy_index: usize,
    /// MMER or MMEP.
    pub kind: ConstraintKind,
    /// Index of the constraint within the policy (per kind).
    pub constraint_index: usize,
    /// The forbidden cardinality `m`.
    pub forbidden_cardinality: usize,
    /// Entries consumed by the current request (`nr`; 1 for MMEP).
    pub current: usize,
    /// Entries satisfied from retained history (`count`).
    pub historic: usize,
    /// Whether `current + historic >= m` flipped the grant to deny.
    pub denied: bool,
    /// Per-entry arithmetic, sorted by label.
    pub entries: Vec<EntryTrace>,
    /// Timestamps of the retained records that matched at least one
    /// entry of this constraint, sorted ascending. These are the
    /// record ids: look them up in [`MsodExplanation::records`].
    pub contributing: Vec<u64>,
}

/// How one matched policy was processed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTrace {
    /// Index within the policy set.
    pub policy_index: usize,
    /// The policy's business context as written (`Branch=*, Period=!`).
    pub context: String,
    /// The context after §4.2 step-1 binding (`Branch=*, Period=2006`).
    pub bound: String,
    /// Values the `!` components bound to, as `(type, value)` pairs.
    pub bindings: Vec<(String, String)>,
    /// Step 3: had this context instance already started?
    pub started: bool,
    /// Step 4: for a not-yet-started instance, does this request start
    /// recording (no first step declared, or this is it)?
    pub starts_now: bool,
    /// Whether MMER/MMEP constraints were evaluated for this policy
    /// (started, or starting under the strict first-step option).
    pub checked: bool,
    /// Whether this policy asked for the request to be retained
    /// (always `false` on the denying policy — a deny never mutates).
    pub wants_record: bool,
    /// Whether the requested privilege is this policy's last step.
    pub last_step: bool,
}

/// One retained-ADI record the derivation consulted, identified by its
/// grant timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordTrace {
    /// Grant timestamp — the record id `contributing` lists refer to.
    pub timestamp: u64,
    /// The recorded user.
    pub user: String,
    /// The activated roles, rendered `type:value`.
    pub roles: Vec<String>,
    /// The granted operation.
    pub operation: String,
    /// The granted target.
    pub target: String,
    /// The record's context instance as written.
    pub context: String,
}

/// The full derivation of one MSoD verdict. See the module docs for
/// the canonical-form rules that make two explanations comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsodExplanation {
    /// The §4.2 step that produced the outcome ([`step_title`]).
    pub step: u8,
    /// The matched policies, in evaluation order, up to and including
    /// the denying one. Empty when no policy matched.
    pub policies: Vec<PolicyTrace>,
    /// Every constraint evaluation performed, in evaluation order
    /// (MMERs before MMEPs per policy), up to and including the deny.
    pub constraints: Vec<ConstraintTrace>,
    /// Retained records consulted, deduplicated, sorted by timestamp.
    pub records: Vec<RecordTrace>,
    /// Index into `constraints` of the denying evaluation, if any.
    pub deny: Option<usize>,
}

impl MsodExplanation {
    /// An explanation for a request no policy matched (§4.2 step 1).
    pub fn not_applicable() -> Self {
        MsodExplanation {
            step: 1,
            policies: Vec::new(),
            constraints: Vec::new(),
            records: Vec::new(),
            deny: None,
        }
    }

    /// Whether the derivation ended in a deny.
    pub fn is_denied(&self) -> bool {
        self.deny.is_some()
    }

    /// Sort entries, contributing lists and records into canonical
    /// order so independently produced explanations compare with `==`.
    pub(crate) fn canonicalize(&mut self) {
        for c in &mut self.constraints {
            c.entries.sort_by(|a, b| a.label.cmp(&b.label));
            c.contributing.sort_unstable();
        }
        self.records.sort_by(|a, b| (a.timestamp, &a.user).cmp(&(b.timestamp, &b.user)));
        self.records.dedup();
    }
}

#[cfg(any(test, feature = "test-oracle"))]
impl MsodEngine {
    /// Derive the full explanation of what [`MsodEngine::enforce`]
    /// decides for `req` against the *current* retained ADI, without
    /// mutating anything. Run it on the same locked view immediately
    /// before the enforcing call and the two derivations see identical
    /// state, so the explanation is exact, not approximate.
    pub fn explain(&self, adi: &dyn RetainedAdi, req: &MsodRequest<'_>) -> MsodExplanation {
        let matched = self.policies().matching(req.context);
        if matched.is_empty() {
            return MsodExplanation::not_applicable();
        }
        let mut ex = MsodExplanation {
            step: 8,
            policies: Vec::new(),
            constraints: Vec::new(),
            records: Vec::new(),
            deny: None,
        };
        let strict = self.options().check_constraints_on_first_step;
        let mut terminations = 0usize;
        for &pi in &matched {
            let policy = &self.policies().policies()[pi];
            let bound =
                policy.business_context.bind(req.context).expect("matched instance must bind");
            let started = adi.context_active(&bound);
            let starts_now = !started
                && (policy.first_step.is_none() || policy.is_first_step(req.operation, req.target));
            let checked = started || (starts_now && strict);
            let last_step = policy.is_last_step(req.operation, req.target);
            if last_step {
                terminations += 1;
            }
            ex.policies.push(PolicyTrace {
                policy_index: pi,
                context: policy.business_context.to_string(),
                bound: bound.to_string(),
                bindings: bindings_of(policy, &bound),
                started,
                starts_now,
                checked,
                wants_record: false,
                last_step,
            });
            let denied = checked && explain_constraints(policy, pi, &bound, req, adi, &mut ex);
            let trace = ex.policies.last_mut().expect("just pushed");
            trace.wants_record = !denied
                && if started { constraint_matches_request(policy, req) } else { starts_now };
            if denied {
                ex.deny = Some(ex.constraints.len() - 1);
                ex.step = match ex.constraints[ex.constraints.len() - 1].kind {
                    ConstraintKind::Mmer => 5,
                    ConstraintKind::Mmep => 6,
                };
                ex.canonicalize();
                return ex;
            }
        }
        ex.step = if terminations > 0 { 7 } else { 8 };
        ex.canonicalize();
        ex
    }
}

#[cfg(any(test, feature = "test-oracle"))]
/// The values `!` components bound to: zip the policy context against
/// the bound context; every per-instance slot now carries the literal.
fn bindings_of(policy: &MsodPolicy, bound: &BoundContext) -> Vec<(String, String)> {
    policy
        .business_context
        .components()
        .iter()
        .zip(bound.name().components())
        .filter(|(p, _)| p.value == context::PatternValue::PerInstance)
        .map(|(p, b)| (p.ctx_type.clone(), b.value.to_string()))
        .collect()
}

#[cfg(any(test, feature = "test-oracle"))]
/// Steps 5 and 6 for one policy, with full capture. Mirrors
/// `engine::check_constraints`' arithmetic over the canonical
/// full-multiset form: per distinct entry, the request consumes
/// `current = min(activated, listed)` and history satisfies
/// `counted = min(listed - current, seen)`. Returns whether a
/// constraint denied (capture stops there, like the engine does).
fn explain_constraints(
    policy: &MsodPolicy,
    policy_index: usize,
    bound: &BoundContext,
    req: &MsodRequest<'_>,
    adi: &dyn RetainedAdi,
    ex: &mut MsodExplanation,
) -> bool {
    // Canonical per-constraint entry lists over the FULL multiset.
    struct CEntry<'a, T> {
        entry: &'a T,
        listed: usize,
        current: usize,
        seen: usize,
    }
    fn dedup<'a, T: Eq>(entries: impl Iterator<Item = &'a T>) -> Vec<CEntry<'a, T>> {
        let mut out: Vec<CEntry<'a, T>> = Vec::new();
        for e in entries {
            match out.iter_mut().find(|c| c.entry == e) {
                Some(c) => c.listed += 1,
                None => out.push(CEntry { entry: e, listed: 1, current: 0, seen: 0 }),
            }
        }
        out
    }

    let mut mmers: Vec<Vec<CEntry<'_, RoleRef>>> = policy
        .mmer()
        .iter()
        .map(|m| {
            let mut es = dedup(m.roles().iter());
            for c in &mut es {
                let activated = req.roles.iter().filter(|r| *r == c.entry).count();
                c.current = activated.min(c.listed);
            }
            es
        })
        .collect();
    let mut mmeps: Vec<Vec<CEntry<'_, Privilege>>> = policy
        .mmep()
        .iter()
        .map(|m| {
            let mut es = dedup(m.privileges().iter());
            for c in &mut es {
                // Entries are exact (operation, target) pairs, so at
                // most one distinct entry can match the request; it
                // consumes exactly one occurrence (§4.2 step 6.i).
                c.current = usize::from(c.entry.matches(req.operation, req.target));
            }
            es
        })
        .collect();

    // One pass over the user's retained history in the bound context:
    // accumulate per-entry occurrences, note which records touched
    // which constraint, and capture every consulted record.
    let mut contributing: Vec<Vec<u64>> = vec![Vec::new(); mmers.len() + mmeps.len()];
    adi.visit_user_records(req.user, bound, &mut |rec| {
        for (ci, es) in mmers.iter_mut().enumerate() {
            let mut matched_rec = false;
            for c in es.iter_mut() {
                let n = rec.roles.iter().filter(|r| *r == c.entry).count();
                if n > 0 {
                    matched_rec = true;
                }
                c.seen += n;
            }
            if matched_rec {
                contributing[ci].push(rec.timestamp);
            }
        }
        for (ci, es) in mmeps.iter_mut().enumerate() {
            let mut matched_rec = false;
            for c in es.iter_mut() {
                if c.entry.matches(&rec.operation, &rec.target) {
                    matched_rec = true;
                    c.seen += 1;
                }
            }
            if matched_rec {
                contributing[mmers.len() + ci].push(rec.timestamp);
            }
        }
        ex.records.push(RecordTrace {
            timestamp: rec.timestamp,
            user: rec.user.clone(),
            roles: rec.roles.iter().map(|r| r.to_string()).collect(),
            operation: rec.operation.clone(),
            target: rec.target.clone(),
            context: rec.context.to_string(),
        });
    });

    fn push_trace<T: std::fmt::Display>(
        ex: &mut MsodExplanation,
        policy_index: usize,
        kind: ConstraintKind,
        ci: usize,
        m: usize,
        es: &[CEntry<'_, T>],
        contributing: Vec<u64>,
    ) -> bool {
        let current: usize = es.iter().map(|c| c.current).sum();
        let historic: usize = es.iter().map(|c| (c.listed - c.current).min(c.seen)).sum();
        let denied = current + historic >= m;
        ex.constraints.push(ConstraintTrace {
            policy_index,
            kind,
            constraint_index: ci,
            forbidden_cardinality: m,
            current,
            historic,
            denied,
            entries: es
                .iter()
                .map(|c| EntryTrace {
                    label: c.entry.to_string(),
                    listed: c.listed,
                    current: c.current,
                    seen: c.seen,
                    counted: (c.listed - c.current).min(c.seen),
                })
                .collect(),
            contributing,
        });
        denied
    }

    // Step 5 (every MMER), then step 6 (every MMEP); stop at the first
    // deny, like the engine.
    for (ci, es) in mmers.iter().enumerate() {
        if es.iter().map(|c| c.current).sum::<usize>() == 0 {
            continue; // 5.i/5.ii: no activated role touches it.
        }
        let m = policy.mmer()[ci].forbidden_cardinality();
        let taken = std::mem::take(&mut contributing[ci]);
        if push_trace(ex, policy_index, ConstraintKind::Mmer, ci, m, es, taken) {
            return true;
        }
    }
    for (ci, es) in mmeps.iter().enumerate() {
        if es.iter().map(|c| c.current).sum::<usize>() == 0 {
            continue; // 6.i/6.ii: the requested privilege is not listed.
        }
        let m = policy.mmep()[ci].forbidden_cardinality();
        let taken = std::mem::take(&mut contributing[mmers.len() + ci]);
        if push_trace(ex, policy_index, ConstraintKind::Mmep, ci, m, es, taken) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::MemoryAdi;
    use crate::constraint::{Mmep, Mmer};
    use crate::engine::{EngineOptions, MsodDecision};
    use crate::policy::{MsodPolicy, MsodPolicySet};
    use context::ContextInstance;

    fn rr(v: &str) -> RoleRef {
        RoleRef::new("employee", v)
    }

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
    fn unmatched_context_explains_step_1() {
        let engine = bank_engine();
        let adi = MemoryAdi::new();
        let ctx: ContextInstance = "Dept=IT".parse().unwrap();
        let roles = [rr("Teller")];
        let ex = engine.explain(&adi, &request("alice", &roles, "op", "t", &ctx, 1));
        assert_eq!(ex, MsodExplanation::not_applicable());
        assert_eq!(step_title(ex.step), "no MSoD policy context matched; MSoD does not apply");
    }

    /// The paper's worked Example 1: the explanation of the deny names
    /// the exact constraint, the per-entry arithmetic and the retained
    /// record that caused it.
    #[test]
    fn example1_deny_explanation_names_cause() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let leeds: ContextInstance = "Branch=Leeds, Period=2006".parse().unwrap();
        let teller = [rr("Teller")];
        let auditor = [rr("Auditor")];
        engine.enforce(&mut adi, &request("alice", &teller, "handleCash", "till", &york, 17));

        let deny_req = request("alice", &auditor, "audit", "books", &leeds, 99);
        let ex = engine.explain(&adi, &deny_req);
        assert!(!engine.enforce(&mut adi, &deny_req).is_granted());

        assert_eq!(ex.step, 5);
        assert!(ex.is_denied());
        assert_eq!(ex.policies.len(), 1);
        let p = &ex.policies[0];
        assert_eq!(p.context, "Branch=*, Period=!");
        assert_eq!(p.bound, "Branch=*, Period=2006");
        assert_eq!(p.bindings, vec![("Period".to_owned(), "2006".to_owned())]);
        assert!(p.started && p.checked && !p.wants_record && !p.last_step);

        let c = &ex.constraints[ex.deny.unwrap()];
        assert_eq!((c.policy_index, c.kind, c.constraint_index), (0, ConstraintKind::Mmer, 0));
        assert_eq!((c.current, c.historic, c.forbidden_cardinality), (1, 1, 2));
        assert!(c.denied);
        // Entries sorted by label: Auditor before Teller.
        assert_eq!(
            c.entries,
            vec![
                EntryTrace {
                    label: "employee:Auditor".into(),
                    listed: 1,
                    current: 1,
                    seen: 0,
                    counted: 0
                },
                EntryTrace {
                    label: "employee:Teller".into(),
                    listed: 1,
                    current: 0,
                    seen: 1,
                    counted: 1
                },
            ]
        );
        // The contributing record id is alice's Teller grant at ts 17.
        assert_eq!(c.contributing, vec![17]);
        assert_eq!(ex.records.len(), 1);
        let r = &ex.records[0];
        assert_eq!((r.timestamp, r.user.as_str()), (17, "alice"));
        assert_eq!(r.roles, vec!["employee:Teller"]);
        assert_eq!(r.context, "Branch=York, Period=2006");
    }

    #[test]
    fn last_step_grant_explains_step_7() {
        let engine = bank_engine();
        let mut adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let teller = [rr("Teller")];
        let auditor = [rr("Auditor")];
        engine.enforce(&mut adi, &request("alice", &teller, "handleCash", "till", &york, 1));
        let req =
            request("bob", &auditor, "CommitAudit", "http://audit.location.com/audit", &york, 5);
        let ex = engine.explain(&adi, &req);
        assert_eq!(ex.step, 7);
        assert!(ex.policies[0].last_step);
        assert!(engine.enforce(&mut adi, &req).is_granted());
    }

    #[test]
    fn strict_first_step_checks_and_explains() {
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
        let adi = MemoryAdi::new();
        let york: ContextInstance = "Branch=York, Period=2006".parse().unwrap();
        let both = [rr("Teller"), rr("Auditor")];
        let ex = engine.explain(&adi, &request("alice", &both, "op", "t", &york, 1));
        assert_eq!(ex.step, 5);
        let p = &ex.policies[0];
        assert!(!p.started && p.starts_now && p.checked);
        let c = &ex.constraints[0];
        assert_eq!((c.current, c.historic), (2, 0));
        assert!(c.contributing.is_empty());
    }

    /// Explanations agree with the engine verdict over the paper's
    /// tax-refund Example 2 stream, including the duplicate-entry MMEP.
    #[test]
    fn example2_explanations_track_verdicts() {
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
        let engine = MsodEngine::new(MsodPolicySet::new(vec![policy]));
        let mut adi = MemoryAdi::new();
        let proc1: ContextInstance = "TaxOffice=Kent, taxRefundProcess=77".parse().unwrap();
        let clerk = [rr("Clerk")];
        let manager = [rr("Manager")];

        let script: Vec<(MsodRequest<'_>, bool)> = vec![
            (request("carol", &clerk, "prepareCheck", check, &proc1, 1), true),
            (request("mike", &manager, "approve/disapproveCheck", check, &proc1, 2), true),
            (request("mike", &manager, "approve/disapproveCheck", check, &proc1, 3), false),
            (request("mary", &manager, "approve/disapproveCheck", check, &proc1, 4), true),
            (request("mike", &manager, "combineResults", results, &proc1, 5), false),
            (request("max", &manager, "combineResults", results, &proc1, 6), true),
            (request("carol", &clerk, "confirmCheck", audit, &proc1, 7), false),
            (request("chris", &clerk, "confirmCheck", audit, &proc1, 8), true),
        ];
        for (req, expect_grant) in script {
            let ex = engine.explain(&adi, &req);
            let d = engine.enforce(&mut adi, &req);
            assert_eq!(d.is_granted(), expect_grant, "verdict at ts {}", req.timestamp);
            assert_eq!(!ex.is_denied(), expect_grant, "explanation at ts {}", req.timestamp);
            match d {
                MsodDecision::Deny(detail) => {
                    let c = &ex.constraints[ex.deny.unwrap()];
                    assert_eq!(c.kind, detail.kind);
                    assert_eq!(c.constraint_index, detail.constraint_index);
                    assert_eq!(c.current, detail.current_matches);
                    assert_eq!(c.historic, detail.history_matches);
                    assert_eq!(c.forbidden_cardinality, detail.forbidden_cardinality);
                    assert_eq!(ex.step, 6);
                    if req.timestamp == 3 {
                        // Mike approving twice: the duplicate-entry
                        // MMEP renders with listed=2 and one historic
                        // occurrence counted against the spare copy.
                        let dup =
                            c.entries.iter().find(|e| e.label.starts_with("approve")).unwrap();
                        assert_eq!((dup.listed, dup.current, dup.seen, dup.counted), (2, 1, 1, 1));
                        assert_eq!(c.contributing, vec![2]);
                    }
                }
                MsodDecision::Grant(g) => {
                    assert_eq!(
                        ex.step,
                        if g.terminated.is_empty() { 8 } else { 7 },
                        "step at ts {}",
                        req.timestamp
                    );
                    assert_eq!(
                        ex.policies.iter().any(|p| p.wants_record),
                        g.records_added > 0,
                        "record intent at ts {}",
                        req.timestamp
                    );
                }
                MsodDecision::NotApplicable | MsodDecision::ResourceLimit(_) => unreachable!(),
            }
        }
    }
}
