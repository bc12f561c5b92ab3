//! Pins the generator's shadow model to the paper-transcribed
//! semantics: every verdict the model expects of the MSoD stage must be
//! the verdict `modelcheck::Oracle` (§4.2 steps 1–8, §4.3 purges, no
//! code shared with the engine) gives for the same request sequence.

use context::ContextName;
use modelcheck::oracle::{Oracle, OracleRequest, Verdict};
use msod_benchmark::fixture;
use msod_benchmark::stream::{Call, Expect, WorkflowStream};
use permis::Credentials;

#[test]
fn shadow_model_agrees_with_the_oracle_on_20k_operations() {
    let policy = policy::parse_rbac_policy(&fixture::bank_policy_xml()).expect("fixture parses");
    let mut oracle = Oracle::new(policy.msod.clone());
    let mut stream = WorkflowStream::new(0xB7B7_0011, "", 400, 8);
    stream.open_empty(48);

    let mut seen = std::collections::BTreeMap::<&'static str, usize>::new();
    for n in 0..20_000 {
        let op = stream.next_op();
        match &op.call {
            Call::Manage { scope, .. } => {
                let name: ContextName = scope.parse().expect("scope parses");
                let Expect::Managed { purged } = op.expect else {
                    panic!("op {n}: a manage call expects Managed, not {:?}", op.expect)
                };
                assert_eq!(oracle.purge_scope(&name), purged as usize, "op {n}: purge of {scope}");
                *seen.entry("managed").or_default() += 1;
            }
            Call::Decide(req) => {
                if op.expect == Expect::RbacDeny {
                    // Denied by the front end; never reaches the MSoD stage.
                    continue;
                }
                let roles = match &req.credentials {
                    Credentials::Validated(roles) => roles.clone(),
                    Credentials::Push(creds) => creds.iter().map(|c| c.role.clone()).collect(),
                    Credentials::Pull => unreachable!("the streams never pull credentials"),
                };
                let verdict = oracle.decide(&OracleRequest {
                    user: req.subject.clone(),
                    roles,
                    operation: req.operation.clone(),
                    target: req.target.clone(),
                    context: req.context.clone(),
                    timestamp: req.timestamp,
                });
                let (agrees, kind) = match (op.expect, &verdict) {
                    (Expect::Na, Verdict::NotApplicable) => (true, "na"),
                    (Expect::MsodDeny, Verdict::Deny { .. }) => (true, "deny"),
                    (Expect::GrantRecord, Verdict::Grant { added, terminated, purged, .. }) => {
                        (*added == 1 && terminated.is_empty() && *purged == 0, "grant")
                    }
                    (
                        Expect::LastStep { added: a, purged: p },
                        Verdict::Grant { added, terminated, purged, .. },
                    ) => (
                        *added == a as usize && terminated.len() == 1 && *purged == p as usize,
                        "last_step",
                    ),
                    _ => (false, "?"),
                };
                assert!(
                    agrees,
                    "op {n} {req:?}: model expects {:?}, oracle says {verdict:?}",
                    op.expect
                );
                *seen.entry(kind).or_default() += 1;
            }
        }
    }
    // The comparison must have exercised every MSoD-stage class.
    for kind in ["na", "deny", "grant", "last_step", "managed"] {
        assert!(
            seen.get(kind).copied().unwrap_or(0) > 0,
            "no {kind} operation in the stream: {seen:?}"
        );
    }
    assert!(seen["deny"] > 1_000 && seen["grant"] > 5_000, "{seen:?}");
}
