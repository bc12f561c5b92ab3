//! End-to-end equivalence of the decision service and the spec oracle
//! (`modelcheck::Oracle`, §4.2 transcribed from the paper): the
//! symbolized service must reach the oracle's verdict on every request,
//! retain the oracle's records, and recover the oracle's state from its
//! audit trail. Requests beyond the engine's fixed bounds are the one
//! deliberate difference: the service denies them unevaluated
//! (`DenyReason::ResourceLimit`), audits the deny, and retains nothing.

use audit::EventKind;
use context::ContextInstance;
use modelcheck::{oracle_request, project, Oracle};
use msod::sym::{MAX_CTX_DEPTH, MAX_MATCHED, MAX_REQ_ROLES};
use msod::{RequestLimit, RoleRef};
use permis::{DecisionRequest, DecisionService, DenyReason};
use policy::PdpPolicy;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

#[test]
fn symbolized_service_matches_reference_on_workload() {
    let cfg = WorkloadConfig {
        users: 25,
        contexts: 6,
        role_pairs: 3,
        requests: 600,
        terminate_percent: 6,
    };
    let parsed = policy::parse_rbac_policy(&workload_policy_xml(&cfg)).unwrap();
    let mut oracle = Oracle::new(parsed.msod.clone());
    let svc = DecisionService::new_symbolized(parsed, b"k".to_vec());

    let mut denied = 0;
    for (i, req) in gen_requests(&cfg, 31).iter().enumerate() {
        let got = svc.decide(req);
        assert_eq!(project(&got), oracle.decide(&oracle_request(req)), "request {i}");
        denied += usize::from(!got.is_granted());
    }
    assert!(denied > 0, "the workload must exercise the deny path");
    assert_eq!(svc.adi().snapshot(), oracle.snapshot());
}

#[test]
fn symbolized_service_recovers_like_reference() {
    let cfg = WorkloadConfig {
        users: 10,
        contexts: 4,
        role_pairs: 2,
        requests: 150,
        terminate_percent: 5,
    };
    let xml = workload_policy_xml(&cfg);
    let dir = std::env::temp_dir().join(format!("msod-ref-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The live service and the oracle see the same stream; the
    // recovered service must land on the state both reached.
    let mut oracle = Oracle::new(policy::parse_rbac_policy(&xml).unwrap().msod);
    let live_snapshot = {
        let svc = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
        svc.attach_store(audit::TrailStore::open(&dir).unwrap());
        for req in gen_requests(&cfg, 8) {
            assert_eq!(project(&svc.decide(&req)), oracle.decide(&oracle_request(&req)));
        }
        svc.rotate_and_persist().unwrap();
        svc.adi().snapshot()
    };
    let svc = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
    svc.attach_store(audit::TrailStore::open(&dir).unwrap());
    let report = svc.recover(usize::MAX, 0).unwrap();
    assert_eq!(report.undecodable, 0);
    assert_eq!(svc.adi().snapshot(), live_snapshot);
    assert_eq!(live_snapshot, oracle.snapshot());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An RBAC policy over `roles` roles `R0`, `R1`, …, each allowed to
/// `work` and `finish` on one target, with one MSoD policy per entry of
/// `scopes`, each an MMER (m = 2) over `R0`–`R3` whose last step is
/// `finish`.
fn route_policy(roles: usize, scopes: &[String]) -> PdpPolicy {
    let allowed: String = (0..roles).map(|r| format!("<AllowedRole value=\"R{r}\"/>")).collect();
    let mmer: String =
        (0..4).map(|r| format!("<Role type=\"permisRole\" value=\"R{r}\"/>")).collect();
    let policies: String = scopes
        .iter()
        .map(|scope| {
            format!(
                r#"<MSoDPolicy BusinessContext="{scope}">
      <LastStep operation="finish" targetURI="t"/>
      <MMER ForbiddenCardinality="2">{mmer}</MMER>
    </MSoDPolicy>"#
            )
        })
        .collect();
    policy::parse_rbac_policy(&format!(
        r#"<RBACPolicy id="routes" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="t">{allowed}</TargetAccess>
    <TargetAccess operation="finish" targetURI="t">{allowed}</TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>{policies}</MSoDPolicySet>
</RBACPolicy>"#
    ))
    .unwrap()
}

/// `T0=v, T1=v, …` of `depth` components, the last one `T{depth-1}=last`.
fn deep_instance(depth: usize, last: u64) -> String {
    let outer = (0..depth - 1).map(|d| format!("T{d}=v, "));
    format!("{}T{}={last}", outer.collect::<String>(), depth - 1)
}

/// One traffic stream in which every third request crosses one of the
/// engine's fixed bounds.
struct Route {
    policy: PdpPolicy,
    limit: RequestLimit,
    /// Request `i`'s context instance and roles (a window
    /// `R{first}..R{first + n}`), over the bound when `over` is set.
    request: fn(i: u64, over: bool) -> (String, (usize, usize)),
}

fn routes() -> [Route; 3] {
    let deep_scope: Vec<String> = (0..=MAX_CTX_DEPTH).map(|d| format!("T{d}=!")).collect();
    let mut crowd = vec!["Proc=!".to_string(); MAX_MATCHED];
    crowd.push("Proc=!, Step=!".into());
    [
        // A policy deeper than the request buffers compiles; it can only
        // match requests over the depth bound. A shallow policy keeps
        // the in-bound traffic evaluated.
        Route {
            policy: route_policy(4, &[deep_scope.join(", "), "T0=v, T1=!".into()]),
            limit: RequestLimit::ContextDepth,
            request: |i, over| {
                let depth = MAX_CTX_DEPTH + usize::from(over);
                (deep_instance(depth, i % 4), ((i / 5 % 4) as usize, 1))
            },
        },
        // Over-limit requests carry MAX_REQ_ROLES + 1 roles, one of which
        // the MMER lists.
        Route {
            policy: route_policy(MAX_REQ_ROLES + 4, &["Proc=!".into()]),
            limit: RequestLimit::Roles,
            request: |i, over| {
                let roles = if over { (3, MAX_REQ_ROLES + 1) } else { ((i / 5 % 4) as usize, 1) };
                (format!("Proc={}", i % 3), roles)
            },
        },
        // MAX_MATCHED policies match every `Proc` instance — at the bound
        // — and one more matches its `Step` sub-instances.
        Route {
            policy: route_policy(4, &crowd),
            limit: RequestLimit::MatchedPolicies,
            request: |i, over| {
                let step = if over { ", Step=s" } else { "" };
                (format!("Proc={}{step}", i % 4), ((i / 5 % 4) as usize, 1))
            },
        },
    ]
}

fn route_request(route: &Route, i: u64, over: bool) -> DecisionRequest {
    let (context, (first, n)) = (route.request)(i, over);
    let roles = (first..first + n).map(|r| RoleRef::new("permisRole", format!("R{r}")));
    let finish = i % 17 == 16;
    let context: ContextInstance = context.parse().unwrap();
    let operation = if finish { "finish" } else { "work" };
    DecisionRequest::with_roles(format!("u{}", i % 4), roles.collect(), operation, "t", context, i)
}

/// Each bound, end to end, in process: an over-limit request is an
/// audited `Deny(ResourceLimit)` that leaves the ADI unchanged and is
/// counted in `permis_reqbuf_overflow_total`; every other request —
/// decided on the same service, between them — reaches the oracle's
/// verdict, derivation and state. `decide_many` on a second service
/// returns the same outcomes.
#[test]
fn over_limit_routes_deny_and_the_rest_match_the_oracle() {
    for route in routes() {
        let svc = DecisionService::new_symbolized(route.policy.clone(), b"k".to_vec());
        let mut oracle = Oracle::new(route.policy.msod.clone());
        let (mut over, mut denied) = (0u64, 0);
        let mut traffic = Vec::new();
        let mut outcomes = Vec::new();
        let name = route.limit;
        for i in 0..120u64 {
            let req = route_request(&route, i, i % 3 == 0);
            let before = svc.adi().snapshot();
            let (got, got_ex) = svc.decide_explained(&req);
            if i % 3 == 0 {
                let reason = Some(&DenyReason::ResourceLimit(route.limit));
                assert_eq!(got.deny_reason(), reason, "{name}: request {i}");
                assert_eq!(svc.adi().snapshot(), before, "{name}: request {i}");
                assert!(got_ex.msod.is_none(), "{name}: request {i}");
                if obs::enabled() {
                    assert_eq!(got_ex.engine, "resource_limit", "{name}: request {i}");
                }
                over += 1;
            } else {
                let oreq = oracle_request(&req);
                let want_ex = oracle.explain(&oreq);
                assert_eq!(project(&got), oracle.decide(&oreq), "{name}: request {i}");
                if obs::enabled() {
                    assert_eq!(got_ex.engine, "sym", "{name}: request {i}");
                    assert_eq!(got_ex.msod, Some(want_ex), "{name}: request {i}");
                }
                assert_eq!(svc.adi().snapshot(), oracle.snapshot(), "{name}: request {i}");
                denied += usize::from(!got.is_granted());
            }
            traffic.push(req);
            outcomes.push(got);
        }
        assert!(over > 0 && denied > 0, "{name}: the stream must cross both paths");
        assert!(!svc.adi().is_empty(), "{name}: the stream must retain history");

        // Every over-limit deny is in the audit trail, with its reason.
        let audited = svc.with_trail(|t| {
            t.open_records()
                .iter()
                .filter(|r| r.event.kind == EventKind::Deny)
                .filter(|r| r.event.note.starts_with("resource limit: "))
                .count()
        });
        assert_eq!(audited as u64, over, "{name}");
        if obs::enabled() {
            assert_eq!(svc.metrics().resource_limit_denies.get(), over, "{name}");
            let needle = format!("permis_reqbuf_overflow_total {over}");
            assert!(svc.metrics_text().contains(&needle), "{name}: {needle} missing");
        }

        let batch = DecisionService::new_symbolized(route.policy, b"k".to_vec());
        assert_eq!(batch.decide_many(&traffic), outcomes, "{name}: decide_many");
        assert_eq!(batch.adi().snapshot(), svc.adi().snapshot(), "{name}");
    }
}

/// A policy whose constraints list more distinct entries than the
/// engine tallies is refused when the policy document is parsed, so no
/// service can be built over it.
#[test]
fn over_tally_policy_is_refused_at_parse() {
    let tally = msod::sym::MAX_POLICY_TALLY;
    let mmer: String =
        (0..=tally).map(|r| format!("<Role type=\"permisRole\" value=\"R{r}\"/>")).collect();
    let xml = format!(
        r#"<RBACPolicy id="tally" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="t"><AllowedRole value="R0"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMER ForbiddenCardinality="2">{mmer}</MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#
    );
    match policy::parse_rbac_policy(&xml) {
        Err(policy::PolicyError::Msod(msod::MsodError::TooManyEntries { entries, max })) => {
            assert_eq!((entries, max), (tally + 1, tally));
        }
        other => panic!("expected the tally refusal, got {other:?}"),
    }
    let at_bound = xml.replace(&format!("<Role type=\"permisRole\" value=\"R{tally}\"/>"), "");
    assert!(policy::parse_rbac_policy(&at_bound).is_ok());
}
