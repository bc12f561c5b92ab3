//! End-to-end equivalence of the production store and the reference
//! store under the full PDP: the symbolized service (`SymAdi`) and the
//! string engine over the paper's flat in-core store (`MemoryAdi`)
//! must produce identical decision streams, identical snapshots, and
//! identical recovery behaviour — including on the requests and policy
//! sets the symbol plane hands to the string engine.

use context::ContextInstance;
use msod::sym::{MAX_CTX_DEPTH, MAX_POLICY_TALLY, MAX_REQ_ROLES};
use msod::{MemoryAdi, RoleRef};
use permis::{DecisionRequest, DecisionService};
use policy::PdpPolicy;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

fn reference(policy: PdpPolicy) -> DecisionService<MemoryAdi> {
    DecisionService::with_shard_count(policy, b"k".to_vec(), msod::DEFAULT_SHARDS)
}

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

    let mem_svc = reference(parsed.clone());
    // The symbolized service must compile this workload onto the symbol
    // plane and agree with the reference, denies included.
    let sym_svc = DecisionService::new_symbolized(parsed, b"k".to_vec());
    assert!(sym_svc.core().sym_engine().is_some(), "workload policy must compile");
    assert!(mem_svc.core().sym_engine().is_none(), "the reference runs the string engine");

    let mut denied = 0;
    for (i, req) in gen_requests(&cfg, 31).iter().enumerate() {
        let a = mem_svc.decide(req);
        let b = sym_svc.decide(req);
        assert_eq!(a, b, "divergence at request {i}");
        denied += usize::from(!a.is_granted());
    }
    assert!(denied > 0, "the workload must exercise the deny path");
    assert_eq!(mem_svc.adi().snapshot(), sym_svc.adi().snapshot());
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
    let live_snapshot = {
        let svc = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
        svc.attach_store(audit::TrailStore::open(&dir).unwrap());
        for req in gen_requests(&cfg, 8) {
            svc.decide(&req);
        }
        svc.rotate_and_persist().unwrap();
        svc.adi().snapshot()
    };
    // Recover into BOTH store kinds; snapshots must agree with each
    // other and with the state the trail was written from.
    let sym_svc = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
    sym_svc.attach_store(audit::TrailStore::open(&dir).unwrap());
    sym_svc.recover(usize::MAX, 0).unwrap();

    let mem_svc = reference(policy::parse_rbac_policy(&xml).unwrap());
    mem_svc.attach_store(audit::TrailStore::open(&dir).unwrap());
    mem_svc.recover(usize::MAX, 0).unwrap();

    assert_eq!(sym_svc.adi().snapshot(), mem_svc.adi().snapshot());
    assert_eq!(sym_svc.adi().snapshot(), live_snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An RBAC policy over `roles` roles `R0`, `R1`, …, each allowed to `work` and
/// `finish` on one target, with one MSoD policy scoped `scope` whose
/// MMER (m = 2) lists the first `mmer_roles` of them and whose last step is
/// `finish`.
fn string_route_policy(roles: usize, mmer_roles: usize, scope: &str) -> PdpPolicy {
    let allowed: String = (0..roles).map(|r| format!("<AllowedRole value=\"R{r}\"/>")).collect();
    let mmer: String =
        (0..mmer_roles).map(|r| format!("<Role type=\"permisRole\" value=\"R{r}\"/>")).collect();
    policy::parse_rbac_policy(&format!(
        r#"<RBACPolicy id="routes" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="t">{allowed}</TargetAccess>
    <TargetAccess operation="finish" targetURI="t">{allowed}</TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="{scope}">
      <LastStep operation="finish" targetURI="t"/>
      <MMER ForbiddenCardinality="2">{mmer}</MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#
    ))
    .unwrap()
}

/// The symbol plane's string-engine routes, end to end: a policy set
/// `SymEngine::compile` refuses (an MMER past the tally cap, a context
/// deeper than the fast path's buffers) leaves the symbolized service
/// with no engine, and a request with more roles than the interning
/// buffers hold falls back per request. Each must decide, retain and
/// explain exactly like the reference, and be counted as a fallback.
#[test]
fn string_engine_routes_match_reference() {
    let deep_scope: Vec<String> = (0..=MAX_CTX_DEPTH).map(|d| format!("T{d}=!")).collect();
    struct Route {
        name: &'static str,
        policy: PdpPolicy,
        compiles: bool,
        /// The context instance of requests in instance `k`.
        context: fn(u64) -> String,
        /// Roles per request `i` (a window `R{first}..R{first + n}`).
        roles: fn(u64) -> (usize, usize),
    }
    let routes = [
        Route {
            name: "MMER past the tally cap",
            policy: string_route_policy(MAX_POLICY_TALLY + 1, MAX_POLICY_TALLY + 1, "Proc=!"),
            compiles: false,
            context: |k| format!("Proc={k}"),
            roles: |i| ((i * 7) as usize % (MAX_POLICY_TALLY + 1), 1),
        },
        Route {
            name: "context deeper than the buffers",
            policy: string_route_policy(4, 4, &deep_scope.join(", ")),
            compiles: false,
            context: |k| {
                let outer = (0..MAX_CTX_DEPTH).map(|d| format!("T{d}=v, "));
                format!("{}T{MAX_CTX_DEPTH}={k}", outer.collect::<String>())
            },
            roles: |i| ((i / 5 % 4) as usize, 1),
        },
        Route {
            name: "request with too many roles",
            policy: string_route_policy(MAX_REQ_ROLES + 4, 4, "Proc=!"),
            compiles: true,
            context: |k| format!("Proc={k}"),
            // Every third request carries MAX_REQ_ROLES + 1 roles, only
            // one of which the MMER lists.
            roles: |i| {
                if i % 3 == 0 {
                    (3, MAX_REQ_ROLES + 1)
                } else {
                    ((i / 5 % 4) as usize, 1)
                }
            },
        },
    ];
    for route in routes {
        let reference = reference(route.policy.clone());
        let sym = DecisionService::new_symbolized(route.policy, b"k".to_vec());
        assert_eq!(sym.core().sym_engine().is_some(), route.compiles, "{}", route.name);

        let (mut oversize, mut string_decides, mut denied) = (0u64, 0u64, 0);
        for i in 0..120u64 {
            let (first, n) = (route.roles)(i);
            let roles = (first..first + n).map(|r| RoleRef::new("permisRole", format!("R{r}")));
            let finish = i % 17 == 16;
            let context: ContextInstance = (route.context)(i % 3).parse().unwrap();
            let req = DecisionRequest::with_roles(
                format!("u{}", i % 4),
                roles.collect(),
                if finish { "finish" } else { "work" },
                "t",
                context,
                i,
            );
            let (want, want_ex) = reference.decide_explained(&req);
            let (got, got_ex) = sym.decide_explained(&req);
            assert_eq!(got, want, "{}: verdict at request {i}", route.name);
            // Requests the compiled engine decides (last steps
            // included) explain as `sym`; every derivation matches the
            // reference's.
            let string_route = !route.compiles || n > MAX_REQ_ROLES;
            if obs::enabled() {
                let engine = if string_route { "string" } else { "sym" };
                assert_eq!(got_ex.engine, engine, "{}: request {i}", route.name);
                assert!(got_ex.msod.is_some(), "{}: request {i}", route.name);
            }
            let got_ex = permis::Explanation { engine: want_ex.engine, ..got_ex };
            assert_eq!(got_ex, want_ex, "{}: explanation at request {i}", route.name);
            assert_eq!(sym.adi().snapshot(), reference.adi().snapshot(), "{}: {i}", route.name);
            oversize += u64::from(n > MAX_REQ_ROLES);
            string_decides += u64::from(string_route);
            denied += usize::from(!got.is_granted());
        }
        assert!(denied > 0, "{}: the stream must exercise the deny path", route.name);
        assert!(!sym.adi().is_empty(), "{}: the stream must retain history", route.name);
        if obs::enabled() {
            let m = sym.metrics();
            assert_eq!(m.sym_fallbacks.get(), string_decides, "{}", route.name);
            assert_eq!(m.reqbuf_overflows.get(), oversize, "{}", route.name);
            let text = sym.metrics_text();
            let needle = format!("permis_sym_fallback_total {string_decides}");
            assert!(text.contains(&needle), "{}: {needle} missing", route.name);
            let needle = format!("permis_reqbuf_overflow_total {oversize}");
            assert!(text.contains(&needle), "{}: {needle} missing", route.name);
        }
    }
}
