//! Canned scenarios and synthetic workload generation.
//!
//! The paper's evaluation is qualitative; to measure the system at
//! scale (experiments E8–E11) we substitute deterministic, seedable
//! request streams that exercise the identical PDP code path as real
//! multi-session usage: many users, many business-context instances,
//! partial role disclosure, occasional context terminations.

use context::ContextInstance;
use msod::RoleRef;
use permis::DecisionRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic MSoD workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Distinct users.
    pub users: usize,
    /// Distinct business-context instances (audit periods / process
    /// instances).
    pub contexts: usize,
    /// Conflicting role *pairs* (each pair gets one MMER policy).
    pub role_pairs: usize,
    /// Total requests to generate.
    pub requests: usize,
    /// Probability (0..=100) that a request is a last-step operation
    /// terminating its context instance.
    pub terminate_percent: u8,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            users: 100,
            contexts: 20,
            role_pairs: 4,
            requests: 1_000,
            terminate_percent: 0,
        }
    }
}

/// The operation/target used by every generated business request.
pub const WORK_OP: &str = "work";
/// The terminating operation when `terminate_percent > 0`.
pub const FINISH_OP: &str = "finish";
/// The synthetic target URI.
pub const WORK_TARGET: &str = "http://vo/resource";

/// Generate the `<RBACPolicy>` XML matching [`gen_requests`]: one MMER
/// policy per role pair, scoped per context instance (`Proc=!`), with a
/// last step so terminations purge.
pub fn workload_policy_xml(cfg: &WorkloadConfig) -> String {
    let mut roles_xml = String::new();
    let mut msod_xml = String::new();
    for p in 0..cfg.role_pairs {
        roles_xml.push_str(&format!(
            "      <AllowedRole value=\"A{p}\"/>\n      <AllowedRole value=\"B{p}\"/>\n"
        ));
        msod_xml.push_str(&format!(
            r#"    <MSoDPolicy BusinessContext="Proc=!">
      <LastStep operation="{FINISH_OP}" targetURI="{WORK_TARGET}"/>
      <MMER ForbiddenCardinality="2">
        <Role type="permisRole" value="A{p}"/>
        <Role type="permisRole" value="B{p}"/>
      </MMER>
    </MSoDPolicy>
"#
        ));
    }
    format!(
        r#"<RBACPolicy id="workload" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="{WORK_OP}" targetURI="{WORK_TARGET}">
{roles_xml}    </TargetAccess>
    <TargetAccess operation="{FINISH_OP}" targetURI="{WORK_TARGET}">
{roles_xml}    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
{msod_xml}  </MSoDPolicySet>
</RBACPolicy>"#
    )
}

/// A variant of [`workload_policy_xml`] with **no** MSoD component, for
/// measuring the plain-RBAC baseline in E8.
pub fn workload_policy_xml_no_msod(cfg: &WorkloadConfig) -> String {
    let full = workload_policy_xml(cfg);
    let start = full.find("  <MSoDPolicySet>").expect("generated policy has MSoD");
    let end = full.find("</MSoDPolicySet>").unwrap() + "</MSoDPolicySet>\n".len();
    format!("{}{}", &full[..start], &full[end..])
}

/// The operation declared as every policy's first step by
/// [`workload_policy_xml_first_step`].
pub const START_OP: &str = "start";

/// A variant of [`workload_policy_xml`] whose MSoD policies declare a
/// `FirstStep` (operation [`START_OP`]). Requests with other operations
/// in a *not-yet-started* context instance exercise the §4.2 step-3
/// `context_active` miss path without mutating the ADI — the probe the
/// E8 store ablation needs.
pub fn workload_policy_xml_first_step(cfg: &WorkloadConfig) -> String {
    workload_policy_xml(cfg).replace(
        "      <LastStep",
        &format!(
            "      <FirstStep operation=\"{START_OP}\" targetURI=\"{WORK_TARGET}\"/>\n      <LastStep"
        ),
    )
}

/// Deterministically generate `cfg.requests` decision requests. Each
/// request: a random user activates one role of a random conflicting
/// pair in a random context instance.
pub fn gen_requests(cfg: &WorkloadConfig, seed: u64) -> Vec<DecisionRequest> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(cfg.requests);
    for ts in 0..cfg.requests {
        let user = format!("user{}", rng.random_range(0..cfg.users));
        let pair = rng.random_range(0..cfg.role_pairs);
        let side = if rng.random_range(0..2) == 0 { "A" } else { "B" };
        let role = RoleRef::new("permisRole", format!("{side}{pair}"));
        let ctx: ContextInstance =
            format!("Proc={}", rng.random_range(0..cfg.contexts)).parse().expect("valid instance");
        let terminate = rng.random_range(0..100u8) < cfg.terminate_percent;
        out.push(DecisionRequest::with_roles(
            user,
            vec![role],
            if terminate { FINISH_OP } else { WORK_OP },
            WORK_TARGET,
            ctx,
            ts as u64,
        ));
    }
    out
}

/// Pre-populate a retained ADI with `n` records across the workload's
/// users/contexts — for measuring decision latency as a function of ADI
/// size (E8) without replaying a long history.
pub fn seed_adi(adi: &mut dyn msod::RetainedAdi, cfg: &WorkloadConfig, n: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let user = format!("user{}", rng.random_range(0..cfg.users));
        let pair = rng.random_range(0..cfg.role_pairs);
        adi.add(msod::AdiRecord {
            user,
            roles: vec![RoleRef::new("permisRole", format!("A{pair}"))],
            operation: WORK_OP.into(),
            target: WORK_TARGET.into(),
            context: format!("Proc={}", rng.random_range(0..cfg.contexts)).parse().unwrap(),
            timestamp: i as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msod::{MemoryAdi, RetainedAdi};
    use permis::DecisionService;

    #[test]
    fn generated_policy_parses() {
        let cfg = WorkloadConfig { role_pairs: 3, ..Default::default() };
        let xml = workload_policy_xml(&cfg);
        let policy = policy::parse_rbac_policy(&xml).unwrap_or_else(|e| panic!("{e}\n{xml}"));
        assert_eq!(policy.msod.len(), 3);
        let no_msod = workload_policy_xml_no_msod(&cfg);
        let p2 = policy::parse_rbac_policy(&no_msod).unwrap();
        assert!(p2.msod.is_empty());
    }

    #[test]
    fn first_step_policy_parses_and_gates() {
        let cfg = WorkloadConfig { role_pairs: 2, ..Default::default() };
        let xml = workload_policy_xml_first_step(&cfg);
        let p = policy::parse_rbac_policy(&xml).unwrap_or_else(|e| panic!("{e}\n{xml}"));
        assert!(p.msod.policies().iter().all(|pol| pol.first_step.is_some()));
        // A non-start op in a fresh context retains nothing.
        let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
        let req = permis::DecisionRequest::with_roles(
            "u",
            vec![RoleRef::new("permisRole", "A0")],
            WORK_OP,
            WORK_TARGET,
            "Proc=0".parse().unwrap(),
            1,
        );
        assert!(pdp.decide(&req).is_granted());
        assert_eq!(pdp.adi().len(), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig { requests: 50, ..Default::default() };
        let a = gen_requests(&cfg, 42);
        let b = gen_requests(&cfg, 42);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.subject, y.subject);
            assert_eq!(x.operation, y.operation);
            assert_eq!(x.context, y.context);
        }
        let c = gen_requests(&cfg, 43);
        assert!(a.iter().zip(&c).any(|(x, y)| x.subject != y.subject || x.context != y.context));
    }

    #[test]
    fn workload_runs_through_pdp() {
        let cfg = WorkloadConfig {
            users: 10,
            contexts: 3,
            role_pairs: 2,
            requests: 200,
            terminate_percent: 5,
        };
        let pdp = DecisionService::from_xml_symbolized(&workload_policy_xml(&cfg), b"key".to_vec())
            .unwrap();
        let mut grants = 0;
        let mut denies = 0;
        for req in gen_requests(&cfg, 7) {
            if pdp.decide(&req).is_granted() {
                grants += 1;
            } else {
                denies += 1;
            }
        }
        // A conflicting workload must produce both outcomes.
        assert!(grants > 0, "no grants");
        assert!(denies > 0, "no MSoD denials (workload not conflicting enough)");
        assert_eq!(grants + denies, 200);
    }

    #[test]
    fn seed_adi_populates() {
        let cfg = WorkloadConfig::default();
        let mut adi = MemoryAdi::new();
        seed_adi(&mut adi, &cfg, 500, 1);
        assert_eq!(adi.len(), 500);
    }
}
