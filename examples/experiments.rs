//! The experiment runner: regenerates every qualitative artifact of the
//! paper (decision traces for Examples 1–2, the Figure-2 scoping table,
//! the §6 expressiveness matrix) and coarse scaling curves for the
//! quantitative experiments, printing the tables recorded in
//! EXPERIMENTS.md. Performance numbers come from `benchmark/`, not
//! from here.
//!
//! Run with: `cargo run --release --example experiments`

use msod::{AdiRecord, MemoryAdi, MsodEngine, MsodRequest, RetainedAdi, RoleRef};
use permis::{Credentials, DecisionRequest, DecisionService};
use policy::PdpPolicy;
use workflow::scenarios::{
    gen_requests, seed_adi, workload_policy_xml, workload_policy_xml_no_msod, WorkloadConfig,
};
use workflow::{AntiRoleEnforcer, Assignment, BertinoPlanner, ProcessDefinition, TAX_POLICY};

fn main() {
    println!("MSoD-for-RBAC experiment runner");
    println!("================================\n");
    e2_bank_trace();
    e3_tax_trace();
    e4_scoping_table();
    e8_decision_latency();
    e7_recovery_curve();
    e9_backend_ablation();
    e10_expressiveness_matrix();
    e11_state_growth();
    println!("All experiments completed.");
}

/// Wall-clock helper for the coarse measurements below.
fn time_it<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed())
}

const BANK_POLICY: &str = r#"<RBACPolicy id="bank" roleType="employee">
  <SOAPolicy><SOA dn="cn=HR"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="handleCash" targetURI="till"><AllowedRole value="Teller"/></TargetAccess>
    <TargetAccess operation="audit" targetURI="books"><AllowedRole value="Auditor"/></TargetAccess>
    <TargetAccess operation="CommitAudit" targetURI="audit"><AllowedRole value="Auditor"/></TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation="CommitAudit" targetURI="audit"/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Teller"/>
        <Role type="employee" value="Auditor"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn decide_row(
    pdp: &DecisionService,
    user: &str,
    role: &str,
    op: &str,
    target: &str,
    ctx: &str,
    ts: u64,
) {
    let out = pdp.decide(&DecisionRequest::with_roles(
        user,
        vec![RoleRef::new("employee", role)],
        op,
        target,
        ctx.parse().unwrap(),
        ts,
    ));
    println!(
        "| {ts:>4} | {user:<6} | {role:<8} | {op:<12} | {ctx:<26} | {:<5} |",
        if out.is_granted() { "GRANT" } else { "DENY" }
    );
}

/// E2 — Example 1 decision trace (paper §2.1 narrative).
fn e2_bank_trace() {
    println!("E2. Example 1 — bank cash processing (MMER, Branch=*, Period=!)");
    println!("|   t  | user   | role     | operation    | context                    | out   |");
    println!("|------|--------|----------|--------------|----------------------------|-------|");
    let pdp = DecisionService::from_xml_symbolized(BANK_POLICY, b"k".to_vec()).unwrap();
    decide_row(&pdp, "alice", "Teller", "handleCash", "till", "Branch=York, Period=2006", 1);
    decide_row(&pdp, "alice", "Auditor", "audit", "books", "Branch=Leeds, Period=2006", 180);
    decide_row(&pdp, "bob", "Auditor", "audit", "books", "Branch=York, Period=2006", 300);
    decide_row(&pdp, "bob", "Auditor", "CommitAudit", "audit", "Branch=York, Period=2006", 364);
    decide_row(&pdp, "alice", "Auditor", "audit", "books", "Branch=York, Period=2006", 370);
    println!(
        "(row 2: promoted teller denied across branch+session; row 5: free after CommitAudit)\n"
    );
}

/// E3 — Example 2 decision trace.
fn e3_tax_trace() {
    println!("E3. Example 2 — tax refund (MMEP incl. duplicated privilege)");
    println!("| task | user  | outcome                         |");
    println!("|------|-------|---------------------------------|");
    let pdp = DecisionService::from_xml_symbolized(TAX_POLICY, b"k".to_vec()).unwrap();
    let mut run = workflow::ProcessRun::new(
        ProcessDefinition::tax_refund(),
        "TaxOffice=Kent, taxRefundProcess=1".parse().unwrap(),
    );
    let mut ts = 0;
    for (task, user) in [
        ("T1", "carol"),
        ("T2", "mike"),
        ("T2", "mary"),
        ("T3", "mike"),
        ("T3", "max"),
        ("T4", "carol"),
        ("T4", "chris"),
    ] {
        ts += 1;
        let out = run.attempt(&pdp, task, user, ts);
        println!(
            "| {task}   | {user:<5} | {:<31} |",
            format!("{out:?}").chars().take(31).collect::<String>()
        );
    }
    // The same-manager-twice denial needs a direct PEP request (the
    // engine's distinct-user rule would mask it).
    let pdp2 = DecisionService::from_xml_symbolized(TAX_POLICY, b"k".to_vec()).unwrap();
    let ctx: context::ContextInstance = "TaxOffice=Kent, taxRefundProcess=2".parse().unwrap();
    for (user, op, t) in [
        ("carol", "prepareCheck", "http://www.myTaxOffice.com/Check"),
        ("mike", "approve/disapproveCheck", "http://www.myTaxOffice.com/Check"),
    ] {
        ts += 1;
        pdp2.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", if user == "carol" { "Clerk" } else { "Manager" })],
            op,
            t,
            ctx.clone(),
            ts,
        ));
    }
    ts += 1;
    let again = pdp2.decide(&DecisionRequest::with_roles(
        "mike",
        vec![RoleRef::new("employee", "Manager")],
        "approve/disapproveCheck",
        "http://www.myTaxOffice.com/Check",
        ctx,
        ts,
    ));
    println!(
        "(direct PEP bypass: mike approving twice -> {})\n",
        if again.is_granted() { "GRANT (!!)" } else { "DENY — MMEP({p1,p1},2)" }
    );
}

/// E4 — the three Figure-2 policy scopings.
fn e4_scoping_table() {
    println!("E4. Figure 2 — policy scope vs where the conflict binds");
    println!("| policy context        | same branch | other branch | other period |");
    println!("|-----------------------|-------------|--------------|--------------|");
    for scope in ["Branch=*, Period=!", "Branch=!, Period=!", "Branch=York, Period=!"] {
        let xml = BANK_POLICY.replace("Branch=*, Period=!", scope);
        let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
        let act = |role: &str, branch: &str, period: &str, ts| {
            pdp.decide(&DecisionRequest::with_roles(
                "alice",
                vec![RoleRef::new("employee", role)],
                if role == "Teller" { "handleCash" } else { "audit" },
                if role == "Teller" { "till" } else { "books" },
                format!("Branch={branch}, Period={period}").parse().unwrap(),
                ts,
            ))
            .is_granted()
        };
        act("Teller", "York", "2006", 1);
        let same = !act("Auditor", "York", "2006", 2);
        let other_branch = !act("Auditor", "Leeds", "2006", 3);
        let other_period = !act("Auditor", "Hull", "2007", 4);
        println!(
            "| {scope:<21} | {:<11} | {:<12} | {:<12} |",
            if same { "blocked" } else { "allowed" },
            if other_branch { "blocked" } else { "allowed" },
            if other_period { "blocked" } else { "allowed" }
        );
    }
    println!();
}

/// Mean time of the MSoD stage alone over the paper's flat in-core
/// store: the reference engine's `enforce` over the reference
/// `MemoryAdi` holding `records` (the pair the tests compare the
/// decision engine against; no service decides through them). The
/// probe must not mutate the store.
fn flat_stage(
    policy: &PdpPolicy,
    records: &[AdiRecord],
    req: &DecisionRequest,
    expect_deny: bool,
) -> std::time::Duration {
    let engine = MsodEngine::new(policy.msod.clone());
    let mut adi = MemoryAdi::new();
    records.iter().cloned().for_each(|rec| adi.add(rec));
    let Credentials::Validated(roles) = &req.credentials else {
        unreachable!("E8 probes carry validated roles")
    };
    let req = MsodRequest {
        user: &req.subject,
        roles,
        operation: &req.operation,
        target: &req.target,
        context: &req.context,
        timestamp: req.timestamp,
    };
    assert_eq!(engine.enforce(&mut adi, &req).is_granted(), !expect_deny);
    let iters = 2_000;
    time_it(|| (0..iters).for_each(|_| drop(engine.enforce(&mut adi, &req)))).1 / iters
}

/// `svc` with `records` loaded into its retained ADI.
fn loaded<A: RetainedAdi + 'static>(
    svc: DecisionService<A>,
    records: &[AdiRecord],
) -> DecisionService<A> {
    svc.adi().with_exclusive(|adi| records.iter().cloned().for_each(|rec| adi.add(rec)));
    svc
}

/// E8 — decision latency vs retained-ADI size, MSoD vs plain RBAC.
fn e8_decision_latency() {
    println!("E8. Decision latency vs retained-ADI size (coarse)");
    println!("| ADI records | plain RBAC | MSoD stage only, flat store | MSoD symbolized store |");
    println!("|-------------|------------|-----------------------------|-----------------------|");
    // The probe is a DENIED request (user0 already acted as A0 in
    // Proc=0, now presents B0): denials read the full history path but
    // never mutate the ADI, so the seeded size stays fixed while we
    // measure. Three configurations: the whole decide under plain RBAC,
    // the MSoD stage alone over the paper's flat store, and the whole
    // decide with MSoD over the symbolized context-trie store.
    let cfg = WorkloadConfig { users: 200, contexts: 50, role_pairs: 4, ..Default::default() };
    fn measure<A: RetainedAdi + 'static>(
        pdp: DecisionService<A>,
        req: &DecisionRequest,
        expect_deny: bool,
    ) -> std::time::Duration {
        assert_eq!(pdp.decide(req).is_granted(), !expect_deny);
        let iters = 2_000;
        let (_, dt) = time_it(|| {
            for _ in 0..iters {
                pdp.decide(req);
            }
        });
        dt / iters
    }
    let seeded = |n: usize, extra: Option<AdiRecord>| {
        let mut adi = MemoryAdi::new();
        seed_adi(&mut adi, &cfg, n, 7);
        adi.snapshot().into_iter().chain(extra).collect::<Vec<_>>()
    };
    for n in [0usize, 1_000, 10_000, 100_000] {
        let records = seeded(
            n,
            Some(AdiRecord {
                user: "user0".into(),
                roles: vec![RoleRef::new("permisRole", "A0")],
                operation: workflow::scenarios::WORK_OP.into(),
                target: workflow::scenarios::WORK_TARGET.into(),
                context: "Proc=0".parse().unwrap(),
                timestamp: 0,
            }),
        );
        let req = DecisionRequest::with_roles(
            "user0",
            vec![RoleRef::new("permisRole", "B0")],
            workflow::scenarios::WORK_OP,
            workflow::scenarios::WORK_TARGET,
            "Proc=0".parse().unwrap(),
            1,
        );
        let plain = policy::parse_rbac_policy(&workload_policy_xml_no_msod(&cfg)).unwrap();
        let with_msod = policy::parse_rbac_policy(&workload_policy_xml(&cfg)).unwrap();
        let t_plain = measure(
            loaded(DecisionService::new_symbolized(plain, b"k".to_vec()), &records),
            &req,
            false,
        );
        let t_flat = flat_stage(&with_msod, &records, &req, true);
        let t_sym = measure(
            loaded(DecisionService::new_symbolized(with_msod, b"k".to_vec()), &records),
            &req,
            true,
        );
        println!("| {n:>11} | {t_plain:>10.2?} | {t_flat:>27.2?} | {t_sym:>21.2?} |");
    }
    println!();

    // E8b — the context_active MISS path: the first request in a brand
    // new context instance must discover the instance has no history.
    // The flat store scans everything; the context trie answers in
    // ~O(depth). The first-step-gated policy makes this probe
    // non-mutating.
    println!("E8b. First-request-in-new-context latency (context_active miss)");
    println!("| ADI records | MSoD stage only, flat store | MSoD symbolized store |");
    println!("|-------------|-----------------------------|-----------------------|");
    for n in [1_000usize, 10_000, 100_000] {
        let records = seeded(n, None);
        let req = DecisionRequest::with_roles(
            "user0",
            vec![RoleRef::new("permisRole", "A0")],
            workflow::scenarios::WORK_OP,
            workflow::scenarios::WORK_TARGET,
            "Proc=99999".parse().unwrap(), // never seeded: a guaranteed miss
            1,
        );
        let gated =
            policy::parse_rbac_policy(&workflow::scenarios::workload_policy_xml_first_step(&cfg))
                .unwrap();
        let t_flat = flat_stage(&gated, &records, &req, false);
        let t_sym = measure(
            loaded(DecisionService::new_symbolized(gated, b"k".to_vec()), &records),
            &req,
            false,
        );
        println!("| {n:>11} | {t_flat:>27.2?} | {t_sym:>21.2?} |");
    }
    println!();
}

/// E7 — recovery time vs trail length.
fn e7_recovery_curve() {
    println!("E7. PDP start-up recovery vs audit-trail length");
    println!("| decisions logged | recovery time | records retained |");
    println!("|------------------|---------------|------------------|");
    for n in [1_000usize, 5_000, 20_000] {
        let dir = std::env::temp_dir().join(format!("exp-recovery-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WorkloadConfig {
            users: 50,
            contexts: 10,
            role_pairs: 4,
            requests: n,
            terminate_percent: 2,
        };
        let xml = workload_policy_xml(&cfg);
        {
            let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
            pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
            for req in gen_requests(&cfg, 42) {
                pdp.decide(&req);
            }
            pdp.rotate_and_persist().unwrap();
        }
        let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
        pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
        let (report, dt) = time_it(|| pdp.recover(usize::MAX, 0).unwrap());
        println!("| {n:>16} | {dt:>13.2?} | {:>16} |", report.records_retained);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
}

/// E9 — backend ablation: startup cost trail-replay vs journal-open.
fn e9_backend_ablation() {
    const JOURNAL_SHARDS: usize = 4;
    println!("E9. Retained-ADI backend ablation (startup after N decisions)");
    println!("| decisions | trail replay (paper) | journal open (storage) |");
    println!("|-----------|----------------------|------------------------|");
    for n in [2_000usize, 10_000] {
        let cfg = WorkloadConfig {
            users: 50,
            contexts: 10,
            role_pairs: 4,
            requests: n,
            terminate_percent: 5,
        };
        let xml = workload_policy_xml(&cfg);
        let requests = gen_requests(&cfg, 9);
        let dir = std::env::temp_dir().join(format!("exp-abl-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
            pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
            for req in &requests {
                pdp.decide(req);
            }
            pdp.rotate_and_persist().unwrap();
        }
        let jdir = dir.join("adi");
        let open_journal = || {
            let p = policy::parse_rbac_policy(&xml).unwrap();
            DecisionService::open_persistent(p, b"k".to_vec(), &jdir, JOURNAL_SHARDS).unwrap().0
        };
        {
            let pdp = open_journal();
            for req in &requests {
                pdp.decide(req);
            }
            for i in 0..JOURNAL_SHARDS {
                pdp.adi().with_shard(i, |shard| shard.compact()).unwrap();
            }
            pdp.sync_adi().unwrap();
        }
        let (_, t_replay) = time_it(|| {
            let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
            pdp.attach_store(audit::TrailStore::open(&dir).unwrap());
            pdp.recover(usize::MAX, 0).unwrap()
        });
        let (_, t_journal) = time_it(|| open_journal().adi().len());
        println!("| {n:>9} | {t_replay:>20.2?} | {t_journal:>22.2?} |");
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
}

/// E10 — the §6 expressiveness matrix.
fn e10_expressiveness_matrix() {
    println!("E10. Expressiveness matrix vs the section-6 baselines");
    println!(
        "| capability                                | MSoD | Bertino [12] | anti-role [18] |"
    );
    println!(
        "|-------------------------------------------|------|--------------|----------------|"
    );

    // Workflow SoD (Example 2).
    println!(
        "| workflow SoD (Example 2)                  | yes  | yes          | partial        |"
    );
    // Non-workflow SoD (Example 1): Bertino planner cannot answer for
    // ad-hoc ops.
    let planner = BertinoPlanner::new(ProcessDefinition::tax_refund());
    let cannot = !planner.authorize(&Assignment::new(), "handleCash", "anyone");
    println!(
        "| ad-hoc (non-workflow) SoD (Example 1)     | yes  | {}          | yes            |",
        if cannot { "no " } else { "yes" }
    );
    // Partial role knowledge (VO).
    println!(
        "| sound without central user/role knowledge | yes  | no           | yes            |"
    );
    // m-out-of-n.
    let mut anti = AntiRoleEnforcer::new();
    anti.add_rule(vec![RoleRef::new("e", "A"), RoleRef::new("e", "B"), RoleRef::new("e", "C")]);
    anti.decide("u", &RoleRef::new("e", "A"));
    let over_restricts = !anti.permits("u", &RoleRef::new("e", "B"));
    println!(
        "| m-out-of-n cardinality (m > 2)            | yes  | yes          | {}             |",
        if over_restricts { "no " } else { "yes" }
    );
    // Scoped purge.
    println!(
        "| scoped history purge (per context inst.)  | yes  | n/a          | no             |"
    );
    println!();
}

/// E11 — state growth: ADI vs anti-role blacklist under the same load.
fn e11_state_growth() {
    println!("E11. Retained-state growth under 2000 requests, 10% terminations");
    println!("| requests | MSoD ADI peak | MSoD ADI final | anti-role blacklist |");
    println!("|----------|---------------|----------------|---------------------|");
    let cfg = WorkloadConfig {
        users: 50,
        contexts: 10,
        role_pairs: 4,
        requests: 2_000,
        terminate_percent: 10,
    };
    let xml = workload_policy_xml(&cfg);
    let pdp = DecisionService::from_xml_symbolized(&xml, b"k".to_vec()).unwrap();
    let mut anti = AntiRoleEnforcer::new();
    for i in 0..cfg.role_pairs {
        anti.add_rule(vec![
            RoleRef::new("permisRole", format!("A{i}")),
            RoleRef::new("permisRole", format!("B{i}")),
        ]);
    }
    let mut peak = 0;
    for req in gen_requests(&cfg, 21) {
        pdp.decide(&req);
        peak = peak.max(pdp.adi().len());
        if let permis::Credentials::Validated(roles) = &req.credentials {
            anti.decide(&req.subject, &roles[0]);
        }
    }
    println!(
        "| {:>8} | {peak:>13} | {:>14} | {:>19} |",
        cfg.requests,
        pdp.adi().len(),
        anti.total_prohibitions()
    );
    println!("(MSoD last steps keep the ADI bounded; anti-role state only ever grows)\n");
}
