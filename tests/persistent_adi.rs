//! Experiment E9 (correctness half) — the PDP over the `storage` crate's
//! persistent retained ADI: identical decisions to the in-memory
//! backend, and restart *without* audit-trail replay.

use msod::{RoleRef, ShardedAdi};
use permis::{DecisionRequest, DecisionService};
use policy::PdpPolicy;
use storage::PersistentAdi;
use workflow::scenarios::{gen_requests, workload_policy_xml, WorkloadConfig};

fn temp_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("msod-padi-{}-{tag}.log", std::process::id()))
}

/// The service over one journaled shard at `path`.
fn journaled(policy: PdpPolicy, path: &std::path::Path) -> DecisionService<PersistentAdi> {
    let store = PersistentAdi::open(path).unwrap();
    DecisionService::from_shards(policy, b"k".to_vec(), ShardedAdi::from_shards(vec![store]))
}

#[test]
fn persistent_backend_matches_memory_backend() {
    let path = temp_file("match");
    let _ = std::fs::remove_file(&path);
    let cfg = WorkloadConfig {
        users: 15,
        contexts: 4,
        role_pairs: 2,
        requests: 400,
        terminate_percent: 5,
    };
    let policy_xml = workload_policy_xml(&cfg);
    let policy = policy::parse_rbac_policy(&policy_xml).unwrap();

    let mem_pdp = DecisionService::from_xml_symbolized(&policy_xml, b"k".to_vec()).unwrap();
    let per_pdp = journaled(policy, &path);

    for (i, req) in gen_requests(&cfg, 3).iter().enumerate() {
        assert_eq!(
            mem_pdp.decide(req).is_granted(),
            per_pdp.decide(req).is_granted(),
            "divergence at request {i}"
        );
    }
    assert_eq!(mem_pdp.adi().snapshot(), per_pdp.adi().snapshot());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn restart_without_trail_replay() {
    let path = temp_file("restart");
    let _ = std::fs::remove_file(&path);
    let policy_xml = r#"<RBACPolicy id="p" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/><Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;
    let act = |pdp: &DecisionService<PersistentAdi>, user: &str, role: &str, ts: u64| {
        pdp.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("employee", role)],
            "work",
            "res",
            "Proc=1".parse().unwrap(),
            ts,
        ))
        .is_granted()
    };
    {
        let policy = policy::parse_rbac_policy(policy_xml).unwrap();
        let pdp = journaled(policy, &path);
        assert!(act(&pdp, "alice", "A", 1));
        pdp.sync_adi().unwrap();
    }
    // Fresh PDP process: the retained ADI comes straight off disk — no
    // TrailStore attached, no recover() call, no trail replay.
    let policy = policy::parse_rbac_policy(policy_xml).unwrap();
    let pdp = journaled(policy, &path);
    assert_eq!(pdp.adi().len(), 1);
    assert!(!act(&pdp, "alice", "B", 100), "history survived the restart");
    assert!(act(&pdp, "bob", "B", 101));
    let _ = std::fs::remove_file(&path);
}

/// The durable-ack gap (ROADMAP item 9), pinned as it stands: a grant
/// is acknowledged once its journal frame is *queued* in the shard's
/// in-memory frame batch, and reaches the device only at the next
/// `sync_adi`. A power cut in between loses a record the PEP already
/// acted on, recovery reports a clean journal, and after the restart the
/// conflicting step is granted — an under-deny. Item 9's second PR
/// (group commit before the acknowledgement) flips the final assertion
/// to a deny.
#[test]
fn unsynced_grant_is_lost_at_power_cut() {
    use std::path::Path;
    use std::sync::Arc;

    use msod::symtab::SymbolTable;
    use storage::{FaultVfs, Vfs};

    const SHARDS: usize = 2;
    let policy = || {
        policy::parse_rbac_policy(
            r#"<RBACPolicy id="ack" roleType="employee">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="res">
      <AllowedRole value="A"/><AllowedRole value="B"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Proc=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="A"/><Role type="employee" value="B"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#,
        )
        .unwrap()
    };
    // Journaled shards on a RAM disk, all opened against one symbol
    // table, as `open_persistent` opens them.
    let open = |vfs: &FaultVfs| {
        let table = Arc::new(SymbolTable::new());
        let shards = (0..SHARDS)
            .map(|i| {
                let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
                let path = format!("/adi-shard-{i}.log");
                PersistentAdi::open_with_table(vfs, Path::new(&path), Arc::clone(&table)).unwrap()
            })
            .collect();
        DecisionService::from_shards(policy(), b"k".to_vec(), ShardedAdi::from_shards(shards))
    };
    let work = |role: &str, ts: u64| {
        DecisionRequest::with_roles(
            "alice",
            vec![RoleRef::new("employee", role)],
            "work",
            "res",
            "Proc=1".parse().unwrap(),
            ts,
        )
    };

    let vfs = FaultVfs::default();
    let svc = open(&vfs);
    assert!(svc.decide(&work("A", 1)).is_granted(), "the first step is acknowledged");
    assert!(!svc.decide(&work("B", 2)).is_granted(), "the live service denies the conflict");
    let shard = svc.adi().shard_index("alice");
    assert!(svc.adi().with_shard(shard, |s| s.batched_ops()) > 0, "frames queued, not synced");

    // Power cut with no `sync_adi`: the process dies with its batch.
    for i in 0..SHARDS {
        svc.adi().with_shard(i, |s| s.abandon());
    }
    drop(svc);
    vfs.power_cut(0xAC4_6A9);

    let svc = open(&vfs);
    for i in 0..SHARDS {
        assert!(svc.adi().with_shard(i, |s| s.recovery().is_clean()), "the loss is silent");
    }
    assert!(svc.adi().is_empty(), "the acknowledged grant did not survive");
    // Today's under-deny. Item 9's second PR makes this a deny.
    assert!(svc.decide(&work("B", 3)).is_granted());
}

/// Differential test through the real constructors: the durable
/// service (`open_persistent`) and the in-memory symbolized service
/// (`new_symbolized`) are one pipeline with and without a journal under
/// it, so the same stream must produce *equal* `DecisionOutcome`s —
/// verdict, matched policies, records added/purged and
/// `records_consulted` — and equal retained ADI, across first steps,
/// conflicts at another branch, last steps, a management purge and a
/// drop/reopen of the durable side mid-stream.
mod open_persistent_vs_new_symbolized {
    use std::fmt::Write as _;

    use msod::{RetainedAdi, RoleRef};
    use permis::{
        purge_scope, Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason,
        ManagementOp, RETAINED_ADI_CONTROLLER,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use storage::PersistentAdi;

    const TEMPLATES: usize = 2;
    const SHARDS: usize = 4;
    const OPS: u64 = 2400;

    /// Two MMER policies sharing the `Branch=*, Period=!` scope (so the
    /// engine's shared-scope probe dedupe is on the path) plus an MMEP
    /// `Refund=!` policy with a duplicated entry; every policy has a
    /// last step.
    fn policy_xml() -> String {
        let mut xml = String::from(
            "<RBACPolicy id=\"diff\" roleType=\"employee\">\n\
             <SOAPolicy><SOA dn=\"cn=HR\"/></SOAPolicy>\n<TargetAccessPolicy>\n",
        );
        let mut access = |op: &str, target: &str, role: &str| {
            let _ = writeln!(
                xml,
                "<TargetAccess operation=\"{op}\" targetURI=\"{target}\">\
                 <AllowedRole value=\"{role}\"/></TargetAccess>"
            );
        };
        for k in 0..TEMPLATES {
            access(&format!("handleCash_{k}"), &format!("till_{k}"), &format!("Teller_{k}"));
            access(&format!("audit_{k}"), &format!("books_{k}"), &format!("Auditor_{k}"));
            access(&format!("commitAudit_{k}"), &format!("audit_{k}"), &format!("Auditor_{k}"));
        }
        access("prepareRefund", "refund", "Clerk");
        access("approveRefund", "refund", "Manager");
        access("issueRefund", "refund", "Clerk");
        access("confirmRefund", "refund", "Manager");
        access("viewReport", "reports", "Staff");
        access("*", "pdp:retainedADI", RETAINED_ADI_CONTROLLER);
        xml.push_str("</TargetAccessPolicy>\n<MSoDPolicySet>\n");
        for k in 0..TEMPLATES {
            let _ = writeln!(
                xml,
                "<MSoDPolicy BusinessContext=\"Branch=*, Period=!\">\
                 <LastStep operation=\"commitAudit_{k}\" targetURI=\"audit_{k}\"/>\
                 <MMER ForbiddenCardinality=\"2\">\
                 <Role type=\"employee\" value=\"Teller_{k}\"/>\
                 <Role type=\"employee\" value=\"Auditor_{k}\"/></MMER></MSoDPolicy>"
            );
        }
        xml.push_str(
            "<MSoDPolicy BusinessContext=\"Refund=!\">\
             <LastStep operation=\"confirmRefund\" targetURI=\"refund\"/>\
             <MMEP ForbiddenCardinality=\"2\">\
             <Privilege operation=\"prepareRefund\" target=\"refund\"/>\
             <Privilege operation=\"approveRefund\" target=\"refund\"/>\
             <Privilege operation=\"approveRefund\" target=\"refund\"/>\
             <Privilege operation=\"issueRefund\" target=\"refund\"/></MMEP></MSoDPolicy>\n\
             </MSoDPolicySet>\n</RBACPolicy>",
        );
        xml
    }

    fn request(
        user: u64,
        role: &str,
        op: &str,
        target: &str,
        ctx: &str,
        ts: u64,
    ) -> DecisionRequest {
        DecisionRequest::with_roles(
            format!("user{user}"),
            vec![RoleRef::new("employee", role)],
            op,
            target,
            ctx.parse().unwrap(),
            ts,
        )
    }

    /// One seeded operation. Periods come from a window that slides
    /// with `ts`, so contexts are started (first steps), revisited from
    /// other branches by a small user pool (conflicts), and terminated
    /// (last steps); refunds do the same for the MMEP policy.
    fn draw(rng: &mut StdRng, ts: u64) -> DecisionRequest {
        let user = rng.random_range(0..12u64);
        let k = rng.random_range(0..TEMPLATES as u64);
        let period = format!(
            "Branch=b{}, Period=q{}",
            rng.random_range(0..5u64),
            ts / 200 + rng.random_range(0..3u64)
        );
        let refund = format!("Refund=r{}", ts / 150 + rng.random_range(0..4u64));
        match rng.random_range(0..100u64) {
            0..=39 => request(
                user,
                &format!("Teller_{k}"),
                &format!("handleCash_{k}"),
                &format!("till_{k}"),
                &period,
                ts,
            ),
            40..=64 => request(
                user,
                &format!("Auditor_{k}"),
                &format!("audit_{k}"),
                &format!("books_{k}"),
                &period,
                ts,
            ),
            65..=68 => request(
                user,
                &format!("Auditor_{k}"),
                &format!("commitAudit_{k}"),
                &format!("audit_{k}"),
                &period,
                ts,
            ),
            69..=76 => request(user, "Clerk", "prepareRefund", "refund", &refund, ts),
            77..=86 => request(user, "Manager", "approveRefund", "refund", &refund, ts),
            87..=91 => request(user, "Clerk", "issueRefund", "refund", &refund, ts),
            92..=94 => request(user, "Manager", "confirmRefund", "refund", &refund, ts),
            _ => request(user, "Staff", "viewReport", "reports", "Dept=d1", ts),
        }
    }

    fn open(dir: &std::path::Path) -> DecisionService<PersistentAdi> {
        let policy = policy::parse_rbac_policy(&policy_xml()).unwrap();
        let (svc, reports) =
            DecisionService::open_persistent(policy, b"k".to_vec(), dir, SHARDS).unwrap();
        assert!(reports.iter().all(|r| r.is_clean()), "{reports:?}");
        svc
    }

    #[test]
    fn same_outcomes_and_state_through_purges_and_a_restart() {
        let dir = std::env::temp_dir().join(format!("msod-padi-diff-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mem = DecisionService::symbolized_with_shard_count(
            policy::parse_rbac_policy(&policy_xml()).unwrap(),
            b"k".to_vec(),
            SHARDS,
        );
        let mut durable = open(&dir);
        let controller =
            || Credentials::Validated(vec![RoleRef::new("employee", RETAINED_ADI_CONTROLLER)]);

        let mut rng = StdRng::seed_from_u64(0x5EED_D1FF);
        let (mut first_steps, mut msod_denies, mut terminations, mut restarts) = (0, 0, 0, 0);
        for ts in 1..=OPS {
            let req = draw(&mut rng, ts);
            let want = mem.decide(&req);
            let got = durable.decide(&req);
            assert_eq!(got, want, "op {ts}: {req:?}");
            match &want {
                DecisionOutcome::Grant { msod: Some(d), .. } => {
                    first_steps += usize::from(d.records_added == 1 && d.records_consulted == 0);
                    terminations += d.terminated.len();
                }
                DecisionOutcome::Deny { reason: DenyReason::Msod(_), .. } => msod_denies += 1,
                _ => {}
            }
            // Phases: a management purge of one live period across all
            // branches, a drop/reopen of the durable side, and a
            // checkpoint every 300 ops.
            if ts == 900 {
                let scope = format!("Branch=*, Period=q{}", ts / 200);
                let purge = || ManagementOp::PurgeContext(purge_scope(&scope).unwrap());
                let want = mem.manage("cn=admin", controller(), purge(), ts).unwrap();
                let got = durable.manage("cn=admin", controller(), purge(), ts).unwrap();
                assert!(want > 0, "the purged period must be live");
                assert_eq!(got, want);
            }
            if ts == 1500 {
                durable.sync_adi().unwrap();
                drop(durable);
                durable = open(&dir);
                restarts += 1;
            }
            if ts % 300 == 0 {
                assert_eq!(durable.adi().snapshot(), mem.adi().snapshot(), "after op {ts}");
            }
        }
        assert_eq!(durable.adi().snapshot(), mem.adi().snapshot());
        assert!(!mem.adi().is_empty());
        // The stream exercised what it claims to.
        assert!(first_steps > 50, "{first_steps} first steps");
        assert!(msod_denies > 100, "{msod_denies} MSoD denies");
        assert!(terminations > 20, "{terminations} terminated contexts");
        assert_eq!(restarts, 1);
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `Branch=*` last step on the durable service journals step 7 on
    /// every shard: each shard's journal ends in the purge frame of the
    /// string bound context, the records the ADI lost are the
    /// `records_purged` the grant reports, and a reopen replays to the
    /// live state (without the frame it would resurrect the purged
    /// records).
    #[test]
    fn branch_star_last_step_journals_its_purge_on_every_shard() {
        let dir = std::env::temp_dir().join(format!("msod-padi-purge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = open(&dir);
        for user in 0..12 {
            let ctx = format!("Branch=b{}, Period=q1", user % 5);
            let req = request(user, "Teller_0", "handleCash_0", "till_0", &ctx, user + 1);
            assert!(svc.decide(&req).is_granted());
        }
        let survivor = request(3, "Teller_0", "handleCash_0", "till_0", "Branch=b1, Period=q2", 20);
        assert!(svc.decide(&survivor).is_granted());
        let occupied = (0..SHARDS).filter(|&i| svc.adi().with_shard(i, |s| s.len() > 0)).count();
        assert!(occupied > 1, "the terminated period spans shards");

        let before = svc.adi().len();
        let close =
            request(99, "Auditor_0", "commitAudit_0", "audit_0", "Branch=b0, Period=q1", 30);
        let DecisionOutcome::Grant { msod: Some(detail), .. } = svc.decide(&close) else {
            panic!("the last step is granted");
        };
        let bound = purge_scope("Branch=*, Period=q1").unwrap();
        assert_eq!(detail.terminated, vec![bound.clone()]);
        assert_eq!(detail.records_added, 1);
        assert_eq!(detail.records_purged, 13, "twelve tellers and the closing auditor");
        assert_eq!(before + detail.records_added - svc.adi().len(), detail.records_purged);
        assert_eq!(svc.adi().len(), 1);

        svc.sync_adi().unwrap();
        let vfs: std::sync::Arc<dyn storage::Vfs> = std::sync::Arc::new(storage::StdVfs);
        let tails: Vec<_> = (0..SHARDS)
            .map(|i| {
                let path = dir.join(format!("adi-shard-{i}.log"));
                storage::tail_journal_with_vfs(&vfs, &path, 0).unwrap().pop()
            })
            .collect();
        let live = svc.adi().snapshot();
        drop(svc);
        let reopened = open(&dir);
        assert_eq!(reopened.adi().snapshot(), live, "replay resurrected purged records");
        for (i, tail) in tails.into_iter().enumerate() {
            let want = storage::ReplayFrame::Op(storage::AdiOp::Purge(bound.clone()));
            assert_eq!(tail, Some(want), "shard {i}'s journal tail");
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
