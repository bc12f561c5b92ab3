//! Pins `DecisionService::decide_many`'s contract: a batch is
//! **semantically identical** to issuing the same requests one at a
//! time, in order — including earlier records in a batch changing the
//! MMER/MMEP outcome of later same-user requests — across the
//! symbolized and persistent services, and against the spec oracle's
//! sequential replay. The batch only amortises
//! mechanics (core snapshot, admission scratch); it must never change
//! a verdict or the retained ADI.

use modelcheck::{oracle_request, project, sort_snapshot, Oracle, Verdict};
use msod_rbac::msod::{AdiRecord, RetainedAdi, RoleRef};
use msod_rbac::permis::{DecisionOutcome, DecisionRequest, DecisionService};
use msod_rbac::policy::{parse_rbac_policy, PdpPolicy};

const POLICY: &str = r#"<RBACPolicy id="batch" roleType="permisRole">
  <SOAPolicy><SOA dn="cn=SOA"/></SOAPolicy>
  <TargetAccessPolicy>
    <TargetAccess operation="work" targetURI="http://vo/resource">
      <AllowedRole value="Member"/>
      <AllowedRole value="Reviewer"/>
    </TargetAccess>
    <TargetAccess operation="*" targetURI="pdp:retainedADI">
      <AllowedRole value="RetainedADIController"/>
    </TargetAccess>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="Project=!">
      <MMER ForbiddenCardinality="2">
        <Role type="permisRole" value="Member"/>
        <Role type="permisRole" value="Reviewer"/>
      </MMER>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>"#;

fn work(user: &str, role: &str, project: &str, ts: u64) -> DecisionRequest {
    DecisionRequest::with_roles(
        user,
        vec![RoleRef::permis(role)],
        "work",
        "http://vo/resource",
        msod_rbac::context::ContextInstance::from_pairs(vec![(
            "Project".to_owned(),
            format!("p{project}"),
        )])
        .unwrap(),
        ts,
    )
}

/// Traffic where later verdicts hinge on earlier requests in the SAME
/// batch: u1's Reviewer ask at [1] is denied only because of the
/// Member grant at [0]; u2 mirrors it; p2 stays independent.
fn entangled_traffic() -> Vec<DecisionRequest> {
    vec![
        work("u1", "Member", "1", 1),
        work("u1", "Reviewer", "1", 2),
        work("u2", "Reviewer", "1", 3),
        work("u2", "Member", "1", 4),
        work("u1", "Member", "2", 5),
        work("u1", "Reviewer", "3", 6),
        work("u3", "Member", "1", 7),
        work("u3", "Member", "1", 8),
    ]
}

/// The spec oracle's sequential replay of `traffic`: its verdict for
/// each request and the retained state after each prefix (`[0]` is the
/// empty store) — the ground truth every service is compared against.
fn reference(
    policy: &PdpPolicy,
    traffic: &[DecisionRequest],
) -> (Vec<Verdict>, Vec<Vec<AdiRecord>>) {
    let mut oracle = Oracle::new(policy.msod.clone());
    let mut prefixes = vec![oracle.snapshot()];
    let verdicts = traffic
        .iter()
        .map(|req| {
            let verdict = oracle.decide(&oracle_request(req));
            prefixes.push(oracle.snapshot());
            verdict
        })
        .collect();
    (verdicts, prefixes)
}

/// `decide_many` on `svc` agrees with the oracle's sequential replay,
/// verdict by verdict, and leaves the same retained state.
fn assert_batch_equals_reference<A: RetainedAdi + 'static>(svc: &DecisionService<A>) {
    let policy = svc.core().policy().clone();
    let traffic = entangled_traffic();
    let (verdicts, prefixes) = reference(&policy, &traffic);
    let batched: Vec<Verdict> = svc.decide_many(&traffic).iter().map(project).collect();
    assert_eq!(batched, verdicts, "batch and the oracle's sequential verdicts diverged");
    assert_eq!(Some(&svc.adi().snapshot()), prefixes.last());
}

fn assert_batch_equals_sequential<A, B>(
    batch_svc: &DecisionService<A>,
    seq_svc: &DecisionService<B>,
) where
    A: RetainedAdi + 'static,
    B: RetainedAdi + 'static,
{
    let traffic = entangled_traffic();
    let batched = batch_svc.decide_many(&traffic);
    let sequential: Vec<DecisionOutcome> = traffic.iter().map(|r| seq_svc.decide(r)).collect();
    assert_eq!(batched, sequential, "batch and sequential verdicts diverged");

    // The entanglement actually bit: [1] and [3] deny only because of
    // records created earlier in the same batch.
    assert!(!batched[1].is_granted(), "u1 Reviewer after Member must deny");
    assert!(!batched[3].is_granted(), "u2 Member after Reviewer must deny");
    assert!(batched[4].is_granted(), "other project is unaffected");
    assert!(batched[7].is_granted(), "same-role repeat is not a violation");

    // And the retained state is identical.
    assert_eq!(batch_svc.adi().snapshot(), seq_svc.adi().snapshot());
}

/// With explanation capture on, `decide_many` takes its per-request
/// path; verdicts, state and every captured derivation still match
/// the oracle's.
#[test]
fn batch_equals_sequential_reference() {
    let policy = parse_rbac_policy(POLICY).unwrap();
    let svc = DecisionService::new_symbolized(policy.clone(), b"batch".to_vec());
    svc.metrics().set_capture_explanations(true);
    // Each derivation against the state its request met: explain, then
    // decide.
    let mut oracle = Oracle::new(policy.msod);
    let want: Vec<_> = entangled_traffic()
        .iter()
        .map(|r| {
            let req = oracle_request(r);
            let ex = oracle.explain(&req);
            oracle.decide(&req);
            ex
        })
        .collect();
    assert_batch_equals_reference(&svc);
    if msod_rbac::obs::enabled() {
        let got: Vec<_> =
            svc.metrics().recent_explanations().into_iter().map(|e| e.msod.unwrap()).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn batch_equals_sequential_symbolized() {
    let policy = parse_rbac_policy(POLICY).unwrap();
    let batch_svc = DecisionService::new_symbolized(policy.clone(), b"batch".to_vec());
    let seq_svc = DecisionService::new_symbolized(policy, b"seq".to_vec());
    assert_batch_equals_sequential(&batch_svc, &seq_svc);
}

#[test]
fn batch_on_symbolized_equals_sequential_on_reference() {
    // The symbolized batch path (shared ReqBufs / MatchedBuf scratch
    // across the batch) must agree with the spec oracle run one request
    // at a time.
    let policy = parse_rbac_policy(POLICY).unwrap();
    assert_batch_equals_reference(&DecisionService::new_symbolized(policy, b"batch".to_vec()));
}

#[test]
fn batch_equals_sequential_persistent() {
    let dir = std::env::temp_dir().join(format!("msod-batch-{}", std::process::id()));
    let batch_dir = dir.join("batch");
    let seq_dir = dir.join("seq");
    std::fs::create_dir_all(&batch_dir).unwrap();
    std::fs::create_dir_all(&seq_dir).unwrap();
    let policy = parse_rbac_policy(POLICY).unwrap();
    let (batch_svc, _) =
        DecisionService::open_persistent(policy.clone(), b"batch".to_vec(), &batch_dir, 2).unwrap();
    let (seq_svc, _) =
        DecisionService::open_persistent(policy, b"seq".to_vec(), &seq_dir, 2).unwrap();
    assert_batch_equals_sequential(&batch_svc, &seq_svc);
    drop(batch_svc);
    drop(seq_svc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_and_singleton_batches() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"edge".to_vec()).unwrap();
    assert!(svc.decide_many(&[]).is_empty());
    let one = svc.decide_many(&[work("u1", "Member", "1", 1)]);
    assert_eq!(one.len(), 1);
    assert!(one[0].is_granted());
    // The singleton batch retained its record like a plain decide.
    assert_eq!(svc.adi().len(), 1);
}

/// A persistent backend killed mid-batch (power cut via `FaultVfs`)
/// must recover to a *strict prefix* of the batch's mutations — never
/// a hole, never a record the batch didn't produce, and never the
/// whole batch (the crash budget guarantees some tail was still
/// unwritten).
#[test]
fn crash_mid_batch_recovers_a_strict_prefix() {
    use msod_rbac::storage::{FaultPlan, FaultVfs, PersistentAdi, Vfs};
    use std::path::Path;
    use std::sync::Arc;

    let traffic = entangled_traffic();
    let policy = parse_rbac_policy(POLICY).unwrap();
    let path = Path::new("/adi.log");

    let open = |vfs: &FaultVfs| {
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        PersistentAdi::open_with_vfs(arc, path).unwrap()
    };
    let service = |vfs: &FaultVfs| {
        DecisionService::from_shards(
            policy.clone(),
            b"crash".to_vec(),
            msod_rbac::msod::ShardedAdi::from_shards(vec![open(vfs)]),
        )
    };

    // Dry run on a healthy RAM disk: how many bytes does the full
    // batch write? The crash budget is set to half of that, which
    // lands mid-batch by construction.
    let dry_vfs = FaultVfs::default();
    let dry_svc = service(&dry_vfs);
    dry_svc.decide_many(&traffic);
    dry_svc.adi().with_shard(0, |s| s.flush().unwrap());
    let total = dry_vfs.bytes_written();
    assert!(total > 0, "the batch must journal something");

    // The sequential ground truth: retained state after each prefix.
    let (_, prefixes) = reference(&policy, &traffic);
    let full = prefixes.last().unwrap().clone();
    assert!(full.len() >= 4, "traffic must actually retain records");

    // The crashing run: die after half the journal bytes.
    let vfs = FaultVfs::default();
    let svc = service(&vfs);
    vfs.arm(FaultPlan { crash_after_write_bytes: Some(total / 2), ..FaultPlan::default() });
    svc.decide_many(&traffic);
    svc.adi().with_shard(0, |s| {
        let _ = s.flush(); // the write crossing the budget fails
        s.abandon(); // crashed process: Drop must not touch the disk
    });
    drop(svc);
    assert!(vfs.died(), "the armed crash must have fired");

    // Power-cycle and recover.
    vfs.power_cut(0xC4A5);
    let recovered = open(&vfs);
    let mut snap = msod_rbac::msod::RetainedAdi::snapshot(&recovered);
    sort_snapshot(&mut snap);

    let k = prefixes
        .iter()
        .position(|p| *p == snap)
        .unwrap_or_else(|| panic!("recovered state is not a prefix of the batch: {snap:?}"));
    assert!(snap.len() < full.len(), "crash at half the bytes cannot recover the whole batch");
    // Informative, not load-bearing: which prefix survived.
    eprintln!("recovered prefix {k}/{} ({} records)", traffic.len(), snap.len());
}

#[test]
fn batch_metrics_are_recorded() {
    let svc = DecisionService::from_xml_symbolized(POLICY, b"metrics".to_vec()).unwrap();
    svc.decide_many(&entangled_traffic());
    svc.decide_many(&[work("u9", "Member", "9", 100)]);
    let text = svc.metrics_text();
    if msod_rbac::obs::enabled() {
        assert!(text.contains("permis_decide_batches_total 2"), "batch counter missing:\n{text}");
        assert!(text.contains("permis_decide_batch_size"), "batch histogram missing");
    }
}
