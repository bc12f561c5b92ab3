//! Deterministic crash-simulation harness for the retained-ADI store.
//!
//! Each cycle builds a [`PersistentAdi`] on a seeded [`FaultVfs`],
//! drives it with randomized mutations until a scripted fault kills the
//! "machine" mid-write, simulates the power cut (unsynced tail
//! truncated at a seed-chosen byte, possibly with a garbage last byte),
//! reopens the store, and checks two properties:
//!
//! 1. **Prefix consistency** — the recovered state equals `states[k]`
//!    for some `k` with `committed <= k <= applied`, where `committed`
//!    counts operations covered by the last successful `sync()` and
//!    `applied` counts everything the process had applied in memory.
//!    No recovered store ever contains an op that was not fully
//!    journaled, and never loses one that was synced.
//! 2. **MSoD invariants** — history generated exclusively through
//!    [`MsodEngine::enforce`] still satisfies the MMER/MMEP constraints
//!    after recovery (the same invariant `tests/concurrent_pdp.rs`
//!    checks live): no user ever holds `m` conflicting roles, or `m`
//!    conflicting privileges, within one bound business context.
//!
//! Two further scenarios cover the symbol plane's commit path: history
//! committed by `SymEngine` through the journal-first `commit_sym` hook
//! and cut while frames are still batched, and string-era (v1) journals
//! reopened into the symbol index and compacted.
//!
//! The seven scenarios together run 1700 cycles by default (>= the 1000
//! the acceptance bar asks for). Reproduce a failure with
//! `CRASH_SIM_SEED=<seed printed on failure>`; scale the cycle count
//! with `CRASH_SIM_SCALE=<float>`.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;

use context::ContextName;
use msod::symtab::SymbolTable;
use msod::{
    dispatch, AdiRecord, EngineOptions, MemoryAdi, Mmep, Mmer, MsodEngine, MsodPolicy,
    MsodPolicySet, MsodRequest, MsodScratch, Privilege, RetainedAdi, RoleRef, ShardedAdi,
    SymEngine,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use storage::{verify_journal_with_vfs, AdiOp, FaultPlan, FaultVfs, OpLog, PersistentAdi, Vfs};

const JOURNAL: &str = "/adi.log";

fn base_seed() -> u64 {
    match std::env::var("CRASH_SIM_SEED") {
        Ok(s) => s.parse().expect("CRASH_SIM_SEED must be a u64"),
        Err(_) => 0xC0FF_EE00,
    }
}

fn scaled(cycles: u64) -> u64 {
    let scale: f64 = std::env::var("CRASH_SIM_SCALE")
        .ok()
        .map(|s| s.parse().expect("CRASH_SIM_SCALE must be a float"))
        .unwrap_or(1.0);
    ((cycles as f64) * scale).max(1.0) as u64
}

fn rec(rng: &mut StdRng, ts: u64) -> AdiRecord {
    AdiRecord {
        user: format!("u{}", rng.random_range(0..4u8)),
        roles: vec![RoleRef::new("employee", format!("r{}", rng.random_range(0..3u8)))],
        operation: "op".into(),
        target: "t".into(),
        context: format!("P={}", rng.random_range(0..3u8)).parse().unwrap(),
        timestamp: ts,
    }
}

fn purge_bound(p: u8) -> context::BoundContext {
    let name: ContextName = "P=!".parse().unwrap();
    name.bind(&format!("P={p}").parse().unwrap()).unwrap()
}

/// Apply one random mutation to `adi`.
fn random_op(rng: &mut StdRng, adi: &mut dyn RetainedAdi, ts: u64) {
    match rng.random_range(0..10u8) {
        0..=6 => adi.add(rec(rng, ts)),
        7 => {
            adi.purge(&purge_bound(rng.random_range(0..3u8)));
        }
        8 => {
            adi.purge_older_than(rng.random_range(0..200u64));
        }
        _ => adi.clear(),
    }
}

/// The core prefix-consistency assertion: the recovered snapshot must
/// equal one of the in-memory states between the last sync and the
/// crash point.
fn assert_prefix(seed: u64, states: &[Vec<AdiRecord>], committed: usize, recovered: &[AdiRecord]) {
    let applied = states.len() - 1;
    let ok = (committed..=applied).any(|k| states[k] == recovered);
    assert!(
        ok,
        "seed {seed}: recovered state matches no states[{committed}..={applied}] \
         ({} records recovered; {} committed, {} applied)",
        recovered.len(),
        states[committed].len(),
        states[applied].len(),
    );
}

/// After recovery the journal on disk must be byte-clean: recovery
/// truncated every anomaly away, so an offline verify agrees.
fn assert_verify_clean(seed: u64, vfs: &FaultVfs) {
    let report = verify_journal_with_vfs(vfs, Path::new(JOURNAL)).unwrap();
    assert!(report.is_clean(), "seed {seed}: post-recovery journal not clean: {report}");
}

/// Scenario 1: a write-budget power cut lands mid-frame at a seeded
/// byte offset while random mutations stream in; one cycle in three
/// also injects a transient write failure first, exercising the
/// latched-error catch-up rewrite under crash pressure.
fn write_crash_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = rng.random_range(1..3000u64);
    let transient =
        if rng.random_range(0..3u8) == 0 { Some(rng.random_range(0..40u64)) } else { None };
    let vfs = FaultVfs::new(FaultPlan {
        crash_after_write_bytes: Some(budget),
        fail_write_at: transient,
        ..Default::default()
    });
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);

    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    let mut states = vec![adi.snapshot()];
    let mut committed = 0usize;
    let n_ops = rng.random_range(1..=120usize);
    for i in 0..n_ops {
        random_op(&mut rng, &mut adi, i as u64);
        states.push(adi.snapshot());
        if rng.random_range(0..4u8) == 0 && adi.sync().is_ok() {
            committed = states.len() - 1;
        }
        if vfs.died() {
            break;
        }
    }

    // Power cut: the process dies without the Drop flush running.
    std::mem::forget(adi);
    vfs.power_cut(seed ^ 0x9E37_79B9);

    let recovered = PersistentAdi::open_with_vfs(arc, path).unwrap();
    assert_prefix(seed, &states, committed, &recovered.snapshot());
    assert_verify_clean(seed, &vfs);
}

/// Scenario 2: an injected fsync failure kills the machine at a seeded
/// sync call; everything after the previous sync is at risk, nothing
/// before it may be lost.
fn sync_crash_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vfs = FaultVfs::new(FaultPlan {
        crash_at_sync: Some(rng.random_range(0..6u64)),
        ..Default::default()
    });
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);

    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    let mut states = vec![adi.snapshot()];
    let mut committed = 0usize;
    let mut saw_sync_error = false;
    for i in 0..rng.random_range(1..=100usize) {
        random_op(&mut rng, &mut adi, i as u64);
        states.push(adi.snapshot());
        if rng.random_range(0..3u8) == 0 {
            // The injected fsync failure must surface as a typed
            // error, not disappear.
            match adi.sync() {
                Ok(()) => committed = states.len() - 1,
                Err(_) => saw_sync_error = true,
            }
        }
        if vfs.died() {
            break;
        }
    }
    assert!(
        !vfs.died() || saw_sync_error,
        "seed {seed}: machine died at sync but no error surfaced"
    );

    std::mem::forget(adi);
    vfs.power_cut(seed ^ 0x517C_C1B7);

    let recovered = PersistentAdi::open_with_vfs(arc, path).unwrap();
    assert_prefix(seed, &states, committed, &recovered.snapshot());
    assert_verify_clean(seed, &vfs);
}

/// Scenario 3: crash inside a compaction. The temp-write + atomic-
/// rename protocol means recovery must land on exactly one of the two
/// journals — the old one (with the stale temp removed and flagged) or
/// the new one — and both encode the same logical state.
fn compaction_crash_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vfs = FaultVfs::default();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);

    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    for i in 0..rng.random_range(1..=80usize) {
        random_op(&mut rng, &mut adi, i as u64);
    }
    adi.sync().unwrap();
    let expected = adi.snapshot();

    // Script the crash into the compaction itself: before its rename,
    // mid-way through its temp write, or at one of its fsyncs. A
    // too-large write budget simply lets the compaction succeed, which
    // is also a legal outcome of "crash near a compaction".
    let plan = match rng.random_range(0..3u8) {
        0 => FaultPlan { crash_at_rename: true, ..Default::default() },
        1 => FaultPlan {
            crash_after_write_bytes: Some(rng.random_range(0..2000u64)),
            ..Default::default()
        },
        _ => FaultPlan { crash_at_sync: Some(rng.random_range(0..2u64)), ..Default::default() },
    };
    vfs.arm(plan);
    let _ = adi.compact();

    std::mem::forget(adi);
    vfs.power_cut(seed ^ 0x2545_F491);

    let recovered = PersistentAdi::open_with_vfs(arc, path).unwrap();
    // Exactly one of the two journals was recovered, and either one
    // must reproduce the synced pre-compaction state.
    assert_eq!(
        recovered.snapshot(),
        expected,
        "seed {seed}: compaction crash lost or invented records \
         (recovery report: {})",
        recovered.recovery(),
    );
    let tmp = storage::OpLog::compaction_tmp_path(path);
    assert!(!vfs.exists(&tmp), "seed {seed}: stale compaction temp survived recovery");
    assert_verify_clean(seed, &vfs);
}

/// Scenario 3b: a *transient* write failure (no crash) hits the
/// compaction rewrite itself. `compact()` drops the pending batch
/// before rewriting — the snapshot supersedes it — so a failed rewrite
/// must leave the journal marked behind the index: subsequent appends
/// may not land after the gap, and the catch-up rewrite must restore
/// the complete history. (Regression for a bug where the failure left
/// `needs_rewrite = false` and the on-disk journal became a holed
/// subsequence that recovery silently replayed.)
fn transient_compaction_failure_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vfs = FaultVfs::default();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);

    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    let mut oracle = MemoryAdi::new();
    for i in 0..rng.random_range(1..=60u64) {
        let r = rec(&mut rng, i);
        oracle.add(r.clone());
        adi.add(r);
    }
    // Fail one seeded write: depending on the seed it lands in the
    // compaction's temp-file rewrite, a later batch flush, or nowhere.
    vfs.arm(FaultPlan { fail_write_at: Some(rng.random_range(0..80u64)), ..Default::default() });
    let _ = adi.compact();
    for i in 100..100 + rng.random_range(1..=40u64) {
        let r = rec(&mut rng, i);
        oracle.add(r.clone());
        adi.add(r);
    }
    // The transient fault may have latched: the first sync surfaces it
    // as a typed error (and runs the catch-up rewrite); the retry must
    // be clean — the fault injects exactly one failure.
    if adi.sync().is_err() {
        adi.sync().unwrap_or_else(|e| panic!("seed {seed}: sync after catch-up failed: {e}"));
    }
    drop(adi);
    let recovered = PersistentAdi::open_with_vfs(arc, path).unwrap();
    assert_eq!(
        recovered.snapshot(),
        oracle.snapshot(),
        "seed {seed}: transient compaction failure left a holed journal \
         (recovery report: {})",
        recovered.recovery(),
    );
    assert_verify_clean(seed, &vfs);
}

// ----------------------------------------------------- MSoD invariants

const INITIATOR: &str = "DealInitiator";
const APPROVER: &str = "DealApprover";

/// The concurrent_pdp.rs policy, built programmatically: within one
/// `Proc` instance no user may hold both deal roles (MMER, m = 2) nor
/// exercise both the initiate and approve privileges (MMEP, m = 2).
fn engine() -> MsodEngine {
    let bc: ContextName = "Proc=!".parse().unwrap();
    let mmer =
        Mmer::new(vec![RoleRef::new("employee", INITIATOR), RoleRef::new("employee", APPROVER)], 2)
            .unwrap();
    let mmep =
        Mmep::new(vec![Privilege::new("initiate", "deal"), Privilege::new("approve", "deal")], 2)
            .unwrap();
    let policy = MsodPolicy::new(bc, None, None, vec![mmer], vec![mmep]).unwrap();
    MsodEngine::new(MsodPolicySet::new(vec![policy]))
}

/// Draw one random request and hand it to `decide`.
fn with_random_request<R>(
    rng: &mut StdRng,
    ts: u64,
    decide: impl FnOnce(&MsodRequest<'_>) -> R,
) -> R {
    let user = format!("u{}", rng.random_range(0..4u8));
    let (role, operation) = match rng.random_range(0..3u8) {
        0 => (INITIATOR, "initiate"),
        1 => (APPROVER, "approve"),
        _ => ("Clerk", "file"),
    };
    let roles = [RoleRef::new("employee", role)];
    let context = format!("Proc={}", rng.random_range(0..3u8)).parse().unwrap();
    decide(&MsodRequest {
        user: &user,
        roles: &roles,
        operation,
        target: "deal",
        context: &context,
        timestamp: ts,
    })
}

/// Issue one random request through the engine. Returns whether it was
/// granted.
fn engine_request(rng: &mut StdRng, eng: &MsodEngine, adi: &mut dyn RetainedAdi, ts: u64) -> bool {
    with_random_request(rng, ts, |req| eng.enforce(adi, req).is_granted())
}

/// The MMER/MMEP invariant over a retained-ADI snapshot: per user and
/// bound `Proc` instance, at most one of the two conflicting roles and
/// at most one of the two conflicting privileges ever appears.
fn assert_msod_invariants(seed: u64, records: &[AdiRecord]) {
    let mut roles_seen: HashMap<(String, String), HashSet<String>> = HashMap::new();
    let mut privs_seen: HashMap<(String, String), HashSet<String>> = HashMap::new();
    for r in records {
        let key = (r.user.clone(), r.context.to_string());
        for role in &r.roles {
            if role.value == INITIATOR || role.value == APPROVER {
                roles_seen.entry(key.clone()).or_default().insert(role.value.clone());
            }
        }
        if r.operation == "initiate" || r.operation == "approve" {
            privs_seen.entry(key.clone()).or_default().insert(r.operation.clone());
        }
    }
    for ((user, ctx), roles) in &roles_seen {
        assert!(
            roles.len() < 2,
            "seed {seed}: MMER violated after recovery: {user} holds {roles:?} in [{ctx}]"
        );
    }
    for ((user, ctx), privs) in &privs_seen {
        assert!(
            privs.len() < 2,
            "seed {seed}: MMEP violated after recovery: {user} exercised {privs:?} in [{ctx}]"
        );
    }
}

/// Scenario 4: history generated exclusively by MSoD decisions, then a
/// seeded mid-write crash. The recovered store must be a prefix of the
/// decision history, satisfy MMER/MMEP, and keep satisfying them as
/// further decisions are made against it.
fn engine_crash_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let budget = rng.random_range(1..4000u64);
    let vfs =
        FaultVfs::new(FaultPlan { crash_after_write_bytes: Some(budget), ..Default::default() });
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);
    let eng = engine();

    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    let mut states = vec![adi.snapshot()];
    let mut committed = 0usize;
    for i in 0..rng.random_range(1..=120usize) {
        engine_request(&mut rng, &eng, &mut adi, i as u64);
        states.push(adi.snapshot());
        if rng.random_range(0..4u8) == 0 && adi.sync().is_ok() {
            committed = states.len() - 1;
        }
        if vfs.died() {
            break;
        }
    }

    std::mem::forget(adi);
    vfs.power_cut(seed ^ 0x1F12_3BB5);

    let mut recovered = PersistentAdi::open_with_vfs(arc, path).unwrap();
    let snapshot = recovered.snapshot();
    assert_prefix(seed, &states, committed, &snapshot);
    assert_msod_invariants(seed, &snapshot);

    // Decisions against the recovered store must keep the invariants.
    for i in 0..40u64 {
        engine_request(&mut rng, &eng, &mut recovered, 10_000 + i);
    }
    assert_msod_invariants(seed, &recovered.snapshot());
}

/// Cycles of scenario 5 that reached the power cut with frames still
/// batched in memory — the case the scenario exists for.
static CUT_WITH_BATCHED_FRAMES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Scenario 5: history committed on the symbol plane. The compiled
/// `SymEngine` decides over the journaled shard and commits each grant
/// through `commit_sym` — frame queued, then index — so between syncs
/// the newest records exist only in the in-memory batch (and, past
/// `BATCH_FRAMES`, in unsynced file bytes). Power is cut there. The
/// recovered store must be a prefix of the decision history that keeps
/// every synced decision, satisfy MMER/MMEP, and `is_clean()` must
/// tell the truth: clean exactly when an offline scan of the surviving
/// bytes finds nothing to truncate.
fn sym_commit_crash_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vfs = FaultVfs::default();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);
    let string_engine = engine();
    let table = Arc::new(SymbolTable::new());
    let sym = SymEngine::compile(string_engine.policies(), &EngineOptions::default(), &table)
        .expect("the deal policy compiles to the fast path");
    let store = PersistentAdi::open_with_table(Arc::clone(&arc), path, Arc::clone(&table)).unwrap();
    let adi = ShardedAdi::from_shards(vec![store]);
    let mut scratch = MsodScratch::default();

    let mut states = vec![adi.snapshot()];
    let mut committed = 0usize;
    for i in 0..rng.random_range(1..=150u64) {
        with_random_request(&mut rng, i, |req| {
            dispatch(&string_engine, Some(&sym), &table, &adi, req, &mut scratch, false).decision
        });
        states.push(adi.snapshot());
        if rng.random_range(0..6u8) == 0 {
            adi.with_shard(0, |s| s.sync()).unwrap();
            committed = states.len() - 1;
        }
    }
    if adi.with_shard(0, |s| s.batched_ops()) > 0 {
        CUT_WITH_BATCHED_FRAMES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    // Power cut: no drop flush, the batch dies with the process.
    std::mem::forget(adi);
    vfs.power_cut(seed ^ 0x0BAD_5EED);
    let survived_clean = verify_journal_with_vfs(&vfs, path).unwrap().is_clean();

    let recovered = PersistentAdi::open_with_vfs(arc, path).unwrap();
    let snapshot = recovered.snapshot();
    assert_prefix(seed, &states, committed, &snapshot);
    assert_msod_invariants(seed, &snapshot);
    assert_eq!(
        recovered.recovery().is_clean(),
        survived_clean,
        "seed {seed}: is_clean() disagrees with the bytes that survived ({})",
        recovered.recovery(),
    );
    assert_verify_clean(seed, &vfs);
}

/// Scenario 6: a string-era (v1) journal — every add spelled out, as a
/// pre-symbol-plane writer left it — reopened into the symbol index.
/// Replay must intern it to exactly the state the ops describe; new
/// symbol-era writes land behind the v1 prefix; and a compaction
/// (rewriting everything from interned records, v2 only) followed by a
/// reopen must give back the same snapshot, record for record.
fn v1_reopen_compaction_cycle(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let vfs = FaultVfs::default();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);

    let mut oracle = MemoryAdi::new();
    {
        let (mut log, _) = OpLog::open_with_vfs(Arc::clone(&arc), path, |_| true).unwrap();
        for i in 0..rng.random_range(1..=80u64) {
            let op = match rng.random_range(0..10u8) {
                0..=6 => AdiOp::Add(rec(&mut rng, i)),
                7 => AdiOp::Purge(purge_bound(rng.random_range(0..3u8))),
                8 => AdiOp::PurgeOlderThan(rng.random_range(0..60u64)),
                _ => AdiOp::Clear,
            };
            log.append(&op.encode()).unwrap();
            op.apply(&mut oracle);
        }
        log.sync().unwrap();
    }

    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    assert!(adi.recovery().is_clean(), "seed {seed}: {}", adi.recovery());
    assert_eq!(adi.snapshot(), oracle.snapshot(), "seed {seed}: v1 replay into the symbol index");
    for i in 100..100 + rng.random_range(0..20u64) {
        let r = rec(&mut rng, i);
        oracle.add(r.clone());
        adi.add(r);
    }
    adi.compact().unwrap();
    adi.sync().unwrap();
    assert_eq!(adi.snapshot(), oracle.snapshot(), "seed {seed}: compaction changed the index");
    drop(adi);

    // The rewritten file holds symbol-era frames only.
    let frames = storage::tail_journal_with_vfs(&arc, path, 0).unwrap();
    assert_eq!(
        frames.iter().filter(|f| matches!(f, storage::ReplayFrame::Op(AdiOp::Add(_)))).count(),
        oracle.len(),
        "seed {seed}: one add frame per live record"
    );
    let raw = vfs.read(path).unwrap();
    let mut offset = 0usize;
    while offset < raw.len() {
        let len = u32::from_le_bytes(raw[offset..offset + 4].try_into().unwrap()) as usize;
        assert!(matches!(raw[offset + 4], 4 | 5), "seed {seed}: v1 frame survived compaction");
        offset += 4 + len + 4;
    }
    let reopened = PersistentAdi::open_with_vfs(arc, path).unwrap();
    assert!(reopened.recovery().is_clean(), "seed {seed}: {}", reopened.recovery());
    assert_eq!(reopened.snapshot(), oracle.snapshot(), "seed {seed}: v2 rewrite round trip");
    assert_verify_clean(seed, &vfs);
}

fn run(label: &str, cycles: u64, offset: u64, cycle: fn(u64)) {
    let base = base_seed();
    let n = scaled(cycles);
    eprintln!("crash_sim: {label}: {n} cycles from base seed {base} (CRASH_SIM_SEED to override)");
    for i in 0..n {
        cycle(base.wrapping_add(offset).wrapping_add(i));
    }
}

#[test]
fn write_crash_recovers_a_committed_prefix() {
    run("write-crash", 400, 0, write_crash_cycle);
}

#[test]
fn fsync_failure_surfaces_and_recovers_prefix() {
    run("fsync-crash", 200, 1_000_000, sync_crash_cycle);
}

#[test]
fn compaction_crash_recovers_exactly_one_journal() {
    run("compaction-crash", 200, 2_000_000, compaction_crash_cycle);
}

#[test]
fn transient_compaction_failure_leaves_no_holes() {
    run("transient-compaction", 200, 4_000_000, transient_compaction_failure_cycle);
}

#[test]
fn msod_invariants_hold_against_recovered_stores() {
    run("engine-crash", 300, 3_000_000, engine_crash_cycle);
}

#[test]
fn batched_sym_commits_recover_a_truthful_prefix() {
    run("sym-commit-crash", 300, 5_000_000, sym_commit_crash_cycle);
    assert!(
        CUT_WITH_BATCHED_FRAMES.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "no cycle cut power with frames still batched"
    );
}

#[test]
fn v1_journal_survives_reopen_into_the_symbol_index_and_compaction() {
    run("v1-reopen-compaction", 100, 6_000_000, v1_reopen_compaction_cycle);
}

/// Oracle sanity check: with no faults armed, a full cycle round-trips
/// exactly (the harness itself is not lossy).
#[test]
fn faultless_cycle_is_lossless() {
    let mut rng = StdRng::seed_from_u64(base_seed());
    let vfs = FaultVfs::default();
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    let path = Path::new(JOURNAL);
    let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
    let mut oracle = MemoryAdi::new();
    for i in 0..200u64 {
        let r = rec(&mut rng, i);
        oracle.add(r.clone());
        adi.add(r);
    }
    adi.sync().unwrap();
    drop(adi);
    let reopened = PersistentAdi::open_with_vfs(arc, path).unwrap();
    assert!(reopened.recovery().is_clean());
    assert_eq!(reopened.snapshot(), oracle.snapshot());
}
