//! The differential driver: replay one workload through every engine
//! variant in lockstep with the oracle, comparing verdicts after every
//! operation and retained-ADI snapshots after every operation.
//!
//! Variants:
//!
//! 1. `persistent` — [`DecisionService`] over journaled
//!    [`storage::PersistentAdi`] shards on a [`FaultVfs`] RAM disk, all
//!    opened against one symbol table exactly as
//!    [`DecisionService::open_persistent`] does, so decides run the
//!    compiled symbol engine and commit through the journal-first
//!    `commit_sym` path;
//! 2. `crash` — like `persistent`, but powers off mid-sequence
//!    ([`FaultVfs::power_cut`]) after a sync and reopens through the
//!    recovery path (fresh shared table, journal replay interning into
//!    it) before continuing; on alternating power cuts the surviving
//!    journals are first rewritten with string-era (v1) frames, so
//!    every sweep also covers crash-reopen of a journal written before
//!    the symbol-frame format existed into the symbol index;
//! 3. `symbolized` — [`DecisionService`] over sharded [`SymAdi`],
//!    the interned fast path ([`permis::DecisionService::new_symbolized`]);
//! 4. `wire` — a symbolized service behind a real loopback
//!    [`net::NetServer`], driven through [`net::NetClient`]: every
//!    decide crosses the binary wire protocol, purges go through the
//!    §4.3 management port as authorized wire requests, and snapshots
//!    are read back through wire inspect — so the codec, the
//!    per-connection dictionary and the server's admission path are
//!    all inside the differential boundary.
//!
//! All requests carry pre-validated roles and an all-permitting RBAC
//! target rule, so every decision reaches the MSoD stage and every
//! deny is an MSoD deny; management purges act on the ADI stores
//! directly (the policy-authorized management port has its own tests),
//! except in the `wire` variant, where they flow through that port —
//! its management decisions run at the context root, which no
//! generated MSoD policy matches, so they never perturb the ADI.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use context::ContextName;
use msod::symtab::SymbolTable;
use msod::{AdiRecord, RetainedAdi, SymAdi};
use net::{NetClient, NetConfig, NetServer, WireVerdict};
use permis::{Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason};
use policy::{PdpPolicy, TargetRule};
use storage::{AdiOp, FaultVfs, OpLog, PersistentAdi, Vfs};

use crate::gen::{role_pool, Op, Workload, ROLE_TYPE};
use crate::oracle::{sort_snapshot, Mutation, Oracle, OracleRequest, Verdict};

/// Wrap an MSoD policy set in a PDP policy that lets every generated
/// request through the front end: no subject domains, pre-validated
/// credentials, one wildcard target rule allowing the whole role pool.
pub fn wrap_policy(w: &Workload) -> PdpPolicy {
    PdpPolicy {
        id: "modelcheck".into(),
        role_type: ROLE_TYPE.into(),
        trusted_soas: Vec::new(),
        subject_domains: Vec::new(),
        role_hierarchy: HashMap::new(),
        targets: vec![TargetRule {
            operation: "*".into(),
            target: "*".into(),
            allowed_roles: role_pool(),
            conditions: Vec::new(),
        }],
        msod: w.policies.clone(),
    }
}

/// The oracle's form of a decide request that carries pre-validated
/// roles (the form the generator and the services' tests use).
///
/// # Panics
///
/// If `req` carries pushed or pulled credentials: only the front end
/// can turn those into roles.
pub fn oracle_request(req: &DecisionRequest) -> OracleRequest {
    let Credentials::Validated(roles) = &req.credentials else {
        panic!("the oracle takes requests with pre-validated roles, got {:?}", req.credentials);
    };
    OracleRequest {
        user: req.subject.clone(),
        roles: roles.clone(),
        operation: req.operation.clone(),
        target: req.target.clone(),
        context: req.context.clone(),
        timestamp: req.timestamp,
    }
}

/// Project a full [`DecisionOutcome`] onto the semantic core every
/// variant must agree on (drops roles and observability counters).
pub fn project(outcome: &DecisionOutcome) -> Verdict {
    match outcome {
        DecisionOutcome::Grant { msod: None, .. } => Verdict::NotApplicable,
        DecisionOutcome::Grant { msod: Some(d), .. } => Verdict::Grant {
            matched: d.matched_policies.clone(),
            added: d.records_added,
            terminated: d.terminated.iter().map(|b| b.to_string()).collect(),
            purged: d.records_purged,
        },
        DecisionOutcome::Deny { reason: DenyReason::Msod(d), .. } => Verdict::Deny {
            policy: d.policy_index,
            bound: d.bound.to_string(),
            kind: match d.kind {
                msod::ConstraintKind::Mmer => "MMER",
                msod::ConstraintKind::Mmep => "MMEP",
            },
            constraint: d.constraint_index,
            current: d.current_matches,
            historic: d.history_matches,
            cardinality: d.forbidden_cardinality,
        },
        DecisionOutcome::Deny { reason, .. } => Verdict::FrontEnd(reason.to_string()),
    }
}

/// Project a wire verdict onto the same semantic core. [`net`]'s
/// `verdict_of` narrows the in-process fields to `u32`/`u64`; widening
/// them back is lossless for anything a generated workload can reach.
fn project_wire(v: WireVerdict) -> Verdict {
    match v {
        WireVerdict::NotApplicable => Verdict::NotApplicable,
        WireVerdict::Grant { matched, added, terminated, purged } => Verdict::Grant {
            matched: matched.into_iter().map(|m| m as usize).collect(),
            added: added as usize,
            terminated,
            purged: purged as usize,
        },
        WireVerdict::MsodDeny {
            policy,
            bound,
            mmer,
            constraint,
            current,
            historic,
            cardinality,
        } => Verdict::Deny {
            policy: policy as usize,
            bound,
            kind: if mmer { "MMER" } else { "MMEP" },
            constraint: constraint as usize,
            current: current as usize,
            historic: historic as usize,
            cardinality: cardinality as usize,
        },
        WireVerdict::FrontEnd(reason) => Verdict::FrontEnd(reason),
    }
}

/// The administrator identity the wire variant's management traffic
/// authenticates as; `wrap_policy`'s wildcard target rule authorizes
/// the whole role pool for every target, the management one included.
const WIRE_ADMIN: &str = "wire-admin";

/// One disagreement between a variant and the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the operation the variants disagreed on.
    pub op_index: usize,
    /// Which variant disagreed.
    pub variant: &'static str,
    /// What disagreed: `"verdict"`, `"purge-count"`, `"state"` or
    /// `"explanation"`.
    pub check: &'static str,
    /// The oracle's answer.
    pub expected: String,
    /// The variant's answer.
    pub actual: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "op #{}: variant `{}` diverged on {}:\n  oracle: {}\n  engine: {}",
            self.op_index, self.variant, self.check, self.expected, self.actual
        )
    }
}

const TRAIL_KEY: &[u8] = b"modelcheck";

fn shard_path(i: usize) -> std::path::PathBuf {
    Path::new("/adi").join(format!("adi-shard-{i}.log"))
}

/// Open every shard journal against one fresh symbol table — the
/// RAM-disk form of [`DecisionService::open_persistent`].
fn open_persistent_shards(vfs: &FaultVfs, shards: usize) -> Vec<PersistentAdi> {
    let table = Arc::new(SymbolTable::new());
    (0..shards)
        .map(|i| {
            let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
            PersistentAdi::open_with_table(vfs, &shard_path(i), Arc::clone(&table))
                .expect("RAM-disk journal must open")
        })
        .collect()
}

fn persistent_service(
    policy: &PdpPolicy,
    stores: Vec<PersistentAdi>,
) -> DecisionService<PersistentAdi> {
    DecisionService::from_shards(
        policy.clone(),
        TRAIL_KEY.to_vec(),
        msod::ShardedAdi::from_shards(stores),
    )
}

/// Rewrite every shard journal with string-era (v1) `AdiOp::Add`
/// frames carrying its current records, as a journal written before
/// the symbol-frame format would have. The subsequent reopen must
/// migrate transparently ([`storage::ReplayDecoder`] replays v1 frames
/// unchanged; the next compaction rewrites them as symbol frames).
fn downgrade_shards_to_v1(vfs: &FaultVfs, shards: usize) {
    for i in 0..shards {
        let path = shard_path(i);
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let records = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path)
            .expect("journal must reopen for downgrade")
            .snapshot();
        vfs.remove_file(&path).expect("RAM-disk remove");
        let (mut log, _) = OpLog::open_with_vfs(arc, &path, |_| true).expect("fresh v1 journal");
        for rec in records {
            log.append(&AdiOp::Add(rec).encode()).expect("RAM-disk append");
        }
        log.sync().expect("RAM-disk sync");
    }
}

/// One engine variant under test.
enum Variant {
    Persistent { svc: DecisionService<PersistentAdi>, _vfs: FaultVfs },
    Crash { svc: Option<DecisionService<PersistentAdi>>, vfs: FaultVfs, shards: usize },
    Symbolized(DecisionService<SymAdi>),
    // Field order carries the teardown protocol: the client drops
    // first, closing its connection, so the server's Drop joins its
    // workers without waiting out a read timeout.
    Wire { client: NetClient, _server: NetServer },
}

impl Variant {
    fn name(&self) -> &'static str {
        match self {
            Variant::Persistent { .. } => "persistent",
            Variant::Crash { .. } => "crash",
            Variant::Symbolized(_) => "symbolized",
            Variant::Wire { .. } => "wire",
        }
    }

    fn decide(&mut self, req: &DecisionRequest) -> DecisionOutcome {
        match self {
            Variant::Persistent { svc, .. } => svc.decide(req),
            Variant::Crash { svc, .. } => svc.as_ref().expect("service is open").decide(req),
            Variant::Symbolized(svc) => svc.decide(req),
            Variant::Wire { .. } => {
                unreachable!("the wire variant decides in its projected form only")
            }
        }
    }

    /// Decide, projected onto the comparable [`Verdict`], with the
    /// derivation captured where the variant supports it: the
    /// symbolized services, in memory and journaled (the `SymExplain`
    /// capture path). The wire variant's verdict
    /// arrives already projected (responses carry the semantic core,
    /// not the full outcome); it returns no explanation, so only the
    /// verdict and state checks apply to it. The `crash` variant
    /// decides plainly and returns no explanation.
    fn decide_verdict(
        &mut self,
        req: &DecisionRequest,
    ) -> (Verdict, Option<msod::MsodExplanation>) {
        match self {
            Variant::Symbolized(svc) => {
                let (outcome, ex) = svc.decide_explained(req);
                (project(&outcome), ex.msod)
            }
            // The journaled symbol plane, explained: the capture path
            // commits through the same journal-first hook. (`crash`
            // stays on the plain path so both are swept.)
            Variant::Persistent { svc, .. } => {
                let (outcome, ex) = svc.decide_explained(req);
                (project(&outcome), ex.msod)
            }
            Variant::Wire { client, .. } => {
                let verdict = client.decide(req).expect("loopback wire decide must answer");
                (project_wire(verdict), None)
            }
            other => (project(&other.decide(req)), None),
        }
    }

    fn purge_scope(&mut self, scope: &ContextName) -> usize {
        let bound = context::BoundContext::from_name(scope.clone())
            .expect("management scope carries no '!'");
        match self {
            Variant::Persistent { svc, .. } => svc.adi().purge(&bound),
            Variant::Crash { svc, .. } => svc.as_ref().expect("open").adi().purge(&bound),
            Variant::Symbolized(svc) => svc.adi().purge(&bound),
            Variant::Wire { client, .. } => client
                .purge_context(WIRE_ADMIN, &role_pool(), &scope.to_string(), 0)
                .expect("authorized wire purge must succeed")
                as usize,
        }
    }

    fn purge_older_than(&mut self, cutoff: u64) -> usize {
        match self {
            Variant::Persistent { svc, .. } => svc.adi().purge_older_than(cutoff),
            Variant::Crash { svc, .. } => {
                svc.as_ref().expect("open").adi().purge_older_than(cutoff)
            }
            Variant::Symbolized(svc) => svc.adi().purge_older_than(cutoff),
            Variant::Wire { client, .. } => client
                .purge_older_than(WIRE_ADMIN, &role_pool(), cutoff, 0)
                .expect("authorized wire purge must succeed")
                as usize,
        }
    }

    fn purge_all(&mut self) -> usize {
        fn clear_sharded<A: RetainedAdi + 'static>(svc: &DecisionService<A>) -> usize {
            svc.adi().with_exclusive(|view| {
                let n = view.len();
                view.clear();
                n
            })
        }
        match self {
            Variant::Persistent { svc, .. } => clear_sharded(svc),
            Variant::Crash { svc, .. } => clear_sharded(svc.as_ref().expect("open")),
            Variant::Symbolized(svc) => clear_sharded(svc),
            Variant::Wire { client, .. } => client
                .purge_all(WIRE_ADMIN, &role_pool(), 0)
                .expect("authorized wire purge must succeed")
                as usize,
        }
    }

    fn snapshot(&mut self) -> Vec<AdiRecord> {
        let mut snap = match self {
            Variant::Persistent { svc, .. } => svc.adi().snapshot(),
            Variant::Crash { svc, .. } => svc.as_ref().expect("open").adi().snapshot(),
            Variant::Symbolized(svc) => svc.adi().snapshot(),
            Variant::Wire { client, .. } => client
                .inspect(WIRE_ADMIN, &role_pool(), None, 0)
                .expect("authorized wire inspect must succeed"),
        };
        sort_snapshot(&mut snap);
        snap
    }

    /// The crash variant's mid-sequence power cut: sync every shard
    /// journal, drop the service, cut power (the synced prefixes
    /// survive), and reopen through the recovery path. On even seeds
    /// the surviving journals are first downgraded to string-era (v1)
    /// frames, so reopening also exercises the frame-format migration.
    /// Other variants no-op.
    fn power_cycle(&mut self, policy: &PdpPolicy, seed: u64) {
        if let Variant::Crash { svc, vfs, shards } = self {
            svc.as_ref().expect("open").sync_adi().expect("RAM-disk sync");
            *svc = None; // drop: flush any batched tail before the cut
            vfs.power_cut(seed);
            if seed & 1 == 0 {
                downgrade_shards_to_v1(vfs, *shards);
            }
            let stores = open_persistent_shards(vfs, *shards);
            assert!(
                stores.iter().all(|s| s.recovery().is_clean()),
                "synced journals must recover cleanly after a power cut"
            );
            *svc = Some(persistent_service(policy, stores));
        }
    }
}

/// The oracle's complete replay of one workload, op by op: a rendered
/// verdict line per operation plus the canonical (sorted) retained-ADI
/// snapshot *after* that operation committed.
///
/// This is the reference stream a replicated deployment must converge
/// to: a replication simulator can hand the same workload to N
/// replicas under arbitrary fault schedules and then compare each
/// replica's verdict history and final state against this trace —
/// `verdicts[i]`/`snapshots[i]` is the ground truth after command `i`,
/// so prefixes (a replica recovered mid-log) are checkable too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleTrace {
    /// One rendered verdict per op: the `Debug` form of the projected
    /// [`Verdict`] for decides, `"purged N"` for management purges.
    pub verdicts: Vec<String>,
    /// The sorted retained-ADI snapshot after each op.
    pub snapshots: Vec<Vec<AdiRecord>>,
}

/// Replay `w` through a faithful [`Oracle`] alone (no engine variants)
/// and record the [`OracleTrace`]: the expected verdict line and
/// post-op snapshot at every step.
pub fn oracle_trace(w: &Workload) -> OracleTrace {
    let mut oracle = Oracle::new(w.policies.clone());
    let mut verdicts = Vec::with_capacity(w.ops.len());
    let mut snapshots = Vec::with_capacity(w.ops.len());
    for op in &w.ops {
        let line = match op {
            Op::Decide { user, roles, operation, target, context, timestamp } => {
                let v = oracle.decide(&OracleRequest {
                    user: user.clone(),
                    roles: roles.clone(),
                    operation: operation.clone(),
                    target: target.clone(),
                    context: context.clone(),
                    timestamp: *timestamp,
                });
                format!("{v:?}")
            }
            Op::PurgeContext(scope) => format!("purged {}", oracle.purge_scope(scope)),
            Op::PurgeOlderThan(cutoff) => format!("purged {}", oracle.purge_older_than(*cutoff)),
            Op::PurgeAll => format!("purged {}", oracle.purge_all()),
        };
        verdicts.push(line);
        snapshots.push(oracle.snapshot());
    }
    OracleTrace { verdicts, snapshots }
}

fn render_snapshot(records: &[AdiRecord]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{} {} {}@{} [{}] roles={:?}",
                r.timestamp, r.user, r.operation, r.target, r.context, r.roles
            )
        })
        .collect();
    format!("{} record(s)\n    {}", records.len(), lines.join("\n    "))
}

/// Replay `w` through every variant against a faithful oracle.
pub fn run_workload(w: &Workload) -> Option<Divergence> {
    run_workload_with(w, Mutation::None)
}

/// Replay `w` against an oracle carrying `mutation` — with a mutation
/// other than [`Mutation::None`] a healthy harness should *find* a
/// divergence on most workloads that exercise the mutated rule.
pub fn run_workload_with(w: &Workload, mutation: Mutation) -> Option<Divergence> {
    let policy = wrap_policy(w);
    let mut oracle = Oracle::with_mutation(w.policies.clone(), mutation);

    let persist_vfs = FaultVfs::default();
    let crash_vfs = FaultVfs::default();
    let mut variants = vec![
        Variant::Persistent {
            svc: persistent_service(&policy, open_persistent_shards(&persist_vfs, w.shards)),
            _vfs: persist_vfs,
        },
        Variant::Crash {
            svc: Some(persistent_service(&policy, open_persistent_shards(&crash_vfs, w.shards))),
            vfs: crash_vfs,
            shards: w.shards,
        },
        Variant::Symbolized(DecisionService::symbolized_with_shard_count(
            policy.clone(),
            TRAIL_KEY.to_vec(),
            w.shards,
        )),
    ];
    {
        // The wire variant: a second symbolized service behind a real
        // loopback server, every operation crossing the binary
        // protocol. One worker thread keeps per-workload thread churn
        // minimal across large sweeps.
        let wire_svc = Arc::new(DecisionService::symbolized_with_shard_count(
            policy.clone(),
            TRAIL_KEY.to_vec(),
            w.shards,
        ));
        let server = NetServer::bind(
            "127.0.0.1:0",
            wire_svc,
            NetConfig { workers: 1, ..NetConfig::default() },
        )
        .expect("loopback server must bind");
        let client = NetClient::connect(&server.local_addr().to_string())
            .expect("loopback client must connect");
        variants.push(Variant::Wire { client, _server: server });
    }

    for (i, op) in w.ops.iter().enumerate() {
        if w.crash_at == Some(i) {
            for v in &mut variants {
                // The power-cut seed is arbitrary but fixed: after a
                // sync the journals have no unsynced tail to tear.
                v.power_cycle(&policy, 0xC0FFEE ^ i as u64);
            }
        }

        // The oracle first.
        enum Expected {
            Verdict(Verdict, Box<DecisionRequest>),
            Purged(usize),
        }
        let mut expected_explanation: Option<msod::MsodExplanation> = None;
        let expected = match op {
            Op::Decide { user, roles, operation, target, context, timestamp } => {
                let req = DecisionRequest::with_roles(
                    user.clone(),
                    roles.clone(),
                    operation.clone(),
                    target.clone(),
                    context.clone(),
                    *timestamp,
                );
                let oreq = oracle_request(&req);
                // Derive the expected explanation against pre-decision
                // state (decide mutates the records). Faithful oracles
                // only: a mutated oracle's verdicts are deliberately
                // wrong, and the explanation check would just re-report
                // the verdict divergence with more words.
                if mutation == Mutation::None {
                    expected_explanation = Some(oracle.explain(&oreq));
                }
                Expected::Verdict(oracle.decide(&oreq), Box::new(req))
            }
            Op::PurgeContext(scope) => Expected::Purged(oracle.purge_scope(scope)),
            Op::PurgeOlderThan(cutoff) => Expected::Purged(oracle.purge_older_than(*cutoff)),
            Op::PurgeAll => Expected::Purged(oracle.purge_all()),
        };
        let oracle_snap = oracle.snapshot();

        // Then every variant, each compared to the oracle.
        for v in &mut variants {
            match &expected {
                Expected::Verdict(want, req) => {
                    let (got, got_explanation) = v.decide_verdict(req);
                    if got != *want {
                        return Some(Divergence {
                            op_index: i,
                            variant: v.name(),
                            check: "verdict",
                            expected: format!("{want:?}"),
                            actual: format!("{got:?}"),
                        });
                    }
                    // Same verdict, same *reasons*: diff the full §4.2
                    // derivation where the variant produced one (the
                    // capture compiles out under obs-off, where
                    // `got_explanation` is always `None`).
                    if let (Some(want_ex), Some(got_ex)) = (&expected_explanation, &got_explanation)
                    {
                        if got_ex != want_ex {
                            return Some(Divergence {
                                op_index: i,
                                variant: v.name(),
                                check: "explanation",
                                expected: format!("{want_ex:?}"),
                                actual: format!("{got_ex:?}"),
                            });
                        }
                    }
                }
                Expected::Purged(want) => {
                    let got = match op {
                        Op::PurgeContext(scope) => v.purge_scope(scope),
                        Op::PurgeOlderThan(cutoff) => v.purge_older_than(*cutoff),
                        Op::PurgeAll => v.purge_all(),
                        Op::Decide { .. } => {
                            unreachable!("Purged expectation only arises from purge ops")
                        }
                    };
                    if got != *want {
                        return Some(Divergence {
                            op_index: i,
                            variant: v.name(),
                            check: "purge-count",
                            expected: want.to_string(),
                            actual: got.to_string(),
                        });
                    }
                }
            }

            let snap = v.snapshot();
            if snap != oracle_snap {
                return Some(Divergence {
                    op_index: i,
                    variant: v.name(),
                    check: "state",
                    expected: render_snapshot(&oracle_snap),
                    actual: render_snapshot(&snap),
                });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;

    #[test]
    fn faithful_oracle_agrees_on_a_seed_batch() {
        for seed in 0..25 {
            let w = generate(seed);
            if let Some(d) = run_workload(&w) {
                panic!("seed {seed} diverged:\n{d}");
            }
        }
    }

    #[test]
    fn oracle_trace_is_deterministic_and_op_aligned() {
        let w = generate(7);
        let a = oracle_trace(&w);
        let b = oracle_trace(&w);
        assert_eq!(a, b, "same workload must yield byte-identical traces");
        assert_eq!(a.verdicts.len(), w.ops.len());
        assert_eq!(a.snapshots.len(), w.ops.len());
        // Purge lines render as counts; decide lines as Verdict debug.
        for (op, line) in w.ops.iter().zip(&a.verdicts) {
            match op {
                Op::Decide { .. } => assert!(!line.starts_with("purged ")),
                _ => assert!(line.starts_with("purged ")),
            }
        }
    }

    #[test]
    fn mutated_oracle_disagrees_somewhere() {
        let mut found = 0;
        for seed in 0..60 {
            let w = generate(seed);
            if run_workload_with(&w, Mutation::MmerThresholdOffByOne).is_some() {
                found += 1;
            }
        }
        assert!(found > 0, "an off-by-one MMER threshold must be visible to the harness");
    }
}
