//! The decision service: the one PERMIS CVS/PDP pipeline (paper §5,
//! Figure 4) — subject domain → CVS → RBAC → MSoD → audit — over one
//! retained-ADI store.
//!
//! [`DecisionService`] keeps two planes so callers never serialise
//! every decision behind one lock:
//!
//! - **Read plane** — the immutable decision inputs (parsed policy,
//!   CVS trust anchors, directory snapshot, compiled MSoD engines) live
//!   in an [`Arc<DecisionCore>`]. [`DecisionService::decide`] borrows
//!   the current core through a brief `RwLock` read (an `Arc` clone)
//!   and then runs the whole pipeline without holding any service-wide
//!   lock. Mutations (`set_policy`, `register_authority_key`, …) build
//!   a fresh core and swap the `Arc` atomically — in-flight decisions
//!   keep the core they started with.
//! - **Write plane** — retained ADI lives in a [`msod::ShardedAdi`]
//!   keyed by user: check under the requesting user's shard lock,
//!   commit on grant, with a short global epoch write lock only for
//!   cross-user operations (last-step terminations, management purges,
//!   recovery). The audit trail sits behind its own mutex so its HMAC
//!   chain stays strictly ordered.
//!
//! One pipeline serves every deployment. The shards keep a symbolized
//! index over one shared `SymbolTable` — the in-memory
//! [`DecisionService::new_symbolized`] *and* the journaled
//! [`DecisionService::open_persistent`] — so requests are interned once
//! at the boundary and the compiled [`SymEngine`] decides on symbols,
//! reading each shard's index and committing through the
//! [`RetainedAdi::sym_index`] / [`RetainedAdi::commit_sym`] seam (for a
//! durable shard: journal frame first, index second). Durability, the
//! management port (§4.3) and start-up recovery (§5.2) are layers of
//! this pipeline, not second copies of it. The MSoD stage is one call,
//! [`msod::dispatch`], for every store: the string engine serves what
//! the fast path declines (last steps, oversize requests, policy sets
//! the compiler refuses) and stores that keep no symbol index — the
//! reference `MemoryAdi` the tests compare against. Symbolized shards
//! that do not share one table are refused at assembly
//! ([`DecisionService::from_shards`]).

use std::sync::Arc;

use audit::{AuditError, AuditEvent, AuditTrail, TrailStore};
use credential::{AttributeCredential, CredentialValidationService, Directory};
use msod::{
    sharded_sym_adi, AdiRecord, ConstraintKind, EngineOptions, MsodDecision, MsodEngine,
    MsodExplanation, MsodRequest, MsodScratch, RetainedAdi, RoleRef, ShardedAdi, SymAdi, SymEngine,
};
use obs::{PromWriter, Stopwatch};
use parking_lot::{Mutex, RwLock};
use policy::{parse_rbac_policy, PdpPolicy, PolicyError};
use symtab::SymbolTable;

use crate::explain::Explanation;
use crate::front_end::{encode_role, validate_front_end};
use crate::metrics::{DecideMetrics, DecisionTrace, FlightEntry, MetricFrame};
use crate::mgmt::{ManagementOp, MGMT_TARGET};
use crate::recovery::{apply_recovered_record, RecoveryReport};
use crate::request::{Credentials, DecisionOutcome, DecisionRequest, DenyReason};

/// The immutable inputs one decision evaluates against. Swapped as a
/// whole on any policy/trust mutation, so a decision always sees one
/// consistent configuration.
#[derive(Debug, Clone)]
pub struct DecisionCore {
    policy: PdpPolicy,
    cvs: CredentialValidationService,
    directory: Directory,
    engine: MsodEngine,
    /// The symbolized MSoD engine, compiled against the service's
    /// symbol table on symbolized services (`None` otherwise, or when
    /// the policy set exceeds the fast path's fixed bounds — the
    /// string engine then handles every request).
    sym: Option<SymEngine>,
}

impl DecisionCore {
    fn from_policy(policy: PdpPolicy, table: Option<&SymbolTable>) -> Self {
        let mut cvs = CredentialValidationService::new();
        for soa in &policy.trusted_soas {
            cvs.trust(soa.clone());
        }
        let engine = MsodEngine::new(policy.msod.clone());
        let sym =
            table.and_then(|t| SymEngine::compile(engine.policies(), &EngineOptions::default(), t));
        DecisionCore { policy, cvs, directory: Directory::new(), engine, sym }
    }

    /// The loaded policy.
    pub fn policy(&self) -> &PdpPolicy {
        &self.policy
    }

    /// The compiled MSoD engine.
    pub fn engine(&self) -> &MsodEngine {
        &self.engine
    }

    /// The compiled symbolized engine, when this core has one.
    pub fn sym_engine(&self) -> Option<&SymEngine> {
        self.sym.as_ref()
    }
}

/// The audit trail plus its persistence store — one mutex, so event
/// sequence numbers (and the HMAC chain) are assigned strictly in
/// append order.
struct AuditPlane {
    trail: AuditTrail,
    store: Option<TrailStore>,
}

/// Capture slot `decide_impl` fills when the caller wants the verdict
/// explained: the MSoD derivation (when the request reached the MSoD
/// stage) and which engine produced it.
#[derive(Default)]
struct ExplainSlot {
    msod: Option<MsodExplanation>,
    engine: &'static str,
}

/// Which replication role a [`DecisionService`] is currently playing.
///
/// Decisions and management operations mutate the retained ADI, so in
/// a replicated deployment only the lease-holding primary may take
/// them first-hand; replicas apply the primary's command log through
/// [`DecisionService::apply_decide`] (and the direct
/// [`DecisionService::adi`] plane) and serve reads tagged with their
/// apply epoch. A standalone service is simply a permanent
/// [`ReplicaRole::Primary`] — the default, so nothing changes for
/// non-replicated embedders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Serves decides and management mutations.
    Primary,
    /// Rejects first-hand mutation with [`DenyReason::NotPrimary`];
    /// state advances only by applying the replicated command log.
    Replica,
}

/// The two-plane PDP. All methods take `&self`; share it between
/// threads with a plain [`Arc`].
pub struct DecisionService<A: RetainedAdi = SymAdi> {
    core: RwLock<Arc<DecisionCore>>,
    adi: ShardedAdi<A>,
    audit: Mutex<AuditPlane>,
    trail_key: Vec<u8>,
    /// The append-only symbol table shared by the shards' symbol
    /// indexes and every compiled [`SymEngine`] — or, for a store that
    /// keeps no symbol index, a private one that only the flight
    /// recorder interns into. Policy swaps recompile against the same
    /// table, so symbols stay stable for the life of the service.
    sym_table: Arc<SymbolTable>,
    /// Whether the shards index symbols through `sym_table` (checked
    /// once at assembly, [`ShardedAdi::sym_table`]), so cores compile
    /// a [`SymEngine`]. `false`: the string engine serves every decide.
    symbolized: bool,
    /// `false` = primary (the default), `true` = replica. An atomic,
    /// not a lock: role flips (lease grant/expiry) race benignly with
    /// in-flight decides exactly as they would across the network.
    is_replica: std::sync::atomic::AtomicBool,
    /// How many replicated commands this service has fully applied —
    /// functional state (stale-read tagging), not telemetry, so it
    /// must survive `obs-off`.
    apply_epoch: std::sync::atomic::AtomicU64,
    metrics: DecideMetrics,
}

impl<A: RetainedAdi> std::fmt::Debug for DecisionService<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.core.read();
        f.debug_struct("DecisionService")
            .field("policy", &core.policy.id)
            .field("adi_shards", &self.adi.shard_count())
            .field("engine", &if core.sym.is_some() { "sym" } else { "string" })
            .field("audit_records", &self.audit.lock().trail.len())
            .finish()
    }
}

impl DecisionService<SymAdi> {
    /// Fully symbolized service: requests are interned once at the
    /// boundary and the whole §4.2 pipeline — engine, trie index,
    /// sharded store — runs on dense `u32` symbols, allocation-free on
    /// the warm path. Decisions are identical to the string engine's
    /// (the symbolized engine falls back to it per-request where the
    /// fast path does not apply).
    pub fn new_symbolized(policy: PdpPolicy, trail_key: impl Into<Vec<u8>>) -> Self {
        DecisionService::symbolized_with_shard_count(policy, trail_key, msod::DEFAULT_SHARDS)
    }

    /// Symbolized service with `shards` shards (clamped to at least 1).
    pub fn symbolized_with_shard_count(
        policy: PdpPolicy,
        trail_key: impl Into<Vec<u8>>,
        shards: usize,
    ) -> Self {
        let table = Arc::new(SymbolTable::new());
        DecisionService::from_shards(policy, trail_key, sharded_sym_adi(&table, shards))
    }

    /// Parse an `<RBACPolicy>` document and build a symbolized service.
    pub fn from_xml_symbolized(
        xml: &str,
        trail_key: impl Into<Vec<u8>>,
    ) -> Result<Self, PolicyError> {
        Ok(DecisionService::new_symbolized(parse_rbac_policy(xml)?, trail_key))
    }
}

impl<A: RetainedAdi + Default + 'static> DecisionService<A> {
    /// Service with `shards` empty ADI shards (clamped to at least 1).
    pub fn with_shard_count(
        policy: PdpPolicy,
        trail_key: impl Into<Vec<u8>>,
        shards: usize,
    ) -> Self {
        DecisionService::from_shards(policy, trail_key, ShardedAdi::new(shards))
    }
}

impl DecisionService<storage::PersistentAdi> {
    /// Durable service: one journaled [`storage::PersistentAdi`] per
    /// shard, stored as `adi-shard-{i}.log` under `dir` (created if
    /// absent). `shards` is clamped to at least 1 and must stay stable
    /// across restarts — records are sharded by user.
    ///
    /// Every shard is opened against one fresh symbol table (journal
    /// replay interns straight into it), so the service runs the same
    /// compiled [`SymEngine`] as [`DecisionService::new_symbolized`];
    /// a grant's record is journaled before it enters the index.
    ///
    /// Crash recovery is surfaced, never silent: the per-shard
    /// [`storage::RecoveryReport`]s are returned for the caller to
    /// inspect, and every non-clean recovery (truncated bytes, dropped
    /// frames, a stale compaction temp) is additionally recorded in
    /// the audit trail as a note — losing retained ADI is a
    /// security-relevant event, not just an I/O hiccup.
    pub fn open_persistent(
        policy: PdpPolicy,
        trail_key: impl Into<Vec<u8>>,
        dir: impl AsRef<std::path::Path>,
        shards: usize,
    ) -> Result<(Self, Vec<storage::RecoveryReport>), storage::StorageError> {
        let dir = dir.as_ref();
        let table = Arc::new(SymbolTable::new());
        let vfs: Arc<dyn storage::Vfs> = Arc::new(storage::StdVfs);
        let mut stores = Vec::with_capacity(shards.max(1));
        let mut reports = Vec::with_capacity(shards.max(1));
        for i in 0..shards.max(1) {
            let adi = storage::PersistentAdi::open_with_table(
                Arc::clone(&vfs),
                &dir.join(format!("adi-shard-{i}.log")),
                Arc::clone(&table),
            )?;
            reports.push(adi.recovery().clone());
            stores.push(adi);
        }
        let service =
            DecisionService::from_shards(policy, trail_key, ShardedAdi::from_shards(stores));
        service.set_flight_dir(Some(dir.join("flightrec")));
        {
            let mut audit = service.audit.lock();
            for (i, report) in reports.iter().enumerate() {
                if !report.is_clean() {
                    audit
                        .trail
                        .append(AuditEvent::note(format!("ADI shard {i} recovery: {report}")), 0);
                }
            }
        }
        // A non-clean journal recovery is exactly the moment the black
        // box exists for: snapshot it before new traffic dilutes it.
        if reports.iter().any(|r| !r.is_clean()) {
            service.fire_flight("recovery_nonclean");
        }
        Ok((service, reports))
    }

    /// Flush and fsync every shard's journal, surfacing the first
    /// latched I/O error. Call at the durability points that must
    /// survive a crash (the decision path itself journals every grant
    /// but leaves fsync policy to the embedder).
    pub fn sync_adi(&self) -> Result<(), storage::StorageError> {
        let mut needs_rewrite = false;
        for i in 0..self.adi.shard_count() {
            self.adi.with_shard(i, |shard| {
                needs_rewrite |= shard.journal_needs_rewrite();
                shard.sync()
            })?;
        }
        if needs_rewrite {
            self.fire_flight("journal_needs_rewrite");
        }
        Ok(())
    }
}

impl<A: RetainedAdi + 'static> DecisionService<A> {
    /// Service over a pre-built sharded store (e.g. one
    /// `storage::PersistentAdi` per shard).
    ///
    /// Shards whose symbol indexes share one table get the compiled
    /// [`SymEngine`]; a store that keeps no symbol index (the reference
    /// `MemoryAdi`) is decided on the string engine, and the service
    /// owns a private table for it.
    ///
    /// # Panics
    ///
    /// If the shards' symbol indexes intern through different tables
    /// ([`ShardedAdi::sym_table`]) — e.g. durable shards each opened
    /// standalone instead of against one table. No engine could run
    /// over them soundly, so the store is refused rather than served
    /// slowly on the string engine.
    pub fn from_shards(
        policy: PdpPolicy,
        trail_key: impl Into<Vec<u8>>,
        adi: ShardedAdi<A>,
    ) -> Self {
        let trail_key = trail_key.into();
        let shared = adi.sym_table();
        let symbolized = shared.is_some();
        let sym_table = shared.unwrap_or_default();
        let core = DecisionCore::from_policy(policy, symbolized.then_some(&*sym_table));
        DecisionService {
            core: RwLock::new(Arc::new(core)),
            adi,
            audit: Mutex::new(AuditPlane {
                trail: AuditTrail::new(trail_key.clone()),
                store: None,
            }),
            trail_key,
            sym_table,
            symbolized,
            is_replica: std::sync::atomic::AtomicBool::new(false),
            apply_epoch: std::sync::atomic::AtomicU64::new(0),
            metrics: DecideMetrics::default(),
        }
    }

    /// The current decision core. Cheap (`Arc` clone under a brief read
    /// lock); the snapshot stays valid however the service mutates.
    pub fn core(&self) -> Arc<DecisionCore> {
        Arc::clone(&self.core.read())
    }

    /// The sharded retained-ADI write plane.
    pub fn adi(&self) -> &ShardedAdi<A> {
        &self.adi
    }

    /// The symbol table this service interns through: the one its ADI
    /// shards and compiled engine share, or its private table when the
    /// store keeps no symbol index.
    pub fn symbol_table(&self) -> &Arc<SymbolTable> {
        &self.sym_table
    }

    /// The table cores compile a [`SymEngine`] against; `None` when the
    /// store keeps no symbol index.
    fn engine_table(&self) -> Option<&SymbolTable> {
        self.symbolized.then_some(&*self.sym_table)
    }

    /// Replace the policy (PDP re-initialisation): rebuilds the CVS
    /// trust anchors and the MSoD engine, keeps the directory. The
    /// retained ADI is kept; run [`DecisionService::recover`] to
    /// re-filter history against the new policy set.
    pub fn set_policy(&self, policy: PdpPolicy) {
        let mut core = self.core.write();
        let mut next = DecisionCore::from_policy(policy, self.engine_table());
        next.directory = core.directory.clone();
        *core = Arc::new(next);
    }

    /// Register an authority's verification key with the CVS.
    pub fn register_authority_key(&self, issuer: impl Into<String>, key: impl Into<Vec<u8>>) {
        self.mutate_core(|core| core.cvs.register_key(issuer, key));
    }

    /// Import a revocation for the CVS.
    pub fn revoke_credential(&self, issuer: impl Into<String>, serial: u64) {
        self.mutate_core(|core| core.cvs.revoke(issuer, serial));
    }

    /// Publish a credential into the pull-mode directory.
    pub fn publish_credential(&self, credential: AttributeCredential) {
        self.mutate_core(|core| core.directory.publish(credential));
    }

    /// Replace the MSoD engine options (ablations, strict first-step
    /// mode) while keeping the compiled policy set.
    pub fn set_engine_options(&self, options: EngineOptions) {
        self.mutate_core(|core| {
            core.sym = self
                .engine_table()
                .and_then(|t| SymEngine::compile(core.engine.policies(), &options, t));
            core.engine = MsodEngine::with_options(core.engine.policies().clone(), options);
        });
    }

    /// Clone-and-swap: copy the current core, let `f` mutate the copy,
    /// publish it atomically. In-flight decisions keep the old `Arc`.
    fn mutate_core(&self, f: impl FnOnce(&mut DecisionCore)) {
        let mut core = self.core.write();
        let mut next = (**core).clone();
        f(&mut next);
        *core = Arc::new(next);
    }

    /// The decision-plane telemetry (counters, phase histograms, the
    /// decision-trace ring).
    pub fn metrics(&self) -> &DecideMetrics {
        &self.metrics
    }

    /// Recent decision traces, oldest first — denies always, grants
    /// when enabled via [`DecideMetrics::set_trace_grants`].
    pub fn recent_traces(&self) -> Vec<DecisionTrace> {
        self.metrics.recent_traces()
    }

    /// Render every layer's telemetry as one Prometheus text document:
    /// decision-plane counters and phase latencies, per-shard ADI lock
    /// contention (plus each shard backend's own metrics, e.g. the
    /// persistent journal's), and the audit trail's counters.
    pub fn metrics_text(&self) -> String {
        let mut w = PromWriter::new();
        self.metrics.export(&mut w);
        self.adi.export_metrics(&mut w);
        self.audit.lock().trail.export_metrics(&mut w);
        crate::metrics::export_symtab(&mut w, &self.sym_table);
        w.finish()
    }

    /// Run `f` over the live audit trail (read-only).
    pub fn with_trail<R>(&self, f: impl FnOnce(&AuditTrail) -> R) -> R {
        f(&self.audit.lock().trail)
    }

    /// Attach a directory-backed trail store for persistence/recovery.
    pub fn attach_store(&self, store: TrailStore) {
        self.audit.lock().store = Some(store);
    }

    /// Seal the open audit segment and persist it to the attached store.
    pub fn rotate_and_persist(&self) -> Result<Option<usize>, AuditError> {
        let mut audit = self.audit.lock();
        let Some(idx) = audit.trail.rotate() else {
            return Ok(None);
        };
        if let Some(store) = &audit.store {
            store.save_segment(idx, &audit.trail.segments()[idx])?;
        }
        Ok(Some(idx))
    }

    /// The §4/§5 decision pipeline — subject domain → CVS → RBAC →
    /// MSoD — without any service-wide lock. The front end runs against
    /// an immutable core snapshot; the MSoD stage locks only the
    /// requesting user's ADI shard (plus the shared epoch); the audit
    /// append serialises on the audit mutex alone.
    ///
    /// Each phase is timed into [`DecideMetrics`], and the finished
    /// decision lands in the trace ring (denies always; grants after
    /// [`DecideMetrics::set_trace_grants`]).
    pub fn decide(&self, req: &DecisionRequest) -> DecisionOutcome {
        if self.replica_role() == ReplicaRole::Replica {
            return self.not_primary_deny();
        }
        self.apply_decide(req)
    }

    /// [`DecisionService::decide`] without the primary-only gate: the
    /// replication apply path. A replica applying the shared command
    /// log runs each replicated decision through this — the full §4/§5
    /// pipeline, retained-ADI mutation and audit append included — so
    /// its state tracks the primary's byte for byte. Never expose this
    /// to clients: it is for log application, where the command was
    /// already admitted by the primary that logged it.
    pub fn apply_decide(&self, req: &DecisionRequest) -> DecisionOutcome {
        if self.metrics.capture_explanations() {
            let (outcome, explanation) = self.decide_explained_impl(req);
            self.metrics.record_explanation(explanation);
            return outcome;
        }
        let core = self.core();
        self.decide_impl(&core, req, None, &mut MsodScratch::default())
    }

    /// This service's replication role. [`ReplicaRole::Primary`]
    /// unless [`DecisionService::set_replica_role`] demoted it.
    pub fn replica_role(&self) -> ReplicaRole {
        if self.is_replica.load(std::sync::atomic::Ordering::Acquire) {
            ReplicaRole::Replica
        } else {
            ReplicaRole::Primary
        }
    }

    /// Flip the replication role (lease granted: promote; lease
    /// expired or lost: demote). In-flight decides that already passed
    /// the gate complete under the old role — the same window a
    /// network deployment has between losing a lease and the last
    /// in-flight request draining.
    pub fn set_replica_role(&self, role: ReplicaRole) {
        self.is_replica.store(role == ReplicaRole::Replica, std::sync::atomic::Ordering::Release);
    }

    /// How many replicated commands this service has fully applied.
    /// Read replicas tag review/metrics responses with this so callers
    /// can tell fresh from stale.
    pub fn apply_epoch(&self) -> u64 {
        self.apply_epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Publish the apply epoch after applying a replicated command
    /// (also counts the apply and mirrors the epoch into the metrics).
    pub fn set_apply_epoch(&self, epoch: u64) {
        self.apply_epoch.store(epoch, std::sync::atomic::Ordering::Release);
        self.metrics.applies.inc();
        self.metrics.apply_epoch.set(epoch);
    }

    fn not_primary_deny(&self) -> DecisionOutcome {
        self.metrics.not_primary_denies.inc();
        DecisionOutcome::Deny { roles: Vec::new(), reason: DenyReason::NotPrimary }
    }

    /// Decide a batch of requests in order, returning one outcome per
    /// request. Semantically identical to calling
    /// [`DecisionService::decide`] sequentially — including the case
    /// where an earlier grant in the batch changes a later same-user
    /// MMER/MMEP verdict — but the core snapshot is taken once for the
    /// whole batch and the symbol plane's admission buffers are reused
    /// across it, so policy swaps mid-batch are not observed and the
    /// per-request setup cost is amortised. (A concurrent `set_policy`
    /// lands between batches, exactly as it lands between sequential
    /// decides that already hold their core `Arc`.)
    pub fn decide_many(&self, reqs: &[DecisionRequest]) -> Vec<DecisionOutcome> {
        self.metrics.record_batch(reqs.len() as u64);
        if self.replica_role() == ReplicaRole::Replica {
            // One role check gates the whole batch: a batch is one
            // routed message, so it denies as one.
            return reqs.iter().map(|_| self.not_primary_deny()).collect();
        }
        if self.metrics.capture_explanations() {
            // The capture path builds per-request explanations; batch
            // amortisation would complicate it for no throughput win
            // (capture is a diagnostic mode).
            return reqs.iter().map(|r| self.decide(r)).collect();
        }
        let core = self.core();
        let mut scratch = MsodScratch::default();
        reqs.iter().map(|req| self.decide_impl(&core, req, None, &mut scratch)).collect()
    }

    /// [`DecisionService::decide`], but also return the full §4.2
    /// derivation as a typed [`Explanation`]: matched scopes, `!`
    /// bindings, per-constraint multiset arithmetic with the retained
    /// records that carried it. The explanation is derived against
    /// exactly the pre-decision state the verdict itself saw (on the
    /// string path both run under the exclusive epoch lock; on the
    /// symbol plane the capture rides the enforcement pass).
    ///
    /// Under `obs-off` the verdict is unchanged and `msod` is `None` —
    /// explanation capture compiles out with the rest of the
    /// observability plane.
    pub fn decide_explained(&self, req: &DecisionRequest) -> (DecisionOutcome, Explanation) {
        if self.replica_role() == ReplicaRole::Replica {
            let outcome = self.not_primary_deny();
            let explanation = Explanation::from_outcome(req, &outcome, None, "replica_gate");
            return (outcome, explanation);
        }
        self.decide_explained_impl(req)
    }

    fn decide_explained_impl(&self, req: &DecisionRequest) -> (DecisionOutcome, Explanation) {
        let mut slot = ExplainSlot::default();
        let core = self.core();
        let mut scratch = MsodScratch::default();
        let outcome = if obs::enabled() {
            self.decide_impl(&core, req, Some(&mut slot), &mut scratch)
        } else {
            self.decide_impl(&core, req, None, &mut scratch)
        };
        let engine = if slot.engine.is_empty() { "front_end" } else { slot.engine };
        let explanation = Explanation::from_outcome(req, &outcome, slot.msod, engine);
        (outcome, explanation)
    }

    fn decide_impl(
        &self,
        core: &DecisionCore,
        req: &DecisionRequest,
        explain: Option<&mut ExplainSlot>,
        scratch: &mut MsodScratch,
    ) -> DecisionOutcome {
        // One stopwatch, checkpoint deltas between phases — taken only
        // on sampled decisions. At microsecond decide latency the
        // ~35 ns clock reads are themselves a measurable cost, so the
        // steady state is a single read (the stopwatch start, needed in
        // case the verdict ends up traced); the end checkpoint fires
        // when the decision is sampled or traced, and the three phase
        // checkpoints only on every
        // [`PHASE_SAMPLE`](crate::metrics::PHASE_SAMPLE)-th decision.
        let sample = self.metrics.phase_sampler.tick(crate::metrics::PHASE_SAMPLE);
        let clock = Stopwatch::start();

        // Phase 1: credential validation (subject domain, CVS, RBAC).
        let front = validate_front_end(&core.policy, &core.cvs, &core.directory, req);
        let t_front = if sample {
            let t = clock.elapsed_ns();
            self.metrics.front_end_ns.record(t);
            t
        } else {
            0
        };

        // Black-box facts gathered along the way for the sampled
        // flight-recorder entry.
        let mut fell_back = false;
        let (outcome, t_pre_audit) = match front {
            Err((roles, reason)) => (self.deny(req, roles, reason), t_front),
            Ok(roles) => {
                let msod_req = MsodRequest {
                    user: &req.subject,
                    roles: &roles,
                    operation: &req.operation,
                    target: &req.target,
                    context: &req.context,
                    timestamp: req.timestamp,
                };

                // Phase 2: context match + §4.2 enforcement, one
                // dispatch whatever the store. On a symbolized service
                // (in memory or journaled) the request is interned once
                // and matched and decided on dense symbols; the string
                // engine takes what the fast path declines.
                let msod = msod::dispatch(
                    &core.engine,
                    core.sym.as_ref(),
                    &self.sym_table,
                    &self.adi,
                    &msod_req,
                    scratch,
                    explain.is_some(),
                );
                fell_back = msod.path.fell_back;
                if fell_back {
                    self.metrics.sym_fallbacks.inc();
                }
                if msod.path.overflow {
                    self.metrics.reqbuf_overflows.inc();
                    self.fire_flight("sym_fallback_overflow");
                }
                if let Some(slot) = explain {
                    slot.msod = msod.explanation;
                    slot.engine = if fell_back { "string" } else { "sym" };
                }
                let t_msod = if sample {
                    let t = clock.elapsed_ns();
                    self.metrics.msod_ns.record(t - t_front);
                    t
                } else {
                    0
                };

                // Phase 3: the audit append inside grant/deny.
                let outcome = match msod.decision {
                    MsodDecision::NotApplicable => self.grant(req, roles, None),
                    MsodDecision::Grant(detail) => self.grant(req, roles, Some(detail)),
                    MsodDecision::Deny(detail) => self.deny(req, roles, DenyReason::Msod(detail)),
                };
                (outcome, t_msod)
            }
        };
        let traced = self.metrics.should_trace(outcome.is_granted());
        let t_total = if sample || traced { clock.elapsed_ns() } else { 0 };
        if sample {
            self.metrics.decide_ns.record(t_total);
            self.metrics.audit_append_ns.record(t_total - t_pre_audit);
            self.record_flight_entry(req, &outcome, fell_back, t_total, t_front, t_pre_audit);
            if t_total > self.metrics.latency_trigger_ns() {
                self.fire_flight("p999_latency");
            }
        }
        self.finish_decision(req, &outcome, t_total);
        outcome
    }

    /// Record one black-box entry for a sampled decide and refresh the
    /// history window's slowest-decide exemplar.
    fn record_flight_entry(
        &self,
        req: &DecisionRequest,
        outcome: &DecisionOutcome,
        fell_back: bool,
        t_total: u64,
        t_front: u64,
        t_pre_audit: u64,
    ) {
        let records_consulted = match outcome {
            DecisionOutcome::Grant { msod, .. } => msod.as_ref().map_or(0, |d| d.records_consulted),
            DecisionOutcome::Deny { reason: DenyReason::Msod(d), .. } => d.records_consulted,
            DecisionOutcome::Deny { .. } => 0,
        };
        // Identity as a cheap interned symbol, resolved at render time.
        let user_sym = self.sym_table.intern_user(&req.subject).as_u32();
        let shard = self.adi.shard_index(&req.subject);
        let entry = FlightEntry {
            timestamp: req.timestamp,
            user_sym,
            granted: outcome.is_granted(),
            fell_back,
            total_ns: t_total,
            front_ns: t_front,
            msod_ns: t_pre_audit.saturating_sub(t_front),
            records_consulted,
            shard: shard as u32,
            shard_wait_ns: self.adi.metrics().shard(shard).wait_ns.get(),
        };
        let ticket = self.metrics.flight().next_ticket();
        self.metrics.record_flight(entry);
        self.metrics.note_slowest(t_total, ticket, &req.subject);
    }

    /// Fire one flight-recorder trigger: count it always, and (first
    /// time per reason, budget and dump-dir permitting) dump the black
    /// box as a self-contained JSON snapshot with interned user symbols
    /// resolved through the service's symbol table.
    fn fire_flight(&self, reason: &str) {
        self.metrics.flight().trigger(reason, |r, entries| {
            crate::metrics::render_flight_snapshot(r, entries, &self.sym_table)
        });
    }

    /// Fire a flight-recorder trigger on behalf of an embedding layer
    /// (e.g. the network plane's accept-queue-stall detector). Latched
    /// and budgeted exactly like the service's own triggers; a no-op
    /// under `obs-off`.
    pub fn trigger_flight(&self, reason: &str) {
        self.fire_flight(reason);
    }

    /// Where flight-recorder snapshots land; `None` (the default on
    /// non-persistent services) disables dumping while triggers still
    /// count and latch. [`DecisionService::open_persistent`] points
    /// this at `<data-dir>/flightrec` automatically.
    pub fn set_flight_dir(&self, dir: Option<std::path::PathBuf>) {
        self.metrics.flight().set_dump_dir(dir);
    }

    /// Capture one windowed metric frame into the history ring (see
    /// [`DecideMetrics::capture_frame`]). Frame capture is also where
    /// epoch-lock stalls are checked: any stall observed since start
    /// fires the `epoch_stall` flight trigger (latched, so the black
    /// box dumps on the first stall only).
    pub fn capture_metric_frame(&self) -> MetricFrame {
        if self.adi.metrics().epoch_stalls.get() > 0 {
            self.fire_flight("epoch_stall");
        }
        self.metrics.capture_frame()
    }

    /// Count the verdict and retain a [`DecisionTrace`] when this
    /// verdict is traced. (Latency was already recorded by `decide`'s
    /// checkpoints; `elapsed_ns` is 0 for unsampled, untraced
    /// decisions.)
    fn finish_decision(&self, req: &DecisionRequest, outcome: &DecisionOutcome, elapsed_ns: u64) {
        let m = &self.metrics;
        m.decisions.inc();
        let (granted, constraint, reason, records_consulted) = match outcome {
            DecisionOutcome::Grant { msod, .. } => {
                m.grants.inc();
                if !m.should_trace(true) {
                    return;
                }
                (true, None, None, msod.as_ref().map_or(0, |d| d.records_consulted))
            }
            DecisionOutcome::Deny { reason, .. } => {
                m.denies.inc();
                if !m.should_trace(false) {
                    return;
                }
                let (constraint, consulted) = match reason {
                    DenyReason::Msod(d) => (
                        Some(format!(
                            "{} #{} of policy #{}",
                            match d.kind {
                                ConstraintKind::Mmer => "MMER",
                                ConstraintKind::Mmep => "MMEP",
                            },
                            d.constraint_index,
                            d.policy_index
                        )),
                        d.records_consulted,
                    ),
                    _ => (None, 0),
                };
                (false, constraint, Some(reason.to_string()), consulted)
            }
        };
        m.record_trace(DecisionTrace {
            timestamp: req.timestamp,
            user: req.subject.clone(),
            operation: req.operation.clone(),
            target: req.target.clone(),
            context: req.context.to_string(),
            granted,
            constraint,
            reason,
            records_consulted,
            elapsed_ns,
        });
    }

    fn grant(
        &self,
        req: &DecisionRequest,
        roles: Vec<RoleRef>,
        msod: Option<msod::GrantDetail>,
    ) -> DecisionOutcome {
        let mut audit = self.audit.lock();
        if let Some(detail) = &msod {
            for bound in &detail.terminated {
                audit
                    .trail
                    .append(AuditEvent::context_terminated(bound.to_string()), req.timestamp);
            }
        }
        audit.trail.append(
            AuditEvent::grant(
                req.subject.clone(),
                roles.iter().map(encode_role).collect(),
                req.operation.clone(),
                req.target.clone(),
                req.context.to_string(),
                msod.is_some(),
            ),
            req.timestamp,
        );
        DecisionOutcome::Grant { roles, msod }
    }

    fn deny(
        &self,
        req: &DecisionRequest,
        roles: Vec<RoleRef>,
        reason: DenyReason,
    ) -> DecisionOutcome {
        self.audit.lock().trail.append(
            AuditEvent::deny(
                req.subject.clone(),
                roles.iter().map(encode_role).collect(),
                req.operation.clone(),
                req.target.clone(),
                req.context.to_string(),
                reason.to_string(),
            ),
            req.timestamp,
        );
        DecisionOutcome::Deny { roles, reason }
    }

    /// Execute a management operation (§4.3). The caller is authorized
    /// by the PDP's own policy: the operation is evaluated as a normal
    /// decision request on [`MGMT_TARGET`], so only subjects holding a
    /// role the policy allows (conventionally
    /// [`RETAINED_ADI_CONTROLLER`](crate::RETAINED_ADI_CONTROLLER)) get
    /// through. Returns the number of records removed. Cross-user
    /// purges run under the ADI's exclusive epoch lock.
    pub fn manage(
        &self,
        subject: impl Into<String>,
        credentials: Credentials,
        op: ManagementOp,
        timestamp: u64,
    ) -> Result<usize, DenyReason> {
        let req = DecisionRequest {
            subject: subject.into(),
            credentials,
            operation: op.operation_name().to_owned(),
            target: MGMT_TARGET.to_owned(),
            context: context::ContextInstance::root(),
            environment: Vec::new(),
            timestamp,
        };
        let outcome = self.decide(&req);
        if let Some(reason) = outcome.deny_reason() {
            return Err(reason.clone());
        }
        let (removed, event) = match &op {
            ManagementOp::PurgeContext(bound) => (
                self.adi.purge(bound),
                AuditEvent::admin_purge(bound.to_string(), "management purge"),
            ),
            ManagementOp::PurgeOlderThan(cutoff) => (
                self.adi.purge_older_than(*cutoff),
                AuditEvent::admin_purge("", format!("olderThan:{cutoff}")),
            ),
            ManagementOp::PurgeAll => (
                self.adi.with_exclusive(|view| {
                    let n = view.len();
                    view.clear();
                    n
                }),
                AuditEvent::admin_purge("", "purgeAll"),
            ),
        };
        self.audit.lock().trail.append(event, timestamp);
        Ok(removed)
    }

    /// Read-only management: list retained-ADI records, optionally
    /// filtered to one user. Authorized like any other management
    /// operation (operation name `read` on [`MGMT_TARGET`]); the read
    /// itself is audited as a note.
    pub fn inspect(
        &self,
        subject: impl Into<String>,
        credentials: Credentials,
        user_filter: Option<&str>,
        timestamp: u64,
    ) -> Result<Vec<AdiRecord>, DenyReason> {
        let subject = subject.into();
        let req = DecisionRequest {
            subject: subject.clone(),
            credentials,
            operation: "read".to_owned(),
            target: MGMT_TARGET.to_owned(),
            context: context::ContextInstance::root(),
            environment: Vec::new(),
            timestamp,
        };
        let outcome = self.decide(&req);
        if let Some(reason) = outcome.deny_reason() {
            return Err(reason.clone());
        }
        let mut records = self.adi.snapshot();
        if let Some(user) = user_filter {
            records.retain(|r| r.user == user);
        }
        self.audit.lock().trail.append(
            AuditEvent::note(format!(
                "retained-ADI inspected by {subject} ({} record(s){})",
                records.len(),
                user_filter.map(|u| format!(", filter user={u}")).unwrap_or_default()
            )),
            timestamp,
        );
        Ok(records)
    }

    /// Read-only management: export the full metrics document
    /// ([`DecisionService::metrics_text`]), authorized like
    /// [`DecisionService::inspect`] but under the `metrics` operation
    /// on the management target; audited as a note.
    pub fn inspect_metrics(
        &self,
        subject: impl Into<String>,
        credentials: Credentials,
        timestamp: u64,
    ) -> Result<String, DenyReason> {
        let subject = subject.into();
        let req = DecisionRequest {
            subject: subject.clone(),
            credentials,
            operation: "metrics".to_owned(),
            target: MGMT_TARGET.to_owned(),
            context: context::ContextInstance::root(),
            environment: Vec::new(),
            timestamp,
        };
        let outcome = self.decide(&req);
        if let Some(reason) = outcome.deny_reason() {
            return Err(reason.clone());
        }
        let text = self.metrics_text();
        self.audit
            .lock()
            .trail
            .append(AuditEvent::note(format!("metrics exported by {subject}")), timestamp);
        Ok(text)
    }

    /// Read-only management: the recently captured [`Explanation`]s
    /// (oldest first), authorized under the `explain` operation on the
    /// management target and audited as a note. Empty unless capture is
    /// on ([`DecideMetrics::set_capture_explanations`]) — and always
    /// empty under `obs-off`, where the ring compiles away.
    pub fn inspect_explanations(
        &self,
        subject: impl Into<String>,
        credentials: Credentials,
        timestamp: u64,
    ) -> Result<Vec<Explanation>, DenyReason> {
        let subject = subject.into();
        let req = DecisionRequest {
            subject: subject.clone(),
            credentials,
            operation: "explain".to_owned(),
            target: MGMT_TARGET.to_owned(),
            context: context::ContextInstance::root(),
            environment: Vec::new(),
            timestamp,
        };
        let outcome = self.decide(&req);
        if let Some(reason) = outcome.deny_reason() {
            return Err(reason.clone());
        }
        let explanations = self.metrics.recent_explanations();
        self.audit.lock().trail.append(
            AuditEvent::note(format!(
                "decision explanations inspected by {subject} ({} retained)",
                explanations.len()
            )),
            timestamp,
        );
        Ok(explanations)
    }

    /// §5.2 start-up recovery: rebuild the retained ADI from the
    /// attached [`TrailStore`] — load and verify the last `last_n`
    /// sealed segments, drop records older than `from_time`, and replay
    /// the rest through the *current* MSoD policy set (grants retain,
    /// last steps / terminations / admin purges purge). The ADI is
    /// cleared first and a Startup marker is appended to the live
    /// trail. The rebuild holds the ADI's exclusive epoch lock, so
    /// concurrent decisions observe either the old state or the fully
    /// recovered one.
    pub fn recover(&self, last_n: usize, from_time: u64) -> Result<RecoveryReport, AuditError> {
        let mut report = RecoveryReport::default();
        let segments = match &self.audit.lock().store {
            Some(store) => store.load_last(last_n, &self.trail_key)?,
            None => Vec::new(),
        };
        report.segments_loaded = segments.len();

        let core = self.core();
        self.adi.with_exclusive(|view| {
            view.clear();
            for seg in &segments {
                for rec in &seg.records {
                    if rec.timestamp < from_time {
                        continue;
                    }
                    apply_recovered_record(&core.engine, view, rec, &mut report);
                }
            }
            report.records_retained = view.len();
        });
        let now = segments.last().and_then(|s| s.records.last()).map_or(0, |r| r.timestamp);
        self.audit.lock().trail.append(AuditEvent::startup(), now);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use audit::EventKind;

    const POLICY: &str = r#"<RBACPolicy id="vo" roleType="permisRole">
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

    fn service() -> DecisionService {
        DecisionService::from_xml_symbolized(POLICY, b"key".to_vec()).unwrap()
    }

    fn work<A: RetainedAdi + 'static>(
        svc: &DecisionService<A>,
        user: &str,
        role: &str,
        project: &str,
        ts: u64,
    ) -> bool {
        svc.decide(&DecisionRequest::with_roles(
            user,
            vec![RoleRef::new("permisRole", role)],
            "work",
            "http://vo/resource",
            format!("Project={project}").parse().unwrap(),
            ts,
        ))
        .is_granted()
    }

    #[test]
    fn decide_needs_no_exclusive_access() {
        let svc = service();
        assert!(work(&svc, "alice", "Member", "p1", 1));
        // The MMER bites across sessions.
        assert!(!work(&svc, "alice", "Reviewer", "p1", 2));
        assert!(work(&svc, "bob", "Reviewer", "p1", 3));
        assert_eq!(svc.adi().len(), 2);
        assert_eq!(svc.with_trail(|t| t.len()), 3);
        svc.with_trail(|t| t.verify().unwrap());
    }

    #[test]
    fn policy_swap_is_atomic_and_visible() {
        let svc = service();
        assert!(work(&svc, "alice", "Member", "p1", 1));
        // Swap in a policy where only Reviewer may work.
        let only_reviewer = POLICY.replace("<AllowedRole value=\"Member\"/>\n      ", "");
        svc.set_policy(policy::parse_rbac_policy(&only_reviewer).unwrap());
        assert!(!work(&svc, "carol", "Member", "p2", 2));
        assert!(work(&svc, "dave", "Reviewer", "p2", 3));
    }

    #[test]
    fn core_snapshot_survives_mutation() {
        let svc = service();
        let before = svc.core();
        svc.set_policy(policy::parse_rbac_policy(POLICY).unwrap());
        // The old snapshot is still fully usable.
        assert_eq!(before.policy().id, "vo");
        assert!(Arc::strong_count(&before) >= 1);
    }

    #[test]
    fn open_persistent_round_trips_and_audits_recovery() {
        let dir = std::env::temp_dir().join(format!("svc-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = || policy::parse_rbac_policy(POLICY).unwrap();
        {
            let (svc, reports) =
                DecisionService::open_persistent(policy(), b"key".to_vec(), &dir, 2).unwrap();
            assert!(reports.iter().all(|r| r.is_clean()));
            assert!(work(&svc, "alice", "Member", "p1", 1));
            assert!(work(&svc, "bob", "Reviewer", "p1", 2));
            svc.sync_adi().unwrap();
        }
        // Tear the tail off one shard's journal: the reopen must
        // recover, report it, and leave a note in the audit trail.
        let torn = (0..2)
            .map(|i| dir.join(format!("adi-shard-{i}.log")))
            .find(|p| std::fs::metadata(p).unwrap().len() > 0)
            .unwrap();
        let data = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &data[..data.len() - 2]).unwrap();
        let (svc, reports) =
            DecisionService::open_persistent(policy(), b"key".to_vec(), &dir, 2).unwrap();
        assert!(reports.iter().any(|r| !r.is_clean()));
        assert!(reports.iter().map(|r| r.bytes_truncated).sum::<u64>() > 0);
        let notes = svc.with_trail(|t| {
            t.open_records().iter().filter(|r| r.event.kind == EventKind::Note).count()
        });
        assert_eq!(notes, 1, "non-clean shard recovery must be audited");
        // The surviving record still drives MSoD decisions.
        let survivors = svc.adi().len();
        assert_eq!(survivors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Durable shards opened against one table get the compiled symbol
    /// engine, and decide exactly like a single-store service.
    #[test]
    fn sym_engine_requires_one_shared_table() {
        use std::path::Path;
        use storage::{FaultVfs, PersistentAdi, Vfs};

        let policy = || policy::parse_rbac_policy(POLICY).unwrap();
        let script = |svc: &DecisionService<PersistentAdi>| {
            vec![
                work(svc, "alice", "Member", "p1", 1),
                work(svc, "alice", "Reviewer", "p1", 2),
                work(svc, "bob", "Reviewer", "p1", 3),
                work(svc, "bob", "Member", "p2", 4),
                work(svc, "carol", "Member", "p1", 5),
            ]
        };

        let vfs = FaultVfs::default();
        let table = Arc::new(SymbolTable::new());
        let shards = (0..4)
            .map(|i| {
                let vfs: Arc<dyn Vfs> = Arc::new(vfs.clone());
                let path = format!("/adi-shard-{i}.log");
                PersistentAdi::open_with_table(vfs, Path::new(&path), Arc::clone(&table)).unwrap()
            })
            .collect();
        let shared = DecisionService::from_shards(
            policy(),
            b"key".to_vec(),
            ShardedAdi::from_shards(shards),
        );
        assert!(Arc::ptr_eq(shared.symbol_table(), &table));
        assert!(shared.core().sym_engine().is_some());
        assert!(format!("{shared:?}").contains("engine: \"sym\""));
        shared.set_policy(policy());
        shared.set_engine_options(EngineOptions::default());
        assert!(shared.core().sym_engine().is_some(), "swaps recompile against the table");

        let verdicts = script(&shared);
        assert_eq!(verdicts, [true, false, true, true, true]);
        assert_eq!(verdicts, script(&single_store_service()));

        fn single_store_service() -> DecisionService<PersistentAdi> {
            let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::default());
            let store = PersistentAdi::open_with_vfs(vfs, Path::new("/one.log")).unwrap();
            DecisionService::from_shards(
                policy::parse_rbac_policy(POLICY).unwrap(),
                b"key".to_vec(),
                ShardedAdi::from_shards(vec![store]),
            )
        }
    }

    /// Symbolized shards over different tables are refused at assembly:
    /// a symbol would mean different things in different shards, so no
    /// engine may run over them, and a silent string-engine service
    /// would hide the mistake.
    #[test]
    #[should_panic(expected = "different symbol tables")]
    fn mixed_symbol_tables_are_refused_at_assembly() {
        let shards = vec![
            SymAdi::new(Arc::new(SymbolTable::new())),
            SymAdi::new(Arc::new(SymbolTable::new())),
        ];
        DecisionService::from_shards(
            policy::parse_rbac_policy(POLICY).unwrap(),
            b"key".to_vec(),
            ShardedAdi::from_shards(shards),
        );
    }

    /// A store with no symbol index still gets a table of its own (the
    /// flight recorder interns into it) but no compiled engine.
    #[test]
    fn reference_service_owns_a_private_table() {
        let svc = DecisionService::<msod::MemoryAdi>::with_shard_count(
            policy::parse_rbac_policy(POLICY).unwrap(),
            b"key".to_vec(),
            2,
        );
        assert!(svc.core().sym_engine().is_none());
        assert!(work(&svc, "alice", "Member", "p1", 1));
        assert_eq!(svc.symbol_table().counts().roles, 0, "the string engine interns nothing");
    }

    #[test]
    fn symbolized_service_matches_string_service() {
        let svc = DecisionService::<msod::MemoryAdi>::with_shard_count(
            policy::parse_rbac_policy(POLICY).unwrap(),
            b"key".to_vec(),
            msod::DEFAULT_SHARDS,
        );
        assert!(svc.core().sym_engine().is_none(), "the reference store runs the string engine");
        let sym = service();
        assert!(sym.core().sym_engine().is_some(), "policy must compile to the fast path");
        let steps = [
            ("alice", "Member", "p1"),
            ("alice", "Reviewer", "p1"),
            ("bob", "Reviewer", "p1"),
            ("bob", "Member", "p2"),
            ("alice", "Member", "p2"),
            ("carol", "Reviewer", "p2"),
            ("carol", "Member", "p2"),
        ];
        for (ts, (user, role, project)) in steps.into_iter().enumerate() {
            let req = DecisionRequest::with_roles(
                user,
                vec![RoleRef::new("permisRole", role)],
                "work",
                "http://vo/resource",
                format!("Project={project}").parse().unwrap(),
                ts as u64,
            );
            assert_eq!(svc.decide(&req), sym.decide(&req), "step {ts}");
        }
        assert_eq!(svc.adi().snapshot(), sym.adi().snapshot());
        // Policy swap recompiles the symbolized engine against the same
        // table; decisions stay aligned afterwards.
        let p = || policy::parse_rbac_policy(POLICY).unwrap();
        svc.set_policy(p());
        sym.set_policy(p());
        assert!(sym.core().sym_engine().is_some());
        let req = DecisionRequest::with_roles(
            "alice",
            vec![RoleRef::new("permisRole", "Reviewer")],
            "work",
            "http://vo/resource",
            "Project=p1".parse().unwrap(),
            50,
        );
        assert_eq!(svc.decide(&req), sym.decide(&req));
    }
}
