//! Sharded retained-ADI write plane.
//!
//! [`ShardedAdi`] partitions retained ADI across N user-keyed shards so
//! concurrent decisions for different users never contend on one global
//! lock. Every record for a given user lives in exactly one shard
//! (stable FNV-1a hash of the user ID), which preserves the enforcement
//! algorithm's key property: steps 5/6 only ever read *the requesting
//! user's* history, so they are complete under a single shard lock.
//!
//! Cross-shard facts are coordinated through a global *epoch* lock:
//!
//! - Fast path (no last step fires): hold `epoch.read()` for the whole
//!   operation. Step 3's "has this context instance started?" scans the
//!   shards one at a time — never holding two shard locks at once — and
//!   is then re-checked against the requesting user's shard *under that
//!   shard's lock*, so same-user races cannot double-start a context.
//! - Exclusive path (a matched policy's last step fires, admin purges,
//!   recovery): take `epoch.write()` and lock all shards in index order.
//!   A last step is decided there on symbols
//!   ([`SymEngine`](crate::SymEngine) reads step 3 off every held
//!   shard, evaluates and commits on the user's, then purges each
//!   terminated pattern on every shard through
//!   [`RetainedAdi::purge_sym`]), and so is §5.2 recovery
//!   ([`SymEngine::replay`](crate::SymEngine::replay)); management
//!   sees the same held shards as one [`RetainedAdi`] view
//!   ([`ShardedAdi::with_exclusive`]). All go through one locking
//!   routine.
//!
//! Purges only ever happen under `epoch.write()`, so a fast-path reader
//! (which holds `epoch.read()` throughout) can never observe a context
//! being torn down mid-decision.
//!
//! ## Linearizability
//!
//! The cross-shard "started" scan may read another user's shard an
//! instant before that user's own first step commits. Any such
//! interleaving is equivalent to a legal sequential order in which the
//! two requests ran in the order their shard commits happened. The one
//! observable divergence from the single-lock engine: two concurrent
//! first-step requests from *different* users can both retain a record
//! even when the later one's roles touch no constraint. Retaining more
//! history can only make future decisions stricter, never looser, so
//! MMER/MMEP safety is preserved (the paper's constraints are monotone
//! in retained history).
//!
//! Note for persistent backends: the user→shard mapping depends on the
//! shard count, so a store that persists per shard must be reopened
//! with the same count.

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard};

use context::BoundContext;
use obs::{Counter, Histogram, PromWriter, Stopwatch};

use crate::adi::{sort_records, AdiRecord, RetainedAdi};

/// Default shard count of the decision service's store.
pub const DEFAULT_SHARDS: usize = 16;

/// Stable FNV-1a over the user ID. Deterministic across processes so a
/// persistent per-shard backend maps users to the same shard after a
/// restart (std's `DefaultHasher` would not guarantee that).
fn fnv1a(user: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in user.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Lock telemetry for one shard. All fields are lock-free counters
/// (zero-sized no-ops under the `obs-off` feature).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Times this shard's mutex was taken.
    pub acquisitions: Counter,
    /// Total nanoseconds spent waiting for this shard's mutex.
    pub wait_ns: Counter,
    /// Total nanoseconds this shard's mutex was held — estimated from
    /// one in every `HOLD_SAMPLE` acquisitions, scaled by the period.
    pub hold_ns: Counter,
    /// Gates hold-time clocking to sampled acquisitions.
    hold_sampler: obs::Sampler,
}

/// Telemetry for the whole sharded store: per-shard lock contention,
/// epoch-lock traffic, exclusive-section wall time and purge volume.
#[derive(Debug)]
pub struct AdiMetrics {
    shards: Vec<ShardMetrics>,
    /// Fast-path (shared) epoch-guard acquisitions.
    pub epoch_reads: Counter,
    /// Exclusive epoch-guard acquisitions (last steps, purges, recovery).
    pub epoch_writes: Counter,
    /// Wall time of each exclusive all-shards section, in nanoseconds.
    pub exclusive_ns: Histogram,
    /// Records removed by purges of any kind — last-step terminations
    /// and administrative purges both run through the exclusive view.
    pub purged_records: Counter,
    /// Cross-shard "context already started?" probe sweeps (each sweep
    /// briefly locks shards in order through the raw, unmetered path).
    pub probe_sweeps: Counter,
    /// Exclusive acquisitions that waited longer than
    /// [`EPOCH_STALL_NS`] for the epoch write lock — a long stall means
    /// the fast path pinned the epoch (or a shard) far beyond its
    /// budget, which is anomaly-worthy.
    pub epoch_stalls: Counter,
    /// Total nanoseconds exclusive acquirers spent waiting for the
    /// epoch write lock.
    pub epoch_write_wait_ns: Counter,
}

/// Epoch write-lock waits above this many nanoseconds (10 ms) count as
/// stalls in [`AdiMetrics::epoch_stalls`].
pub const EPOCH_STALL_NS: u64 = 10_000_000;

impl AdiMetrics {
    fn new(shard_count: usize) -> Self {
        AdiMetrics {
            shards: (0..shard_count).map(|_| ShardMetrics::default()).collect(),
            epoch_reads: Counter::new(),
            epoch_writes: Counter::new(),
            exclusive_ns: Histogram::new(),
            purged_records: Counter::new(),
            probe_sweeps: Counter::new(),
            epoch_stalls: Counter::new(),
            epoch_write_wait_ns: Counter::new(),
        }
    }

    /// Lock telemetry for shard `i`.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }
}

/// A locked shard that attributes its wait and hold time to the
/// shard's metrics on acquisition and drop. `held` is `Some` only on
/// sampled acquisitions ([`HOLD_SAMPLE`]); a sampled hold is scaled by
/// the sampling period so `hold_ns` stays a total-time estimate.
pub(crate) struct TimedShardGuard<'a, A> {
    guard: MutexGuard<'a, A>,
    held: Option<Stopwatch>,
    metrics: &'a ShardMetrics,
}

impl<A> std::ops::Deref for TimedShardGuard<'_, A> {
    type Target = A;
    fn deref(&self) -> &A {
        &self.guard
    }
}

impl<A> std::ops::DerefMut for TimedShardGuard<'_, A> {
    fn deref_mut(&mut self) -> &mut A {
        &mut self.guard
    }
}

impl<A> Drop for TimedShardGuard<'_, A> {
    fn drop(&mut self) {
        if let Some(held) = &self.held {
            self.metrics.hold_ns.add(held.elapsed_ns() * HOLD_SAMPLE);
        }
    }
}

/// Hold time is clocked on every `HOLD_SAMPLE`-th shard acquisition and
/// scaled back up — two clock reads around a sub-microsecond critical
/// section would otherwise be the dominant cost of taking the lock.
/// Acquisition and wait accounting stay exact.
const HOLD_SAMPLE: u64 = 8;

/// A user-keyed sharded retained-ADI store. See the module docs for the
/// locking protocol.
pub struct ShardedAdi<A> {
    pub(crate) shards: Vec<Mutex<A>>,
    /// Global epoch: readers are fast-path decisions, the writer is any
    /// operation that must see / mutate all shards atomically.
    epoch: RwLock<()>,
    pub(crate) metrics: AdiMetrics,
}

impl<A: RetainedAdi + Default> ShardedAdi<A> {
    /// `shard_count` empty shards (clamped to at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardedAdi::from_shards((0..shard_count.max(1)).map(|_| A::default()).collect())
    }
}

impl<A: RetainedAdi> ShardedAdi<A> {
    /// Wrap pre-built shards (for backends that need per-shard setup,
    /// e.g. one persistent store per shard). Panics if empty.
    pub fn from_shards(shards: Vec<A>) -> Self {
        assert!(!shards.is_empty(), "ShardedAdi needs at least one shard");
        let metrics = AdiMetrics::new(shards.len());
        ShardedAdi {
            shards: shards.into_iter().map(Mutex::new).collect(),
            epoch: RwLock::new(()),
            metrics,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard `user`'s records live in.
    pub fn shard_index(&self, user: &str) -> usize {
        (fnv1a(user) % self.shards.len() as u64) as usize
    }

    pub(crate) fn epoch_read(&self) -> RwLockReadGuard<'_, ()> {
        self.metrics.epoch_reads.inc();
        self.epoch.read()
    }

    /// Take shard `idx`'s mutex, attributing wait and (via the guard's
    /// drop) hold time to the shard's metrics. An uncontended `try_lock`
    /// succeeds without touching the clock — `wait_ns` only accumulates
    /// when the lock was actually waited on — and hold time is clocked
    /// on sampled acquisitions only, so the steady-state acquisition
    /// costs two relaxed `fetch_add`s and no clock reads.
    pub(crate) fn lock_shard(&self, idx: usize) -> TimedShardGuard<'_, A> {
        let metrics = &self.metrics.shards[idx];
        let guard = match self.shards[idx].try_lock() {
            Some(guard) => guard,
            None => {
                let waited = Stopwatch::start();
                let guard = self.shards[idx].lock();
                metrics.wait_ns.add(waited.elapsed_ns());
                guard
            }
        };
        metrics.acquisitions.inc();
        let held = metrics.hold_sampler.tick(HOLD_SAMPLE).then(Stopwatch::start);
        TimedShardGuard { guard, held, metrics }
    }

    /// Run `f` under the lock of `user`'s shard (and a shared epoch
    /// guard, so exclusive operations cannot interleave).
    pub fn with_user_shard<R>(&self, user: &str, f: impl FnOnce(&mut A) -> R) -> R {
        let _epoch = self.epoch_read();
        f(&mut self.lock_shard(self.shard_index(user)))
    }

    /// Run `f` under the lock of shard `i` (and a shared epoch guard).
    /// For per-shard maintenance — syncing or compacting a durable
    /// backend shard by shard without stopping the world.
    pub fn with_shard<R>(&self, i: usize, f: impl FnOnce(&mut A) -> R) -> R {
        let _epoch = self.epoch_read();
        f(&mut self.lock_shard(i))
    }

    /// Take the epoch write lock, lock every shard in index order and
    /// run `f` over a single [`RetainedAdi`] view of the whole store.
    /// This is the only way to mutate more than one shard atomically.
    pub fn with_exclusive<R>(&self, f: impl FnOnce(&mut dyn RetainedAdi) -> R) -> R {
        self.exclusive_section(|guards| {
            f(&mut ExclusiveView { guards, purged: &self.metrics.purged_records })
        })
    }

    /// The one exclusive section: take the epoch write lock, then every
    /// shard lock in index order, and hand `f` the held shards (slot
    /// `i` is shard `i`). Counts the acquisition in
    /// [`AdiMetrics::epoch_writes`] and the section's wall time in
    /// [`AdiMetrics::exclusive_ns`]; whoever purges through the guards
    /// adds to [`AdiMetrics::purged_records`].
    pub(crate) fn exclusive_section<'s, R>(
        &'s self,
        f: impl FnOnce(&mut [TimedShardGuard<'s, A>]) -> R,
    ) -> R {
        self.metrics.epoch_writes.inc();
        let section = Stopwatch::start();
        // An uncontended try_write skips the wait clocking entirely;
        // waits above EPOCH_STALL_NS additionally count as stalls.
        let _epoch = match self.epoch.try_write() {
            Some(guard) => guard,
            None => {
                let waited = Stopwatch::start();
                let guard = self.epoch.write();
                let wait = waited.elapsed_ns();
                self.metrics.epoch_write_wait_ns.add(wait);
                if wait >= EPOCH_STALL_NS {
                    self.metrics.epoch_stalls.inc();
                }
                guard
            }
        };
        let mut guards: Vec<TimedShardGuard<'s, A>> =
            (0..self.shards.len()).map(|i| self.lock_shard(i)).collect();
        let out = f(&mut guards);
        drop(guards);
        section.lap(&self.metrics.exclusive_ns);
        out
    }

    /// Purge `bound` across all shards (admin / management path).
    pub fn purge(&self, bound: &BoundContext) -> usize {
        self.with_exclusive(|view| view.purge(bound))
    }

    /// Purge records strictly older than `cutoff` across all shards.
    pub fn purge_older_than(&self, cutoff: u64) -> usize {
        self.with_exclusive(|view| view.purge_older_than(cutoff))
    }

    /// Drop every retained record.
    pub fn clear(&self) {
        self.with_exclusive(|view| view.clear());
    }

    /// Total retained records across shards.
    pub fn len(&self) -> usize {
        let _epoch = self.epoch_read();
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no shard retains anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consistent point-in-time snapshot of all shards, in the store's
    /// canonical total order (the one every backend's snapshot sorts by).
    pub fn snapshot(&self) -> Vec<AdiRecord> {
        self.with_exclusive(|view| view.snapshot())
    }

    /// The store's telemetry (per-shard lock contention, epoch traffic,
    /// purge volume).
    pub fn metrics(&self) -> &AdiMetrics {
        &self.metrics
    }

    /// Render the store's telemetry — and each shard backend's own
    /// metrics — as Prometheus text. Record-count gauges take each
    /// shard's mutex briefly through the *unmetered* path, so exporting
    /// does not inflate the lock counters it reports.
    pub fn export_metrics(&self, w: &mut PromWriter) {
        for (i, m) in self.metrics.shards.iter().enumerate() {
            let shard = i.to_string();
            let labels: [(&str, &str); 1] = [("shard", &shard)];
            w.counter(
                "msod_shard_lock_acquisitions_total",
                "Times this ADI shard's mutex was taken.",
                &labels,
                m.acquisitions.get(),
            );
            w.counter(
                "msod_shard_lock_wait_ns_total",
                "Nanoseconds spent waiting for this ADI shard's mutex.",
                &labels,
                m.wait_ns.get(),
            );
            w.counter(
                "msod_shard_lock_hold_ns_total",
                "Nanoseconds this ADI shard's mutex was held (sampled estimate).",
                &labels,
                m.hold_ns.get(),
            );
        }
        {
            let _epoch = self.epoch.read();
            for (i, s) in self.shards.iter().enumerate() {
                let shard = i.to_string();
                let labels: [(&str, &str); 1] = [("shard", &shard)];
                let guard = s.lock();
                w.gauge(
                    "msod_shard_records",
                    "Retained-ADI records currently in this shard.",
                    &labels,
                    guard.len() as u64,
                );
                guard.export_metrics(w, &labels);
            }
        }
        w.counter(
            "msod_epoch_read_acquisitions_total",
            "Fast-path (shared) epoch-guard acquisitions.",
            &[],
            self.metrics.epoch_reads.get(),
        );
        w.counter(
            "msod_epoch_write_acquisitions_total",
            "Exclusive epoch-guard acquisitions (last steps, purges, recovery).",
            &[],
            self.metrics.epoch_writes.get(),
        );
        w.histogram(
            "msod_exclusive_section_ns",
            "Wall time of exclusive all-shards sections.",
            &[],
            &self.metrics.exclusive_ns.snapshot(),
        );
        w.counter(
            "msod_adi_purged_records_total",
            "Retained-ADI records removed by terminations and purges.",
            &[],
            self.metrics.purged_records.get(),
        );
        w.counter(
            "msod_adi_probe_sweeps_total",
            "Cross-shard context-active probe sweeps (unmetered locks).",
            &[],
            self.metrics.probe_sweeps.get(),
        );
        w.counter(
            "msod_epoch_write_wait_ns_total",
            "Nanoseconds exclusive acquirers waited for the epoch write lock.",
            &[],
            self.metrics.epoch_write_wait_ns.get(),
        );
        w.counter(
            "msod_epoch_stalls_total",
            "Epoch write-lock waits exceeding the 10ms stall threshold.",
            &[],
            self.metrics.epoch_stalls.get(),
        );
    }
}

impl<A: RetainedAdi + std::fmt::Debug> std::fmt::Debug for ShardedAdi<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedAdi").field("shards", &self.shards.len()).finish_non_exhaustive()
    }
}

/// All shards locked at once, presented as one [`RetainedAdi`] for
/// management, recovery and snapshots.
pub(crate) struct ExclusiveView<'v, 'a, A> {
    pub(crate) guards: &'v mut [TimedShardGuard<'a, A>],
    /// Running total of records removed through this view.
    pub(crate) purged: &'a Counter,
}

impl<A: RetainedAdi> ExclusiveView<'_, '_, A> {
    pub(crate) fn index(&self, user: &str) -> usize {
        (fnv1a(user) % self.guards.len() as u64) as usize
    }
}

impl<A: RetainedAdi> RetainedAdi for ExclusiveView<'_, '_, A> {
    fn add(&mut self, record: AdiRecord) {
        let idx = self.index(&record.user);
        self.guards[idx].add(record);
    }

    fn context_active(&self, bound: &BoundContext) -> bool {
        self.guards.iter().any(|g| g.context_active(bound))
    }

    fn visit_user_records(
        &self,
        user: &str,
        bound: &BoundContext,
        visit: &mut dyn FnMut(&AdiRecord),
    ) {
        self.guards[self.index(user)].visit_user_records(user, bound, visit);
    }

    fn purge(&mut self, bound: &BoundContext) -> usize {
        let n = self.guards.iter_mut().map(|g| g.purge(bound)).sum();
        self.purged.add(n as u64);
        n
    }

    fn purge_older_than(&mut self, cutoff: u64) -> usize {
        let n = self.guards.iter_mut().map(|g| g.purge_older_than(cutoff)).sum();
        self.purged.add(n as u64);
        n
    }

    fn len(&self) -> usize {
        self.guards.iter().map(|g| g.len()).sum()
    }

    fn clear(&mut self) {
        self.purged.add(self.len() as u64);
        for g in self.guards.iter_mut() {
            g.clear();
        }
    }

    fn snapshot(&self) -> Vec<AdiRecord> {
        let mut out: Vec<AdiRecord> = self.guards.iter().flat_map(|g| g.snapshot()).collect();
        sort_records(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::adi::MemoryAdi;
    use crate::engine::{MsodDecision, MsodEngine, MsodRequest};
    use crate::policy::{MsodPolicy, MsodPolicySet};
    use crate::privilege::{Privilege, RoleRef};
    use crate::sym::{dispatch, sharded_sym_adi, MsodScratch, SymAdi, SymEngine};
    use crate::{EngineOptions, Mmep, Mmer};
    use context::ContextInstance;
    use symtab::SymbolTable;

    fn role(v: &str) -> RoleRef {
        RoleRef::new("role", v)
    }

    fn ctx(s: &str) -> ContextInstance {
        s.parse().unwrap()
    }

    /// One policy over Proc=!: MMER {A,B} m=2, and the paper's
    /// duplicate-entry idiom MMEP({p,p},2) = "(approve, doc) at most
    /// once per instance"; last step (close, doc).
    fn policies() -> MsodPolicySet {
        let approve = Privilege::new("approve", "doc");
        let policy = MsodPolicy::new(
            "Proc=!".parse().unwrap(),
            None,
            Some(Privilege::new("close", "doc")),
            vec![Mmer::new(vec![role("A"), role("B")], 2).unwrap()],
            vec![Mmep::new(vec![approve.clone(), approve], 2).unwrap()],
        )
        .unwrap();
        MsodPolicySet::new(vec![policy])
    }

    /// The compiled engine over `shards` symbolized shards.
    struct Store {
        engine: SymEngine,
        table: Arc<SymbolTable>,
        adi: ShardedAdi<SymAdi>,
    }

    impl Store {
        fn new(shards: usize) -> Self {
            let table = Arc::new(SymbolTable::new());
            let engine =
                SymEngine::compile(&policies(), &EngineOptions::default(), &table).unwrap();
            Store { adi: sharded_sym_adi(&table, shards), engine, table }
        }

        fn decide(&self, req: &MsodRequest<'_>) -> MsodDecision {
            let mut scratch = MsodScratch::default();
            dispatch(&self.engine, &self.table, &self.adi, req, &mut scratch, false).decision
        }
    }

    fn req<'a>(
        user: &'a str,
        roles: &'a [RoleRef],
        op: &'a str,
        ctx: &'a ContextInstance,
        ts: u64,
    ) -> MsodRequest<'a> {
        MsodRequest { user, roles, operation: op, target: "doc", context: ctx, timestamp: ts }
    }

    #[test]
    fn routing_is_stable_and_total() {
        let adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(8);
        for user in ["alice", "bob", "carol", "dave", ""] {
            let i = adi.shard_index(user);
            assert!(i < 8);
            assert_eq!(i, adi.shard_index(user));
        }
    }

    /// The sharded store decides like the reference engine over one
    /// flat store — an MMER and an MMEP deny across shards, and a last
    /// step purging every shard included.
    #[test]
    fn sharded_matches_sequential_engine() {
        let reference = MsodEngine::new(policies());
        let sharded = Store::new(4);
        let mut flat = MemoryAdi::new();
        let c = ctx("Proc=p1");

        let a = [role("A")];
        let b = [role("B")];
        let steps: Vec<(&str, &[RoleRef], &str, bool)> = vec![
            ("alice", &a, "open", true),
            ("alice", &b, "edit", false), // MMER {A, B}
            ("alice", &a, "approve", true),
            ("bob", &b, "approve", true),
            ("alice", &a, "approve", false), // MMEP {approve, approve}
            ("bob", &b, "edit", true),
            ("alice", &a, "close", true), // purges every shard
            ("bob", &b, "open", true),
        ];
        for (ts, (user, roles, op, granted)) in steps.into_iter().enumerate() {
            let r = req(user, roles, op, &c, ts as u64);
            let got = sharded.decide(&r);
            assert_eq!(got.is_granted(), granted, "step {ts}: {op}");
            assert_eq!(got, reference.enforce(&mut flat, &r), "step {ts}: {op}");
            assert_eq!(sharded.adi.snapshot(), flat.snapshot(), "step {ts}");
            if op == "close" {
                assert!(sharded.adi.is_empty());
            }
        }
    }

    #[test]
    fn admin_ops_cover_every_shard() {
        let adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(4);
        let c1 = ctx("Proc=x");
        for (i, user) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            adi.with_user_shard(user, |shard| {
                shard.add(AdiRecord {
                    user: (*user).to_owned(),
                    roles: vec![role("A")],
                    operation: "op".into(),
                    target: "t".into(),
                    context: c1.clone(),
                    timestamp: i as u64,
                })
            });
        }
        assert_eq!(adi.len(), 5);
        assert_eq!(adi.purge_older_than(2), 2);
        assert_eq!(adi.len(), 3);
        let bound = BoundContext::from_name("Proc=x".parse().unwrap()).unwrap();
        assert_eq!(adi.purge(&bound), 3);
        assert!(adi.is_empty());
    }

    #[test]
    fn concurrent_first_steps_all_commit() {
        let store = Store::new(8);
        let c = ctx("Proc=storm");
        std::thread::scope(|s| {
            for t in 0..8 {
                let (store, c) = (&store, &c);
                s.spawn(move || {
                    let user = format!("user-{t}");
                    let roles = [role("A")];
                    assert!(store.decide(&req(&user, &roles, "open", c, t)).is_granted());
                });
            }
        });
        // Every thread ran a first step; over-retention means all 8 may
        // be kept, and at least one must be.
        let n = store.adi.len();
        assert!((1..=8).contains(&n), "retained {n}");
    }
}
