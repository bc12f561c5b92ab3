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
//!   recovery): take `epoch.write()`, lock all shards in index order
//!   into one [`RetainedAdi`] view and run the sequential algorithm
//!   unchanged.
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
use crate::engine::{
    check_constraints, constraint_matches_request, make_record, GrantDetail, MsodDecision,
    MsodEngine, MsodRequest,
};

/// Default shard count for [`ShardedAdi::with_default_shards`].
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

    /// [`DEFAULT_SHARDS`] empty shards.
    pub fn with_default_shards() -> Self {
        ShardedAdi::new(DEFAULT_SHARDS)
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

    /// Whether any shard retains a record within `bound`. Locks shards
    /// one at a time; callers must not hold a shard lock.
    pub fn context_active(&self, bound: &BoundContext) -> bool {
        let _epoch = self.epoch_read();
        self.context_active_unsynced(bound)
    }

    /// As [`ShardedAdi::context_active`] but the caller already holds an
    /// epoch guard. Still locks shards one at a time — through the raw,
    /// unmetered mutexes: this read-only probe runs up to shard-count
    /// times per decision, so metering each briefly-held lock would both
    /// drown the contention metrics in probe noise and put
    /// O(shards) clock reads on the decide fast path. The sweep is
    /// counted once in [`AdiMetrics::probe_sweeps`] instead.
    fn context_active_unsynced(&self, bound: &BoundContext) -> bool {
        self.metrics.probe_sweeps.inc();
        self.shards.iter().any(|s| s.lock().context_active(bound))
    }

    /// Take the epoch write lock, lock every shard in index order and
    /// run `f` over a single [`RetainedAdi`] view of the whole store.
    /// This is the only way to mutate more than one shard atomically.
    pub fn with_exclusive<R>(&self, f: impl FnOnce(&mut dyn RetainedAdi) -> R) -> R {
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
        let guards: Vec<TimedShardGuard<'_, A>> =
            (0..self.shards.len()).map(|i| self.lock_shard(i)).collect();
        let mut view = ExclusiveView { guards, purged: &self.metrics.purged_records };
        let out = f(&mut view);
        drop(view);
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

    /// Consistent point-in-time snapshot of all shards, in the same
    /// total order as [`crate::MemoryAdi::snapshot`].
    pub fn snapshot(&self) -> Vec<AdiRecord> {
        self.with_exclusive(|view| view.snapshot())
    }

    /// `user`'s retained records within `bound`.
    pub fn user_records(&self, user: &str, bound: &BoundContext) -> Vec<AdiRecord> {
        self.with_user_shard(user, |shard| shard.user_records(user, bound))
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

/// All shards locked at once, presented as one [`RetainedAdi`] so the
/// sequential algorithm (and recovery/management) runs unchanged.
struct ExclusiveView<'a, A> {
    guards: Vec<TimedShardGuard<'a, A>>,
    /// Running total of records removed through this view.
    purged: &'a Counter,
}

impl<A: RetainedAdi> ExclusiveView<'_, A> {
    fn index(&self, user: &str) -> usize {
        (fnv1a(user) % self.guards.len() as u64) as usize
    }
}

impl<A: RetainedAdi> RetainedAdi for ExclusiveView<'_, A> {
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
        for g in &mut self.guards {
            g.clear();
        }
    }

    fn snapshot(&self) -> Vec<AdiRecord> {
        let mut out: Vec<AdiRecord> = self.guards.iter().flat_map(|g| g.snapshot()).collect();
        sort_records(&mut out);
        out
    }
}

impl MsodEngine {
    /// Run §4.2 for one interim-granted request against a sharded
    /// store, without exclusive access. Semantically equivalent to
    /// [`MsodEngine::enforce`] up to the conservative over-retention
    /// described in the [module docs](self).
    ///
    /// Two-phase shape: *check* under the requesting user's shard lock
    /// (plus a shared epoch guard), *commit* the retained record under
    /// the same lock only when the outcome is a grant. Requests where a
    /// matched policy's last step fires fall back to the exclusive path
    /// because terminating a context purges other users' records.
    pub fn enforce_sharded<A: RetainedAdi>(
        &self,
        adi: &ShardedAdi<A>,
        req: &MsodRequest<'_>,
    ) -> MsodDecision {
        // Step 1: match the input context instance against the policy
        // set; exit if nothing matches.
        let matched = self.policies().matching(req.context);
        if matched.is_empty() {
            return MsodDecision::NotApplicable;
        }

        // Step 7 terminations purge across users — cross-shard writes
        // need the exclusive view.
        let needs_exclusive = matched
            .iter()
            .any(|&pi| self.policies().policies()[pi].is_last_step(req.operation, req.target));
        if needs_exclusive {
            return adi.with_exclusive(|view| self.enforce(view, req));
        }

        // Fast path. Hold the epoch for the whole decision so no purge
        // can interleave between the scan and the commit.
        let _epoch = adi.epoch_read();

        // Bind each matched policy and pre-compute step 3's cross-shard
        // "context already started" facts, one shard lock at a time.
        let bounds: Vec<BoundContext> = matched
            .iter()
            .map(|&pi| {
                self.policies().policies()[pi]
                    .business_context
                    .bind(req.context)
                    .expect("matched instance must bind")
            })
            .collect();
        let started_elsewhere: Vec<bool> =
            bounds.iter().map(|b| adi.context_active_unsynced(b)).collect();

        let mut shard = adi.lock_shard(adi.shard_index(req.user));
        let mut want_record = false;
        let mut consulted = 0usize;
        for (k, &pi) in matched.iter().enumerate() {
            let policy = &self.policies().policies()[pi];
            let bound = &bounds[k];
            // Re-check against the user's own shard under its lock:
            // same-user races serialise here, so a context this user
            // started can never be seen as fresh twice.
            let started = started_elsewhere[k] || shard.context_active(bound);

            if !started {
                // Step 4: recording starts at the policy's first step,
                // or immediately when no first step is declared.
                let starts_now =
                    policy.first_step.is_none() || policy.is_first_step(req.operation, req.target);
                if starts_now {
                    if self.options().check_constraints_on_first_step {
                        if let Some(deny) =
                            check_constraints(policy, pi, bound, req, &*shard, &mut consulted)
                        {
                            return MsodDecision::Deny(deny);
                        }
                    }
                    want_record = true;
                }
                // goto 7.
            } else {
                // Steps 5 and 6 read only the requesting user's
                // history, which lives entirely in this shard.
                match check_constraints(policy, pi, bound, req, &*shard, &mut consulted) {
                    Some(deny) => return MsodDecision::Deny(deny),
                    None => {
                        if constraint_matches_request(policy, req) {
                            want_record = true;
                        }
                    }
                }
            }
        }

        // Commit phase — still under the user's shard lock.
        let records_added = usize::from(want_record);
        if want_record {
            shard.add(make_record(req));
        }
        MsodDecision::Grant(GrantDetail {
            matched_policies: matched,
            records_added,
            terminated: Vec::new(),
            records_purged: 0,
            records_consulted: consulted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::MemoryAdi;
    use crate::policy::{MsodPolicy, MsodPolicySet};
    use crate::privilege::{Privilege, RoleRef};
    use crate::{Mmep, Mmer};
    use context::ContextInstance;

    fn role(v: &str) -> RoleRef {
        RoleRef::new("role", v)
    }

    fn ctx(s: &str) -> ContextInstance {
        s.parse().unwrap()
    }

    fn engine() -> MsodEngine {
        // One policy over Proc=!: MMER {A,B} m=2, and the paper's
        // duplicate-entry idiom MMEP({p,p},2) = "(approve, doc) at most
        // once per instance"; last step (close, doc).
        let approve = Privilege::new("approve", "doc");
        let policy = MsodPolicy::new(
            "Proc=!".parse().unwrap(),
            None,
            Some(Privilege::new("close", "doc")),
            vec![Mmer::new(vec![role("A"), role("B")], 2).unwrap()],
            vec![Mmep::new(vec![approve.clone(), approve], 2).unwrap()],
        )
        .unwrap();
        MsodEngine::new(MsodPolicySet::new(vec![policy]))
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

    #[test]
    fn sharded_matches_sequential_engine() {
        let eng = engine();
        let sharded: ShardedAdi<MemoryAdi> = ShardedAdi::new(4);
        let mut flat = MemoryAdi::new();
        let c = ctx("Proc=p1");

        let alice = [role("A")];
        let bob = [role("B")];
        let steps: Vec<(&str, &[RoleRef], &str)> = vec![
            ("alice", &alice, "open"),
            ("alice", &alice, "approve"),
            ("bob", &bob, "approve"),
            ("bob", &bob, "edit"),
            ("alice", &alice, "close"),
            ("bob", &bob, "open"),
        ];
        for (ts, (user, roles, op)) in steps.into_iter().enumerate() {
            let r = req(user, roles, op, &c, ts as u64);
            let a = eng.enforce_sharded(&sharded, &r);
            let b = eng.enforce(&mut flat, &r);
            assert_eq!(a, b, "step {ts}: {user} {op}");
            assert_eq!(sharded.snapshot(), flat.snapshot(), "step {ts}");
        }
    }

    #[test]
    fn mmer_denied_across_shards() {
        let eng = engine();
        let adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(4);
        let c = ctx("Proc=p9");
        let a = [role("A")];
        let both = [role("B")];
        assert!(eng.enforce_sharded(&adi, &req("u1", &a, "open", &c, 1)).is_granted());
        // Same user trying to pick up the second conflicting role.
        let deny = eng.enforce_sharded(&adi, &req("u1", &both, "edit", &c, 2));
        assert!(!deny.is_granted());
        // A different user with role B is fine.
        assert!(eng.enforce_sharded(&adi, &req("u2", &both, "edit", &c, 3)).is_granted());
    }

    #[test]
    fn last_step_purges_all_shards() {
        let eng = engine();
        let adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(4);
        let c = ctx("Proc=p2");
        let a = [role("A")];
        let b = [role("B")];
        assert!(eng.enforce_sharded(&adi, &req("u1", &a, "open", &c, 1)).is_granted());
        assert!(eng.enforce_sharded(&adi, &req("u2", &b, "edit", &c, 2)).is_granted());
        assert_eq!(adi.len(), 2);
        let done = eng.enforce_sharded(&adi, &req("u1", &a, "close", &c, 3));
        match done {
            MsodDecision::Grant(detail) => {
                assert_eq!(detail.terminated.len(), 1);
                assert_eq!(detail.records_purged, 3);
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert!(adi.is_empty());
    }

    #[test]
    fn mmep_caps_repeat_exercise_across_shards() {
        let eng = engine();
        let adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(3);
        let c = ctx("Proc=p3");
        let a = [role("A")];
        let b = [role("B")];
        assert!(eng.enforce_sharded(&adi, &req("u1", &a, "approve", &c, 1)).is_granted());
        assert!(eng.enforce_sharded(&adi, &req("u2", &b, "approve", &c, 2)).is_granted());
        // MMEP m=2: a second approve by u1 must be denied.
        let deny = eng.enforce_sharded(&adi, &req("u1", &a, "approve", &c, 3));
        assert!(!deny.is_granted());
        assert_eq!(adi.snapshot().len(), 2);
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
        assert!(adi.context_active(&bound));
        assert_eq!(adi.purge(&bound), 3);
        assert!(adi.is_empty());
    }

    #[test]
    fn concurrent_first_steps_all_commit() {
        let eng = std::sync::Arc::new(engine());
        let adi = std::sync::Arc::new(ShardedAdi::<MemoryAdi>::new(8));
        let c = ctx("Proc=storm");
        std::thread::scope(|s| {
            for t in 0..8 {
                let eng = std::sync::Arc::clone(&eng);
                let adi = std::sync::Arc::clone(&adi);
                let c = c.clone();
                s.spawn(move || {
                    let user = format!("user-{t}");
                    let roles = [role("A")];
                    let r = MsodRequest {
                        user: &user,
                        roles: &roles,
                        operation: "open",
                        target: "doc",
                        context: &c,
                        timestamp: t,
                    };
                    assert!(eng.enforce_sharded(&adi, &r).is_granted());
                });
            }
        });
        // Every thread ran a first step; over-retention means all 8 may
        // be kept, and at least one must be.
        let n = adi.len();
        assert!((1..=8).contains(&n), "retained {n}");
    }
}
