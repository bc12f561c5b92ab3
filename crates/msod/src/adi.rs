//! The Retained ADI — retained Access-control Decision Information
//! (ISO 10181-3, paper §4.1–4.3).
//!
//! Every *granted* decision that matched an MSoD policy is retained as
//! the §4.2 6-tuple. The store answers three questions for the
//! enforcement algorithm:
//!
//! 1. step 3 — is any record's context instance covered by a bound
//!    policy context (i.e. has the context instance already started)?
//! 2. steps 5/6 — which records exist for *this user* within the bound
//!    context?
//! 3. step 7 — purge every record covered by the bound context when its
//!    last step is granted.
//!
//! `MemoryAdi` mirrors the paper's in-core implementation (§5.2) and is
//! quarantined behind the `test-oracle` feature: its O(n) fresh-context
//! scan makes it the reference store the tests compare against, not a
//! production backend. Production code uses the symbolized,
//! context-trie-indexed store (`crate::sym::SymAdi`) in memory, or the
//! `storage` crate's journaled backend over the same index (§6 future
//! work), both behind the same [`RetainedAdi`] trait.

use context::{BoundContext, ContextInstance};

use crate::privilege::RoleRef;
use crate::sym::{BoundComp, SymAdi, SymRecord};

/// One retained decision: the 6-tuple of §4.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdiRecord {
    /// 1) the user's authenticated ID.
    pub user: String,
    /// 2) the user's activated role(s).
    pub roles: Vec<RoleRef>,
    /// 3) the operation granted.
    pub operation: String,
    /// 4) the target accessed.
    pub target: String,
    /// 5) the business-context instance.
    pub context: ContextInstance,
    /// 6) time/date of the grant decision (kept for administrative
    ///    purposes, e.g. age-based purging through the management port).
    pub timestamp: u64,
}

/// Abstract retained-ADI store.
pub trait RetainedAdi {
    /// Retain a granted decision.
    fn add(&mut self, record: AdiRecord);

    /// §4.2 step 3: whether any record (any user) lies within `bound`.
    fn context_active(&self, bound: &BoundContext) -> bool;

    /// §4.2 steps 5.iii / 6.iii: visit every record for `user` within
    /// `bound`. The visitor form lets the hot path count occurrences
    /// without cloning records.
    fn visit_user_records(
        &self,
        user: &str,
        bound: &BoundContext,
        visitor: &mut dyn FnMut(&AdiRecord),
    );

    /// Convenience: collect all records for `user` within `bound`.
    fn user_records(&self, user: &str, bound: &BoundContext) -> Vec<AdiRecord> {
        let mut out = Vec::new();
        self.visit_user_records(user, bound, &mut |r| out.push(r.clone()));
        out
    }

    /// §4.2 step 7: delete every record within `bound`; returns how many.
    fn purge(&mut self, bound: &BoundContext) -> usize;

    /// Administrative purge of records strictly older than `cutoff`
    /// (management port, §4.3); returns how many were removed.
    fn purge_older_than(&mut self, cutoff: u64) -> usize;

    /// Number of retained records.
    fn len(&self) -> usize;

    /// Whether the store is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove everything (administrative reset).
    fn clear(&mut self);

    /// A full copy of the store's records (persistence / inspection /
    /// test oracle). Order is unspecified.
    fn snapshot(&self) -> Vec<AdiRecord>;

    /// Render backend-specific metrics (journal depth, flush counts, …)
    /// into a Prometheus exposition document, tagging every series with
    /// `labels` (the sharded store passes `shard="<i>"`). In-memory
    /// backends have nothing to report; the default is a no-op.
    fn export_metrics(&self, writer: &mut obs::PromWriter, labels: &[(&str, &str)]) {
        let _ = (writer, labels);
    }

    /// Symbol-plane seam, read half: the symbolized index this backend
    /// serves queries from, if it keeps one. [`SymAdi`] returns itself
    /// and a durable store returns the index under its journal, so
    /// [`SymEngine`](crate::SymEngine) runs over either with static
    /// dispatch; string-indexed backends keep the default `None`, and
    /// the decision service refuses them at assembly.
    fn sym_index(&self) -> Option<&SymAdi> {
        None
    }

    /// Symbol-plane seam, write half: retain one already-interned
    /// record — [`SymAdi::add_sym`] plus whatever the backend owes
    /// durability first (a journaled store queues the frame, *then*
    /// updates the index). Called only on backends whose
    /// [`sym_index`](RetainedAdi::sym_index) is `Some`, which must
    /// override it.
    fn commit_sym(&mut self, record: SymRecord) {
        let _ = record;
        unreachable!("commit_sym on a backend without a symbol index");
    }

    /// Symbol-plane seam, §4.2 step 7: remove every record within a
    /// bound symbol pattern and return how many — [`SymAdi`]'s trie
    /// drain plus whatever the backend owes durability first (a
    /// journaled store queues the same purge frame
    /// [`purge`](RetainedAdi::purge) writes for the bound context the
    /// pattern came from, *then* drains the index). Called only on
    /// backends whose [`sym_index`](RetainedAdi::sym_index) is `Some`,
    /// which must override it.
    fn purge_sym(&mut self, pattern: &[BoundComp]) -> usize {
        let _ = pattern;
        unreachable!("purge_sym on a backend without a symbol index");
    }
}

/// In-memory retained ADI with a per-user index, as in the paper's
/// PERMIS implementation (§5.2: "stored as retained ADI in memory").
///
/// Test oracle only: the `context_active` scan is O(n) over every
/// retained record, so this backend is compiled only under `cfg(test)`
/// or the `test-oracle` feature and serves as the reference
/// implementation that the symbolized and persistent stores are
/// differentially checked against.
#[derive(Debug, Default, Clone)]
#[cfg(any(test, feature = "test-oracle"))]
pub struct MemoryAdi {
    /// user -> records, in insertion order.
    by_user: std::collections::HashMap<String, Vec<AdiRecord>>,
    len: usize,
}

#[cfg(any(test, feature = "test-oracle"))]
impl MemoryAdi {
    /// New empty store.
    pub fn new() -> Self {
        MemoryAdi::default()
    }

    /// Bulk-load records (start-up recovery path).
    pub fn load(records: impl IntoIterator<Item = AdiRecord>) -> Self {
        let mut adi = MemoryAdi::new();
        for r in records {
            adi.add(r);
        }
        adi
    }
}

#[cfg(any(test, feature = "test-oracle"))]
impl RetainedAdi for MemoryAdi {
    fn add(&mut self, record: AdiRecord) {
        self.by_user.entry(record.user.clone()).or_default().push(record);
        self.len += 1;
    }

    fn context_active(&self, bound: &BoundContext) -> bool {
        self.by_user.values().flatten().any(|r| bound.covers(&r.context))
    }

    fn visit_user_records(
        &self,
        user: &str,
        bound: &BoundContext,
        visitor: &mut dyn FnMut(&AdiRecord),
    ) {
        for r in self.by_user.get(user).into_iter().flatten() {
            if bound.covers(&r.context) {
                visitor(r);
            }
        }
    }

    fn purge(&mut self, bound: &BoundContext) -> usize {
        let mut removed = 0;
        self.by_user.retain(|_, records| {
            records.retain(|r| {
                let keep = !bound.covers(&r.context);
                if !keep {
                    removed += 1;
                }
                keep
            });
            !records.is_empty()
        });
        self.len -= removed;
        removed
    }

    fn purge_older_than(&mut self, cutoff: u64) -> usize {
        let mut removed = 0;
        self.by_user.retain(|_, records| {
            records.retain(|r| {
                let keep = r.timestamp >= cutoff;
                if !keep {
                    removed += 1;
                }
                keep
            });
            !records.is_empty()
        });
        self.len -= removed;
        removed
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.by_user.clear();
        self.len = 0;
    }

    fn snapshot(&self) -> Vec<AdiRecord> {
        let mut out: Vec<AdiRecord> = self.by_user.values().flatten().cloned().collect();
        sort_records(&mut out);
        out
    }
}

/// Total order so snapshots are comparable across backends (shared by
/// the concrete stores and the sharded store's exclusive view).
pub(crate) fn sort_records(records: &mut [AdiRecord]) {
    records.sort_by(|a, b| {
        (a.timestamp, &a.user, &a.context, &a.operation, &a.target, &a.roles).cmp(&(
            b.timestamp,
            &b.user,
            &b.context,
            &b.operation,
            &b.target,
            &b.roles,
        ))
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: &str, role: &str, ctx: &str, ts: u64) -> AdiRecord {
        AdiRecord {
            user: user.into(),
            roles: vec![RoleRef::new("employee", role)],
            operation: "op".into(),
            target: "t".into(),
            context: ctx.parse().unwrap(),
            timestamp: ts,
        }
    }

    fn bound(policy: &str, inst: &str) -> BoundContext {
        let name: context::ContextName = policy.parse().unwrap();
        name.bind(&inst.parse().unwrap()).unwrap()
    }

    #[test]
    fn add_and_query() {
        let mut adi = MemoryAdi::new();
        adi.add(rec("alice", "Teller", "Branch=York, Period=2006", 1));
        adi.add(rec("bob", "Auditor", "Branch=Leeds, Period=2006", 2));
        adi.add(rec("alice", "Clerk", "Branch=York, Period=2007", 3));
        assert_eq!(adi.len(), 3);

        let b06 = bound("Branch=*, Period=!", "Branch=York, Period=2006");
        assert!(adi.context_active(&b06));
        // Star scope: alice's Teller record found across branches.
        assert_eq!(adi.user_records("alice", &b06).len(), 1);
        assert_eq!(adi.user_records("bob", &b06).len(), 1);
        assert!(adi.user_records("carol", &b06).is_empty());

        let b07 = bound("Branch=*, Period=!", "Branch=York, Period=2007");
        assert_eq!(adi.user_records("alice", &b07).len(), 1);
        assert_eq!(adi.user_records("bob", &b07).len(), 0);
    }

    #[test]
    fn purge_covers_subordinates() {
        let mut adi = MemoryAdi::new();
        adi.add(rec("a", "r", "Branch=York, Period=2006", 1));
        adi.add(rec("b", "r", "Branch=York, Period=2006, Desk=3", 2));
        adi.add(rec("c", "r", "Branch=York, Period=2007", 3));
        let removed = adi.purge(&bound("Branch=*, Period=!", "Branch=Leeds, Period=2006"));
        assert_eq!(removed, 2); // star branch covers York; 2007 survives
        assert_eq!(adi.len(), 1);
        assert!(!adi.is_empty());
    }

    #[test]
    fn purge_older_than_cutoff() {
        let mut adi = MemoryAdi::new();
        for i in 0..10 {
            adi.add(rec("a", "r", "A=1", i));
        }
        assert_eq!(adi.purge_older_than(7), 7);
        assert_eq!(adi.len(), 3);
        assert!(adi.snapshot().iter().all(|r| r.timestamp >= 7));
    }

    #[test]
    fn clear_and_snapshot() {
        let mut adi = MemoryAdi::new();
        adi.add(rec("a", "r", "A=1", 2));
        adi.add(rec("b", "r", "A=2", 1));
        let snap = adi.snapshot();
        assert_eq!(snap.len(), 2);
        assert!(snap[0].timestamp <= snap[1].timestamp);
        adi.clear();
        assert!(adi.is_empty());
        assert!(!adi.context_active(&bound("A=!", "A=1")));
    }

    #[test]
    fn load_bulk() {
        let records = vec![rec("a", "r", "A=1", 1), rec("a", "r", "A=1", 2)];
        let adi = MemoryAdi::load(records);
        assert_eq!(adi.len(), 2);
        assert_eq!(adi.user_records("a", &bound("A=!", "A=1")).len(), 2);
    }
}
