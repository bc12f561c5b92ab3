//! An indexed retained-ADI store.
//!
//! [`MemoryAdi`](crate::adi::MemoryAdi) mirrors the paper's in-core
//! design: `context_active` and `purge` scan every record, which is the
//! §6 scalability complaint made concrete (experiment E8 measures the
//! degradation). [`IndexedAdi`] fixes the access paths with a **context
//! trie**: one node per business-context level, edges keyed by
//! `type=value` components, each node counting the records at and below
//! it. Bound-context queries walk the trie — literal components follow
//! one edge, `*` components fan out — so:
//!
//! - `context_active(bound)` costs O(depth × fan-out of starred levels)
//!   instead of O(records);
//! - `purge(bound)` touches only the records actually covered;
//! - per-user queries keep the user index, additionally filtered by a
//!   per-record context check (user histories are small by design).
//!
//! The E8/E8b tables of `examples/experiments.rs` compare the two
//! stores; behavioural
//! equivalence is property-tested below.

use std::collections::HashMap;

use context::{BoundContext, PatternValue};

use crate::adi::{AdiRecord, RetainedAdi};

/// Record identifier inside the store (slot index).
type Slot = usize;

#[derive(Debug, Default)]
struct TrieNode {
    /// Edge key: `"type\u{0}value"` of the next context component.
    children: HashMap<String, TrieNode>,
    /// Records whose context ends exactly at this node.
    records_here: Vec<Slot>,
    /// Number of live records at or below this node.
    subtree_count: usize,
}

fn edge_key(ctx_type: &str, value: &str) -> String {
    let mut k = String::with_capacity(ctx_type.len() + value.len() + 1);
    k.push_str(ctx_type);
    k.push('\u{0}');
    k.push_str(value);
    k
}

impl TrieNode {
    fn insert(&mut self, pairs: &[(String, String)], slot: Slot) {
        self.subtree_count += 1;
        match pairs.first() {
            None => self.records_here.push(slot),
            Some((t, v)) => {
                self.children.entry(edge_key(t, v)).or_default().insert(&pairs[1..], slot);
            }
        }
    }

    /// Walk the bound-context pattern; `visit` is called on every node
    /// at pattern depth (the policy scope roots). Returns early when
    /// `visit` returns `true`.
    fn walk<'a>(
        &'a self,
        pattern: &[(&str, &PatternValue)],
        visit: &mut dyn FnMut(&'a TrieNode) -> bool,
    ) -> bool {
        match pattern.first() {
            None => visit(self),
            Some((t, PatternValue::Literal(v))) => match self.children.get(&edge_key(t, v)) {
                Some(child) => child.walk(&pattern[1..], visit),
                None => false,
            },
            Some((t, _)) => {
                // AllInstances: follow every edge with a matching type.
                let prefix = format!("{t}\u{0}");
                for (k, child) in &self.children {
                    if k.starts_with(&prefix) && child.walk(&pattern[1..], visit) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Collect every live slot at/below nodes matching the pattern, and
    /// subtract their counts along the way. Returns collected slots.
    fn drain_matching(&mut self, pattern: &[(&str, &PatternValue)], out: &mut Vec<Slot>) -> usize {
        match pattern.first() {
            None => {
                let removed = self.subtree_count;
                self.collect_all(out);
                self.children.clear();
                self.records_here.clear();
                self.subtree_count = 0;
                removed
            }
            Some((t, PatternValue::Literal(v))) => {
                let key = edge_key(t, v);
                let removed = match self.children.get_mut(&key) {
                    Some(child) => {
                        let r = child.drain_matching(&pattern[1..], out);
                        if child.subtree_count == 0 {
                            self.children.remove(&key);
                        }
                        r
                    }
                    None => 0,
                };
                self.subtree_count -= removed;
                removed
            }
            Some((t, _)) => {
                let prefix = format!("{t}\u{0}");
                let mut removed = 0;
                let mut empty_keys = Vec::new();
                for (k, child) in self.children.iter_mut() {
                    if k.starts_with(&prefix) {
                        removed += child.drain_matching(&pattern[1..], out);
                        if child.subtree_count == 0 {
                            empty_keys.push(k.clone());
                        }
                    }
                }
                for k in empty_keys {
                    self.children.remove(&k);
                }
                self.subtree_count -= removed;
                removed
            }
        }
    }

    fn collect_all(&self, out: &mut Vec<Slot>) {
        out.extend_from_slice(&self.records_here);
        for child in self.children.values() {
            child.collect_all(out);
        }
    }
}

/// Context-trie-indexed retained ADI. Drop-in replacement for
/// [`MemoryAdi`](crate::adi::MemoryAdi) with sub-linear
/// `context_active`/`purge`.
#[derive(Debug, Default)]
pub struct IndexedAdi {
    /// Slot-addressed records; `None` marks purged slots (compacted
    /// away when more than half the slots are dead).
    records: Vec<Option<AdiRecord>>,
    live: usize,
    /// user -> live slots (lazily pruned on read).
    by_user: HashMap<String, Vec<Slot>>,
    root: TrieNode,
}

impl IndexedAdi {
    /// New empty store.
    pub fn new() -> Self {
        IndexedAdi::default()
    }

    /// Bulk-load records (start-up recovery path).
    pub fn load(records: impl IntoIterator<Item = AdiRecord>) -> Self {
        let mut adi = IndexedAdi::new();
        for r in records {
            adi.add(r);
        }
        adi
    }

    fn pattern_of(bound: &BoundContext) -> Vec<(&str, &PatternValue)> {
        bound.name().components().iter().map(|c| (c.ctx_type.as_str(), &c.value)).collect()
    }

    fn maybe_compact(&mut self) {
        if self.records.len() < 64 || self.live * 2 > self.records.len() {
            return;
        }
        // Rebuild slot-addressed storage and both indexes.
        let old = std::mem::take(&mut self.records);
        self.by_user.clear();
        self.root = TrieNode::default();
        self.live = 0;
        for rec in old.into_iter().flatten() {
            self.add(rec);
        }
    }
}

impl RetainedAdi for IndexedAdi {
    fn add(&mut self, record: AdiRecord) {
        let slot = self.records.len();
        self.by_user.entry(record.user.clone()).or_default().push(slot);
        self.root.insert(record.context.pairs(), slot);
        self.records.push(Some(record));
        self.live += 1;
    }

    fn context_active(&self, bound: &BoundContext) -> bool {
        let pattern = Self::pattern_of(bound);
        self.root.walk(&pattern, &mut |node| node.subtree_count > 0)
    }

    fn visit_user_records(
        &self,
        user: &str,
        bound: &BoundContext,
        visitor: &mut dyn FnMut(&AdiRecord),
    ) {
        for &slot in self.by_user.get(user).into_iter().flatten() {
            if let Some(rec) = self.records.get(slot).and_then(Option::as_ref) {
                if bound.covers(&rec.context) {
                    visitor(rec);
                }
            }
        }
    }

    fn purge(&mut self, bound: &BoundContext) -> usize {
        let pattern = Self::pattern_of(bound);
        let mut slots = Vec::new();
        let removed = self.root.drain_matching(&pattern, &mut slots);
        debug_assert_eq!(removed, slots.len());
        for slot in slots {
            if let Some(rec) = self.records[slot].take() {
                if let Some(user_slots) = self.by_user.get_mut(&rec.user) {
                    user_slots.retain(|&s| s != slot);
                }
                self.live -= 1;
            }
        }
        self.maybe_compact();
        removed
    }

    fn purge_older_than(&mut self, cutoff: u64) -> usize {
        // Age has no index; rebuild (administrative operation, rare).
        let old = std::mem::take(&mut self.records);
        let keep: Vec<AdiRecord> =
            old.into_iter().flatten().filter(|r| r.timestamp >= cutoff).collect();
        let removed = self.live - keep.len();
        *self = IndexedAdi::load(keep);
        removed
    }

    fn len(&self) -> usize {
        self.live
    }

    fn clear(&mut self) {
        *self = IndexedAdi::new();
    }

    fn snapshot(&self) -> Vec<AdiRecord> {
        let mut out: Vec<AdiRecord> = self.records.iter().flatten().cloned().collect();
        out.sort_by(|a, b| {
            (a.timestamp, &a.user, &a.context, &a.operation, &a.target, &a.roles).cmp(&(
                b.timestamp,
                &b.user,
                &b.context,
                &b.operation,
                &b.target,
                &b.roles,
            ))
        });
        out
    }
}

/// Clone rebuilds the indexes from the live records.
impl Clone for IndexedAdi {
    fn clone(&self) -> Self {
        IndexedAdi::load(self.records.iter().flatten().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::privilege::RoleRef;
    use context::ContextName;

    fn rec(user: &str, role: &str, ctx: &str, ts: u64) -> AdiRecord {
        AdiRecord {
            user: user.into(),
            roles: vec![RoleRef::new("e", role)],
            operation: "op".into(),
            target: "t".into(),
            context: ctx.parse().unwrap(),
            timestamp: ts,
        }
    }

    fn bound(policy: &str, inst: &str) -> BoundContext {
        let name: ContextName = policy.parse().unwrap();
        name.bind(&inst.parse().unwrap()).unwrap()
    }

    #[test]
    fn add_query_purge() {
        let mut adi = IndexedAdi::new();
        adi.add(rec("alice", "Teller", "Branch=York, Period=2006", 1));
        adi.add(rec("bob", "Auditor", "Branch=Leeds, Period=2006", 2));
        adi.add(rec("alice", "Clerk", "Branch=York, Period=2007", 3));
        assert_eq!(adi.len(), 3);

        let b06 = bound("Branch=*, Period=!", "Branch=Hull, Period=2006");
        assert!(adi.context_active(&b06));
        assert_eq!(adi.user_records("alice", &b06).len(), 1);
        assert_eq!(adi.user_records("bob", &b06).len(), 1);

        assert_eq!(adi.purge(&b06), 2);
        assert_eq!(adi.len(), 1);
        assert!(!adi.context_active(&b06));
        let b07 = bound("Branch=*, Period=!", "Branch=York, Period=2007");
        assert!(adi.context_active(&b07));
    }

    #[test]
    fn star_walk_fans_out() {
        let mut adi = IndexedAdi::new();
        for branch in ["York", "Leeds", "Hull"] {
            adi.add(rec("u", "r", &format!("Branch={branch}, Period=2006"), 1));
        }
        // Literal walk finds only its branch.
        let literal = bound("Branch=York, Period=!", "Branch=York, Period=2006");
        assert_eq!(adi.purge(&literal), 1);
        assert_eq!(adi.len(), 2);
        // Star walk finds the rest.
        let star = bound("Branch=*, Period=!", "Branch=York, Period=2006");
        assert_eq!(adi.purge(&star), 2);
        assert!(adi.is_empty());
    }

    #[test]
    fn subordinate_records_covered() {
        let mut adi = IndexedAdi::new();
        adi.add(rec("u", "r", "Proc=1, Step=a", 1));
        adi.add(rec("u", "r", "Proc=1", 2));
        adi.add(rec("u", "r", "Proc=2, Step=b", 3));
        let b = bound("Proc=!", "Proc=1");
        assert!(adi.context_active(&b));
        assert_eq!(adi.user_records("u", &b).len(), 2);
        assert_eq!(adi.purge(&b), 2);
        assert_eq!(adi.len(), 1);
    }

    #[test]
    fn purge_older_than_rebuilds() {
        let mut adi = IndexedAdi::new();
        for i in 0..10 {
            adi.add(rec("u", "r", "P=1", i));
        }
        assert_eq!(adi.purge_older_than(6), 6);
        assert_eq!(adi.len(), 4);
        assert!(adi.context_active(&bound("P=!", "P=1")));
    }

    #[test]
    fn compaction_keeps_answers_correct() {
        let mut adi = IndexedAdi::new();
        // Many adds and purges to trigger compaction.
        for round in 0..20 {
            for i in 0..20 {
                adi.add(rec(&format!("u{i}"), "r", &format!("P={round}"), i));
            }
            if round % 2 == 0 {
                adi.purge(&bound("P=!", &format!("P={round}")));
            }
        }
        // Odd rounds survive: 10 rounds × 20 records.
        assert_eq!(adi.len(), 200);
        assert!(adi.context_active(&bound("P=!", "P=1")));
        assert!(!adi.context_active(&bound("P=!", "P=2")));
        assert_eq!(adi.user_records("u3", &bound("P=!", "P=7")).len(), 1);
    }

    #[test]
    fn clone_is_deep() {
        let mut a = IndexedAdi::new();
        a.add(rec("u", "r", "P=1", 1));
        let mut b = a.clone();
        b.purge(&bound("P=!", "P=1"));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 0);
    }
}
