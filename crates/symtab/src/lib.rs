#![warn(missing_docs)]
//! # symtab — arena interner for the MSoD symbol plane
//!
//! Every identity the decision path touches — users, role
//! (type, value) pairs, privilege (operation, target) pairs and
//! business-context (type, value) pairs — is interned once at the
//! admission boundary into a dense `u32` symbol. Downstream layers
//! (policy matchers, the enforcement engine, the ADI index, the
//! sharded write plane) then compare and hash plain integers: no
//! string hashing, no clones, no allocation on the warm path.
//!
//! Two kinds of pool:
//!
//! - [`Sym`] — a raw interned string (role types/values, operations,
//!   targets, context types/values all share one arena);
//! - pair symbols built on top of raw symbols: [`RoleId`] for
//!   `(type, value)`, [`PrivId`] for `(operation, target)`, [`CtxId`]
//!   for one bound context component. [`UserId`] gets its own dense
//!   arena so per-user indexes can be flat vectors.
//!
//! Symbols are append-only and never recycled: an id, once handed
//! out, resolves to the same string for the lifetime of the table.
//! A warm lookup takes a read lock and hashes the key — no
//! allocation (pinned by the `zero_alloc_decide` test in the facade
//! crate). Interning a *new* string allocates once, which only
//! happens the first time an identity is ever seen.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

macro_rules! symbol_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(u32);

        impl $name {
            /// The raw dense id.
            pub const fn as_u32(self) -> u32 {
                self.0
            }

            /// The id as a vector index.
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Rebuild from a raw id (e.g. decoded from a journal).
            /// The caller is responsible for the id having come from
            /// the same table.
            pub const fn from_u32(raw: u32) -> Self {
                $name(raw)
            }
        }
    };
}

symbol_newtype! {
    /// A raw interned string (shared arena).
    Sym
}
symbol_newtype! {
    /// An interned user (its own dense arena).
    UserId
}
symbol_newtype! {
    /// An interned role `(type, value)` pair.
    RoleId
}
symbol_newtype! {
    /// An interned privilege `(operation, target)` pair.
    PrivId
}
symbol_newtype! {
    /// An interned business-context `(type, value)` pair.
    CtxId
}

/// Append-only string arena. The map key and the arena slot share one
/// `Arc<str>`, so each distinct string is stored exactly once.
#[derive(Debug, Default)]
struct StrPool {
    inner: RwLock<StrPoolInner>,
}

#[derive(Debug, Default)]
struct StrPoolInner {
    map: HashMap<Arc<str>, u32>,
    items: Vec<Arc<str>>,
}

impl StrPool {
    /// Warm path: read lock + hash, no allocation.
    fn get(&self, s: &str) -> Option<u32> {
        self.inner.read().map.get(s).copied()
    }

    fn intern(&self, s: &str) -> u32 {
        if let Some(id) = self.get(s) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.map.get(s) {
            return id;
        }
        let id = u32::try_from(inner.items.len()).expect("symbol arena overflow");
        let arc: Arc<str> = Arc::from(s);
        inner.items.push(Arc::clone(&arc));
        inner.map.insert(arc, id);
        id
    }

    /// Panics on an id the pool never issued.
    fn resolve(&self, id: u32) -> Arc<str> {
        Arc::clone(&self.inner.read().items[id as usize])
    }

    fn len(&self) -> usize {
        self.inner.read().items.len()
    }

    fn capacity(&self) -> usize {
        self.inner.read().items.capacity()
    }
}

/// Append-only arena of `(u32, u32)` pairs over some other pool's ids.
#[derive(Debug, Default)]
struct PairPool {
    inner: RwLock<PairPoolInner>,
}

#[derive(Debug, Default)]
struct PairPoolInner {
    map: HashMap<(u32, u32), u32>,
    items: Vec<(u32, u32)>,
}

impl PairPool {
    fn get(&self, key: (u32, u32)) -> Option<u32> {
        self.inner.read().map.get(&key).copied()
    }

    fn intern(&self, key: (u32, u32)) -> u32 {
        if let Some(id) = self.get(key) {
            return id;
        }
        let mut inner = self.inner.write();
        if let Some(&id) = inner.map.get(&key) {
            return id;
        }
        let id = u32::try_from(inner.items.len()).expect("symbol arena overflow");
        inner.items.push(key);
        inner.map.insert(key, id);
        id
    }

    /// Panics on an id the pool never issued.
    fn resolve(&self, id: u32) -> (u32, u32) {
        self.inner.read().items[id as usize]
    }

    fn len(&self) -> usize {
        self.inner.read().items.len()
    }

    fn capacity(&self) -> usize {
        self.inner.read().items.capacity()
    }
}

/// The shared symbol table. One per decision service; policies are
/// compiled against it and ADI shards store symbols from it, so the
/// table must outlive (and be shared by) both — hand it around as
/// `Arc<SymbolTable>`.
///
/// All methods take `&self`; interning is append-only and thread-safe.
#[derive(Debug, Default)]
pub struct SymbolTable {
    strings: StrPool,
    users: StrPool,
    roles: PairPool,
    privs: PairPool,
    ctx_pairs: PairPool,
}

impl SymbolTable {
    /// A fresh, empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    // --- raw strings ----------------------------------------------------

    /// Intern a raw string (allocates only on first sight).
    pub fn intern_str(&self, s: &str) -> Sym {
        Sym(self.strings.intern(s))
    }

    /// Look up a raw string without interning. Allocation-free.
    pub fn lookup_str(&self, s: &str) -> Option<Sym> {
        self.strings.get(s).map(Sym)
    }

    /// Resolve a raw symbol back to its string.
    pub fn resolve_str(&self, sym: Sym) -> Arc<str> {
        self.strings.resolve(sym.0)
    }

    // --- users ----------------------------------------------------------

    /// Intern a user id (dense arena of its own).
    pub fn intern_user(&self, user: &str) -> UserId {
        UserId(self.users.intern(user))
    }

    /// Look up a user without interning. Allocation-free.
    pub fn lookup_user(&self, user: &str) -> Option<UserId> {
        self.users.get(user).map(UserId)
    }

    /// Resolve a user symbol back to the user string.
    pub fn resolve_user(&self, id: UserId) -> Arc<str> {
        self.users.resolve(id.0)
    }

    /// Number of distinct users interned so far (upper bound for flat
    /// per-user vectors).
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    // --- roles ----------------------------------------------------------

    /// Intern a role `(type, value)` pair.
    pub fn intern_role(&self, role_type: &str, value: &str) -> RoleId {
        let t = self.strings.intern(role_type);
        let v = self.strings.intern(value);
        RoleId(self.roles.intern((t, v)))
    }

    /// Look up a role pair without interning. Allocation-free.
    pub fn lookup_role(&self, role_type: &str, value: &str) -> Option<RoleId> {
        let t = self.strings.get(role_type)?;
        let v = self.strings.get(value)?;
        self.roles.get((t, v)).map(RoleId)
    }

    /// Resolve a role symbol back to its `(type, value)` strings.
    pub fn resolve_role(&self, id: RoleId) -> (Arc<str>, Arc<str>) {
        let (t, v) = self.roles.resolve(id.0);
        (self.strings.resolve(t), self.strings.resolve(v))
    }

    /// The raw `(type, value)` string symbols a role pair was built
    /// from. Allocation-free.
    pub fn role_syms(&self, id: RoleId) -> (Sym, Sym) {
        let (t, v) = self.roles.resolve(id.0);
        (Sym(t), Sym(v))
    }

    // --- privileges -----------------------------------------------------

    /// Intern a privilege `(operation, target)` pair.
    pub fn intern_priv(&self, operation: &str, target: &str) -> PrivId {
        let o = self.strings.intern(operation);
        let t = self.strings.intern(target);
        PrivId(self.privs.intern((o, t)))
    }

    /// Look up a privilege pair without interning. Allocation-free.
    pub fn lookup_priv(&self, operation: &str, target: &str) -> Option<PrivId> {
        let o = self.strings.get(operation)?;
        let t = self.strings.get(target)?;
        self.privs.get((o, t)).map(PrivId)
    }

    /// Resolve a privilege symbol back to `(operation, target)`.
    pub fn resolve_priv(&self, id: PrivId) -> (Arc<str>, Arc<str>) {
        let (o, t) = self.privs.resolve(id.0);
        (self.strings.resolve(o), self.strings.resolve(t))
    }

    /// The raw `(operation, target)` string symbols a privilege pair
    /// was built from. Allocation-free.
    pub fn priv_syms(&self, id: PrivId) -> (Sym, Sym) {
        let (o, t) = self.privs.resolve(id.0);
        (Sym(o), Sym(t))
    }

    // --- context pairs --------------------------------------------------

    /// Intern one business-context `(type, value)` component.
    pub fn intern_ctx_pair(&self, ctx_type: &str, value: &str) -> CtxId {
        let t = self.strings.intern(ctx_type);
        let v = self.strings.intern(value);
        CtxId(self.ctx_pairs.intern((t, v)))
    }

    /// Look up a context component without interning. Allocation-free.
    pub fn lookup_ctx_pair(&self, ctx_type: &str, value: &str) -> Option<CtxId> {
        let t = self.strings.get(ctx_type)?;
        let v = self.strings.get(value)?;
        self.ctx_pairs.get((t, v)).map(CtxId)
    }

    /// Resolve a context component back to `(type, value)`.
    pub fn resolve_ctx_pair(&self, id: CtxId) -> (Arc<str>, Arc<str>) {
        let (t, v) = self.ctx_pairs.resolve(id.0);
        (self.strings.resolve(t), self.strings.resolve(v))
    }

    /// The type symbol of a context component — what `*` patterns
    /// match on.
    pub fn ctx_type_of(&self, id: CtxId) -> Sym {
        Sym(self.ctx_pairs.resolve(id.0).0)
    }

    /// The raw `(type, value)` string symbols a context component was
    /// built from. Allocation-free.
    pub fn ctx_syms(&self, id: CtxId) -> (Sym, Sym) {
        let (t, v) = self.ctx_pairs.resolve(id.0);
        (Sym(t), Sym(v))
    }

    /// Distinct strings / users / roles / privileges / context pairs
    /// interned, for diagnostics.
    pub fn counts(&self) -> TableCounts {
        TableCounts {
            strings: self.strings.len(),
            users: self.users.len(),
            roles: self.roles.len(),
            privs: self.privs.len(),
            ctx_pairs: self.ctx_pairs.len(),
        }
    }

    /// Allocated arena slots per pool (same shape as [`counts`], but
    /// each field is the pool's current capacity). Together with the
    /// counts this gives size/capacity gauges for capacity planning:
    /// a pool approaching its capacity is about to reallocate.
    ///
    /// [`counts`]: SymbolTable::counts
    pub fn capacities(&self) -> TableCounts {
        TableCounts {
            strings: self.strings.capacity(),
            users: self.users.capacity(),
            roles: self.roles.capacity(),
            privs: self.privs.capacity(),
            ctx_pairs: self.ctx_pairs.capacity(),
        }
    }
}

/// Arena sizes, for diagnostics and capacity planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableCounts {
    /// Distinct raw strings.
    pub strings: usize,
    /// Distinct users.
    pub users: usize,
    /// Distinct role pairs.
    pub roles: usize,
    /// Distinct privilege pairs.
    pub privs: usize,
    /// Distinct context components.
    pub ctx_pairs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let t = SymbolTable::new();
        let a = t.intern_str("alpha");
        let b = t.intern_str("beta");
        assert_ne!(a, b);
        assert_eq!(t.intern_str("alpha"), a);
        assert_eq!(a.as_u32(), 0);
        assert_eq!(b.as_u32(), 1);
        assert_eq!(&*t.resolve_str(a), "alpha");
        assert_eq!(t.lookup_str("beta"), Some(b));
        assert_eq!(t.lookup_str("gamma"), None);
    }

    #[test]
    fn pair_spaces_are_independent() {
        let t = SymbolTable::new();
        let r = t.intern_role("employee", "Teller");
        let p = t.intern_priv("employee", "Teller");
        // Same underlying strings, distinct pair spaces and both dense
        // from zero.
        assert_eq!(r.as_u32(), 0);
        assert_eq!(p.as_u32(), 0);
        let (ty, v) = t.resolve_role(r);
        assert_eq!((&*ty, &*v), ("employee", "Teller"));
        let (op, tgt) = t.resolve_priv(p);
        assert_eq!((&*op, &*tgt), ("employee", "Teller"));
        // The pair accessors hand back the shared string symbols.
        let parts = (t.intern_str("employee"), t.intern_str("Teller"));
        assert_eq!(t.role_syms(r), parts);
        assert_eq!(t.priv_syms(p), parts);
    }

    #[test]
    fn users_are_dense() {
        let t = SymbolTable::new();
        for i in 0..100 {
            let id = t.intern_user(&format!("user{i}"));
            assert_eq!(id.index(), i);
        }
        assert_eq!(t.user_count(), 100);
        assert_eq!(&*t.resolve_user(UserId::from_u32(7)), "user7");
    }

    #[test]
    fn ctx_type_of_matches_pair() {
        let t = SymbolTable::new();
        let c = t.intern_ctx_pair("Branch", "York");
        assert_eq!(t.ctx_type_of(c), t.intern_str("Branch"));
        assert_eq!(t.ctx_syms(c), (t.intern_str("Branch"), t.intern_str("York")));
        let c2 = t.intern_ctx_pair("Branch", "Leeds");
        assert_eq!(t.ctx_type_of(c2), t.ctx_type_of(c));
    }

    #[test]
    fn lookup_never_interns() {
        let t = SymbolTable::new();
        assert!(t.lookup_role("a", "b").is_none());
        assert_eq!(t.counts().strings, 0);
        t.intern_str("a");
        t.intern_str("b");
        // Strings known but the pair not yet interned.
        assert!(t.lookup_role("a", "b").is_none());
        assert_eq!(t.counts().roles, 0);
    }

    #[test]
    fn capacities_bound_counts() {
        let t = SymbolTable::new();
        t.intern_role("employee", "Teller");
        t.intern_user("alice");
        t.intern_priv("audit", "books");
        t.intern_ctx_pair("Branch", "York");
        let counts = t.counts();
        let caps = t.capacities();
        assert!(caps.strings >= counts.strings);
        assert!(caps.users >= counts.users);
        assert!(caps.roles >= counts.roles);
        assert!(caps.privs >= counts.privs);
        assert!(caps.ctx_pairs >= counts.ctx_pairs);
        assert!(caps.roles > 0);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let t = std::sync::Arc::new(SymbolTable::new());
        let ids: Vec<Vec<RoleId>> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let t = std::sync::Arc::clone(&t);
                    s.spawn(move || {
                        (0..64).map(|i| t.intern_role("ty", &format!("r{}", i % 16))).collect()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // Every thread resolved the same 16 values to the same ids.
        for per_thread in &ids[1..] {
            assert_eq!(per_thread, &ids[0]);
        }
        assert_eq!(t.counts().roles, 16);
    }

    proptest! {
        /// Satellite coverage: intern → resolve round-trips for every
        /// symbol space, and re-interning the resolved string yields
        /// the same id.
        #[test]
        fn intern_resolve_round_trip(strings in proptest::collection::vec("[a-zA-Z0-9=,:/ ]{0,24}", 1..40)) {
            let t = SymbolTable::new();
            for s in &strings {
                let sym = t.intern_str(s);
                prop_assert_eq!(&*t.resolve_str(sym), s.as_str());
                prop_assert_eq!(t.intern_str(s), sym);

                let u = t.intern_user(s);
                prop_assert_eq!(&*t.resolve_user(u), s.as_str());
                prop_assert_eq!(t.lookup_user(s), Some(u));
            }
            for pair in strings.windows(2) {
                let r = t.intern_role(&pair[0], &pair[1]);
                let (ty, v) = t.resolve_role(r);
                prop_assert_eq!(&*ty, pair[0].as_str());
                prop_assert_eq!(&*v, pair[1].as_str());
                prop_assert_eq!(t.intern_role(&ty, &v), r);

                let p = t.intern_priv(&pair[0], &pair[1]);
                let (op, tgt) = t.resolve_priv(p);
                prop_assert_eq!(t.intern_priv(&op, &tgt), p);

                let c = t.intern_ctx_pair(&pair[0], &pair[1]);
                let (ct, cv) = t.resolve_ctx_pair(c);
                prop_assert_eq!(t.intern_ctx_pair(&ct, &cv), c);
                prop_assert_eq!(t.ctx_type_of(c), t.intern_str(&pair[0]));
            }
        }
    }
}
