//! The symbol plane: interned requests, flat multiset matchers and an
//! allocation-free enforcement fast path.
//!
//! Every identity a decision touches is interned once at the admission
//! boundary into dense `u32` symbols ([`symtab`]); policies are compiled
//! into flat `(symbol, multiplicity)` matchers at load time; and the
//! retained ADI stores symbols in a context trie keyed by packed `u64`
//! pairs. The warm path — [`SymEngine::enforce_sharded`] over a
//! [`ShardedAdi`] whose shards expose a [`SymAdi`] through the
//! [`RetainedAdi::sym_index`] / [`RetainedAdi::commit_sym`] seam
//! ([`SymAdi`] itself in memory, the journaled store in a durable
//! deployment) — compares and hashes plain integers
//! and performs **zero heap allocations** for every decision that does
//! not retain a new record (denies, not-applicable, and grants outside
//! any constraint). Committing a record allocates the record's own
//! storage and, amortized, the indexes' growth; interning a
//! never-before-seen string allocates once for the lifetime of the
//! table.
//!
//! A matched policy's **last step** is decided on symbols too. §4.2
//! step 7 purges across users, so such a request runs in the store's
//! exclusive section (epoch write lock, every shard lock in index
//! order): step 3 reads every held shard, steps 4–6 run the same
//! `evaluate` on the user's shard, the record commits through
//! [`RetainedAdi::commit_sym`], and each terminating policy's bound
//! pattern is purged on every shard through [`RetainedAdi::purge_sym`].
//!
//! [`dispatch`] is the one entry to the plane: it interns the request
//! and runs the compiled engine over the store's shards, in memory or
//! journaled alike. Every limit is fixed and fails closed:
//!
//! - a policy's constraints may list at most [`MAX_POLICY_TALLY`]
//!   distinct entries; [`crate::MsodPolicy::new`] refuses more, so
//!   [`SymEngine::compile`] accepts every set that can be built;
//! - a request with more than [`MAX_REQ_ROLES`] roles or
//!   [`MAX_CTX_DEPTH`] context components, or one that more than
//!   [`MAX_MATCHED`] policies match, is denied unevaluated
//!   ([`MsodDecision::ResourceLimit`]) and the store is untouched. A
//!   policy deeper than [`MAX_CTX_DEPTH`] compiles, but every request
//!   it can match is over the depth limit.
//!
//! Every shard of one store must intern through one table
//! ([`ShardedAdi::sym_table`] refuses a store whose shards do not).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use context::{BoundContext, ContextInstance, PatternValue};
use symtab::{CtxId, PrivId, RoleId, Sym, SymbolTable, UserId};

use crate::adi::{sort_records, AdiRecord, RetainedAdi};
use crate::engine::{
    ConstraintKind, DenyDetail, EngineOptions, GrantDetail, MsodDecision, MsodRequest,
};
use crate::explain::MsodExplanation;
use crate::policy::MsodPolicySet;
use crate::sharded::{ExclusiveView, ShardedAdi, TimedShardGuard};

/// Most activated roles a fast-path request may carry.
pub const MAX_REQ_ROLES: usize = 16;
/// Deepest context instance a fast-path request may carry.
pub const MAX_CTX_DEPTH: usize = 16;
/// Most policies that may match one fast-path request.
pub const MAX_MATCHED: usize = 32;
/// Most distinct constraint entries across one policy's constraints.
pub const MAX_POLICY_TALLY: usize = 64;

/// Which fixed request bound a request exceeded; the decision engine
/// denies such a request without evaluating it
/// ([`MsodDecision::ResourceLimit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestLimit {
    /// More than [`MAX_REQ_ROLES`] activated roles.
    Roles,
    /// A context instance deeper than [`MAX_CTX_DEPTH`] components.
    ContextDepth,
    /// More than [`MAX_MATCHED`] policies match the context instance.
    MatchedPolicies,
}

impl std::fmt::Display for RequestLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (max, what) = match self {
            RequestLimit::Roles => (MAX_REQ_ROLES, "activated roles"),
            RequestLimit::ContextDepth => (MAX_CTX_DEPTH, "context components"),
            RequestLimit::MatchedPolicies => (MAX_MATCHED, "matching MSoD policies"),
        };
        write!(f, "more than {max} {what}")
    }
}

/// One concrete business-context component as the symbol plane sees
/// it: the component's type symbol plus the interned `(type, value)`
/// pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtxPair {
    /// The component's context-type symbol (what `*` patterns match).
    pub ty: Sym,
    /// The interned `(type, value)` pair.
    pub id: CtxId,
}

/// A compiled policy-context component value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymPattern {
    /// `*` — any value of the component type.
    Any,
    /// `!` — bound to the request instance's value at this depth.
    PerInstance,
    /// A literal `(type, value)` pair.
    Exact(CtxId),
}

/// A compiled policy-context component.
#[derive(Debug, Clone, Copy)]
struct SymComponent {
    ty: Sym,
    pattern: SymPattern,
}

/// One component of a *bound* context (no `!` left): either any value
/// of a type or one exact pair. A slice of them is the symbol form of a
/// [`BoundContext`], which [`RetainedAdi::purge_sym`] purges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundComp {
    /// `*` — any value of this type.
    Any(Sym),
    /// Exactly this `(type, value)` pair.
    Exact(CtxPair),
}

fn comp_matches(comp: BoundComp, pair: CtxPair) -> bool {
    match comp {
        BoundComp::Any(ty) => pair.ty == ty,
        BoundComp::Exact(want) => pair == want,
    }
}

/// Whether a bound pattern covers a record's context (equal or
/// subordinate — mirror of `BoundContext::covers`).
fn pattern_covers(pattern: &[BoundComp], ctx: &[CtxPair]) -> bool {
    ctx.len() >= pattern.len() && pattern.iter().zip(ctx).all(|(&c, &p)| comp_matches(c, p))
}

/// A compiled MMER: distinct role symbols with multiplicities, sorted
/// by symbol, plus the forbidden cardinality. `offset` indexes the
/// policy-wide tally scratch space.
#[derive(Debug, Clone)]
struct SymMmer {
    entries: Vec<(RoleId, u32)>,
    offset: usize,
    m: usize,
}

/// A compiled MMEP (same layout over privilege symbols).
#[derive(Debug, Clone)]
struct SymMmep {
    entries: Vec<(PrivId, u32)>,
    offset: usize,
    m: usize,
}

/// One compiled MSoD policy.
#[derive(Debug, Clone)]
struct SymPolicy {
    components: Vec<SymComponent>,
    first_step: Option<PrivId>,
    last_step: Option<PrivId>,
    mmer: Vec<SymMmer>,
    mmep: Vec<SymMmep>,
}

impl SymPolicy {
    /// Whether the request touches any of the policy's constraints: one
    /// of its roles is an MMER entry, or its privilege an MMEP entry.
    fn touched_by(&self, req: &SymRequest<'_>) -> bool {
        self.mmer.iter().any(|c| c.entries.iter().any(|(role, _)| req.roles.contains(role)))
            || self.mmep.iter().any(|c| c.entries.iter().any(|&(pr, _)| pr == req.priv_id))
    }

    /// §4.2 step 1 matching, on symbols.
    fn matches_instance(&self, ctx: &[CtxPair]) -> bool {
        ctx.len() >= self.components.len()
            && self.components.iter().zip(ctx).all(|(c, p)| {
                c.ty == p.ty
                    && match c.pattern {
                        SymPattern::Any | SymPattern::PerInstance => true,
                        SymPattern::Exact(id) => id == p.id,
                    }
            })
    }
}

/// Dedup a slice of interned entries into sorted
/// `(symbol, multiplicity)` pairs.
fn dedup_sorted<T: Copy + Ord>(mut ids: Vec<T>) -> Vec<(T, u32)> {
    ids.sort_unstable();
    let mut out: Vec<(T, u32)> = Vec::new();
    for id in ids {
        match out.last_mut() {
            Some((last, n)) if *last == id => *n += 1,
            _ => out.push((id, 1)),
        }
    }
    out
}

/// The compiled, symbolized MSoD engine: flat matchers over the policy
/// set, evaluated against the [`SymAdi`] indexes of a [`ShardedAdi`]
/// without allocating.
#[derive(Debug, Clone)]
pub struct SymEngine {
    policies: Vec<SymPolicy>,
    strict_first_step: bool,
    /// The set this engine was compiled from: [`dispatch`] binds the
    /// contexts a verdict reports (`terminated`, a deny's `bound`)
    /// from it.
    source: MsodPolicySet,
}

impl SymEngine {
    /// Compile a policy set against `table`, interning every role,
    /// privilege and literal context pair the policies name. Returns
    /// `Some` for every set: the per-policy bound
    /// ([`MAX_POLICY_TALLY`]) is enforced when a policy is built, and
    /// requests beyond the other bounds are denied per request by
    /// [`dispatch`].
    pub fn compile(
        set: &MsodPolicySet,
        options: &EngineOptions,
        table: &SymbolTable,
    ) -> Option<SymEngine> {
        let mut policies = Vec::with_capacity(set.len());
        for p in set.policies() {
            let name = &p.business_context;
            let components = name
                .components()
                .iter()
                .map(|c| SymComponent {
                    ty: table.intern_str(&c.ctx_type),
                    pattern: match &c.value {
                        PatternValue::AllInstances => SymPattern::Any,
                        PatternValue::PerInstance => SymPattern::PerInstance,
                        PatternValue::Literal(v) => {
                            SymPattern::Exact(table.intern_ctx_pair(&c.ctx_type, v))
                        }
                    },
                })
                .collect();
            let mut offset = 0usize;
            let mut mmer = Vec::with_capacity(p.mmer().len());
            for c in p.mmer() {
                let ids =
                    c.roles().iter().map(|r| table.intern_role(&r.role_type, &r.value)).collect();
                let entries = dedup_sorted(ids);
                let at = offset;
                offset += entries.len();
                mmer.push(SymMmer { entries, offset: at, m: c.forbidden_cardinality() });
            }
            let mut mmep = Vec::with_capacity(p.mmep().len());
            for c in p.mmep() {
                let ids = c
                    .privileges()
                    .iter()
                    .map(|pr| table.intern_priv(&pr.operation, &pr.target))
                    .collect();
                let entries = dedup_sorted(ids);
                let at = offset;
                offset += entries.len();
                mmep.push(SymMmep { entries, offset: at, m: c.forbidden_cardinality() });
            }
            debug_assert!(offset <= MAX_POLICY_TALLY, "MsodPolicy::new bounds the tally");
            policies.push(SymPolicy {
                components,
                first_step: p
                    .first_step
                    .as_ref()
                    .map(|pr| table.intern_priv(&pr.operation, &pr.target)),
                last_step: p
                    .last_step
                    .as_ref()
                    .map(|pr| table.intern_priv(&pr.operation, &pr.target)),
                mmer,
                mmep,
            });
        }
        Some(SymEngine {
            policies,
            strict_first_step: options.check_constraints_on_first_step,
            source: set.clone(),
        })
    }

    /// Number of compiled policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the compiled set is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

/// A fully interned request, borrowing its role and context slices
/// from caller-owned [`ReqBufs`].
#[derive(Debug, Clone, Copy)]
pub struct SymRequest<'a> {
    /// The interned user.
    pub user: UserId,
    /// The raw user string — shard routing hashes this, so the symbol
    /// engine and string-keyed access (management, loads) agree on
    /// shard placement.
    pub user_str: &'a str,
    /// The activated roles.
    pub roles: &'a [RoleId],
    /// The requested `(operation, target)` privilege.
    pub priv_id: PrivId,
    /// The concrete context instance, outermost first.
    pub ctx: &'a [CtxPair],
    /// Grant timestamp to retain.
    pub timestamp: u64,
}

impl SymRequest<'_> {
    /// The record a grant of this request retains.
    fn record(&self) -> SymRecord {
        SymRecord {
            user: self.user,
            roles: self.roles.to_vec(),
            priv_id: self.priv_id,
            ctx: self.ctx.to_vec(),
            timestamp: self.timestamp,
        }
    }
}

/// Caller-owned scratch for [`intern_request`]: fixed-size role and
/// context buffers the returned [`SymRequest`] borrows from.
#[derive(Debug)]
pub struct ReqBufs {
    roles: [RoleId; MAX_REQ_ROLES],
    ctx: [CtxPair; MAX_CTX_DEPTH],
}

impl Default for ReqBufs {
    fn default() -> Self {
        ReqBufs {
            roles: [RoleId::from_u32(0); MAX_REQ_ROLES],
            ctx: [CtxPair { ty: Sym::from_u32(0), id: CtxId::from_u32(0) }; MAX_CTX_DEPTH],
        }
    }
}

impl ReqBufs {
    /// Fresh scratch buffers.
    pub fn new() -> Self {
        ReqBufs::default()
    }
}

/// Intern a string request at the admission boundary. Warm requests
/// (every identity already seen) take read-lock lookups and allocate
/// nothing; a genuinely new identity is interned once. Returns `None`,
/// interning nothing, when the request exceeds the fixed buffers
/// ([`MAX_REQ_ROLES`] roles or [`MAX_CTX_DEPTH`] context components);
/// [`dispatch`] denies such a request.
pub fn intern_request<'a>(
    table: &SymbolTable,
    req: &MsodRequest<'a>,
    bufs: &'a mut ReqBufs,
) -> Option<SymRequest<'a>> {
    let roles = req.roles;
    let pairs = req.context.pairs();
    if roles.len() > MAX_REQ_ROLES || pairs.len() > MAX_CTX_DEPTH {
        return None;
    }
    for (slot, role) in bufs.roles.iter_mut().zip(roles) {
        *slot = table.intern_role(&role.role_type, &role.value);
    }
    for (slot, (t, v)) in bufs.ctx.iter_mut().zip(pairs) {
        let id = table.intern_ctx_pair(t, v);
        *slot = CtxPair { ty: table.ctx_type_of(id), id };
    }
    Some(SymRequest {
        user: table.intern_user(req.user),
        user_str: req.user,
        roles: &bufs.roles[..roles.len()],
        priv_id: table.intern_priv(req.operation, req.target),
        ctx: &bufs.ctx[..pairs.len()],
        timestamp: req.timestamp,
    })
}

/// Fixed-capacity list of matched policy indices (§4.2 step 1 result),
/// noting which of them the request is the last step of.
#[derive(Debug)]
pub struct MatchedBuf {
    idx: [u32; MAX_MATCHED],
    len: usize,
    /// Bit `k` set: the request is `idx[k]`'s last step.
    last_step_bits: u32,
}

impl Default for MatchedBuf {
    fn default() -> Self {
        MatchedBuf { idx: [0; MAX_MATCHED], len: 0, last_step_bits: 0 }
    }
}

impl MatchedBuf {
    /// Fresh, empty buffer.
    pub fn new() -> Self {
        MatchedBuf::default()
    }

    fn clear(&mut self) {
        self.len = 0;
        self.last_step_bits = 0;
    }

    fn push(&mut self, pi: usize, last_step: bool) -> bool {
        if self.len == MAX_MATCHED {
            return false;
        }
        self.idx[self.len] = pi as u32;
        self.last_step_bits |= u32::from(last_step) << self.len;
        self.len += 1;
        true
    }

    /// Positions (into [`MatchedBuf::as_slice`]) of the matched
    /// policies whose last step the request is, in document order.
    fn last_steps(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(|&k| self.last_step_bits >> k & 1 == 1)
    }

    /// The matched policy indices, in document order.
    pub fn as_slice(&self) -> &[u32] {
        &self.idx[..self.len]
    }
}

/// Outcome of the symbolized fast path. `Copy` — index-based detail
/// only; [`dispatch`] turns it into an [`MsodDecision`], resolving
/// strings on the cold path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymOutcome {
    /// No policy context matched; the interim grant stands unrecorded.
    NotApplicable,
    /// Declined: more than [`MAX_MATCHED`] policies match, so the
    /// request was not evaluated; [`dispatch`] denies it
    /// ([`RequestLimit::MatchedPolicies`]).
    Fallback,
    /// The grant stands.
    Grant {
        /// Retained-ADI records added (0 or 1).
        records_added: usize,
        /// Records visited while evaluating constraints.
        records_consulted: usize,
        /// Records purged, across every shard, by the contexts this
        /// request terminated as a last step (0 when none fired).
        records_purged: usize,
    },
    /// The grant flips to deny; the ADI is untouched.
    Deny(SymDeny),
}

/// Index-based deny detail, mirroring [`DenyDetail`] minus the bound
/// context (which the caller re-binds from the string policy when it
/// needs to report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymDeny {
    /// Index of the violated policy.
    pub policy_index: usize,
    /// MMER or MMEP.
    pub kind: ConstraintKind,
    /// Index of the violated constraint within the policy.
    pub constraint_index: usize,
    /// Entries consumed by the current request (`nr`; 1 for MMEP).
    pub current_matches: usize,
    /// Entries matched against retained history.
    pub history_matches: usize,
    /// The constraint's forbidden cardinality `m`.
    pub forbidden_cardinality: usize,
    /// Records visited up to and including the violated policy.
    pub records_consulted: usize,
}

/// Raw-symbol capture of one fast-path derivation: everything
/// [`crate::explain::MsodExplanation`] holds, but as interner ids —
/// capture costs integer copies, and strings materialise only in
/// [`SymExplain::resolve`], which [`dispatch`] calls when asked to
/// explain.
#[derive(Debug, Default)]
pub(crate) struct SymExplain {
    policies: Vec<SymPolicyCap>,
    constraints: Vec<SymConstraintCap>,
    records: Vec<SymRecord>,
}

#[derive(Debug)]
struct SymPolicyCap {
    policy_index: usize,
    /// Per component: its type symbol, the compiled pattern (for the
    /// policy-context rendering and `!` detection) and the bound form.
    components: Vec<(Sym, SymPattern, BoundComp)>,
    started: bool,
    starts_now: bool,
    checked: bool,
    wants_record: bool,
    last_step: bool,
}

#[derive(Debug)]
enum SymEntryCap {
    Role { id: RoleId, listed: u32, current: u32, seen: u32 },
    Priv { id: PrivId, listed: u32, current: u32, seen: u32 },
}

#[derive(Debug)]
struct SymConstraintCap {
    policy_index: usize,
    kind: ConstraintKind,
    constraint_index: usize,
    m: usize,
    current: usize,
    historic: usize,
    denied: bool,
    entries: Vec<SymEntryCap>,
    contributing: Vec<u64>,
}

impl SymExplain {
    /// A fresh, empty capture buffer.
    pub(crate) fn new() -> Self {
        SymExplain::default()
    }

    /// Resolve every captured symbol through `table` into the
    /// canonical string-form explanation — identical to what
    /// [`MsodEngine::explain`] derives for the same request and state.
    pub(crate) fn resolve(&self, table: &SymbolTable) -> crate::explain::MsodExplanation {
        use crate::explain::{
            ConstraintTrace, EntryTrace, MsodExplanation, PolicyTrace, RecordTrace,
        };
        let role_label = |id: RoleId| {
            let (t, v) = table.resolve_role(id);
            format!("{t}:{v}")
        };
        let mut ex = MsodExplanation {
            step: 8,
            policies: Vec::with_capacity(self.policies.len()),
            constraints: Vec::with_capacity(self.constraints.len()),
            records: Vec::with_capacity(self.records.len()),
            deny: None,
        };
        for p in &self.policies {
            let mut context = String::new();
            let mut bound = String::new();
            let mut bindings = Vec::new();
            for (i, &(ty, pattern, bc)) in p.components.iter().enumerate() {
                if i > 0 {
                    context.push_str(", ");
                    bound.push_str(", ");
                }
                let ty_s = table.resolve_str(ty);
                match pattern {
                    SymPattern::Any => context.push_str(&format!("{ty_s}=*")),
                    SymPattern::PerInstance => context.push_str(&format!("{ty_s}=!")),
                    SymPattern::Exact(id) => {
                        let (t, v) = table.resolve_ctx_pair(id);
                        context.push_str(&format!("{t}={v}"));
                    }
                }
                match bc {
                    BoundComp::Any(t2) => {
                        bound.push_str(&format!("{}=*", table.resolve_str(t2)));
                    }
                    BoundComp::Exact(pair) => {
                        let (t, v) = table.resolve_ctx_pair(pair.id);
                        bound.push_str(&format!("{t}={v}"));
                        if pattern == SymPattern::PerInstance {
                            bindings.push((t.to_string(), v.to_string()));
                        }
                    }
                }
            }
            ex.policies.push(PolicyTrace {
                policy_index: p.policy_index,
                context,
                bound,
                bindings,
                started: p.started,
                starts_now: p.starts_now,
                checked: p.checked,
                wants_record: p.wants_record,
                last_step: p.last_step,
            });
        }
        for c in &self.constraints {
            ex.constraints.push(ConstraintTrace {
                policy_index: c.policy_index,
                kind: c.kind,
                constraint_index: c.constraint_index,
                forbidden_cardinality: c.m,
                current: c.current,
                historic: c.historic,
                denied: c.denied,
                entries: c
                    .entries
                    .iter()
                    .map(|e| {
                        let (label, listed, current, seen) = match *e {
                            SymEntryCap::Role { id, listed, current, seen } => {
                                (role_label(id), listed, current, seen)
                            }
                            SymEntryCap::Priv { id, listed, current, seen } => {
                                let (op, tgt) = table.resolve_priv(id);
                                (format!("{op} on {tgt}"), listed, current, seen)
                            }
                        };
                        EntryTrace {
                            label,
                            listed: listed as usize,
                            current: current as usize,
                            seen: seen as usize,
                            counted: (listed - current).min(seen) as usize,
                        }
                    })
                    .collect(),
                contributing: c.contributing.clone(),
            });
            if c.denied {
                ex.deny = Some(ex.constraints.len() - 1);
                ex.step = match c.kind {
                    ConstraintKind::Mmer => 5,
                    ConstraintKind::Mmep => 6,
                };
            }
        }
        // Step 7: a granted last step terminated its context instance.
        if ex.deny.is_none() && ex.policies.iter().any(|p| p.last_step) {
            ex.step = 7;
        }
        for r in &self.records {
            let (op, tgt) = table.resolve_priv(r.priv_id);
            let mut context = String::new();
            for (i, pair) in r.ctx.iter().enumerate() {
                if i > 0 {
                    context.push_str(", ");
                }
                let (t, v) = table.resolve_ctx_pair(pair.id);
                context.push_str(&format!("{t}={v}"));
            }
            ex.records.push(RecordTrace {
                timestamp: r.timestamp,
                user: table.resolve_user(r.user).to_string(),
                roles: r.roles.iter().map(|&id| role_label(id)).collect(),
                operation: op.to_string(),
                target: tgt.to_string(),
                context,
            });
        }
        ex.canonicalize();
        ex
    }
}

/// One retained decision with every field interned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymRecord {
    /// The interned user.
    pub user: UserId,
    /// The activated roles.
    pub roles: Vec<RoleId>,
    /// The granted `(operation, target)`.
    pub priv_id: PrivId,
    /// The context instance, outermost first.
    pub ctx: Vec<CtxPair>,
    /// Grant timestamp.
    pub timestamp: u64,
}

fn pack(pair: CtxPair) -> u64 {
    (u64::from(pair.ty.as_u32()) << 32) | u64::from(pair.id.as_u32())
}

/// `comp_matches` over a packed `(type, pair-id)` key.
fn comp_matches_packed(comp: BoundComp, key: u64) -> bool {
    match comp {
        BoundComp::Any(ty) => packed_type(key) == ty.as_u32(),
        BoundComp::Exact(want) => pack(want) == key,
    }
}

fn packed_type(key: u64) -> u32 {
    (key >> 32) as u32
}

/// A trivial multiplicative hasher for the trie's packed-`u64` keys.
/// The keys are already dense interner products, so SipHash's
/// collision resistance buys nothing here and its latency sits on the
/// per-decide step-3 probe (16 shards × one lookup per context depth).
#[derive(Debug, Default, Clone, Copy)]
struct PackHash(u64);

impl std::hash::Hasher for PackHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys are ever hashed; fold defensively anyway.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PackHashBuilder = std::hash::BuildHasherDefault<PackHash>;

/// One node of the symbolized context trie: one node per
/// business-context level, edges keyed by the packed `(type, pair)`
/// symbols of the next component, each node counting the records at
/// and below it.
#[derive(Debug, Default)]
struct SymTrieNode {
    children: HashMap<u64, SymTrieNode, PackHashBuilder>,
    records_here: Vec<u32>,
    subtree_count: usize,
}

impl SymTrieNode {
    fn insert(&mut self, path: &[CtxPair], slot: u32) {
        self.subtree_count += 1;
        match path.split_first() {
            None => self.records_here.push(slot),
            Some((first, rest)) => {
                self.children.entry(pack(*first)).or_default().insert(rest, slot)
            }
        }
    }

    /// Whether any record lives at or below the pattern. Allocation
    /// free: literal steps are single hash probes, `*` steps scan the
    /// node's children filtering on the packed type.
    fn any_match(&self, pattern: &[BoundComp]) -> bool {
        match pattern.split_first() {
            None => self.subtree_count > 0,
            Some((BoundComp::Exact(p), rest)) => {
                self.children.get(&pack(*p)).is_some_and(|c| c.any_match(rest))
            }
            Some((BoundComp::Any(ty), rest)) => self
                .children
                .iter()
                .any(|(&k, c)| packed_type(k) == ty.as_u32() && c.any_match(rest)),
        }
    }

    fn collect_subtree(&mut self, out: &mut Vec<u32>) {
        out.append(&mut self.records_here);
        for (_, c) in self.children.iter_mut() {
            c.collect_subtree(out);
        }
        self.children.clear();
        self.subtree_count = 0;
    }

    /// Remove every record at or below the pattern, appending the freed
    /// slots to `out`; returns how many were removed.
    fn drain_matching(&mut self, pattern: &[BoundComp], out: &mut Vec<u32>) -> usize {
        let before = out.len();
        match pattern.split_first() {
            None => self.collect_subtree(out),
            Some((BoundComp::Exact(p), rest)) => {
                let key = pack(*p);
                if let Some(c) = self.children.get_mut(&key) {
                    let removed = c.drain_matching(rest, out);
                    self.subtree_count -= removed;
                    if c.subtree_count == 0 {
                        self.children.remove(&key);
                    }
                }
            }
            Some((BoundComp::Any(ty), rest)) => {
                let t = ty.as_u32();
                let mut removed = 0;
                for (_, c) in self.children.iter_mut().filter(|(&k, _)| packed_type(k) == t) {
                    removed += c.drain_matching(rest, out);
                }
                self.subtree_count -= removed;
                self.children.retain(|_, c| c.subtree_count > 0);
            }
        }
        out.len() - before
    }
}

/// The context trie plus its transposed first level: every depth-0 →
/// depth-1 edge of the trie, keyed depth-1 first. A `[*, literal, ..]`
/// pattern — every `Branch=*, Period=!` scope once bound — then reaches
/// the few depth-0 children that hold its literal with one range
/// lookup, instead of probing every child of the `*` type (all
/// branches, in every shard) for a step-3 probe of a fresh instance or
/// a step-7 purge.
///
/// An edge `k0 → k1` is stored as `id(k1) << 32 | id(k0)`, the two
/// interned pair ids. A pair id names its type, so a `*` of type `ty`
/// finds its children at `pack(ty, id(k0))`, and an id listed under a
/// literal whose type is not `ty` simply has no child there. Eight
/// bytes an edge in a B-tree: memory is the price of the index, and a
/// hash map of per-literal lists cost about eight times as much.
///
/// `second` is exact: it holds an edge iff the trie has it.
#[derive(Debug, Default)]
struct SymTrie {
    root: SymTrieNode,
    second: BTreeSet<u64>,
}

/// How many children of a `*` type [`SymTrie::any_match`] probes
/// directly before it asks the transposed index.
const SCAN_FIRST: usize = 2;

/// The `second` entry of the edge `k0 → k1` (packed keys).
fn edge(k0: u64, k1: u64) -> u64 {
    (k1 << 32) | (k0 & u64::from(u32::MAX))
}

impl SymTrie {
    /// Records in the trie.
    fn len(&self) -> usize {
        self.root.subtree_count
    }

    fn insert(&mut self, path: &[CtxPair], slot: u32) {
        let Some((first, rest)) = path.split_first() else {
            return self.root.insert(path, slot);
        };
        let k0 = pack(*first);
        self.root.subtree_count += 1;
        let child = self.root.children.entry(k0).or_default();
        if let Some(&second) = rest.first() {
            let k1 = pack(second);
            if !child.children.contains_key(&k1) {
                self.second.insert(edge(k0, k1));
            }
        }
        child.insert(rest, slot);
    }

    /// The depth-0 children of type `ty` with an edge to the literal
    /// `k1`, as `(k0, child)`.
    fn children_to(&self, ty: Sym, k1: u64) -> impl Iterator<Item = (u64, &SymTrieNode)> + '_ {
        // One descent: `range(lo..)` finds the first edge, the edges of
        // `k1` follow it in order.
        let lo = k1 << 32;
        let hi = lo | u64::from(u32::MAX);
        self.second.range(lo..).take_while(move |&&e| e <= hi).filter_map(move |&e| {
            let k0 = (u64::from(ty.as_u32()) << 32) | (e & u64::from(u32::MAX));
            self.root.children.get(&k0).map(|child| (k0, child))
        })
    }

    /// [`SymTrieNode::any_match`] from the root. A pattern that opens
    /// with `*` and a literal first tries the first [`SCAN_FIRST`]
    /// children of the `*` type, as the plain scan would: a literal most
    /// of them hold (a long-lived period every branch works in) is found
    /// there without touching `second`. The index then answers sparse
    /// and absent literals (a fresh instance) without visiting the rest.
    fn any_match(&self, pattern: &[BoundComp]) -> bool {
        match *pattern {
            [BoundComp::Any(ty), BoundComp::Exact(p), ref rest @ ..] => {
                let k1 = pack(p);
                let holds = |child: &SymTrieNode| {
                    child.children.get(&k1).is_some_and(|next| next.any_match(rest))
                };
                let of_type = |(&k0, _): &(&u64, &SymTrieNode)| packed_type(k0) == ty.as_u32();
                self.root.children.iter().filter(of_type).take(SCAN_FIRST).any(|(_, c)| holds(c))
                    || self.children_to(ty, k1).any(|(_, child)| holds(child))
            }
            _ => self.root.any_match(pattern),
        }
    }

    /// Remove every record within the pattern, appending the freed slots
    /// to `out`; returns how many were removed.
    fn drain(&mut self, pattern: &[BoundComp], out: &mut Vec<u32>) -> usize {
        match *pattern {
            [] => {
                self.second.clear();
                let before = out.len();
                self.root.collect_subtree(out);
                out.len() - before
            }
            [BoundComp::Exact(p), ref rest @ ..] => self.drain_under(pack(p), rest, out),
            [BoundComp::Any(ty), ref rest @ ..] => {
                let firsts: Vec<u64> = match rest.first() {
                    Some(&BoundComp::Exact(p)) => {
                        self.children_to(ty, pack(p)).map(|(k0, _)| k0).collect()
                    }
                    _ => self
                        .root
                        .children
                        .keys()
                        .copied()
                        .filter(|&k0| packed_type(k0) == ty.as_u32())
                        .collect(),
                };
                firsts.into_iter().map(|k0| self.drain_under(k0, rest, out)).sum()
            }
        }
    }

    /// Drain `rest` below the depth-0 child `k0`, dropping from `second`
    /// every edge `k0 → k1` the drain removes.
    fn drain_under(&mut self, k0: u64, rest: &[BoundComp], out: &mut Vec<u32>) -> usize {
        let SymTrie { root, second } = self;
        let Some(child) = root.children.get_mut(&k0) else {
            return 0;
        };
        // The depth-1 keys the drain may remove.
        let one;
        let some: Vec<u64>;
        let candidates: &[u64] = match rest.first() {
            Some(&BoundComp::Exact(p)) => {
                one = [pack(p)];
                &one
            }
            Some(&BoundComp::Any(ty)) => {
                let of_type = |k: &u64| packed_type(*k) == ty.as_u32();
                some = child.children.keys().copied().filter(of_type).collect();
                &some
            }
            None => {
                some = child.children.keys().copied().collect();
                &some
            }
        };
        let removed = child.drain_matching(rest, out);
        root.subtree_count -= removed;
        for &k1 in candidates {
            if !child.children.contains_key(&k1) {
                second.remove(&edge(k0, k1));
            }
        }
        if child.subtree_count == 0 {
            root.children.remove(&k0);
        }
        removed
    }
}

/// The symbolized retained-ADI store: a slot arena of [`SymRecord`]s, a
/// flat per-[`UserId`] index, and a context trie keyed by packed
/// symbols, its first level also indexed the other way round. All fast-path queries are allocation-free; the
/// [`RetainedAdi`] impl resolves symbols back to strings so the string
/// engine (exclusive view, recovery, inspection) sees the same store.
#[derive(Debug)]
pub struct SymAdi {
    table: Arc<SymbolTable>,
    records: Vec<Option<SymRecord>>,
    /// `UserId` → slots, insertion order; tombstoned slots are skipped
    /// on read and reclaimed by compaction.
    by_user: Vec<Vec<UserSlot>>,
    /// The live records by context; its size is the store's.
    trie: SymTrie,
}

/// How many packed context pairs a [`UserSlot`] carries inline.
const INLINE_CTX: usize = 2;

/// One per-user index entry: the arena slot plus an inline prefix of
/// the record's packed context, so the per-user scan can reject
/// non-matching records from one contiguous array without chasing the
/// arena (and the record's heap-allocated context) through two
/// dependent cache misses each.
#[derive(Debug, Clone, Copy)]
struct UserSlot {
    slot: u32,
    ctx_len: u32,
    head: [u64; INLINE_CTX],
}

impl UserSlot {
    fn new(slot: u32, ctx: &[CtxPair]) -> Self {
        let mut head = [0u64; INLINE_CTX];
        for (h, &p) in head.iter_mut().zip(ctx) {
            *h = pack(p);
        }
        UserSlot { slot, ctx_len: ctx.len() as u32, head }
    }

    /// Whether `pattern` covers this record, as far as the inline
    /// prefix can tell. `false` is definitive; `true` means the prefix
    /// matched and any components beyond [`INLINE_CTX`] still need the
    /// full record.
    fn prefix_covers(&self, pattern: &[BoundComp]) -> bool {
        (self.ctx_len as usize) >= pattern.len()
            && pattern
                .iter()
                .take(INLINE_CTX)
                .zip(&self.head)
                .all(|(&c, &k)| comp_matches_packed(c, k))
    }
}

impl SymAdi {
    /// An empty store over `table`.
    pub fn new(table: Arc<SymbolTable>) -> Self {
        SymAdi { table, records: Vec::new(), by_user: Vec::new(), trie: SymTrie::default() }
    }

    /// The table this store interns and resolves through.
    pub fn table(&self) -> &Arc<SymbolTable> {
        &self.table
    }

    /// Retain one symbolized record.
    pub fn add_sym(&mut self, rec: SymRecord) {
        let slot = u32::try_from(self.records.len()).expect("ADI slot arena overflow");
        let user = rec.user.index();
        if self.by_user.len() <= user {
            self.by_user.resize_with(user + 1, Vec::new);
        }
        self.by_user[user].push(UserSlot::new(slot, &rec.ctx));
        self.trie.insert(&rec.ctx, slot);
        self.records.push(Some(rec));
    }

    /// Visit the user's live records covered by the bound pattern, in
    /// insertion order. Allocation-free: the inline context prefix in
    /// the index rejects most non-matches before the arena is touched.
    fn visit_user_sym(&self, user: UserId, pattern: &[BoundComp], mut f: impl FnMut(&SymRecord)) {
        let Some(slots) = self.by_user.get(user.index()) else {
            return;
        };
        for s in slots {
            if !s.prefix_covers(pattern) {
                continue;
            }
            if let Some(rec) = &self.records[s.slot as usize] {
                if pattern.len() <= INLINE_CTX || pattern_covers(pattern, &rec.ctx) {
                    f(rec);
                }
            }
        }
    }

    /// Whether any record (any user) lies within the bound pattern.
    /// Allocation-free.
    #[inline]
    fn context_active_pattern(&self, pattern: &[BoundComp]) -> bool {
        self.trie.any_match(pattern)
    }

    /// Remove every record within the bound pattern.
    fn purge_pattern(&mut self, pattern: &[BoundComp]) -> usize {
        let mut freed = Vec::new();
        let removed = self.trie.drain(pattern, &mut freed);
        for slot in freed {
            self.records[slot as usize] = None;
        }
        self.maybe_compact();
        removed
    }

    /// Translate a string-side bound context into a symbol pattern.
    /// `None` means some literal was never interned, so nothing in this
    /// store can possibly match.
    fn bound_pattern(&self, bound: &BoundContext) -> Option<Vec<BoundComp>> {
        bound
            .name()
            .components()
            .iter()
            .map(|c| match &c.value {
                PatternValue::AllInstances => {
                    self.table.lookup_str(&c.ctx_type).map(BoundComp::Any)
                }
                PatternValue::Literal(v) => self
                    .table
                    .lookup_ctx_pair(&c.ctx_type, v)
                    .map(|id| BoundComp::Exact(CtxPair { ty: self.table.ctx_type_of(id), id })),
                // A bound context has no '!' left by construction.
                PatternValue::PerInstance => None,
            })
            .collect()
    }

    /// Resolve a symbolized record back to the string 6-tuple.
    fn resolve_record(&self, rec: &SymRecord) -> AdiRecord {
        let t = &self.table;
        let (operation, target) = t.resolve_priv(rec.priv_id);
        let pairs = rec
            .ctx
            .iter()
            .map(|p| {
                let (ty, v) = t.resolve_ctx_pair(p.id);
                (ty.to_string(), v.to_string())
            })
            .collect();
        AdiRecord {
            user: t.resolve_user(rec.user).to_string(),
            roles: rec
                .roles
                .iter()
                .map(|&r| {
                    let (ty, v) = t.resolve_role(r);
                    crate::privilege::RoleRef::new(&*ty, &*v)
                })
                .collect(),
            operation: operation.to_string(),
            target: target.to_string(),
            context: ContextInstance::from_pairs(pairs).expect("resolved context round-trips"),
            timestamp: rec.timestamp,
        }
    }

    /// The store's live records, in slab (insertion) order — what a
    /// journaled backend's compaction rewrites from, without resolving
    /// a single symbol back to a string.
    pub fn sym_records(&self) -> impl Iterator<Item = &SymRecord> {
        self.records.iter().flatten()
    }

    /// Intern a string record through this store's table.
    pub fn intern_record(&self, rec: &AdiRecord) -> SymRecord {
        let t = &self.table;
        SymRecord {
            user: t.intern_user(&rec.user),
            roles: rec.roles.iter().map(|r| t.intern_role(&r.role_type, &r.value)).collect(),
            priv_id: t.intern_priv(&rec.operation, &rec.target),
            ctx: rec
                .context
                .pairs()
                .iter()
                .map(|(ty, v)| {
                    let id = t.intern_ctx_pair(ty, v);
                    CtxPair { ty: t.ctx_type_of(id), id }
                })
                .collect(),
            timestamp: rec.timestamp,
        }
    }

    /// Rebuild the arena once tombstones outnumber live records (same
    /// policy as the string trie index).
    fn maybe_compact(&mut self) {
        if self.records.len() >= 64 && self.trie.len() * 2 <= self.records.len() {
            self.rebuild();
        }
    }

    fn rebuild(&mut self) {
        let live: Vec<SymRecord> = self.records.drain(..).flatten().collect();
        self.by_user.clear();
        self.trie = SymTrie::default();
        for rec in live {
            self.add_sym(rec);
        }
    }
}

impl RetainedAdi for SymAdi {
    fn add(&mut self, record: AdiRecord) {
        let rec = self.intern_record(&record);
        self.add_sym(rec);
    }

    fn context_active(&self, bound: &BoundContext) -> bool {
        match self.bound_pattern(bound) {
            Some(pattern) => self.context_active_pattern(&pattern),
            None => false,
        }
    }

    fn visit_user_records(
        &self,
        user: &str,
        bound: &BoundContext,
        visitor: &mut dyn FnMut(&AdiRecord),
    ) {
        let Some(user) = self.table.lookup_user(user) else {
            return;
        };
        let Some(pattern) = self.bound_pattern(bound) else {
            return;
        };
        self.visit_user_sym(user, &pattern, |rec| visitor(&self.resolve_record(rec)));
    }

    fn purge(&mut self, bound: &BoundContext) -> usize {
        match self.bound_pattern(bound) {
            Some(pattern) => self.purge_pattern(&pattern),
            None => 0,
        }
    }

    fn purge_older_than(&mut self, cutoff: u64) -> usize {
        let before = self.trie.len();
        let survivors: Vec<SymRecord> =
            self.records.drain(..).flatten().filter(|r| r.timestamp >= cutoff).collect();
        self.by_user.clear();
        self.trie = SymTrie::default();
        for rec in survivors {
            self.add_sym(rec);
        }
        before - self.trie.len()
    }

    fn len(&self) -> usize {
        self.trie.len()
    }

    fn clear(&mut self) {
        self.records.clear();
        self.by_user.clear();
        self.trie = SymTrie::default();
    }

    fn snapshot(&self) -> Vec<AdiRecord> {
        let mut out: Vec<AdiRecord> = self.sym_records().map(|r| self.resolve_record(r)).collect();
        sort_records(&mut out);
        out
    }

    #[inline]
    fn sym_index(&self) -> Option<&SymAdi> {
        Some(self)
    }

    #[inline]
    fn commit_sym(&mut self, record: SymRecord) {
        self.add_sym(record);
    }

    fn purge_sym(&mut self, pattern: &[BoundComp]) -> usize {
        self.purge_pattern(pattern)
    }
}

/// Build a sharded symbolized store: `shards` empty [`SymAdi`]s over
/// one shared table.
pub fn sharded_sym_adi(table: &Arc<SymbolTable>, shards: usize) -> ShardedAdi<SymAdi> {
    ShardedAdi::from_shards((0..shards.max(1)).map(|_| SymAdi::new(Arc::clone(table))).collect())
}

impl<A: RetainedAdi> ShardedAdi<A> {
    /// The one table every shard's [`RetainedAdi::sym_index`]
    /// interns through (read through the unmetered locks), or `None`
    /// when some shard keeps no symbol index — a string-engine store.
    ///
    /// # Panics
    ///
    /// If the shards' indexes intern through different tables
    /// (`Arc::ptr_eq`) — e.g. durable shards each opened standalone. A
    /// symbol would mean different things in different shards, so no
    /// engine may run over them, and such a store is a deployment
    /// mistake rather than a backend choice.
    pub fn sym_table(&self) -> Option<Arc<SymbolTable>> {
        let mut shared: Option<Arc<SymbolTable>> = None;
        for shard in &self.shards {
            let shard = shard.lock();
            let table = shard.sym_index()?.table();
            match &shared {
                None => shared = Some(Arc::clone(table)),
                Some(first) => assert!(
                    Arc::ptr_eq(first, table),
                    "ADI shards index symbols through different symbol tables"
                ),
            }
        }
        shared
    }

    /// Cross-shard "context already started?" probe over a symbol
    /// pattern; the caller holds an epoch guard. Locks shards one at a
    /// time through the raw, unmetered mutexes: this read-only probe
    /// runs up to shard-count times per decision, so metering each
    /// briefly-held lock would both drown the contention metrics in
    /// probe noise and put O(shards) clock reads on the decide fast
    /// path. The sweep is counted once in
    /// [`AdiMetrics::probe_sweeps`](crate::AdiMetrics::probe_sweeps)
    /// instead.
    fn context_active_unsynced_sym(&self, pattern: &[BoundComp]) -> bool {
        self.metrics.probe_sweeps.inc();
        self.shards
            .iter()
            .any(|s| s.lock().sym_index().is_some_and(|i| i.context_active_pattern(pattern)))
    }
}

/// Why the engine refuses a store whose shards keep no symbol index.
const NO_INDEX: &str = "the symbol engine runs only over shards that keep a symbol index";

impl SymEngine {
    /// §4.2 on symbols: match policies, probe step 3 across shards,
    /// evaluate steps 4–6 under the user's shard lock, commit at most
    /// one record. When a matched policy's last step fires, the whole
    /// decision runs in the store's exclusive section instead and step 7
    /// purges each terminated context on every shard. Returns
    /// [`SymOutcome::Fallback`], deciding nothing, when more than
    /// [`MAX_MATCHED`] policies match. The shards' indexes must intern
    /// through the table this engine was compiled against.
    ///
    /// # Panics
    ///
    /// If the user's shard keeps no symbol index
    /// ([`RetainedAdi::sym_index`] is `None`).
    ///
    /// Zero-allocation except for committing a new record and for the
    /// exclusive section a last step takes.
    pub fn enforce_sharded<A: RetainedAdi>(
        &self,
        adi: &ShardedAdi<A>,
        req: &SymRequest<'_>,
        matched: &mut MatchedBuf,
    ) -> SymOutcome {
        self.enforce_sharded_inner(adi, req, matched, None)
    }

    /// [`SymEngine::enforce_sharded`], capturing the derivation into
    /// `explain` when given one: per-policy binding and step 3/4
    /// outcomes, per-constraint multiset arithmetic with contributing
    /// record timestamps, and every consulted record — all as raw
    /// symbols ([`SymExplain::resolve`] renders them). Capture
    /// allocates; the uninstrumented path passes `None`.
    fn enforce_sharded_inner<A: RetainedAdi>(
        &self,
        adi: &ShardedAdi<A>,
        req: &SymRequest<'_>,
        matched: &mut MatchedBuf,
        explain: Option<&mut SymExplain>,
    ) -> SymOutcome {
        // Only what must touch a shard is generic over the shard type —
        // the probe sweep, the user's shard lock, the commit hook. The
        // algorithm itself (`admit`, `bind`, `evaluate`) is compiled
        // once, whatever store it runs over.
        if let Some(outcome) = self.admit(req, matched) {
            return outcome;
        }
        if matched.last_step_bits != 0 {
            return self.decide_exclusive(adi, req, matched, explain);
        }

        // Hold the epoch for the whole decision so no purge can
        // interleave between the scan and the commit.
        let _epoch = adi.epoch_read();

        // Pre-compute the step 3 cross-shard facts, one shard lock at a
        // time.
        let mut bound = self.bind(req, matched);
        bound.probe_started(matched.len, |pattern| adi.context_active_unsynced_sym(pattern));

        let mut shard = adi.lock_shard(adi.shard_index(req.user_str));
        let index = shard.sym_index().expect(NO_INDEX);
        match self.evaluate(index, req, matched, &bound, explain) {
            Err(deny) => SymOutcome::Deny(deny),
            Ok(Evaluated { want_record, consulted }) => {
                // Commit phase — still under the user's shard lock.
                if want_record {
                    shard.commit_sym(req.record());
                }
                SymOutcome::Grant {
                    records_added: usize::from(want_record),
                    records_consulted: consulted,
                    records_purged: 0,
                }
            }
        }
    }

    /// §4.2 for a request that is some matched policy's last step, in
    /// the store's exclusive section: step 3 off every held shard, the
    /// same `evaluate` (steps 4–6) on the user's shard, the commit, then
    /// step 7 — each terminating policy's bound pattern purged on every
    /// shard, in matched order, after the add (the order
    /// [`MsodEngine::enforce`] commits in, so a journaled shard gets the
    /// same frames). A deny mutates nothing.
    ///
    /// Out of line and cold: last steps are rare, and the fast path it
    /// branches off stays as compact as before.
    #[cold]
    #[inline(never)]
    fn decide_exclusive<A: RetainedAdi>(
        &self,
        adi: &ShardedAdi<A>,
        req: &SymRequest<'_>,
        matched: &MatchedBuf,
        explain: Option<&mut SymExplain>,
    ) -> SymOutcome {
        let mut bound = self.bind(req, matched);
        let user_shard = adi.shard_index(req.user_str);
        adi.exclusive_section(|shards| {
            // Every shard is held, so step 3 reads them directly: no
            // commit can land between the probe and the decision.
            bound.probe_started(matched.len, |pattern| started_on(shards, pattern));
            let index = shards[user_shard].sym_index().expect(NO_INDEX);
            let Evaluated { want_record, consulted } =
                match self.evaluate(index, req, matched, &bound, explain) {
                    Ok(evaluated) => evaluated,
                    Err(deny) => return SymOutcome::Deny(deny),
                };
            let record = want_record.then(|| req.record());
            let purged = commit_held(shards, user_shard, record, matched, &bound);
            adi.metrics.purged_records.add(purged as u64);
            SymOutcome::Grant {
                records_added: usize::from(want_record),
                records_consulted: consulted,
                records_purged: purged,
            }
        })
    }

    /// §4.2 step 1 on symbols: fill `matched` (noting which matched
    /// policies' last step the request is), and decide right away what
    /// needs no store — nothing matched, or more matches than the fixed
    /// buffer holds.
    fn admit(&self, req: &SymRequest<'_>, matched: &mut MatchedBuf) -> Option<SymOutcome> {
        matched.clear();
        for (pi, p) in self.policies.iter().enumerate() {
            if p.matches_instance(req.ctx) && !matched.push(pi, p.last_step == Some(req.priv_id)) {
                return Some(SymOutcome::Fallback);
            }
        }
        matched.as_slice().is_empty().then_some(SymOutcome::NotApplicable)
    }

    /// Bind each matched policy's context to the request: '!' pinned to
    /// the request's pair at that depth.
    fn bind(&self, req: &SymRequest<'_>, matched: &MatchedBuf) -> BoundPolicies {
        let mut bound = BoundPolicies {
            patterns: [[BoundComp::Any(Sym::from_u32(0)); MAX_CTX_DEPTH]; MAX_MATCHED],
            depths: [0; MAX_MATCHED],
            started_elsewhere: [false; MAX_MATCHED],
        };
        for (k, &pi) in matched.as_slice().iter().enumerate() {
            let p = &self.policies[pi as usize];
            for (i, c) in p.components.iter().enumerate() {
                bound.patterns[k][i] = match c.pattern {
                    SymPattern::Any => BoundComp::Any(c.ty),
                    SymPattern::Exact(id) => BoundComp::Exact(CtxPair { ty: c.ty, id }),
                    SymPattern::PerInstance => BoundComp::Exact(req.ctx[i]),
                };
            }
            bound.depths[k] = p.components.len();
        }
        bound
    }

    /// §4.2 steps 3–6 for every matched policy against the requesting
    /// user's shard index (held under its lock by the caller): `Err` is
    /// the deny, `Ok` says whether the grant must retain a record.
    fn evaluate(
        &self,
        index: &SymAdi,
        req: &SymRequest<'_>,
        matched: &MatchedBuf,
        bound: &BoundPolicies,
        mut explain: Option<&mut SymExplain>,
    ) -> Result<Evaluated, SymDeny> {
        let mut want_record = false;
        let mut consulted = 0usize;
        for (k, &pi) in matched.as_slice().iter().enumerate() {
            let pi = pi as usize;
            let policy = &self.policies[pi];
            let pattern = bound.pattern(k);
            // Re-check against the user's own shard under its lock:
            // same-user races serialise here, so a context this user
            // started can never be seen as fresh twice.
            let started = bound.started_elsewhere[k] || index.context_active_pattern(pattern);
            let starts_now =
                !started && (policy.first_step.is_none() || policy.first_step == Some(req.priv_id));
            if let Some(ex) = explain.as_deref_mut() {
                ex.policies.push(SymPolicyCap {
                    policy_index: pi,
                    components: policy
                        .components
                        .iter()
                        .zip(pattern)
                        .map(|(c, &b)| (c.ty, c.pattern, b))
                        .collect(),
                    started,
                    starts_now,
                    checked: started || (starts_now && self.strict_first_step),
                    wants_record: false,
                    last_step: policy.last_step == Some(req.priv_id),
                });
            }

            let mut policy_wants = false;
            if started || (starts_now && self.strict_first_step) {
                let touched = eval_constraints(
                    policy,
                    pi,
                    req,
                    index,
                    pattern,
                    &mut consulted,
                    explain.as_deref_mut(),
                )?;
                policy_wants = touched && started;
            }
            // Step 4: recording starts at the policy's first step, or
            // immediately when no first step is declared.
            policy_wants |= starts_now;
            want_record |= policy_wants;
            if let Some(ex) = explain.as_deref_mut() {
                ex.policies.last_mut().expect("pushed above").wants_record = policy_wants;
            }
        }
        Ok(Evaluated { want_record, consulted })
    }
}

/// Reusable admission scratch for [`dispatch`]: the fixed-capacity
/// interning buffers and matched-policy list a request is admitted
/// into on the symbol plane. Plain stack arrays — build one per
/// decide, or one per batch to skip re-zeroing between requests.
#[derive(Debug, Default)]
pub struct MsodScratch {
    bufs: ReqBufs,
    matched: MatchedBuf,
}

/// What one [`dispatch`] decided.
#[derive(Debug)]
pub struct Dispatched {
    /// The §4.2 verdict, or [`MsodDecision::ResourceLimit`] for a
    /// request beyond the engine's fixed bounds.
    pub decision: MsodDecision,
    /// The full derivation, when the caller asked for one and the
    /// request was evaluated.
    pub explanation: Option<MsodExplanation>,
}

/// §4.2 step 3 over every held shard of an exclusive section: no commit
/// can land between this probe and the decision.
fn started_on<A: RetainedAdi>(shards: &[TimedShardGuard<'_, A>], pattern: &[BoundComp]) -> bool {
    shards.iter().any(|s| s.sym_index().expect(NO_INDEX).context_active_pattern(pattern))
}

/// The tail of a grant in an exclusive section: commit `record` on the
/// user's held shard, then purge each terminating policy's pattern on
/// every held shard — add first, purges after, in matched order, so a
/// journaled shard gets the frames in the order a replay applies them.
/// Returns the records purged.
fn commit_held<A: RetainedAdi>(
    shards: &mut [TimedShardGuard<'_, A>],
    user_shard: usize,
    record: Option<SymRecord>,
    matched: &MatchedBuf,
    bound: &BoundPolicies,
) -> usize {
    if let Some(record) = record {
        shards[user_shard].commit_sym(record);
    }
    matched
        .last_steps()
        .map(|k| shards.iter_mut().map(|s| s.purge_sym(bound.pattern(k))).sum::<usize>())
        .sum()
}

/// Which bound a request [`intern_request`] refused exceeds.
fn intern_limit(req: &MsodRequest<'_>) -> RequestLimit {
    if req.roles.len() > MAX_REQ_ROLES {
        RequestLimit::Roles
    } else {
        RequestLimit::ContextDepth
    }
}

/// The MSoD stage of a decide: the one place a request enters §4.2 and
/// the one place a [`SymOutcome`] becomes an [`MsodDecision`].
///
/// The request is interned into `scratch` and decided on symbols by
/// `sym`, last steps included. A request beyond the fixed bounds — more
/// roles or context components than [`ReqBufs`] holds, or more than
/// [`MAX_MATCHED`] matching policies — is denied unevaluated with
/// [`MsodDecision::ResourceLimit`]; the store is untouched. When
/// `explain` is set the derivation rides the enforcement pass and is
/// resolved against `table`, the table `sym` was compiled against and
/// the shards intern through. Grants and denies report bound contexts
/// in string form, bound from the policies `sym` was compiled from
/// (`terminated` on a last step, `bound` on a deny).
///
/// # Panics
///
/// If a shard of `adi` keeps no symbol index.
pub fn dispatch<A: RetainedAdi>(
    sym: &SymEngine,
    table: &SymbolTable,
    adi: &ShardedAdi<A>,
    req: &MsodRequest<'_>,
    scratch: &mut MsodScratch,
    explain: bool,
) -> Dispatched {
    let Some(sym_req) = intern_request(table, req, &mut scratch.bufs) else {
        let decision = MsodDecision::ResourceLimit(intern_limit(req));
        return Dispatched { decision, explanation: None };
    };
    let mut capture = explain.then(SymExplain::new);
    // A literal `None` on the uninstrumented path lets the capture
    // branches compile out of the inlined engine; passing
    // `capture.as_mut()` there cost 5–9% of in-memory decide throughput
    // (paired harness runs, 2-CPU x86-64 VM).
    let outcome = match capture.as_mut() {
        None => sym.enforce_sharded(adi, &sym_req, &mut scratch.matched),
        Some(c) => sym.enforce_sharded_inner(adi, &sym_req, &mut scratch.matched, Some(c)),
    };
    let bind = |pi: usize| {
        sym.source.policies()[pi]
            .business_context
            .bind(req.context)
            .expect("matched instance must bind")
    };
    let (decision, explanation) = match outcome {
        SymOutcome::Fallback => (MsodDecision::ResourceLimit(RequestLimit::MatchedPolicies), None),
        SymOutcome::NotApplicable => {
            (MsodDecision::NotApplicable, explain.then(MsodExplanation::not_applicable))
        }
        SymOutcome::Grant { records_added, records_consulted, records_purged } => (
            MsodDecision::Grant(GrantDetail {
                matched_policies: scratch
                    .matched
                    .as_slice()
                    .iter()
                    .map(|&pi| pi as usize)
                    .collect(),
                records_added,
                terminated: scratch
                    .matched
                    .last_steps()
                    .map(|k| bind(scratch.matched.idx[k] as usize))
                    .collect(),
                records_purged,
                records_consulted,
            }),
            capture.map(|c| c.resolve(table)),
        ),
        SymOutcome::Deny(d) => (
            MsodDecision::Deny(DenyDetail {
                policy_index: d.policy_index,
                bound: bind(d.policy_index),
                kind: d.kind,
                constraint_index: d.constraint_index,
                current_matches: d.current_matches,
                history_matches: d.history_matches,
                forbidden_cardinality: d.forbidden_cardinality,
                records_consulted: d.records_consulted,
            }),
            capture.map(|c| c.resolve(table)),
        ),
    };
    Dispatched { decision, explanation }
}

/// §5.2 start-up recovery on symbols: one exclusive section of a store,
/// in which historic grants are re-applied through the compiled
/// engine. Built by [`SymEngine::replay`].
pub struct Replay<'v, 's, A> {
    engine: &'v SymEngine,
    table: &'v SymbolTable,
    view: ExclusiveView<'v, 's, A>,
    scratch: MsodScratch,
}

impl SymEngine {
    /// Run `f` in one exclusive section of `adi` (epoch write lock,
    /// every shard lock), handing it a [`Replay`] over the held shards:
    /// concurrent decisions see the store either before `f` or after it.
    /// `table` is the table this engine was compiled against.
    pub fn replay<A: RetainedAdi, R>(
        &self,
        table: &SymbolTable,
        adi: &ShardedAdi<A>,
        f: impl FnOnce(&mut Replay<'_, '_, A>) -> R,
    ) -> R {
        adi.exclusive_section(|guards| {
            f(&mut Replay {
                engine: self,
                table,
                view: ExclusiveView { guards, purged: &adi.metrics.purged_records },
                scratch: MsodScratch::default(),
            })
        })
    }
}

impl<A: RetainedAdi> Replay<'_, '_, A> {
    /// The held shards as one [`RetainedAdi`], for the clears and
    /// purges a trail records.
    pub fn store(&mut self) -> &mut dyn RetainedAdi {
        &mut self.view
    }

    /// Re-apply one historic granted decision: §4.2's recording rules
    /// (step 4's first step, a started context's touched constraint)
    /// and step 7's purges, but never a deny — the decision was granted
    /// when it was logged, so under the current policy set its record
    /// is either retained or irrelevant. Returns whether a record was
    /// retained, or the bound the request exceeds; such a request
    /// changes nothing.
    ///
    /// # Panics
    ///
    /// If a shard keeps no symbol index.
    pub fn grant(&mut self, req: &MsodRequest<'_>) -> Result<bool, RequestLimit> {
        let Some(sym_req) = intern_request(self.table, req, &mut self.scratch.bufs) else {
            return Err(intern_limit(req));
        };
        let matched = &mut self.scratch.matched;
        match self.engine.admit(&sym_req, matched) {
            None => {}
            Some(SymOutcome::NotApplicable) => return Ok(false),
            Some(_) => return Err(RequestLimit::MatchedPolicies),
        }
        let user_shard = self.view.index(req.user);
        let shards = &mut *self.view.guards;
        let mut bound = self.engine.bind(&sym_req, matched);
        bound.probe_started(matched.len, |pattern| started_on(shards, pattern));
        let mut want_record = false;
        for (k, &pi) in matched.as_slice().iter().enumerate() {
            let policy = &self.engine.policies[pi as usize];
            want_record |= if bound.started_elsewhere[k] {
                policy.touched_by(&sym_req)
            } else {
                policy.first_step.is_none() || policy.first_step == Some(sym_req.priv_id)
            };
        }
        let record = want_record.then(|| sym_req.record());
        self.view.purged.add(commit_held(shards, user_shard, record, matched, &bound) as u64);
        Ok(want_record)
    }
}

/// The matched policies' bound context patterns (row `k` belongs to
/// `matched[k]`) and, per pattern, whether step 3 found the context
/// already started in some shard.
struct BoundPolicies {
    patterns: [[BoundComp; MAX_CTX_DEPTH]; MAX_MATCHED],
    depths: [usize; MAX_MATCHED],
    started_elsewhere: [bool; MAX_MATCHED],
}

impl BoundPolicies {
    fn pattern(&self, k: usize) -> &[BoundComp] {
        &self.patterns[k][..self.depths[k]]
    }

    /// Fill `started_elsewhere` for the first `n` patterns with
    /// `probe`'s step 3 answer. Policies routinely share one business
    /// context (e.g. every constraint scoped `Proc=!`); an identical
    /// earlier pattern's answer is reused instead of probing again.
    #[inline]
    fn probe_started(&mut self, n: usize, mut probe: impl FnMut(&[BoundComp]) -> bool) {
        for k in 0..n {
            self.started_elsewhere[k] = match (0..k).find(|&j| self.pattern(j) == self.pattern(k)) {
                Some(j) => self.started_elsewhere[j],
                None => probe(self.pattern(k)),
            };
        }
    }
}

/// What a grant owes the store.
struct Evaluated {
    want_record: bool,
    consulted: usize,
}

/// Explain-mode scratch for one `eval_constraints` call: which records
/// touched which constraint (indexed MMERs first, then MMEPs), plus
/// the consulted records themselves. `None` on the uninstrumented
/// path, so the hot loop allocates nothing.
struct CapScratch {
    contributing: Vec<Vec<u64>>,
    records: Vec<SymRecord>,
}

/// Steps 5 and 6 for one policy, on symbols: one pass over the user's
/// history in the bound pattern accumulates per-entry tallies into
/// fixed scratch, then each constraint applies the multiset arithmetic
/// `nr + Σ min(listed − consumed, seen) >= m`. `Err` is the violated
/// constraint; `Ok` says whether the request touched any constraint of
/// the policy. Allocation-free when `explain` is `None`.
///
/// Kept out of line on purpose: this is the per-record hot loop, and
/// folded into [`SymEngine::evaluate`] (its one caller, which LLVM would
/// otherwise always inline) the loop came out 2–4% slower on the
/// 500-records-per-user deny workload, consistently across ten
/// parent/change pairs.
#[inline(never)]
fn eval_constraints(
    policy: &SymPolicy,
    policy_index: usize,
    req: &SymRequest<'_>,
    shard: &SymAdi,
    pattern: &[BoundComp],
    consulted: &mut usize,
    mut explain: Option<&mut SymExplain>,
) -> Result<bool, SymDeny> {
    let mut seen = [0u32; MAX_POLICY_TALLY];
    let mut cap: Option<CapScratch> = explain.as_deref_mut().map(|_| CapScratch {
        contributing: vec![Vec::new(); policy.mmer.len() + policy.mmep.len()],
        records: Vec::new(),
    });
    shard.visit_user_sym(req.user, pattern, |rec| {
        *consulted += 1;
        for (ci, c) in policy.mmer.iter().enumerate() {
            let mut matched_rec = false;
            for (j, &(role, _)) in c.entries.iter().enumerate() {
                let n = rec.roles.iter().filter(|&&r| r == role).count() as u32;
                seen[c.offset + j] += n;
                matched_rec |= n > 0;
            }
            if matched_rec {
                if let Some(cap) = cap.as_mut() {
                    cap.contributing[ci].push(rec.timestamp);
                }
            }
        }
        for (ci, c) in policy.mmep.iter().enumerate() {
            let mut matched_rec = false;
            for (j, &(pr, _)) in c.entries.iter().enumerate() {
                if rec.priv_id == pr {
                    seen[c.offset + j] += 1;
                    matched_rec = true;
                }
            }
            if matched_rec {
                if let Some(cap) = cap.as_mut() {
                    cap.contributing[policy.mmer.len() + ci].push(rec.timestamp);
                }
            }
        }
        if let Some(cap) = cap.as_mut() {
            cap.records.push(rec.clone());
        }
    });
    if let (Some(ex), Some(cap)) = (explain.as_deref_mut(), cap.as_mut()) {
        ex.records.append(&mut cap.records);
    }

    let mut touched = false;

    // Step 5: MMER. The request consumes min(activations, listed) of
    // each entry; history satisfies min(listed − consumed, seen).
    for (ci, c) in policy.mmer.iter().enumerate() {
        let mut nr = 0u32;
        let mut count = 0u32;
        for (j, &(role, listed)) in c.entries.iter().enumerate() {
            let activated = req.roles.iter().filter(|&&r| r == role).count() as u32;
            let used = activated.min(listed);
            nr += used;
            count += (listed - used).min(seen[c.offset + j]);
        }
        if nr == 0 {
            continue;
        }
        touched = true;
        let denied = (count + nr) as usize >= c.m;
        if let Some(ex) = explain.as_deref_mut() {
            let cap = cap.as_mut().expect("capture scratch exists when explaining");
            ex.constraints.push(SymConstraintCap {
                policy_index,
                kind: ConstraintKind::Mmer,
                constraint_index: ci,
                m: c.m,
                current: nr as usize,
                historic: count as usize,
                denied,
                entries: c
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(j, &(role, listed))| {
                        let activated = req.roles.iter().filter(|&&r| r == role).count() as u32;
                        SymEntryCap::Role {
                            id: role,
                            listed,
                            current: activated.min(listed),
                            seen: seen[c.offset + j],
                        }
                    })
                    .collect(),
                contributing: std::mem::take(&mut cap.contributing[ci]),
            });
        }
        if denied {
            return Err(SymDeny {
                policy_index,
                kind: ConstraintKind::Mmer,
                constraint_index: ci,
                current_matches: nr as usize,
                history_matches: count as usize,
                forbidden_cardinality: c.m,
                records_consulted: *consulted,
            });
        }
    }

    // Step 6: MMEP. The request consumes exactly one occurrence of the
    // entry equal to its privilege, if listed.
    for (ci, c) in policy.mmep.iter().enumerate() {
        let Some(hit) = c.entries.iter().position(|&(pr, _)| pr == req.priv_id) else {
            continue;
        };
        touched = true;
        let mut count = 0u32;
        for (j, &(_, listed)) in c.entries.iter().enumerate() {
            let used = u32::from(j == hit);
            count += (listed - used).min(seen[c.offset + j]);
        }
        let denied = (count + 1) as usize >= c.m;
        if let Some(ex) = explain.as_deref_mut() {
            let cap = cap.as_mut().expect("capture scratch exists when explaining");
            ex.constraints.push(SymConstraintCap {
                policy_index,
                kind: ConstraintKind::Mmep,
                constraint_index: ci,
                m: c.m,
                current: 1,
                historic: count as usize,
                denied,
                entries: c
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(j, &(pr, listed))| SymEntryCap::Priv {
                        id: pr,
                        listed,
                        current: u32::from(j == hit),
                        seen: seen[c.offset + j],
                    })
                    .collect(),
                contributing: std::mem::take(&mut cap.contributing[policy.mmer.len() + ci]),
            });
        }
        if denied {
            return Err(SymDeny {
                policy_index,
                kind: ConstraintKind::Mmep,
                constraint_index: ci,
                current_matches: 1,
                history_matches: count as usize,
                forbidden_cardinality: c.m,
                records_consulted: *consulted,
            });
        }
    }
    Ok(touched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adi::MemoryAdi;
    use crate::constraint::{Mmep, Mmer};
    use crate::engine::MsodEngine;
    use crate::policy::MsodPolicy;
    use crate::privilege::{Privilege, RoleRef};
    use proptest::prelude::*;

    fn rr(i: usize) -> RoleRef {
        RoleRef::new("e", format!("R{i}"))
    }

    fn pv(i: usize) -> Privilege {
        Privilege::new(format!("op{i}"), "t")
    }

    /// Two policies: a per-instance MMER (with a duplicated role entry)
    /// and a starred-scope MMEP with first/last steps and a duplicated
    /// privilege entry. Exercises every compile shape at once.
    fn mixed_set() -> MsodPolicySet {
        MsodPolicySet::new(vec![
            MsodPolicy::new(
                "Proc=!".parse().unwrap(),
                None,
                None,
                vec![
                    Mmer::new(vec![rr(0), rr(1)], 2).unwrap(),
                    Mmer::new(vec![rr(2), rr(2), rr(3)], 3).unwrap(),
                ],
                vec![],
            )
            .unwrap(),
            MsodPolicy::new(
                "Proc=*, Step=!".parse().unwrap(),
                Some(pv(0)),
                Some(pv(9)),
                vec![],
                vec![Mmep::new(vec![pv(0), pv(1), pv(1)], 2).unwrap()],
            )
            .unwrap(),
        ])
    }

    fn string_request<'a>(
        user: &'a str,
        roles: &'a [RoleRef],
        op: &'a str,
        ctx: &'a ContextInstance,
        ts: u64,
    ) -> MsodRequest<'a> {
        MsodRequest { user, roles, operation: op, target: "t", context: ctx, timestamp: ts }
    }

    /// A policy deeper than the request buffers compiles (the tally
    /// bound, the one other per-policy limit, is refused earlier, by
    /// `MsodPolicy::new`) but applies to no request the engine
    /// evaluates.
    #[test]
    fn compile_accepts_policies_deeper_than_requests() {
        let table = Arc::new(SymbolTable::new());
        let deep = |depth: usize| -> String {
            (0..depth).map(|i| format!("T{i}=!")).collect::<Vec<_>>().join(", ")
        };
        let set = MsodPolicySet::new(vec![MsodPolicy::new(
            deep(MAX_CTX_DEPTH + 1).parse().unwrap(),
            None,
            None,
            vec![Mmer::new(vec![rr(0), rr(1)], 2).unwrap()],
            vec![],
        )
        .unwrap()]);
        let sym = SymEngine::compile(&set, &EngineOptions::default(), &table).unwrap();
        let adi = sharded_sym_adi(&table, 2);
        let mut scratch = MsodScratch::default();
        let roles = [rr(0), rr(1)];
        for depth in [1, MAX_CTX_DEPTH] {
            let ctx: ContextInstance = deep(depth).replace('!', "v").parse().unwrap();
            let req = string_request("alice", &roles, "op0", &ctx, 1);
            let got = dispatch(&sym, &table, &adi, &req, &mut scratch, false);
            assert_eq!(got.decision, MsodDecision::NotApplicable, "depth {depth}");
        }
        let ctx: ContextInstance = deep(MAX_CTX_DEPTH + 1).replace('!', "v").parse().unwrap();
        let req = string_request("alice", &roles, "op0", &ctx, 1);
        let got = dispatch(&sym, &table, &adi, &req, &mut scratch, true);
        assert_eq!(got.decision, MsodDecision::ResourceLimit(RequestLimit::ContextDepth));
        assert!(got.explanation.is_none());
        assert!(adi.is_empty());
    }

    #[test]
    fn last_step_decides_on_symbols_and_oversize_requests_deny() {
        let table = Arc::new(SymbolTable::new());
        let sym = SymEngine::compile(&mixed_set(), &EngineOptions::default(), &table).unwrap();
        let adi = sharded_sym_adi(&table, 4);
        let mut bufs = ReqBufs::new();
        let mut matched = MatchedBuf::new();

        // op9 is the `Proc=*, Step=!` policy's last step. The `Proc=!`
        // policy starts recording on it, and the termination then purges
        // that very record: added, then purged, in one exclusive section.
        let ctx: ContextInstance = "Proc=1, Step=2".parse().unwrap();
        let roles = [rr(0)];
        let req = string_request("alice", &roles, "op9", &ctx, 1);
        let sym_req = intern_request(&table, &req, &mut bufs).unwrap();
        let writes = adi.metrics().epoch_writes.get();
        assert_eq!(
            sym.enforce_sharded(&adi, &sym_req, &mut matched),
            SymOutcome::Grant { records_added: 1, records_consulted: 0, records_purged: 1 }
        );
        assert!(adi.is_empty());
        if obs::enabled() {
            assert_eq!(adi.metrics().epoch_writes.get(), writes + 1);
            assert_eq!(adi.metrics().purged_records.get(), 1);
        }

        // Seed one record, so "unchanged" below means something.
        let req = string_request("bob", &roles, "op0", &ctx, 2);
        let mut scratch = MsodScratch::default();
        assert!(dispatch(&sym, &table, &adi, &req, &mut scratch, false).decision.is_granted());
        let before = adi.snapshot();
        let interned = table.counts();

        // More roles than the fixed buffer: denied, nothing interned.
        let many: Vec<RoleRef> = (0..(MAX_REQ_ROLES + 1)).map(|i| rr(100 + i)).collect();
        let req = string_request("carol", &many, "op0", &ctx, 3);
        assert!(intern_request(&table, &req, &mut bufs).is_none());
        let got = dispatch(&sym, &table, &adi, &req, &mut scratch, false);
        assert_eq!(got.decision, MsodDecision::ResourceLimit(RequestLimit::Roles));
        assert_eq!(table.counts(), interned);
        assert_eq!(adi.snapshot(), before);

        // More matching policies than the matched buffer holds: the
        // engine declines and dispatch denies.
        let crowd = MsodPolicySet::new(
            (0..=MAX_MATCHED)
                .map(|_| {
                    let mmer = vec![Mmer::new(vec![rr(0), rr(1)], 2).unwrap()];
                    MsodPolicy::new("Proc=!".parse().unwrap(), None, None, mmer, vec![]).unwrap()
                })
                .collect(),
        );
        let sym = SymEngine::compile(&crowd, &EngineOptions::default(), &table).unwrap();
        let req = string_request("alice", &roles, "op0", &ctx, 4);
        let sym_req = intern_request(&table, &req, &mut bufs).unwrap();
        assert_eq!(sym.enforce_sharded(&adi, &sym_req, &mut matched), SymOutcome::Fallback);
        let got = dispatch(&sym, &table, &adi, &req, &mut scratch, true);
        assert_eq!(got.decision, MsodDecision::ResourceLimit(RequestLimit::MatchedPolicies));
        assert!(got.explanation.is_none());
        assert_eq!(adi.snapshot(), before);
    }

    /// Two policies that share the last step `close`: a `Branch=*,
    /// Period=!` MMER over R0/R1 and a `Branch=!` MMER over R2/R3.
    fn last_step_set() -> MsodPolicySet {
        let close = || Some(Privilege::new("close", "t"));
        MsodPolicySet::new(vec![
            MsodPolicy::new(
                "Branch=*, Period=!".parse().unwrap(),
                None,
                close(),
                vec![Mmer::new(vec![rr(0), rr(1)], 2).unwrap()],
                vec![],
            )
            .unwrap(),
            MsodPolicy::new(
                "Branch=!".parse().unwrap(),
                None,
                close(),
                vec![Mmer::new(vec![rr(2), rr(3)], 2).unwrap()],
                vec![],
            )
            .unwrap(),
        ])
    }

    /// Last steps decided in the symbol engine's exclusive section agree
    /// with the reference engine's sequential `enforce` on an exclusive
    /// string view: verdict (with `terminated` and `records_purged`),
    /// explanation (step 7, `last_step` per policy) and the snapshot
    /// after every request, with and without explanation capture.
    #[test]
    fn last_steps_match_string_engine_on_the_exclusive_view() {
        let set = last_step_set();
        let string_engine = MsodEngine::new(set.clone());
        let table = Arc::new(SymbolTable::new());
        let sym = SymEngine::compile(&set, &EngineOptions::default(), &table).unwrap();
        let explained = sharded_sym_adi(&table, 4);
        let plain = sharded_sym_adi(&table, 4);
        let reference: ShardedAdi<MemoryAdi> = ShardedAdi::new(4);
        let mut scratch = MsodScratch::default();
        let mut ts = 0;
        let mut decide = |user: &str, role: usize, op: &str, ctx: &str| {
            ts += 1;
            let roles = [rr(role)];
            let ctx: ContextInstance = ctx.parse().unwrap();
            let req = string_request(user, &roles, op, &ctx, ts);
            let (want, want_ex) = reference.with_exclusive(|view| {
                let ex = string_engine.explain(&*view, &req);
                (string_engine.enforce(view, &req), ex)
            });
            let got = dispatch(&sym, &table, &explained, &req, &mut scratch, true);
            assert_eq!(got.decision, want, "{req:?}");
            assert_eq!(got.explanation.as_ref(), Some(&want_ex), "{req:?}");
            let got = dispatch(&sym, &table, &plain, &req, &mut scratch, false);
            assert!(got.explanation.is_none());
            assert_eq!(got.decision, want, "{req:?}");
            assert_eq!(explained.snapshot(), reference.snapshot(), "{req:?}");
            assert_eq!(plain.snapshot(), reference.snapshot(), "{req:?}");
            (want, want_ex)
        };
        let grant = |d: &MsodDecision| match d {
            MsodDecision::Grant(g) => g.clone(),
            other => panic!("expected a grant, got {other:?}"),
        };

        // A denied last step: u0 held R0 in period p0, so closing with R1
        // completes the MMER. Nothing is purged or added.
        decide("u0", 0, "work", "Branch=b0, Period=p0");
        let (d, ex) = decide("u0", 1, "close", "Branch=b1, Period=p0");
        assert!(matches!(d, MsodDecision::Deny(_)));
        assert_eq!(ex.step, 5);
        assert!(ex.policies[0].last_step);
        assert_eq!(reference.len(), 1);

        // The closing request's own record lies in the scope it
        // terminates: added, then purged by the same decision.
        let (d, ex) = decide("u1", 0, "close", "Branch=b2, Period=p5");
        let g = grant(&d);
        assert_eq!((g.records_added, g.records_purged, g.terminated.len()), (1, 1, 2));
        assert_eq!(ex.step, 7);
        assert!(ex.policies.iter().all(|p| p.last_step));
        assert_eq!(reference.len(), 1);

        // Both matched policies terminate, and each purges records the
        // other does not cover.
        decide("u2", 2, "work", "Branch=b3, Period=p1");
        decide("u3", 0, "work", "Branch=b4, Period=p1");
        decide("u5", 2, "work", "Branch=b3, Period=p2");
        let (d, ex) = decide("u4", 3, "close", "Branch=b3, Period=p1");
        let g = grant(&d);
        assert_eq!(g.terminated.len(), 2);
        assert_eq!((g.records_added, g.records_purged), (1, 4));
        assert_eq!(ex.step, 7);
        assert_eq!(reference.len(), 1, "only u0's period-p0 record is left");

        // A `Branch=*` scope reaches other users' records on other
        // shards.
        let users: Vec<String> = (10..18).map(|i| format!("u{i}")).collect();
        for (i, user) in users.iter().enumerate() {
            decide(user, 0, "work", &format!("Branch=b{}, Period=p9", i % 3));
        }
        let shards: std::collections::BTreeSet<usize> =
            users.iter().map(|u| reference.shard_index(u)).collect();
        assert!(shards.len() > 1, "the purged records span shards");
        let (d, _) = decide("u99", 4, "close", "Branch=b1, Period=p9");
        let g = grant(&d);
        assert_eq!((g.records_added, g.records_purged), (0, users.len()));
        assert_eq!(reference.len(), 1);
    }

    /// `SymTrie::second` holds exactly the trie's depth-0 → depth-1
    /// edges.
    fn assert_second_level_exact(adi: &SymAdi) {
        let want: BTreeSet<u64> = adi
            .trie
            .root
            .children
            .iter()
            .flat_map(|(&k0, child)| child.children.keys().map(move |&k1| edge(k0, k1)))
            .collect();
        assert_eq!(adi.trie.second, want);
    }

    /// One purge scope per pattern shape the trie distinguishes: the
    /// universal scope, literal or `*` openings, and `*` followed by a
    /// literal (the transposed lookup) at depth one and two.
    fn scope(shape: u8, a: usize, b: usize, c: usize) -> BoundContext {
        let name = match shape {
            0 => String::new(),
            1 => format!("T0=v{a}"),
            2 => "T0=*".to_owned(),
            3 => format!("T0=*, T1=v{b}"),
            4 => format!("T0=v{a}, T1=v{b}"),
            5 => "T0=*, T1=*".to_owned(),
            6 => format!("T0=v{a}, T1=*"),
            7 => format!("T0=*, T1=v{b}, T2=v{c}"),
            _ => format!("U=*, T1=v{b}"),
        };
        BoundContext::from_name(name.parse().unwrap()).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Adds, purges of every pattern shape and age purges keep the
        /// trie's transposed first level exact, and the store in step
        /// with the reference `MemoryAdi`: snapshots, purge counts and
        /// step-3 probes of every shape.
        #[test]
        fn trie_second_level_stays_exact(
            ops in proptest::collection::vec(
                (0u8..10, 1usize..4, 0usize..6, 0usize..3, 0usize..3), 1..150)
        ) {
            let table = Arc::new(SymbolTable::new());
            let mut sym = SymAdi::new(Arc::clone(&table));
            let mut mem = MemoryAdi::new();
            for (ts, &(op, depth, a, b, c)) in ops.iter().enumerate() {
                match op {
                    0..=5 => {
                        // Up to five `T0` children, more than `SCAN_FIRST`,
                        // so `*` probes also reach the transposed index.
                        let first = if a == 5 { "U=v0".to_owned() } else { format!("T0=v{a}") };
                        let comps = [first, format!("T1=v{b}"), format!("T2=v{c}")];
                        let rec = AdiRecord {
                            user: format!("u{}", (a + b + c) % 3),
                            roles: vec![rr(a)],
                            operation: "op".into(),
                            target: "t".into(),
                            context: comps[..depth].join(", ").parse().unwrap(),
                            timestamp: ts as u64,
                        };
                        sym.add(rec.clone());
                        mem.add(rec);
                    }
                    6..=8 => {
                        let bound = scope(((op - 6) * 3 + depth as u8) % 9, a, b, c);
                        prop_assert_eq!(sym.purge(&bound), mem.purge(&bound), "{}", bound);
                    }
                    _ => {
                        let cutoff = ts.saturating_sub(10) as u64;
                        prop_assert_eq!(sym.purge_older_than(cutoff), mem.purge_older_than(cutoff));
                    }
                }
                assert_second_level_exact(&sym);
                prop_assert_eq!(sym.snapshot(), mem.snapshot());
                for shape in 0..9 {
                    let bound = scope(shape, a, b, c);
                    prop_assert_eq!(
                        sym.context_active(&bound), mem.context_active(&bound), "{}", bound
                    );
                }
            }
        }
    }

    #[test]
    fn compaction_reclaims_tombstones() {
        let table = Arc::new(SymbolTable::new());
        let mut sym = SymAdi::new(Arc::clone(&table));
        for i in 0..128u64 {
            sym.add(AdiRecord {
                user: "u".into(),
                roles: vec![rr(0)],
                operation: "op".into(),
                target: "t".into(),
                context: format!("A={}", i % 4).parse().unwrap(),
                timestamp: i,
            });
        }
        let name: context::ContextName = "A=!".parse().unwrap();
        for v in 0..3 {
            let b = name.bind(&format!("A={v}").parse().unwrap()).unwrap();
            sym.purge(&b);
        }
        assert_eq!(sym.len(), 32);
        // The arena was rebuilt: no tombstones left.
        assert_eq!(sym.records.len(), 32);
        assert!(sym.records.iter().all(Option::is_some));
    }

    /// On a hand-picked stream the compiled engine agrees with the
    /// reference engine over the reference store: verdicts, the state
    /// after every request, and — resolving the symbolized capture —
    /// exactly the explanation the reference engine derives
    /// independently on identical state (steps, constraint arithmetic,
    /// entry tallies, contributing records and consulted-record lists).
    #[test]
    fn explanations_match_string_engine() {
        let set = mixed_set();
        let string_engine = MsodEngine::new(set.clone());
        let table = Arc::new(SymbolTable::new());
        let sym = SymEngine::compile(&set, &EngineOptions::default(), &table).unwrap();
        let sym_adi = sharded_sym_adi(&table, 4);
        let str_adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(4);
        let mut scratch = MsodScratch::default();

        let stream = [
            (0, 0, 0, 0),
            (0, 1, 1, 0), // MMER deny (R0 then R1, same Proc)
            (1, 2, 0, 1),
            (1, 2, 2, 1), // duplicated R2 entry: second use still fine
            (1, 3, 3, 1), // third distinct hit on m=3 constraint
            (2, 0, 0, 2), // first step starts MMEP policy
            (2, 0, 1, 2), // MMEP deny (op0 then op1)
            (2, 1, 9, 2), // last step → exclusive section, purge
            (2, 1, 0, 2), // fresh again after reset
            (0, 0, 5, 0), // op outside every constraint
        ];
        let mut denies = 0;
        for (ts, &(u, r, op, c)) in stream.iter().enumerate() {
            let user = format!("user{u}");
            let roles = [rr(r)];
            let operation = format!("op{op}");
            let ctx: ContextInstance = format!("Proc={}, Step={}", c % 3, c % 2).parse().unwrap();
            let req = MsodRequest {
                user: &user,
                roles: &roles,
                operation: &operation,
                target: "t",
                context: &ctx,
                timestamp: ts as u64,
            };
            let got = dispatch(&sym, &table, &sym_adi, &req, &mut scratch, true);
            let (got, got_ex) = (got.decision, got.explanation.expect("explain requested"));
            let (want, want_ex) = str_adi.with_exclusive(|view| {
                let ex = string_engine.explain(&*view, &req);
                (string_engine.enforce(view, &req), ex)
            });
            assert_eq!(got, want, "verdict divergence at ts={ts}");
            assert_eq!(got_ex, want_ex, "explanation divergence at ts={ts}");
            assert_eq!(got_ex.is_denied(), matches!(got, MsodDecision::Deny(_)));
            assert_eq!(sym_adi.snapshot(), str_adi.snapshot(), "ADI divergence at ts={ts}");
            if got_ex.is_denied() {
                denies += 1;
            }
        }
        assert!(denies >= 2, "stream should exercise denied explanations");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Randomized version of the stream above, in faithful and in
        /// strict first-step mode (the mode closes the §4.2 step-4
        /// window, changing which branch runs eval_constraints).
        #[test]
        fn sym_matches_string_engine(
            strict in any::<bool>(),
            reqs in proptest::collection::vec(
                (0usize..3, 0usize..5, 0usize..4, 0usize..4), 1..60)
        ) {
            let set = mixed_set();
            let opts = EngineOptions { check_constraints_on_first_step: strict };
            let string_engine = MsodEngine::with_options(set.clone(), opts.clone());
            let table = Arc::new(SymbolTable::new());
            let sym = SymEngine::compile(&set, &opts, &table).unwrap();
            let sym_adi = sharded_sym_adi(&table, 3);
            let str_adi: ShardedAdi<MemoryAdi> = ShardedAdi::new(3);
            let mut scratch = MsodScratch::default();

            for (ts, &(u, r, op, c)) in reqs.iter().enumerate() {
                let user = format!("user{u}");
                let roles = [rr(r)];
                let operation = format!("op{op}");
                let ctx: ContextInstance =
                    format!("Proc={}, Step={}", c % 3, c % 2).parse().unwrap();
                let req = MsodRequest {
                    user: &user,
                    roles: &roles,
                    operation: &operation,
                    target: "t",
                    context: &ctx,
                    timestamp: ts as u64,
                };
                let got = dispatch(&sym, &table, &sym_adi, &req, &mut scratch, false).decision;
                let want = str_adi.with_exclusive(|view| string_engine.enforce(view, &req));
                prop_assert_eq!(got, want, "divergence at ts={}", ts);
                prop_assert_eq!(sym_adi.snapshot(), str_adi.snapshot());
            }
        }
    }
}
