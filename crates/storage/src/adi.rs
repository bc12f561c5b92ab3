//! Persistent retained ADI — the "secure relational database" backend
//! the paper names as its next implementation (§6).
//!
//! [`PersistentAdi`] is a write-ahead journal *under* the symbolized
//! index, not a parallel backend: every mutation (add / purge / clear)
//! is queued as a CRC-framed [`OpLog`] frame and only then applied to
//! an in-memory [`SymAdi`] — the same index type the in-memory
//! symbolized service runs on — which replay rebuilds at open. Through
//! the [`RetainedAdi::sym_index`] / [`RetainedAdi::commit_sym`] seam the
//! compiled `msod::SymEngine` reads that index and commits
//! already-interned records directly, so a durable decide costs an
//! in-memory decide plus one buffered frame. Compared with the paper's
//! shipped design (in-core ADI rebuilt by replaying secure audit
//! trails), start-up only replays the *live* operation log, which
//! compaction keeps proportional to the live record count — experiment
//! E9 measures exactly this trade-off.
//!
//! ## One symbol table per service
//!
//! The index interns through a `SymbolTable`
//! ([`PersistentAdi::open_with_table`]). A sharded service must open
//! every shard against *one* table — that is what lets one compiled
//! engine probe all of them; `DecisionService::open_persistent` does,
//! and `DecisionService::from_shards` refuses shards with different
//! tables at assembly. [`PersistentAdi::open`] /
//! [`PersistentAdi::open_with_vfs`] give a standalone store a private
//! table.
//!
//! ## Frame versions: string (v1) and symbol (v2) encodings
//!
//! Add frames come in two generations. The string-era `OP_ADD`
//! encoding spells out every identity (user, role, operation, target,
//! context pairs) in full. The symbol-era encoding carries ids: a
//! journal-local dictionary maps each distinct string to a `u32` id,
//! persisted as *define* frames (`OP_DEF`) followed by compact
//! `OP_ADD_V2` frames that carry only ids. New writes and compaction
//! rewrites always emit the symbol encoding; replay accepts both
//! generations, so a string-era journal migrates on open with no
//! conversion step — its frames decode as before (and intern into the
//! index like any other add), and the first compaction rewrites the
//! file all-v2.
//!
//! Dictionary ids are *journal-scoped*: they mean what the `OP_DEF`
//! frames inside the file say and nothing else. The live writer does
//! reuse the process symbol as the id (so a record already interned
//! for the index is journaled without hashing a single string), but
//! nothing on disk depends on that: after a reopen
//! the writer's epoch restarts empty and re-defines every string
//! before first use, so a later `OP_DEF` may redefine an id from an
//! earlier epoch; replay applies definitions in frame order, which
//! makes redefinition safe (every add only references the most recent
//! definition at its point in the stream).
//!
//! All journal I/O flows through a [`Vfs`], so the crash-simulation
//! harness (`tests/crash_sim.rs`) can power-cut the store mid-write and
//! prove recovery always yields a prefix of the committed history.

use std::path::Path;
use std::sync::Arc;

use bytes::{Buf, BufMut};
use context::{BoundContext, ContextInstance, ContextName, PatternValue};
use msod::symtab::{Sym, SymbolTable};
use msod::{AdiRecord, CtxPair, RetainedAdi, RoleRef, SymAdi, SymRecord};
use obs::{Counter, Gauge, Histogram, PromWriter, Stopwatch};
use parking_lot::Mutex;

use crate::error::StorageError;
use crate::log::OpLog;
use crate::recovery::{std_vfs, RecoveryReport};
use crate::vfs::Vfs;

const OP_ADD: u8 = 0;
const OP_PURGE_BOUND: u8 = 1;
const OP_PURGE_OLDER: u8 = 2;
const OP_CLEAR: u8 = 3;
/// Symbol-era frame: define one dictionary id → string binding.
const OP_DEF: u8 = 4;
/// Symbol-era frame: one retained record, all identities as dict ids.
const OP_ADD_V2: u8 = 5;
/// Replication checkpoint: every frame before this one belongs to a
/// fully applied command with the carried sequence number. Replicas
/// write one after applying each replicated command; crash recovery
/// truncates to the last intact marker so the surviving journal is an
/// exact command prefix (see [`truncate_to_last_marker_with_vfs`]).
const OP_MARK: u8 = 6;

/// Encoded frames buffered in memory before one batched `append` pass —
/// a mutation costs a buffer write on the common path instead of a
/// write syscall, which matters once the store sits on the PDP's hot
/// path.
const BATCH_FRAMES: usize = 64;

/// One journaled retained-ADI mutation — the unit of the frame format.
///
/// The encoding is exercised round-trip (arbitrary records, arbitrary
/// split points) by `tests/frame_roundtrip.rs`; [`AdiOp::decode`] never
/// panics on truncated or garbage input, it returns `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdiOp {
    /// Retain one record.
    Add(AdiRecord),
    /// Purge every record covered by a bound business context.
    Purge(BoundContext),
    /// Purge every record older than a cutoff timestamp.
    PurgeOlderThan(u64),
    /// Drop all records.
    Clear,
}

impl AdiOp {
    /// Serialize to a string-era (v1) journal-frame payload. Live
    /// writers emit symbol-encoded add frames instead (see
    /// [`encode_add_v2`]); this encoding is kept because purge/clear
    /// frames still use it, and because migration tests need to author
    /// string-era journals.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            AdiOp::Add(rec) => put_add(&mut buf, rec),
            AdiOp::Purge(bound) => put_purge_bound(&mut buf, bound),
            AdiOp::PurgeOlderThan(cutoff) => put_purge_older(&mut buf, *cutoff),
            AdiOp::Clear => buf.put_u8(OP_CLEAR),
        }
        buf
    }

    /// Parse a string-era (v1) journal-frame payload. `None` when the
    /// payload is truncated or structurally invalid — never panics.
    /// Symbol-era frames need dictionary state and are handled by
    /// [`ReplayDecoder::decode`], which falls back to this for v1 tags.
    pub fn decode(payload: &[u8]) -> Option<AdiOp> {
        let mut buf = payload;
        if buf.remaining() < 1 {
            return None;
        }
        match buf.get_u8() {
            OP_ADD => decode_add(&mut buf).map(AdiOp::Add),
            OP_PURGE_BOUND => decode_purge_bound(&mut buf).map(AdiOp::Purge),
            OP_PURGE_OLDER => {
                if buf.remaining() >= 8 {
                    Some(AdiOp::PurgeOlderThan(buf.get_u64_le()))
                } else {
                    None
                }
            }
            OP_CLEAR => Some(AdiOp::Clear),
            _ => None,
        }
    }

    /// Replay this operation into `adi`.
    pub fn apply(self, adi: &mut dyn RetainedAdi) {
        match self {
            AdiOp::Add(rec) => adi.add(rec),
            AdiOp::Purge(bound) => {
                adi.purge(&bound);
            }
            AdiOp::PurgeOlderThan(cutoff) => {
                adi.purge_older_than(cutoff);
            }
            AdiOp::Clear => adi.clear(),
        }
    }
}

/// Durable [`RetainedAdi`] backend: a write-ahead journal under a
/// [`SymAdi`] index.
///
/// Every mutation is encoded into an in-memory frame batch *before* the
/// index changes, and the batch is flushed to the [`OpLog`] every
/// `BATCH_FRAMES` frames, on [`PersistentAdi::sync`], on compaction
/// and on drop. Durability is therefore explicit: call `sync` at the
/// points that must survive a crash. (The journal sits behind its own
/// lock so `flush`/`sync`/`compact` work through `&self`; the mutation
/// paths hold `&mut self` and reach it without locking.)
///
/// I/O failures on the journaling path are latched: the first error is
/// stored and surfaced by the next [`PersistentAdi::flush`] or
/// [`PersistentAdi::sync`]; a drop that still holds a latched error
/// logs it to stderr (drop cannot return). Once an error latches, no
/// further frames are appended — writing them would leave a hole in
/// the history — so the on-disk journal stays a strict prefix of the
/// mutation sequence until a catch-up rewrite (a compaction from the
/// authoritative in-memory index) succeeds and re-synchronizes it.
pub struct PersistentAdi {
    index: SymAdi,
    journal: Mutex<Journal>,
    recovery: RecoveryReport,
}

/// Journal telemetry (all lock-free; no-ops under `obs-off`). Lives
/// inside the journal mutex with the state it describes, read out by
/// [`RetainedAdi::export_metrics`].
#[derive(Debug, Default)]
struct JournalMetrics {
    /// Mutation frames queued for the journal.
    appends: Counter,
    /// Batched-append passes that reached the op log.
    flush_batches: Counter,
    /// Frames written to the op log by those passes.
    flushed_frames: Counter,
    /// Journal compactions (manual, automatic and at-open).
    compactions: Counter,
    /// Frames dropped because an I/O error latched mid-batch.
    append_errors: Counter,
    /// Wall time of each flush pass, in nanoseconds.
    flush_ns: Histogram,
    /// Frames the last open replayed into the index.
    recovery_frames_replayed: Gauge,
    /// Frames the last open discarded (at or past the first anomaly).
    recovery_frames_dropped: Gauge,
    /// Bytes the last open truncated off the journal.
    recovery_bytes_truncated: Gauge,
}

/// Encoded frame payloads held back to back in one buffer, so queueing
/// a frame is a write into warm memory rather than an allocation.
#[derive(Debug, Default)]
struct FrameBatch {
    bytes: Vec<u8>,
    /// End offset of each payload in `bytes`.
    ends: Vec<usize>,
}

impl FrameBatch {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Append one payload, written by `put`.
    fn frame(&mut self, put: impl FnOnce(&mut Vec<u8>)) {
        put(&mut self.bytes);
        self.ends.push(self.bytes.len());
    }

    /// The payloads, in queue order.
    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let frame = &self.bytes[start..end];
            start = end;
            frame
        })
    }
}

/// A growable bitset over dense ids.
#[derive(Debug, Default)]
struct IdSet(Vec<u64>);

impl IdSet {
    /// Add `id`; `true` when it was not in the set before.
    fn insert(&mut self, id: u32) -> bool {
        let (word, mask) = (id as usize / 64, 1u64 << (id % 64));
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & mask == 0;
        self.0[word] |= mask;
        fresh
    }
}

/// Dictionary ids at or above this bit name users (`USER_TAG | UserId`);
/// ids below it name raw strings (`Sym`). Users live in their own
/// interner arena, so the two id ranges would otherwise collide.
const USER_TAG: u32 = 1 << 31;

/// The writer's dictionary for one journal epoch (from open or
/// compaction until the next compaction): which process symbols already
/// have their [`OP_DEF`] frame queued. The journal-local id of a string
/// *is* its process symbol, so a record the index already interned is
/// journaled without touching a string — one bit test per identity,
/// with the string resolved (and its define frame emitted, ahead of
/// the frame that references it) only on first sight.
#[derive(Debug, Default)]
struct Defined {
    strs: IdSet,
    users: IdSet,
}

/// Queue `rec` on `out` as the symbol-era frame sequence: an [`OP_DEF`]
/// for every identity `defined` has not seen this epoch, then exactly
/// one [`OP_ADD_V2`]. `ids` is scratch.
fn queue_sym_record(
    defined: &mut Defined,
    ids: &mut Vec<u32>,
    table: &SymbolTable,
    rec: &SymRecord,
    out: &mut FrameBatch,
) {
    ids.clear();
    let user = USER_TAG | rec.user.as_u32();
    if defined.users.insert(rec.user.as_u32()) {
        out.frame(|buf| put_def(buf, user, &table.resolve_user(rec.user)));
    }
    ids.push(user);
    let mut sym = |s: Sym| {
        let id = s.as_u32();
        assert!(id < USER_TAG, "string symbol collides with the user id range");
        if defined.strs.insert(id) {
            out.frame(|buf| put_def(buf, id, &table.resolve_str(s)));
        }
        ids.push(id);
    };
    for &role in &rec.roles {
        let (ty, value) = table.role_syms(role);
        sym(ty);
        sym(value);
    }
    let (operation, target) = table.priv_syms(rec.priv_id);
    sym(operation);
    sym(target);
    for pair in &rec.ctx {
        let (ty, value) = table.ctx_syms(pair.id);
        sym(ty);
        sym(value);
    }
    out.frame(|buf| put_add_v2(buf, rec.timestamp, rec.roles.len(), ids.as_slice()));
}

/// The write-side state: op log plus the pending frame batch.
struct Journal {
    log: OpLog,
    batch: FrameBatch,
    /// Journal frames recorded since the last compaction.
    ops_since_compaction: u64,
    latched_error: Option<StorageError>,
    /// An append failed mid-batch, so the on-disk journal is missing
    /// frames the index has. Until a rewrite (compaction from the
    /// index) succeeds, further appends are withheld — writing them
    /// would put a hole in the history.
    needs_rewrite: bool,
    /// Write-side dictionary for symbol-encoded add frames. Restarts
    /// empty at open and is replaced wholesale by each successful
    /// compaction (whose rewrite defines its own ids); both keep the
    /// invariant that every id the dictionary knows has had its
    /// `OP_DEF` frame queued ahead of any frame referencing it.
    defined: Defined,
    /// Scratch for [`queue_sym_record`].
    ids: Vec<u32>,
    /// Highest replication checkpoint seen — replayed at open, updated
    /// by [`PersistentAdi::append_marker`], re-emitted by compaction so
    /// rewrites never lose the checkpoint.
    last_marker: Option<u64>,
    /// A simulated crash declared this store dead: drop must not touch
    /// the (virtual) device again. Set by [`PersistentAdi::abandon`].
    abandoned: bool,
    metrics: JournalMetrics,
}

impl Journal {
    /// Queue one record as symbol-encoded frames (defs + add).
    fn push_sym(&mut self, table: &SymbolTable, rec: &SymRecord) {
        let before = self.batch.len();
        queue_sym_record(&mut self.defined, &mut self.ids, table, rec, &mut self.batch);
        self.queued((self.batch.len() - before) as u64);
    }

    /// Queue one frame, written by `put`.
    fn push(&mut self, put: impl FnOnce(&mut Vec<u8>)) {
        self.batch.frame(put);
        self.queued(1);
    }

    /// Account for `frames` newly queued frames, flushing when the
    /// batch is full.
    fn queued(&mut self, frames: u64) {
        self.metrics.appends.add(frames);
        self.ops_since_compaction += frames;
        if self.batch.len() >= BATCH_FRAMES {
            self.flush();
        }
    }

    /// Whether the journal should be rewritten from an index holding
    /// `live` records: it is more than double the live set (plus slack
    /// so small stores never compact), or a failed append left it
    /// behind the index and a rewrite is the only way to catch it back
    /// up.
    fn compaction_due(&self, live: usize) -> bool {
        self.needs_rewrite || self.ops_since_compaction > 2 * (live as u64) + 512
    }

    /// Append batched frames to the log, stopping at the first I/O
    /// error: the error latches, the rest of the batch is dropped
    /// (counted in `append_errors`) rather than written after a hole,
    /// and the journal is marked for a full rewrite from the index.
    fn flush(&mut self) {
        if self.batch.len() == 0 {
            return;
        }
        if self.needs_rewrite {
            // The journal is behind the index; appending now would
            // land these frames after a hole. The pending rewrite
            // restores the journal from the authoritative index, which
            // already reflects every batched mutation.
            self.metrics.append_errors.add(self.batch.len() as u64);
            self.batch.clear();
            return;
        }
        let timed = Stopwatch::start();
        let mut written = 0usize;
        for frame in self.batch.iter() {
            if let Err(e) = self.log.append(frame) {
                self.metrics.append_errors.add((self.batch.len() - written) as u64);
                if self.latched_error.is_none() {
                    self.latched_error = Some(e);
                }
                self.needs_rewrite = true;
                break;
            }
            written += 1;
        }
        self.batch.clear();
        self.metrics.flush_batches.inc();
        self.metrics.flushed_frames.add(written as u64);
        timed.lap(&self.metrics.flush_ns);
    }

    fn latch(&mut self, e: StorageError) {
        if self.latched_error.is_none() {
            self.latched_error = Some(e);
        }
    }
}

impl std::fmt::Debug for PersistentAdi {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let journal = self.journal.lock();
        f.debug_struct("PersistentAdi")
            .field("records", &self.index.len())
            .field("log", &journal.log)
            .field("batched", &journal.batch.len())
            .finish()
    }
}

impl Drop for PersistentAdi {
    fn drop(&mut self) {
        // A store abandoned by a simulated crash is already "powered
        // off": nothing more may reach the device, and the latched
        // error (the injected crash) is expected, not lost history.
        if self.journal.lock().abandoned {
            return;
        }
        // Best effort: persist whatever is still batched, including
        // the catch-up rewrite if an append failed earlier. Drop
        // cannot return an error, but it must not swallow one either —
        // a latched journal error at drop means durable history was
        // lost, so make it loud; callers needing certainty call `sync`.
        let needs_rewrite = {
            let mut journal = self.journal.lock();
            journal.flush();
            journal.needs_rewrite
        };
        if needs_rewrite {
            let _ = self.compact();
        }
        let mut journal = self.journal.lock();
        if let Err(e) = journal.log.sync() {
            journal.latch(e);
        }
        if let Some(e) = journal.latched_error.take() {
            eprintln!(
                "storage: retained-ADI journal {:?} dropped with unsurfaced I/O error: {e}",
                journal.log.path()
            );
        }
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Borrow one length-prefixed UTF-8 string out of `buf`.
fn get_str<'a>(buf: &mut &'a [u8]) -> Option<&'a str> {
    if buf.remaining() < 4 {
        return None;
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return None;
    }
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    std::str::from_utf8(bytes).ok()
}

fn put_add(buf: &mut Vec<u8>, rec: &AdiRecord) {
    buf.put_u8(OP_ADD);
    buf.put_u64_le(rec.timestamp);
    put_str(buf, &rec.user);
    buf.put_u32_le(rec.roles.len() as u32);
    for r in &rec.roles {
        put_str(buf, &r.role_type);
        put_str(buf, &r.value);
    }
    put_str(buf, &rec.operation);
    put_str(buf, &rec.target);
    buf.put_u32_le(rec.context.pairs().len() as u32);
    for (t, v) in rec.context.pairs() {
        put_str(buf, t);
        put_str(buf, v);
    }
}

fn decode_add(buf: &mut &[u8]) -> Option<AdiRecord> {
    if buf.remaining() < 8 {
        return None;
    }
    let timestamp = buf.get_u64_le();
    let user = get_str(buf)?.to_owned();
    if buf.remaining() < 4 {
        return None;
    }
    let n_roles = buf.get_u32_le() as usize;
    if n_roles > buf.remaining() / 8 {
        return None;
    }
    let mut roles = Vec::with_capacity(n_roles);
    for _ in 0..n_roles {
        roles.push(RoleRef::new(get_str(buf)?, get_str(buf)?));
    }
    let operation = get_str(buf)?.to_owned();
    let target = get_str(buf)?.to_owned();
    if buf.remaining() < 4 {
        return None;
    }
    let n_pairs = buf.get_u32_le() as usize;
    if n_pairs > buf.remaining() / 8 {
        return None;
    }
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..n_pairs {
        pairs.push((get_str(buf)?.to_owned(), get_str(buf)?.to_owned()));
    }
    let context = ContextInstance::from_pairs(pairs).ok()?;
    Some(AdiRecord { user, roles, operation, target, context, timestamp })
}

/// Bound contexts are encoded structurally (type, tag, value) so values
/// containing `,`/`=` survive.
fn put_purge_bound(buf: &mut Vec<u8>, bound: &BoundContext) {
    buf.put_u8(OP_PURGE_BOUND);
    let comps = bound.name().components();
    buf.put_u32_le(comps.len() as u32);
    for c in comps {
        put_str(buf, &c.ctx_type);
        match &c.value {
            PatternValue::Literal(v) => {
                buf.put_u8(0);
                put_str(buf, v);
            }
            PatternValue::AllInstances => buf.put_u8(1),
            PatternValue::PerInstance => unreachable!("bound contexts contain no '!'"),
        }
    }
}

fn decode_purge_bound(buf: &mut &[u8]) -> Option<BoundContext> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le() as usize;
    if n > buf.remaining() / 5 {
        return None;
    }
    let mut comps = Vec::with_capacity(n);
    for _ in 0..n {
        let ctx_type = get_str(buf)?.to_owned();
        if buf.remaining() < 1 {
            return None;
        }
        let value = match buf.get_u8() {
            0 => PatternValue::Literal(get_str(buf)?.to_owned()),
            1 => PatternValue::AllInstances,
            _ => return None,
        };
        comps.push(context::Component { ctx_type, value });
    }
    let name = ContextName::from_components(comps).ok()?;
    BoundContext::from_name(name).ok()
}

fn put_purge_older(buf: &mut Vec<u8>, cutoff: u64) {
    buf.put_u8(OP_PURGE_OLDER);
    buf.put_u64_le(cutoff);
}

fn put_marker(buf: &mut Vec<u8>, seq: u64) {
    buf.put_u8(OP_MARK);
    buf.put_u64_le(seq);
}

fn put_def(buf: &mut Vec<u8>, id: u32, s: &str) {
    buf.put_u8(OP_DEF);
    buf.put_u32_le(id);
    put_str(buf, s);
}

/// The [`OP_ADD_V2`] layout, from dictionary ids in frame order:
/// `[user, (role type, role value)…, operation, target, (context type,
/// context value)…]` with `n_roles` role pairs.
fn put_add_v2(buf: &mut Vec<u8>, timestamp: u64, n_roles: usize, ids: &[u32]) {
    let (user_and_roles, rest) = ids.split_at(1 + 2 * n_roles);
    let (privilege, pairs) = rest.split_at(2);
    buf.put_u8(OP_ADD_V2);
    buf.put_u64_le(timestamp);
    buf.put_u32_le(user_and_roles[0]);
    buf.put_u32_le(n_roles as u32);
    for &id in &user_and_roles[1..] {
        buf.put_u32_le(id);
    }
    buf.put_u32_le(privilege[0]);
    buf.put_u32_le(privilege[1]);
    buf.put_u32_le((pairs.len() / 2) as u32);
    for &id in pairs {
        buf.put_u32_le(id);
    }
}

/// String-keyed journal dictionary for [`encode_add_v2`]: string →
/// dense `u32` id, with ids assigned on first sight.
///
/// Ids are scoped to one journal epoch. `SymDict::sym` returns the id
/// and, on first sight, pushes the `OP_DEF` frame that persists the
/// binding — callers must journal those frames *before* the frame that
/// references them, which [`encode_add_v2`] guarantees by emitting into
/// one ordered frame list. ([`PersistentAdi`] itself journals records
/// the index has already interned and keys its dictionary by process
/// symbol instead; both write the same frames.)
#[derive(Debug, Default)]
pub struct SymDict {
    ids: std::collections::HashMap<String, u32>,
    /// Id scratch for [`encode_add_v2`], kept to spare it an allocation.
    scratch: Vec<u32>,
}

impl SymDict {
    /// New empty dictionary (next id: 0).
    pub fn new() -> Self {
        SymDict::default()
    }

    /// Id for `s`, appending an [`OP_DEF`] frame to `frames` when the
    /// string has not been seen this epoch.
    fn sym(&mut self, s: &str, frames: &mut Vec<Vec<u8>>) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(s.to_owned(), id);
        let mut def = Vec::with_capacity(9 + s.len());
        put_def(&mut def, id, s);
        frames.push(def);
        id
    }
}

/// Encode `rec` as the symbol-era frame sequence: zero or more
/// `OP_DEF` frames (for strings `dict` has not defined this epoch)
/// followed by exactly one `OP_ADD_V2` frame. Frames are appended to
/// `out` in replay order — definitions strictly before use — so a crash
/// that persists any prefix never leaves an add referencing an
/// undefined id.
pub fn encode_add_v2(dict: &mut SymDict, rec: &AdiRecord, out: &mut Vec<Vec<u8>>) {
    let mut ids = std::mem::take(&mut dict.scratch);
    ids.clear();
    ids.push(dict.sym(&rec.user, out));
    for r in &rec.roles {
        ids.push(dict.sym(&r.role_type, out));
        ids.push(dict.sym(&r.value, out));
    }
    ids.push(dict.sym(&rec.operation, out));
    ids.push(dict.sym(&rec.target, out));
    for (t, v) in rec.context.pairs() {
        ids.push(dict.sym(t, out));
        ids.push(dict.sym(v, out));
    }
    let mut buf = Vec::with_capacity(25 + 4 * ids.len());
    put_add_v2(&mut buf, rec.timestamp, rec.roles.len(), &ids);
    out.push(buf);
    dict.scratch = ids;
}

/// One decoded journal frame, as seen by [`ReplayDecoder::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayFrame {
    /// A mutation to apply to the index.
    Op(AdiOp),
    /// A dictionary definition — already absorbed into the decoder's
    /// state; nothing to apply.
    Def,
    /// A replication checkpoint: every earlier frame belongs to a fully
    /// applied command, the latest of which had this sequence number.
    Marker(u64),
}

/// Stateful decoder that replays *both* frame generations: string-era
/// v1 frames pass straight through to [`AdiOp::decode`], symbol-era
/// `OP_DEF` frames accumulate the journal-local dictionary, and
/// `OP_ADD_V2` frames resolve their ids against it. A fresh decoder
/// must be used per journal scan, and frames must be fed in file order
/// (id redefinitions across writer epochs rely on it).
#[derive(Debug, Default)]
pub struct ReplayDecoder {
    strings: std::collections::HashMap<u32, String>,
}

/// An [`OP_ADD_V2`] body with its ids resolved, borrowing the strings
/// from the decoder's dictionary.
struct AddV2<'a> {
    timestamp: u64,
    user: &'a str,
    roles: Vec<(&'a str, &'a str)>,
    operation: &'a str,
    target: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl ReplayDecoder {
    /// New decoder with an empty dictionary.
    pub fn new() -> Self {
        ReplayDecoder::default()
    }

    /// Decode the next frame payload. `None` when the payload is
    /// truncated, structurally invalid, or references an undefined
    /// dictionary id — never panics.
    pub fn decode(&mut self, payload: &[u8]) -> Option<ReplayFrame> {
        let mut buf = payload;
        if buf.remaining() < 1 {
            return None;
        }
        match payload[0] {
            OP_DEF => {
                buf.advance(1);
                if buf.remaining() < 4 {
                    return None;
                }
                let id = buf.get_u32_le();
                let s = get_str(&mut buf)?;
                // Later definitions win: after a reopen the writer's
                // dictionary restarts and re-defines ids before use.
                self.strings.insert(id, s.to_owned());
                Some(ReplayFrame::Def)
            }
            OP_ADD_V2 => {
                let add = self.read_add_v2(&payload[1..])?;
                let pairs = add.pairs.iter().map(|&(t, v)| (t.to_owned(), v.to_owned())).collect();
                Some(ReplayFrame::Op(AdiOp::Add(AdiRecord {
                    user: add.user.to_owned(),
                    roles: add.roles.iter().map(|&(t, v)| RoleRef::new(t, v)).collect(),
                    operation: add.operation.to_owned(),
                    target: add.target.to_owned(),
                    context: ContextInstance::from_pairs(pairs).ok()?,
                    timestamp: add.timestamp,
                })))
            }
            OP_MARK => {
                buf.advance(1);
                if buf.remaining() >= 8 {
                    Some(ReplayFrame::Marker(buf.get_u64_le()))
                } else {
                    None
                }
            }
            _ => AdiOp::decode(payload).map(ReplayFrame::Op),
        }
    }

    /// Decode an [`OP_ADD_V2`] payload straight into an interned
    /// record — the open path's form of [`ReplayDecoder::decode`], which
    /// spares replay the string record in between. Accepts exactly the
    /// frames `decode` accepts.
    fn decode_add_sym(&self, payload: &[u8], table: &SymbolTable) -> Option<SymRecord> {
        let add = self.read_add_v2(&payload[1..])?;
        ContextInstance::check_pairs(&add.pairs).ok()?;
        Some(SymRecord {
            user: table.intern_user(add.user),
            roles: add.roles.iter().map(|&(t, v)| table.intern_role(t, v)).collect(),
            priv_id: table.intern_priv(add.operation, add.target),
            ctx: add
                .pairs
                .iter()
                .map(|&(t, v)| {
                    let id = table.intern_ctx_pair(t, v);
                    CtxPair { ty: table.ctx_type_of(id), id }
                })
                .collect(),
            timestamp: add.timestamp,
        })
    }

    fn resolve(&self, id: u32) -> Option<&str> {
        self.strings.get(&id).map(String::as_str)
    }

    /// Read an [`OP_ADD_V2`] body (the payload past its tag byte).
    fn read_add_v2(&self, mut buf: &[u8]) -> Option<AddV2<'_>> {
        let buf = &mut buf;
        if buf.remaining() < 16 {
            return None;
        }
        let timestamp = buf.get_u64_le();
        let user = self.resolve(buf.get_u32_le())?;
        let n_roles = buf.get_u32_le() as usize;
        if n_roles > buf.remaining() / 8 {
            return None;
        }
        let mut roles = Vec::with_capacity(n_roles);
        for _ in 0..n_roles {
            roles.push((self.resolve(buf.get_u32_le())?, self.resolve(buf.get_u32_le())?));
        }
        if buf.remaining() < 12 {
            return None;
        }
        let operation = self.resolve(buf.get_u32_le())?;
        let target = self.resolve(buf.get_u32_le())?;
        let n_pairs = buf.get_u32_le() as usize;
        if n_pairs > buf.remaining() / 8 {
            return None;
        }
        let mut pairs = Vec::with_capacity(n_pairs);
        for _ in 0..n_pairs {
            pairs.push((self.resolve(buf.get_u32_le())?, self.resolve(buf.get_u32_le())?));
        }
        Some(AddV2 { timestamp, user, roles, operation, target, pairs })
    }
}

/// Journal replay into a symbol index: the state one scan of a journal
/// builds up, shared by [`PersistentAdi::open_with_table`] and
/// [`crate::verify_journal`].
pub(crate) struct IndexReplay {
    decoder: ReplayDecoder,
    pub(crate) index: SymAdi,
    pub(crate) last_marker: Option<u64>,
}

impl IndexReplay {
    pub(crate) fn new(table: Arc<SymbolTable>) -> Self {
        IndexReplay { decoder: ReplayDecoder::new(), index: SymAdi::new(table), last_marker: None }
    }

    /// Apply the next frame payload; `false` when it does not decode.
    /// Symbol-era adds intern straight into the index's slab; every
    /// other frame (string-era adds included) goes through
    /// [`ReplayDecoder::decode`].
    pub(crate) fn apply(&mut self, payload: &[u8]) -> bool {
        if payload.first() == Some(&OP_ADD_V2) {
            return match self.decoder.decode_add_sym(payload, self.index.table()) {
                Some(rec) => {
                    self.index.add_sym(rec);
                    true
                }
                None => false,
            };
        }
        match self.decoder.decode(payload) {
            Some(ReplayFrame::Op(op)) => op.apply(&mut self.index),
            Some(ReplayFrame::Def) => {}
            Some(ReplayFrame::Marker(seq)) => self.last_marker = Some(seq),
            None => return false,
        }
        true
    }

    /// Whether the next frame payload decodes, without applying it —
    /// for scans that keep classifying frames past the point where
    /// they stopped trusting them.
    pub(crate) fn decodes(&mut self, payload: &[u8]) -> bool {
        self.decoder.decode(payload).is_some()
    }
}

impl PersistentAdi {
    /// Open (creating if absent) the store at `path` on the real
    /// filesystem, over a symbol table of its own. See
    /// [`PersistentAdi::open_with_table`].
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        PersistentAdi::open_with_vfs(std_vfs(), path.as_ref())
    }

    /// Open (creating if absent) the store at `path` through `vfs`,
    /// over a symbol table of its own. See
    /// [`PersistentAdi::open_with_table`].
    pub fn open_with_vfs(vfs: Arc<dyn Vfs>, path: &Path) -> Result<Self, StorageError> {
        PersistentAdi::open_with_table(vfs, path, Arc::new(SymbolTable::new()))
    }

    /// Open (creating if absent) the store at `path` through `vfs`,
    /// replaying its journal to rebuild the in-memory index, which
    /// interns through `table`. The shards of one sharded service must
    /// all be opened against the same table (see the module docs).
    ///
    /// This is the crash-recovery path: a torn trailing write, a
    /// CRC-corrupt frame or an undecodable payload truncates the
    /// journal at the first anomaly (the recovered state is always a
    /// prefix of the committed history), a stale compaction temp file
    /// is removed, and everything that happened is reported by
    /// [`PersistentAdi::recovery`] instead of panicking or silently
    /// skipping.
    pub fn open_with_table(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        table: Arc<SymbolTable>,
    ) -> Result<Self, StorageError> {
        // A crash between a compaction's temp write and its rename
        // leaves the old journal plus a stale temp file: recover from
        // the old journal, discard the temp.
        let tmp = OpLog::compaction_tmp_path(path);
        let stale_tmp = vfs.exists(&tmp);
        if stale_tmp {
            vfs.remove_file(&tmp)?;
        }
        let mut replay = IndexReplay::new(table);
        let (log, mut report) = OpLog::open_with_vfs(vfs, path, |payload| replay.apply(payload))?;
        report.stale_compaction_tmp = stale_tmp;
        let ops = log.frames();
        let metrics = JournalMetrics::default();
        metrics.recovery_frames_replayed.set(report.frames_replayed);
        metrics.recovery_frames_dropped.set(report.frames_dropped);
        metrics.recovery_bytes_truncated.set(report.bytes_truncated);
        let adi = PersistentAdi {
            index: replay.index,
            journal: Mutex::new(Journal {
                log,
                batch: FrameBatch::default(),
                ops_since_compaction: ops,
                latched_error: None,
                needs_rewrite: false,
                // Fresh epoch: ids are re-defined before first use, and
                // replay's later-definition-wins rule keeps old frames
                // decoding correctly.
                defined: Defined::default(),
                ids: Vec::new(),
                last_marker: replay.last_marker,
                abandoned: false,
                metrics,
            }),
            recovery: report,
        };
        // Opening is a natural compaction point when the journal has
        // grown well past the live set.
        adi.maybe_compact();
        Ok(adi)
    }

    /// What the open/recovery found and did.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Flush the pending batch to the op log (no fsync), surfacing any
    /// latched I/O error instead of swallowing it.
    ///
    /// When an earlier append failed, this also attempts the pending
    /// journal rewrite so the on-disk log catches back up with the
    /// index — the error is still returned (durability *was*
    /// interrupted), but a subsequent call starts from a consistent
    /// journal.
    pub fn flush(&self) -> Result<(), StorageError> {
        let (err, needs_rewrite) = {
            let mut journal = self.journal.lock();
            journal.flush();
            (journal.latched_error.take(), journal.needs_rewrite)
        };
        if needs_rewrite {
            self.compact_latching();
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Flush the batch and fsync the journal, surfacing any latched
    /// I/O error. Like [`PersistentAdi::flush`], a failed earlier
    /// append triggers the catch-up rewrite first.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.flush()?;
        let mut journal = self.journal.lock();
        if let Some(e) = journal.latched_error.take() {
            return Err(e);
        }
        journal.log.sync()
    }

    /// Force a compaction: rewrite the journal symbol-encoded — the
    /// dictionary's define frames plus one add per live record, in the
    /// index's insertion order. A string-era (v1) journal therefore
    /// migrates to the symbol format on its first compaction. The
    /// pending batch is dropped — the index already reflects every
    /// batched mutation.
    pub fn compact(&self) -> Result<(), StorageError> {
        let mut defined = Defined::default();
        let mut frames = FrameBatch::default();
        let mut ids = Vec::new();
        for rec in self.index.sym_records() {
            queue_sym_record(&mut defined, &mut ids, self.index.table(), rec, &mut frames);
        }
        let mut journal = self.journal.lock();
        journal.batch.clear();
        // A rewrite must not lose the replication checkpoint: the
        // snapshot it carries is exactly the state as of that marker.
        if let Some(seq) = journal.last_marker {
            frames.frame(|buf| put_marker(buf, seq));
        }
        if let Err(e) = journal.log.rewrite(frames.iter()) {
            // The batch is already gone (superseded by the snapshot)
            // but the rewrite that was to carry its mutations did not
            // land, so the on-disk journal is now behind the index.
            // Mark it so: appends are withheld until a rewrite
            // succeeds — otherwise they would land after a hole and
            // recovery would silently replay a holed history.
            journal.needs_rewrite = true;
            return Err(e);
        }
        journal.ops_since_compaction = 0;
        journal.needs_rewrite = false;
        // The rewrite defined exactly `defined`'s ids on disk, so
        // appends can keep referencing them without re-defining.
        journal.defined = defined;
        journal.metrics.compactions.inc();
        Ok(())
    }

    /// Journal frames (written or batched) since the last compaction.
    pub fn journal_ops(&self) -> u64 {
        self.journal.lock().ops_since_compaction
    }

    /// Encoded frames waiting for the next batched append.
    pub fn batched_ops(&self) -> usize {
        self.journal.lock().batch.len()
    }

    /// Whether the on-disk journal is currently *behind* the in-memory
    /// index: an append (or a compaction rewrite) failed, so further
    /// frames are withheld until a catch-up rewrite succeeds. Durable
    /// history is incomplete while this holds — surface it as an
    /// anomaly, don't poll it silently.
    pub fn journal_needs_rewrite(&self) -> bool {
        self.journal.lock().needs_rewrite
    }

    /// Compact when due ([`Journal::compaction_due`]). Must run *after*
    /// the index reflects every queued frame: compacting from an index
    /// that predates a mutation whose frame was just batched would
    /// silently drop it.
    fn maybe_compact(&self) {
        let due = self.journal.lock().compaction_due(self.index.len());
        if due {
            self.compact_latching();
        }
    }

    /// [`PersistentAdi::compact`], latching a failure for the next
    /// `flush`/`sync` to surface.
    fn compact_latching(&self) {
        if let Err(e) = self.compact() {
            self.journal.lock().latch(e);
        }
    }

    /// Journal a replication checkpoint: every frame queued so far
    /// belongs to a fully applied command, the latest being `seq`.
    /// Replicas applying a shared op log call this after each command;
    /// [`truncate_to_last_marker_with_vfs`] then recovers a crashed
    /// replica to an exact command prefix. Like every mutation, the
    /// marker is batched — call [`PersistentAdi::flush`] for it to
    /// reach the journal file.
    pub fn append_marker(&self, seq: u64) {
        let mut journal = self.journal.lock();
        journal.push(|buf| put_marker(buf, seq));
        journal.last_marker = Some(seq);
    }

    /// The highest replication checkpoint this store has seen — from
    /// replay at open or from [`PersistentAdi::append_marker`] since.
    /// `None` for stores that never journaled a marker.
    pub fn last_marker(&self) -> Option<u64> {
        self.journal.lock().last_marker
    }

    /// Declare this store dead after a simulated crash: drop will not
    /// flush, compact, sync or report latched errors. The backing
    /// (virtual) device is expected to be power-cycled before the path
    /// is reopened; a store abandoned on a *live* device simply loses
    /// its batched tail, exactly as the crash being simulated would.
    pub fn abandon(&self) {
        self.journal.lock().abandoned = true;
    }
}

/// Truncate the journal at `path` to the end of its last intact,
/// decodable replication marker, returning that marker's sequence
/// number — or truncate to empty and return `None` when no intact
/// marker survives. The scan stops at the first anomaly (torn tail,
/// CRC failure, undecodable frame), so frames after a crash point are
/// never trusted. This is the replica-restart primitive: after it, the
/// journal replays to the exact state as of the returned command, and
/// the replica re-applies the shared op log from there.
///
/// A missing file is not an error: there is nothing to truncate, and
/// `None` is returned.
pub fn truncate_to_last_marker_with_vfs(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
) -> Result<Option<u64>, StorageError> {
    let data = match vfs.read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut decoder = ReplayDecoder::new();
    let mut stop = false;
    let mut last: Option<(u64, u64)> = None; // (byte end, marker seq)
    crate::recovery::scan_frames(&data, |offset, outcome| {
        if stop {
            return;
        }
        match outcome {
            crate::recovery::FrameOutcome::Intact(payload) => match decoder.decode(payload) {
                Some(ReplayFrame::Marker(seq)) => {
                    last = Some((offset + 4 + payload.len() as u64 + 4, seq));
                }
                Some(_) => {}
                None => stop = true,
            },
            _ => stop = true,
        }
    });
    let cut = last.map_or(0, |(end, _)| end);
    if cut < data.len() as u64 {
        let mut file = vfs.open_append(path)?;
        file.set_len(cut)?;
        file.sync()?;
    }
    Ok(last.map(|(_, seq)| seq))
}

/// Decode the journal at `path` and return every intact frame from
/// frame index `from_frame` (0-based, counting *all* frames including
/// dictionary definitions and markers) onward, stopping at the first
/// anomaly. The decoder replays the whole file regardless of
/// `from_frame` — symbol frames in the tail resolve against
/// dictionary definitions from the head — so this is an offline
/// tailing/inspection API, priced per call, not a cursor.
///
/// A missing file yields an empty tail.
pub fn tail_journal_with_vfs(
    vfs: &Arc<dyn Vfs>,
    path: &Path,
    from_frame: u64,
) -> Result<Vec<ReplayFrame>, StorageError> {
    let data = match vfs.read(path) {
        Ok(d) => d,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut decoder = ReplayDecoder::new();
    let mut stop = false;
    let mut index = 0u64;
    let mut tail = Vec::new();
    crate::recovery::scan_frames(&data, |_offset, outcome| {
        if stop {
            return;
        }
        match outcome {
            crate::recovery::FrameOutcome::Intact(payload) => match decoder.decode(payload) {
                Some(frame) => {
                    if index >= from_frame {
                        tail.push(frame);
                    }
                    index += 1;
                }
                None => stop = true,
            },
            _ => stop = true,
        }
    });
    Ok(tail)
}

impl RetainedAdi for PersistentAdi {
    fn add(&mut self, record: AdiRecord) {
        // Interned once: the same symbols key the journal frame and the
        // index entry.
        let record = self.index.intern_record(&record);
        self.commit_sym(record);
    }

    fn context_active(&self, bound: &BoundContext) -> bool {
        self.index.context_active(bound)
    }

    fn visit_user_records(
        &self,
        user: &str,
        bound: &BoundContext,
        visitor: &mut dyn FnMut(&AdiRecord),
    ) {
        self.index.visit_user_records(user, bound, visitor);
    }

    fn purge(&mut self, bound: &BoundContext) -> usize {
        // Write-ahead, as on every mutation path: frame first, index second.
        self.journal.get_mut().push(|buf| put_purge_bound(buf, bound));
        let n = self.index.purge(bound);
        self.maybe_compact();
        n
    }

    fn purge_older_than(&mut self, cutoff: u64) -> usize {
        self.journal.get_mut().push(|buf| put_purge_older(buf, cutoff));
        let n = self.index.purge_older_than(cutoff);
        self.maybe_compact();
        n
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        self.journal.get_mut().push(|buf| buf.put_u8(OP_CLEAR));
        self.index.clear();
        self.maybe_compact();
    }

    fn snapshot(&self) -> Vec<AdiRecord> {
        self.index.snapshot()
    }

    fn sym_index(&self) -> Option<&SymAdi> {
        Some(&self.index)
    }

    /// The durable commit: frame queued first, index second, and the
    /// compaction check only once the index holds the record (the
    /// journal is reached through `&mut self`, so the whole commit
    /// takes no lock).
    fn commit_sym(&mut self, record: SymRecord) {
        let journal = self.journal.get_mut();
        journal.push_sym(self.index.table(), &record);
        let due = journal.compaction_due(self.index.len() + 1);
        self.index.add_sym(record);
        if due {
            self.compact_latching();
        }
    }

    fn export_metrics(&self, w: &mut PromWriter, labels: &[(&str, &str)]) {
        let journal = self.journal.lock();
        w.counter(
            "storage_journal_appends_total",
            "Mutation frames queued for the ADI journal.",
            labels,
            journal.metrics.appends.get(),
        );
        w.counter(
            "storage_journal_flush_batches_total",
            "Batched-append passes that reached the op log.",
            labels,
            journal.metrics.flush_batches.get(),
        );
        w.counter(
            "storage_journal_flushed_frames_total",
            "Frames written to the op log.",
            labels,
            journal.metrics.flushed_frames.get(),
        );
        w.counter(
            "storage_journal_compactions_total",
            "Journal compactions (manual, automatic and at-open).",
            labels,
            journal.metrics.compactions.get(),
        );
        w.counter(
            "storage_journal_append_errors_total",
            "Frames dropped because an I/O error latched mid-batch.",
            labels,
            journal.metrics.append_errors.get(),
        );
        w.histogram(
            "storage_journal_flush_ns",
            "Wall time of each journal flush pass.",
            labels,
            &journal.metrics.flush_ns.snapshot(),
        );
        w.gauge(
            "storage_journal_ops",
            "Journal frames since the last compaction.",
            labels,
            journal.ops_since_compaction,
        );
        w.gauge(
            "storage_journal_batched_frames",
            "Encoded frames waiting for the next batched append.",
            labels,
            journal.batch.len() as u64,
        );
        w.gauge(
            "storage_recovery_frames_replayed",
            "Journal frames replayed into the index by the last open.",
            labels,
            journal.metrics.recovery_frames_replayed.get(),
        );
        w.gauge(
            "storage_recovery_frames_dropped",
            "Journal frames discarded by the last open's recovery.",
            labels,
            journal.metrics.recovery_frames_dropped.get(),
        );
        w.gauge(
            "storage_recovery_bytes_truncated",
            "Bytes truncated off the journal by the last open's recovery.",
            labels,
            journal.metrics.recovery_bytes_truncated.get(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, FaultVfs};
    use msod::MemoryAdi;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("padi-{}-{tag}.log", std::process::id()))
    }

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
        let name: ContextName = policy.parse().unwrap();
        name.bind(&inst.parse().unwrap()).unwrap()
    }

    #[test]
    fn persists_across_reopen() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let mut adi = PersistentAdi::open(&path).unwrap();
            assert!(adi.recovery().is_clean());
            adi.add(rec("alice", "Teller", "Branch=York, Period=2006", 1));
            adi.add(rec("bob", "Auditor", "Branch=Leeds, Period=2006", 2));
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open(&path).unwrap();
        assert_eq!(adi.len(), 2);
        assert!(adi.recovery().is_clean());
        // Symbol encoding: record 1 defines 9 strings (user, role type,
        // role value, op, target, 2 context pairs) + its add frame;
        // record 2 re-uses all but 3 (bob, Auditor, Leeds) + its add.
        assert_eq!(adi.recovery().frames_replayed, 14);
        let b = bound("Branch=*, Period=!", "Branch=York, Period=2006");
        assert_eq!(adi.user_records("alice", &b).len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn purge_persists() {
        let path = temp_path("purge");
        let _ = std::fs::remove_file(&path);
        {
            let mut adi = PersistentAdi::open(&path).unwrap();
            adi.add(rec("a", "r", "P=1", 1));
            adi.add(rec("b", "r", "P=2", 2));
            assert_eq!(adi.purge(&bound("P=!", "P=1")), 1);
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open(&path).unwrap();
        assert_eq!(adi.len(), 1);
        assert_eq!(adi.snapshot()[0].context.to_string(), "P=2");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clear_and_purge_older_persist() {
        let path = temp_path("clear");
        let _ = std::fs::remove_file(&path);
        {
            let mut adi = PersistentAdi::open(&path).unwrap();
            for i in 0..10 {
                adi.add(rec("a", "r", "P=1", i));
            }
            assert_eq!(adi.purge_older_than(5), 5);
            adi.sync().unwrap();
        }
        {
            let mut adi = PersistentAdi::open(&path).unwrap();
            assert_eq!(adi.len(), 5);
            adi.clear();
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open(&path).unwrap();
        assert!(adi.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn agrees_with_memory_adi() {
        let path = temp_path("oracle");
        let _ = std::fs::remove_file(&path);
        let mut mem = MemoryAdi::new();
        let mut per = PersistentAdi::open(&path).unwrap();
        let ctxs = ["P=1", "P=2", "Q=1, R=2"];
        for i in 0..30u64 {
            let r =
                rec(&format!("u{}", i % 4), &format!("role{}", i % 3), ctxs[(i % 3) as usize], i);
            mem.add(r.clone());
            per.add(r);
            if i % 7 == 0 {
                let b = bound("P=!", "P=1");
                assert_eq!(mem.purge(&b), per.purge(&b));
            }
        }
        assert_eq!(mem.snapshot(), per.snapshot());
        // And after a reopen:
        per.sync().unwrap();
        drop(per);
        let per = PersistentAdi::open(&path).unwrap();
        assert_eq!(mem.snapshot(), per.snapshot());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_shrinks_journal() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let mut adi = PersistentAdi::open(&path).unwrap();
        // Many adds+purges leave few live records.
        for round in 0..40u64 {
            for i in 0..40u64 {
                adi.add(rec("a", "r", "P=1", round * 100 + i));
            }
            adi.purge(&bound("P=!", "P=1"));
        }
        adi.add(rec("keep", "r", "P=2", 9_999));
        adi.compact().unwrap();
        adi.sync().unwrap();
        assert_eq!(adi.journal_ops(), 0);
        drop(adi);
        let size = std::fs::metadata(&path).unwrap().len();
        assert!(size < 4096, "compacted journal should be tiny, got {size}");
        let adi = PersistentAdi::open(&path).unwrap();
        assert_eq!(adi.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn auto_compaction_bounds_journal() {
        let path = temp_path("auto");
        let _ = std::fs::remove_file(&path);
        let mut adi = PersistentAdi::open(&path).unwrap();
        for i in 0..2000u64 {
            adi.add(rec("a", "r", "P=1", i));
            if i % 2 == 1 {
                adi.purge(&bound("P=!", "P=1"));
            }
        }
        adi.sync().unwrap();
        // Live set is tiny; auto-compaction must have kept the journal
        // far below the 3000 ops issued.
        assert!(adi.journal_ops() < 1600, "journal_ops = {}", adi.journal_ops());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batched_frames_flush_on_sync_and_drop() {
        let path = temp_path("batch");
        let _ = std::fs::remove_file(&path);
        {
            let mut adi = PersistentAdi::open(&path).unwrap();
            for i in 0..5 {
                adi.add(rec("a", "r", "P=1", i));
            }
            // Below the batch threshold nothing has hit the log yet:
            // 7 define frames (all five records share their strings)
            // plus 5 add frames.
            assert_eq!(adi.batched_ops(), 12);
            adi.sync().unwrap();
            assert_eq!(adi.batched_ops(), 0);
            adi.add(rec("a", "r", "P=1", 99));
            assert_eq!(adi.batched_ops(), 1);
            // Dropped without sync: the drop flush persists the frame.
        }
        let adi = PersistentAdi::open(&path).unwrap();
        assert_eq!(adi.len(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn large_batches_flush_automatically() {
        let path = temp_path("autoflush");
        let _ = std::fs::remove_file(&path);
        let mut adi = PersistentAdi::open(&path).unwrap();
        for i in 0..(BATCH_FRAMES as u64 + 3) {
            adi.add(rec("a", "r", "P=1", i));
        }
        // One full batch went to the log; the tail — 7 define frames
        // plus BATCH_FRAMES + 3 adds, minus the flushed batch — is
        // still pending.
        assert_eq!(adi.batched_ops(), 10);
        adi.sync().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn values_with_separators_survive() {
        let path = temp_path("seps");
        let _ = std::fs::remove_file(&path);
        {
            let mut adi = PersistentAdi::open(&path).unwrap();
            let ctx = ContextInstance::from_pairs(vec![(
                "Proc".into(),
                "weird=value, with, commas".into(),
            )])
            .unwrap();
            adi.add(AdiRecord {
                user: "u".into(),
                roles: vec![],
                operation: "op".into(),
                target: "t".into(),
                context: ctx,
                timestamp: 1,
            });
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open(&path).unwrap();
        assert_eq!(adi.snapshot()[0].context.pairs()[0].1, "weird=value, with, commas");
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: auto-compaction used to run inside `journal()`
    /// *before* the index was updated, so a compaction triggered
    /// exactly on a mutation snapshotted the index without it and
    /// cleared the batch holding its frame — the record vanished.
    #[test]
    fn compaction_on_mutation_boundary_loses_nothing() {
        let path = temp_path("boundary");
        let _ = std::fs::remove_file(&path);
        let mut mem = MemoryAdi::new();
        let mut per = PersistentAdi::open(&path).unwrap();
        // Purge-heavy workload keeps the live set tiny while the op
        // count climbs, so the threshold trips mid-sequence — on an
        // add for some iterations, on a purge for others.
        for i in 0..600u64 {
            let r = rec("a", "r", "P=1", i);
            mem.add(r.clone());
            per.add(r);
            if i % 2 == 1 {
                let b = bound("P=!", "P=1");
                assert_eq!(mem.purge(&b), per.purge(&b), "iteration {i}");
            }
            assert_eq!(mem.len(), per.len(), "iteration {i}");
        }
        assert_eq!(mem.snapshot(), per.snapshot());
        per.sync().unwrap();
        drop(per);
        let reopened = PersistentAdi::open(&path).unwrap();
        assert_eq!(mem.snapshot(), reopened.snapshot());
        std::fs::remove_file(&path).unwrap();
    }

    /// Regression: a latched journal I/O error must surface through
    /// `flush()`/`sync()` as a typed error, not vanish silently.
    #[test]
    fn flush_surfaces_latched_write_error() {
        let vfs = FaultVfs::new(FaultPlan { fail_write_at: Some(0), ..Default::default() });
        let path = Path::new("/adi.log");
        let mut adi = PersistentAdi::open_with_vfs(Arc::new(vfs.clone()), path).unwrap();
        adi.add(rec("a", "r", "P=1", 1));
        adi.add(rec("b", "r", "P=2", 2));
        // The first append fails (transient injected fault); the error
        // latches and the whole batch is dropped rather than written
        // with a hole.
        let err = adi.flush().expect_err("latched write error must surface");
        assert!(matches!(err, StorageError::Io(_)), "got {err:?}");
        // The error is surfaced exactly once, and the flush also ran
        // the catch-up rewrite, restoring the journal from the index.
        adi.flush().unwrap();
        adi.add(rec("c", "r", "P=3", 3));
        adi.sync().unwrap();
        drop(adi);
        let reopened = PersistentAdi::open_with_vfs(Arc::new(vfs), path).unwrap();
        // Nothing was lost and nothing was written after a hole: the
        // rewrite recovered "a" and "b" from the index.
        assert_eq!(reopened.len(), 3);
        let users: Vec<_> = reopened.snapshot().iter().map(|r| r.user.clone()).collect();
        assert_eq!(users, ["a", "b", "c"]);
    }

    /// Regression: `compact()` clears the pending batch before the
    /// rewrite, so a rewrite that fails with a *transient* I/O error
    /// (no crash — e.g. ENOSPC on the temp file) must leave the
    /// journal marked behind the index. It used to leave
    /// `needs_rewrite = false`, so subsequent appends landed after the
    /// gap and recovery silently replayed a holed history.
    #[test]
    fn failed_compaction_rewrite_marks_journal_behind() {
        let vfs = FaultVfs::default();
        let path = Path::new("/adi.log");
        let mut adi = PersistentAdi::open_with_vfs(Arc::new(vfs.clone()), path).unwrap();
        // Leave the mutations batched (below BATCH_FRAMES, no sync) so
        // the failed rewrite is the only thing carrying them to disk.
        for i in 0..5 {
            adi.add(rec(&format!("u{i}"), "r", "P=1", i));
        }
        // 11 define frames (5 distinct users + 6 shared strings) plus
        // 5 add frames.
        assert_eq!(adi.batched_ops(), 16);
        // The compaction's first temp-file write fails transiently.
        vfs.arm(FaultPlan { fail_write_at: Some(0), ..Default::default() });
        adi.compact().expect_err("injected temp-write failure must surface");
        // Keep mutating: these frames must NOT be appended after the
        // hole; the catch-up rewrite has to restore everything.
        adi.add(rec("late", "r", "P=2", 100));
        adi.sync().unwrap();
        drop(adi);
        let reopened = PersistentAdi::open_with_vfs(Arc::new(vfs), path).unwrap();
        assert_eq!(reopened.len(), 6, "recovered a holed history");
        let mut users: Vec<_> = reopened.snapshot().iter().map(|r| r.user.clone()).collect();
        users.sort();
        assert_eq!(users, ["late", "u0", "u1", "u2", "u3", "u4"]);
    }

    /// A string-era (v1) journal — written before the symbol plane
    /// existed — opens transparently: its frames replay through the
    /// decoder's v1 passthrough, new writes land symbol-encoded after
    /// the v1 prefix, and the first compaction rewrites the whole file
    /// in the symbol format.
    #[test]
    fn string_era_journal_migrates_on_open() {
        let vfs = FaultVfs::default();
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let path = Path::new("/v1-era.log");

        // Author the journal with the v1 encoder only, exactly as an
        // old writer would have.
        let old_ops = vec![
            AdiOp::Add(rec("alice", "Teller", "Branch=York, Period=2006", 1)),
            AdiOp::Add(rec("bob", "Auditor", "Branch=Leeds, Period=2006", 2)),
            AdiOp::Add(rec("alice", "Clerk", "Branch=York, Period=2007", 3)),
            AdiOp::Purge(bound("Branch=*, Period=!", "Branch=York, Period=2006")),
            AdiOp::Add(rec("carol", "Teller", "Branch=Hull, Period=2007", 4)),
        ];
        {
            let (mut log, _) = OpLog::open_with_vfs(Arc::clone(&arc), path, |_| true).unwrap();
            for op in &old_ops {
                log.append(&op.encode()).unwrap();
            }
            log.sync().unwrap();
        }
        let mut oracle = MemoryAdi::new();
        for op in old_ops.clone() {
            op.apply(&mut oracle);
        }

        let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
        assert!(adi.recovery().is_clean());
        assert_eq!(adi.recovery().frames_replayed, old_ops.len() as u64);
        assert_eq!(adi.snapshot(), oracle.snapshot());

        // New writes append symbol-encoded frames after the v1 prefix;
        // a reopen replays the mixed-generation journal.
        let new_rec = rec("dave", "Teller", "Branch=York, Period=2008", 5);
        oracle.add(new_rec.clone());
        adi.add(new_rec);
        adi.sync().unwrap();
        drop(adi);
        let adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
        assert!(adi.recovery().is_clean());
        assert_eq!(adi.snapshot(), oracle.snapshot());

        // Compaction migrates the file: afterwards every frame carries
        // a symbol-era tag — the v1 add tag is gone.
        adi.compact().unwrap();
        adi.sync().unwrap();
        let data = vfs.read(path).unwrap();
        let mut offset = 0usize;
        let mut frames = 0usize;
        while offset + 4 <= data.len() {
            let len = u32::from_le_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
            let payload = &data[offset + 4..offset + 4 + len];
            assert!(
                payload[0] == OP_DEF || payload[0] == OP_ADD_V2,
                "compacted journal still has a v1 frame (tag {})",
                payload[0]
            );
            frames += 1;
            offset += 4 + len + 4;
        }
        assert!(frames > 0);
        drop(adi);
        let adi = PersistentAdi::open_with_vfs(arc, path).unwrap();
        assert_eq!(adi.snapshot(), oracle.snapshot());
    }

    /// Users are interned in an arena of their own, so user #0 and
    /// string #0 are different identities with the same raw symbol. The
    /// journal keeps them apart (`USER_TAG`): a user named like a role
    /// value, an operation and a context value still replays as itself.
    #[test]
    fn user_and_string_ids_do_not_collide() {
        let vfs = FaultVfs::default();
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let path = Path::new("/collide.log");
        let records = [rec("x", "x", "P=x", 1), rec("employee", "y", "P=employee", 2)];
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
            for r in &records {
                adi.add(r.clone());
            }
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
        assert_eq!(adi.snapshot(), records);
        adi.compact().unwrap();
        drop(adi);
        assert_eq!(PersistentAdi::open_with_vfs(arc, path).unwrap().snapshot(), records);
    }

    /// Shards of one service are opened against one table: replay
    /// interns every shard's journal into it, a symbol means the same
    /// thing in each shard's index, and the symbol-plane commit hook
    /// journals ahead of the index like the string `add` does.
    #[test]
    fn stores_opened_against_one_table_share_it_and_commit_sym_is_durable() {
        let vfs = FaultVfs::default();
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let paths = [Path::new("/shard-0.log"), Path::new("/shard-1.log")];
        let open_all = || {
            let table = Arc::new(SymbolTable::new());
            let stores: Vec<PersistentAdi> = paths
                .iter()
                .map(|p| {
                    PersistentAdi::open_with_table(Arc::clone(&arc), p, Arc::clone(&table)).unwrap()
                })
                .collect();
            (table, stores)
        };
        {
            let (table, mut stores) = open_all();
            stores[0].add(rec("alice", "Teller", "Branch=York, Period=2006", 1));
            // The fast-path form of the same commit: interned by the
            // caller, handed over as symbols.
            let index = stores[1].sym_index().unwrap();
            assert!(Arc::ptr_eq(index.table(), &table));
            let sym = index.intern_record(&rec("bob", "Auditor", "Branch=York, Period=2006", 2));
            stores[1].commit_sym(sym);
            assert_eq!(stores[1].batched_ops(), 10, "9 defines + 1 add queued by commit_sym");
            assert_eq!(stores[1].len(), 1);
            for s in &stores {
                s.sync().unwrap();
            }
        }
        let (table, stores) = open_all();
        assert_eq!(stores[0].len() + stores[1].len(), 2);
        // One table: "York" interned once, whichever shard replayed it.
        let york = table.lookup_ctx_pair("Branch", "York").expect("replay interned into the table");
        for s in &stores {
            let index = s.sym_index().unwrap();
            assert!(Arc::ptr_eq(index.table(), &table));
            assert_eq!(index.sym_records().next().unwrap().ctx[0].id, york);
        }
        assert_eq!(stores[1].snapshot()[0].user, "bob");
    }

    /// After a reopen the writer's dictionary restarts at id 0, so its
    /// define frames redefine ids already bound (to different strings)
    /// by the previous epoch. Replay applies definitions in frame
    /// order, so both epochs' records decode correctly.
    #[test]
    fn redefined_ids_across_writer_epochs_replay_correctly() {
        let vfs = FaultVfs::default();
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let path = Path::new("/epochs.log");
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
            adi.add(rec("alice", "Teller", "P=1", 1));
            adi.sync().unwrap();
        }
        {
            // Fresh epoch: "bob"/"Auditor"/"P=2" claim the same low ids
            // "alice"'s strings held in epoch one.
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), path).unwrap();
            adi.add(rec("bob", "Auditor", "P=2", 2));
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open_with_vfs(arc, path).unwrap();
        let users: Vec<_> = adi.snapshot().iter().map(|r| r.user.clone()).collect();
        assert_eq!(users, ["alice", "bob"]);
    }

    /// A crash between a compaction's temp write and its rename leaves
    /// a stale temp file; the next open removes it and says so.
    #[test]
    fn stale_compaction_tmp_removed_and_flagged() {
        let vfs = FaultVfs::default();
        let path = Path::new("/adi.log");
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::new(vfs.clone()), path).unwrap();
            adi.add(rec("a", "r", "P=1", 1));
            adi.sync().unwrap();
        }
        let tmp = OpLog::compaction_tmp_path(path);
        let mut f = Vfs::open_append(&vfs, &tmp).unwrap();
        f.append(b"half-written compaction").unwrap();
        drop(f);
        let adi = PersistentAdi::open_with_vfs(Arc::new(vfs.clone()), path).unwrap();
        assert!(adi.recovery().stale_compaction_tmp);
        assert!(!adi.recovery().is_clean());
        // 7 define frames + 1 add frame.
        assert_eq!(adi.recovery().frames_replayed, 8);
        assert!(!vfs.exists(&tmp), "stale temp must be removed");
    }

    #[test]
    fn marker_round_trips_and_survives_reopen() {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/adi/marker.log");
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
            assert_eq!(adi.last_marker(), None);
            adi.add(rec("a", "r", "P=1", 1));
            adi.append_marker(0);
            adi.add(rec("b", "r", "P=2", 2));
            adi.append_marker(1);
            adi.sync().unwrap();
        }
        let adi = PersistentAdi::open_with_vfs(arc, &path).unwrap();
        assert_eq!(adi.last_marker(), Some(1));
        assert_eq!(adi.len(), 2);
    }

    #[test]
    fn compaction_preserves_the_marker() {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/adi/marker-compact.log");
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
        adi.add(rec("a", "r", "P=1", 1));
        adi.append_marker(7);
        adi.compact().unwrap();
        assert_eq!(adi.last_marker(), Some(7));
        drop(adi);
        let adi = PersistentAdi::open_with_vfs(arc, &path).unwrap();
        assert_eq!(adi.last_marker(), Some(7), "rewrite must re-emit the checkpoint");
        assert_eq!(adi.len(), 1);
    }

    #[test]
    fn truncate_to_last_marker_recovers_an_exact_command_prefix() {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/adi/marker-trunc.log");
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
            // Two complete commands, then a third whose marker never
            // lands (the simulated crash point).
            adi.add(rec("a", "r", "P=1", 1));
            adi.append_marker(0);
            adi.add(rec("b", "r", "P=2", 2));
            adi.append_marker(1);
            adi.add(rec("c", "r", "P=3", 3));
            adi.flush().unwrap();
            adi.abandon();
        }
        let seq = truncate_to_last_marker_with_vfs(&arc, &path).unwrap();
        assert_eq!(seq, Some(1));
        let adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
        assert!(adi.recovery().is_clean(), "truncated journal must replay cleanly");
        assert_eq!(adi.last_marker(), Some(1));
        let users: Vec<String> = {
            let mut v: Vec<String> = adi.snapshot().into_iter().map(|r| r.user).collect();
            v.sort();
            v
        };
        assert_eq!(users, ["a", "b"], "the half-applied command c must be gone");
    }

    #[test]
    fn truncate_without_any_marker_empties_the_journal() {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/adi/no-marker.log");
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
            adi.add(rec("a", "r", "P=1", 1));
            adi.flush().unwrap();
        }
        assert_eq!(truncate_to_last_marker_with_vfs(&arc, &path).unwrap(), None);
        let adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
        assert_eq!(adi.len(), 0);
        // And a path that never existed is simply `None`.
        assert_eq!(
            truncate_to_last_marker_with_vfs(&arc, &PathBuf::from("/adi/absent.log")).unwrap(),
            None
        );
    }

    #[test]
    fn tail_journal_returns_frames_from_an_index() {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/adi/tail.log");
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        {
            let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
            adi.add(rec("a", "r", "P=1", 1));
            adi.append_marker(0);
            adi.add(rec("b", "r", "P=2", 2));
            adi.append_marker(1);
            adi.flush().unwrap();
        }
        let all = tail_journal_with_vfs(&arc, &path, 0).unwrap();
        let markers: Vec<u64> = all
            .iter()
            .filter_map(|f| match f {
                ReplayFrame::Marker(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(markers, [0, 1]);
        let adds = all.iter().filter(|f| matches!(f, ReplayFrame::Op(AdiOp::Add(_)))).count();
        assert_eq!(adds, 2);
        // Tailing from the end is empty; from one-before holds the
        // final marker.
        assert!(tail_journal_with_vfs(&arc, &path, all.len() as u64).unwrap().is_empty());
        let last = tail_journal_with_vfs(&arc, &path, all.len() as u64 - 1).unwrap();
        assert_eq!(last, vec![ReplayFrame::Marker(1)]);
    }

    #[test]
    fn abandoned_store_never_touches_the_device_on_drop() {
        let vfs = FaultVfs::default();
        let path = PathBuf::from("/adi/abandon.log");
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let mut adi = PersistentAdi::open_with_vfs(Arc::clone(&arc), &path).unwrap();
        adi.add(rec("a", "r", "P=1", 1));
        adi.flush().unwrap();
        let before = vfs.bytes_written();
        adi.add(rec("b", "r", "P=2", 2)); // stays batched
        adi.abandon();
        drop(adi);
        assert_eq!(vfs.bytes_written(), before, "drop after abandon must not write");
        let reopened = PersistentAdi::open_with_vfs(arc, &path).unwrap();
        assert_eq!(reopened.len(), 1, "the batched tail died with the crash");
    }
}
