//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every frame is `[MAGIC][VERSION][TYPE][LEN: u32 LE][payload]` — a
//! 7-byte header followed by exactly `LEN` payload bytes, `LEN` capped
//! at [`MAX_FRAME`]. Requests flow client→server, responses
//! server→client, strictly one response per request in order.
//!
//! Request strings ride a **per-connection dictionary**, reusing the
//! journal-v2 interning discipline (the `storage` crate's `OP_DEF`
//! frames): the client assigns dense sequential ids to each distinct
//! string, ships the definitions once in a [`Request::DefStrs`] frame,
//! and every subsequent request names identities by `u32` reference.
//! The server resolves references against the connection's dictionary
//! and interns them into the service's symbol table once at admission —
//! a repeated user/role/context never crosses the wire or the interner
//! twice. Responses carry plain inline strings (they are read by humans
//! and test harnesses, and the server cannot know the client's
//! dictionary ids for strings the client never defined).
//!
//! Decoding is hostile-input safe: all offset arithmetic is
//! checked-add chained, element counts are bounded by the remaining
//! payload before any allocation, and every decoder consumes the
//! payload exactly — a strict prefix of a valid encoding never
//! decodes, and garbage never panics (pinned by the
//! `wire_roundtrip` proptests, mirroring `frame_roundtrip.rs`).

/// First byte of every binary frame. Chosen to collide with no ASCII
/// HTTP method byte, so one `read` of the first octet routes a
/// connection to the binary or the HTTP/1.1 handler.
pub const MAGIC: u8 = 0xB7;

/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;

/// Hard cap on one frame's payload length. Larger `LEN` prefixes are
/// rejected before any allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Frame header length: magic, version, type, `u32` payload length.
pub const HEADER_LEN: usize = 7;

// Request frame types.
pub const REQ_PING: u8 = 0x00;
pub const REQ_DEF_STRS: u8 = 0x01;
pub const REQ_DECIDE: u8 = 0x02;
pub const REQ_DECIDE_BATCH: u8 = 0x03;
pub const REQ_MANAGE: u8 = 0x04;
pub const REQ_INSPECT: u8 = 0x05;
pub const REQ_METRICS: u8 = 0x06;

// Response frame types (high bit set).
pub const RESP_PONG: u8 = 0x80;
pub const RESP_VERDICT: u8 = 0x81;
pub const RESP_VERDICT_BATCH: u8 = 0x82;
pub const RESP_MANAGED: u8 = 0x83;
pub const RESP_RECORDS: u8 = 0x84;
pub const RESP_TEXT: u8 = 0x85;
pub const RESP_ERROR: u8 = 0x8F;

/// One decision request with every string replaced by a
/// per-connection dictionary reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDecide {
    /// Subject id (dictionary ref).
    pub user: u32,
    /// Pre-validated roles as (type ref, value ref) pairs.
    pub roles: Vec<(u32, u32)>,
    /// Operation ref.
    pub operation: u32,
    /// Target ref.
    pub target: u32,
    /// Business-context instance as (type ref, value ref) pairs in
    /// instance order.
    pub context: Vec<(u32, u32)>,
    /// Environment parameters as (key ref, value ref) pairs.
    pub environment: Vec<(u32, u32)>,
    /// Request time.
    pub timestamp: u64,
}

/// The administrator identity authorizing a management request, as
/// dictionary refs. The server evaluates it against the PDP's own
/// policy on the management target (§4.3) exactly like an in-process
/// `manage`/`inspect` call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAuth {
    /// Subject ref.
    pub subject: u32,
    /// Pre-validated roles as (type ref, value ref) pairs.
    pub roles: Vec<(u32, u32)>,
    /// Request time (audited).
    pub timestamp: u64,
}

/// A management operation on the retained ADI (§4.3), wire form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireManageOp {
    /// Purge one bound scope, named by a context-name string ref
    /// (e.g. `"Project=p1"`; `!` scopes are rejected server-side).
    PurgeContext(u32),
    /// Purge records strictly older than the cutoff.
    PurgeOlderThan(u64),
    /// Purge everything.
    PurgeAll,
}

/// One client→server frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Define dictionary entries: `(id, string)` pairs. Ids must be
    /// dense and sequential (each equal to the dictionary's current
    /// length), mirroring the journal's `OP_DEF` discipline. Answered
    /// with [`Response::Pong`].
    DefStrs(Vec<(u32, String)>),
    /// One decision; answered with [`Response::Verdict`].
    Decide(WireDecide),
    /// A batch, evaluated in order through `decide_many`; answered
    /// with [`Response::VerdictBatch`] of equal length. The batch is
    /// admitted atomically: one unresolvable reference fails the whole
    /// frame with no decisions evaluated.
    DecideBatch(Vec<WireDecide>),
    /// An authorized management purge; answered with
    /// [`Response::Managed`] or [`Response::Error`] when denied.
    Manage {
        /// The administrator identity.
        auth: WireAuth,
        /// What to purge.
        op: WireManageOp,
    },
    /// Authorized read of the retained ADI; answered with
    /// [`Response::Records`].
    Inspect {
        /// The administrator identity.
        auth: WireAuth,
        /// Restrict to one user (dictionary ref).
        user_filter: Option<u32>,
    },
    /// Authorized metrics export (the `metrics` operation on the
    /// management target); answered with [`Response::Text`].
    Metrics {
        /// The administrator identity.
        auth: WireAuth,
    },
}

/// The semantic core of one verdict — exactly the fields the
/// modelcheck harness compares across engine variants, so the wire
/// path can join the differential sweep without lossy re-projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireVerdict {
    /// Granted; no MSoD policy applied.
    NotApplicable,
    /// Granted with MSoD bookkeeping.
    Grant {
        /// Indices of the matched MSoD policies.
        matched: Vec<u32>,
        /// Retained-ADI records added (0 or 1).
        added: u32,
        /// Bound contexts terminated by a last-step grant.
        terminated: Vec<String>,
        /// Records purged by those terminations.
        purged: u64,
    },
    /// Denied by an MMER/MMEP constraint.
    MsodDeny {
        /// Index of the violated policy.
        policy: u32,
        /// The bound business context.
        bound: String,
        /// `true` for MMER, `false` for MMEP.
        mmer: bool,
        /// Index of the violated constraint within the policy.
        constraint: u32,
        /// Entry matches contributed by the current request.
        current: u32,
        /// Entry matches contributed by retained history.
        historic: u32,
        /// The forbidden cardinality reached.
        cardinality: u32,
    },
    /// Denied without an MSoD constraint verdict, with the stable
    /// deny-reason string: before the MSoD stage (domain, credentials,
    /// RBAC), or by it for exceeding a fixed engine bound (a
    /// `resource limit: …` reason).
    FrontEnd(String),
}

/// One retained-ADI record, inline strings (responses skip the
/// dictionary — see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRecord {
    /// User id.
    pub user: String,
    /// Activated roles as (type, value) pairs.
    pub roles: Vec<(String, String)>,
    /// Operation granted.
    pub operation: String,
    /// Target accessed.
    pub target: String,
    /// Business-context instance as (type, value) pairs.
    pub context: Vec<(String, String)>,
    /// Grant time.
    pub timestamp: u64,
}

/// One server→client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Ack for [`Request::Ping`] and [`Request::DefStrs`].
    Pong,
    /// Answer to [`Request::Decide`].
    Verdict(WireVerdict),
    /// Answer to [`Request::DecideBatch`], one verdict per request in
    /// batch order.
    VerdictBatch(Vec<WireVerdict>),
    /// Records removed by an authorized [`Request::Manage`].
    Managed(u64),
    /// Answer to [`Request::Inspect`].
    Records(Vec<WireRecord>),
    /// Answer to [`Request::Metrics`].
    Text(String),
    /// The request was malformed, unresolvable, or denied; the server
    /// closes the connection after an encoding-level error but keeps
    /// it open after an authorization denial.
    Error(String),
}

// ---------------------------------------------------------------------------
// Encoding.

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_ref_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    put_u32(out, pairs.len() as u32);
    for (a, b) in pairs {
        put_u32(out, *a);
        put_u32(out, *b);
    }
}

fn put_str_pairs(out: &mut Vec<u8>, pairs: &[(String, String)]) {
    put_u32(out, pairs.len() as u32);
    for (a, b) in pairs {
        put_str(out, a);
        put_str(out, b);
    }
}

fn put_decide(out: &mut Vec<u8>, d: &WireDecide) {
    put_u32(out, d.user);
    put_ref_pairs(out, &d.roles);
    put_u32(out, d.operation);
    put_u32(out, d.target);
    put_ref_pairs(out, &d.context);
    put_ref_pairs(out, &d.environment);
    put_u64(out, d.timestamp);
}

fn put_auth(out: &mut Vec<u8>, a: &WireAuth) {
    put_u32(out, a.subject);
    put_ref_pairs(out, &a.roles);
    put_u64(out, a.timestamp);
}

fn put_verdict(out: &mut Vec<u8>, v: &WireVerdict) {
    match v {
        WireVerdict::NotApplicable => out.push(0),
        WireVerdict::Grant { matched, added, terminated, purged } => {
            out.push(1);
            put_u32(out, matched.len() as u32);
            for m in matched {
                put_u32(out, *m);
            }
            put_u32(out, *added);
            put_u32(out, terminated.len() as u32);
            for t in terminated {
                put_str(out, t);
            }
            put_u64(out, *purged);
        }
        WireVerdict::MsodDeny {
            policy,
            bound,
            mmer,
            constraint,
            current,
            historic,
            cardinality,
        } => {
            out.push(2);
            put_u32(out, *policy);
            put_str(out, bound);
            out.push(u8::from(*mmer));
            put_u32(out, *constraint);
            put_u32(out, *current);
            put_u32(out, *historic);
            put_u32(out, *cardinality);
        }
        WireVerdict::FrontEnd(reason) => {
            out.push(3);
            put_str(out, reason);
        }
    }
}

fn put_record(out: &mut Vec<u8>, r: &WireRecord) {
    put_str(out, &r.user);
    put_str_pairs(out, &r.roles);
    put_str(out, &r.operation);
    put_str(out, &r.target);
    put_str_pairs(out, &r.context);
    put_u64(out, r.timestamp);
}

/// Append one complete frame (header + payload) for `ty`/`payload`.
fn put_frame(out: &mut Vec<u8>, ty: u8, payload: &[u8]) {
    debug_assert!(payload.len() <= MAX_FRAME);
    out.push(MAGIC);
    out.push(VERSION);
    out.push(ty);
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
}

impl Request {
    /// This request's frame type byte.
    pub fn frame_type(&self) -> u8 {
        match self {
            Request::Ping => REQ_PING,
            Request::DefStrs(_) => REQ_DEF_STRS,
            Request::Decide(_) => REQ_DECIDE,
            Request::DecideBatch(_) => REQ_DECIDE_BATCH,
            Request::Manage { .. } => REQ_MANAGE,
            Request::Inspect { .. } => REQ_INSPECT,
            Request::Metrics { .. } => REQ_METRICS,
        }
    }

    /// Encode the payload alone (no header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => {}
            Request::DefStrs(defs) => {
                put_u32(&mut out, defs.len() as u32);
                for (id, s) in defs {
                    put_u32(&mut out, *id);
                    put_str(&mut out, s);
                }
            }
            Request::Decide(d) => put_decide(&mut out, d),
            Request::DecideBatch(ds) => {
                put_u32(&mut out, ds.len() as u32);
                for d in ds {
                    put_decide(&mut out, d);
                }
            }
            Request::Manage { auth, op } => {
                put_auth(&mut out, auth);
                match op {
                    WireManageOp::PurgeContext(scope) => {
                        out.push(0);
                        put_u32(&mut out, *scope);
                    }
                    WireManageOp::PurgeOlderThan(cutoff) => {
                        out.push(1);
                        put_u64(&mut out, *cutoff);
                    }
                    WireManageOp::PurgeAll => out.push(2),
                }
            }
            Request::Inspect { auth, user_filter } => {
                put_auth(&mut out, auth);
                match user_filter {
                    None => out.push(0),
                    Some(u) => {
                        out.push(1);
                        put_u32(&mut out, *u);
                    }
                }
            }
            Request::Metrics { auth } => put_auth(&mut out, auth),
        }
        out
    }

    /// Append this request as a complete frame.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        put_frame(out, self.frame_type(), &self.encode_payload());
    }

    /// Decode a request payload for frame type `ty`, consuming the
    /// payload exactly. `None` on any malformation (unknown type,
    /// truncation, trailing bytes, hostile counts).
    pub fn decode(ty: u8, payload: &[u8]) -> Option<Request> {
        let mut c = Cur::new(payload);
        let req = match ty {
            REQ_PING => Request::Ping,
            REQ_DEF_STRS => {
                let n = c.count()?;
                let mut defs = Vec::new();
                for _ in 0..n {
                    let id = c.u32()?;
                    let s = c.string()?;
                    defs.push((id, s));
                }
                Request::DefStrs(defs)
            }
            REQ_DECIDE => Request::Decide(c.decide()?),
            REQ_DECIDE_BATCH => {
                let n = c.count()?;
                let mut ds = Vec::new();
                for _ in 0..n {
                    ds.push(c.decide()?);
                }
                Request::DecideBatch(ds)
            }
            REQ_MANAGE => {
                let auth = c.auth()?;
                let op = match c.u8()? {
                    0 => WireManageOp::PurgeContext(c.u32()?),
                    1 => WireManageOp::PurgeOlderThan(c.u64()?),
                    2 => WireManageOp::PurgeAll,
                    _ => return None,
                };
                Request::Manage { auth, op }
            }
            REQ_INSPECT => {
                let auth = c.auth()?;
                let user_filter = match c.u8()? {
                    0 => None,
                    1 => Some(c.u32()?),
                    _ => return None,
                };
                Request::Inspect { auth, user_filter }
            }
            REQ_METRICS => Request::Metrics { auth: c.auth()? },
            _ => return None,
        };
        c.done().then_some(req)
    }
}

impl Response {
    /// This response's frame type byte.
    pub fn frame_type(&self) -> u8 {
        match self {
            Response::Pong => RESP_PONG,
            Response::Verdict(_) => RESP_VERDICT,
            Response::VerdictBatch(_) => RESP_VERDICT_BATCH,
            Response::Managed(_) => RESP_MANAGED,
            Response::Records(_) => RESP_RECORDS,
            Response::Text(_) => RESP_TEXT,
            Response::Error(_) => RESP_ERROR,
        }
    }

    /// Encode the payload alone (no header).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => {}
            Response::Verdict(v) => put_verdict(&mut out, v),
            Response::VerdictBatch(vs) => {
                put_u32(&mut out, vs.len() as u32);
                for v in vs {
                    put_verdict(&mut out, v);
                }
            }
            Response::Managed(n) => put_u64(&mut out, *n),
            Response::Records(rs) => {
                put_u32(&mut out, rs.len() as u32);
                for r in rs {
                    put_record(&mut out, r);
                }
            }
            Response::Text(s) => put_str(&mut out, s),
            Response::Error(s) => put_str(&mut out, s),
        }
        out
    }

    /// Append this response as a complete frame.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        put_frame(out, self.frame_type(), &self.encode_payload());
    }

    /// Decode a response payload for frame type `ty`, consuming the
    /// payload exactly.
    pub fn decode(ty: u8, payload: &[u8]) -> Option<Response> {
        let mut c = Cur::new(payload);
        let resp = match ty {
            RESP_PONG => Response::Pong,
            RESP_VERDICT => Response::Verdict(c.verdict()?),
            RESP_VERDICT_BATCH => {
                let n = c.count()?;
                let mut vs = Vec::new();
                for _ in 0..n {
                    vs.push(c.verdict()?);
                }
                Response::VerdictBatch(vs)
            }
            RESP_MANAGED => Response::Managed(c.u64()?),
            RESP_RECORDS => {
                let n = c.count()?;
                let mut rs = Vec::new();
                for _ in 0..n {
                    rs.push(c.record()?);
                }
                Response::Records(rs)
            }
            RESP_TEXT => Response::Text(c.string()?),
            RESP_ERROR => Response::Error(c.string()?),
            _ => return None,
        };
        c.done().then_some(resp)
    }
}

/// Result of scanning a byte buffer for one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameScan<'a> {
    /// Not enough bytes yet for a complete frame.
    Incomplete,
    /// One complete frame: `(type, payload, total bytes consumed)`.
    Frame(u8, &'a [u8], usize),
    /// The buffer can never become a valid frame (bad magic, bad
    /// version, or a length prefix beyond [`MAX_FRAME`]).
    Malformed(&'static str),
}

/// Scan `buf` for one complete frame without copying. All arithmetic
/// is checked; a hostile length prefix is rejected before any payload
/// is touched.
pub fn scan_frame(buf: &[u8]) -> FrameScan<'_> {
    if buf.is_empty() {
        return FrameScan::Incomplete;
    }
    if buf[0] != MAGIC {
        return FrameScan::Malformed("bad magic byte");
    }
    if buf.len() < HEADER_LEN {
        return FrameScan::Incomplete;
    }
    if buf[1] != VERSION {
        return FrameScan::Malformed("unsupported protocol version");
    }
    let ty = buf[2];
    let len = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]) as usize;
    if len > MAX_FRAME {
        return FrameScan::Malformed("frame length exceeds MAX_FRAME");
    }
    let Some(total) = HEADER_LEN.checked_add(len) else {
        return FrameScan::Malformed("frame length overflows");
    };
    if buf.len() < total {
        return FrameScan::Incomplete;
    }
    FrameScan::Frame(ty, &buf[HEADER_LEN..total], total)
}

// ---------------------------------------------------------------------------
// Decoding cursor: checked arithmetic, exact consumption.

struct Cur<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(b: &'a [u8]) -> Self {
        Cur { b, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.b.len().saturating_sub(self.pos)
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        Some(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        Some(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// An element count, sanity-bounded by the bytes left: every
    /// element occupies at least one byte, so a count beyond
    /// `remaining()` is hostile and rejected before any allocation.
    fn count(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        (n <= self.remaining()).then_some(n)
    }

    fn string(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return None;
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn ref_pairs(&mut self) -> Option<Vec<(u32, u32)>> {
        let n = self.count()?;
        let mut pairs = Vec::new();
        for _ in 0..n {
            let a = self.u32()?;
            let b = self.u32()?;
            pairs.push((a, b));
        }
        Some(pairs)
    }

    fn str_pairs(&mut self) -> Option<Vec<(String, String)>> {
        let n = self.count()?;
        let mut pairs = Vec::new();
        for _ in 0..n {
            let a = self.string()?;
            let b = self.string()?;
            pairs.push((a, b));
        }
        Some(pairs)
    }

    fn decide(&mut self) -> Option<WireDecide> {
        Some(WireDecide {
            user: self.u32()?,
            roles: self.ref_pairs()?,
            operation: self.u32()?,
            target: self.u32()?,
            context: self.ref_pairs()?,
            environment: self.ref_pairs()?,
            timestamp: self.u64()?,
        })
    }

    fn auth(&mut self) -> Option<WireAuth> {
        Some(WireAuth { subject: self.u32()?, roles: self.ref_pairs()?, timestamp: self.u64()? })
    }

    fn verdict(&mut self) -> Option<WireVerdict> {
        Some(match self.u8()? {
            0 => WireVerdict::NotApplicable,
            1 => {
                let n = self.count()?;
                let mut matched = Vec::new();
                for _ in 0..n {
                    matched.push(self.u32()?);
                }
                let added = self.u32()?;
                let n = self.count()?;
                let mut terminated = Vec::new();
                for _ in 0..n {
                    terminated.push(self.string()?);
                }
                WireVerdict::Grant { matched, added, terminated, purged: self.u64()? }
            }
            2 => WireVerdict::MsodDeny {
                policy: self.u32()?,
                bound: self.string()?,
                mmer: match self.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                constraint: self.u32()?,
                current: self.u32()?,
                historic: self.u32()?,
                cardinality: self.u32()?,
            },
            3 => WireVerdict::FrontEnd(self.string()?),
            _ => return None,
        })
    }

    fn record(&mut self) -> Option<WireRecord> {
        Some(WireRecord {
            user: self.string()?,
            roles: self.str_pairs()?,
            operation: self.string()?,
            target: self.string()?,
            context: self.str_pairs()?,
            timestamp: self.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Projections between wire and in-process types.

/// Project a [`permis::DecisionOutcome`] onto its wire verdict — the
/// same semantic core the modelcheck harness diffs across variants.
pub fn verdict_of(outcome: &permis::DecisionOutcome) -> WireVerdict {
    use permis::{DecisionOutcome, DenyReason};
    match outcome {
        DecisionOutcome::Grant { msod: None, .. } => WireVerdict::NotApplicable,
        DecisionOutcome::Grant { msod: Some(d), .. } => WireVerdict::Grant {
            matched: d.matched_policies.iter().map(|&i| i as u32).collect(),
            added: d.records_added as u32,
            terminated: d.terminated.iter().map(|b| b.to_string()).collect(),
            purged: d.records_purged as u64,
        },
        DecisionOutcome::Deny { reason: DenyReason::Msod(d), .. } => WireVerdict::MsodDeny {
            policy: d.policy_index as u32,
            bound: d.bound.to_string(),
            mmer: matches!(d.kind, msod::ConstraintKind::Mmer),
            constraint: d.constraint_index as u32,
            current: d.current_matches as u32,
            historic: d.history_matches as u32,
            cardinality: d.forbidden_cardinality as u32,
        },
        DecisionOutcome::Deny { reason, .. } => WireVerdict::FrontEnd(reason.to_string()),
    }
}

/// Project one retained-ADI record onto its wire form.
pub fn record_of(r: &msod::AdiRecord) -> WireRecord {
    WireRecord {
        user: r.user.clone(),
        roles: r.roles.iter().map(|role| (role.role_type.clone(), role.value.clone())).collect(),
        operation: r.operation.clone(),
        target: r.target.clone(),
        context: r.context.pairs().to_vec(),
        timestamp: r.timestamp,
    }
}

/// Rebuild an [`msod::AdiRecord`] from its wire form (test harnesses
/// compare snapshots in the in-process type).
pub fn record_from_wire(r: &WireRecord) -> Result<msod::AdiRecord, String> {
    Ok(msod::AdiRecord {
        user: r.user.clone(),
        roles: r.roles.iter().map(|(t, v)| msod::RoleRef::new(t.clone(), v.clone())).collect(),
        operation: r.operation.clone(),
        target: r.target.clone(),
        context: context::ContextInstance::from_pairs(r.context.clone())
            .map_err(|e| format!("bad context in wire record: {e}"))?,
        timestamp: r.timestamp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let req = Request::Decide(WireDecide {
            user: 0,
            roles: vec![(1, 2)],
            operation: 3,
            target: 4,
            context: vec![(5, 6), (7, 8)],
            environment: vec![],
            timestamp: 42,
        });
        let mut bytes = Vec::new();
        req.encode_frame(&mut bytes);
        let FrameScan::Frame(ty, payload, total) = scan_frame(&bytes) else {
            panic!("frame must scan");
        };
        assert_eq!(total, bytes.len());
        assert_eq!(Request::decode(ty, payload), Some(req));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut bytes = vec![MAGIC, VERSION, REQ_PING];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(scan_frame(&bytes), FrameScan::Malformed(_)));
    }

    #[test]
    fn trailing_bytes_never_decode() {
        let mut payload = Request::Ping.encode_payload();
        payload.push(0);
        assert_eq!(Request::decode(REQ_PING, &payload), None);
    }
}
