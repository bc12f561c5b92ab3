//! The traced run: spans around the calls into each layer, recorded
//! from the benchmark's own code and kept in memory until the run ends.
//!
//! The parent span of a request is the real call (`permis.decide`, on
//! the wire workloads inside `net.client_decide`). Its child spans time
//! the same request through each layer's public functions on a shadow
//! copy of that layer's state that has been fed the same stream — its
//! own `sharded_sym_adi`, `AuditTrail`, `OpLog`, wire dictionary — so
//! state-dependent cost matches. Children are replays: they run right
//! after the real call, so their clock positions lie *behind* the
//! parent's; compare durations, not positions. Nothing inside the
//! program changes; end-to-end metrics are never taken from this run.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use audit::{AuditEvent, AuditTrail};
use credential::{Authority, CredentialValidationService};
use msod::{
    intern_request, sharded_sym_adi, AdiRecord, EngineOptions, MatchedBuf, MsodRequest, ReqBufs,
    RetainedAdi, RoleRef, ShardedAdi, SymAdi, SymEngine, SymOutcome,
};
use net::proto::{scan_frame, verdict_of, FrameScan, Request, Response, WireDecide};
use net::Backend;
use permis::{
    Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason, ManagementOp,
};
use policy::PdpPolicy;
use storage::{encode_add_v2, OpLog, SymDict};
use symtab::SymbolTable;

use crate::fixture::{self, role};
use crate::stream::Expect;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.function`.
    pub name: &'static str,
    /// The request the span belongs to (its index in the stream).
    pub request: u64,
    /// Index of the span that caused this one; `u32::MAX` for a root.
    pub parent: u32,
    /// Nanoseconds since the trace origin.
    pub start_ns: u64,
    /// Nanoseconds since the trace origin.
    pub end_ns: u64,
}

/// Spans of the first requests (a preallocated buffer, written out when
/// the run ends) plus duration samples of every traced request.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Per-decision nanoseconds by sample name.
    samples: BTreeMap<&'static str, Vec<u64>>,
}

/// Requests whose spans are kept for the trace file.
const FILE_REQUESTS: u64 = 8_192;
const NO_PARENT: u32 = u32::MAX;

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(FILE_REQUESTS as usize * 14),
            samples: BTreeMap::new(),
        }
    }

    /// Record a span (while the file buffer has room) and return its id.
    fn span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        (self.spans.len() - 1) as u32
    }

    fn sample(&mut self, name: &'static str, ns: u64) {
        self.samples.entry(name).or_default().push(ns);
    }

    /// Span + sample in one: the usual case of a child span.
    fn child(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let ns = (end - start).as_nanos() as u64;
        self.span(name, request, parent, start, end);
        self.sample(name, ns);
        ns
    }

    /// The typical value of a sample: its interquartile mean (the mean
    /// of the middle half) — as robust against the tail as a median,
    /// but not quantised to whole nanoseconds, which matters for spans
    /// of a few dozen of them. 0 when the sample was never taken.
    pub fn typical(&self, name: &str) -> f64 {
        let Some(v) = self.samples.get(name) else {
            return 0.0;
        };
        let mut v = v.clone();
        v.sort_unstable();
        let middle = &v[v.len() / 4..v.len() - v.len() / 4];
        middle.iter().sum::<u64>() as f64 / middle.len() as f64
    }

    /// Sum of a sample.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| v.iter().sum::<u64>() as f64)
    }

    /// Number of values in a sample.
    pub fn count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }

    /// Write the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_owned() } else { s.parent.to_string() };
            writeln!(
                out,
                r#"{{"id": {id}, "name": "{}", "request": {}, "parent": {parent}, "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where one request's replay spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChildTimes {
    /// Every child span that mirrors work the real call did.
    pub total: u64,
    /// Credential validation + RBAC check.
    pub front: u64,
    /// Audit append.
    pub audit: u64,
}

impl ChildTimes {
    /// Fold front end and audit into the total.
    fn finish(mut self) -> Self {
        self.total += self.front + self.audit;
        self
    }
}

/// Shadow copies of every layer's state, fed the same stream as the
/// real service.
pub struct Shadow {
    policy: PdpPolicy,
    cvs: CredentialValidationService,
    authority: Authority,
    table: Arc<SymbolTable>,
    engine: SymEngine,
    adi: ShardedAdi<SymAdi>,
    trail: AuditTrail,
    bufs: ReqBufs,
    matched: MatchedBuf,
    journal: OpLog,
    journal_dict: SymDict,
    wire_dict: HashMap<String, u32>,
    wire_defs: Vec<(u32, String)>,
    req_buf: Vec<u8>,
    resp_buf: Vec<u8>,
    /// The real service journals (the shadow journal's time counts
    /// towards the children's total only then).
    durable: bool,
    /// Requests replayed (drives the 1-in-8 credential cadence).
    replayed: u64,
    /// Credentials the shadow CVS rejected (must stay 0).
    pub rejected: u64,
    /// Wire bytes (request + response frames) the shadow codec produced.
    pub wire_bytes: u64,
    /// Dictionary definitions the shadow codec staged.
    pub wire_defs_total: u64,
    /// Encoded audit bytes and events sampled for `audit.bytes_per_event`.
    pub audit_bytes: (u64, u64),
    /// The recorder.
    pub rec: Recorder,
}

/// The scope a last step terminates, from the request's own context:
/// `Branch=*` for the MMER policies, the instance itself for the MMEP.
fn last_step_scope(req: &DecisionRequest) -> String {
    match req.context.pairs() {
        [(b, _), (p, v)] if b == "Branch" => format!("Branch=*, {p}={v}"),
        _ => req.context.to_string(),
    }
}

fn record_of(req: &DecisionRequest, roles: &[RoleRef]) -> AdiRecord {
    AdiRecord {
        user: req.subject.clone(),
        roles: roles.to_vec(),
        operation: req.operation.clone(),
        target: req.target.clone(),
        context: req.context.clone(),
        timestamp: req.timestamp,
    }
}

impl Shadow {
    /// Shadow layers over the fixture policy, the retained ADI still
    /// empty ([`Shadow::load`] preloads it). The shadow journal lives
    /// at `journal_path`.
    pub fn new(xml: &str, journal_path: &Path, durable: bool) -> Self {
        let policy = policy::parse_rbac_policy(xml).expect("the fixture policy parses");
        let mut cvs = CredentialValidationService::new();
        cvs.trust(fixture::SOA_DN);
        cvs.register_key(fixture::SOA_DN, fixture::SOA_KEY.to_vec());
        let table = Arc::new(SymbolTable::new());
        let engine = SymEngine::compile(&policy.msod, &EngineOptions::default(), &table)
            .expect("the fixture policy fits the symbolized engine");
        let adi = sharded_sym_adi(&table, msod::DEFAULT_SHARDS);
        let _ = std::fs::remove_file(journal_path);
        let (journal, _) = OpLog::open(journal_path, |_| true).expect("open the shadow journal");
        Shadow {
            policy,
            cvs,
            authority: Authority::new(fixture::SOA_DN, fixture::SOA_KEY.to_vec()),
            table,
            engine,
            adi,
            trail: AuditTrail::new(fixture::TRAIL_KEY.to_vec()),
            bufs: ReqBufs::new(),
            matched: MatchedBuf::new(),
            journal,
            journal_dict: SymDict::new(),
            wire_dict: HashMap::new(),
            wire_defs: Vec::new(),
            req_buf: Vec::new(),
            resp_buf: Vec::new(),
            durable,
            replayed: 0,
            rejected: 0,
            wire_bytes: 0,
            wire_defs_total: 0,
            audit_bytes: (0, 0),
            rec: Recorder::new(),
        }
    }

    /// Load one batch of the preload into the shadow retained ADI.
    pub fn load(&mut self, records: Vec<AdiRecord>) {
        for rec in records {
            let user = rec.user.clone();
            self.adi.with_user_shard(&user, |shard| shard.add(rec));
        }
    }

    /// Record a span that the caller timed around a real call.
    pub fn rec_span(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        self.rec.span(name, request, parent.unwrap_or(NO_PARENT), start, end)
    }

    /// Add one per-decision duration to the sample `name`.
    pub fn rec_sample(&mut self, name: &'static str, ns: u64) {
        self.rec.sample(name, ns);
    }

    /// Forget everything recorded so far (after the warm-up).
    pub fn reset_recorder(&mut self) {
        self.rec = Recorder::new();
        self.wire_bytes = 0;
        self.wire_defs_total = 0;
        self.audit_bytes = (0, 0);
    }

    /// Records the shadow retained ADI holds (must track the real one).
    pub fn adi_len(&self) -> usize {
        self.adi.len()
    }

    /// The shadow symbol table.
    pub fn table(&self) -> &SymbolTable {
        &self.table
    }

    /// Seal the shadow trail's open segment, as the embedder does on
    /// the real one after every repetition.
    pub fn rotate(&mut self) {
        self.trail.rotate();
    }

    fn wire_ref(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.wire_dict.get(s) {
            return id;
        }
        let id = self.wire_dict.len() as u32;
        self.wire_dict.insert(s.to_owned(), id);
        self.wire_defs.push((id, s.to_owned()));
        id
    }

    fn lower(&mut self, req: &DecisionRequest, roles: &[RoleRef]) -> WireDecide {
        WireDecide {
            user: self.wire_ref(&req.subject),
            roles: roles
                .iter()
                .map(|r| (self.wire_ref(&r.role_type), self.wire_ref(&r.value)))
                .collect(),
            operation: self.wire_ref(&req.operation),
            target: self.wire_ref(&req.target),
            context: req
                .context
                .pairs()
                .iter()
                .map(|(t, v)| (self.wire_ref(t), self.wire_ref(v)))
                .collect(),
            environment: Vec::new(),
            timestamp: req.timestamp,
        }
    }

    /// Time the wire codec on one frame's worth of requests and real
    /// outcomes: lower + encode, scan + decode, and the same for the
    /// response. Samples are per decision.
    /// Returns the four spans' total.
    pub fn codec(
        &mut self,
        request: u64,
        parent: u32,
        calls: &[(&DecisionRequest, &DecisionOutcome)],
    ) -> u64 {
        let n = calls.len() as u64;
        let validated: Vec<Vec<RoleRef>> = calls
            .iter()
            .map(|(req, out)| match (&req.credentials, out) {
                (Credentials::Validated(r), _) => r.clone(),
                (_, DecisionOutcome::Grant { roles, .. } | DecisionOutcome::Deny { roles, .. }) => {
                    roles.clone()
                }
            })
            .collect();

        let t0 = Instant::now();
        let mut wire: Vec<WireDecide> =
            calls.iter().zip(&validated).map(|((req, _), roles)| self.lower(req, roles)).collect();
        self.req_buf.clear();
        if !self.wire_defs.is_empty() {
            self.wire_defs_total += self.wire_defs.len() as u64;
            Request::DefStrs(std::mem::take(&mut self.wire_defs)).encode_frame(&mut self.req_buf);
        }
        let defs_len = self.req_buf.len();
        let frame = if wire.len() == 1 {
            Request::Decide(wire.remove(0))
        } else {
            Request::DecideBatch(wire)
        };
        frame.encode_frame(&mut self.req_buf);
        let t1 = Instant::now();
        let decoded = match scan_frame(&self.req_buf[defs_len..]) {
            FrameScan::Frame(ty, payload, _) => Request::decode(ty, payload),
            _ => None,
        };
        let t2 = Instant::now();
        assert_eq!(decoded.as_ref(), Some(&frame), "request frame must round-trip");

        self.resp_buf.clear();
        let t3 = Instant::now();
        let response = if calls.len() == 1 {
            Response::Verdict(verdict_of(calls[0].1))
        } else {
            Response::VerdictBatch(calls.iter().map(|(_, out)| verdict_of(out)).collect())
        };
        response.encode_frame(&mut self.resp_buf);
        let t4 = Instant::now();
        let decoded = match scan_frame(&self.resp_buf) {
            FrameScan::Frame(ty, payload, _) => Response::decode(ty, payload),
            _ => None,
        };
        let t5 = Instant::now();
        assert_eq!(decoded.as_ref(), Some(&response), "response frame must round-trip");

        self.wire_bytes += (self.req_buf.len() + self.resp_buf.len()) as u64;
        for (name, a, b) in [
            ("net.encode_req", t0, t1),
            ("net.decode_req", t1, t2),
            ("net.encode_resp", t3, t4),
            ("net.decode_resp", t4, t5),
        ] {
            self.rec.span(name, request, parent, a, b);
            self.rec.sample(name, (b - a).as_nanos() as u64 / n);
        }
        ((t2 - t0) + (t5 - t3)).as_nanos() as u64
    }

    /// Apply a management purge to the shadow state (untimed).
    pub fn manage(&mut self, scope: &str, timestamp: u64) {
        let bound = permis::purge_scope(scope).expect("fixture scopes are bound");
        self.adi.purge(&bound);
        self.trail.append(AuditEvent::admin_purge(scope, "management purge"), timestamp);
    }

    /// Replay one decided request through every shadow layer, timing
    /// each as a child of `parent`.
    pub fn replay(
        &mut self,
        request: u64,
        parent: u32,
        req: &DecisionRequest,
        real: &DecisionOutcome,
        expect: Expect,
    ) -> ChildTimes {
        let mut times = ChildTimes::default();
        self.replayed += 1;

        // credential: every eighth request validates two signed
        // credentials — its own when it pushed them.
        let pushed;
        let roles: &[RoleRef] = match &req.credentials {
            Credentials::Push(creds) => {
                let t = Instant::now();
                let out = self.cvs.validate_push(&req.subject, creds, req.timestamp);
                times.front +=
                    self.rec.child("credential.validate_push", request, parent, t, Instant::now());
                self.rejected += out.rejected.len() as u64;
                pushed = out.roles;
                &pushed
            }
            Credentials::Validated(roles) => {
                if self.replayed.is_multiple_of(8) {
                    // The wire carries validated roles only; keep the
                    // layer measured there too, outside the children's
                    // total (the real call did not do this work).
                    let creds = [
                        self.authority.issue(req.subject.clone(), roles[0].clone(), 0, u64::MAX),
                        self.authority.issue(req.subject.clone(), role("Staff"), 0, u64::MAX),
                    ];
                    let t = Instant::now();
                    let out = self.cvs.validate_push(&req.subject, &creds, req.timestamp);
                    self.rec.child("credential.validate_push", request, parent, t, Instant::now());
                    self.rejected += out.rejected.len() as u64;
                }
                roles
            }
            Credentials::Pull => unreachable!("the streams never pull credentials"),
        };

        // policy: the RBAC target-access check.
        let t = Instant::now();
        let permitted =
            self.policy.rbac_permits_env(roles, &req.operation, &req.target, &req.environment);
        times.front += self.rec.child("policy.rbac_check", request, parent, t, Instant::now());

        let encode_roles = |roles: &[RoleRef]| {
            roles.iter().map(|r| format!("{}:{}", r.role_type, r.value)).collect()
        };
        if !permitted {
            let t = Instant::now();
            let event = AuditEvent::deny(
                req.subject.clone(),
                encode_roles(roles),
                req.operation.clone(),
                req.target.clone(),
                req.context.to_string(),
                DenyReason::RbacDenied.to_string(),
            );
            self.trail.append(event, req.timestamp);
            times.audit += self.rec.child("audit.append_deny", request, parent, t, Instant::now());
            return times.finish();
        }

        // symtab: intern the request once, at the boundary.
        let msod_req = MsodRequest {
            user: &req.subject,
            roles,
            operation: &req.operation,
            target: &req.target,
            context: &req.context,
            timestamp: req.timestamp,
        };
        let t = Instant::now();
        let sym_req = intern_request(&self.table, &msod_req, &mut self.bufs)
            .expect("fixture requests fit the interning buffers");
        times.total += self.rec.child("symtab.intern_hit", request, parent, t, Instant::now());

        // msod: §4.2 on the shadow retained ADI.
        let t = Instant::now();
        let outcome = self.engine.enforce_sharded(&self.adi, &sym_req, &mut self.matched);
        let t_end = Instant::now();
        let (msod_matched, added) = match outcome {
            SymOutcome::NotApplicable => {
                times.total += self.rec.child("msod.enforce_na", request, parent, t, t_end);
                (false, false)
            }
            SymOutcome::Grant { records_added, .. } => {
                times.total += self.rec.child("msod.enforce_grant", request, parent, t, t_end);
                (true, records_added == 1)
            }
            SymOutcome::Deny(_) => {
                times.total += self.rec.child("msod.enforce_deny", request, parent, t, t_end);
                let t = Instant::now();
                let reason = real.deny_reason().map(ToString::to_string).unwrap_or_default();
                let event = AuditEvent::deny(
                    req.subject.clone(),
                    encode_roles(roles),
                    req.operation.clone(),
                    req.target.clone(),
                    req.context.to_string(),
                    reason,
                );
                self.trail.append(event, req.timestamp);
                times.audit +=
                    self.rec.child("audit.append_deny", request, parent, t, Instant::now());
                self.sample_audit_bytes();
                return times.finish();
            }
            SymOutcome::Fallback => {
                // A last step: the symbolized engine hands it to the
                // exclusive path. Keep the shadow state in step with
                // what the shadow model says that path does.
                let Expect::LastStep { added, purged } = expect else {
                    panic!("only last steps leave the fast path, got {expect:?} for {req:?}");
                };
                if added == 1 {
                    let rec = record_of(req, roles);
                    self.adi.with_user_shard(&req.subject, |shard| shard.add(rec));
                }
                let scope = last_step_scope(req);
                let removed =
                    self.adi.purge(&permis::purge_scope(&scope).expect("fixture scopes are bound"));
                assert_eq!(removed, purged as usize, "shadow ADI out of step at {scope}");
                self.trail.append(AuditEvent::context_terminated(scope), req.timestamp);
                (true, false)
            }
        };

        // storage: journal the committed record (symbol-encoded frames
        // appended through the op log, as the durable backend does).
        if added {
            let rec = record_of(req, roles);
            let t = Instant::now();
            let mut frames = Vec::with_capacity(1);
            encode_add_v2(&mut self.journal_dict, &rec, &mut frames);
            for frame in &frames {
                self.journal.append(frame).expect("append to the shadow journal");
            }
            let ns = self.rec.child("storage.append", request, parent, t, Instant::now());
            // Only the durable service journals inside the real call.
            if self.durable {
                times.total += ns;
            }
        }

        // audit: build the event, encode it, extend the hash chain.
        let t = Instant::now();
        let event = AuditEvent::grant(
            req.subject.clone(),
            encode_roles(roles),
            req.operation.clone(),
            req.target.clone(),
            req.context.to_string(),
            msod_matched,
        );
        self.trail.append(event, req.timestamp);
        times.audit += self.rec.child("audit.append_grant", request, parent, t, Instant::now());
        self.sample_audit_bytes();
        times.finish()
    }

    /// Every 64th replay, note the encoded size of the event just
    /// appended (outside any span).
    fn sample_audit_bytes(&mut self) {
        if self.replayed.is_multiple_of(64) {
            if let Some(last) = self.trail.open_records().last() {
                self.audit_bytes.0 += last.to_bytes().len() as u64;
                self.audit_bytes.1 += 1;
            }
        }
    }

    /// `intern_request` on strings the table has never seen: the miss
    /// path, probed once the stream is done.
    pub fn probe_intern_miss(&mut self, n: usize) {
        for i in 0..n {
            let user = format!("cn=probe{i:05}, o=bank");
            let roles = [role(format!("ProbeRole_{i}"))];
            let context: context::ContextInstance =
                format!("Branch=P{i:05}, Period=probe-{i:05}").parse().expect("probe context");
            let operation = format!("probeOp_{i}");
            let msod_req = MsodRequest {
                user: &user,
                roles: &roles,
                operation: &operation,
                target: "http://bank/probe",
                context: &context,
                timestamp: 0,
            };
            let t = Instant::now();
            let interned = intern_request(&self.table, &msod_req, &mut self.bufs).is_some();
            let ns = t.elapsed().as_nanos() as u64;
            assert!(interned);
            self.rec.sample("symtab.intern_miss", ns);
        }
    }
}

/// What a traced wire call saw on the server side.
#[derive(Debug, Default)]
pub struct Tap {
    /// `(start, end)` of the backend call.
    pub call: Option<(Instant, Instant)>,
    /// The real outcomes, in request order.
    pub outcomes: Vec<DecisionOutcome>,
}

/// The server's backend with a tap around the decision calls — the
/// benchmark's own code at the `net` → `permis` boundary.
pub struct TappedBackend {
    inner: Arc<DecisionService<SymAdi>>,
    enabled: AtomicBool,
    tap: std::sync::Mutex<Tap>,
}

impl TappedBackend {
    /// Tap `inner`; starts disabled (plain forwarding).
    pub fn new(inner: Arc<DecisionService<SymAdi>>) -> Self {
        TappedBackend { inner, enabled: AtomicBool::new(false), tap: std::sync::Mutex::default() }
    }

    /// Switch span capture on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Take what the last call left.
    pub fn take(&self) -> Tap {
        std::mem::take(&mut *self.tap.lock().expect("tap mutex poisoned"))
    }

    fn record(&self, start: Instant, outcomes: Vec<DecisionOutcome>) {
        let mut tap = self.tap.lock().expect("tap mutex poisoned");
        tap.call = Some((start, Instant::now()));
        tap.outcomes = outcomes;
    }
}

impl Backend for TappedBackend {
    fn decide(&self, req: &DecisionRequest) -> DecisionOutcome {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.decide(req);
        }
        let start = Instant::now();
        let out = self.inner.decide(req);
        self.record(start, vec![out.clone()]);
        out
    }

    fn decide_many(&self, reqs: &[DecisionRequest]) -> Vec<DecisionOutcome> {
        if !self.enabled.load(Ordering::Relaxed) {
            return self.inner.decide_many(reqs);
        }
        let start = Instant::now();
        let out = self.inner.decide_many(reqs);
        self.record(start, out.clone());
        out
    }

    fn manage(
        &self,
        subject: String,
        credentials: Credentials,
        op: ManagementOp,
        timestamp: u64,
    ) -> Result<usize, DenyReason> {
        self.inner.manage(subject, credentials, op, timestamp)
    }

    fn inspect(
        &self,
        subject: String,
        credentials: Credentials,
        user_filter: Option<&str>,
        timestamp: u64,
    ) -> Result<Vec<AdiRecord>, DenyReason> {
        self.inner.inspect(subject, credentials, user_filter, timestamp)
    }

    fn inspect_metrics(
        &self,
        subject: String,
        credentials: Credentials,
        timestamp: u64,
    ) -> Result<String, DenyReason> {
        self.inner.inspect_metrics(subject, credentials, timestamp)
    }

    fn metrics_text(&self) -> String {
        self.inner.metrics_text()
    }

    fn trigger_flight(&self, reason: &str) {
        self.inner.trigger_flight(reason);
    }
}

/// Records consulted by the MSoD stage, as the real outcome reports it.
pub fn records_consulted(out: &DecisionOutcome) -> u64 {
    match out {
        DecisionOutcome::Grant { msod: Some(d), .. } => d.records_consulted as u64,
        DecisionOutcome::Deny { reason: DenyReason::Msod(d), .. } => d.records_consulted as u64,
        _ => 0,
    }
}
