//! The decision server: a thread-pool TCP accept loop speaking the
//! binary wire protocol, with plain HTTP/1.1 text endpoints on the
//! same port.
//!
//! One `read` of a connection's first byte routes it: [`MAGIC`] opens
//! a binary session (length-prefixed frames, per-connection string
//! dictionary, one response per request in order), anything else is
//! handled as a single HTTP/1.1 exchange (`GET /metrics`,
//! `GET /healthz`) and closed.
//!
//! The server is deliberately non-generic: it holds the decision
//! service behind the object-safe [`Backend`] trait, so one
//! `NetServer` type fronts in-memory and persistent services alike.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use msod::{AdiRecord, RetainedAdi, RoleRef};
use obs::{Counter, PromWriter};
use permis::{
    purge_scope, Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason,
    ManagementOp,
};

use crate::proto::{
    record_of, scan_frame, verdict_of, FrameScan, Request, Response, WireAuth, WireDecide,
    WireManageOp, MAGIC, MAX_FRAME,
};

/// Per-connection dictionary caps: a client may define at most this
/// many strings…
pub const MAX_DICT_ENTRIES: usize = 1 << 16;
/// …totalling at most this many bytes.
pub const MAX_DICT_BYTES: usize = 1 << 22;

/// How the server reaches the decision plane. Object-safe so
/// [`NetServer`] needs no type parameter; implemented by
/// [`DecisionService`] over any sendable ADI backend.
pub trait Backend: Send + Sync {
    /// One decision.
    fn decide(&self, req: &DecisionRequest) -> DecisionOutcome;
    /// An ordered batch of decisions (`DecisionService::decide_many`).
    fn decide_many(&self, reqs: &[DecisionRequest]) -> Vec<DecisionOutcome>;
    /// An authorized management purge (§4.3).
    fn manage(
        &self,
        subject: String,
        credentials: Credentials,
        op: ManagementOp,
        timestamp: u64,
    ) -> Result<usize, DenyReason>;
    /// An authorized retained-ADI read.
    fn inspect(
        &self,
        subject: String,
        credentials: Credentials,
        user_filter: Option<&str>,
        timestamp: u64,
    ) -> Result<Vec<AdiRecord>, DenyReason>;
    /// An authorized metrics export.
    fn inspect_metrics(
        &self,
        subject: String,
        credentials: Credentials,
        timestamp: u64,
    ) -> Result<String, DenyReason>;
    /// The service's unauthenticated metrics document.
    fn metrics_text(&self) -> String;
    /// Fire the service's flight recorder.
    fn trigger_flight(&self, reason: &str);
}

impl<A: RetainedAdi + Send + 'static> Backend for DecisionService<A> {
    fn decide(&self, req: &DecisionRequest) -> DecisionOutcome {
        DecisionService::decide(self, req)
    }

    fn decide_many(&self, reqs: &[DecisionRequest]) -> Vec<DecisionOutcome> {
        DecisionService::decide_many(self, reqs)
    }

    fn manage(
        &self,
        subject: String,
        credentials: Credentials,
        op: ManagementOp,
        timestamp: u64,
    ) -> Result<usize, DenyReason> {
        DecisionService::manage(self, subject, credentials, op, timestamp)
    }

    fn inspect(
        &self,
        subject: String,
        credentials: Credentials,
        user_filter: Option<&str>,
        timestamp: u64,
    ) -> Result<Vec<AdiRecord>, DenyReason> {
        DecisionService::inspect(self, subject, credentials, user_filter, timestamp)
    }

    fn inspect_metrics(
        &self,
        subject: String,
        credentials: Credentials,
        timestamp: u64,
    ) -> Result<String, DenyReason> {
        DecisionService::inspect_metrics(self, subject, credentials, timestamp)
    }

    fn metrics_text(&self) -> String {
        DecisionService::metrics_text(self)
    }

    fn trigger_flight(&self, reason: &str) {
        DecisionService::trigger_flight(self, reason)
    }
}

/// Network-plane instrumentation, all derived-gauge discipline: `obs`
/// gauges are last-write-wins with no increment, so "active" and
/// "depth" figures are pairs of monotonic counters whose difference is
/// the level — race-free without read-modify-write.
#[derive(Default)]
pub struct NetMetrics {
    /// Connections accepted.
    pub conns_opened: Counter,
    /// Connections fully torn down.
    pub conns_closed: Counter,
    /// Connections queued toward the worker pool.
    pub accept_enqueued: Counter,
    /// Connections a worker picked up.
    pub accept_dequeued: Counter,
    /// Binary request frames handled, by outcome.
    pub requests: Counter,
    /// Request frames answered with [`Response::Error`].
    pub request_errors: Counter,
    /// Frames (or initial bytes) the codec rejected outright.
    pub decode_errors: Counter,
    /// HTTP exchanges served.
    pub http_requests: Counter,
}

impl NetMetrics {
    /// Render the `net_*` families.
    pub fn export(&self, w: &mut PromWriter) {
        w.counter(
            "net_connections_opened_total",
            "TCP connections accepted.",
            &[],
            self.conns_opened.get(),
        );
        w.counter(
            "net_connections_closed_total",
            "TCP connections torn down.",
            &[],
            self.conns_closed.get(),
        );
        w.gauge(
            "net_connections_active",
            "Open connections (opened minus closed).",
            &[],
            self.conns_opened.get().saturating_sub(self.conns_closed.get()),
        );
        w.counter(
            "net_accept_enqueued_total",
            "Connections queued for a worker.",
            &[],
            self.accept_enqueued.get(),
        );
        w.counter(
            "net_accept_dequeued_total",
            "Connections picked up by a worker.",
            &[],
            self.accept_dequeued.get(),
        );
        w.gauge(
            "net_accept_queue_depth",
            "Connections awaiting a worker (enqueued minus dequeued).",
            &[],
            self.accept_enqueued.get().saturating_sub(self.accept_dequeued.get()),
        );
        w.counter("net_requests_total", "Binary request frames handled.", &[], self.requests.get());
        w.counter(
            "net_request_errors_total",
            "Request frames answered with an error.",
            &[],
            self.request_errors.get(),
        );
        w.counter(
            "net_decode_errors_total",
            "Frames rejected by the codec.",
            &[],
            self.decode_errors.get(),
        );
        w.counter(
            "net_http_requests_total",
            "HTTP exchanges served.",
            &[],
            self.http_requests.get(),
        );
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accept-queue depth at which the server fires the service's
    /// flight recorder (`accept_queue_stall`) — the black box captures
    /// the moment the pool stops keeping up.
    pub stall_threshold: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { workers: 4, stall_threshold: 64 }
    }
}

struct Shared {
    backend: Arc<dyn Backend>,
    metrics: NetMetrics,
    shutdown: AtomicBool,
    stall_latched: AtomicBool,
    stall_threshold: u64,
}

/// The running server. Dropping it (or calling
/// [`NetServer::shutdown`]) stops the accept loop, drains the workers
/// and joins every thread — tests and the modelcheck sweep spawn
/// thousands of these, so leaked threads are not an option.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `backend` with `cfg.workers` threads.
    pub fn bind<B>(addr: &str, backend: Arc<B>, cfg: NetConfig) -> std::io::Result<NetServer>
    where
        B: Backend + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            metrics: NetMetrics::default(),
            shutdown: AtomicBool::new(false),
            stall_latched: AtomicBool::new(false),
            stall_threshold: cfg.stall_threshold,
        });

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("net-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
                    .expect("spawn net worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-accept".to_owned())
                .spawn(move || accept_loop(&listener, &tx, &shared))
                .expect("spawn net acceptor")
        };

        Ok(NetServer { addr: local, shared, accept: Some(accept), workers })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The full metrics document this server exposes over
    /// `GET /metrics`: the decision service's own document, byte for
    /// byte, with the `net_*` families appended.
    pub fn metrics_text(&self) -> String {
        let mut text = self.shared.backend.metrics_text();
        let mut w = PromWriter::new();
        self.shared.metrics.export(&mut w);
        text.push_str(&w.finish());
        text
    }

    /// Stop accepting, drain the workers and join every thread.
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor may be parked in `accept()`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The acceptor owned the queue sender, so its exit disconnects
        // the channel and idle workers drain out; busy workers notice
        // the flag at their next read timeout.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<TcpStream>, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.conns_opened.inc();
        shared.metrics.accept_enqueued.inc();
        let depth = shared
            .metrics
            .accept_enqueued
            .get()
            .saturating_sub(shared.metrics.accept_dequeued.get());
        if depth >= shared.stall_threshold && !shared.stall_latched.swap(true, Ordering::Relaxed) {
            shared.backend.trigger_flight("accept_queue_stall");
        }
        if tx.send(stream).is_err() {
            return;
        }
    }
}

fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Shared) {
    loop {
        let next = {
            let guard = rx.lock().expect("net queue lock");
            guard.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(stream) => {
                shared.metrics.accept_dequeued.inc();
                handle_connection(stream, shared);
                shared.metrics.conns_closed.inc();
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Route one connection by its first byte: the binary magic opens a
/// framed session, anything else is one HTTP exchange.
fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // Frames are small and the protocol is strictly request/response:
    // Nagle + delayed ACK would add ~40ms to every round trip.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut first = [0u8; 1];
    loop {
        match stream.read(&mut first) {
            Ok(0) => return,
            Ok(_) => break,
            Err(e) if would_block(&e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    if first[0] == MAGIC {
        binary_session(stream, first[0], shared);
    } else {
        http_exchange(stream, first[0], shared);
    }
}

fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// The per-connection request dictionary: dense ids, bounded size.
struct ConnDict {
    strings: Vec<String>,
    bytes: usize,
}

impl ConnDict {
    fn new() -> Self {
        ConnDict { strings: Vec::new(), bytes: 0 }
    }

    fn define(&mut self, id: u32, s: String) -> Result<(), String> {
        if id as usize != self.strings.len() {
            return Err(format!(
                "non-sequential dictionary id {id} (expected {})",
                self.strings.len()
            ));
        }
        if self.strings.len() >= MAX_DICT_ENTRIES {
            return Err("dictionary entry cap exceeded".to_owned());
        }
        self.bytes += s.len();
        if self.bytes > MAX_DICT_BYTES {
            return Err("dictionary byte cap exceeded".to_owned());
        }
        self.strings.push(s);
        Ok(())
    }

    fn get(&self, id: u32) -> Result<&str, String> {
        self.strings
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| format!("undefined dictionary id {id}"))
    }

    fn pairs(&self, refs: &[(u32, u32)]) -> Result<Vec<(String, String)>, String> {
        refs.iter().map(|&(a, b)| Ok((self.get(a)?.to_owned(), self.get(b)?.to_owned()))).collect()
    }

    fn roles(&self, refs: &[(u32, u32)]) -> Result<Vec<RoleRef>, String> {
        refs.iter().map(|&(t, v)| Ok(RoleRef::new(self.get(t)?, self.get(v)?))).collect()
    }

    /// Resolve a wire decide into the in-process request type. This is
    /// the admission point: from here inward the request is ordinary
    /// and the symbolized service interns it exactly once.
    fn resolve_decide(&self, d: &WireDecide) -> Result<DecisionRequest, String> {
        Ok(DecisionRequest {
            subject: self.get(d.user)?.to_owned(),
            credentials: Credentials::Validated(self.roles(&d.roles)?),
            operation: self.get(d.operation)?.to_owned(),
            target: self.get(d.target)?.to_owned(),
            context: context::ContextInstance::from_pairs(self.pairs(&d.context)?)
                .map_err(|e| format!("bad context: {e}"))?,
            environment: self.pairs(&d.environment)?,
            timestamp: d.timestamp,
        })
    }

    fn resolve_auth(&self, a: &WireAuth) -> Result<(String, Credentials), String> {
        Ok((self.get(a.subject)?.to_owned(), Credentials::Validated(self.roles(&a.roles)?)))
    }
}

/// The framed request/response loop. Protocol violations (bad frames,
/// dictionary discipline breaches) answer with an error frame and
/// close; authorization denials answer with an error frame and keep
/// the session open.
fn binary_session(mut stream: TcpStream, first: u8, shared: &Shared) {
    let mut dict = ConnDict::new();
    let mut buf: Vec<u8> = vec![first];
    let mut chunk = [0u8; 16 * 1024];
    loop {
        // Drain every complete frame already buffered.
        loop {
            match scan_frame(&buf) {
                FrameScan::Incomplete => break,
                FrameScan::Malformed(why) => {
                    shared.metrics.decode_errors.inc();
                    send_response(&mut stream, &Response::Error(format!("malformed frame: {why}")));
                    return;
                }
                FrameScan::Frame(ty, payload, consumed) => {
                    let Some(req) = Request::decode(ty, payload) else {
                        shared.metrics.decode_errors.inc();
                        send_response(
                            &mut stream,
                            &Response::Error(format!(
                                "undecodable payload for frame type {ty:#04x}"
                            )),
                        );
                        return;
                    };
                    buf.drain(..consumed);
                    shared.metrics.requests.inc();
                    let (resp, fatal) = handle_request(req, &mut dict, shared);
                    if matches!(resp, Response::Error(_)) {
                        shared.metrics.request_errors.inc();
                    }
                    if !send_response(&mut stream, &resp) || fatal {
                        return;
                    }
                }
            }
        }
        if buf.len() > MAX_FRAME + crate::proto::HEADER_LEN {
            // scan_frame() bounds frames to MAX_FRAME, so this is
            // unreachable garbage accumulation; drop the peer.
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if would_block(&e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Answer one decoded request. The `bool` is `true` when the session
/// must close afterwards (dictionary discipline violations).
fn handle_request(req: Request, dict: &mut ConnDict, shared: &Shared) -> (Response, bool) {
    match req {
        Request::Ping => (Response::Pong, false),
        Request::DefStrs(defs) => {
            for (id, s) in defs {
                if let Err(e) = dict.define(id, s) {
                    return (Response::Error(e), true);
                }
            }
            (Response::Pong, false)
        }
        Request::Decide(d) => match dict.resolve_decide(&d) {
            Ok(req) => (Response::Verdict(verdict_of(&shared.backend.decide(&req))), false),
            Err(e) => (Response::Error(e), true),
        },
        Request::DecideBatch(ds) => {
            // Atomic admission: resolve the whole batch before any
            // decision runs, so a bad reference cannot leave a prefix
            // of the batch recorded in the ADI.
            let resolved: Result<Vec<DecisionRequest>, String> =
                ds.iter().map(|d| dict.resolve_decide(d)).collect();
            match resolved {
                Ok(reqs) => {
                    let outs = shared.backend.decide_many(&reqs);
                    (Response::VerdictBatch(outs.iter().map(verdict_of).collect()), false)
                }
                Err(e) => (Response::Error(e), true),
            }
        }
        Request::Manage { auth, op } => {
            let (subject, creds) = match dict.resolve_auth(&auth) {
                Ok(v) => v,
                Err(e) => return (Response::Error(e), true),
            };
            let op = match op {
                WireManageOp::PurgeContext(scope_ref) => {
                    let name = match dict.get(scope_ref) {
                        Ok(s) => s,
                        Err(e) => return (Response::Error(e), true),
                    };
                    match purge_scope(name) {
                        Ok(bound) => ManagementOp::PurgeContext(bound),
                        Err(e) => return (Response::Error(format!("bad purge scope: {e}")), false),
                    }
                }
                WireManageOp::PurgeOlderThan(cutoff) => ManagementOp::PurgeOlderThan(cutoff),
                WireManageOp::PurgeAll => ManagementOp::PurgeAll,
            };
            match shared.backend.manage(subject, creds, op, auth.timestamp) {
                Ok(n) => (Response::Managed(n as u64), false),
                Err(reason) => (Response::Error(format!("denied: {reason}")), false),
            }
        }
        Request::Inspect { auth, user_filter } => {
            let (subject, creds) = match dict.resolve_auth(&auth) {
                Ok(v) => v,
                Err(e) => return (Response::Error(e), true),
            };
            let filter = match user_filter {
                None => None,
                Some(id) => match dict.get(id) {
                    Ok(s) => Some(s.to_owned()),
                    Err(e) => return (Response::Error(e), true),
                },
            };
            match shared.backend.inspect(subject, creds, filter.as_deref(), auth.timestamp) {
                Ok(records) => (Response::Records(records.iter().map(record_of).collect()), false),
                Err(reason) => (Response::Error(format!("denied: {reason}")), false),
            }
        }
        Request::Metrics { auth } => {
            let (subject, creds) = match dict.resolve_auth(&auth) {
                Ok(v) => v,
                Err(e) => return (Response::Error(e), true),
            };
            match shared.backend.inspect_metrics(subject, creds, auth.timestamp) {
                Ok(text) => (Response::Text(text), false),
                Err(reason) => (Response::Error(format!("denied: {reason}")), false),
            }
        }
    }
}

fn send_response(stream: &mut TcpStream, resp: &Response) -> bool {
    let mut out = Vec::new();
    resp.encode_frame(&mut out);
    stream.write_all(&out).is_ok()
}

/// One HTTP/1.1 exchange: `GET /metrics` (unauthenticated, read-only
/// — the authenticated path is the binary `Metrics` request through
/// the §4.3 management port), `GET /healthz`, 404 otherwise. Always
/// `Connection: close`.
fn http_exchange(mut stream: TcpStream, first: u8, shared: &Shared) {
    shared.metrics.http_requests.inc();
    let mut head: Vec<u8> = vec![first];
    let mut chunk = [0u8; 1024];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        if head.len() > 16 * 1024 {
            return; // absurd header block; drop
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if would_block(&e) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
    let request_line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .and_then(|l| std::str::from_utf8(l).ok())
        .unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, body) = match (method, path) {
        ("GET", "/healthz") => ("200 OK", "ok\n".to_owned()),
        ("GET", "/metrics") => {
            let mut text = shared.backend.metrics_text();
            let mut w = PromWriter::new();
            shared.metrics.export(&mut w);
            text.push_str(&w.finish());
            ("200 OK", text)
        }
        ("GET", _) => ("404 Not Found", "not found\n".to_owned()),
        _ => ("405 Method Not Allowed", "method not allowed\n".to_owned()),
    };
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}
