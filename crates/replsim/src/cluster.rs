//! The in-process replication cluster: N PDP replicas over journaled
//! [`storage::PersistentAdi`] stores, a lease coordinator, a reliable
//! command-log service and a sequential client — all driven by one
//! seeded virtual-time scheduler, with scripted faults from a
//! [`FaultSchedule`] and every observable checked against the
//! [`modelcheck`] oracle's [`OracleTrace`].
//!
//! ## The protocol under test
//!
//! Command-log state-machine replication. The client executes the
//! workload sequentially: resolve the primary through the lease
//! coordinator, send the next operation index, wait for the commit
//! ack. The primary executes the command through the *gated*
//! [`permis::DecisionService::decide`] path (a stale primary answers
//! [`permis::DenyReason::NotPrimary`] and the client re-resolves),
//! appends `(seq, verdict)` to the log service (idempotent: duplicate
//! appends return the stored entry), and acks only once the log
//! confirms the commit. Replicas tail the log and re-execute every
//! command through the ungated `apply_decide` path, so their retained
//! ADI is derived first-hand, not copied.
//!
//! Durability discipline: a replica's journal carries a
//! [`storage::PersistentAdi::append_marker`] checkpoint only for
//! *committed* prefixes. A fresh execution's mutations land in the
//! journal after the marker; if the node dies before the commit ack,
//! crash recovery ([`storage::truncate_to_last_marker_with_vfs`])
//! rolls the journal back to the last committed command — so a
//! restarted replica always resumes from an exact command prefix,
//! which the simulator asserts against the oracle's snapshot at that
//! prefix.
//!
//! ## What convergence means
//!
//! After the drain phase every replica is force-caught-up from the
//! log and the simulator asserts: every committed verdict equals the
//! oracle's; every locally computed verdict equalled the oracle's at
//! computation time; every final retained-ADI snapshot equals the
//! oracle's; no two lease grants ever overlapped; every crash
//! recovery restored an exact command prefix; every review read
//! served a snapshot consistent with its claimed epoch.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::path::Path;
use std::sync::Arc;

use context::BoundContext;
use modelcheck::{
    generate, oracle_trace, project, sort_snapshot, wrap_policy, Op, OracleTrace, Workload,
};
use msod::{AdiRecord, RetainedAdi, ShardedAdi};
use permis::{DecisionRequest, DecisionService, DenyReason, ReplicaRole};
use policy::PdpPolicy;
use storage::{FaultVfs, PersistentAdi, Vfs};

use crate::schedule::{gen_schedule, FaultEvent, FaultSchedule};
use crate::sim::{SimRng, Trace};

/// Virtual-time horizon: past this the run drains and force-converges
/// (a brutal schedule then yields prefix checks, not a livelock).
pub const HORIZON: u64 = 20_000;
/// Hard event cap — turns an accidental livelock into a reported
/// divergence instead of a hang.
const EVENT_CAP: usize = 300_000;
/// Lease term granted by the coordinator.
const LEASE_MS: u64 = 200;
/// Replica heartbeat (and lease renewal) period.
const HEARTBEAT_MS: u64 = 50;
/// Replica log-tailing period.
const FETCH_MS: u64 = 30;
/// Client per-request retry timeout.
const RETRY_MS: u64 = 120;
/// Client review-read period.
const REVIEW_MS: u64 = 40;
/// The `DoubleLease` bug's premature-regrant threshold: the buggy
/// coordinator regrants when the holder has been silent this long,
/// even though the old lease still runs. Deliberately between the
/// heartbeat period and the lease term.
const STALE_GRANT_MS: u64 = 75;
/// How recent a heartbeat must be for a node to be granted the lease.
const ALIVE_WINDOW_MS: u64 = 150;
/// Max log entries per fetch response. Deliberately small so a
/// briefly partitioned replica spends several fetch rounds behind the
/// log head — the window where stale-read bugs live.
const FETCH_BATCH: usize = 4;
/// Journal fsync cadence, in committed-marker appends.
const SYNC_EVERY: u32 = 4;
/// In-flight request timeout before a node re-issues a fetch/append.
const INFLIGHT_MS: u64 = 150;

const TRAIL_KEY: &[u8] = b"replsim";

/// A deliberately planted replication bug, used to prove the harness
/// catches real protocol defects (and to exercise the pair shrinker).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplBug {
    /// Faithful protocol.
    #[default]
    None,
    /// Replica 1 skips the state mutation of log entry 2 when applying
    /// from the log, but still advances its applied sequence (copying
    /// the log's verdict). Caught by snapshot/verdict convergence.
    SkipApply,
    /// The coordinator regrants the lease when the holder has been
    /// silent for `STALE_GRANT_MS`, while the old lease still runs —
    /// two nodes believe they are primary. State stays convergent
    /// (commands are deterministic per sequence), so only the
    /// lease-overlap monitor can catch this.
    DoubleLease,
    /// A review read tags its response with the highest log length the
    /// replica has *heard of* while serving its locally *applied*
    /// snapshot — stale data presented as fresh. Caught by checking
    /// the served snapshot against the oracle at the claimed epoch.
    StaleReadFresh,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Replica count (≥ 2 for interesting schedules; sweeps use 3+).
    pub nodes: usize,
    /// Planted bug, if any.
    pub bug: ReplBug,
    /// Extra entropy mixed into the network seed. A timing-dependent
    /// divergence that hides at one salt often shows at another, so
    /// the pair shrinker probes several salts per candidate edit.
    pub salt: u64,
    /// Keep the full trace in the report (the hash is always
    /// computed).
    pub record_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { nodes: 3, bug: ReplBug::None, salt: 0, record_trace: false }
    }
}

/// One detected disagreement between the cluster and the oracle (or a
/// violated protocol invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimDivergence {
    /// Virtual time of detection.
    pub at: u64,
    /// Node involved, if any.
    pub node: Option<usize>,
    /// Command sequence involved, if any.
    pub seq: Option<u64>,
    /// Which invariant broke: `"verdict"`, `"apply-verdict"`,
    /// `"log"`, `"state"`, `"restart-prefix"`, `"stale-read"`,
    /// `"lease-overlap"`, `"catch-up"` or `"livelock"`.
    pub check: &'static str,
    /// The oracle's (or invariant's) expectation.
    pub expected: String,
    /// What the cluster produced.
    pub actual: String,
}

impl std::fmt::Display for SimDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={} node={:?} seq={:?}: {} divergence:\n  expected: {}\n  actual:   {}",
            self.at, self.node, self.seq, self.check, self.expected, self.actual
        )
    }
}

/// Aggregate counters for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages entering the network model.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped (partition or dead receiver).
    pub dropped: u64,
    /// Duplicate copies scheduled by `Duplicate` windows.
    pub duplicated: u64,
    /// Crash events executed.
    pub crashes: u64,
    /// Restarts executed (including the final catch-up restarts).
    pub restarts: u64,
}

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// First detected divergence, if any.
    pub divergence: Option<SimDivergence>,
    /// CRC-32 of the full event trace — the determinism fingerprint.
    pub trace_hash: u32,
    /// The full trace (empty unless [`SimConfig::record_trace`]).
    pub trace: Vec<String>,
    /// Structurally notable things this run exhibited (corpus
    /// tagging): `"primary-crash"`, `"handoff-crash"`,
    /// `"heal-mid-run"`, `"dup-purge"`.
    pub features: BTreeSet<&'static str>,
    /// Aggregate counters.
    pub stats: SimStats,
    /// Commands committed to the log by the drain point.
    pub committed: usize,
    /// Workload length.
    pub ops: usize,
}

impl RunReport {
    /// Render the run counters in Prometheus exposition format (a
    /// no-op-backed empty string under `obs-off`'s compiled-out
    /// writer is fine: the counters here are plain values).
    pub fn metrics_text(&self) -> String {
        let mut w = obs::PromWriter::new();
        w.counter(
            "replsim_sent_total",
            "messages entering the network model",
            &[],
            self.stats.sent,
        );
        w.counter("replsim_delivered_total", "messages delivered", &[], self.stats.delivered);
        w.counter("replsim_dropped_total", "messages dropped", &[], self.stats.dropped);
        w.counter(
            "replsim_duplicated_total",
            "duplicate copies scheduled",
            &[],
            self.stats.duplicated,
        );
        w.counter("replsim_crashes_total", "crash events executed", &[], self.stats.crashes);
        w.counter("replsim_restarts_total", "restarts executed", &[], self.stats.restarts);
        w.gauge("replsim_committed", "commands committed by drain", &[], self.committed as u64);
        w.finish()
    }
}

// ---------------------------------------------------------------------
// endpoints, messages, events

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ep {
    Client,
    Coord,
    Log,
    Node(usize),
}

impl Ep {
    fn label(self) -> String {
        match self {
            Ep::Client => "client".into(),
            Ep::Coord => "coord".into(),
            Ep::Log => "log".into(),
            Ep::Node(i) => format!("n{i}"),
        }
    }

    fn link_id(self) -> u8 {
        match self {
            Ep::Client => 0,
            Ep::Coord => 1,
            Ep::Log => 2,
            Ep::Node(i) => 3 + i as u8,
        }
    }
}

#[derive(Debug, Clone)]
enum Msg {
    WhoIsPrimary { gen: u64 },
    PrimaryIs { gen: u64, holder: Option<usize> },
    Heartbeat,
    HeartbeatAck { primary: bool },
    ClientReq { op: u64 },
    ClientResp { op: u64, ok: bool },
    Append { seq: u64, verdict: String },
    AppendOk { seq: u64, len: u64 },
    AppendRej { len: u64 },
    Fetch { from: u64 },
    FetchResp { from: u64, entries: Vec<String>, len: u64 },
    ReviewRead,
    ReviewResp { epoch: u64, snapshot: Vec<AdiRecord> },
}

impl Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::WhoIsPrimary { .. } => "WhoIsPrimary",
            Msg::PrimaryIs { .. } => "PrimaryIs",
            Msg::Heartbeat => "Heartbeat",
            Msg::HeartbeatAck { .. } => "HeartbeatAck",
            Msg::ClientReq { .. } => "ClientReq",
            Msg::ClientResp { .. } => "ClientResp",
            Msg::Append { .. } => "Append",
            Msg::AppendOk { .. } => "AppendOk",
            Msg::AppendRej { .. } => "AppendRej",
            Msg::Fetch { .. } => "Fetch",
            Msg::FetchResp { .. } => "FetchResp",
            Msg::ReviewRead => "ReviewRead",
            Msg::ReviewResp { .. } => "ReviewResp",
        }
    }
}

#[derive(Debug, Clone)]
enum TimerKind {
    Heartbeat(usize),
    Fetch(usize),
    Retry { gen: u64 },
    Review,
}

#[derive(Debug, Clone)]
enum Ev {
    Deliver { id: u64, from: Ep, to: Ep, msg: Msg },
    Timer(TimerKind),
    Crash { node: usize },
    Restart { node: usize },
}

struct HeapEv {
    t: u64,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    // Reversed: BinaryHeap pops the earliest (time, seq).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.t, other.seq).cmp(&(self.t, self.seq))
    }
}

// ---------------------------------------------------------------------
// the network model

struct NetState {
    heap: BinaryHeap<HeapEv>,
    now: u64,
    seq: u64,
    msg_id: u64,
    rng: SimRng,
    trace: Trace,
    stats: SimStats,
    fifo: BTreeMap<(u8, u8), u64>,
    partitions: Vec<(usize, u64, u64)>,
    delays: Vec<(u64, u64, u64)>,
    dups: Vec<(u64, u64)>,
    reorders: Vec<(u64, u64)>,
    drain: bool,
}

impl NetState {
    fn push_at(&mut self, t: u64, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEv { t: t.max(self.now), seq: self.seq, ev });
    }

    fn timer(&mut self, delay: u64, kind: TimerKind) {
        let t = self.now + delay;
        self.push_at(t, Ev::Timer(kind));
    }

    fn is_partitioned(&self, ep: Ep, t: u64) -> bool {
        match ep {
            Ep::Node(i) => {
                self.partitions.iter().any(|&(n, at, dur)| n == i && t >= at && t < at + dur)
            }
            _ => false,
        }
    }

    fn dup_active(&self) -> bool {
        let t = self.now;
        self.dups.iter().any(|&(at, dur)| t >= at && t < at + dur)
    }

    fn send(&mut self, from: Ep, to: Ep, msg: Msg) {
        let t = self.now;
        let id = self.msg_id;
        self.msg_id += 1;
        self.stats.sent += 1;
        self.trace.push(t, format!("send#{id} {}>{} {}", from.label(), to.label(), msg.kind()));
        if self.is_partitioned(from, t) || self.is_partitioned(to, t) {
            self.stats.dropped += 1;
            self.trace.push(t, format!("drop#{id} partition"));
            return;
        }
        let mut lat = 3 + self.rng.gen_range(8);
        let extra: u64 = self
            .delays
            .iter()
            .filter(|&&(at, dur, _)| t >= at && t < at + dur)
            .map(|&(_, _, e)| e)
            .sum();
        if extra > 0 {
            lat += self.rng.gen_range(extra);
        }
        let reorder = self.reorders.iter().any(|&(at, dur)| t >= at && t < at + dur);
        let mut dt = t + lat;
        let key = (from.link_id(), to.link_id());
        if !reorder {
            let last = self.fifo.get(&key).copied().unwrap_or(0);
            if dt <= last {
                dt = last + 1;
            }
        }
        let slot = self.fifo.entry(key).or_insert(0);
        if dt > *slot {
            *slot = dt;
        }
        if self.dup_active() {
            let id2 = self.msg_id;
            self.msg_id += 1;
            self.stats.duplicated += 1;
            let jitter = 1 + self.rng.gen_range(25);
            self.trace.push(t, format!("dup#{id2} of#{id}"));
            self.push_at(dt + jitter, Ev::Deliver { id: id2, from, to, msg: msg.clone() });
        }
        self.push_at(dt, Ev::Deliver { id, from, to, msg });
    }
}

// ---------------------------------------------------------------------
// participants

struct Node {
    vfs: FaultVfs,
    svc: Option<DecisionService<PersistentAdi>>,
    alive: bool,
    believes_primary: bool,
    /// Commands applied to local state (journal + ADI).
    applied: u64,
    /// Last committed-prefix marker written to the journal.
    marker: u64,
    /// Locally derived verdicts for commands `0..applied` (placeholder
    /// strings for pre-restart entries — those are committed, so the
    /// placeholders are never appended to the log as fresh content).
    history: Vec<String>,
    /// Highest log length this node has heard of.
    known_log_len: u64,
    pending_client: Option<u64>,
    fetch_in_flight: Option<u64>,
    append_in_flight: Option<u64>,
    since_sync: u32,
}

struct Coord {
    last_heard: Vec<u64>,
    holder: Option<usize>,
    expiry: u64,
    granted_at: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientMode {
    Resolve,
    Waiting(u64),
    Done,
}

struct Client {
    mode: ClientMode,
    gen: u64,
    primary: Option<usize>,
    next_op: u64,
}

enum ExecResult {
    Redirect,
    Done(String),
}

struct Sim<'a> {
    w: &'a Workload,
    tr: OracleTrace,
    policy: PdpPolicy,
    cfg: SimConfig,
    net: NetState,
    nodes: Vec<Node>,
    coord: Coord,
    client: Client,
    log: Vec<String>,
    commit_times: Vec<u64>,
    schedule: &'a FaultSchedule,
    divergences: Vec<SimDivergence>,
    features: BTreeSet<&'static str>,
    sseed: u64,
}

fn node_path() -> &'static Path {
    Path::new("/adi.log")
}

fn open_store(vfs: &FaultVfs) -> PersistentAdi {
    let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
    PersistentAdi::open_with_vfs(arc, node_path()).expect("RAM-disk journal must open")
}

/// A replica's service over its one journaled store. One store means
/// one symbol table, shared by construction, so every node decides on
/// the compiled symbol engine and commits journal-first through
/// `commit_sym` — the sweeps must cover that path, not the string
/// fallback, hence the assertion.
fn node_service(policy: &PdpPolicy, store: PersistentAdi) -> DecisionService<PersistentAdi> {
    let svc = DecisionService::from_shards(
        policy.clone(),
        TRAIL_KEY.to_vec(),
        ShardedAdi::from_shards(vec![store]),
    );
    assert!(svc.core().sym_engine().is_some(), "replica must run the symbol engine");
    svc.set_replica_role(ReplicaRole::Replica);
    svc
}

fn render_snap(records: &[AdiRecord]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("{} {} {}@{} [{}]", r.timestamp, r.user, r.operation, r.target, r.context))
        .collect();
    format!("{} record(s) [{}]", records.len(), lines.join("; "))
}

impl<'a> Sim<'a> {
    fn new(w: &'a Workload, schedule: &'a FaultSchedule, cfg: &SimConfig, net_seed: u64) -> Self {
        let policy = wrap_policy(w);
        let tr = oracle_trace(w);
        let mut partitions = Vec::new();
        let mut delays = Vec::new();
        let mut dups = Vec::new();
        let mut reorders = Vec::new();
        for e in &schedule.events {
            match *e {
                FaultEvent::Partition { node, at, dur } => partitions.push((node, at, dur)),
                FaultEvent::Delay { at, dur, max_extra } => delays.push((at, dur, max_extra)),
                FaultEvent::Duplicate { at, dur } => dups.push((at, dur)),
                FaultEvent::Reorder { at, dur } => reorders.push((at, dur)),
                FaultEvent::CrashRestart { .. } => {}
            }
        }
        let nodes: Vec<Node> = (0..cfg.nodes)
            .map(|_| {
                let vfs = FaultVfs::default();
                let svc = node_service(&policy, open_store(&vfs));
                Node {
                    vfs,
                    svc: Some(svc),
                    alive: true,
                    believes_primary: false,
                    applied: 0,
                    marker: 0,
                    history: Vec::new(),
                    known_log_len: 0,
                    pending_client: None,
                    fetch_in_flight: None,
                    append_in_flight: None,
                    since_sync: 0,
                }
            })
            .collect();
        Sim {
            w,
            tr,
            policy,
            cfg: cfg.clone(),
            net: NetState {
                heap: BinaryHeap::new(),
                now: 0,
                seq: 0,
                msg_id: 0,
                rng: SimRng::new(net_seed),
                trace: Trace::new(),
                stats: SimStats::default(),
                fifo: BTreeMap::new(),
                partitions,
                delays,
                dups,
                reorders,
                drain: false,
            },
            nodes,
            coord: Coord { last_heard: vec![0; cfg.nodes], holder: None, expiry: 0, granted_at: 0 },
            client: Client { mode: ClientMode::Resolve, gen: 0, primary: None, next_op: 0 },
            log: Vec::new(),
            commit_times: Vec::new(),
            schedule,
            divergences: Vec::new(),
            features: BTreeSet::new(),
            sseed: net_seed,
        }
    }

    fn diverge(
        &mut self,
        node: Option<usize>,
        seq: Option<u64>,
        check: &'static str,
        expected: String,
        actual: String,
    ) {
        let at = self.net.now;
        self.net.trace.push(at, format!("DIVERGE {check}"));
        self.divergences.push(SimDivergence { at, node, seq, check, expected, actual });
    }

    // -- command execution ------------------------------------------------

    /// Execute command `seq` on node `i`. `fresh` runs the gated
    /// primary path ([`DecisionService::decide`]); otherwise the
    /// ungated log-apply path. On success the node's history, applied
    /// count and journal advance, and the locally derived verdict is
    /// immediately checked against the oracle.
    fn exec_command(&mut self, i: usize, seq: u64, fresh: bool) -> ExecResult {
        let w = self.w;
        let op = &w.ops[seq as usize];
        let verdict = {
            let node = &mut self.nodes[i];
            let svc = node.svc.as_ref().expect("exec on a live node");
            let verdict = match op {
                Op::Decide { user, roles, operation, target, context, timestamp } => {
                    let req = DecisionRequest::with_roles(
                        user.clone(),
                        roles.clone(),
                        operation.clone(),
                        target.clone(),
                        context.clone(),
                        *timestamp,
                    );
                    let outcome = if fresh { svc.decide(&req) } else { svc.apply_decide(&req) };
                    if fresh && outcome.deny_reason() == Some(&DenyReason::NotPrimary) {
                        return ExecResult::Redirect;
                    }
                    format!("{:?}", project(&outcome))
                }
                Op::PurgeContext(scope) => {
                    let bound = BoundContext::from_name(scope.clone())
                        .expect("generated purge scopes are bound");
                    format!("purged {}", svc.adi().purge(&bound))
                }
                Op::PurgeOlderThan(cutoff) => {
                    format!("purged {}", svc.adi().purge_older_than(*cutoff))
                }
                Op::PurgeAll => format!(
                    "purged {}",
                    svc.adi().with_exclusive(|view| {
                        let n = view.len();
                        view.clear();
                        n
                    })
                ),
            };
            node.history.push(verdict.clone());
            node.applied += 1;
            let applied = node.applied;
            svc.set_apply_epoch(applied);
            svc.adi().with_shard(0, |s| s.flush().expect("RAM-disk flush"));
            verdict
        };
        let expect = self.tr.verdicts[seq as usize].clone();
        if verdict != expect {
            self.diverge(Some(i), Some(seq), "verdict", expect, verdict.clone());
        }
        ExecResult::Done(verdict)
    }

    /// Checkpoint the committed prefix: once the node knows the log
    /// covers everything it has applied, write the prefix marker (and
    /// periodically fsync). Anything after the marker is an
    /// uncommitted fresh execution that crash recovery rolls back.
    fn maybe_marker(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        if !node.alive || node.known_log_len < node.applied || node.marker >= node.applied {
            return;
        }
        let applied = node.applied;
        let svc = node.svc.as_ref().expect("live node");
        node.since_sync += 1;
        let sync = node.since_sync >= SYNC_EVERY;
        if sync {
            node.since_sync = 0;
        }
        svc.adi().with_shard(0, |s| {
            s.append_marker(applied);
            s.flush().expect("RAM-disk flush");
            if sync {
                s.sync().expect("RAM-disk sync");
            }
        });
        node.marker = applied;
    }

    /// Apply committed log entries starting at `from`, skipping
    /// anything already applied and stopping at a gap.
    fn apply_entries(&mut self, i: usize, from: u64, entries: Vec<String>) {
        for (k, v_log) in entries.into_iter().enumerate() {
            let idx = from + k as u64;
            {
                let node = &self.nodes[i];
                if !node.alive {
                    return;
                }
                if idx < node.applied {
                    continue;
                }
                if idx > node.applied {
                    break;
                }
            }
            if self.cfg.bug == ReplBug::SkipApply && i == 1 && idx == 2 {
                // Planted bug: advance the sequence, copy the log's
                // verdict, never run the mutation.
                let node = &mut self.nodes[i];
                node.history.push(v_log);
                node.applied += 1;
                let applied = node.applied;
                node.svc.as_ref().expect("live node").set_apply_epoch(applied);
                self.maybe_marker(i);
                continue;
            }
            match self.exec_command(i, idx, false) {
                ExecResult::Done(local) => {
                    if local != v_log {
                        self.diverge(
                            Some(i),
                            Some(idx),
                            "apply-verdict",
                            format!("log entry {v_log:?}"),
                            format!("locally derived {local:?}"),
                        );
                    }
                    self.maybe_marker(i);
                }
                ExecResult::Redirect => unreachable!("the apply path is ungated"),
            }
        }
    }

    /// Drive the node's pending client request forward: ack once the
    /// log covers it, commit the uncommitted tail, execute fresh when
    /// at the head, or catch up when behind.
    fn try_advance(&mut self, i: usize) {
        enum Act {
            Nothing,
            Reply(u64, bool),
            Append(u64),
            ExecFresh(u64),
            Fetch(u64),
        }
        let now = self.net.now;
        let act = {
            let node = &mut self.nodes[i];
            if !node.alive {
                return;
            }
            let Some(p) = node.pending_client else { return };
            if node.known_log_len > p {
                node.pending_client = None;
                Act::Reply(p, true)
            } else if node.applied > p {
                // Executed but not yet known-committed: (re)append the
                // first entry the log might be missing. Duplicates are
                // idempotent at the log service.
                if node.append_in_flight.is_none_or(|t0| now.saturating_sub(t0) > INFLIGHT_MS) {
                    node.append_in_flight = Some(now);
                    Act::Append(node.known_log_len)
                } else {
                    Act::Nothing
                }
            } else if node.applied == p {
                if !node.believes_primary {
                    node.pending_client = None;
                    Act::Reply(p, false)
                } else {
                    Act::ExecFresh(p)
                }
            } else if node.fetch_in_flight.is_none_or(|t0| now.saturating_sub(t0) > INFLIGHT_MS) {
                node.fetch_in_flight = Some(now);
                Act::Fetch(node.applied)
            } else {
                Act::Nothing
            }
        };
        match act {
            Act::Nothing => {}
            Act::Reply(p, ok) => {
                self.net.send(Ep::Node(i), Ep::Client, Msg::ClientResp { op: p, ok });
            }
            Act::Append(idx) => {
                let verdict = self.nodes[i].history[idx as usize].clone();
                self.net.send(Ep::Node(i), Ep::Log, Msg::Append { seq: idx, verdict });
            }
            Act::ExecFresh(p) => match self.exec_command(i, p, true) {
                ExecResult::Redirect => {
                    self.nodes[i].pending_client = None;
                    self.net.send(Ep::Node(i), Ep::Client, Msg::ClientResp { op: p, ok: false });
                }
                ExecResult::Done(verdict) => {
                    self.nodes[i].append_in_flight = Some(now);
                    self.net.send(Ep::Node(i), Ep::Log, Msg::Append { seq: p, verdict });
                }
            },
            Act::Fetch(from) => {
                self.net.send(Ep::Node(i), Ep::Log, Msg::Fetch { from });
            }
        }
    }

    // -- crash / restart --------------------------------------------------

    fn crash_node(&mut self, i: usize) {
        if !self.nodes[i].alive {
            return;
        }
        let now = self.net.now;
        if self.coord.holder == Some(i) && now < self.coord.expiry {
            self.features.insert("primary-crash");
            if now.saturating_sub(self.coord.granted_at) < 60 {
                self.features.insert("handoff-crash");
            }
        }
        let node = &mut self.nodes[i];
        node.alive = false;
        node.believes_primary = false;
        node.pending_client = None;
        node.fetch_in_flight = None;
        node.append_in_flight = None;
        if let Some(svc) = node.svc.take() {
            // The process is gone: nothing more reaches the device.
            svc.adi().with_shard(0, |s| s.abandon());
        }
        self.net.stats.crashes += 1;
        self.net.trace.push(now, format!("crash n{i}"));
    }

    /// Power-cut the node's disk, truncate the journal to the last
    /// committed-prefix marker, reopen, and assert the recovered state
    /// is the exact oracle prefix at that marker.
    fn restart_node(&mut self, i: usize) {
        if self.nodes[i].alive {
            return;
        }
        let now = self.net.now;
        let restarts = self.net.stats.restarts;
        let vfs = self.nodes[i].vfs.clone();
        vfs.power_cut(self.sseed ^ ((i as u64) << 8) ^ restarts);
        let arc: Arc<dyn Vfs> = Arc::new(vfs.clone());
        let marker = storage::truncate_to_last_marker_with_vfs(&arc, node_path())
            .expect("RAM-disk truncate");
        let store = open_store(&vfs);
        let applied = marker.unwrap_or(0);
        let mut snap = store.snapshot();
        sort_snapshot(&mut snap);
        let expect: &[AdiRecord] =
            if applied == 0 { &[] } else { &self.tr.snapshots[(applied - 1) as usize] };
        if snap != expect {
            let (e, a) = (render_snap(expect), render_snap(&snap));
            self.diverge(Some(i), Some(applied), "restart-prefix", e, a);
        }
        let svc = node_service(&self.policy, store);
        svc.set_apply_epoch(applied);
        let node = &mut self.nodes[i];
        node.svc = Some(svc);
        node.alive = true;
        node.believes_primary = false;
        node.applied = applied;
        node.marker = applied;
        node.history = vec!["<recovered>".to_string(); applied as usize];
        node.known_log_len = 0;
        node.pending_client = None;
        node.fetch_in_flight = None;
        node.append_in_flight = None;
        node.since_sync = 0;
        self.net.stats.restarts += 1;
        self.net.trace.push(now, format!("restart n{i} marker={applied}"));
    }

    // -- coordinator ------------------------------------------------------

    fn coord_heartbeat(&mut self, i: usize) {
        let now = self.net.now;
        self.coord.last_heard[i] = now;
        let primary = self.coord.holder == Some(i) && now < self.coord.expiry;
        if primary {
            self.coord.expiry = now + LEASE_MS; // renewal
        }
        self.net.send(Ep::Coord, Ep::Node(i), Msg::HeartbeatAck { primary });
    }

    fn coord_resolve(&mut self, gen: u64) {
        let now = self.net.now;
        let holder_live = self.coord.holder.is_some() && now < self.coord.expiry;
        let holder_stale = self
            .coord
            .holder
            .is_some_and(|h| now.saturating_sub(self.coord.last_heard[h]) > STALE_GRANT_MS);
        let regrant = !holder_live || (self.cfg.bug == ReplBug::DoubleLease && holder_stale);
        let answer = if !regrant {
            self.coord.holder
        } else {
            let cand = (0..self.cfg.nodes)
                .filter(|&j| {
                    self.coord.last_heard[j] > 0
                        && now.saturating_sub(self.coord.last_heard[j]) <= ALIVE_WINDOW_MS
                })
                .max_by_key(|&j| (self.coord.last_heard[j], usize::MAX - j));
            match cand {
                Some(nc) => {
                    if let Some(old) = self.coord.holder {
                        // The lease-overlap monitor: a correct
                        // coordinator never regrants a live lease.
                        if old != nc && now < self.coord.expiry {
                            let expiry = self.coord.expiry;
                            self.diverge(
                                Some(nc),
                                None,
                                "lease-overlap",
                                "no overlapping lease grants".to_string(),
                                format!(
                                    "n{nc} granted at t={now} while n{old}'s lease ran to t={expiry}"
                                ),
                            );
                        }
                    }
                    self.coord.holder = Some(nc);
                    self.coord.expiry = now + LEASE_MS;
                    self.coord.granted_at = now;
                    self.net.trace.push(now, format!("grant n{nc} until={}", now + LEASE_MS));
                    Some(nc)
                }
                None => {
                    if !holder_live {
                        self.coord.holder = None;
                    }
                    self.coord.holder.filter(|_| holder_live)
                }
            }
        };
        self.net.send(Ep::Coord, Ep::Client, Msg::PrimaryIs { gen, holder: answer });
    }

    // -- client -----------------------------------------------------------

    fn client_resolve(&mut self) {
        self.client.gen += 1;
        let gen = self.client.gen;
        self.client.mode = ClientMode::Resolve;
        self.net.send(Ep::Client, Ep::Coord, Msg::WhoIsPrimary { gen });
        self.net.timer(RETRY_MS, TimerKind::Retry { gen });
    }

    fn client_send_op(&mut self, primary: usize) {
        self.client.gen += 1;
        let gen = self.client.gen;
        let op = self.client.next_op;
        self.client.mode = ClientMode::Waiting(op);
        if self.net.dup_active()
            && matches!(
                self.w.ops[op as usize],
                Op::PurgeContext(_) | Op::PurgeOlderThan(_) | Op::PurgeAll
            )
        {
            self.features.insert("dup-purge");
        }
        self.net.send(Ep::Client, Ep::Node(primary), Msg::ClientReq { op });
        self.net.timer(RETRY_MS, TimerKind::Retry { gen });
    }

    fn on_primary_is(&mut self, gen: u64, holder: Option<usize>) {
        if self.net.drain || gen != self.client.gen || self.client.mode != ClientMode::Resolve {
            return;
        }
        match holder {
            Some(p) => {
                self.client.primary = Some(p);
                self.client_send_op(p);
            }
            None => {
                // Nobody electable yet; the retry timer re-asks.
                self.client.gen += 1;
                let gen = self.client.gen;
                self.net.timer(RETRY_MS, TimerKind::Retry { gen });
            }
        }
    }

    fn on_client_resp(&mut self, op: u64, ok: bool) {
        if self.net.drain || self.client.mode != ClientMode::Waiting(op) {
            return;
        }
        if !ok {
            self.client_resolve();
            return;
        }
        self.client.next_op += 1;
        if self.client.next_op as usize == self.w.ops.len() {
            self.client.mode = ClientMode::Done;
            self.net.drain = true;
            let now = self.net.now;
            self.net.trace.push(now, "client done");
            return;
        }
        match self.client.primary {
            Some(p) => self.client_send_op(p),
            None => self.client_resolve(),
        }
    }

    fn on_review_resp(&mut self, epoch: u64, snapshot: Vec<AdiRecord>) {
        let expect: &[AdiRecord] =
            if epoch == 0 { &[] } else { &self.tr.snapshots[(epoch - 1) as usize] };
        if snapshot != expect {
            let (e, a) = (render_snap(expect), render_snap(&snapshot));
            self.diverge(
                None,
                Some(epoch),
                "stale-read",
                format!("at claimed epoch {epoch}: {e}"),
                a,
            );
        }
    }

    // -- node message handlers --------------------------------------------

    fn node_on_msg(&mut self, i: usize, msg: Msg) {
        match msg {
            Msg::HeartbeatAck { primary } => {
                let node = &mut self.nodes[i];
                if node.believes_primary != primary {
                    node.believes_primary = primary;
                    let svc = node.svc.as_ref().expect("live node");
                    svc.set_replica_role(if primary {
                        ReplicaRole::Primary
                    } else {
                        ReplicaRole::Replica
                    });
                    let now = self.net.now;
                    let role = if primary { "primary" } else { "replica" };
                    self.net.trace.push(now, format!("role n{i} {role}"));
                }
            }
            Msg::ClientReq { op } => {
                if !self.nodes[i].believes_primary {
                    self.net.send(Ep::Node(i), Ep::Client, Msg::ClientResp { op, ok: false });
                    return;
                }
                self.nodes[i].pending_client = Some(op);
                self.try_advance(i);
            }
            Msg::AppendOk { seq, len } => {
                let node = &mut self.nodes[i];
                node.append_in_flight = None;
                node.known_log_len = node.known_log_len.max(len);
                let _ = seq;
                self.maybe_marker(i);
                self.try_advance(i);
            }
            Msg::AppendRej { len } => {
                let node = &mut self.nodes[i];
                node.append_in_flight = None;
                node.known_log_len = node.known_log_len.max(len);
                self.try_advance(i);
            }
            Msg::FetchResp { from, entries, len } => {
                {
                    let node = &mut self.nodes[i];
                    node.fetch_in_flight = None;
                    node.known_log_len = node.known_log_len.max(len);
                }
                self.apply_entries(i, from, entries);
                self.maybe_marker(i);
                self.try_advance(i);
            }
            Msg::ReviewRead => {
                let node = &self.nodes[i];
                let svc = node.svc.as_ref().expect("live node");
                let epoch = match self.cfg.bug {
                    // Planted bug: claim the freshest epoch this node
                    // has heard of, while serving the applied state.
                    ReplBug::StaleReadFresh => node.applied.max(node.known_log_len),
                    _ => node.applied,
                };
                let mut snapshot = svc.adi().snapshot();
                sort_snapshot(&mut snapshot);
                self.net.send(Ep::Node(i), Ep::Client, Msg::ReviewResp { epoch, snapshot });
            }
            other => {
                unreachable!("node {i} cannot receive {}", other.kind())
            }
        }
    }

    // -- log service ------------------------------------------------------

    fn log_on_msg(&mut self, from: Ep, msg: Msg) {
        match msg {
            Msg::Append { seq, verdict } => {
                let len = self.log.len() as u64;
                if seq < len {
                    // Idempotent duplicate: the stored entry stands.
                    self.net.send(Ep::Log, from, Msg::AppendOk { seq, len });
                } else if seq == len {
                    self.log.push(verdict);
                    let now = self.net.now;
                    self.commit_times.push(now);
                    self.net.trace.push(now, format!("commit seq={seq}"));
                    self.net.send(Ep::Log, from, Msg::AppendOk { seq, len: len + 1 });
                } else {
                    self.net.send(Ep::Log, from, Msg::AppendRej { len });
                }
            }
            Msg::Fetch { from: start } => {
                let len = self.log.len() as u64;
                let start_i = (start as usize).min(self.log.len());
                let end_i = (start_i + FETCH_BATCH).min(self.log.len());
                let entries = self.log[start_i..end_i].to_vec();
                self.net.send(Ep::Log, from, Msg::FetchResp { from: start_i as u64, entries, len });
            }
            other => unreachable!("log service cannot receive {}", other.kind()),
        }
    }

    // -- dispatch ---------------------------------------------------------

    fn on_timer(&mut self, kind: TimerKind) {
        if self.net.drain {
            return;
        }
        match kind {
            TimerKind::Heartbeat(i) => {
                if self.nodes[i].alive {
                    self.net.send(Ep::Node(i), Ep::Coord, Msg::Heartbeat);
                }
                self.net.timer(HEARTBEAT_MS, TimerKind::Heartbeat(i));
            }
            TimerKind::Fetch(i) => {
                let now = self.net.now;
                let fire = {
                    let node = &mut self.nodes[i];
                    node.alive
                        && node
                            .fetch_in_flight
                            .is_none_or(|t0| now.saturating_sub(t0) > INFLIGHT_MS)
                        && {
                            node.fetch_in_flight = Some(now);
                            true
                        }
                };
                if fire {
                    let from = self.nodes[i].applied;
                    self.net.send(Ep::Node(i), Ep::Log, Msg::Fetch { from });
                }
                self.net.timer(FETCH_MS, TimerKind::Fetch(i));
            }
            TimerKind::Retry { gen } => {
                if gen == self.client.gen && self.client.mode != ClientMode::Done {
                    self.client_resolve();
                }
            }
            TimerKind::Review => {
                let target = self.net.rng.gen_range(self.cfg.nodes as u64) as usize;
                if self.nodes[target].alive {
                    self.net.send(Ep::Client, Ep::Node(target), Msg::ReviewRead);
                }
                self.net.timer(REVIEW_MS, TimerKind::Review);
            }
        }
    }

    fn on_deliver(&mut self, id: u64, from: Ep, to: Ep, msg: Msg) {
        if let Ep::Node(i) = to {
            if !self.nodes[i].alive {
                let now = self.net.now;
                self.net.stats.dropped += 1;
                self.net.trace.push(now, format!("drop#{id} dead"));
                return;
            }
        }
        let now = self.net.now;
        self.net.stats.delivered += 1;
        self.net
            .trace
            .push(now, format!("deliver#{id} {}>{} {}", from.label(), to.label(), msg.kind()));
        match to {
            Ep::Coord => match msg {
                Msg::Heartbeat => {
                    if let Ep::Node(i) = from {
                        self.coord_heartbeat(i);
                    }
                }
                Msg::WhoIsPrimary { gen } => self.coord_resolve(gen),
                other => unreachable!("coordinator cannot receive {}", other.kind()),
            },
            Ep::Log => self.log_on_msg(from, msg),
            Ep::Client => match msg {
                Msg::PrimaryIs { gen, holder } => self.on_primary_is(gen, holder),
                Msg::ClientResp { op, ok } => self.on_client_resp(op, ok),
                Msg::ReviewResp { epoch, snapshot } => self.on_review_resp(epoch, snapshot),
                other => unreachable!("client cannot receive {}", other.kind()),
            },
            Ep::Node(i) => self.node_on_msg(i, msg),
        }
    }

    fn run(mut self) -> RunReport {
        // Seed the schedule's crash/restart events and the recurring
        // timers; staggered starts keep link traffic interleaved.
        let crashes: Vec<(usize, u64, u64)> = self
            .schedule
            .events
            .iter()
            .filter_map(|e| match *e {
                FaultEvent::CrashRestart { node, at, down } => Some((node, at, down)),
                _ => None,
            })
            .collect();
        for (node, at, down) in crashes {
            self.net.push_at(at, Ev::Crash { node });
            self.net.push_at(at + down, Ev::Restart { node });
        }
        for i in 0..self.cfg.nodes {
            self.net.push_at(3 + i as u64, Ev::Timer(TimerKind::Heartbeat(i)));
            self.net.push_at(11 + i as u64, Ev::Timer(TimerKind::Fetch(i)));
        }
        self.net.push_at(35, Ev::Timer(TimerKind::Review));
        self.net.now = 1;
        if self.w.ops.is_empty() {
            // Degenerate (shrinker-proposed) workload: nothing to
            // replicate, so the run is just a drain.
            self.client.mode = ClientMode::Done;
            self.net.drain = true;
        } else {
            self.client_resolve();
        }

        let mut events = 0usize;
        while let Some(HeapEv { t, seq: _, ev }) = self.net.heap.pop() {
            self.net.now = t;
            if t > HORIZON {
                self.net.drain = true;
            }
            events += 1;
            if events > EVENT_CAP {
                self.diverge(
                    None,
                    None,
                    "livelock",
                    format!("quiescence within {EVENT_CAP} events"),
                    format!("still active at t={t}"),
                );
                break;
            }
            match ev {
                Ev::Deliver { id, from, to, msg } => self.on_deliver(id, from, to, msg),
                Ev::Timer(kind) => self.on_timer(kind),
                Ev::Crash { node } => self.crash_node(node),
                Ev::Restart { node } => self.restart_node(node),
            }
        }

        // Final deterministic catch-up: revive the downed, then walk
        // everyone to the end of the committed log directly.
        for i in 0..self.cfg.nodes {
            if !self.nodes[i].alive {
                self.restart_node(i);
            }
        }
        let final_log = self.log.clone();
        for i in 0..self.cfg.nodes {
            let from = self.nodes[i].applied;
            self.nodes[i].known_log_len = final_log.len() as u64;
            let entries = final_log[(from as usize).min(final_log.len())..].to_vec();
            self.apply_entries(i, from, entries);
        }

        // Convergence checks against the oracle trace.
        for (k, v) in final_log.iter().enumerate() {
            let expect = &self.tr.verdicts[k];
            if v != expect {
                let (e, a) = (expect.clone(), v.clone());
                self.diverge(None, Some(k as u64), "log", e, a);
            }
        }
        let committed = final_log.len();
        let final_expect: Vec<AdiRecord> =
            if committed == 0 { Vec::new() } else { self.tr.snapshots[committed - 1].clone() };
        for i in 0..self.cfg.nodes {
            if self.nodes[i].applied != committed as u64 {
                let applied = self.nodes[i].applied;
                self.diverge(
                    Some(i),
                    None,
                    "catch-up",
                    format!("applied == {committed}"),
                    format!("applied == {applied}"),
                );
                continue;
            }
            let mut snap = self.nodes[i].svc.as_ref().expect("live node").adi().snapshot();
            sort_snapshot(&mut snap);
            if snap != final_expect {
                let (e, a) = (render_snap(&final_expect), render_snap(&snap));
                self.diverge(Some(i), None, "state", e, a);
            }
        }

        // Emergent-feature tagging for the corpus scanner.
        if let (Some(&first), Some(&last)) = (self.commit_times.first(), self.commit_times.last()) {
            for e in &self.schedule.events {
                if let FaultEvent::Partition { at, dur, .. } = *e {
                    let end = at + dur;
                    if first < end && end < last {
                        self.features.insert("heal-mid-run");
                    }
                }
            }
        }

        let trace_hash = self.net.trace.hash();
        RunReport {
            divergence: self.divergences.into_iter().next(),
            trace_hash,
            trace: if self.cfg.record_trace { self.net.trace.into_lines() } else { Vec::new() },
            features: self.features,
            stats: self.net.stats,
            committed,
            ops: self.w.ops.len(),
        }
    }
}

/// Run one explicit (workload, fault-schedule) pair through the
/// cluster. Fully deterministic: the same inputs yield a
/// byte-identical trace and report. The network seed is derived from
/// the *content* of both inputs (FNV-1a over their debug renderings),
/// so a pair reproduced from a script or a shrunk pair replays the
/// exact same latencies and jitter as the original run of that
/// content.
pub fn run_sim(w: &Workload, schedule: &FaultSchedule, cfg: &SimConfig) -> RunReport {
    let mut h = 0xCBF2_9CE4_8422_2325u64; // FNV-1a offset basis
    for b in format!("{:?}|{:?}|{}", w.ops, schedule.events, cfg.salt).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    Sim::new(w, schedule, cfg, h).run()
}

/// Generate workload `wseed` and schedule `sseed`, then [`run_sim`].
/// Exactly equivalent to generating both halves yourself — divergent
/// pairs found by seed sweeps reproduce under [`run_sim`] (and so
/// under the shrinker).
pub fn run_pair(wseed: u64, sseed: u64, cfg: &SimConfig) -> RunReport {
    let w = generate(wseed);
    let schedule = gen_schedule(sseed, cfg.nodes);
    run_sim(&w, &schedule, cfg)
}
