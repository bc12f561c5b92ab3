//! Decision-path telemetry for [`DecisionService`](crate::DecisionService).
//!
//! One [`DecideMetrics`] instance lives on the service and is shared by
//! every decision thread: counters and histograms are lock-free
//! (`obs`), and recent decisions land in a bounded [`TraceRing`] so
//! "why was this denied?" stays answerable after the fact without
//! walking the audit trail.
//!
//! Denied decisions are always traced. Granted ones are traced only
//! after [`DecideMetrics::set_trace_grants`]`(true)` — the grant path
//! is the throughput path, and building a trace clones the request
//! strings. Everything here compiles to no-ops under the `obs-off`
//! feature.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use obs::{
    Counter, FlightRecorder, Gauge, Histogram, HistogramSnapshot, PromWriter, Sampler, TraceRing,
};
use parking_lot::Mutex;
use symtab::SymbolTable;

use crate::explain::Explanation;

/// How many recent decisions the trace ring retains.
pub const TRACE_CAPACITY: usize = 256;

/// How many black-box entries the flight recorder retains.
pub const FLIGHT_CAPACITY: usize = 128;

/// How many windowed metric frames the history ring retains.
pub const HISTORY_CAPACITY: usize = 64;

/// How many captured explanations the opt-in ring retains.
pub const EXPLAIN_CAPACITY: usize = 32;

/// Latency checkpoints are taken on every `PHASE_SAMPLE`-th decision
/// (plus the end-to-end checkpoint on any traced decision, so deny
/// traces always carry a real elapsed time). Clock reads cost ~35 ns
/// each on commodity hardware — material at microsecond decide
/// latency — so the latency *histograms* are sampled while every
/// counter stays exact.
pub const PHASE_SAMPLE: u64 = 8;

/// One retained decision: who asked for what, what the verdict was,
/// and what it cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    /// Request timestamp (the caller's clock, as audited).
    pub timestamp: u64,
    /// Requesting subject.
    pub user: String,
    /// Requested operation.
    pub operation: String,
    /// Target URI.
    pub target: String,
    /// The business-context instance the request ran in.
    pub context: String,
    /// `true` for grants, `false` for denies.
    pub granted: bool,
    /// The violated MMER/MMEP constraint (`"MMER #0 of policy #1"`),
    /// when the deny came from the MSoD stage.
    pub constraint: Option<String>,
    /// The stable deny-reason string ([`DenyReason`]'s `Display`);
    /// `None` on grants.
    ///
    /// [`DenyReason`]: crate::request::DenyReason
    pub reason: Option<String>,
    /// Retained-ADI records visited while evaluating MSoD constraints.
    pub records_consulted: usize,
    /// End-to-end decision latency, including the audit append.
    pub elapsed_ns: u64,
}

/// One always-on black-box entry: a sampled (or anomalous) decision
/// with its phase checkpoints, shard-lock telemetry and the request
/// identity as a cheap interned symbol (resolved to a string only when
/// a snapshot is rendered).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEntry {
    /// Request timestamp (the caller's clock, as audited).
    pub timestamp: u64,
    /// The requesting user, interned in the service's symbol table.
    pub user_sym: u32,
    /// `true` for grants.
    pub granted: bool,
    /// End-to-end decide latency.
    pub total_ns: u64,
    /// Phase 1 (credential validation) checkpoint.
    pub front_ns: u64,
    /// Phase 2 (context match + MSoD) checkpoint.
    pub msod_ns: u64,
    /// Retained-ADI records visited by the MSoD stage.
    pub records_consulted: usize,
    /// Which ADI shard served the user.
    pub shard: u32,
    /// Cumulative nanoseconds waited on that shard's lock at capture
    /// time (deltas between entries localize contention).
    pub shard_wait_ns: u64,
}

/// One windowed metrics frame: cumulative verdict counters plus the
/// decide-latency histogram *delta* since the previous frame, with an
/// exemplar link from the window's slowest sampled decide to its
/// flight-recorder ticket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricFrame {
    /// Frame number (monotonic from service start).
    pub seq: u64,
    /// Cumulative decisions at capture.
    pub decisions: u64,
    /// Cumulative grants at capture.
    pub grants: u64,
    /// Cumulative denies at capture.
    pub denies: u64,
    /// Decide-latency histogram counts accumulated since the previous
    /// frame (mergeable — summing consecutive frames widens the
    /// window).
    pub decide_delta: HistogramSnapshot,
    /// Slowest sampled decide in the window, 0 if none was sampled.
    pub slowest_ns: u64,
    /// Flight-recorder ticket of that decide (exemplar link: the entry
    /// with this ticket, if still retained, is the slow decision).
    pub slowest_ticket: u64,
    /// The slow decide's user.
    pub slowest_user: String,
}

/// The window's slowest sampled decide, reset on each frame capture.
#[derive(Debug, Default)]
struct Slowest {
    ns: u64,
    ticket: u64,
    user: String,
}

/// Decision-plane telemetry: verdict counters, end-to-end and
/// per-phase latency histograms, and the decision-trace ring.
#[derive(Debug)]
pub struct DecideMetrics {
    /// Decisions evaluated (grants + denies).
    pub decisions: Counter,
    /// Decisions that ended in a grant.
    pub grants: Counter,
    /// Decisions that ended in a deny.
    pub denies: Counter,
    /// End-to-end `decide` latency (sampled, see [`PHASE_SAMPLE`]).
    pub decide_ns: Histogram,
    /// Phase 1: credential validation (subject domain, CVS, RBAC).
    pub front_end_ns: Histogram,
    /// Phase 2: context matching and §4.2 MSoD enforcement against the
    /// sharded ADI (one dispatch, so one phase).
    pub msod_ns: Histogram,
    /// Phase 3: the audit-trail append (lock + hash-chain extend).
    pub audit_append_ns: Histogram,
    /// Gates the phase histograms to 1-in-[`PHASE_SAMPLE`] decisions.
    pub phase_sampler: Sampler,
    /// Requests denied because they exceed a fixed bound of the MSoD
    /// engine (roles, context depth, matching policies).
    pub resource_limit_denies: Counter,
    /// `decide_many` batches evaluated.
    pub batches: Counter,
    /// Requests per `decide_many` batch.
    pub batch_size: Histogram,
    /// Replicated commands applied through the ungated apply path.
    pub applies: Counter,
    /// The apply epoch last published via
    /// [`crate::DecisionService::set_apply_epoch`] (telemetry mirror of
    /// the functional atomic, which works under `obs-off` too).
    pub apply_epoch: Gauge,
    /// Requests denied because this service is a non-primary replica.
    pub not_primary_denies: Counter,
    traces: TraceRing<DecisionTrace>,
    trace_grants: AtomicBool,
    flight: FlightRecorder<FlightEntry>,
    history: TraceRing<MetricFrame>,
    /// Frames captured so far (the next frame's `seq`).
    frames: AtomicU64,
    /// Cumulative decide histogram at the last frame capture, for
    /// windowed deltas.
    last_decide: Mutex<HistogramSnapshot>,
    /// Fast gate for the slowest-decide exemplar: candidates at or
    /// below this skip the mutex.
    slowest_ns: AtomicU64,
    slowest: Mutex<Slowest>,
    explanations: TraceRing<Explanation>,
    capture_explanations: AtomicBool,
    /// Decides slower than this fire the `p999_latency` flight
    /// trigger; `u64::MAX` disables it.
    latency_trigger_ns: AtomicU64,
}

impl Default for DecideMetrics {
    fn default() -> Self {
        DecideMetrics {
            decisions: Counter::new(),
            grants: Counter::new(),
            denies: Counter::new(),
            decide_ns: Histogram::new(),
            front_end_ns: Histogram::new(),
            msod_ns: Histogram::new(),
            audit_append_ns: Histogram::new(),
            phase_sampler: Sampler::new(),
            resource_limit_denies: Counter::new(),
            batches: Counter::new(),
            batch_size: Histogram::new(),
            applies: Counter::new(),
            apply_epoch: Gauge::new(),
            not_primary_denies: Counter::new(),
            traces: TraceRing::new(TRACE_CAPACITY),
            trace_grants: AtomicBool::new(false),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            history: TraceRing::new(HISTORY_CAPACITY),
            frames: AtomicU64::new(0),
            last_decide: Mutex::new(HistogramSnapshot::empty()),
            slowest_ns: AtomicU64::new(0),
            slowest: Mutex::new(Slowest::default()),
            explanations: TraceRing::new(EXPLAIN_CAPACITY),
            capture_explanations: AtomicBool::new(false),
            latency_trigger_ns: AtomicU64::new(u64::MAX),
        }
    }
}

impl DecideMetrics {
    /// Also trace granted decisions (denies are always traced). Off by
    /// default: grant tracing clones request strings on the throughput
    /// path.
    pub fn set_trace_grants(&self, on: bool) {
        self.trace_grants.store(on, Ordering::Relaxed);
    }

    /// Whether a decision with this verdict should build and record a
    /// trace. Always `false` under `obs-off`, so callers skip the
    /// string clones entirely.
    pub fn should_trace(&self, granted: bool) -> bool {
        obs::enabled() && (!granted || self.trace_grants.load(Ordering::Relaxed))
    }

    /// Record a finished decision's trace.
    pub fn record_trace(&self, trace: DecisionTrace) {
        self.traces.push(trace);
    }

    /// Count one `decide_many` batch of `n` requests.
    pub fn record_batch(&self, n: u64) {
        self.batches.inc();
        self.batch_size.record(n);
    }

    /// The retained decision traces, oldest first.
    pub fn recent_traces(&self) -> Vec<DecisionTrace> {
        self.traces.snapshot()
    }

    /// The anomaly flight recorder (black-box ring + trigger latch).
    pub fn flight(&self) -> &FlightRecorder<FlightEntry> {
        &self.flight
    }

    /// Retain one black-box entry in the flight recorder.
    pub fn record_flight(&self, entry: FlightEntry) {
        self.flight.record(entry);
    }

    /// Also capture a full [`Explanation`] for every decision into the
    /// recent-explanations ring. Off by default — capture walks the
    /// retained history a second time; the verdict path is unchanged.
    pub fn set_capture_explanations(&self, on: bool) {
        self.capture_explanations.store(on, Ordering::Relaxed);
    }

    /// Whether the opt-in explanation capture is on (always `false`
    /// under `obs-off`).
    pub fn capture_explanations(&self) -> bool {
        obs::enabled() && self.capture_explanations.load(Ordering::Relaxed)
    }

    /// Retain one captured explanation.
    pub fn record_explanation(&self, explanation: Explanation) {
        self.explanations.push(explanation);
    }

    /// The retained explanations, oldest first.
    pub fn recent_explanations(&self) -> Vec<Explanation> {
        self.explanations.snapshot()
    }

    /// Decides slower than `ns` fire the `p999_latency` flight
    /// trigger. `u64::MAX` (the default) disables the trigger.
    pub fn set_latency_trigger_ns(&self, ns: u64) {
        self.latency_trigger_ns.store(ns, Ordering::Relaxed);
    }

    /// The current latency-trigger threshold.
    pub fn latency_trigger_ns(&self) -> u64 {
        self.latency_trigger_ns.load(Ordering::Relaxed)
    }

    /// Note one sampled decide's latency as an exemplar candidate for
    /// the current history window. `ticket` is the flight-recorder
    /// ticket of the entry recorded for this decide.
    pub fn note_slowest(&self, ns: u64, ticket: u64, user: &str) {
        if ns <= self.slowest_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut slow = self.slowest.lock();
        if ns > slow.ns {
            self.slowest_ns.store(ns, Ordering::Relaxed);
            slow.ns = ns;
            slow.ticket = ticket;
            slow.user = user.to_owned();
        }
    }

    /// Capture one windowed metric frame into the history ring and
    /// return it: cumulative counters, the decide-histogram delta
    /// since the previous frame, and the window's slowest-decide
    /// exemplar (which is then reset for the next window).
    pub fn capture_frame(&self) -> MetricFrame {
        let decide = self.decide_ns.snapshot();
        let delta = {
            let mut last = self.last_decide.lock();
            let d = decide.delta(&last);
            *last = decide;
            d
        };
        let slowest = {
            let mut slow = self.slowest.lock();
            self.slowest_ns.store(0, Ordering::Relaxed);
            std::mem::take(&mut *slow)
        };
        let frame = MetricFrame {
            seq: self.frames.fetch_add(1, Ordering::Relaxed),
            decisions: self.decisions.get(),
            grants: self.grants.get(),
            denies: self.denies.get(),
            decide_delta: delta,
            slowest_ns: slowest.ns,
            slowest_ticket: slowest.ticket,
            slowest_user: slowest.user,
        };
        self.history.push(frame.clone());
        frame
    }

    /// The retained metric frames, oldest first.
    pub fn history(&self) -> Vec<MetricFrame> {
        self.history.snapshot()
    }

    /// Render the decision-plane metrics as Prometheus text. Phase
    /// latencies share one family, `permis_decide_phase_ns`, labelled
    /// by `phase`.
    pub fn export(&self, w: &mut PromWriter) {
        w.counter(
            "permis_decisions_total",
            "Decisions evaluated by the decision service.",
            &[],
            self.decisions.get(),
        );
        w.counter(
            "permis_grants_total",
            "Decisions that ended in a grant.",
            &[],
            self.grants.get(),
        );
        w.counter("permis_denies_total", "Decisions that ended in a deny.", &[], self.denies.get());
        w.histogram(
            "permis_decide_ns",
            "End-to-end decide latency, including the audit append (sampled 1-in-8 decisions).",
            &[],
            &self.decide_ns.snapshot(),
        );
        const PHASE_HELP: &str = "Per-phase decide latency (sampled 1-in-8 decisions).";
        w.histogram(
            "permis_decide_phase_ns",
            PHASE_HELP,
            &[("phase", "front_end")],
            &self.front_end_ns.snapshot(),
        );
        w.histogram(
            "permis_decide_phase_ns",
            PHASE_HELP,
            &[("phase", "msod")],
            &self.msod_ns.snapshot(),
        );
        w.histogram(
            "permis_decide_phase_ns",
            PHASE_HELP,
            &[("phase", "audit_append")],
            &self.audit_append_ns.snapshot(),
        );
        w.gauge(
            "permis_recent_traces",
            "Decision traces currently retained in the ring.",
            &[],
            self.traces.len() as u64,
        );
        w.counter(
            "permis_reqbuf_overflow_total",
            "Requests denied for exceeding a fixed MSoD engine bound (roles, context depth, \
             matching policies).",
            &[],
            self.resource_limit_denies.get(),
        );
        w.counter(
            "permis_decide_batches_total",
            "decide_many batches evaluated.",
            &[],
            self.batches.get(),
        );
        w.histogram(
            "permis_decide_batch_size",
            "Requests per decide_many batch.",
            &[],
            &self.batch_size.snapshot(),
        );
        w.counter(
            "permis_apply_total",
            "Replicated commands applied through the ungated apply path.",
            &[],
            self.applies.get(),
        );
        w.gauge(
            "permis_apply_epoch",
            "Apply epoch last published by the replication layer.",
            &[],
            self.apply_epoch.get(),
        );
        w.counter(
            "permis_not_primary_denies_total",
            "Requests denied because this service is a non-primary replica.",
            &[],
            self.not_primary_denies.get(),
        );
        w.counter(
            "permis_flight_triggers_total",
            "Anomaly triggers observed by the flight recorder.",
            &[],
            self.flight.triggers_total(),
        );
        w.counter(
            "permis_flight_dumps_total",
            "Flight-recorder snapshots written to disk.",
            &[],
            self.flight.dumps_total(),
        );
        w.gauge(
            "permis_history_frames",
            "Windowed metric frames captured so far.",
            &[],
            self.frames.load(Ordering::Relaxed),
        );
    }
}

/// Render a flight-recorder snapshot as a self-contained JSON
/// document: the trigger reason plus every retained black-box entry,
/// oldest first, with interned user symbols resolved through `table`.
pub fn render_flight_snapshot(
    reason: &str,
    entries: &[FlightEntry],
    table: &SymbolTable,
) -> String {
    use crate::explain::json_string;
    let mut out = String::with_capacity(256 + entries.len() * 160);
    out.push_str("{\"reason\":");
    out.push_str(&json_string(reason));
    out.push_str(",\"entries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let user = table.resolve_user(symtab::UserId::from_u32(e.user_sym));
        out.push_str(&format!(
            "{{\"timestamp\":{},\"user\":{},\"granted\":{},\
             \"total_ns\":{},\"front_ns\":{},\"msod_ns\":{},\"records_consulted\":{},\
             \"shard\":{},\"shard_wait_ns\":{}}}",
            e.timestamp,
            json_string(&user),
            e.granted,
            e.total_ns,
            e.front_ns,
            e.msod_ns,
            e.records_consulted,
            e.shard,
            e.shard_wait_ns,
        ));
    }
    out.push_str("]}");
    out
}

/// Export symbol-plane gauges for one [`SymbolTable`]: interned-entry
/// counts and arena capacities per kind. Capacity equal to count means
/// the next intern of that kind reallocates.
pub fn export_symtab(w: &mut PromWriter, table: &SymbolTable) {
    let counts = table.counts();
    let caps = table.capacities();
    const COUNT_HELP: &str = "Entries interned in the shared symbol table, by kind.";
    const CAP_HELP: &str = "Allocated arena capacity of the shared symbol table, by kind.";
    let kinds = [
        ("strings", counts.strings, caps.strings),
        ("users", counts.users, caps.users),
        ("roles", counts.roles, caps.roles),
        ("privs", counts.privs, caps.privs),
        ("ctx_pairs", counts.ctx_pairs, caps.ctx_pairs),
    ];
    for (kind, count, cap) in kinds {
        w.gauge("symtab_interned", COUNT_HELP, &[("kind", kind)], count as u64);
        w.gauge("symtab_arena_capacity", CAP_HELP, &[("kind", kind)], cap as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denies_always_traced_grants_opt_in() {
        let m = DecideMetrics::default();
        if obs::enabled() {
            assert!(m.should_trace(false));
            assert!(!m.should_trace(true));
            m.set_trace_grants(true);
            assert!(m.should_trace(true));
        } else {
            assert!(!m.should_trace(false));
            assert!(!m.should_trace(true));
        }
    }

    #[test]
    fn export_names_every_phase() {
        let m = DecideMetrics::default();
        m.decisions.inc();
        m.decide_ns.record(1500);
        m.front_end_ns.record(300);
        let mut w = PromWriter::new();
        m.export(&mut w);
        let text = w.finish();
        assert!(text.contains("permis_decisions_total"));
        for phase in ["front_end", "msod", "audit_append"] {
            assert!(text.contains(&format!("phase=\"{phase}\"")), "missing {phase}:\n{text}");
        }
        // One HELP/TYPE declaration per family, however many label sets.
        assert_eq!(text.matches("# TYPE permis_decide_phase_ns").count(), 1);
    }
}
