//! The traced run of a workload: per-layer metrics.
//!
//! Order of a traced run: build once; a traced warm-up repetition
//! (discarded); traced repetitions for half of `--seconds`, every
//! request replayed through the shadow layers (`trace.rs`); then the
//! shadow is dropped and the other half runs untraced, which gives the
//! per-class latencies and the untraced call time the tracing overhead
//! is measured against; then the probes and, on the durable workload,
//! the restart.

use std::time::Instant;

use msod::RetainedAdi;
use net::{Backend, NetClient};
use permis::{DecisionOutcome, DecisionRequest, DecisionService};

use crate::exec::{
    frames_of, manage_in_process, manage_over_wire, managed_ok, outcome_ok, wire_ok, Frame,
};
use crate::fixture::{self, role};
use crate::measure::{median, proc_status_mb, PromSnapshot};
use crate::metrics::PER_LAYER;
use crate::stream::{Call, Class, Expect, Op};
use crate::trace::{records_consulted, Shadow, TappedBackend};
use crate::workloads::{
    self, build, data_dir, guards, preload, repetition, restart_check, sources, FixedPoint, Kind,
    Measured, MemRig, Rig, RunConfig, RunReport, MIN_REPS,
};

/// Sums over the traced requests.
#[derive(Debug, Default)]
struct Tally {
    decisions: u64,
    failed: u64,
    failures: Vec<String>,
    /// Σ real call time and Σ child time over decide calls.
    parent_ns: u64,
    children_ns: u64,
    consulted: u64,
    /// Decide calls that stayed on the fast path (not last steps),
    /// with their Σ real call time: what `trace.coverage` is taken over.
    fast_parent_ns: u64,
    /// Instances retired: last steps plus management purges.
    retired: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(describe());
            }
        }
    }
}

/// The shadow layers and the sums, as the traced loops carry them.
struct Tracer<'a> {
    shadow: &'a mut Shadow,
    tally: &'a mut Tally,
}

/// What the traced loop calls: the service in process (any flavour,
/// through the object-safe `Backend` it implements) or over the wire.
enum Real<'a> {
    Local(&'a dyn Backend),
    Wire(&'a mut NetClient, &'a TappedBackend),
}

impl Tracer<'_> {
    /// After the real call of one decided request: replay it through
    /// the shadow layers and the shadow codec, and keep the sums.
    /// `parent_ns` is the real `permis.decide` time. Returns the codec
    /// spans' total.
    fn after_decide(
        &mut self,
        request: u64,
        (parent, codec_parent): (u32, u32),
        parent_ns: u64,
        op: &Op,
        req: &DecisionRequest,
        out: &DecisionOutcome,
    ) -> u64 {
        let times = self.shadow.replay(request, parent, req, out, op.expect);
        self.tally.decisions += 1;
        self.tally.parent_ns += parent_ns;
        self.tally.consulted += records_consulted(out);
        self.shadow.rec_sample("permis.decide", parent_ns);
        self.shadow.rec_sample("permis.residual", parent_ns.saturating_sub(times.total));
        if op.class == Class::LastStep {
            // The exclusive path has no shadow: what the front end and the
            // audit append do not explain is the MSoD stage's.
            self.tally.retired += 1;
            self.shadow
                .rec_sample("msod.laststep", parent_ns.saturating_sub(times.front + times.audit));
        } else {
            self.tally.fast_parent_ns += parent_ns;
            self.tally.children_ns += times.total;
        }
        self.shadow.codec(request, codec_parent, &[(req, out)])
    }

    fn traced_ops(&mut self, real: &mut Real<'_>, ops: &[Op], first: u64) {
        for (i, op) in ops.iter().enumerate() {
            let request = first + i as u64;
            match (&op.call, &mut *real) {
                (Call::Decide(req), Real::Local(svc)) => {
                    let t0 = Instant::now();
                    let out = svc.decide(req);
                    let t1 = Instant::now();
                    let parent = self.shadow.rec_span("permis.decide", request, None, t0, t1);
                    self.tally.check(outcome_ok(op.expect, &out), || {
                        format!("{req:?}: expected {:?}, got {out:?}", op.expect)
                    });
                    let ns = (t1 - t0).as_nanos() as u64;
                    self.after_decide(request, (parent, parent), ns, op, req, &out);
                }
                (Call::Decide(req), Real::Wire(client, tap)) => {
                    let t0 = Instant::now();
                    let verdict = client.decide(req);
                    let t1 = Instant::now();
                    let root = self.shadow.rec_span("net.client_decide", request, None, t0, t1);
                    let seen = tap.take();
                    self.tally.check(matches!(&verdict, Ok(v) if wire_ok(op.expect, v)), || {
                        format!("wire {req:?}: expected {:?}, got {verdict:?}", op.expect)
                    });
                    let (Some((s0, s1)), Some(out)) = (seen.call, seen.outcomes.first()) else {
                        self.tally
                            .check(false, || "the server never reached the backend".to_owned());
                        continue;
                    };
                    let server_ns = (s1 - s0).as_nanos() as u64;
                    let parent = self.shadow.rec_span("permis.decide", request, Some(root), s0, s1);
                    let codec_ns =
                        self.after_decide(request, (parent, root), server_ns, op, req, out);
                    let rtt = (t1 - t0).as_nanos() as u64;
                    self.shadow.rec_sample("net.client_decide", rtt);
                    self.shadow
                        .rec_sample("net.rtt_overhead", rtt.saturating_sub(server_ns + codec_ns));
                }
                (Call::Manage { scope, bound, timestamp }, real) => {
                    let removed = match real {
                        Real::Local(svc) => manage_in_process(*svc, bound, *timestamp)
                            .map(|n| n as u64)
                            .map_err(|e| e.to_string()),
                        Real::Wire(client, _) => {
                            manage_over_wire(client, scope, *timestamp).map_err(|e| e.to_string())
                        }
                    };
                    self.tally.check(managed_ok(op.expect, &removed), || {
                        format!("manage {scope}: expected {:?}, got {removed:?}", op.expect)
                    });
                    self.shadow.manage(scope, *timestamp);
                    self.tally.retired += 1;
                }
            }
        }
    }

    fn traced_frames(
        &mut self,
        client: &mut NetClient,
        tap: &TappedBackend,
        frames: &[Frame],
        first: u64,
    ) {
        let mut request = first;
        for frame in frames {
            match frame {
                Frame::Batch(reqs, expects) => {
                    let n = reqs.len() as u64;
                    let t0 = Instant::now();
                    let verdicts = client.decide_batch(reqs);
                    let t1 = Instant::now();
                    let root =
                        self.shadow.rec_span("net.client_decide_batch", request, None, t0, t1);
                    let seen = tap.take();
                    match &verdicts {
                        Ok(vs) => {
                            for ((v, expect), req) in vs.iter().zip(expects).zip(reqs) {
                                self.tally.check(wire_ok(*expect, v), || {
                                    format!("batch {req:?}: expected {expect:?}, got {v:?}")
                                });
                            }
                        }
                        Err(e) => self.tally.check(false, || format!("decide_batch: {e}")),
                    }
                    let Some((s0, s1)) = seen.call.filter(|_| seen.outcomes.len() == reqs.len())
                    else {
                        self.tally
                            .check(false, || "the server never reached the backend".to_owned());
                        request += n;
                        continue;
                    };
                    let server_ns = (s1 - s0).as_nanos() as u64;
                    let parent =
                        self.shadow.rec_span("permis.decide_many", request, Some(root), s0, s1);
                    self.shadow.rec_sample("permis.decide", server_ns / n);
                    let mut children = 0;
                    for (i, ((req, out), expect)) in
                        reqs.iter().zip(&seen.outcomes).zip(expects).enumerate()
                    {
                        let times =
                            self.shadow.replay(request + i as u64, parent, req, out, *expect);
                        children += times.total;
                        self.tally.consulted += records_consulted(out);
                        self.tally.retired += u64::from(matches!(expect, Expect::LastStep { .. }));
                    }
                    // A frame mixes fast-path requests and last steps, so
                    // the batch workload's coverage is over whole frames.
                    self.tally.decisions += n;
                    self.tally.parent_ns += server_ns;
                    self.tally.fast_parent_ns += server_ns;
                    self.tally.children_ns += children;
                    self.shadow
                        .rec_sample("permis.residual", server_ns.saturating_sub(children) / n);
                    let calls: Vec<_> = reqs.iter().zip(&seen.outcomes).collect();
                    let codec_ns = self.shadow.codec(request, root, &calls);
                    let rtt = (t1 - t0).as_nanos() as u64;
                    self.shadow.rec_sample("net.client_decide", rtt / n);
                    self.shadow.rec_sample(
                        "net.rtt_overhead",
                        rtt.saturating_sub(server_ns + codec_ns) / n,
                    );
                    request += n;
                }
                Frame::Manage { scope, timestamp, expect } => {
                    let removed = manage_over_wire(client, scope, *timestamp);
                    self.tally.check(managed_ok(*expect, &removed), || {
                        format!("manage {scope}: expected {expect:?}, got {removed:?}")
                    });
                    self.shadow.manage(scope, *timestamp);
                    self.tally.retired += 1;
                    request += 1;
                }
            }
        }
    }
}

/// The embedder's duty after a traced repetition, as in the untraced
/// run: seal the audit segment. An error counts as a failed operation.
fn rotate_timed<A: RetainedAdi + 'static>(
    svc: &DecisionService<A>,
    shadow: &mut Shadow,
    tally: &mut Tally,
) {
    let t = Instant::now();
    let rotated = svc.rotate_and_persist();
    shadow.rec_sample("audit.rotate", t.elapsed().as_nanos() as u64);
    tally.check(rotated.is_ok(), || format!("rotate_and_persist: {rotated:?}"));
    shadow.rotate();
}

/// One traced repetition over the first source's next chunk.
fn traced_repetition(
    cfg: &RunConfig,
    rig: &mut Rig,
    source: &mut workloads::Source,
    shadow: &mut Shadow,
    first: u64,
    tally: &mut Tally,
) {
    let ops = source.chunk(cfg.scale.chunk);
    match rig {
        Rig::Durable(svc) => {
            Tracer { shadow, tally }.traced_ops(&mut Real::Local(&**svc), &ops, first);
            rotate_timed(svc, shadow, tally);
            let synced = svc.sync_adi();
            tally.check(synced.is_ok(), || format!("sync_adi: {synced:?}"));
        }
        Rig::Mem(MemRig { svc, wire: Some((client, _)), tap: Some(tap) }) => {
            if cfg.spec.kind == Kind::WireBatch32 {
                Tracer { shadow, tally }.traced_frames(client, tap, &frames_of(ops), first);
            } else {
                Tracer { shadow, tally }.traced_ops(&mut Real::Wire(client, tap), &ops, first);
            }
            rotate_timed(svc, shadow, tally);
        }
        Rig::Mem(MemRig { svc, .. }) => {
            Tracer { shadow, tally }.traced_ops(&mut Real::Local(&**svc), &ops, first);
            rotate_timed(svc, shadow, tally);
        }
    }
}

/// `decide_many(32)` per decision on stateless (not-applicable)
/// requests, against the real service in process.
fn probe_decide_many(svc: &dyn Backend) -> f64 {
    let batch: Vec<DecisionRequest> = (0..crate::exec::BATCH)
        .map(|i| {
            let (operation, target) = fixture::report_op();
            DecisionRequest::with_roles(
                format!("cn=probe{i:02}, o=bank"),
                vec![role("Staff")],
                operation,
                target,
                format!("Dept=D{:02}", i % fixture::DEPTS).parse().expect("probe context"),
                u64::MAX / 2,
            )
        })
        .collect();
    let per_decision: Vec<f64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            let out = svc.decide_many(&batch);
            let ns = t.elapsed().as_nanos() as f64;
            assert!(out.iter().all(DecisionOutcome::is_granted), "probe requests are grants");
            ns / batch.len() as f64
        })
        .collect();
    median(&per_decision)
}

/// Run one workload traced and report its per-layer metrics.
pub fn run_traced(cfg: &RunConfig) -> RunReport {
    let mut report = RunReport::default();
    if cfg.spec.kind.is_wire() {
        report.pinned_cpu = crate::measure::pin_to_current_cpu();
    }
    let xml = fixture::bank_policy_xml();
    let _ = std::fs::remove_dir_all(data_dir(cfg));
    std::fs::create_dir_all(&cfg.out_dir).expect("create the output directory");

    let durable = cfg.spec.kind == Kind::WorkflowDurable;
    let journal_path = cfg.out_dir.join(format!("shadow-journal-{}.log", cfg.spec.name));
    // Memory per retained record is read off the shadow store's load,
    // from streams of its own: the batches come and go, so the
    // resident-set delta is the symbolized store's own growth.
    let rss_before = proc_status_mb("VmRSS");
    let mut shadow = Shadow::new(&xml, &journal_path, durable);
    let mut preload_count = 0.0;
    preload(cfg, &mut sources(cfg), &mut |batch| {
        preload_count += batch.len() as f64;
        shadow.load(batch);
    });
    let rss_after = proc_status_mb("VmRSS");
    let mut sources = sources(cfg);
    let (mut rig, setup) = build(cfg, &xml, &mut sources, true);
    let preloaded = rig.adi_len();
    if let Rig::Mem(MemRig { tap: Some(tap), .. }) = &rig {
        tap.set_enabled(true);
    }

    // Traced half. The first repetition warms up and is discarded.
    let mut tally = Tally::default();
    let mut next_request = 0u64;
    let started = Instant::now();
    let mut traced_reps = 0usize;
    const PURGED: &str = "msod_adi_purged_records_total";
    let mut purged_before = 0.0;
    // The journal is measured after a fixed number of operations: the
    // warm-up and the two repetitions every traced run makes.
    let mut fixed_point = FixedPoint::default();
    loop {
        let done = match cfg.fixed_reps {
            Some(n) => traced_reps > n,
            None => traced_reps > 2 && started.elapsed().as_secs_f64() >= cfg.seconds / 2.0,
        };
        if done {
            break;
        }
        traced_repetition(cfg, &mut rig, &mut sources[0], &mut shadow, next_request, &mut tally);
        next_request += cfg.scale.chunk as u64;
        if traced_reps == 0 {
            report.failed += tally.failed;
            report.problems.append(&mut tally.failures);
            tally = Tally::default();
            shadow.reset_recorder();
            purged_before = PromSnapshot::parse(&rig.metrics_text()).get(PURGED);
        }
        traced_reps += 1;
        if traced_reps == 3.min(cfg.fixed_reps.map_or(3, |n| n + 1)) {
            fixed_point = FixedPoint::read(cfg, &sources);
        }
    }
    report.attempted += tally.decisions;
    report.failed += tally.failed;
    report.problems.append(&mut tally.failures);

    // The shadow retained ADI must have tracked the real one (on the
    // two-thread workload it only follows the traced lane).
    if cfg.spec.kind != Kind::WorkflowMemPar2 && shadow.adi_len() as u64 != rig.adi_len() {
        report.problems.push(format!(
            "shadow retained ADI holds {} records, the real one {}",
            shadow.adi_len(),
            rig.adi_len()
        ));
    }
    shadow.probe_intern_miss(256);
    let traced_snapshot = PromSnapshot::parse(&rig.metrics_text());

    // Untraced half: per-class latencies and the untraced call time.
    if let Rig::Mem(MemRig { tap: Some(tap), .. }) = &rig {
        tap.set_enabled(false);
    }
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut untraced_call_ns = (0u64, 0u64);
    loop {
        let done = match cfg.fixed_reps {
            Some(n) => reps.len() >= n,
            None => {
                reps.len() >= MIN_REPS.min(3)
                    && started.elapsed().as_secs_f64() >= cfg.seconds / 2.0
            }
        };
        if done {
            break;
        }
        let (mut rec, window) = repetition(cfg, &mut rig, &mut sources);
        report.attempted += rec.attempted;
        report.failed += rec.failed;
        report.problems.append(&mut rec.failures);
        untraced_call_ns.0 += rec.calls.iter().sum::<u64>();
        untraced_call_ns.1 += rec.attempted;
        reps.push(workloads::rep_stats(&mut rec, window));
    }

    let snapshot = guards(&rig, &sources, preloaded, &mut report);
    report.reps = traced_reps.saturating_sub(1) + reps.len();

    // Probes and the durable tail.
    let mut values = std::collections::BTreeMap::<String, f64>::new();
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_owned(), if v.is_finite() { v } else { 0.0 });
    };
    // The batch workload already made the real thing: its server-side
    // `decide_many` spans, per decision.
    let decide_many_ns = match &rig {
        _ if cfg.spec.kind == Kind::WireBatch32 => shadow.rec.typical("permis.decide"),
        Rig::Mem(r) => probe_decide_many(&*r.svc),
        Rig::Durable(svc) => probe_decide_many(&**svc),
    };
    set("permis.decide_many_amortised_ns", decide_many_ns);
    if let Rig::Durable(svc) = rig {
        let t = Instant::now();
        let synced = svc.sync_adi();
        set("storage.sync_ns", t.elapsed().as_nanos() as f64);
        if let Err(e) = synced {
            report.failed += 1;
            report.problems.push(format!("sync_adi: {e}"));
        }
        report.extra.extend(fixed_point.journal_extras());
        restart_check(cfg, *svc, &xml, &mut sources, &mut report);
    }
    for m in &report.extra {
        match m.name.as_str() {
            "recover_s" => set("recover_s", m.value),
            "journal_bytes" => set("storage.journal_bytes", m.value),
            "journal_bytes_per_record" => set("journal_bytes_per_record", m.value),
            "replay_records_per_s" => set("storage.replay_records_per_s", m.value),
            _ => {}
        }
    }
    let _ = std::fs::remove_dir_all(data_dir(cfg));
    let _ = std::fs::remove_file(&journal_path);

    // Spans of the first requests, for reading by hand.
    let trace_path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.spec.name));
    if let Err(e) = shadow.rec.write_jsonl(&trace_path) {
        report.problems.push(format!("write {}: {e}", trace_path.display()));
    }

    // Per-layer metrics.
    let rec = &shadow.rec;
    let traced = tally.decisions.max(1) as f64;
    let decisions_total = snapshot.get("permis_decisions_total").max(1.0);
    for name in [
        "net.encode_req",
        "net.decode_req",
        "net.encode_resp",
        "net.decode_resp",
        "net.rtt_overhead",
        "permis.decide",
        "permis.residual",
        "credential.validate_push",
        "policy.rbac_check",
        "symtab.intern_hit",
        "symtab.intern_miss",
        "msod.enforce_deny",
        "msod.enforce_grant",
        "msod.enforce_na",
        "msod.laststep",
        "storage.append",
        "audit.append_grant",
        "audit.append_deny",
        "audit.rotate",
    ] {
        set(&format!("{name}_ns"), rec.typical(name));
    }
    set("net.bytes_per_decide", shadow.wire_bytes as f64 / traced);
    set("net.dict_defs_per_1k", shadow.wire_defs_total as f64 * 1e3 / traced);
    set("net.requests_total", snapshot.get("net_requests_total"));
    set(
        "net.errors_total",
        snapshot.get("net_request_errors_total") + snapshot.get("net_decode_errors_total"),
    );
    for (metric, phase) in [
        ("permis.phase_front_ns", "front_end"),
        ("permis.phase_msod_ns", "msod"),
        ("permis.phase_audit_ns", "audit_append"),
    ] {
        set(metric, snapshot.hist_mean("permis_decide_phase_ns", &format!("phase=\"{phase}\"")));
    }
    set("permis.sym_fallback_share", snapshot.get("permis_sym_fallback_total") / decisions_total);
    set("credential.rejected_total", shadow.rejected as f64);
    set("policy.parse_ms", setup.parse_s * 1e3);
    set("policy.compile_ms", setup.construct_s * 1e3);
    let interned = shadow.table().counts();
    let interned_total =
        interned.strings + interned.users + interned.roles + interned.privs + interned.ctx_pairs;
    set("symtab.interned_per_1k", interned_total as f64 * 1e3 / (preload_count + traced));
    let cap = shadow.table().capacities();
    set(
        "symtab.arena_slots",
        (cap.strings + cap.users + cap.roles + cap.privs + cap.ctx_pairs) as f64,
    );
    set("msod.records_consulted_per_decide", tally.consulted as f64 / traced);
    set(
        "msod.purged_per_laststep",
        (traced_snapshot.get(PURGED) - purged_before) / tally.retired.max(1) as f64,
    );
    set("msod.shard_lock_wait_ns", snapshot.get("msod_shard_lock_wait_ns_total") / decisions_total);
    set(
        "msod.epoch_write_wait_ns",
        snapshot.get("msod_epoch_write_wait_ns_total") / decisions_total,
    );
    set("msod.preload_add_ns", setup.preload_s * 1e9 / preload_count.max(1.0));
    set(
        "msod.bytes_per_record",
        (rss_after - rss_before) * 1024.0 * 1024.0 / preload_count.max(1.0),
    );
    set("storage.flush_ns", snapshot.hist_mean("storage_journal_flush_ns", ""));
    set(
        "storage.frames_per_flush",
        snapshot.get("storage_journal_flushed_frames_total")
            / snapshot.get("storage_journal_flush_batches_total").max(1.0),
    );
    set("storage.compactions_total", snapshot.get("storage_journal_compactions_total"));
    set("audit.bytes_per_event", shadow.audit_bytes.0 as f64 / shadow.audit_bytes.1.max(1) as f64);
    set("audit.appends_per_decide", snapshot.get("audit_appends_total") / decisions_total);
    set("trace.coverage", tally.children_ns as f64 / tally.fast_parent_ns.max(1) as f64);
    let traced_call = tally.parent_ns as f64 / traced;
    let untraced_call = untraced_call_ns.0 as f64 / untraced_call_ns.1.max(1) as f64;
    // On the wire workloads the traced parent is the server-side call,
    // the untraced one the client's round trip: compare like with like.
    let traced_call = if cfg.spec.kind.is_wire() {
        rec.sum("net.client_decide") / rec.count("net.client_decide").max(1) as f64
    } else {
        traced_call
    };
    set("trace.overhead_share", (traced_call - untraced_call) / untraced_call);
    let class_p50 = |class: Class| -> f64 {
        let v: Vec<f64> =
            reps.iter().map(|r| r.class_p50_us[class as usize]).filter(|v| *v > 0.0).collect();
        median(&v)
    };
    set("grant_p50_us", class_p50(Class::Grant));
    set("deny_p50_us", class_p50(Class::Deny));
    set("na_p50_us", class_p50(Class::Na));
    set("laststep_p50_us", class_p50(Class::LastStep));
    set("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
    set("traced_decisions", tally.decisions as f64);

    debug_assert!(values.keys().all(|k| PER_LAYER.iter().any(|m| m.name == k)), "{values:?}");
    report.per_layer = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name.to_owned(),
            value: values.get(m.name).copied().unwrap_or(0.0),
            unit: m.unit,
            spread: 0.0,
        })
        .collect();
    report
}
