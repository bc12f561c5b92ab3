//! The metric names of the benchmark — the vocabulary later issues
//! refer to. `BENCHMARK.json` lists the same names; a test keeps the
//! two in step.

/// An end-to-end metric: something a user of the PDP would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before `compare` says *regressed*: the smallest multiple of 5% at
    /// least three times the widest ten-seed spread `(Q3 − Q1) / median`
    /// any workload showed in the two calibration passes (README,
    /// "First numbers").
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 5] = [
    // Policy parse + compile, service open/bind/connect, preload
    // (loading only: generating the records is the harness's work);
    // median of 5 set-ups.
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    // Decisions completed / timed window, embedder duties included.
    EndToEnd { name: "decide_per_s", unit: "1/s", better: "higher", bound: 0.15 },
    // Median latency per call into the public API, all classes.
    EndToEnd { name: "decide_p50_us", unit: "us", better: "lower", bound: 0.15 },
    // 99th percentile of the same; on the workflow stream it sits inside
    // the last-step class.
    EndToEnd { name: "decide_p99_us", unit: "us", better: "lower", bound: 0.15 },
    // VmHWM of the workload process after a fixed number of decisions.
    // Set-ups are built one at a time from streamed batches, so the
    // peak is the program's, not the generator's.
    EndToEnd { name: "rss_peak_mb", unit: "MB", better: "lower", bound: 0.05 },
];

/// A per-layer metric: work, time or waiting of one crate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "lower" }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: "higher" }
}

/// The per-layer metrics of the traced run, layer by layer, then the
/// workload-specific end-to-end numbers that cannot be in
/// [`END_TO_END`] because not every workload has them. A metric that
/// does not apply to a workload reads 0 there.
pub const PER_LAYER: [PerLayer; 57] = [
    lower("net.encode_req_ns", "ns"),
    lower("net.decode_req_ns", "ns"),
    lower("net.encode_resp_ns", "ns"),
    lower("net.decode_resp_ns", "ns"),
    lower("net.rtt_overhead_ns", "ns"),
    lower("net.bytes_per_decide", "B"),
    lower("net.dict_defs_per_1k", "count"),
    higher("net.requests_total", "count"),
    lower("net.errors_total", "count"),
    lower("permis.decide_ns", "ns"),
    lower("permis.residual_ns", "ns"),
    lower("permis.phase_front_ns", "ns"),
    lower("permis.phase_msod_ns", "ns"),
    lower("permis.phase_audit_ns", "ns"),
    lower("permis.sym_fallback_share", "ratio"),
    lower("permis.decide_many_amortised_ns", "ns"),
    lower("credential.validate_push_ns", "ns"),
    lower("credential.rejected_total", "count"),
    lower("policy.rbac_check_ns", "ns"),
    lower("policy.parse_ms", "ms"),
    lower("policy.compile_ms", "ms"),
    lower("symtab.intern_hit_ns", "ns"),
    lower("symtab.intern_miss_ns", "ns"),
    lower("symtab.interned_per_1k", "count"),
    lower("symtab.arena_slots", "count"),
    lower("msod.enforce_deny_ns", "ns"),
    lower("msod.records_consulted_per_decide", "count"),
    lower("msod.enforce_grant_ns", "ns"),
    lower("msod.enforce_na_ns", "ns"),
    lower("msod.laststep_ns", "ns"),
    lower("msod.purged_per_laststep", "count"),
    lower("msod.shard_lock_wait_ns", "ns"),
    lower("msod.epoch_write_wait_ns", "ns"),
    lower("msod.preload_add_ns", "ns"),
    lower("msod.bytes_per_record", "B"),
    lower("storage.append_ns", "ns"),
    lower("storage.flush_ns", "ns"),
    higher("storage.frames_per_flush", "count"),
    lower("storage.journal_bytes", "B"),
    lower("storage.sync_ns", "ns"),
    lower("storage.compactions_total", "count"),
    higher("storage.replay_records_per_s", "1/s"),
    lower("audit.append_grant_ns", "ns"),
    lower("audit.append_deny_ns", "ns"),
    lower("audit.bytes_per_event", "B"),
    lower("audit.appends_per_decide", "count"),
    lower("audit.rotate_ns", "ns"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead_share", "ratio"),
    lower("grant_p50_us", "us"),
    lower("deny_p50_us", "us"),
    lower("na_p50_us", "us"),
    lower("laststep_p50_us", "us"),
    lower("recover_s", "s"),
    lower("journal_bytes_per_record", "B"),
    lower("failed_share", "ratio"),
    higher("traced_decisions", "count"),
];
