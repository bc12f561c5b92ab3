//! The six named workloads: what each builds, streams and measures.
//!
//! Method, the same for all: closed loop; requests are generated from
//! the seed before each timed window, so the program sees only the
//! generated requests; the service is built `SETUP_REPEATS` times, one
//! at a time (`setup_s` is the median), then one warm-up chunk, then repetitions
//! of a fixed operation count until `--seconds` have passed (at least
//! `MIN_REPS`). Every end-to-end metric is the median over the
//! repetitions and is reported with its spread `(Q3 − Q1) / median`.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use msod::{AdiRecord, RetainedAdi, SymAdi};
use net::{NetClient, NetConfig, NetServer};
use permis::DecisionService;
use storage::PersistentAdi;

use crate::exec::{frames_of, run_in_process, run_wire_batch, run_wire_single, Recorder};
use crate::fixture::{self, SOA_DN, SOA_KEY, TRAIL_KEY};
use crate::measure::{median, proc_status_mb, quantile_ns, spread, PromSnapshot};
use crate::stream::{Class, DenyDeepStream, Op, WorkflowStream};
use crate::trace::TappedBackend;

/// What a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `workflow` stream, symbolized in-memory service, in process.
    WorkflowMem,
    /// Read-only deny stream against deep per-user histories.
    DenyDeepMem,
    /// `workflow` stream on the journaled service, then a restart.
    WorkflowDurable,
    /// `workflow` stream over one wire connection, a frame a decision.
    WireSingle,
    /// The same in `decide_batch` frames of 32.
    WireBatch32,
    /// `workflow` stream from two driver threads on disjoint users and
    /// context instances.
    WorkflowMemPar2,
}

impl Kind {
    /// Whether the workload goes over the loopback wire.
    pub fn is_wire(self) -> bool {
        matches!(self, Kind::WireSingle | Kind::WireBatch32)
    }
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name every later issue refers to.
    pub name: &'static str,
    /// What it runs.
    pub kind: Kind,
    /// Why it was chosen (one line; mirrored in `BENCHMARK.json`).
    pub why: &'static str,
}

/// The workloads, in run order.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "workflow_mem",
        kind: Kind::WorkflowMem,
        why: "Headline mix in process: grants, denies, N/A and last-step purges on one in-memory retained ADI, so a gain for one that costs another shows; net and storage idle.",
    },
    Spec {
        name: "deny_deep_mem",
        kind: Kind::DenyDeepMem,
        why: "Read-only MSoD denies over 500 records per user (Zipf users, working set beyond cache): the history probe dominates; commit, purge, storage and net do nothing.",
    },
    Spec {
        name: "workflow_durable",
        kind: Kind::WorkflowDurable,
        why: "Same stream on the journaled 16-shard service, then restart: journal append/flush/replay and the string engine; difference to workflow_mem is the durability overhead.",
    },
    Spec {
        name: "wire_single",
        kind: Kind::WireSingle,
        why: "Same stream over one loopback connection, one frame per decision: syscall pair and scheduling dominate; difference to workflow_mem is the wire overhead.",
    },
    Spec {
        name: "wire_batch32",
        kind: Kind::WireBatch32,
        why: "Same wire path in decide_batch frames of 32: syscalls amortised, so the codec, dictionary staging and decide_many dominate instead.",
    },
    Spec {
        name: "workflow_mem_par2",
        kind: Kind::WorkflowMemPar2,
        why: "workflow_mem from two driver threads on disjoint users and instances: the only place the audit mutex, shard locks and epoch lock can contend.",
    },
];

/// Look a workload up by name.
pub fn spec_of(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Records preloaded into the retained ADI.
    pub preload: u64,
    /// Users of the `workflow` stream (`deny_deep`: users with history).
    pub users: u32,
    /// Operations per repetition (per driver thread).
    pub chunk: usize,
}

impl Scale {
    /// The sizes the recorded numbers use.
    pub fn full(kind: Kind) -> Scale {
        match kind {
            Kind::WorkflowMem => Scale { preload: 100_000, users: 10_000, chunk: 32_768 },
            Kind::DenyDeepMem => Scale { preload: 500_000, users: 1_000, chunk: 16_384 },
            Kind::WorkflowDurable => Scale { preload: 100_000, users: 10_000, chunk: 4_096 },
            Kind::WireSingle => Scale { preload: 100_000, users: 10_000, chunk: 16_384 },
            Kind::WireBatch32 => Scale { preload: 100_000, users: 10_000, chunk: 32_768 },
            Kind::WorkflowMemPar2 => Scale { preload: 100_000, users: 10_000, chunk: 20_480 },
        }
    }

    /// Small sizes for the determinism tests.
    pub fn smoke(kind: Kind) -> Scale {
        match kind {
            Kind::DenyDeepMem => Scale { preload: 4_000, users: 40, chunk: 2_048 },
            Kind::WorkflowDurable => Scale { preload: 3_000, users: 500, chunk: 1_024 },
            _ => Scale { preload: 3_000, users: 500, chunk: 4_096 },
        }
    }
}

/// Users' audit periods in `deny_deep`.
const DEEP_PERIODS: u32 = 5;
/// One request in this many pushes signed credentials (in process).
const PUSH_EVERY: u64 = 8;
/// Shards of the durable service; must not change across the restart.
pub const PERSISTENT_SHARDS: usize = 16;
/// How many times a run builds its service; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Repetitions a run always makes, however short `--seconds` is; peak
/// memory is read when the last of them ends, i.e. after a fixed
/// number of decisions.
pub const MIN_REPS: usize = 5;

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub spec: Spec,
    /// Stream seed.
    pub seed: u64,
    /// Measure for this long (at least [`MIN_REPS`] repetitions).
    pub seconds: f64,
    /// Run exactly this many repetitions instead (determinism tests).
    pub fixed_reps: Option<usize>,
    /// Sizes.
    pub scale: Scale,
    /// Scratch directory; the durable workload's data lives under it.
    pub out_dir: PathBuf,
}

/// Where set-up time went.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `parse_rbac_policy`.
    pub parse_s: f64,
    /// Service construction (engine compile, journal open, key
    /// registration).
    pub construct_s: f64,
    /// Loading the preload records.
    pub preload_s: f64,
    /// Server bind + client connect (wire workloads).
    pub connect_s: f64,
}

impl SetupTimes {
    /// Whole set-up.
    pub fn total(&self) -> f64 {
        self.parse_s + self.construct_s + self.preload_s + self.connect_s
    }
}

/// An in-memory service, optionally behind a loopback server.
pub struct MemRig {
    /// The service.
    pub svc: Arc<DecisionService<SymAdi>>,
    /// Server and client of the wire workloads. Field order matters:
    /// the client hangs up before the server drains its workers.
    pub wire: Option<(NetClient, NetServer)>,
    /// The tap between server and service (traced wire runs).
    pub tap: Option<Arc<TappedBackend>>,
}

/// Whether (and how) the in-memory rig is served over loopback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// In process.
    None,
    /// Server straight over the service.
    Plain,
    /// Server over the service behind a [`TappedBackend`].
    Tapped,
}

fn load<A: RetainedAdi + 'static>(svc: &DecisionService<A>, records: Vec<AdiRecord>) {
    for rec in records {
        let user = rec.user.clone();
        svc.adi().with_user_shard(&user, |shard| shard.add(rec));
    }
}

/// Generate the preload of every source and hand it to `sink`, a batch
/// at a time (`stream::PRELOAD_BATCH` records).
pub(crate) fn preload(
    cfg: &RunConfig,
    sources: &mut [Source],
    sink: &mut dyn FnMut(Vec<AdiRecord>),
) {
    let s = cfg.scale;
    let share = s.preload / sources.len() as u64;
    for source in sources {
        match source {
            Source::Workflow(stream) => stream.preload(share, sink),
            Source::Deep(stream) => stream.preload((share / u64::from(s.users)) as u32, sink),
        }
    }
}

/// The preload step of a set-up: only the loading is timed, the
/// generating between two batches is not.
fn timed_preload(
    cfg: &RunConfig,
    sources: &mut [Source],
    mut load: impl FnMut(Vec<AdiRecord>),
) -> f64 {
    let mut spent = Duration::ZERO;
    preload(cfg, sources, &mut |batch| {
        let t = Instant::now();
        load(batch);
        spent += t.elapsed();
    });
    spent.as_secs_f64()
}

/// Build the in-memory rig: parse, construct, preload, (bind, connect).
fn build_mem(
    cfg: &RunConfig,
    xml: &str,
    sources: &mut [Source],
    wire: Wire,
) -> (MemRig, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let policy = policy::parse_rbac_policy(xml).expect("the fixture policy parses");
    times.parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let svc = Arc::new(DecisionService::new_symbolized(policy, TRAIL_KEY.to_vec()));
    svc.register_authority_key(SOA_DN, SOA_KEY.to_vec());
    times.construct_s = t.elapsed().as_secs_f64();

    times.preload_s = timed_preload(cfg, sources, |batch| load(&svc, batch));

    let t = Instant::now();
    let net_cfg = NetConfig { workers: 1, ..NetConfig::default() };
    let tap = (wire == Wire::Tapped).then(|| Arc::new(TappedBackend::new(Arc::clone(&svc))));
    let server = match (&tap, wire) {
        (_, Wire::None) => None,
        (Some(tap), _) => Some(NetServer::bind("127.0.0.1:0", Arc::clone(tap), net_cfg)),
        (None, _) => Some(NetServer::bind("127.0.0.1:0", Arc::clone(&svc), net_cfg)),
    };
    let wire = server.map(|server| {
        let server = server.expect("bind a loopback port");
        let client =
            NetClient::connect(&server.local_addr().to_string()).expect("connect to the server");
        (client, server)
    });
    times.connect_s = t.elapsed().as_secs_f64();
    (MemRig { svc, wire, tap }, times)
}

/// Build the durable service in `dir` (removed first), preload it and
/// make the preload durable.
fn build_durable(
    cfg: &RunConfig,
    xml: &str,
    sources: &mut [Source],
    dir: &Path,
) -> (DecisionService<PersistentAdi>, SetupTimes) {
    let _ = std::fs::remove_dir_all(dir);
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let policy = policy::parse_rbac_policy(xml).expect("the fixture policy parses");
    times.parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let svc = open_durable(policy, dir);
    svc.attach_store(
        audit::TrailStore::open(dir.join("trail")).expect("open the audit trail store"),
    );
    times.construct_s = t.elapsed().as_secs_f64();

    times.preload_s = timed_preload(cfg, sources, |batch| load(&svc, batch));
    let t = Instant::now();
    svc.sync_adi().expect("sync the preload");
    times.preload_s += t.elapsed().as_secs_f64();
    (svc, times)
}

fn open_durable(policy: policy::PdpPolicy, dir: &Path) -> DecisionService<PersistentAdi> {
    let (svc, reports) =
        DecisionService::open_persistent(policy, TRAIL_KEY.to_vec(), dir, PERSISTENT_SHARDS)
            .expect("open the durable service");
    assert!(reports.iter().all(storage::RecoveryReport::is_clean), "unclean journal recovery");
    svc.register_authority_key(SOA_DN, SOA_KEY.to_vec());
    svc
}

/// One repetition's numbers.
#[derive(Debug, Clone, Default)]
pub struct RepStats {
    /// Decisions completed ÷ timed window.
    pub decide_per_s: f64,
    /// p50 of every call, µs.
    pub p50_us: f64,
    /// p99 of every call, µs.
    pub p99_us: f64,
    /// Calls sampled.
    pub samples: usize,
    /// p50 per class, µs (0 where the class did not occur).
    pub class_p50_us: [f64; Class::ALL.len()],
    /// Mean per class, µs.
    pub class_mean_us: [f64; Class::ALL.len()],
}

pub(crate) fn rep_stats(rec: &mut Recorder, window: Duration) -> RepStats {
    rec.calls.sort_unstable();
    let mut class_p50_us = [0.0; Class::ALL.len()];
    let mut class_mean_us = [0.0; Class::ALL.len()];
    for ((slot, mean), lat) in
        class_p50_us.iter_mut().zip(class_mean_us.iter_mut()).zip(rec.by_class.iter_mut())
    {
        lat.sort_unstable();
        *slot = quantile_ns(lat, 0.5) / 1e3;
        *mean = lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64 / 1e3;
    }
    RepStats {
        decide_per_s: rec.attempted as f64 / window.as_secs_f64(),
        p50_us: quantile_ns(&rec.calls, 0.5) / 1e3,
        p99_us: quantile_ns(&rec.calls, 0.99) / 1e3,
        samples: rec.calls.len(),
        class_p50_us,
        class_mean_us,
    }
}

/// A metric with its run-to-run spread.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name.
    pub name: String,
    /// Median over the repetitions.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `(Q3 − Q1) / median` over the repetitions.
    pub spread: f64,
}

/// Everything one untraced run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Operations attempted in the measured repetitions.
    pub attempted: u64,
    /// Wrong verdicts, errors, refusals.
    pub failed: u64,
    /// Guard violations (stationarity, hygiene, restart) and the first
    /// few failed operations; empty when the run is correct.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub end_to_end: Vec<Measured>,
    /// Further numbers of the same run: per-class latencies, the
    /// durable tail, set-up breakdown.
    pub extra: Vec<Measured>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Measured>,
    /// Repetitions measured.
    pub reps: usize,
    /// Calls sampled per repetition (latency sample count).
    pub samples_per_rep: usize,
    /// CRC-32 of the generated stream.
    pub stream_crc: u32,
    /// The CPU the run was pinned to (wire workloads).
    pub pinned_cpu: Option<usize>,
    /// Retained-ADI size after the preload and at the end.
    pub adi_records: (u64, u64),
    /// The program's exported counters at the end, summed per family.
    pub counters: std::collections::BTreeMap<String, f64>,
}

impl RunReport {
    /// Whether every verdict and every guard held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// The request source of a workload.
pub(crate) enum Source {
    Workflow(Box<WorkflowStream>),
    Deep(Box<DenyDeepStream>),
}

impl Source {
    pub(crate) fn chunk(&mut self, n: usize) -> Vec<Op> {
        match self {
            Source::Workflow(s) => s.chunk(n),
            Source::Deep(s) => s.chunk(n),
        }
    }

    pub(crate) fn crc(&self) -> u32 {
        match self {
            Source::Workflow(s) => s.crc(),
            Source::Deep(s) => s.crc(),
        }
    }

    /// Retained-ADI size the shadow model expects, when it tracks one.
    pub(crate) fn expected_records(&self) -> Option<u64> {
        match self {
            Source::Workflow(s) => Some(s.expected_records()),
            Source::Deep(_) => None,
        }
    }

    /// Records committed so far, preload included, when the model
    /// tracks them.
    pub(crate) fn committed_records(&self) -> Option<u64> {
        match self {
            Source::Workflow(s) => Some(s.committed_records()),
            Source::Deep(_) => None,
        }
    }
}

/// The streams of a workload, one per driver thread, not yet preloaded.
/// The same configuration gives the same streams, so every set-up of a
/// run starts from a fresh set.
pub(crate) fn sources(cfg: &RunConfig) -> Vec<Source> {
    let s = cfg.scale;
    match cfg.spec.kind {
        Kind::DenyDeepMem => {
            vec![Source::Deep(Box::new(DenyDeepStream::new(
                cfg.seed,
                s.users,
                DEEP_PERIODS,
                PUSH_EVERY,
            )))]
        }
        Kind::WorkflowMemPar2 => ["a", "b"]
            .iter()
            .enumerate()
            .map(|(i, lane)| {
                let seed = cfg.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Source::Workflow(Box::new(WorkflowStream::new(seed, lane, s.users, PUSH_EVERY)))
            })
            .collect(),
        kind => {
            // The wire protocol carries pre-validated roles only.
            let push = if kind.is_wire() { 0 } else { PUSH_EVERY };
            vec![Source::Workflow(Box::new(WorkflowStream::new(cfg.seed, "", s.users, push)))]
        }
    }
}

/// What the repetitions run against.
pub(crate) enum Rig {
    Mem(MemRig),
    Durable(Box<DecisionService<PersistentAdi>>),
}

impl Rig {
    pub(crate) fn adi_len(&self) -> u64 {
        match self {
            Rig::Mem(r) => r.svc.adi().len() as u64,
            Rig::Durable(svc) => svc.adi().len() as u64,
        }
    }

    pub(crate) fn metrics_text(&self) -> String {
        match self {
            Rig::Mem(MemRig { wire: Some((_, server)), .. }) => server.metrics_text(),
            Rig::Mem(r) => r.svc.metrics_text(),
            Rig::Durable(svc) => svc.metrics_text(),
        }
    }
}

pub(crate) fn data_dir(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join("data")
}

/// One set-up: build the workload's service and preload it from
/// `sources` (fresh ones).
pub(crate) fn build(
    cfg: &RunConfig,
    xml: &str,
    sources: &mut [Source],
    tapped: bool,
) -> (Rig, SetupTimes) {
    match cfg.spec.kind {
        Kind::WorkflowDurable => {
            let (svc, times) = build_durable(cfg, xml, sources, &data_dir(cfg));
            (Rig::Durable(Box::new(svc)), times)
        }
        kind => {
            let wire = match (kind.is_wire(), tapped) {
                (false, _) => Wire::None,
                (true, false) => Wire::Plain,
                (true, true) => Wire::Tapped,
            };
            let (rig, times) = build_mem(cfg, xml, sources, wire);
            (Rig::Mem(rig), times)
        }
    }
}

/// The embedder's duties, once per repetition and inside its timed
/// window: seal (and, with a store, persist) the audit segment.
fn rotate<A: RetainedAdi + 'static>(svc: &DecisionService<A>, rec: &mut Recorder) {
    if let Err(e) = svc.rotate_and_persist() {
        rec.fail(|| format!("rotate_and_persist: {e}"));
    }
}

/// One repetition: generate (untimed), then run the timed window.
pub(crate) fn repetition(
    cfg: &RunConfig,
    rig: &mut Rig,
    sources: &mut [Source],
) -> (Recorder, Duration) {
    let mut chunks: Vec<Vec<Op>> = sources.iter_mut().map(|s| s.chunk(cfg.scale.chunk)).collect();
    let mut rec = Recorder::default();
    let window = match (cfg.spec.kind, rig) {
        (Kind::WorkflowDurable, Rig::Durable(svc)) => {
            let t = Instant::now();
            run_in_process(svc, &chunks[0], &mut rec);
            rotate(svc, &mut rec);
            // No fsync inside the loop; the window closes when the
            // sync returns.
            if let Err(e) = svc.sync_adi() {
                rec.fail(|| format!("sync_adi: {e}"));
            }
            t.elapsed()
        }
        (Kind::WireSingle, Rig::Mem(MemRig { svc, wire: Some((client, _)), .. })) => {
            let t = Instant::now();
            run_wire_single(client, &chunks[0], &mut rec);
            rotate(svc, &mut rec);
            t.elapsed()
        }
        (Kind::WireBatch32, Rig::Mem(MemRig { svc, wire: Some((client, _)), .. })) => {
            let frames = frames_of(chunks.remove(0));
            let t = Instant::now();
            run_wire_batch(client, &frames, &mut rec);
            rotate(svc, &mut rec);
            t.elapsed()
        }
        (Kind::WorkflowMemPar2, Rig::Mem(MemRig { svc, .. })) => {
            let barrier = Barrier::new(chunks.len());
            let parts: Vec<(Recorder, Instant)> = std::thread::scope(|scope| {
                let handles: Vec<_> = chunks
                    .iter()
                    .map(|ops| {
                        let (svc, barrier) = (&**svc, &barrier);
                        scope.spawn(move || {
                            let mut rec = Recorder::default();
                            barrier.wait();
                            let start = Instant::now();
                            run_in_process(svc, ops, &mut rec);
                            (rec, start)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("driver thread panicked")).collect()
            });
            // The window runs from the first start until both threads
            // are done and the segment is sealed.
            let start = parts.iter().map(|p| p.1).min().expect("two driver threads");
            for (part, _) in parts {
                rec.calls.extend(part.calls);
                for (all, one) in rec.by_class.iter_mut().zip(part.by_class) {
                    all.extend(one);
                }
                rec.attempted += part.attempted;
                rec.failed += part.failed;
                rec.failures.extend(part.failures);
            }
            rotate(svc, &mut rec);
            start.elapsed()
        }
        (_, Rig::Mem(MemRig { svc, .. })) => {
            let t = Instant::now();
            run_in_process(svc, &chunks[0], &mut rec);
            rotate(svc, &mut rec);
            t.elapsed()
        }
        (kind, Rig::Durable(_)) => unreachable!("{kind:?} does not run on the durable rig"),
    };
    (rec, window)
}

pub(crate) fn measured(name: &str, unit: &'static str, values: &[f64]) -> Measured {
    Measured { name: name.to_owned(), value: median(values), unit, spread: spread(values) }
}

/// Hygiene counters that must stay zero on every workload.
const MUST_BE_ZERO: [&str; 3] = [
    "permis_reqbuf_overflow_total",
    "storage_journal_append_errors_total",
    "net_decode_errors_total",
];

/// The stationarity and hygiene guards of a finished run, traced or
/// not; fills in the report's retained-ADI sizes, counters and stream
/// CRC, and returns the program's exported metrics as read for them.
pub(crate) fn guards(
    rig: &Rig,
    sources: &[Source],
    preloaded: u64,
    report: &mut RunReport,
) -> PromSnapshot {
    let at_end = rig.adi_len();
    report.adi_records = (preloaded, at_end);
    if let Some(expected) = sources.iter().map(Source::expected_records).sum::<Option<u64>>() {
        if expected != at_end {
            report.problems.push(format!(
                "retained ADI holds {at_end} records, the shadow model expects {expected}"
            ));
        }
    }
    // The stream keeps the retained ADI stationary up to the Poisson
    // noise of the instance sizes: a standard deviation of √records.
    // Five of them are inside 2% at full scale; the smoke scale of the
    // tests needs the wider margin.
    let drift = (at_end as f64 - preloaded as f64).abs() / preloaded.max(1) as f64;
    if drift > f64::max(0.02, 5.0 / (preloaded.max(1) as f64).sqrt()) {
        report.problems.push(format!(
            "retained ADI drifted {:.1}% from the preload ({preloaded} -> {at_end})",
            drift * 100.0
        ));
    }
    let snapshot = PromSnapshot::parse(&rig.metrics_text());
    for family in MUST_BE_ZERO {
        if snapshot.get(family) != 0.0 {
            report.problems.push(format!("{family} = {}", snapshot.get(family)));
        }
    }
    report.counters = snapshot.families().clone();
    report.stream_crc = sources.iter().fold(0, |acc, s| acc.rotate_left(1) ^ s.crc());
    snapshot
}

/// What a run reads off the process and the data directory after a
/// fixed number of operations (the warm-up and the first repetitions),
/// so that the values do not depend on how many more repetitions the
/// program's speed fits into `--seconds`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FixedPoint {
    /// `VmHWM`.
    pub rss_peak_mb: f64,
    /// Bytes of the shard journals (durable workload; synced).
    pub journal_bytes: u64,
    /// Records committed so far, preload included.
    pub committed: u64,
}

impl FixedPoint {
    pub(crate) fn read(cfg: &RunConfig, sources: &[Source]) -> Self {
        FixedPoint {
            rss_peak_mb: proc_status_mb("VmHWM"),
            journal_bytes: journal_bytes(&data_dir(cfg)),
            committed: sources.iter().filter_map(Source::committed_records).sum(),
        }
    }

    /// The durable workload's numbers at the fixed point, as `extra`
    /// metrics.
    pub(crate) fn journal_extras(&self) -> [Measured; 2] {
        [
            Measured {
                name: "journal_bytes".to_owned(),
                value: self.journal_bytes as f64,
                unit: "B",
                spread: 0.0,
            },
            Measured {
                name: "journal_bytes_per_record".to_owned(),
                value: self.journal_bytes as f64 / self.committed.max(1) as f64,
                unit: "B",
                spread: 0.0,
            },
        ]
    }
}

/// Run one workload untraced and report its end-to-end metrics.
pub fn run(cfg: &RunConfig) -> RunReport {
    let mut report = RunReport::default();
    if cfg.spec.kind.is_wire() {
        report.pinned_cpu = crate::measure::pin_to_current_cpu();
    }
    let xml = fixture::bank_policy_xml();
    let _ = std::fs::remove_dir_all(data_dir(cfg));

    // Set-up, SETUP_REPEATS times, each from fresh streams and with the
    // previous service gone: one service at a time owns the data
    // directory, and the peak resident set is one service's. The last
    // build is the one measured on.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut parts = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let mut sources = sources(cfg);
        let (rig, times) = build(cfg, &xml, &mut sources, false);
        setups.push(times.total());
        parts.push(times);
        built = Some((rig, sources));
    }
    let (mut rig, mut sources) = built.expect("a run sets up at least once");
    let preloaded = rig.adi_len();

    // Warm-up: one repetition, checked but not reported.
    let (warm, _) = repetition(cfg, &mut rig, &mut sources);
    report.failed += warm.failed;
    report.problems.extend(warm.failures);

    let fixed_point_at = MIN_REPS.min(cfg.fixed_reps.unwrap_or(MIN_REPS));
    let mut fixed_point = FixedPoint::default();
    let started = Instant::now();
    let mut reps: Vec<RepStats> = Vec::new();
    loop {
        let done = match cfg.fixed_reps {
            Some(n) => reps.len() >= n,
            None => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= cfg.seconds,
        };
        if done {
            break;
        }
        let (mut rec, window) = repetition(cfg, &mut rig, &mut sources);
        report.attempted += rec.attempted;
        report.failed += rec.failed;
        report.problems.append(&mut rec.failures);
        reps.push(rep_stats(&mut rec, window));
        if reps.len() == fixed_point_at {
            fixed_point = FixedPoint::read(cfg, &sources);
        }
    }

    guards(&rig, &sources, preloaded, &mut report);
    report.reps = reps.len();
    report.samples_per_rep = reps.first().map_or(0, |r| r.samples);

    let column = |f: fn(&RepStats) -> f64| -> Vec<f64> { reps.iter().map(f).collect() };
    report.end_to_end = vec![
        measured("setup_s", "s", &setups),
        measured("decide_per_s", "1/s", &column(|r| r.decide_per_s)),
        measured("decide_p50_us", "us", &column(|r| r.p50_us)),
        measured("decide_p99_us", "us", &column(|r| r.p99_us)),
        Measured {
            name: "rss_peak_mb".to_owned(),
            value: fixed_point.rss_peak_mb,
            unit: "MB",
            spread: 0.0,
        },
    ];
    for class in Class::ALL {
        let values: Vec<f64> =
            reps.iter().map(|r| r.class_p50_us[class as usize]).filter(|v| *v > 0.0).collect();
        if !values.is_empty() {
            report.extra.push(measured(&format!("{}_p50_us", class.name()), "us", &values));
            let means: Vec<f64> = reps.iter().map(|r| r.class_mean_us[class as usize]).collect();
            report.extra.push(measured(&format!("{}_mean_us", class.name()), "us", &means));
        }
    }
    let part = |f: fn(&SetupTimes) -> f64| -> Vec<f64> { parts.iter().map(f).collect() };
    report.extra.push(measured("setup_parse_s", "s", &part(|t| t.parse_s)));
    report.extra.push(measured("setup_construct_s", "s", &part(|t| t.construct_s)));
    report.extra.push(measured("setup_preload_s", "s", &part(|t| t.preload_s)));
    report.extra.push(measured("setup_connect_s", "s", &part(|t| t.connect_s)));

    if let Rig::Durable(svc) = rig {
        report.extra.extend(fixed_point.journal_extras());
        restart_check(cfg, *svc, &xml, &mut sources, &mut report);
    }
    let _ = std::fs::remove_dir_all(data_dir(cfg));
    report
}

/// Bytes of every shard journal under `dir`.
pub fn journal_bytes(dir: &Path) -> u64 {
    (0..PERSISTENT_SHARDS)
        .filter_map(|i| std::fs::metadata(dir.join(format!("adi-shard-{i}.log"))).ok())
        .map(|m| m.len())
        .sum()
}

/// The durable tail: drop the service, reopen it from its journals,
/// and check that nothing retained was lost — the record count is
/// equal and a conflict the shadow model knows about still denies.
pub(crate) fn restart_check(
    cfg: &RunConfig,
    svc: DecisionService<PersistentAdi>,
    xml: &str,
    sources: &mut [Source],
    report: &mut RunReport,
) {
    let dir = data_dir(cfg);
    let before = svc.adi().len() as u64;
    drop(svc);
    let Source::Workflow(stream) = &mut sources[0] else {
        unreachable!("the durable workload streams workflow operations")
    };
    // The next generated conflict is a deny only because of records
    // committed before the restart.
    let conflict = std::iter::repeat_with(|| stream.next_op())
        .find(|op| op.class == Class::Deny)
        .expect("the stream keeps producing conflicts");
    let crate::stream::Call::Decide(req) = &conflict.call else {
        unreachable!("conflicts are decide calls")
    };

    let t = Instant::now();
    let policy = policy::parse_rbac_policy(xml).expect("the fixture policy parses");
    let reopened = open_durable(policy, &dir);
    let outcome = reopened.decide(req);
    let recover_s = t.elapsed().as_secs_f64();

    let after = reopened.adi().len() as u64;
    if after != before {
        report.problems.push(format!("restart lost records: {before} before, {after} after"));
    }
    if !crate::exec::outcome_ok(conflict.expect, &outcome) {
        report.problems.push(format!("known conflict no longer denies after restart: {outcome:?}"));
    }
    report.extra.push(Measured {
        name: "recover_s".to_owned(),
        value: recover_s,
        unit: "s",
        spread: 0.0,
    });
    report.extra.push(Measured {
        name: "replay_records_per_s".to_owned(),
        value: after as f64 / recover_s,
        unit: "1/s",
        spread: 0.0,
    });
}
