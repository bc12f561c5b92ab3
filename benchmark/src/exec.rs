//! Executors: make the calls of a generated chunk against the public
//! API — in process, over one wire connection, or as wire batches —
//! timing every call and checking every verdict against the shadow
//! model.

use std::time::Instant;

use context::BoundContext;
use msod::RetainedAdi;
use net::{Backend, NetClient, NetError, WireVerdict};
use permis::{
    Credentials, DecisionOutcome, DecisionRequest, DecisionService, DenyReason, ManagementOp,
};

use crate::fixture::{role, ADMIN_DN};
use crate::stream::{Call, Class, Expect, Op};

/// Decisions per `decide_batch` frame in `wire_batch32`.
pub const BATCH: usize = 32;

/// Latencies and verdict checks of one repetition.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Nanoseconds of every call into the public API (one entry per
    /// frame on the batch workload).
    pub calls: Vec<u64>,
    /// The same, by operation class (empty on the batch workload,
    /// where a frame mixes classes).
    pub by_class: [Vec<u64>; Class::ALL.len()],
    /// Operations attempted.
    pub attempted: u64,
    /// Wrong verdicts, errors and refusals.
    pub failed: u64,
    /// The first few failures, for the error message.
    pub failures: Vec<String>,
    /// Calls are frames that mix classes: keep `by_class` empty.
    pub mixed_frames: bool,
}

impl Recorder {
    /// Count a failure that is not a wrong verdict (an embedder duty
    /// that returned an error).
    pub fn fail(&mut self, describe: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(describe());
        }
    }

    fn record(&mut self, class: Class, ns: u64, ok: bool, describe: impl FnOnce() -> String) {
        self.calls.push(ns);
        if !self.mixed_frames {
            self.by_class[class as usize].push(ns);
        }
        self.attempted += 1;
        if !ok {
            self.fail(describe);
        }
    }
}

/// Whether an in-process outcome is what the shadow model expects.
pub fn outcome_ok(expect: Expect, out: &DecisionOutcome) -> bool {
    match (expect, out) {
        (Expect::GrantRecord, DecisionOutcome::Grant { msod: Some(d), .. }) => {
            d.records_added == 1 && d.terminated.is_empty() && d.records_purged == 0
        }
        (Expect::Na, DecisionOutcome::Grant { msod: None, .. }) => true,
        (Expect::MsodDeny, DecisionOutcome::Deny { reason: DenyReason::Msod(_), .. }) => true,
        (Expect::RbacDeny, DecisionOutcome::Deny { reason: DenyReason::RbacDenied, .. }) => true,
        (Expect::LastStep { added, purged }, DecisionOutcome::Grant { msod: Some(d), .. }) => {
            d.records_added == added as usize
                && d.terminated.len() == 1
                && d.records_purged == purged as usize
        }
        _ => false,
    }
}

/// Whether a wire verdict is what the shadow model expects.
pub fn wire_ok(expect: Expect, v: &WireVerdict) -> bool {
    match (expect, v) {
        (Expect::GrantRecord, WireVerdict::Grant { added, terminated, purged, .. }) => {
            *added == 1 && terminated.is_empty() && *purged == 0
        }
        (Expect::Na, WireVerdict::NotApplicable) => true,
        (Expect::MsodDeny, WireVerdict::MsodDeny { .. }) => true,
        (Expect::RbacDeny, WireVerdict::FrontEnd(why)) => {
            *why == DenyReason::RbacDenied.to_string()
        }
        (
            Expect::LastStep { added: want_added, purged: want_purged },
            WireVerdict::Grant { added, terminated, purged, .. },
        ) => added == &want_added && terminated.len() == 1 && *purged == u64::from(want_purged),
        _ => false,
    }
}

/// The management purge as the fixture's administrator, in process.
pub fn manage_in_process(
    backend: &dyn Backend,
    bound: &BoundContext,
    timestamp: u64,
) -> Result<usize, DenyReason> {
    backend.manage(
        ADMIN_DN.to_owned(),
        Credentials::Validated(vec![role(permis::RETAINED_ADI_CONTROLLER)]),
        ManagementOp::PurgeContext(bound.clone()),
        timestamp,
    )
}

/// The same purge over the wire.
pub fn manage_over_wire(
    client: &mut NetClient,
    scope: &str,
    timestamp: u64,
) -> Result<u64, NetError> {
    client.purge_context(ADMIN_DN, &[role(permis::RETAINED_ADI_CONTROLLER)], scope, timestamp)
}

/// Whether a management purge removed what the shadow model expects.
pub fn managed_ok<E>(expect: Expect, removed: &Result<u64, E>) -> bool {
    matches!((removed, expect), (Ok(n), Expect::Managed { purged }) if *n == u64::from(purged))
}

/// Make every call of `ops` in process, one `decide` / `manage` each.
pub fn run_in_process<A: RetainedAdi + Send + 'static>(
    svc: &DecisionService<A>,
    ops: &[Op],
    rec: &mut Recorder,
) {
    for op in ops {
        match &op.call {
            Call::Decide(req) => {
                let t = Instant::now();
                let out = svc.decide(req);
                let ns = t.elapsed().as_nanos() as u64;
                let ok = outcome_ok(op.expect, &out);
                rec.record(op.class, ns, ok, || {
                    format!("{:?}: expected {:?}, got {out:?}", req, op.expect)
                });
            }
            Call::Manage { bound, timestamp, scope } => {
                let t = Instant::now();
                let out = manage_in_process(svc, bound, *timestamp).map(|n| n as u64);
                let ns = t.elapsed().as_nanos() as u64;
                rec.record(op.class, ns, managed_ok(op.expect, &out), || {
                    format!("manage {scope}: expected {:?}, got {out:?}", op.expect)
                });
            }
        }
    }
}

fn timed_manage_over_wire(
    client: &mut NetClient,
    scope: &str,
    timestamp: u64,
    expect: Expect,
    rec: &mut Recorder,
) {
    let t = Instant::now();
    let out = manage_over_wire(client, scope, timestamp);
    let ns = t.elapsed().as_nanos() as u64;
    rec.record(Class::Manage, ns, managed_ok(expect, &out), || {
        format!("wire manage {scope}: expected {expect:?}, got {out:?}")
    });
}

/// Make every call of `ops` over `client`, one frame per decision.
pub fn run_wire_single(client: &mut NetClient, ops: &[Op], rec: &mut Recorder) {
    for op in ops {
        match &op.call {
            Call::Decide(req) => {
                let t = Instant::now();
                let out = client.decide(req);
                let ns = t.elapsed().as_nanos() as u64;
                let ok = matches!(&out, Ok(v) if wire_ok(op.expect, v));
                rec.record(op.class, ns, ok, || {
                    format!("wire {:?}: expected {:?}, got {out:?}", req, op.expect)
                });
            }
            Call::Manage { scope, timestamp, .. } => {
                timed_manage_over_wire(client, scope, *timestamp, op.expect, rec);
            }
        }
    }
}

/// One wire frame of the batch workload.
#[derive(Debug)]
pub enum Frame {
    /// A `decide_batch` of up to [`BATCH`] requests with their
    /// expected verdicts.
    Batch(Vec<DecisionRequest>, Vec<Expect>),
    /// A management purge, a frame of its own.
    Manage {
        /// Scope in display form.
        scope: String,
        /// Request time.
        timestamp: u64,
        /// Expected purge count.
        expect: Expect,
    },
}

/// Group a chunk into wire frames (outside the timed window).
pub fn frames_of(ops: Vec<Op>) -> Vec<Frame> {
    let mut frames = Vec::with_capacity(ops.len() / BATCH + 2);
    let (mut reqs, mut expects) = (Vec::with_capacity(BATCH), Vec::with_capacity(BATCH));
    for op in ops {
        match op.call {
            Call::Decide(req) => {
                reqs.push(req);
                expects.push(op.expect);
                if reqs.len() == BATCH {
                    frames.push(Frame::Batch(
                        std::mem::replace(&mut reqs, Vec::with_capacity(BATCH)),
                        std::mem::replace(&mut expects, Vec::with_capacity(BATCH)),
                    ));
                }
            }
            Call::Manage { scope, timestamp, .. } => {
                if !reqs.is_empty() {
                    frames.push(Frame::Batch(
                        std::mem::take(&mut reqs),
                        std::mem::take(&mut expects),
                    ));
                }
                frames.push(Frame::Manage { scope, timestamp, expect: op.expect });
            }
        }
    }
    if !reqs.is_empty() {
        frames.push(Frame::Batch(reqs, expects));
    }
    frames
}

/// Send every frame over `client`; latency is per frame.
pub fn run_wire_batch(client: &mut NetClient, frames: &[Frame], rec: &mut Recorder) {
    rec.mixed_frames = true;
    for frame in frames {
        match frame {
            Frame::Batch(reqs, expects) => {
                let t = Instant::now();
                let out = client.decide_batch(reqs);
                let ns = t.elapsed().as_nanos() as u64;
                rec.calls.push(ns);
                rec.attempted += reqs.len() as u64;
                match out {
                    Ok(verdicts) => {
                        for ((v, expect), req) in verdicts.iter().zip(expects).zip(reqs) {
                            if !wire_ok(*expect, v) {
                                rec.fail(|| {
                                    format!("batch {req:?}: expected {expect:?}, got {v:?}")
                                });
                            }
                        }
                    }
                    Err(e) => {
                        rec.failed += reqs.len() as u64 - 1;
                        rec.fail(|| format!("decide_batch: {e}"));
                    }
                }
            }
            Frame::Manage { scope, timestamp, expect } => {
                timed_manage_over_wire(client, scope, *timestamp, *expect, rec);
            }
        }
    }
}
