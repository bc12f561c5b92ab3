//! The networked decision plane for the MSoD PDP.
//!
//! Everything in this crate stands on `std::net` — no async runtime,
//! no HTTP framework, no serialization crates — because the decision
//! path's latency budget is microseconds and the workspace builds
//! offline. Three layers:
//!
//! * [`proto`] — the versioned, length-prefixed binary wire protocol:
//!   7-byte frame headers, per-connection string dictionaries
//!   (journal-v2 interning discipline: every request string crosses
//!   the wire once and is symbolized once at admission), and
//!   hostile-input-safe decoding with checked arithmetic throughout.
//! * [`server`] — [`NetServer`], a thread-pool TCP accept loop over
//!   an object-safe [`Backend`] (implemented by every
//!   `DecisionService` flavor), with plain HTTP/1.1 `GET /metrics`
//!   and `GET /healthz` on the same port and an accept-queue stall
//!   trigger wired to the service flight recorder.
//! * [`client`] — [`NetClient`], the blocking loopback client whose
//!   dictionary mirror stages definitions into the same write as the
//!   request needing them.
//!
//! [`loadgen`] adds a fully deterministic load generator (seeded
//! splitmix64 + Zipf, closed and open loops) so every wire load run is
//! reproducible from its seed.
//!
//! The wire path is **conformance-tested, not trusted**: it runs as a
//! variant inside `modelcheck`'s differential harness against the
//! in-process engines, and its codec is property-tested against
//! truncation and garbage.

pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;

pub use client::{http_get, NetClient, NetError};
pub use loadgen::{
    loop_json, run_closed, run_local, run_open, LoadgenConfig, LoopReport, BUILTIN_POLICY,
};
pub use proto::{
    record_from_wire, record_of, scan_frame, verdict_of, FrameScan, Request, Response, WireAuth,
    WireDecide, WireManageOp, WireRecord, WireVerdict, MAGIC, MAX_FRAME, VERSION,
};
pub use server::{Backend, NetConfig, NetMetrics, NetServer};
