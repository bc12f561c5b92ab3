//! Hand-rolled observability primitives for the MSoD PDP.
//!
//! The workspace builds offline, so this crate re-implements the small
//! subset of `metrics`/`tracing` the decision plane needs, on plain
//! `std` atomics:
//!
//! * [`Counter`] / [`Gauge`] — lock-free monotonic counters and
//!   last-write-wins gauges over `AtomicU64`.
//! * [`Histogram`] — fixed power-of-two-bucket latency histograms
//!   (atomic bucket arrays, mergeable [`HistogramSnapshot`]s).
//! * [`Stopwatch`] — a monotonic clock whose checkpoints and laps feed
//!   the histograms.
//! * [`TraceRing`] — a bounded lock-free ring buffer of recent
//!   decision traces, so "why was this denied?" is answerable after
//!   the fact.
//! * [`FlightRecorder`] — a black-box ring with anomaly triggers that
//!   auto-dumps a self-contained snapshot file the first time each
//!   distinct trigger reason fires.
//! * [`PromWriter`] — a Prometheus-text-format (version 0.0.4)
//!   exporter for all of the above.
//!
//! # Compiling instrumentation out
//!
//! Everything in this crate is gated behind the `obs-off` cargo
//! feature: with `--features obs-off` the counters, histograms and
//! ring buffers become zero-sized no-ops and [`Stopwatch::start`]
//! never reads the clock, so instrumented call sites cost nothing.
//! The API is identical in both configurations; call sites never need
//! `#[cfg]`.

mod counter;
mod flight;
mod hist;
mod prom;
mod ring;
mod stopwatch;

pub use counter::{Counter, Gauge, Sampler};
pub use flight::{FlightRecorder, DUMP_BUDGET};
pub use hist::{Histogram, HistogramSnapshot, BUCKETS};
pub use prom::{validate_metrics_text, PromWriter};
pub use ring::TraceRing;
pub use stopwatch::Stopwatch;

/// `true` unless instrumentation was compiled out with `obs-off`.
/// Lets callers skip building trace payloads (string clones) that a
/// no-op [`TraceRing::push`] would immediately discard.
pub const fn enabled() -> bool {
    !cfg!(feature = "obs-off")
}
