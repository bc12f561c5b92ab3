//! Lightweight timing: a monotonic stopwatch that can lap into a
//! [`Histogram`].

use crate::hist::Histogram;

#[cfg(not(feature = "obs-off"))]
use std::time::Instant;

/// A monotonic stopwatch. Under `obs-off`, `start` never touches the
/// clock and `elapsed_ns` is always 0, so instrumented sites compile
/// to nothing.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    #[cfg(not(feature = "obs-off"))]
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            #[cfg(not(feature = "obs-off"))]
            started: Instant::now(),
        }
    }

    /// Nanoseconds since `start`, saturating at `u64::MAX`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        #[cfg(not(feature = "obs-off"))]
        return u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        #[cfg(feature = "obs-off")]
        0
    }

    /// Record the elapsed time into `hist` without consuming the
    /// stopwatch; returns the recorded value.
    #[inline]
    pub fn lap(&self, hist: &Histogram) -> u64 {
        let ns = self.elapsed_ns();
        hist.record(ns);
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn stopwatch_measures_forward_time() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let h = Histogram::new();
        let ns = sw.lap(&h);
        assert!(ns >= 2_000_000, "slept 2ms but measured {ns}ns");
        assert_eq!(h.count(), 1);
        assert!(sw.elapsed_ns() >= ns, "stopwatch keeps running after lap");
    }

    #[test]
    #[cfg(feature = "obs-off")]
    fn stopwatch_compiles_to_nothing() {
        let h = Histogram::new();
        let sw = Stopwatch::start();
        assert_eq!(sw.elapsed_ns(), 0);
        assert_eq!(sw.lap(&h), 0);
        assert_eq!(h.count(), 0);
    }
}
