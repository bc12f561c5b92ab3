//! Anomaly flight recorder: a black-box ring plus trigger latch and
//! snapshot-dump writer.
//!
//! The recorder itself is domain-agnostic: callers push entries of
//! their own type into the embedded [`TraceRing`] as normal operation
//! proceeds, and fire [`FlightRecorder::trigger`] when an anomaly is
//! detected (a latency threshold crossing, a non-clean recovery, a
//! stalled lock, …). On the first trigger of each distinct reason the
//! recorder renders the retained entries — via a caller-supplied
//! closure, so the entry schema stays with the domain crate — and
//! writes a self-contained snapshot file into the configured dump
//! directory. Subsequent triggers of the same reason only count; the
//! latch (and a global dump budget) keeps a recurring anomaly on a hot
//! path from turning the black box into a disk-filling loop.
//!
//! Under `obs-off` the whole recorder is a no-op: pushes discard,
//! triggers return `None`, and no state beyond the zero-sized ring is
//! kept.

#[cfg(not(feature = "obs-off"))]
use std::collections::BTreeSet;
use std::path::PathBuf;
#[cfg(not(feature = "obs-off"))]
use std::sync::Mutex;

use crate::counter::Counter;
use crate::ring::TraceRing;

/// Maximum snapshot files one recorder will ever write; triggers past
/// the budget still count but no longer dump.
pub const DUMP_BUDGET: u32 = 8;

#[cfg(not(feature = "obs-off"))]
#[derive(Debug)]
struct DumpState {
    dir: Option<PathBuf>,
    fired: BTreeSet<String>,
    budget: u32,
    last_dump: Option<PathBuf>,
    last_reason: Option<String>,
}

/// A bounded black box of recent entries that dumps itself to a file
/// when an anomaly trigger fires. See the module docs for the latching
/// and budget rules.
#[derive(Debug)]
pub struct FlightRecorder<T> {
    ring: TraceRing<T>,
    triggers: Counter,
    dumps: Counter,
    #[cfg(not(feature = "obs-off"))]
    state: Mutex<DumpState>,
}

impl<T: Clone> FlightRecorder<T> {
    /// A recorder retaining at most `capacity` entries, with no dump
    /// directory configured (triggers count but nothing is written).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: TraceRing::new(capacity),
            triggers: Counter::new(),
            dumps: Counter::new(),
            #[cfg(not(feature = "obs-off"))]
            state: Mutex::new(DumpState {
                dir: None,
                fired: BTreeSet::new(),
                budget: DUMP_BUDGET,
                last_dump: None,
                last_reason: None,
            }),
        }
    }

    /// Record one entry into the black box.
    #[inline]
    pub fn record(&self, entry: T) {
        self.ring.push(entry);
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> Vec<T> {
        self.ring.snapshot()
    }

    /// Total entries ever recorded (monotonic modulo `2^64`); the next
    /// recorded entry gets this ticket, so callers can cross-link
    /// other telemetry (history-ring exemplars) to a flight entry.
    pub fn next_ticket(&self) -> u64 {
        self.ring.pushed()
    }

    /// Configure (or clear) the directory snapshot files are written
    /// into. Ignored under `obs-off`.
    pub fn set_dump_dir(&self, dir: Option<PathBuf>) {
        #[cfg(not(feature = "obs-off"))]
        {
            self.lock_state().dir = dir;
        }
        #[cfg(feature = "obs-off")]
        let _ = dir;
    }

    /// Fire an anomaly trigger. Always counted; on the *first* firing
    /// of each distinct `reason` (while the dump budget lasts and a
    /// dump directory is set) the retained entries are rendered with
    /// `render` and written to `flightrec-<n>-<reason>.json` in the
    /// dump directory. Returns the path written, if any.
    ///
    /// `render` receives the reason and the retained entries (oldest
    /// first) and must produce the full self-contained document.
    pub fn trigger(
        &self,
        reason: &str,
        render: impl FnOnce(&str, &[T]) -> String,
    ) -> Option<PathBuf> {
        self.triggers.inc();
        #[cfg(not(feature = "obs-off"))]
        {
            let mut st = self.lock_state();
            st.last_reason = Some(reason.to_owned());
            if st.budget == 0 || st.fired.contains(reason) {
                return None;
            }
            let dir = st.dir.clone()?;
            st.fired.insert(reason.to_owned());
            st.budget -= 1;
            // Render and write outside nothing: the state lock is held,
            // which also serializes concurrent dumps of distinct
            // reasons — acceptable, dumps are rare by construction.
            let entries = self.ring.snapshot();
            let doc = render(reason, &entries);
            let name = format!("flightrec-{}-{}.json", self.dumps.get(), sanitize(reason));
            let path = dir.join(name);
            if std::fs::create_dir_all(&dir).is_err() {
                return None;
            }
            if std::fs::write(&path, doc).is_err() {
                return None;
            }
            self.dumps.inc();
            st.last_dump = Some(path.clone());
            Some(path)
        }
        #[cfg(feature = "obs-off")]
        {
            let _ = (reason, render);
            None
        }
    }

    /// Re-arm every latched reason so the next trigger of each dumps
    /// again (budget permitting). For operator tooling and tests.
    pub fn rearm(&self) {
        #[cfg(not(feature = "obs-off"))]
        self.lock_state().fired.clear();
    }

    /// Total triggers ever fired (0 under `obs-off`).
    pub fn triggers_total(&self) -> u64 {
        self.triggers.get()
    }

    /// Snapshot files written so far (0 under `obs-off`).
    pub fn dumps_total(&self) -> u64 {
        self.dumps.get()
    }

    /// Path of the most recent snapshot file, if any was written.
    pub fn last_dump(&self) -> Option<PathBuf> {
        #[cfg(not(feature = "obs-off"))]
        return self.lock_state().last_dump.clone();
        #[cfg(feature = "obs-off")]
        None
    }

    /// Reason of the most recent trigger, dumped or not.
    pub fn last_trigger(&self) -> Option<String> {
        #[cfg(not(feature = "obs-off"))]
        return self.lock_state().last_reason.clone();
        #[cfg(feature = "obs-off")]
        None
    }

    #[cfg(not(feature = "obs-off"))]
    fn lock_state(&self) -> std::sync::MutexGuard<'_, DumpState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Keep snapshot file names portable: alphanumerics, `-` and `_` only.
#[cfg_attr(feature = "obs-off", allow(dead_code))]
fn sanitize(reason: &str) -> String {
    reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "obs-off"))]
    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("obs-flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn trigger_dumps_once_per_reason() {
        let rec: FlightRecorder<u32> = FlightRecorder::new(4);
        let dir = temp_dir("latch");
        rec.set_dump_dir(Some(dir.clone()));
        for i in 0..6 {
            rec.record(i);
        }
        let render = |reason: &str, entries: &[u32]| {
            format!("{{\"reason\":{reason:?},\"n\":{}}}", entries.len())
        };
        let path = rec.trigger("p999_latency", render).expect("first trigger dumps");
        assert!(path.exists());
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"reason\":\"p999_latency\",\"n\":4}");
        // Same reason latches; a new reason dumps its own file.
        assert_eq!(rec.trigger("p999_latency", render), None);
        let second = rec.trigger("epoch_stall", render).expect("fresh reason dumps");
        assert_eq!(rec.triggers_total(), 3);
        assert_eq!(rec.dumps_total(), 2);
        assert_eq!(rec.last_dump(), Some(second));
        assert_eq!(rec.last_trigger().as_deref(), Some("epoch_stall"));
        // Re-arming lets a reason dump again.
        rec.rearm();
        assert!(rec.trigger("p999_latency", render).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn no_dir_counts_but_never_writes() {
        let rec: FlightRecorder<u32> = FlightRecorder::new(2);
        rec.record(7);
        assert_eq!(rec.trigger("x", |_, _| String::new()), None);
        assert_eq!(rec.triggers_total(), 1);
        assert_eq!(rec.dumps_total(), 0);
        assert_eq!(rec.last_trigger().as_deref(), Some("x"));
    }

    #[test]
    #[cfg(not(feature = "obs-off"))]
    fn budget_bounds_total_dumps() {
        let rec: FlightRecorder<u32> = FlightRecorder::new(2);
        let dir = temp_dir("budget");
        rec.set_dump_dir(Some(dir.clone()));
        for i in 0..DUMP_BUDGET + 3 {
            rec.trigger(&format!("r{i}"), |_, _| "{}".to_owned());
        }
        assert_eq!(rec.dumps_total(), u64::from(DUMP_BUDGET));
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), DUMP_BUDGET as usize);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reasons_sanitize_into_file_names() {
        assert_eq!(sanitize("p99.9 latency/crossing"), "p99_9_latency_crossing");
    }

    #[test]
    #[cfg(feature = "obs-off")]
    fn recorder_is_a_no_op() {
        let rec: FlightRecorder<u32> = FlightRecorder::new(16);
        rec.record(1);
        rec.set_dump_dir(Some(PathBuf::from("/nowhere")));
        assert_eq!(rec.trigger("x", |_, _| String::new()), None);
        assert!(rec.entries().is_empty());
        assert_eq!(rec.triggers_total(), 0);
        assert_eq!(rec.dumps_total(), 0);
        assert_eq!(rec.last_dump(), None);
        assert_eq!(rec.last_trigger(), None);
    }
}
