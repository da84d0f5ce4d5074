//! Observability layer: log-bucketed latency histograms, structured JSONL
//! spans with request-ID propagation, and a runtime on/off switch.
//!
//! This is the workspace's one timing and recording core, and `obs` is
//! its one instrumentation feature. Like `waldo-fault`, it is gated:
//! without the `obs` cargo feature the recording entry points compile to
//! no-ops, [`Timed`] and [`Span`] are zero-sized, and instrumented hot
//! paths pay nothing. With `obs` on, recording can additionally be toggled
//! at runtime via [`set_enabled`] — which is how the `gate --obs` overhead
//! check runs an off/on A/B comparison inside a single process.
//!
//! Three facilities:
//!
//! - **Histograms** ([`hist::Histogram`]): named log-bucketed latency
//!   distributions fed by [`timed`] guards — the serve hot paths as well
//!   as the pipeline stages (`synth`, `fft_features`, `label`, `kmeans`,
//!   `svm_fit`, `cv`, …). [`histogram_snapshot`] reads them all for the
//!   serve `Stats` endpoint and bench reports; a stage's call count and
//!   total time are its histogram's `count()` and `sum()`.
//! - **Traces** ([`trace`]): JSONL spans/events to a pluggable sink, with
//!   parent IDs and a request ID carried from `ModelClient` through the
//!   wire header into the server's handler span.
//! - **Request IDs** ([`next_request_id`]): a process-wide counter that is
//!   *always* compiled in (it is just an atomic), because the serve wire
//!   protocol carries a request ID whether or not tracing is recording.
//! - **Time series** ([`series::MetricsRegistry`]): bounded ring-buffer
//!   series of counter deltas and gauge levels with a versioned wire form
//!   and an order-independent merge — what the serve metrics sampler
//!   exports over `OP_OBS_EXPORT` and the fleet aggregator stitches into
//!   one timeline.
//!
//! [`hist::Histogram`] and [`series::MetricsRegistry`] are also always
//! compiled: they are passive data structures the serve codecs need for
//! decoding snapshots even in default builds.

pub mod hist;
pub mod series;
pub mod trace;

pub use hist::Histogram;
pub use series::{MetricsRegistry, Point, Series, SeriesKind, SeriesWireError};
#[cfg(feature = "obs")]
pub use trace::SharedBuffer;
pub use trace::{event, flush_sink, set_sink, span, span_req, Span};

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Mints a process-unique request ID (monotonic from 1, never 0 — the
/// wire format uses 0 for "no request ID"). Available in all builds.
pub fn next_request_id() -> u64 {
    NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
}

/// Whether the `obs` feature is compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "obs")
}

#[cfg(feature = "obs")]
mod reg {
    use crate::hist::Histogram;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, PoisonError};

    /// Runtime switch; defaults to on when the feature is compiled in.
    static ENABLED: AtomicBool = AtomicBool::new(true);

    /// Named histograms. One global mutex is fine here: the instrumented
    /// paths are hundreds of microseconds each, so an uncontended lock per
    /// sample is noise, and a single table makes concurrent count totals
    /// exact by construction.
    static HISTS: Mutex<BTreeMap<&'static str, Histogram>> = Mutex::new(BTreeMap::new());

    fn table() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Histogram>> {
        // Recover a poisoned table: losing post-mortem latency data to an
        // unrelated panic would defeat the point of observability.
        HISTS.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Turns runtime recording on or off (histograms *and* traces).
    pub fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Release);
    }

    /// Whether recording is on right now.
    pub fn enabled() -> bool {
        ENABLED.load(Ordering::Acquire)
    }

    /// Records one duration sample into the named histogram.
    pub fn record_duration_ns(name: &'static str, ns: u64) {
        if !enabled() {
            return;
        }
        table().entry(name).or_default().record(ns);
    }

    /// All named histograms, sorted by name.
    pub fn histogram_snapshot() -> Vec<(&'static str, Histogram)> {
        table().iter().map(|(&name, hist)| (name, hist.clone())).collect()
    }

    /// Clears every histogram (brackets a measurement window).
    pub fn reset_histograms() {
        table().clear();
    }

    /// Poisons the table from a sacrificial thread so tests can show
    /// recording and snapshots survive a thread that crashed under it.
    #[cfg(test)]
    pub(crate) fn poison_table_for_tests() {
        let crashed = std::thread::spawn(|| {
            let _held = table();
            panic!("poisoning the histogram table");
        })
        .join();
        assert!(crashed.is_err() && HISTS.is_poisoned());
    }
}

#[cfg(not(feature = "obs"))]
mod reg {
    use crate::hist::Histogram;

    /// No-op (obs compiled out).
    pub fn set_enabled(_on: bool) {}

    /// Always false (obs compiled out).
    pub fn enabled() -> bool {
        false
    }

    /// No-op (obs compiled out).
    pub fn record_duration_ns(_name: &'static str, _ns: u64) {}

    /// Always empty (obs compiled out).
    pub fn histogram_snapshot() -> Vec<(&'static str, Histogram)> {
        Vec::new()
    }

    /// No-op (obs compiled out).
    pub fn reset_histograms() {}
}

pub use reg::{enabled, histogram_snapshot, record_duration_ns, reset_histograms, set_enabled};

#[cfg(feature = "obs")]
mod timed_imp {
    use std::time::Instant;

    /// RAII wall-clock timer; on drop records into the named histogram.
    #[must_use = "a timer records its duration when dropped"]
    pub struct Timed {
        name: &'static str,
        start: Instant,
    }

    /// Starts timing the named hot path.
    pub fn timed(name: &'static str) -> Timed {
        Timed { name, start: Instant::now() }
    }

    impl Drop for Timed {
        fn drop(&mut self) {
            crate::record_duration_ns(self.name, self.start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(not(feature = "obs"))]
mod timed_imp {
    /// Zero-sized stand-in for the RAII timer; dropping it does nothing.
    #[must_use = "a timer records its duration when dropped"]
    pub struct Timed(());

    /// No-op (obs compiled out).
    pub fn timed(_name: &'static str) -> Timed {
        Timed(())
    }
}

pub use timed_imp::{timed, Timed};

#[cfg(test)]
mod request_id_tests {
    use super::*;

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert!(a != 0 && b != 0);
        assert!(b > a);
    }
}

#[cfg(all(test, not(feature = "obs")))]
mod disabled_tests {
    use super::*;

    #[test]
    fn compiles_out_to_nothing() {
        assert!(!compiled());
        assert!(!enabled());
        assert_eq!(std::mem::size_of::<Timed>(), 0);
        assert_eq!(std::mem::size_of::<Span>(), 0);
        {
            let _t = timed("anything");
            let _s = span_req("anything", 1);
            event("anything", &[("k", "v")]);
            record_duration_ns("anything", 5);
        }
        assert!(histogram_snapshot().is_empty(), "disabled builds must record nothing");
    }
}

/// The histogram table, the trace sink and the runtime switch are
/// process-wide; tests touching any of them serialize on one lock.
#[cfg(all(test, feature = "obs"))]
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(all(test, feature = "obs"))]
mod enabled_tests {
    use super::*;

    #[test]
    fn timed_feeds_the_named_histogram() {
        let _guard = exclusive();
        reset_histograms();
        set_enabled(true);
        for _ in 0..5 {
            let _t = timed("unit_path");
            std::hint::black_box(0u64);
        }
        let snap = histogram_snapshot();
        let (_, hist) = snap.iter().find(|(n, _)| *n == "unit_path").expect("path recorded");
        assert_eq!(hist.count(), 5);
        assert!(hist.max() >= hist.min());
    }

    #[test]
    fn runtime_disable_stops_recording() {
        let _guard = exclusive();
        reset_histograms();
        set_enabled(false);
        {
            let _t = timed("muted_path");
        }
        set_enabled(true);
        let snap = histogram_snapshot();
        assert!(!snap.iter().any(|(n, _)| *n == "muted_path"), "disabled runtime must not record");
    }

    #[test]
    fn table_survives_a_panicking_recorder() {
        let _guard = exclusive();
        reset_histograms();
        set_enabled(true);
        let _ = std::panic::catch_unwind(|| {
            let _t = timed("doomed_path");
            panic!("boom while timed");
        });
        // The guard recorded during unwind; the table must still be usable,
        // even once a thread has poisoned its mutex outright.
        reg::poison_table_for_tests();
        record_duration_ns("after_panic", 7);
        let snap = histogram_snapshot();
        assert!(snap.iter().any(|(n, _)| *n == "doomed_path"));
        assert!(snap.iter().any(|(n, _)| *n == "after_panic"));
        reset_histograms();
        assert!(histogram_snapshot().is_empty());
    }

    #[test]
    fn worker_threads_share_one_histogram() {
        let _guard = exclusive();
        reset_histograms();
        set_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _t = timed("worker_path");
                });
            }
        });
        let snap = histogram_snapshot();
        let (_, hist) = snap.iter().find(|(n, _)| *n == "worker_path").expect("workers recorded");
        assert_eq!(hist.count(), 4);
    }

    #[test]
    fn reset_clears_the_table() {
        let _guard = exclusive();
        set_enabled(true);
        {
            let _t = timed("ephemeral_path");
        }
        assert!(!histogram_snapshot().is_empty());
        reset_histograms();
        assert!(histogram_snapshot().is_empty());
    }
}
