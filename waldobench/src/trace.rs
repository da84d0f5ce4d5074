//! In-memory spans around the calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. [`Tracer::start`] opens a span whose
//! parent is the innermost open span; [`Tracer::end`] closes it. Spans stay
//! in memory until the phase ends, when the tracers of all threads are
//! folded into one [`Profile`] of per-name durations and self times. A
//! span's self time is its duration minus the durations of its children.
//! A disabled tracer records nothing, so the untraced run pays a branch.

use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Summed durations of the span's direct children.
    child_ns: u64,
    parent: Option<usize>,
}

/// One thread's span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn start(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            child_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let closed = self.open.pop();
        assert_eq!(closed, Some(id.0), "spans must close innermost first");
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        let duration = now - span.start_ns;
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += duration;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.start(name);
        let out = f();
        self.end(id);
        out
    }
}

/// Durations of every closed span with one name.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Span durations, nanoseconds.
    pub durations_ns: Vec<u64>,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// The spans of a phase, folded by name.
#[derive(Debug, Default)]
pub struct Profile {
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Profile {
    /// Folds one thread's closed spans in.
    pub fn absorb(&mut self, tracer: Tracer) {
        assert!(tracer.open.is_empty(), "a span was left open");
        for span in tracer.spans {
            let layer = self.layers.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            layer.durations_ns.push(duration);
            layer.self_ns += duration - span.child_ns.min(duration);
        }
    }

    /// Durations of `name` in microseconds (empty when never recorded).
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.layers
            .get(name)
            .map(|l| l.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect())
            .unwrap_or_default()
    }

    /// Mean self time per call of every recorded name, microseconds.
    pub fn self_us_per_call(&self) -> Vec<(&'static str, f64)> {
        self.layers
            .iter()
            .map(|(&name, l)| (name, l.self_ns as f64 / 1e3 / l.durations_ns.len().max(1) as f64))
            .collect()
    }
}
