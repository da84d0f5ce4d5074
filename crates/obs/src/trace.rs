//! Structured JSONL spans and events with request-ID propagation.
//!
//! With the `obs` feature enabled and a sink installed via [`set_sink`],
//! every [`span`]/[`span_req`] guard writes one JSON line on drop carrying
//! its span ID, parent span ID (from a thread-local stack, so nesting is
//! captured automatically), request ID, start timestamp, and duration.
//! [`event`] writes point-in-time lines attributed to the innermost open
//! span. Without the feature every entry point is a no-op and [`Span`] is
//! zero-sized.
//!
//! Request IDs tie the two halves of a fetch together: `ModelClient` mints
//! one per logical request (via [`crate::next_request_id`]), sends it in
//! the wire header, and the server opens its handler span with the decoded
//! ID — so `grep '"req":17'` over a combined trace shows the client span,
//! the server span, and everything nested under either.
//!
//! Timestamps are nanoseconds since the first trace call in the process
//! (monotonic), not wall-clock — traces are for ordering and latency, not
//! for correlation across machines.

#[cfg(feature = "obs")]
mod imp {
    use std::cell::{Cell, RefCell};
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock, PoisonError};
    use std::time::Instant;

    /// Pluggable trace destination. Kept behind its own flag so the span
    /// fast path can skip the mutex entirely when no sink is installed.
    static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);
    static HAS_SINK: AtomicBool = AtomicBool::new(false);
    static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

    fn origin() -> Instant {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        *ORIGIN.get_or_init(Instant::now)
    }

    thread_local! {
        /// Open span IDs, innermost last; gives events and child spans
        /// their parent.
        static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
        /// Request ID in effect on this thread (0 = none).
        static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
    }

    /// Installs (or with `None`, removes) the process-wide trace sink.
    pub fn set_sink(sink: Option<Box<dyn Write + Send>>) {
        let mut slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
        HAS_SINK.store(sink.is_some(), Ordering::Release);
        *slot = sink;
    }

    /// Flushes the installed sink, if any.
    pub fn flush_sink() {
        let mut slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = slot.as_mut() {
            let _ = w.flush();
        }
    }

    fn active() -> bool {
        crate::enabled() && HAS_SINK.load(Ordering::Acquire)
    }

    fn write_line(line: &str) {
        let mut slot = SINK.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(w) = slot.as_mut() {
            // A dead sink (closed pipe, full disk) must not take the
            // instrumented program down; drop it and keep running.
            if w.write_all(line.as_bytes()).and_then(|()| w.write_all(b"\n")).is_err() {
                HAS_SINK.store(false, Ordering::Release);
                *slot = None;
            }
        }
    }

    fn push_json_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn line_head(
        kind: &str,
        name: &str,
        span_id: u64,
        parent: u64,
        req: u64,
        ts_ns: u64,
    ) -> String {
        let mut line = String::with_capacity(128);
        line.push_str("{\"kind\":");
        push_json_str(&mut line, kind);
        line.push_str(",\"name\":");
        push_json_str(&mut line, name);
        line.push_str(&format!(",\"span\":{span_id}"));
        if parent != 0 {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        if req != 0 {
            line.push_str(&format!(",\"req\":{req}"));
        }
        line.push_str(&format!(",\"ts_ns\":{ts_ns}"));
        line
    }

    /// RAII guard for one traced span; writes its JSONL record on drop.
    ///
    /// An inert instance (tracing off at creation time) carries `id == 0`
    /// and does nothing on drop.
    #[must_use = "a span records its timing when dropped"]
    pub struct Span {
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        prev_req: u64,
        start_ns: u64,
        start: Instant,
    }

    /// Opens a span inheriting the thread's current request ID (if any).
    pub fn span(name: &'static str) -> Span {
        span_req(name, 0)
    }

    /// Opens a span under request `req_id`; nested spans and events on
    /// this thread inherit the ID until the guard drops. `req_id == 0`
    /// means "inherit whatever is current".
    pub fn span_req(name: &'static str, req_id: u64) -> Span {
        if !active() {
            return Span {
                id: 0,
                name,
                parent: 0,
                req: 0,
                prev_req: 0,
                start_ns: 0,
                start: origin(),
            };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        let prev_req = CURRENT_REQ.with(|r| {
            let prev = r.get();
            if req_id != 0 {
                r.set(req_id);
            }
            prev
        });
        let req = if req_id != 0 { req_id } else { prev_req };
        let start = Instant::now();
        let start_ns = start.duration_since(origin()).as_nanos() as u64;
        Span { id, name, parent, req, prev_req, start_ns, start }
    }

    impl Span {
        /// This span's ID (0 when tracing was off at creation).
        pub fn id(&self) -> u64 {
            self.id
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            if self.id == 0 {
                return;
            }
            let dur_ns = self.start.elapsed().as_nanos() as u64;
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Well-nested by RAII; pop back to (and including) our ID
                // defensively in case an inner guard was leaked.
                while let Some(top) = s.pop() {
                    if top == self.id {
                        break;
                    }
                }
            });
            CURRENT_REQ.with(|r| r.set(self.prev_req));
            let mut line =
                line_head("span", self.name, self.id, self.parent, self.req, self.start_ns);
            line.push_str(&format!(",\"dur_ns\":{dur_ns}}}"));
            write_line(&line);
        }
    }

    /// Writes a point-in-time event attributed to the innermost open span
    /// and the current request ID. `fields` become a flat `"f"` object.
    pub fn event(name: &str, fields: &[(&str, &str)]) {
        if !active() {
            return;
        }
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        let req = CURRENT_REQ.with(Cell::get);
        let ts_ns = origin().elapsed().as_nanos() as u64;
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let mut line = line_head("event", name, id, parent, req, ts_ns);
        if !fields.is_empty() {
            line.push_str(",\"f\":{");
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                push_json_str(&mut line, k);
                line.push(':');
                push_json_str(&mut line, v);
            }
            line.push('}');
        }
        line.push('}');
        write_line(&line);
    }

    /// An in-memory `Write` sink that can be cloned before installation so
    /// tests (and `serve_load --trace -`) can read back what was traced.
    #[derive(Clone, Default)]
    pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

    impl SharedBuffer {
        /// A new empty buffer.
        pub fn new() -> Self {
            Self::default()
        }

        /// Everything written so far, as UTF-8 (lossy).
        pub fn contents(&self) -> String {
            let buf = self.0.lock().unwrap_or_else(PoisonError::into_inner);
            String::from_utf8_lossy(&buf).into_owned()
        }
    }

    impl Write for SharedBuffer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    use std::io::Write;

    /// Zero-sized stand-in for the span guard; dropping it does nothing.
    #[must_use = "a span records its timing when dropped"]
    pub struct Span(());

    impl Span {
        /// Always 0 (tracing compiled out).
        pub fn id(&self) -> u64 {
            0
        }
    }

    /// No-op (tracing compiled out).
    pub fn span(_name: &'static str) -> Span {
        Span(())
    }

    /// No-op (tracing compiled out).
    pub fn span_req(_name: &'static str, _req_id: u64) -> Span {
        Span(())
    }

    /// No-op (tracing compiled out).
    pub fn event(_name: &str, _fields: &[(&str, &str)]) {}

    /// No-op (tracing compiled out); the sink is dropped immediately.
    pub fn set_sink(_sink: Option<Box<dyn Write + Send>>) {}

    /// No-op (tracing compiled out).
    pub fn flush_sink() {}
}

pub use imp::*;

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use crate::exclusive;

    #[test]
    fn nested_spans_share_request_and_link_parents() {
        let _guard = exclusive();
        let buf = SharedBuffer::new();
        set_sink(Some(Box::new(buf.clone())));
        {
            let outer = span_req("outer", 42);
            assert!(outer.id() != 0);
            {
                let _inner = span("inner");
                event("checkpoint", &[("k", "v\"quoted")]);
            }
        }
        set_sink(None);
        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "event + inner + outer: {text}");
        // Order is write order: event first, then inner closes, then outer.
        assert!(lines[0].contains("\"kind\":\"event\""));
        assert!(lines[0].contains("\"req\":42"));
        assert!(lines[0].contains("\\\"quoted"));
        assert!(lines[1].contains("\"name\":\"inner\""));
        assert!(lines[1].contains("\"req\":42"), "inner inherits req: {}", lines[1]);
        assert!(lines[1].contains("\"parent\":"));
        assert!(lines[2].contains("\"name\":\"outer\""));
        assert!(lines[2].contains("\"dur_ns\":"));
    }

    #[test]
    fn no_sink_means_inert_spans() {
        let _guard = exclusive();
        set_sink(None);
        let s = span_req("quiet", 7);
        assert_eq!(s.id(), 0);
    }

    #[test]
    fn disabled_at_runtime_suppresses_tracing() {
        let _guard = exclusive();
        let buf = SharedBuffer::new();
        set_sink(Some(Box::new(buf.clone())));
        crate::set_enabled(false);
        {
            let _s = span_req("off", 9);
            event("off_event", &[]);
        }
        crate::set_enabled(true);
        set_sink(None);
        assert!(buf.contents().is_empty(), "runtime-off must trace nothing");
    }
}
