//! `fetch_serve`: read-only serving. An open-loop ladder of fixed fetch
//! rates runs over one pipelined keep-alive connection with one generator
//! thread, and every request is timed from the moment it was due. One
//! connection lands on one server reactor every run; two could share a
//! reactor in one run and not in the next, which would make the figures
//! bimodal. The bench republishes the model at a fixed interval, so some
//! fetches are deltas that miss the pre-encoded response cache. The work
//! is in the `serve` reactor, protocol and cache; `store` and `iq` idle.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use waldo::wire::{decode_prelude, fnv1a64, Reader};
use waldo::WaldoModel;
use waldo_serve::protocol::{
    decode_response, write_frame, Fill, FrameReader, LocalityEntry, Request, MAX_RESPONSE_BYTES,
    RESPONSE_HEAD_BYTES,
};
use waldo_serve::{serve, ModelCatalog, ServeConfig, ServerHandle, Status};

use crate::stats::{median, quantile, Metrics};
use crate::trace::{Profile, Tracer};
use crate::world::{Scenario, CHANNEL};

/// The p99 limit a ladder step must meet to count towards
/// `fetch_max_rate`.
pub const FETCH_P99_LIMIT_US: f64 = 5_000.0;
/// The ladder's nominal rate, where `fetch_us.*` are read.
pub const NOMINAL_RATE: f64 = 10_000.0;
/// Rates of the capacity ladder: 25 000/s rising by a quarter per rung.
/// The ladder stops after two failing rungs in a row.
pub const LADDER: [f64; 12] = [
    25_000.0, 31_250.0, 39_063.0, 48_828.0, 61_035.0, 76_294.0, 95_367.0, 119_209.0, 149_012.0,
    186_265.0, 232_831.0, 291_038.0,
];
/// Republish interval of the model.
pub const REPUBLISH_EVERY: Duration = Duration::from_millis(100);
/// How long a step may take to drain its in-flight requests.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Epoch → per-locality payload digests of every published model.
type Published = Arc<Mutex<BTreeMap<u64, Vec<u64>>>>;

/// The serving side of the phase, built in set-up.
pub struct FetchRig {
    server: ServerHandle,
    catalog: Arc<RwLock<ModelCatalog>>,
    /// The two models the republisher alternates between.
    models: [WaldoModel; 2],
    published: Published,
    conn: Option<Conn>,
    /// Which model the next republish carries, and when it is due. The
    /// schedule runs across ladder steps, so short steps still see
    /// republishes.
    next_model: usize,
    next_publish: Instant,
}

/// The keep-alive client connection and the model state it holds.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    have_epoch: u64,
    /// The locality payloads this connection holds, and their digests.
    payloads: Vec<Vec<u8>>,
    digests: Vec<u64>,
    /// The last fully checked response, after its request-specific head.
    checked: Vec<u8>,
}

impl FetchRig {
    /// Starts the server and publishes the base model. `alternate`
    /// differs from the base model in some localities.
    pub fn start(scenario: &Scenario, alternate: WaldoModel) -> Self {
        let catalog = Arc::new(RwLock::new(ModelCatalog::new()));
        let server = serve("127.0.0.1:0", Arc::clone(&catalog), ServeConfig::baseline())
            .expect("bind the fetch server on loopback");
        let rig = FetchRig {
            server,
            catalog,
            models: [scenario.model.clone(), alternate],
            published: Arc::new(Mutex::new(BTreeMap::new())),
            conn: None,
            next_model: 1,
            next_publish: Instant::now(),
        };
        rig_publish(&rig.catalog, &rig.models, &rig.published, 0, &mut Tracer::new(false));
        rig
    }

    /// Opens a fresh connection (the server drops idle ones) and runs a
    /// short step at the nominal rate, so it holds the current model and
    /// the response cache is warm before timing starts.
    pub fn warm_up(&mut self, m: &mut Metrics) {
        self.conn = Some(Conn::open(self.server.addr()));
        self.next_publish = Instant::now() + REPUBLISH_EVERY;
        step(self, NOMINAL_RATE, Duration::from_millis(250), &mut Tracer::new(false), m);
    }

    pub fn reactors(&self) -> u64 {
        self.server.stats_snapshot().reactors
    }
}

impl Conn {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the fetch server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_write_timeout(Some(Duration::from_secs(2))).expect("set write timeout");
        // Reads only follow a readiness wait, so they never block.
        stream.set_read_timeout(Some(Duration::from_secs(2))).expect("set read timeout");
        Conn {
            stream,
            reader: FrameReader::new(),
            have_epoch: 0,
            payloads: Vec::new(),
            digests: Vec::new(),
            checked: Vec::new(),
        }
    }

    /// Checks a fetch response and applies it to the connection's model
    /// state. A response byte-identical to the last checked one (the
    /// steady state: the server's shared pre-encoded tail) is that same
    /// answer again; any other is decoded, its payload digests checked,
    /// the assembled model compared with the published digests of its
    /// epoch, and, when it ships payloads, decoded into a model.
    fn apply(&mut self, payload: &[u8], published: &Published) -> Result<(), String> {
        if payload.len() > RESPONSE_HEAD_BYTES && payload[RESPONSE_HEAD_BYTES..] == self.checked[..]
        {
            return Ok(());
        }
        let (_, status, body) = decode_response(payload).map_err(|e| format!("decode: {e}"))?;
        if status != Status::Ok {
            return Err(format!("status {status:?}"));
        }
        let body = body.ok_or("fetch response without a body")?;
        let expected = published
            .lock()
            .expect("digest table lock")
            .get(&body.epoch)
            .cloned()
            .ok_or_else(|| format!("epoch {} was never published", body.epoch))?;
        if body.entries.len() != expected.len() {
            return Err("locality count differs from the published model".to_owned());
        }
        self.digests.resize(expected.len(), 0);
        self.payloads.resize(expected.len(), Vec::new());
        let mut shipped = false;
        for (i, entry) in body.entries.iter().enumerate() {
            match entry {
                LocalityEntry::Sent { digest, payload } => {
                    if fnv1a64(payload) != *digest {
                        return Err("payload does not match its digest".to_owned());
                    }
                    self.digests[i] = *digest;
                    self.payloads[i].clone_from(payload);
                    shipped = true;
                }
                LocalityEntry::Unchanged => {}
                LocalityEntry::OutOfScope => return Err("unscoped fetch went out of scope".into()),
            }
        }
        if self.digests != expected {
            return Err(format!("assembled model differs from epoch {}", body.epoch));
        }
        if shipped {
            let mut r = Reader::new(&body.prelude);
            let (features, centroids) =
                decode_prelude(&mut r).map_err(|e| format!("prelude: {e}"))?;
            WaldoModel::from_locality_parts(features, centroids, &self.payloads)
                .map_err(|e| format!("model decode: {e}"))?;
        }
        self.have_epoch = body.epoch;
        self.checked = payload[RESPONSE_HEAD_BYTES..].to_vec();
        Ok(())
    }
}

/// What one ladder step saw.
#[derive(Debug, Default)]
struct Step {
    rate: f64,
    /// Latency of every response from its due time, in due order.
    latency_us: Vec<f64>,
    late_ms: Vec<f64>,
    sent: u64,
    received: u64,
    /// Requests still in flight when sending stopped.
    backlog: u64,
    bytes: u64,
    cpu_ns: u64,
    errors: Vec<String>,
}

impl Step {
    fn p99_us(&self) -> f64 {
        crate::stats::sliced_quantile(&self.latency_us, 0.99, 1000).unwrap_or(f64::INFINITY)
    }

    /// Meets the limit with no backlog beyond what the limit allows.
    fn passes(&self) -> bool {
        self.p99_us() <= FETCH_P99_LIMIT_US
            && self.backlog as f64 <= self.rate * FETCH_P99_LIMIT_US / 1e6 + 2.0
    }
}

/// Drives the connection open-loop: request `k` is due at
/// `t0 + k / rate`, sent as soon as the thread sees it due, and timed
/// from its due time to its response.
fn drive(conn: &mut Conn, rate: f64, t0: Instant, window: Duration, published: &Published) -> Step {
    let mut out = Step { rate, ..Step::default() };
    let interval = Duration::from_secs_f64(1.0 / rate);
    let end = t0 + window;
    let mut due: VecDeque<Instant> = VecDeque::new();
    let mut next = t0;
    let mut backlog_taken = false;
    loop {
        let now = Instant::now();
        while next <= now && next < end {
            let req = Request::Fetch {
                channel: CHANNEL,
                x_km: 10.0,
                y_km: 10.0,
                radius_km: -1.0,
                have_epoch: conn.have_epoch,
            };
            if let Err(e) = write_frame(&mut conn.stream, &req.encode(out.sent + 1)) {
                out.errors.push(format!("fetch_serve: send failed: {e}"));
                return out;
            }
            out.late_ms.push((now - next).as_secs_f64() * 1e3);
            due.push_back(next);
            out.sent += 1;
            next += interval;
        }
        if next >= end && !backlog_taken {
            out.backlog = due.len() as u64;
            backlog_taken = true;
        }
        if next >= end && due.is_empty() {
            return out;
        }
        if now > end + DRAIN_GRACE {
            out.errors.push(format!("fetch_serve: {} responses never arrived", due.len()));
            return out;
        }
        let wait = if next < end { next - now } else { Duration::from_millis(1) };
        if !wait_readable(&conn.stream, wait) {
            continue;
        }
        match conn.reader.fill(&mut conn.stream) {
            Ok(Fill::Bytes(_)) => {}
            Ok(Fill::WouldBlock) => continue,
            Ok(Fill::Eof) | Err(_) => {
                out.errors.push("fetch_serve: connection lost".to_owned());
                return out;
            }
        }
        let arrived = Instant::now();
        loop {
            let payload = match conn.reader.pop_frame(MAX_RESPONSE_BYTES) {
                Ok(Some(p)) => p,
                Ok(None) => break,
                Err(len) => {
                    out.errors.push(format!("fetch_serve: oversized response ({len} bytes)"));
                    return out;
                }
            };
            let Some(due_at) = due.pop_front() else {
                out.errors.push("fetch_serve: unsolicited response".to_owned());
                return out;
            };
            out.latency_us.push((arrived - due_at).as_secs_f64() * 1e6);
            out.received += 1;
            out.bytes += payload.len() as u64 + 4;
            if let Err(e) = conn.apply(&payload, published) {
                out.errors.push(format!("fetch_serve: {e}"));
            }
        }
    }
}

/// Runs one step at `rate` for `window` on a generator thread while this
/// thread republishes.
fn step(rig: &mut FetchRig, rate: f64, window: Duration, tr: &mut Tracer, m: &mut Metrics) -> Step {
    let t0 = Instant::now() + Duration::from_millis(2);
    let cpu0 = crate::stats::process_cpu_ns();
    let FetchRig { catalog, models, published, conn, next_model, next_publish, .. } = rig;
    let conn = conn.as_mut().expect("warm_up opened the connection");
    let mut out = std::thread::scope(|s| {
        let generator = s.spawn(|| drive(conn, rate, t0, window, published));
        while *next_publish < t0 + window {
            std::thread::sleep(next_publish.saturating_duration_since(Instant::now()));
            rig_publish(catalog, models, published, *next_model, tr);
            *next_model ^= 1;
            *next_publish = Instant::now() + REPUBLISH_EVERY;
        }
        generator.join().expect("generator thread")
    });
    let cpu1 = crate::stats::process_cpu_ns();
    out.cpu_ns = cpu1.zip(cpu0).map_or(0, |(b, a)| b - a);
    m.attempt(out.received + out.errors.len() as u64);
    for e in out.errors.drain(..) {
        m.fail(e);
    }
    out
}

/// Publishes model `which`, recording its digests first so a fetch can
/// never see an epoch the checker does not know. Traced, it also times the
/// encode of the delta the connections ask for next, on a copy of the
/// channel so the live response cache stays cold.
fn rig_publish(
    catalog: &Arc<RwLock<ModelCatalog>>,
    models: &[WaldoModel; 2],
    published: &Published,
    which: usize,
    tr: &mut Tracer,
) {
    let model = &models[which];
    let digests: Vec<u64> = model.locality_payloads().iter().map(|p| fnv1a64(p)).collect();
    let mut guard = catalog.write().expect("catalog lock");
    let next = guard.channel(CHANNEL).map_or(0, |c| c.epoch) + 1;
    published.lock().expect("digest table lock").insert(next, digests);
    let epoch = tr.span("serve.publish", || guard.publish(CHANNEL, model));
    assert_eq!(epoch, next, "only the bench publishes");
    if tr.enabled() {
        let channel = guard.channel(CHANNEL).expect("just published").clone();
        drop(guard);
        tr.span("serve.encode", || channel.unscoped_response_tail(next - 1));
    }
}

/// Rounds the ladder runs in. Each round is a block at the nominal rate
/// followed by the next rungs, so the nominal samples are spread over the
/// whole phase.
const ROUNDS: usize = 6;

/// Runs the ladder. Returns the nominal rate's blocks merged into one
/// step, followed by the rungs that ran; the rungs stop after two
/// failures in a row.
fn ladder(rig: &mut FetchRig, budget: Duration, tr: &mut Tracer, m: &mut Metrics) -> Vec<Step> {
    let nominal_block = budget.mul_f64(0.4 / ROUNDS as f64);
    let rung = budget.mul_f64(0.6 / LADDER.len() as f64);
    let mut nominal = Step { rate: NOMINAL_RATE, ..Step::default() };
    let mut rungs = Vec::new();
    let mut failed_in_a_row = 0;
    for round in LADDER.chunks(LADDER.len().div_ceil(ROUNDS)) {
        let block = step(rig, NOMINAL_RATE, nominal_block, tr, m);
        nominal.latency_us.extend(block.latency_us);
        nominal.late_ms.extend(block.late_ms);
        nominal.received += block.received;
        nominal.backlog = nominal.backlog.max(block.backlog);
        nominal.bytes += block.bytes;
        nominal.cpu_ns += block.cpu_ns;
        for &rate in round {
            if failed_in_a_row == 2 {
                break;
            }
            let s = step(rig, rate, rung, tr, m);
            failed_in_a_row = if s.passes() { 0 } else { failed_in_a_row + 1 };
            rungs.push(s);
        }
    }
    let mut steps = vec![nominal];
    steps.extend(rungs);
    steps
}

/// The highest rate that meets the limit: the highest passing rung,
/// interpolated towards the rung above it by where the p99 crosses the
/// limit on log scales, so the figure moves smoothly instead of jumping
/// between rungs. A passing top rung is reported as is.
fn max_rate(steps: &[Step]) -> f64 {
    let mut sorted: Vec<&Step> = steps.iter().collect();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    let Some(best) = sorted.iter().rposition(|s| s.passes()) else {
        return 0.0;
    };
    let lo = sorted[best];
    let Some(hi) = sorted.get(best + 1) else {
        return lo.rate;
    };
    let (p_lo, p_hi) = (lo.p99_us().max(1.0).ln(), hi.p99_us().max(FETCH_P99_LIMIT_US).ln());
    let t = if p_hi > p_lo {
        ((FETCH_P99_LIMIT_US.ln() - p_lo) / (p_hi - p_lo)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (lo.rate.ln() + t * (hi.rate.ln() - lo.rate.ln())).exp()
}

/// Runs the phase and fills its metrics. With `traced`, half the budget
/// runs the ladder untraced and half traced.
pub fn measure(
    rig: &mut FetchRig,
    budget: Duration,
    traced: bool,
    min_samples: usize,
) -> (Metrics, Profile, serde_json::Value) {
    let mut m = Metrics::default();
    let mut profile = Profile::default();
    rig.warm_up(&mut m);
    let stats0 = rig.server.stats_snapshot();
    let mut plain_tr = Tracer::new(false);
    let plain_budget = if traced { budget / 2 } else { budget };
    let steps = ladder(rig, plain_budget, &mut plain_tr, &mut m);
    let stats1 = rig.server.stats_snapshot();

    let nominal = &steps[0];
    m.set_quantile("fetch_us.p50", &nominal.latency_us, 0.5, min_samples, "us");
    m.set_quantile("fetch_us.p99", &nominal.latency_us, 0.99, min_samples, "us");
    m.set("fetch_max_rate", max_rate(&steps), "1/s");
    let info: Vec<serde_json::Value> = steps
        .iter()
        .map(|s| {
            serde_json::json!({
                "rate_per_s": s.rate,
                "fetches": s.received,
                "p50_us": median(&s.latency_us),
                "p99_us": s.p99_us(),
                "late_ms.p99": quantile(&s.late_ms, 0.99),
                "backlog": s.backlog,
                "passes": s.passes(),
            })
        })
        .collect();
    let info = serde_json::json!(info);
    if !traced {
        return (m, profile, info);
    }

    let mut tr = Tracer::new(true);
    let traced_steps = ladder(rig, budget / 2, &mut tr, &mut m);
    profile.absorb(tr);
    let received: u64 = steps.iter().map(|s| s.received).sum();
    let hits = stats1.cache_hits - stats0.cache_hits;
    let misses = stats1.cache_misses - stats0.cache_misses;
    m.set("serve.cache_hit_rate.fetch_serve", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    m.set(
        "serve.cpu_us_per_fetch",
        steps.iter().map(|s| s.cpu_ns).sum::<u64>() as f64 / 1e3 / received.max(1) as f64,
        "us",
    );
    m.set(
        "serve.bytes_per_fetch",
        steps.iter().map(|s| s.bytes).sum::<u64>() as f64 / received.max(1) as f64,
        "bytes",
    );
    m.set(
        "serve.publish_us.p50",
        median(&profile.durations_us("serve.publish")).unwrap_or(0.0),
        "us",
    );
    m.set(
        "serve.encode_us.p50",
        median(&profile.durations_us("serve.encode")).unwrap_or(0.0),
        "us",
    );
    let late: Vec<f64> = steps.iter().flat_map(|s| s.late_ms.iter().copied()).collect();
    m.set("bench.gen_late_ms.p99.fetch_serve", quantile(&late, 0.99).unwrap_or(0.0), "ms");
    let traced_p50 = median(&traced_steps[0].latency_us).unwrap_or(0.0);
    let plain_p50 = median(&nominal.latency_us).unwrap_or(1.0);
    m.set("trace.overhead_frac.fetch_serve", traced_p50 / plain_p50 - 1.0, "ratio");
    (m, profile, info)
}

/// Blocks until `stream` has bytes to read or `timeout` passes, with the
/// kernel's high-resolution timers (a socket read timeout rounds up to a
/// scheduler tick, which would add milliseconds to every measured fetch).
/// Returns whether the stream became readable.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;

    let mut fd = PollFd { fd: stream.as_raw_fd(), events: POLLIN, revents: 0 };
    let ts =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd` and
    // `struct timespec` values for the duration of the call; `nfds` is 1,
    // matching the single `pollfd`; a null signal mask leaves the mask as
    // it is. ppoll writes only `fd.revents`.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    ready > 0
}
