//! Two-phase load generator for the model-distribution server.
//!
//! **Validation phase** — starts a server on an ephemeral port, publishes
//! a model, and hammers it from `--clients` concurrent hardened
//! [`ModelClient`]s: each does one full fetch followed by `--fetches`
//! delta fetches while the main thread republishes mid-run (so deltas
//! exercise both the nothing-changed and some-localities-changed paths).
//! Each client also fires one malformed-frame probe and one
//! oversized-frame probe on throwaway connections and verifies the typed
//! rejection. This phase sources the request/response latency numbers
//! (`fetch_p50_ns`, `fetch_p99_ns`) and the delta-vs-full byte savings.
//!
//! **Throughput phase** — holds `--connections` keep-alive connections
//! open against the same server and keeps a small pipeline of unscoped
//! fetches in flight on every one (see `waldo_bench::loadgen`), measuring
//! server capacity for `--duration` seconds: the headline
//! `fetches_per_s`, connection-setup p50/p99, and — from the server's own
//! stats — the pre-encoded response cache hit rate and reactor count.
//!
//! **Ingest phase** — after the throughput phase the same client fleet
//! turns around and uploads location-tagged reading batches through the
//! server's ingestion plane (durable WAL append per ack), re-sends one
//! already-acked batch each to prove the duplicate path, then the main
//! thread runs one incremental refit and verifies a delta fetch observes
//! the bumped epoch — the paper's crowd-sourcing loop, closed in one
//! binary. Emits the upload rate, upload latency percentiles, and refit
//! wall time as a separate ingest report (`--ingest-out`) that
//! `gate --ingest` holds to the checked-in floors.
//!
//! With `--obs-overhead`, after these phases a single client measures
//! fetch p50 in alternating recording-off/recording-on blocks (same
//! process, same server, same connection), emitting the A/B fields that
//! `gate --obs` holds to the ≤5 % overhead ceiling.
//!
//! Usage: `serve_load [--quick] [--clients N] [--fetches M]
//! [--connections N] [--duration SECS] [--out PATH] [--ingest-out PATH]
//! [--ingest-dir DIR] [--obs-overhead] [--trace PATH]`

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use serde_json::json;
use waldo::wire::ReadingBatch;
use waldo::{ClassifierKind, ModelConstructor, WaldoConfig, WaldoModel};
use waldo_bench::loadgen::{self, LoadConfig};
use waldo_bench::report::{percentile, write_json};
use waldo_data::{ChannelDataset, Labeler, Measurement, Safety};
use waldo_geo::Point;
use waldo_iq::FeatureVector;
use waldo_rf::TvChannel;
use waldo_sensors::{Observation, ReadingSample, SensorKind};
use waldo_serve::protocol::{read_frame, write_frame, FrameRead, Status};
use waldo_serve::{
    serve_with_ingest, ClientObsSnapshot, IngestPlane, ModelCatalog, ModelClient, ServeConfig,
};
use waldo_store::RefitEngine;

const CHANNEL: u8 = 30;
/// Readings per uploaded batch in the ingest phase. Small enough that a
/// batch frame stays well under the upload size cap, large enough that
/// the refit sees a meaningful number of crowd-sourced rows.
const READINGS_PER_BATCH: usize = 24;

/// Synthetic east/west channel, the same shape the core tests train on.
/// `flip` relabels a slice of the map so retrained models differ in some —
/// but not all — localities.
fn dataset(n: usize, flip: bool) -> ChannelDataset {
    let mut measurements = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let x = (i as f64 / n as f64) * 30_000.0;
        let y = ((i * 7) % 20) as f64 * 1_000.0;
        let boundary = if flip && y > 10_000.0 { 12_000.0 } else { 15_000.0 };
        let not_safe = x > boundary;
        let rss = if not_safe { -70.0 } else { -95.0 } + ((i % 5) as f64 - 2.0);
        measurements.push(Measurement {
            location: Point::new(x, y),
            odometer_m: i as f64 * 100.0,
            observation: Observation {
                rss_dbm: rss,
                features: FeatureVector {
                    rss_db: rss,
                    cft_db: rss - 11.3,
                    aft_db: rss - 12.5,
                    quadrature_imbalance_db: 0.0,
                    iq_kurtosis: 0.0,
                    edge_bin_db: -110.0,
                },
                raw_pilot_db: rss - 11.3,
            },
            true_rss_dbm: rss,
        });
        labels.push(Safety::from_not_safe(not_safe));
    }
    ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels)
}

fn train(n: usize, flip: bool, localities: usize) -> WaldoModel {
    ModelConstructor::new(
        WaldoConfig::default().classifier(ClassifierKind::Svm).localities(localities),
    )
    .fit(&dataset(n, flip))
    .expect("synthetic data trains")
}

/// A location-tagged reading batch whose contents follow the synthetic
/// east/west truth (hot east of 15 km, quiet west of it), spread across
/// the map so refits touch several localities. Batch IDs are minted from
/// `(client, k)` so every retry of the same batch is idempotent.
fn upload_batch(client_idx: usize, k: usize) -> ReadingBatch {
    let readings = (0..READINGS_PER_BATCH)
        .map(|i| {
            let x = ((client_idx * 1_700 + k * 997 + i * 223) % 30_000) as f64;
            let y = ((client_idx * 900 + i * 151) % 20_000) as f64;
            let rss = if x > 15_000.0 { -70.0 } else { -95.0 };
            ReadingSample {
                location: Point::new(x, y),
                rss_dbm: rss,
                features: FeatureVector {
                    rss_db: rss,
                    cft_db: rss - 11.3,
                    aft_db: rss - 12.5,
                    quadrature_imbalance_db: 0.0,
                    iq_kurtosis: 0.0,
                    edge_bin_db: -110.0,
                },
            }
        })
        .collect();
    ReadingBatch {
        batch_id: (client_idx as u64) * 100_000 + k as u64 + 1,
        channel: CHANNEL,
        readings,
    }
}

/// Sends raw garbage (and an oversized length announcement) and expects
/// the server's typed rejections. Returns the number of *unexpected*
/// outcomes.
fn probe_malformed(addr: std::net::SocketAddr) -> usize {
    let mut unexpected = 0;

    // Garbage payload in a well-formed frame → MalformedFrame status.
    match TcpStream::connect(addr) {
        Ok(mut stream) => {
            if stream.set_read_timeout(Some(Duration::from_secs(5))).is_err()
                || stream.set_write_timeout(Some(Duration::from_secs(5))).is_err()
            {
                // A socket we cannot bound is a failed probe, not a silent
                // pass.
                return unexpected + 1;
            }
            if write_frame(&mut stream, b"this is not a waldo request").is_err() {
                unexpected += 1;
            } else {
                match read_frame(&mut stream, 1 << 20) {
                    Ok(FrameRead::Frame(payload)) => {
                        let ok = waldo_serve::protocol::decode_response(&payload)
                            .map(|(_req_id, status, _)| status == Status::MalformedFrame)
                            .unwrap_or(false);
                        if !ok {
                            unexpected += 1;
                        }
                    }
                    _ => unexpected += 1,
                }
            }
        }
        Err(_) => unexpected += 1,
    }

    // Oversized length prefix → RequestTooLarge, without the server
    // reading the (never-sent) body.
    match TcpStream::connect(addr) {
        Ok(mut stream) => {
            if stream.set_read_timeout(Some(Duration::from_secs(5))).is_err()
                || stream.set_write_timeout(Some(Duration::from_secs(5))).is_err()
            {
                return unexpected + 1;
            }
            let huge = (16u32 << 20).to_le_bytes();
            if stream.write_all(&huge).and_then(|()| stream.flush()).is_err() {
                unexpected += 1;
            } else {
                match read_frame(&mut stream, 1 << 20) {
                    Ok(FrameRead::Frame(payload)) => {
                        let ok = waldo_serve::protocol::decode_response(&payload)
                            .map(|(_req_id, status, _)| status == Status::RequestTooLarge)
                            .unwrap_or(false);
                        if !ok {
                            unexpected += 1;
                        }
                    }
                    _ => unexpected += 1,
                }
            }
        }
        Err(_) => unexpected += 1,
    }

    unexpected
}

struct ClientStats {
    /// (latency_ns, response_bytes, localities_sent, was_full_fetch)
    fetches: Vec<(u64, usize, usize, bool)>,
    /// Failure-policy counters at thread exit.
    obs: ClientObsSnapshot,
}

/// Whether a client error was an I/O timeout (on Linux, timed-out socket
/// reads surface as `WouldBlock`).
fn is_timeout(e: &waldo_serve::ClientError) -> bool {
    matches!(
        e,
        waldo_serve::ClientError::Io(io)
            if matches!(io.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
    )
}

fn run_client(
    addr: std::net::SocketAddr,
    fetches: usize,
    client_idx: usize,
    errors: &AtomicUsize,
    timeouts: &AtomicUsize,
) -> ClientStats {
    let mut client = ModelClient::new(addr, Duration::from_secs(10));
    let mut stats =
        ClientStats { fetches: Vec::with_capacity(fetches + 1), obs: ClientObsSnapshot::default() };
    if let Err(e) = client.ping() {
        if is_timeout(&e) {
            timeouts.fetch_add(1, Ordering::Relaxed);
        }
        errors.fetch_add(1, Ordering::Relaxed);
        stats.obs = client.obs_snapshot();
        return stats;
    }
    // Clients spread across the map; unscoped fetches so every client
    // downloads (and delta-tracks) the full locality set.
    let x_km = 5.0 + (client_idx as f64 * 7.0) % 20.0;
    let y_km = (client_idx as f64 * 3.0) % 19.0;
    for fetch_idx in 0..=fetches {
        let t = Instant::now();
        match client.fetch(CHANNEL, x_km, y_km, -1.0) {
            Ok((model, report)) => {
                let ns = t.elapsed().as_nanos() as u64;
                if model.locality_count() == 0 {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                stats.fetches.push((ns, report.response_bytes, report.sent, fetch_idx == 0));
            }
            Err(e) => {
                if is_timeout(&e) {
                    timeouts.fetch_add(1, Ordering::Relaxed);
                }
                errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    if probe_malformed(addr) != 0 {
        errors.fetch_add(1, Ordering::Relaxed);
    }
    stats.obs = client.obs_snapshot();
    stats
}

/// A/B overhead measurement: one client, alternating recording-off /
/// recording-on blocks of delta fetches against the already-warm server,
/// pooled per mode. Same process, same connection, so the only difference
/// between the pools is whether `waldo_obs` is recording.
fn measure_obs_overhead(
    addr: std::net::SocketAddr,
    fetches_per_block: usize,
    blocks: usize,
) -> serde_json::Value {
    let mut client = ModelClient::new(addr, Duration::from_secs(10));
    client.ping().expect("overhead probe connects");
    // Warm the cache (and the connection) so every measured fetch is a
    // nothing-changed delta — the cheapest, most overhead-sensitive path.
    client.fetch(CHANNEL, 10.0, 10.0, -1.0).expect("warmup fetch");
    let mut run_block = |on: bool, pool: &mut Vec<u64>| {
        waldo_obs::set_enabled(on);
        for _ in 0..fetches_per_block {
            let t = Instant::now();
            client.fetch(CHANNEL, 10.0, 10.0, -1.0).expect("overhead fetch");
            pool.push(t.elapsed().as_nanos() as u64);
        }
    };
    let mut off = Vec::with_capacity(fetches_per_block * blocks);
    let mut on = Vec::with_capacity(fetches_per_block * blocks);
    // Throwaway block first so both pools see an equally warm process.
    run_block(false, &mut Vec::new());
    for _ in 0..blocks {
        run_block(false, &mut off);
        run_block(true, &mut on);
    }
    waldo_obs::set_enabled(true);
    off.sort_unstable();
    on.sort_unstable();
    let p50_off = percentile(&off, 0.50);
    let p50_on = percentile(&on, 0.50);
    let overhead =
        if p50_off > 0 { (p50_on as f64 - p50_off as f64) / p50_off as f64 } else { 0.0 };
    eprintln!(
        "obs overhead: p50 off {:.1}us on {:.1}us ({:+.2}%)",
        p50_off as f64 / 1e3,
        p50_on as f64 / 1e3,
        overhead * 100.0
    );
    json!({
        "fetches_per_mode": off.len(),
        "fetch_p50_off_ns": p50_off,
        "fetch_p50_on_ns": p50_on,
        "fetch_p99_off_ns": percentile(&off, 0.99),
        "fetch_p99_on_ns": percentile(&on, 0.99),
        "overhead_fraction": overhead,
    })
}

/// Folds a histogram into the quantile summary the report carries.
fn endpoint_json(hist: &waldo_obs::Histogram) -> serde_json::Value {
    json!({
        "count": hist.count(),
        "p50_ns": hist.quantile(0.50),
        "p90_ns": hist.quantile(0.90),
        "p99_ns": hist.quantile(0.99),
        "max_ns": hist.max(),
        "mean_ns": hist.mean(),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let obs_overhead = args.iter().any(|a| a == "--obs-overhead");
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let clients: usize =
        flag("--clients").map_or(16, |v| v.parse().expect("--clients takes a number"));
    let fetches: usize = flag("--fetches")
        .map_or(if quick { 8 } else { 40 }, |v| v.parse().expect("--fetches takes a number"));
    let connections: usize = flag("--connections").map_or(if quick { 256 } else { 1000 }, |v| {
        v.parse().expect("--connections takes a number")
    });
    let duration_s: f64 = flag("--duration")
        .map_or(if quick { 1.0 } else { 2.0 }, |v| v.parse().expect("--duration takes seconds"));
    let out = flag("--out").unwrap_or("BENCH_serve.json").to_string();
    let ingest_out = flag("--ingest-out").unwrap_or("BENCH_ingest.json").to_string();
    let ingest_dir = flag("--ingest-dir").unwrap_or("target/serve_load_ingest").to_string();
    let trace_path = flag("--trace").map(str::to_string);
    let train_n = if quick { 400 } else { 1200 };
    let localities = 6;
    let upload_batches = fetches.max(4);

    if let Some(path) = &trace_path {
        if waldo_obs::compiled() {
            let file = std::fs::File::create(path).expect("create trace file");
            waldo_obs::set_sink(Some(Box::new(std::io::BufWriter::new(file))));
            eprintln!("tracing to {path}");
        } else {
            eprintln!("warning: --trace ignored (build with --features obs)");
        }
    }

    eprintln!("training models ({train_n} readings, {localities} localities)...");
    let constructor = ModelConstructor::new(
        WaldoConfig::default().classifier(ClassifierKind::Svm).localities(localities),
    );
    let base = dataset(train_n, false);
    let model_a = constructor.fit(&base).expect("synthetic data trains");
    let model_b = train(train_n, true, localities);
    let full_model_bytes = model_a.to_wire().len();

    let catalog = Arc::new(RwLock::new(ModelCatalog::new()));
    catalog.write().expect("catalog lock").publish(CHANNEL, &model_a);
    // A fresh WAL/segment directory per run: the ingest numbers must
    // measure this run's uploads, not a previous run's recovery.
    let _ = std::fs::remove_dir_all(&ingest_dir);
    let engine = RefitEngine::new(constructor, Labeler::new(), base, model_a.clone());
    let plane = IngestPlane::open(&ingest_dir, Arc::clone(&catalog), CHANNEL, engine)
        .expect("ingest plane opens");
    let default_config = ServeConfig::default();
    let mut server = serve_with_ingest(
        "127.0.0.1:0",
        Arc::clone(&catalog),
        ServeConfig {
            read_timeout: Duration::from_secs(10),
            // Room for the throughput fleet on top of the validation
            // clients and probe/stats connections.
            max_connections: default_config.max_connections.max(connections + clients + 64),
            ..default_config
        },
        Some(Arc::clone(&plane)),
    )
    .expect("ephemeral bind succeeds");
    let addr = server.addr();
    eprintln!("serving on {addr}; {clients} clients x {} fetches", fetches + 1);

    waldo_obs::reset_histograms();
    let errors = AtomicUsize::new(0);
    let timeouts = AtomicUsize::new(0);
    let errors_ref = &errors;
    let timeouts_ref = &timeouts;
    let t0 = Instant::now();
    let all_stats: Vec<ClientStats> = std::thread::scope(|scope| {
        let republisher = scope.spawn(|| {
            // Mid-run republishes: first a partial change (some localities
            // differ), then a byte-identical publish (pure epoch bump — a
            // delta fetch after it transfers zero payloads).
            std::thread::sleep(Duration::from_millis(if quick { 60 } else { 250 }));
            catalog.write().expect("catalog lock").publish(CHANNEL, &model_b);
            std::thread::sleep(Duration::from_millis(if quick { 60 } else { 250 }));
            catalog.write().expect("catalog lock").publish(CHANNEL, &model_b);
        });
        let handles: Vec<_> = (0..clients)
            .map(|i| scope.spawn(move || run_client(addr, fetches, i, errors_ref, timeouts_ref)))
            .collect();
        let stats = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        republisher.join().expect("republisher thread");
        stats
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // Throughput phase: a pipelined raw-socket fleet at `connections`
    // keep-alive connections, run against the now-stable epoch so the
    // steady state is the pre-encoded `Unchanged` cache tail.
    eprintln!("load phase: {connections} connections for {duration_s:.1}s...");
    let load_config = LoadConfig {
        connections,
        threads: 2,
        depth: 4,
        duration: Duration::from_secs_f64(duration_s),
        channel: CHANNEL,
    };
    let load = loadgen::run(addr, load_config);
    let established = load.connect_ns.len();
    let load_fetches_per_s = load.fetches as f64 / duration_s;
    let mut connect_ns = load.connect_ns.clone();
    connect_ns.sort_unstable();
    let mut load_latency_ns = load.latency_ns.clone();
    load_latency_ns.sort_unstable();
    eprintln!(
        "load phase: {} fetches in {duration_s:.1}s ({load_fetches_per_s:.0}/s) over \
         {established} connections ({} failed), {} errors, connect p99 {:.1}us",
        load.fetches,
        load.connect_failures,
        load.errors,
        percentile(&connect_ns, 0.99) as f64 / 1e3,
    );

    // Ingest phase: the fleet turns around and uploads reading batches
    // through the durable WAL, each client also re-sending its first
    // batch to prove the idempotent duplicate path; then one incremental
    // refit republishes into the catalog and a delta fetch must observe
    // the bumped epoch.
    eprintln!("ingest phase: {clients} uploaders x {upload_batches} batches...");
    let epoch_before =
        catalog.read().expect("catalog lock").channel(CHANNEL).map_or(0, |c| c.epoch);
    let upload_errors = AtomicUsize::new(0);
    let upload_errors_ref = &upload_errors;
    let t_up = Instant::now();
    let upload_stats: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut client = ModelClient::new(addr, Duration::from_secs(10));
                    let mut lat = Vec::with_capacity(upload_batches + 1);
                    let (mut acked, mut duplicates) = (0usize, 0usize);
                    for k in 0..upload_batches {
                        let batch = upload_batch(i, k);
                        let t = Instant::now();
                        match client.upload(&batch) {
                            Ok(report) => {
                                lat.push(t.elapsed().as_nanos() as u64);
                                if report.duplicate {
                                    duplicates += 1;
                                } else {
                                    acked += 1;
                                }
                            }
                            Err(_) => {
                                upload_errors_ref.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    // Idempotency probe: the first batch again, verbatim.
                    // The WAL must ack it as a duplicate, not re-ingest.
                    match client.upload(&upload_batch(i, 0)) {
                        Ok(report) if report.duplicate => duplicates += 1,
                        _ => {
                            upload_errors_ref.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    (lat, acked, duplicates)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("uploader thread")).collect()
    });
    let upload_wall_s = t_up.elapsed().as_secs_f64();
    let mut upload_ns: Vec<u64> = upload_stats.iter().flat_map(|s| s.0.iter().copied()).collect();
    upload_ns.sort_unstable();
    let uploads_acked: usize = upload_stats.iter().map(|s| s.1).sum();
    let duplicate_acks: usize = upload_stats.iter().map(|s| s.2).sum();
    let upload_errors = upload_errors.load(Ordering::Relaxed);
    let uploads_per_s = uploads_acked as f64 / upload_wall_s.max(1e-9);

    let t_refit = Instant::now();
    let refit = plane
        .run_refit_now()
        .expect("refit succeeds")
        .expect("fresh segments must change the model");
    let refit_ns = t_refit.elapsed().as_nanos() as u64;
    let epoch_after = catalog.read().expect("catalog lock").channel(CHANNEL).map_or(0, |c| c.epoch);
    let delta_observed_epoch = {
        let mut probe = ModelClient::new(addr, Duration::from_secs(10));
        let (_, report) = probe.fetch(CHANNEL, 10.0, 10.0, -1.0).expect("post-refit fetch");
        report.epoch
    };
    let ingest_snap = plane.snapshot();
    let duplicates_materialized =
        ingest_snap.stored_readings.saturating_sub((uploads_acked * READINGS_PER_BATCH) as u64);
    eprintln!(
        "ingest: {uploads_acked} uploads acked ({uploads_per_s:.0}/s), \
         {duplicate_acks} duplicate acks, {upload_errors} errors, \
         p50 {:.1}us; refit {:.1}ms retrained {} localities over {} rows, \
         epoch {epoch_before} -> {epoch_after} (delta fetch observed {delta_observed_epoch})",
        percentile(&upload_ns, 0.50) as f64 / 1e3,
        refit_ns as f64 / 1e6,
        refit.changed_localities.len(),
        refit.total_rows,
    );

    // Read the server's live stats over the wire (exercising the `Stats`
    // opcode end-to-end) before anything resets or adds samples.
    let server_stats = {
        let mut probe = ModelClient::new(addr, Duration::from_secs(10));
        probe.stats().expect("stats query succeeds")
    };
    let cache_lookups = server_stats.cache_hits + server_stats.cache_misses;
    let cache_hit_rate =
        if cache_lookups > 0 { server_stats.cache_hits as f64 / cache_lookups as f64 } else { 0.0 };

    let overhead = if obs_overhead {
        if !waldo_obs::compiled() {
            eprintln!("warning: --obs-overhead needs --features obs; skipping");
            None
        } else {
            Some(measure_obs_overhead(addr, fetches.max(8), 4))
        }
    } else {
        None
    };

    server.shutdown();

    let protocol_errors = errors.load(Ordering::Relaxed);
    let timeout_errors = timeouts.load(Ordering::Relaxed);
    let all: Vec<&(u64, usize, usize, bool)> =
        all_stats.iter().flat_map(|s| s.fetches.iter()).collect();
    let mut latencies: Vec<u64> = all.iter().map(|f| f.0).collect();
    latencies.sort_unstable();
    let full: Vec<&&(u64, usize, usize, bool)> = all.iter().filter(|f| f.3).collect();
    let delta: Vec<&&(u64, usize, usize, bool)> = all.iter().filter(|f| !f.3).collect();
    let mean_bytes = |xs: &[&&(u64, usize, usize, bool)]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().map(|f| f.1 as f64).sum::<f64>() / xs.len() as f64
        }
    };
    let full_bytes = mean_bytes(&full);
    let delta_bytes = mean_bytes(&delta);
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let validation_fetches_per_s = all.len() as f64 / wall_s;
    let delta_saved = if full_bytes > 0.0 { 1.0 - delta_bytes / full_bytes } else { 0.0 };

    let mut client_obs = ClientObsSnapshot::default();
    for s in &all_stats {
        client_obs.attempts_total += s.obs.attempts_total;
        client_obs.retries_total += s.obs.retries_total;
        client_obs.reconnects_total += s.obs.reconnects_total;
        client_obs.breaker_opens += s.obs.breaker_opens;
        client_obs.half_open_probes += s.obs.half_open_probes;
    }
    let mut endpoints = serde_json::Map::new();
    for ep in &server_stats.endpoints {
        endpoints.insert(ep.name.clone(), endpoint_json(&ep.hist));
    }
    let server_obs = json!({
        "accepted_total": server_stats.accepted_total,
        "busy_rejections": server_stats.busy_rejections,
        "requests_total": server_stats.requests_total,
        "errors_total": server_stats.errors_total,
        "cache_hits": server_stats.cache_hits,
        "cache_misses": server_stats.cache_misses,
        "reactors": server_stats.reactors,
        "uploads_total": server_stats.uploads_total,
        "upload_readings": server_stats.upload_readings,
        "upload_duplicates": server_stats.upload_duplicates,
        "refits_total": server_stats.refits_total,
        "endpoints": serde_json::Value::Object(endpoints),
    });
    let client_obs = json!({
        "attempts_total": client_obs.attempts_total,
        "retries_total": client_obs.retries_total,
        "reconnects_total": client_obs.reconnects_total,
        "breaker_opens": client_obs.breaker_opens,
        "half_open_probes": client_obs.half_open_probes,
    });
    let obs = json!({ "server": server_obs, "client": client_obs });

    let mut report = json!({
        "clients": clients,
        "fetches_total": all.len(),
        "full_model_bytes": full_model_bytes,
        "fetch_p50_ns": p50,
        "fetch_p99_ns": p99,
        "fetches_per_s": load_fetches_per_s,
        "validation_fetches_per_s": validation_fetches_per_s,
        "connections": established,
        "connections_requested": connections,
        "connect_failures": load.connect_failures,
        "connect_p50_ns": percentile(&connect_ns, 0.50),
        "connect_p99_ns": percentile(&connect_ns, 0.99),
        "load_duration_seconds": duration_s,
        "load_fetches_total": load.fetches,
        "load_fetches_late": load.late,
        "load_errors": load.errors,
        "load_fetch_p50_ns": percentile(&load_latency_ns, 0.50),
        "load_fetch_p99_ns": percentile(&load_latency_ns, 0.99),
        "cache_hits": server_stats.cache_hits,
        "cache_misses": server_stats.cache_misses,
        "cache_hit_rate": cache_hit_rate,
        "reactors": server_stats.reactors,
        "full_fetch_bytes_mean": full_bytes,
        "delta_fetch_bytes_mean": delta_bytes,
        "delta_bytes_saved_fraction": delta_saved,
        "protocol_errors": protocol_errors,
        "timeout_errors": timeout_errors,
        "wall_seconds": wall_s,
        "obs_enabled": waldo_obs::enabled(),
        "obs": obs,
    });
    if let Some(overhead) = overhead {
        if let serde::Value::Object(map) = &mut report {
            map.insert("obs_overhead", overhead);
        }
    }
    eprintln!(
        "validation: {} fetches in {wall_s:.2}s ({validation_fetches_per_s:.0}/s), \
         p50 {:.2}ms p99 {:.2}ms, full {full_bytes:.0}B delta {delta_bytes:.0}B ({:.1}% saved), \
         {protocol_errors} errors ({timeout_errors} timeouts)",
        all.len(),
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        delta_saved * 100.0
    );
    eprintln!(
        "throughput: {load_fetches_per_s:.0} fetches/s at {established} connections; \
         cache {:.1}% hit rate over {cache_lookups} lookups; {} reactors",
        cache_hit_rate * 100.0,
        server_stats.reactors,
    );
    write_json(&out, &report);

    let ingest_report = json!({
        "clients": clients,
        "readings_per_batch": READINGS_PER_BATCH,
        "uploads_acked": uploads_acked,
        "upload_duplicate_acks": duplicate_acks,
        "upload_errors": upload_errors,
        "uploads_per_s": uploads_per_s,
        "upload_p50_ns": percentile(&upload_ns, 0.50),
        "upload_p99_ns": percentile(&upload_ns, 0.99),
        "upload_wall_seconds": upload_wall_s,
        "refit_ns": refit_ns,
        "refit_changed_localities": refit.changed_localities.len(),
        "refit_uploaded_readings": refit.uploaded_readings,
        "refit_total_rows": refit.total_rows,
        "epoch_before": epoch_before,
        "epoch_after": epoch_after,
        "delta_observed_epoch": delta_observed_epoch,
        "stored_readings": ingest_snap.stored_readings,
        "duplicates_materialized": duplicates_materialized,
        "wal_batches": ingest_snap.wal_batches,
        "checkpoint_seq": ingest_snap.checkpoint_seq,
    });
    write_json(&ingest_out, &ingest_report);

    if trace_path.is_some() && waldo_obs::compiled() {
        waldo_obs::flush_sink();
        waldo_obs::set_sink(None);
    }

    assert_eq!(protocol_errors, 0, "load run must complete with zero protocol errors");
    assert_eq!(load.connect_failures, 0, "every load connection must establish");
    assert!(
        load.errors <= (load.fetches / 100).max(2),
        "load phase error rate is out of bounds: {} errors / {} fetches",
        load.errors,
        load.fetches,
    );
    assert_eq!(upload_errors, 0, "ingest phase must complete with zero upload errors");
    assert_eq!(
        uploads_acked,
        clients * upload_batches,
        "every minted batch must ack exactly once as fresh"
    );
    assert!(duplicate_acks >= clients, "every client's idempotency probe must ack as a duplicate");
    assert_eq!(duplicates_materialized, 0, "duplicate acks must not materialize readings");
    assert!(epoch_after > epoch_before, "the refit must republish and bump the epoch");
    assert_eq!(delta_observed_epoch, epoch_after, "delta fetch must observe the refit epoch");
}
