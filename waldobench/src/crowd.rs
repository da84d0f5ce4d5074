//! `crowd_loop`: writes beside reads. One connection uploads reading
//! batches open-loop to a leader running `IngestPlane`; a refit thread
//! runs the plane's checkpoint + refit pass whenever uploads wait; the
//! bench pulls a follower with `ReplicaFollower::sync_once` at a fixed
//! short interval; one device connection to the follower delta-fetches at
//! a fixed rate and decides whenever its model or site changed. Every
//! `MARKER_EVERY`-th upload is a marker, honest readings at a device site,
//! timed from its due time to the device's first decision on an epoch
//! whose refit absorbed it.
//!
//! The refit thread calls `IngestPlane::run_refit_now`, the body of the
//! plane's own worker, so the bench sees each refit's report. Uploads
//! travel one connection in order, so upload `k` is absorbed by the first
//! refit whose stored-row count covers it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use waldo::device::{PhoneConfig, PhoneScanner};
use waldo::wire::{fnv1a64, ReadingBatch};
use waldo::WaldoModel;
use waldo_data::Safety;
use waldo_sensors::{Calibration, ReadingSample, SensorModel};
use waldo_serve::{
    serve, serve_with_ingest, IngestPlane, ModelCatalog, ModelClient, ReplicaFollower, ServeConfig,
    ServerHandle, StatsSnapshot,
};
use waldo_store::{ReadingLog, RefitEngine, RefitReport, SegmentStore};

use crate::stats::{mean, median, quantile, Metrics};
use crate::trace::{Profile, Tracer};
use crate::world::{Scenario, SiteKind, CHANNEL};

/// Mean uploads per second on the upload connection (exponential gaps).
pub const UPLOAD_RATE: f64 = 100.0;
/// Readings per uploaded batch.
pub const READINGS_PER_BATCH: usize = 1;
/// Every this many uploads, one is a marker.
pub const MARKER_EVERY: usize = 8;
/// Follower pull interval.
pub const SYNC_EVERY: Duration = Duration::from_millis(10);
/// Device fetch interval.
pub const DEVICE_FETCH_EVERY: Duration = Duration::from_millis(8);
/// Rows per batch when pre-loading the store in set-up.
const PRELOAD_BATCH: usize = 250;
/// How long after the last upload the loop may take to deliver it.
const LOOP_GRACE: Duration = Duration::from_secs(8);
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);
/// Refit passes replayed step by step on a side copy of the store.
const REFIT_REPLAYS: usize = 8;

/// The upload stream's inputs.
struct Feed {
    /// Marker sites (indices into the scenario's sites) with the readings
    /// a phone there uploads.
    markers: Vec<(usize, Vec<ReadingSample>)>,
    /// Plain crowd readings, cycled through.
    crowd: Vec<ReadingSample>,
    crowd_next: usize,
    next_batch: u64,
}

impl Feed {
    /// Upload `k`: a marker at the next site every `MARKER_EVERY`-th,
    /// plain crowd readings otherwise.
    fn batch(&mut self, k: usize) -> (ReadingBatch, Option<usize>) {
        let marker = (k % MARKER_EVERY == MARKER_EVERY - 1)
            .then(|| &self.markers[(k / MARKER_EVERY) % self.markers.len()]);
        let readings = match marker {
            Some((_, readings)) => readings.clone(),
            None => {
                let start = self.crowd_next;
                self.crowd_next =
                    (start + READINGS_PER_BATCH) % (self.crowd.len() - READINGS_PER_BATCH);
                self.crowd[start..start + READINGS_PER_BATCH].to_vec()
            }
        };
        let batch = ReadingBatch { batch_id: self.next_batch, channel: CHANNEL, readings };
        self.next_batch += 1;
        (batch, marker.map(|&(site, _)| site))
    }
}

/// The leader, the follower and their clients, built in set-up.
pub struct CrowdRig {
    dir: PathBuf,
    leader_catalog: Arc<RwLock<ModelCatalog>>,
    plane: Arc<IngestPlane>,
    leader: ServerHandle,
    follower: ReplicaFollower,
    follower_server: ServerHandle,
    uploader: ModelClient,
    device: ModelClient,
    feed: Feed,
    /// Epoch → slot digests of every state the follower installed.
    installed: BTreeMap<u64, Vec<u64>>,
    /// Stored rows when set-up finished.
    pub rows_at_start: u64,
    /// Batch IDs of every acknowledged upload.
    acked: Vec<u64>,
}

fn channel_digests(catalog: &RwLock<ModelCatalog>) -> (u64, Vec<u64>) {
    let guard = catalog.read().expect("catalog lock");
    let channel = guard.channel(CHANNEL).expect("channel published");
    (channel.epoch, channel.slots.iter().map(|s| s.digest).collect())
}

impl CrowdRig {
    /// Starts the leader with its ingest plane under `dir`, pre-loads the
    /// store, starts the follower and syncs it once.
    pub fn start(scenario: &Scenario, seed: u64, dir: &Path) -> CrowdRig {
        let leader_catalog = Arc::new(RwLock::new(ModelCatalog::new()));
        leader_catalog.write().expect("catalog lock").publish(CHANNEL, &scenario.model);
        let engine = RefitEngine::new(
            scenario.constructor.clone(),
            scenario.labeler,
            scenario.dataset.clone(),
            scenario.model.clone(),
        );
        let plane = IngestPlane::open(dir, Arc::clone(&leader_catalog), CHANNEL, engine)
            .expect("open the ingest plane");
        let leader = serve_with_ingest(
            "127.0.0.1:0",
            Arc::clone(&leader_catalog),
            ServeConfig::baseline(),
            Some(Arc::clone(&plane)),
        )
        .expect("bind the leader on loopback");

        let preload = scenario.crowd_readings(scenario.profile.store_rows, seed ^ 0x7072_656c);
        let mut next_batch = 1u64;
        for chunk in preload.chunks(PRELOAD_BATCH) {
            let batch =
                ReadingBatch { batch_id: next_batch, channel: CHANNEL, readings: chunk.to_vec() };
            next_batch += 1;
            plane.ingest(&batch).expect("pre-load the store");
        }
        plane.run_refit_now().expect("refit the pre-loaded store");

        let follower_catalog = Arc::new(RwLock::new(ModelCatalog::new()));
        let mut follower = ReplicaFollower::new(
            vec![leader.addr()],
            Arc::clone(&follower_catalog),
            vec![CHANNEL],
            CLIENT_TIMEOUT,
        );
        // The follower connects right behind the uploader, while the
        // reactor that took the uploader still spins; a reactor accepts
        // every pending connection, so both share it in every run rather
        // than sharing in some runs and not in others.
        let mut uploader = ModelClient::new(leader.addr(), CLIENT_TIMEOUT);
        uploader.ping().expect("warm-up ping to the leader");
        assert_eq!(follower.sync_once(), 1, "the follower installs the leader's model");
        let installed = BTreeMap::from([channel_digests(&follower_catalog)]);
        let follower_server = serve("127.0.0.1:0", follower_catalog, ServeConfig::baseline())
            .expect("bind the follower on loopback");

        let mut device = ModelClient::new(follower_server.addr(), CLIENT_TIMEOUT);
        device.fetch(CHANNEL, 10.0, 10.0, -1.0).expect("warm-up fetch from the follower");

        // Marker readings: what a phone at each site measures. Markers sit at
        // vacant and occupied sites, which converge in a few readings; the
        // near-contour tail belongs to device_sense, and here it would hold
        // the device thread in the simulator while epochs go by.
        let sensor = SensorModel::rtl_sdr();
        let calibration = Calibration::factory(&sensor);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d61_726b);
        let markers = scenario
            .sites
            .iter()
            .enumerate()
            .filter(|(_, site)| site.kind != SiteKind::NearContour)
            .map(|(i, site)| {
                let readings = (0..READINGS_PER_BATCH)
                    .map(|_| {
                        ReadingSample::capture(
                            site.location,
                            &sensor,
                            &calibration,
                            site.true_rss,
                            &mut rng,
                        )
                    })
                    .collect();
                (i, readings)
            })
            .collect();
        let feed = Feed {
            markers,
            crowd: scenario.crowd_readings(4096, seed ^ 0x7570_6c64),
            crowd_next: 0,
            next_batch,
        };
        let rows_at_start = plane.snapshot().stored_readings;
        CrowdRig {
            dir: dir.to_path_buf(),
            leader_catalog,
            plane,
            leader,
            follower,
            follower_server,
            uploader,
            device,
            feed,
            installed,
            rows_at_start,
            acked: Vec::new(),
        }
    }

    pub fn reactors(&self) -> u64 {
        self.leader.stats_snapshot().reactors
    }

    /// Runs checkpoint + refit passes until the WAL is empty.
    fn drain(&self, m: &mut Metrics) {
        for _ in 0..16 {
            match self.plane.run_refit_now() {
                Ok(Some(_)) => {}
                Ok(None) if self.plane.snapshot().wal_batches == 0 => return,
                Ok(None) => {}
                Err(e) => m.fail(format!("crowd_loop: drain refit failed: {e}")),
            }
        }
        m.fail("crowd_loop: the WAL did not drain".to_owned());
    }

    /// Stops the servers and removes the store.
    pub fn shutdown(mut self) {
        self.follower_server.shutdown();
        self.leader.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Upload {
    due: Instant,
    sent: Instant,
    acked: Option<Instant>,
    batch: ReadingBatch,
    marker: bool,
}

struct Refit {
    took: Duration,
    epoch: u64,
    report: RefitReport,
}

struct DeviceDecision {
    /// When the decision was made: its start plus its CPU time. Synthesis
    /// stands in for the radio and is left out, as is the simulated radio
    /// time, which `decide_ms` covers.
    at: Instant,
    epoch: u64,
    site: usize,
    safety: Safety,
}

/// Everything one pass of the loop recorded.
#[derive(Default)]
struct Pass {
    rows_before: u64,
    uploads: Vec<Upload>,
    refits: Vec<Refit>,
    /// How long each `sync_once` that installed an epoch took.
    installs: Vec<Duration>,
    /// Device fetch latency from its due time.
    fetch_us: Vec<f64>,
    fetch_late_ms: Vec<f64>,
    decisions: Vec<DeviceDecision>,
    wire_decode_us: Vec<f64>,
    /// (epoch, digests) of every model the device assembled.
    fetched: Vec<(u64, Vec<u64>)>,
    errors: Vec<String>,
    profile: Profile,
}

fn digests(model: &WaldoModel) -> Vec<u64> {
    model.locality_payloads().iter().map(|p| fnv1a64(p)).collect()
}

/// Runs the loop for `budget`, then lets it deliver the last marker.
fn run_pass(
    rig: &mut CrowdRig,
    scenario: &Scenario,
    seed: u64,
    budget: Duration,
    traced: bool,
) -> Pass {
    let mut pass = Pass { rows_before: rig.plane.snapshot().stored_readings, ..Pass::default() };
    let stop = AtomicBool::new(false);
    let site_now = AtomicUsize::new(rig.feed.markers[0].0);
    let CrowdRig { plane, leader_catalog, follower, uploader, device, feed, installed, .. } = rig;
    let (plane, leader_catalog) = (&*plane, &*leader_catalog);
    let follower_catalog = follower.catalog();
    let (stop, site_now) = (&stop, &site_now);
    let mut upload_tr = Tracer::new(traced);

    std::thread::scope(|s| {
        let refit = s.spawn(move || {
            let mut tr = Tracer::new(traced);
            let (mut refits, mut errors) = (Vec::new(), Vec::new());
            while !stop.load(Ordering::SeqCst) {
                let t = Instant::now();
                let span = tr.start("store.refit");
                let result = plane.run_refit_now();
                tr.end(span);
                match result {
                    Ok(Some(report)) => {
                        let epoch = leader_catalog
                            .read()
                            .expect("catalog lock")
                            .channel(CHANNEL)
                            .map_or(0, |c| c.epoch);
                        refits.push(Refit { took: t.elapsed(), epoch, report });
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                    Err(e) => {
                        errors.push(format!("crowd_loop: refit failed: {e}"));
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            (refits, errors, tr)
        });
        let sync = s.spawn(move || {
            let mut tr = Tracer::new(traced);
            let mut installs = Vec::new();
            let errors_before = follower.snapshot().sync_errors_total;
            let mut next = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                next += SYNC_EVERY;
                let t = Instant::now();
                let span = tr.start("serve.repl_sync");
                let n = follower.sync_once();
                tr.end(span);
                if n > 0 {
                    installs.push(t.elapsed());
                    let (epoch, slots) = channel_digests(&follower_catalog);
                    installed.insert(epoch, slots);
                }
            }
            (installs, follower.snapshot().sync_errors_total - errors_before, tr)
        });
        let dev = s.spawn(move || {
            let mut tr = Tracer::new(traced);
            let mut phone = PhoneScanner::new(
                PhoneConfig::default(),
                SensorModel::rtl_sdr(),
                seed ^ 0x6c6f_6f70,
            );
            let mut out = Pass::default();
            let (mut epoch, mut site) = (0u64, usize::MAX);
            let mut next = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(next.saturating_duration_since(Instant::now()));
                let due = next;
                next += DEVICE_FETCH_EVERY;
                out.fetch_late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let span = tr.start("serve.delta_fetch");
                let result = device.fetch(CHANNEL, 10.0, 10.0, -1.0);
                tr.end(span);
                let (model, report) = match result {
                    Ok(r) => r,
                    Err(e) => {
                        out.errors.push(format!("crowd_loop: device fetch failed: {e}"));
                        continue;
                    }
                };
                out.fetch_us.push(due.elapsed().as_secs_f64() * 1e6);
                let now_site = site_now.load(Ordering::SeqCst);
                if report.epoch == epoch && now_site == site {
                    continue;
                }
                if report.epoch != epoch {
                    out.fetched.push((report.epoch, digests(&model)));
                    if tr.enabled() {
                        let bytes = model.to_wire();
                        let t = Instant::now();
                        let decoded = tr.span("core.wire_decode", || WaldoModel::from_wire(&bytes));
                        out.wire_decode_us.push(t.elapsed().as_secs_f64() * 1e6);
                        if decoded.map_or(true, |m| m.to_wire() != bytes) {
                            out.errors.push("crowd_loop: served model does not decode".to_owned());
                        }
                    }
                }
                (epoch, site) = (report.epoch, now_site);
                let target = &scenario.sites[site];
                let start = Instant::now();
                let run = tr.span("device.decide", || {
                    phone.sense_channel(&model, target.location, target.true_rss)
                });
                let at = start + Duration::from_secs_f64(run.cpu_time_s);
                out.decisions.push(DeviceDecision { at, epoch, site, safety: run.safety });
            }
            (out, tr)
        });

        // The upload generator runs open loop on this thread, with seeded
        // exponential gaps: independent phones upload at random moments,
        // and a marker's phase against the periodic follower pull and
        // device fetch varies from marker to marker instead of repeating.
        let mut gaps = StdRng::seed_from_u64(seed ^ 0x6761_7073);
        let end = Instant::now() + budget;
        let mut due = Instant::now();
        let mut k = 0usize;
        while due < end {
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let (batch, marker) = feed.batch(k);
            let sent = Instant::now();
            let result = upload_tr.span("client.upload", || uploader.upload(&batch));
            let acked = match result {
                Ok(r) if !r.duplicate && r.readings as usize == batch.readings.len() => {
                    Some(Instant::now())
                }
                Ok(r) => {
                    pass.errors.push(format!("crowd_loop: unexpected ack {r:?}"));
                    None
                }
                Err(e) => {
                    pass.errors.push(format!("crowd_loop: upload failed: {e}"));
                    None
                }
            };
            if let (Some(site), Some(_)) = (marker, acked) {
                site_now.store(site, Ordering::SeqCst);
            }
            pass.uploads.push(Upload { due, sent, acked, batch, marker: marker.is_some() });
            k += 1;
            let u: f64 = gaps.gen();
            due += Duration::from_secs_f64(-(1.0 - u).ln() / UPLOAD_RATE);
        }

        // Let the last upload reach the store, then give the follower and
        // the device a few rounds to pick it up.
        let rows = pass.rows_before + (pass.uploads.len() * READINGS_PER_BATCH) as u64;
        let give_up = Instant::now() + LOOP_GRACE;
        while Instant::now() < give_up {
            let snap = plane.snapshot();
            if snap.stored_readings >= rows && snap.wal_batches == 0 {
                std::thread::sleep(
                    SYNC_EVERY * 4 + DEVICE_FETCH_EVERY * 4 + Duration::from_millis(60),
                );
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::SeqCst);

        let (refits, errors, refit_tr) = refit.join().expect("refit thread");
        pass.refits = refits;
        pass.errors.extend(errors);
        let (installs, sync_errors, sync_tr) = sync.join().expect("sync thread");
        pass.installs = installs;
        if sync_errors > 0 {
            pass.errors.push(format!("crowd_loop: {sync_errors} follower sync errors"));
        }
        let (dev, dev_tr) = dev.join().expect("device thread");
        pass.fetch_us = dev.fetch_us;
        pass.fetch_late_ms = dev.fetch_late_ms;
        pass.decisions = dev.decisions;
        pass.fetched = dev.fetched;
        pass.wire_decode_us = dev.wire_decode_us;
        pass.errors.extend(dev.errors);
        for tr in [refit_tr, sync_tr, dev_tr] {
            pass.profile.absorb(tr);
        }
    });
    pass.profile.absorb(upload_tr);
    pass
}

/// Loop latency of every acknowledged marker, milliseconds, and the
/// markers that never reached a device decision.
fn loop_latencies(pass: &Pass) -> (Vec<f64>, usize) {
    let mut out = Vec::new();
    let mut undelivered = 0;
    for (i, upload) in pass.uploads.iter().enumerate() {
        if !upload.marker || upload.acked.is_none() {
            continue;
        }
        let rows = pass.rows_before + ((i + 1) * READINGS_PER_BATCH) as u64;
        let absorbed = pass.refits.iter().find(|r| r.report.uploaded_readings as u64 >= rows);
        let decided = absorbed
            .and_then(|r| pass.decisions.iter().find(|d| d.epoch >= r.epoch && d.at > upload.due));
        match decided {
            Some(d) => out.push((d.at - upload.due).as_secs_f64() * 1e3),
            None => undelivered += 1,
        }
    }
    (out, undelivered)
}

/// The per-pass correctness checks.
fn check_pass(pass: &Pass, rig: &CrowdRig, scenario: &Scenario, m: &mut Metrics) {
    m.attempt(pass.uploads.len() as u64);
    for e in &pass.errors {
        m.fail(e.clone());
    }
    for _ in 0..loop_latencies(pass).1 {
        m.fail("crowd_loop: a marker never reached a device decision".to_owned());
    }
    for d in &pass.decisions {
        let site = &scenario.sites[d.site];
        m.check(!(d.safety == Safety::Safe && site.truth == Safety::NotSafe), || {
            format!("crowd_loop: incorrect safe at {:?} ({:?})", site.location, site.kind)
        });
    }
    for (epoch, slots) in &pass.fetched {
        m.check(rig.installed.get(epoch) == Some(slots), || {
            format!("crowd_loop: device model at epoch {epoch} differs from the follower's")
        });
    }
}

fn server_errors(before: &StatsSnapshot, after: &StatsSnapshot) -> u64 {
    after.errors_total - before.errors_total
}

/// Every acknowledged upload is in the segment store exactly once.
fn check_store(rig: &CrowdRig, m: &mut Metrics) {
    rig.drain(m);
    let store = match SegmentStore::open(&rig.dir) {
        Ok(s) => s,
        Err(e) => return m.fail(format!("crowd_loop: reopen the store: {e}")),
    };
    let absorbed = &store.manifest().absorbed;
    for id in &rig.acked {
        m.check(absorbed.contains(id), || format!("crowd_loop: acked batch {id} is not stored"));
    }
    let expected = rig.rows_at_start + (rig.acked.len() * READINGS_PER_BATCH) as u64;
    m.check(store.reading_count() as u64 == expected, || {
        format!("crowd_loop: store holds {} rows, acks promise {expected}", store.reading_count())
    });
}

/// Wall time of each of the pass's refits, milliseconds.
fn refit_ms(pass: &Pass) -> Vec<f64> {
    pass.refits.iter().map(|r| r.took.as_secs_f64() * 1e3).collect()
}

/// End-to-end metrics of one pass.
fn end_to_end(pass: &Pass, min: [usize; 2], m: &mut Metrics) {
    let ack_ms: Vec<f64> = pass
        .uploads
        .iter()
        .filter_map(|u| u.acked.map(|a| (a - u.due).as_secs_f64() * 1e3))
        .collect();
    let (loop_ms, _) = loop_latencies(pass);
    m.set_quantile("upload_ack_ms.p50", &ack_ms, 0.5, min[0], "ms");
    m.set_quantile("upload_ack_ms.p99", &ack_ms, 0.99, min[0], "ms");
    m.set_quantile("loop_ms.p50", &loop_ms, 0.5, min[1], "ms");
    m.set_quantile("loop_ms.p90", &loop_ms, 0.9, min[1], "ms");
    m.set_quantile("refit_ms.p50", &refit_ms(pass), 0.5, 1, "ms");
    m.set_quantile("device_fetch_us.p50", &pass.fetch_us, 0.5, min[0], "us");
    m.set_quantile("device_fetch_us.p99", &pass.fetch_us, 0.99, min[0], "us");
}

/// Runs one pass, records its acknowledged uploads and checks it.
fn checked_pass(
    rig: &mut CrowdRig,
    scenario: &Scenario,
    seed: u64,
    budget: Duration,
    traced: bool,
    m: &mut Metrics,
) -> Pass {
    let pass = run_pass(rig, scenario, seed, budget, traced);
    rig.acked.extend(pass.uploads.iter().filter(|u| u.acked.is_some()).map(|u| u.batch.batch_id));
    check_pass(&pass, rig, scenario, m);
    pass
}

/// Runs the phase and fills its metrics. Traced, the phase runs an
/// untraced quarter, a traced half and another untraced quarter, all
/// from the same seed: the store grows through the phase, so the two
/// untraced quarters together see on average the store the traced half
/// sees. The refit and append steps of the traced half are then replayed
/// one by one on side copies of the store.
pub fn measure(
    rig: &mut CrowdRig,
    scenario: &Scenario,
    seed: u64,
    budget: Duration,
    traced: bool,
    min_samples: usize,
) -> (Metrics, Profile, serde_json::Value) {
    let mut m = Metrics::default();
    let leader0 = rig.leader.stats_snapshot();
    let follower0 = rig.follower_server.stats_snapshot();

    let plain =
        checked_pass(rig, scenario, seed, if traced { budget / 4 } else { budget }, false, &mut m);
    let min = if traced { [1, 1] } else { [min_samples, (min_samples / 10).max(1)] };
    end_to_end(&plain, min, &mut m);

    let mut profile = Profile::default();
    if traced {
        rig.drain(&mut m);
        // The refit replay starts from the store as the traced pass found it.
        let side = rig.dir.with_extension("side");
        let _ = std::fs::remove_dir_all(&side);
        copy_store(&rig.dir, &side.join("segments"));
        let ingest0 = rig.plane.snapshot();
        let follower1 = rig.follower_server.stats_snapshot();
        let mut pass = checked_pass(rig, scenario, seed, budget / 2, true, &mut m);
        let ingest1 = rig.plane.snapshot();
        let follower2 = rig.follower_server.stats_snapshot();
        rig.drain(&mut m);
        let plain2 = checked_pass(rig, scenario, seed, budget / 4, false, &mut m);
        let untraced_loop_ms: Vec<f64> =
            [&plain, &plain2].iter().flat_map(|p| loop_latencies(p).0).collect();
        let traced_loop_ms = loop_latencies(&pass).0;
        m.set(
            "trace.overhead_frac.crowd_loop",
            median(&traced_loop_ms).unwrap_or(f64::NAN)
                / median(&untraced_loop_ms).unwrap_or(f64::NAN)
                - 1.0,
            "ratio",
        );
        layer_metrics(&pass, &ingest0, &ingest1, &follower1, &follower2, scenario, &mut m);
        profile = std::mem::take(&mut pass.profile);
        replay(scenario, &pass, &side, &mut profile, &mut m);
        let _ = std::fs::remove_dir_all(&side);
        let mut steps_ms = 0.0;
        for (name, span) in [
            ("store.checkpoint_ms.p50", "store.checkpoint"),
            ("store.read_segments_ms.p50", "store.read_segments"),
            ("data.label_ms.p50", "data.label"),
            ("core.refit_localities_ms.p50", "core.refit_localities"),
            ("store.replay_publish_ms.p50", "store.replay_publish"),
        ] {
            let us = profile.durations_us(span);
            m.set(name, median(&us).unwrap_or(0.0) / 1e3, "ms");
            steps_ms += us.iter().sum::<f64>() / 1e3;
        }
        // Against the same live refits the replay repeated.
        let live_ms: f64 = replayed_refits(&pass)
            .into_iter()
            .map(|i| pass.refits[i].took.as_secs_f64() * 1e3)
            .sum();
        m.set("trace.refit_accounted_frac", steps_ms / live_ms, "ratio");
    }

    let leader1 = rig.leader.stats_snapshot();
    let follower9 = rig.follower_server.stats_snapshot();
    let errors = server_errors(&leader0, &leader1) + server_errors(&follower0, &follower9);
    m.check(errors == 0, || format!("crowd_loop: servers answered {errors} requests with errors"));
    check_store(rig, &mut m);
    let rows_at_end = rig.plane.snapshot().stored_readings;
    let plain_refit_ms = refit_ms(&plain);
    let plain_loop_ms = loop_latencies(&plain).0;
    let changed_localities: Vec<f64> =
        plain.refits.iter().map(|r| r.report.changed_localities.len() as f64).collect();
    let info = serde_json::json!({
        "store_rows_at_start": rig.rows_at_start,
        "store_rows_at_end": rows_at_end,
        "uploads": plain.uploads.len(),
        "markers": plain.uploads.iter().filter(|u| u.marker).count(),
        "refits": plain.refits.len(),
        "refit_ms.p90": quantile(&plain_refit_ms, 0.9),
        // The refit's share of the loop: how much of a marker's trip store,
        // relabel and fit take at this store size.
        "refit_over_loop_p50": median(&plain_refit_ms).zip(median(&plain_loop_ms)).map(|(r, l)| r / l),
        "changed_localities_per_refit.mean": mean(&changed_localities),
        "device_decisions": plain.decisions.len(),
        "upload_late_ms.p99": quantile(&plain.uploads.iter().map(|u| (u.sent - u.due).as_secs_f64() * 1e3).collect::<Vec<_>>(), 0.99),
        "device_fetch_late_ms.p99": quantile(&plain.fetch_late_ms, 0.99),
    });
    (m, profile, info)
}

/// The layer metrics the traced pass measures live.
fn layer_metrics(
    pass: &Pass,
    ingest0: &waldo_serve::IngestSnapshot,
    ingest1: &waldo_serve::IngestSnapshot,
    follower0: &StatsSnapshot,
    follower1: &StatsSnapshot,
    scenario: &Scenario,
    m: &mut Metrics,
) {
    m.set("store.refit_ms.p50", median(&refit_ms(pass)).unwrap_or(0.0), "ms");
    let localities = scenario.model.locality_count() as f64;
    let changed: Vec<f64> =
        pass.refits.iter().map(|r| r.report.changed_localities.len() as f64 / localities).collect();
    m.set("store.refit_changed_frac", mean(&changed).unwrap_or(0.0), "ratio");
    let rows: Vec<f64> = pass.refits.iter().map(|r| r.report.total_rows as f64).collect();
    m.set("store.rows_per_refit.mean", mean(&rows).unwrap_or(0.0), "count");
    let refits = (ingest1.refits_total - ingest0.refits_total).max(1);
    m.set(
        "store.uploads_per_refit",
        (ingest1.uploads_total - ingest0.uploads_total) as f64 / refits as f64,
        "count",
    );
    let hits = follower1.cache_hits - follower0.cache_hits;
    let misses = follower1.cache_misses - follower0.cache_misses;
    m.set("serve.cache_hit_rate.crowd_loop", hits as f64 / (hits + misses).max(1) as f64, "ratio");
    let installs: Vec<f64> = pass.installs.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    m.set("serve.repl_sync_ms.p50", median(&installs).unwrap_or(0.0), "ms");
    m.set(
        "serve.delta_fetch_us.p50",
        median(&pass.profile.durations_us("serve.delta_fetch")).unwrap_or(0.0),
        "us",
    );
    m.set("core.wire_decode_us.p50", median(&pass.wire_decode_us).unwrap_or(0.0), "us");
    let late: Vec<f64> =
        pass.uploads.iter().map(|u| (u.sent - u.due).as_secs_f64() * 1e3).collect();
    m.set("bench.gen_late_ms.p99.crowd_loop", quantile(&late, 0.99).unwrap_or(0.0), "ms");
}

/// Copies a segment store's files, without its WAL, into `to`.
fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the store copy");
    for entry in std::fs::read_dir(from).expect("list the store") {
        let path = entry.expect("store entry").path();
        if path.is_file() && path.file_name().is_some_and(|n| n != "readings.wal") {
            std::fs::copy(&path, to.join(path.file_name().expect("file name")))
                .expect("copy a store file");
        }
    }
}

/// The refits the replay repeats: [`REFIT_REPLAYS`] of the pass's refits,
/// spread evenly over it. The first refits of a pass follow an empty WAL
/// and absorb an upload or two each, so they are shorter than the rest.
fn replayed_refits(pass: &Pass) -> Vec<usize> {
    let (n, k) = (pass.refits.len(), REFIT_REPLAYS.min(pass.refits.len()));
    (0..k).map(|j| (2 * j + 1) * n / (2 * k)).collect()
}

/// Replays the traced pass's store work in `side`, one span per step:
/// the WAL appends under the shipped flush policy into a fresh WAL, and
/// the refits of [`replayed_refits`], split into checkpoint, segment read,
/// relabel, fit and publish, on the copy of the store taken before the
/// pass. The uploads between two replayed refits are checkpointed into
/// the copy untimed.
fn replay(scenario: &Scenario, pass: &Pass, side: &Path, profile: &mut Profile, m: &mut Metrics) {
    let mut tr = Tracer::new(true);
    let mut wal = ReadingLog::open(side.join("readings.wal")).expect("open the side WAL");
    let mut append_us = Vec::new();
    for u in &pass.uploads {
        let t = Instant::now();
        let r = tr.span("store.append", || wal.append(&u.batch));
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        m.check(r.is_ok(), || "crowd_loop: side WAL append failed".to_owned());
    }
    m.set("store.append_us.p50", quantile(&append_us, 0.5).unwrap_or(0.0), "us");
    m.set("store.append_us.p99", quantile(&append_us, 0.99).unwrap_or(0.0), "us");

    let mut store = SegmentStore::open(side.join("segments")).expect("open the store copy");
    // Refit `r` absorbed the uploads between the previous refit's row count
    // and its own.
    let upload_index = |rows: usize| {
        let uploaded = (rows as u64).saturating_sub(pass.rows_before) as usize;
        (uploaded / READINGS_PER_BATCH).min(pass.uploads.len())
    };
    let batches_of = |uploads: &[Upload]| -> Vec<ReadingBatch> {
        uploads.iter().map(|u| u.batch.clone()).collect()
    };
    let mut catalog = ModelCatalog::new();
    catalog.publish(CHANNEL, &scenario.model);
    let mut model = scenario.model.clone();
    let mut absorbed = 0usize;
    for i in replayed_refits(pass) {
        let start =
            i.checked_sub(1).map_or(0, |p| upload_index(pass.refits[p].report.uploaded_readings));
        let end = upload_index(pass.refits[i].report.uploaded_readings);
        let (start, end) = (start.max(absorbed), end.max(absorbed));
        if start > absorbed {
            store
                .checkpoint(&batches_of(&pass.uploads[absorbed..start]), |s| {
                    model.locality_for(s.location)
                })
                .expect("catch the store copy up");
        }
        absorbed = end;
        let batches = batches_of(&pass.uploads[start..end]);
        let root = tr.start("store.refit_replay");
        let report = tr
            .span("store.checkpoint", || {
                store.checkpoint(&batches, |s| model.locality_for(s.location))
            })
            .expect("checkpoint the store copy");
        let rows =
            tr.span("store.read_segments", || store.all_readings()).expect("read the store copy");
        let labels =
            tr.span("data.label", || scenario.labeler.label(&scenario.label_points(&rows)));
        let set = scenario.training_set(&rows, &labels);
        model = tr
            .span("core.refit_localities", || {
                scenario.constructor.refit_localities(&model, &set, &report.changed_localities)
            })
            .expect("refit the store copy");
        tr.span("store.replay_publish", || catalog.publish(CHANNEL, &model));
        tr.end(root);
    }
    profile.absorb(tr);
}
