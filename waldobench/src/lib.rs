//! One benchmark for the two paths a Waldo user feels: a device deciding
//! locally, and the crowd loop that turns an upload into a decision.
//!
//! A run sets the system up (several times, reporting the median set-up
//! time), then measures three phases in turn on loopback servers built
//! with default features and `ServeConfig::baseline()`:
//!
//! * `device_sense` ([`device`]): a closed-loop device deciding at seeded
//!   sites; `iq` extraction and the `core` detector.
//! * `fetch_serve` ([`fetch`]): an open-loop ladder of fetch rates against
//!   one server; the `serve` reactors, protocol and response cache.
//! * `crowd_loop` ([`crowd`]): uploads, refits, replication and a device
//!   deciding on the refreshed model; `store`, `data` relabel, the `ml`
//!   fit and `serve` replication.
//!
//! The workloads (`compact`, `wide`) run the same phases at two input
//! sizes ([`world::PROFILES`]). Untraced runs report the end-to-end
//! metrics; traced runs time each layer call in a span and report the
//! per-layer metrics, self times and tracing overhead.

pub mod crowd;
pub mod device;
pub mod fetch;
pub mod stats;
pub mod trace;
pub mod world;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde_json::json;

use crate::crowd::CrowdRig;
use crate::fetch::FetchRig;
use crate::stats::{median, Metrics};
use crate::trace::Profile;
use crate::world::{Profile as Sizes, Scenario};

/// End-to-end metrics every untraced run prints on its result line. Each
/// has a bound in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decide_cpu_us.p50", "us"),
    ("decide_ms.p50", "ms"),
    ("decide_ms.p99", "ms"),
    ("fetch_us.p50", "us"),
    ("device_fetch_us.p50", "us"),
    ("refit_ms.p50", "ms"),
];

/// End-to-end metrics that are measured and printed in the report line
/// only: on a small shared host their run-to-run spread is about as wide
/// as, or wider than, any bound a gate may use (the README gives the
/// measured spreads).
pub const REPORTED_ONLY: [(&str, &str); 8] = [
    ("decide_cpu_us.p99", "us"),
    ("fetch_us.p99", "us"),
    ("fetch_max_rate", "1/s"),
    ("upload_ack_ms.p50", "ms"),
    ("upload_ack_ms.p99", "ms"),
    ("loop_ms.p50", "ms"),
    ("loop_ms.p90", "ms"),
    ("device_fetch_us.p99", "us"),
];

/// Spans whose mean self time per call a traced run reports, per phase.
pub const SELF_TIMED: [(&str, &[&str]); 3] = [
    (
        "device_sense",
        &[
            "device.decide",
            "core.detector_new",
            "sensors.capture",
            "iq.extract",
            "core.detector_push",
        ],
    ),
    ("fetch_serve", &["serve.publish", "serve.encode"]),
    (
        "crowd_loop",
        &[
            "client.upload",
            "store.refit",
            "serve.repl_sync",
            "serve.delta_fetch",
            "core.wire_decode",
            "device.decide",
            "store.append",
            "store.refit_replay",
            "store.checkpoint",
            "store.read_segments",
            "data.label",
            "core.refit_localities",
            "store.replay_publish",
        ],
    ),
];

/// Per-layer metrics, printed by every traced run (the self times of
/// [`SELF_TIMED`] come on top, as `self_us.<phase>.<span>` in `us`).
pub const PER_LAYER: [(&str, &str); 34] = [
    ("sensors.capture_us.p50", "us"),
    ("iq.extract_us.p50", "us"),
    ("iq.extract_us.p99", "us"),
    ("core.detector_push_us.p50", "us"),
    ("core.detector_new_us.p50", "us"),
    ("core.readings_per_decision.mean", "count"),
    ("trace.decide_cpu_accounted_frac", "ratio"),
    ("trace.capture_over_decide_cpu", "ratio"),
    ("trace.overhead_frac.device_sense", "ratio"),
    ("serve.cache_hit_rate.fetch_serve", "ratio"),
    ("serve.publish_us.p50", "us"),
    ("serve.encode_us.p50", "us"),
    ("serve.cpu_us_per_fetch", "us"),
    ("serve.bytes_per_fetch", "bytes"),
    ("bench.gen_late_ms.p99.fetch_serve", "ms"),
    ("trace.overhead_frac.fetch_serve", "ratio"),
    ("serve.cache_hit_rate.crowd_loop", "ratio"),
    ("serve.repl_sync_ms.p50", "ms"),
    ("serve.delta_fetch_us.p50", "us"),
    ("core.wire_decode_us.p50", "us"),
    ("store.append_us.p50", "us"),
    ("store.append_us.p99", "us"),
    ("store.refit_ms.p50", "ms"),
    ("store.checkpoint_ms.p50", "ms"),
    ("store.read_segments_ms.p50", "ms"),
    ("data.label_ms.p50", "ms"),
    ("core.refit_localities_ms.p50", "ms"),
    ("store.replay_publish_ms.p50", "ms"),
    ("store.refit_changed_frac", "ratio"),
    ("store.rows_per_refit.mean", "count"),
    ("store.uploads_per_refit", "count"),
    ("bench.gen_late_ms.p99.crowd_loop", "ms"),
    ("trace.overhead_frac.crowd_loop", "ratio"),
    ("trace.refit_accounted_frac", "ratio"),
];

/// How far the traced layers may be from the totals they should account
/// for: `trace.decide_cpu_accounted_frac` and
/// `trace.refit_accounted_frac` must lie within `1 ± TRACE_TOLERANCE`.
pub const TRACE_TOLERANCE: f64 = 0.5;

/// Samples a p99 needs in a run (a p90 needs a tenth of it).
pub const P99_SAMPLES: usize = 1000;

/// The shortest run held to [`P99_SAMPLES`]: a run of at least this many
/// seconds gathers enough samples in every phase at the phases' fixed
/// rates, and one that has too few fails. A shorter run (a smoke run)
/// reports its percentiles from whatever samples it has.
pub const TAIL_SAMPLES_FROM_SECONDS: f64 = 30.0;

/// Times the system is set up per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Shares of `--seconds` given to device_sense, fetch_serve, crowd_loop.
pub const PHASE_SHARE: [f64; 3] = [0.2, 0.2, 0.6];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub sizes: Sizes,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    /// Samples a p99 needs in this run; see [`TAIL_SAMPLES_FROM_SECONDS`].
    pub fn p99_samples(&self) -> usize {
        if self.seconds >= TAIL_SAMPLES_FROM_SECONDS {
            P99_SAMPLES
        } else {
            1
        }
    }
}

/// What a run measured.
pub struct Outcome {
    pub metrics: Metrics,
    /// Everything else worth keeping: fingerprint, load shape, sizes,
    /// self times and the values behind each metric.
    pub report: serde_json::Value,
}

/// Every per-layer metric name with its unit, self times included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for (phase, spans) in SELF_TIMED {
        out.extend(spans.iter().map(|s| (format!("self_us.{phase}.{s}"), "us")));
    }
    out
}

/// Where the crowd loop's stores live while a run lasts: inside the
/// working directory.
fn scratch_root() -> PathBuf {
    std::env::current_dir().expect("working directory").join(".bench_tmp")
}

/// A fresh directory for one set-up's store.
fn work_dir(rep: usize) -> PathBuf {
    let dir = scratch_root().join(format!("run-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a phase's state [`SETUP_REPS`] times, tearing down all but the
/// last, and returns it with the median build time in seconds.
fn set_up<T>(mut build: impl FnMut(usize) -> T, mut tear_down: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build(rep);
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(built) {
            tear_down(old);
        }
    }
    (kept.expect("at least one set-up"), median(&times).expect("set-up times"))
}

/// Runs the benchmark. Each phase's servers exist only while that phase
/// runs, so an idle server never competes with another phase; `setup_s`
/// sums the median set-up times of the scenario and of each phase.
pub fn run(opts: &Options) -> Outcome {
    let mut m = Metrics::default();
    let min_samples = opts.p99_samples();
    let steal0 = stats::host_steal_ticks();
    let budget = |i: usize| Duration::from_secs_f64(opts.seconds * PHASE_SHARE[i]);
    let mut profiles: Vec<(&str, Profile)> = Vec::new();

    let (scenario, scenario_s) = set_up(|_| Scenario::build(opts.sizes, opts.seed), drop);
    // Untraced, the device decides in three blocks spread over the run
    // (before, between and after the serving phases), so a slow spell of
    // the host weighs on its figures no more than on the others.
    let mut device = device::Device::new(opts.seed);
    if opts.trace {
        let (dm, dp) = device::measure_traced(&scenario, opts.seed, budget(0));
        m.merge(dm);
        profiles.push(("device_sense", dp));
    } else {
        device.block(&scenario, budget(0) / 3);
    }

    let (mut rig, fetch_s) = set_up(
        |_| {
            let alternate =
                scenario.refit_with(&scenario.crowd_readings(400, opts.seed ^ 0xa17), &[0]);
            let mut rig = FetchRig::start(&scenario, alternate);
            rig.warm_up(&mut m);
            rig
        },
        drop,
    );
    let reactors = rig.reactors();
    let (fm, fp, fetch_info) = fetch::measure(&mut rig, budget(1), opts.trace, min_samples);
    drop(rig);
    m.merge(fm);
    profiles.push(("fetch_serve", fp));
    if !opts.trace {
        device.block(&scenario, budget(0) / 3);
    }

    let (mut rig, crowd_s) =
        set_up(|rep| CrowdRig::start(&scenario, opts.seed, &work_dir(rep)), CrowdRig::shutdown);
    let (cm, cp, crowd_info) =
        crowd::measure(&mut rig, &scenario, opts.seed, budget(2), opts.trace, min_samples);
    rig.shutdown();
    // Only succeeds when no other run is using it.
    let _ = std::fs::remove_dir(scratch_root());
    m.merge(cm);
    profiles.push(("crowd_loop", cp));
    if !opts.trace {
        device.block(&scenario, budget(0) / 3);
        m.merge(device.metrics(&scenario, min_samples));
    }
    m.set("setup_s", scenario_s + fetch_s + crowd_s, "s");

    for (phase, profile) in &profiles {
        for (span, us) in profile.self_us_per_call() {
            m.set(format!("self_us.{phase}.{span}"), us, "us");
        }
    }
    let steal = steal0
        .zip(stats::host_steal_ticks())
        .map(|((t0, s0), (t1, s1))| (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    let report = json!({
        "workload": opts.sizes.name,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "fingerprint": stats::fingerprint(reactors),
        "build_features": "default (waldo-serve without prof, obs or fault)",
        "serve_config": "ServeConfig::baseline()",
        "flush_policy": "ReadingLog sync_every = 1: one fsync per acknowledged upload",
        "setup_s_parts": json!({"scenario": scenario_s, "fetch_serve": fetch_s, "crowd_loop": crowd_s}),
        "host_steal_frac": steal,
        "trace_tolerance": TRACE_TOLERANCE,
        "p99_min_samples": min_samples,
        "sizes": json!({
            "campaign_readings_per_channel": opts.sizes.campaign_readings,
            "model_localities": scenario.model.locality_count(),
            "sites": scenario.sites.len(),
            "crowd": crowd_info,
            "fetch_steps": fetch_info,
        }),
        "load_shape": load_shape(opts),
    });
    Outcome { metrics: m, report }
}

/// The load each phase offers, for the report.
fn load_shape(opts: &Options) -> serde_json::Value {
    json!({
        "device_sense": json!({
            "loop": "closed", "threads": 1,
            "seconds": opts.seconds * PHASE_SHARE[0],
            "why": "all the work in iq extraction and the core detector; serve and store idle",
        }),
        "fetch_serve": json!({
            "loop": "open", "connections": 1, "generator_threads": 1,
            "nominal_rate_per_s": fetch::NOMINAL_RATE,
            "ladder_rates_per_s": fetch::LADDER,
            "p99_limit_us": fetch::FETCH_P99_LIMIT_US,
            "republish_every_ms": fetch::REPUBLISH_EVERY.as_millis() as u64,
            "seconds": opts.seconds * PHASE_SHARE[1],
            "why": "all the work in the serve reactor, protocol and response cache",
        }),
        "crowd_loop": json!({
            "loop": "open",
            "upload_rate_per_s": crowd::UPLOAD_RATE,
            "readings_per_upload": crowd::READINGS_PER_BATCH,
            "marker_every": crowd::MARKER_EVERY,
            "follower_sync_every_ms": crowd::SYNC_EVERY.as_millis() as u64,
            "device_fetch_every_ms": crowd::DEVICE_FETCH_EVERY.as_millis() as u64,
            "connections": "one upload, one device; the follower pulls over one more",
            "seconds": opts.seconds * PHASE_SHARE[2],
            "why": "the only phase with store work (fsync per ack, checkpoint) and refits",
        }),
    })
}
