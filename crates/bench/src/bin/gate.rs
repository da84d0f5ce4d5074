//! CI gate over a `probe`-written pipeline report (and, optionally, a
//! `serve_load`-written serving report, a `serve_load`-written ingest
//! report, a `chaos_soak`-written chaos report, and a
//! `failover_drill`-written failover report).
//!
//! Usage: `gate <report.json> <floor.json> [serve_report.json] [--obs]
//! [--ingest ingest_report.json] [--chaos chaos_report.json]
//! [--failover failover_report.json] [--slo fleet_timeline.jsonl]
//! [--history history.jsonl]`
//!
//! Fails (exit 1) when:
//! - any required stage timer (`synth`, `fft_features`, `label`, `kmeans`,
//!   `svm_fit`, `cv`) is missing from the report's `stages` table or
//!   recorded zero calls — catching a stage that silently lost its
//!   instrumentation (or a report produced without the `obs` feature);
//! - the error-cached SMO regresses more than 2× against the checked-in
//!   floor (`svm_fit_ns_per_fit` in the floor file, measured on the
//!   reference machine that produced `BENCH_pipeline.json`);
//! - the fused measurement pipeline regresses more than 2× against the
//!   floor file's implied context-build rate (`context_build_readings`
//!   over `context_build_seconds`, compared ratio-wise against the
//!   report's `serial_readings_per_sec` so quick-scale smokes and
//!   full-scale runs gate alike);
//! - the online detector ingest rate (`detector_push.readings_per_s`)
//!   falls more than 2× below the checked-in
//!   `detector_push_readings_per_s` reference;
//! - a serve report is given and it recorded any protocol error, ran with
//!   fewer than 16 clients, saved less than half the full-fetch bytes on
//!   delta fetches, or its p50 fetch latency regressed more than 10×
//!   against the checked-in floor (`serve_fetch_p50_ns`);
//! - a serve report's throughput phase held fewer than 256 concurrent
//!   connections, its `fetches_per_s` fell below the absolute floor
//!   (`serve_fetches_per_s` in the floor file), or the pre-encoded
//!   response cache hit fewer than 90% of steady-state lookups;
//! - `--obs` is given and the serve report ran without the `obs` feature,
//!   has no `obs_overhead` A/B table (rerun `serve_load --obs-overhead`),
//!   lost the `serve_handle` endpoint histogram, or the obs-enabled fetch
//!   p50 exceeds the obs-disabled p50 by more than 5% plus a small
//!   absolute slack — the recording-overhead ceiling;
//! - an ingest report is given and its upload phase recorded any error,
//!   no duplicate acks (the idempotency probe went unexercised), a
//!   materialized duplicate, an upload rate below the absolute floor
//!   (`ingest_uploads_per_s`), a refit slower than the absolute ceiling
//!   (`ingest_refit_ns_ceiling`), no epoch bump, or a delta fetch that
//!   did not observe the refit epoch — the crowd-sourcing loop must
//!   demonstrably close;
//! - a chaos report is given and it ran without the `fault` feature, any
//!   fault category never fired (the soak proved nothing), it recorded a
//!   panic, a protocol violation, an incorrect "safe" decision, an
//!   unrecovered client, no retries / breaker opens / outage decisions
//!   (the hardened paths went unexercised), the recovery p99 exceeds
//!   the absolute ceiling (`chaos_recovery_p99_ns` in the floor file),
//!   no upload was acked, a WAL replay lost an acked batch, a batch was
//!   ingested twice, or a client never observed the refitted epoch;
//! - a failover report is given and it ran without the `fault` feature,
//!   skipped any of the four scripted scenarios (kill-a-follower, rebind,
//!   stale-follower, leader-loss), recorded a panic / protocol violation /
//!   incorrect "safe" decision, left a client short of the post-failover
//!   epoch, never actually failed a client over, left the follower sync
//!   loop unexercised (no installs or no errors against the dead leader),
//!   timed no recoveries, or its recovery p99 exceeds the absolute ceiling
//!   (`failover_recovery_p99_ns` in the floor file);
//! - `--slo` is given a fleet timeline (the JSONL a
//!   [`waldo_bench::fleet::FleetObserver`] writes during a drill) and any
//!   declarative objective in [`waldo_bench::slo::SloSet`] fails:
//!   availability below the floor or a sustained outage, the fetch-p99
//!   latency budget overspent, replication lag beyond its tick budget or
//!   stalled outright, or *any* incorrect-safe decision — each objective
//!   is burn-rate shaped (whole-run budget plus consecutive-tick streak),
//!   and verdicts are printed per objective either way;
//! - `--history` is given: after all checks pass, the gate appends one
//!   compact line of headline metrics to the JSONL file, then fails if any
//!   tracked metric shows a *sustained* regression — every one of the last
//!   [`TREND_RECENT`] entries worse than the best earlier entry by more
//!   than [`TREND_REGRESSION_LIMIT`]× (direction-aware; a single noisy
//!   run cannot trip it, and fewer than three entries always pass). A
//!   line whose `ts` equals the newest entry's is refused as a repeat of
//!   that run.

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Map, Value};

const REQUIRED_STAGES: [&str; 6] = ["synth", "fft_features", "label", "kmeans", "svm_fit", "cv"];

/// Maximum allowed ratio of measured `svm_fit` time to the checked-in
/// floor; generous enough to absorb machine-to-machine variation, tight
/// enough to catch an accidental return to O(n²) passes.
const SVM_FIT_REGRESSION_LIMIT: f64 = 2.0;

/// Maximum allowed regression of the serial context-build rate against
/// the floor file's implied reference rate (`context_build_readings /
/// context_build_seconds`). Rate-based so the same floor gates quick-scale
/// smokes and full-scale runs; 2× absorbs runner variation while catching
/// a return to per-frame synthesis or per-pass extraction.
const CONTEXT_BUILD_REGRESSION_LIMIT: f64 = 2.0;

/// Maximum allowed regression of the detector ingest rate against the
/// checked-in `detector_push_readings_per_s` reference.
const DETECTOR_PUSH_REGRESSION_LIMIT: f64 = 2.0;

/// Maximum allowed ratio of measured p50 fetch latency to the checked-in
/// floor. Wider than the svm_fit limit because loopback latency under 16
/// contending client threads is far noisier than a single-threaded fit
/// loop, especially on a single-core runner.
const SERVE_FETCH_REGRESSION_LIMIT: f64 = 10.0;

/// Minimum fraction of full-fetch bytes a delta fetch must save. The
/// epoch diff makes steady-state deltas nearly free; anywhere below this
/// means the delta path stopped short-circuiting unchanged localities.
const SERVE_DELTA_SAVINGS_FLOOR: f64 = 0.5;

/// Serve reports must come from a load run with at least this many
/// concurrent clients to count as a concurrency smoke.
const SERVE_MIN_CLIENTS: u64 = 16;

/// The throughput phase must have held at least this many concurrent
/// keep-alive connections for its `fetches_per_s` to count.
const SERVE_MIN_CONNECTIONS: u64 = 256;

/// Minimum steady-state hit rate of the pre-encoded response cache. The
/// reactor's hot path is a memcpy of a cached tail; below this, unscoped
/// fetches are falling back to per-request encoding.
const SERVE_CACHE_HIT_RATE_FLOOR: f64 = 0.90;

/// Maximum allowed relative increase of the client-observed fetch p50 with
/// obs recording enabled versus disabled, measured by the same-process A/B
/// blocks of `serve_load --obs-overhead`.
const OBS_OVERHEAD_CEILING: f64 = 0.05;

/// Absolute slack on top of the relative obs ceiling. Loopback delta
/// fetches complete in a few hundred µs, so one scheduler preemption is
/// worth more than 5% of p50 on its own; the slack keeps the gate from
/// flaking on timer granularity while still catching a real per-request
/// recording cost.
const OBS_OVERHEAD_SLACK_NS: f64 = 20_000.0;

/// How many of the newest history entries must *all* be worse before the
/// trend guard fires. Two in a row filters the single-run noise a ratio
/// gate against a fixed floor cannot.
const TREND_RECENT: usize = 2;

/// How much worse (direction-aware ratio against the best earlier entry)
/// a metric must be, across all of the last [`TREND_RECENT`] entries, to
/// count as a sustained regression.
const TREND_REGRESSION_LIMIT: f64 = 1.5;

/// Headline metrics tracked in the bench history, with their direction
/// (`true` = higher is better). Entries missing a metric (e.g. runs
/// without a serve report) are skipped for that metric's series.
const TREND_METRICS: [(&str, bool); 6] = [
    ("svm_fit_ns_per_fit", false),
    ("context_readings_per_s", true),
    ("detector_push_readings_per_s", true),
    ("serve_fetch_p50_ns", false),
    ("serve_fetches_per_s", true),
    ("failover_recovery_p99_ns", false),
];

fn load(path: &str) -> Result<Value, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

fn check(report: &Value, floor: &Value) -> Result<(), String> {
    if report.get("obs_enabled").and_then(Value::as_bool) != Some(true) {
        return Err("report was produced without the obs feature (obs_enabled != true); \
             rebuild probe with --features obs"
            .into());
    }

    let stages = report
        .get("stages")
        .and_then(Value::as_object)
        .ok_or("report has no stages object".to_string())?;
    for name in REQUIRED_STAGES {
        let calls = stages
            .get(name)
            .and_then(|s| s.get("calls"))
            .and_then(Value::as_u64)
            .ok_or(format!("stage timer {name:?} missing from report"))?;
        if calls == 0 {
            return Err(format!("stage timer {name:?} recorded zero calls"));
        }
    }

    let measured = report
        .get("svm_fit")
        .and_then(|s| s.get("cached_ns_per_fit"))
        .and_then(Value::as_f64)
        .ok_or("report has no svm_fit.cached_ns_per_fit".to_string())?;
    let floor_ns = floor
        .get("svm_fit_ns_per_fit")
        .and_then(Value::as_f64)
        .ok_or("floor file has no svm_fit_ns_per_fit".to_string())?;
    if measured > SVM_FIT_REGRESSION_LIMIT * floor_ns {
        return Err(format!(
            "svm_fit regressed: {:.2} ms measured vs {:.2} ms floor (> {SVM_FIT_REGRESSION_LIMIT}x)",
            measured / 1e6,
            floor_ns / 1e6
        ));
    }
    let serial_rate = report
        .get("context_build")
        .and_then(|b| b.get("serial_readings_per_sec"))
        .and_then(Value::as_f64)
        .ok_or("report has no context_build.serial_readings_per_sec".to_string())?;
    let floor_seconds = floor
        .get("context_build_seconds")
        .and_then(Value::as_f64)
        .ok_or("floor file has no context_build_seconds".to_string())?;
    let floor_readings = floor
        .get("context_build_readings")
        .and_then(Value::as_f64)
        .ok_or("floor file has no context_build_readings".to_string())?;
    let implied_rate = floor_readings / floor_seconds;
    if serial_rate < implied_rate / CONTEXT_BUILD_REGRESSION_LIMIT {
        return Err(format!(
            "context build regressed: {serial_rate:.0} readings/s serial vs \
             {implied_rate:.0} implied floor (> {CONTEXT_BUILD_REGRESSION_LIMIT}x slower)"
        ));
    }

    let push_rate = report
        .get("detector_push")
        .and_then(|d| d.get("readings_per_s"))
        .and_then(Value::as_f64)
        .ok_or("report has no detector_push.readings_per_s".to_string())?;
    let push_floor = floor
        .get("detector_push_readings_per_s")
        .and_then(Value::as_f64)
        .ok_or("floor file has no detector_push_readings_per_s".to_string())?;
    if push_rate < push_floor / DETECTOR_PUSH_REGRESSION_LIMIT {
        return Err(format!(
            "detector ingest regressed: {push_rate:.0} readings/s vs {push_floor:.0} floor \
             (> {DETECTOR_PUSH_REGRESSION_LIMIT}x slower)"
        ));
    }

    eprintln!(
        "gate ok: all {} stage timers present; svm_fit {:.2} ms vs {:.2} ms floor; \
         context build {serial_rate:.0} readings/s vs {implied_rate:.0} implied floor; \
         detector push {push_rate:.0} readings/s vs {push_floor:.0} floor",
        REQUIRED_STAGES.len(),
        measured / 1e6,
        floor_ns / 1e6
    );
    Ok(())
}

fn check_serve(report: &Value, floor: &Value) -> Result<(), String> {
    let field = |name: &str| {
        report.get(name).and_then(Value::as_f64).ok_or(format!("serve report has no {name}"))
    };
    let errors = field("protocol_errors")?;
    if errors != 0.0 {
        return Err(format!("serve load run recorded {errors} protocol errors"));
    }
    let clients = field("clients")? as u64;
    if clients < SERVE_MIN_CLIENTS {
        return Err(format!(
            "serve load run used {clients} clients; the smoke needs >= {SERVE_MIN_CLIENTS}"
        ));
    }
    let saved = field("delta_bytes_saved_fraction")?;
    if saved < SERVE_DELTA_SAVINGS_FLOOR {
        return Err(format!(
            "delta fetches saved only {:.0}% of full-fetch bytes (floor {:.0}%)",
            saved * 100.0,
            SERVE_DELTA_SAVINGS_FLOOR * 100.0
        ));
    }
    let p50 = field("fetch_p50_ns")?;
    let floor_ns = floor
        .get("serve_fetch_p50_ns")
        .and_then(Value::as_f64)
        .ok_or("floor file has no serve_fetch_p50_ns".to_string())?;
    if p50 > SERVE_FETCH_REGRESSION_LIMIT * floor_ns {
        return Err(format!(
            "serve fetch p50 regressed: {:.3} ms measured vs {:.3} ms floor \
             (> {SERVE_FETCH_REGRESSION_LIMIT}x)",
            p50 / 1e6,
            floor_ns / 1e6
        ));
    }

    // Throughput phase: enough concurrency, enough capacity, and the
    // cached hot path actually taken.
    let connections = field("connections")? as u64;
    if connections < SERVE_MIN_CONNECTIONS {
        return Err(format!(
            "throughput phase held {connections} connections; needs >= {SERVE_MIN_CONNECTIONS}"
        ));
    }
    let fetches_per_s = field("fetches_per_s")?;
    let rate_floor = floor
        .get("serve_fetches_per_s")
        .and_then(Value::as_f64)
        .ok_or("floor file has no serve_fetches_per_s".to_string())?;
    if fetches_per_s < rate_floor {
        return Err(format!(
            "serve throughput regressed: {fetches_per_s:.0} fetches/s vs {rate_floor:.0} floor"
        ));
    }
    let hit_rate = field("cache_hit_rate")?;
    if hit_rate < SERVE_CACHE_HIT_RATE_FLOOR {
        return Err(format!(
            "response cache hit rate {:.1}% is below the {:.0}% steady-state floor",
            hit_rate * 100.0,
            SERVE_CACHE_HIT_RATE_FLOOR * 100.0
        ));
    }

    eprintln!(
        "gate ok: serve load {clients} clients, 0 protocol errors, p50 {:.3} ms vs {:.3} ms \
         floor, deltas save {:.0}%; {fetches_per_s:.0} fetches/s at {connections} connections \
         vs {rate_floor:.0} floor, cache {:.1}% hits",
        p50 / 1e6,
        floor_ns / 1e6,
        saved * 100.0,
        hit_rate * 100.0
    );
    Ok(())
}

fn check_obs(report: &Value) -> Result<(), String> {
    if report.get("obs_enabled").and_then(Value::as_bool) != Some(true) {
        return Err("serve report was produced without the obs feature (obs_enabled != true); \
             rebuild serve_load with --features obs"
            .into());
    }
    let overhead = report.get("obs_overhead").and_then(Value::as_object).ok_or(
        "serve report has no obs_overhead table; rerun serve_load with --obs-overhead".to_string(),
    )?;
    let field = |name: &str| {
        overhead.get(name).and_then(Value::as_f64).ok_or(format!("obs_overhead has no {name}"))
    };
    let off = field("fetch_p50_off_ns")?;
    let on = field("fetch_p50_on_ns")?;
    if off <= 0.0 {
        return Err("obs_overhead recorded a zero disabled-p50; the A/B blocks did not run".into());
    }
    let ceiling = off.mul_add(1.0 + OBS_OVERHEAD_CEILING, OBS_OVERHEAD_SLACK_NS);
    if on > ceiling {
        return Err(format!(
            "obs recording overhead too high: fetch p50 {:.1} µs enabled vs {:.1} µs disabled \
             (ceiling {:.1} µs = +{:.0}% + {:.0} µs slack)",
            on / 1e3,
            off / 1e3,
            ceiling / 1e3,
            OBS_OVERHEAD_CEILING * 100.0,
            OBS_OVERHEAD_SLACK_NS / 1e3
        ));
    }
    // The ceiling means nothing if recording silently stopped: the server
    // snapshot in the same report must still carry the serve_handle
    // histogram the load phase populated.
    let handle_count = report
        .get("obs")
        .and_then(|o| o.get("server"))
        .and_then(|s| s.get("endpoints"))
        .and_then(|e| e.get("serve_handle"))
        .and_then(|h| h.get("count"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if handle_count == 0 {
        return Err("serve report's obs.server.endpoints has no populated serve_handle \
             histogram; recording was not active during the load run"
            .into());
    }
    eprintln!(
        "gate ok: obs fetch p50 {:.1} µs enabled vs {:.1} µs disabled (ceiling {:.1} µs), \
         serve_handle histogram holds {handle_count} samples",
        on / 1e3,
        off / 1e3,
        ceiling / 1e3
    );
    Ok(())
}

fn check_ingest(report: &Value, floor: &Value) -> Result<(), String> {
    let field = |name: &str| {
        report.get(name).and_then(Value::as_f64).ok_or(format!("ingest report has no {name}"))
    };
    for (name, why) in [
        ("upload_errors", "an upload failed on the clean path"),
        ("duplicates_materialized", "a duplicate ack materialized readings"),
    ] {
        let v = field(name)?;
        if v != 0.0 {
            return Err(format!("ingest report recorded {name} = {v}: {why}"));
        }
    }
    let acked = field("uploads_acked")?;
    if acked == 0.0 {
        return Err("ingest report acked zero uploads; the phase did not run".into());
    }
    if field("upload_duplicate_acks")? == 0.0 {
        return Err("ingest report has no duplicate acks; the idempotency probe never ran".into());
    }
    let uploads_per_s = field("uploads_per_s")?;
    let rate_floor = floor
        .get("ingest_uploads_per_s")
        .and_then(Value::as_f64)
        .ok_or("floor file has no ingest_uploads_per_s".to_string())?;
    if uploads_per_s < rate_floor {
        return Err(format!(
            "ingest throughput regressed: {uploads_per_s:.0} uploads/s vs {rate_floor:.0} floor"
        ));
    }
    let refit_ns = field("refit_ns")?;
    let refit_ceiling = floor
        .get("ingest_refit_ns_ceiling")
        .and_then(Value::as_f64)
        .ok_or("floor file has no ingest_refit_ns_ceiling".to_string())?;
    if refit_ns > refit_ceiling {
        return Err(format!(
            "incremental refit too slow: {:.1} ms vs {:.1} ms ceiling",
            refit_ns / 1e6,
            refit_ceiling / 1e6
        ));
    }
    let epoch_before = field("epoch_before")?;
    let epoch_after = field("epoch_after")?;
    if epoch_after <= epoch_before {
        return Err(format!(
            "refit did not bump the epoch: {epoch_before} before vs {epoch_after} after"
        ));
    }
    let observed = field("delta_observed_epoch")?;
    if observed != epoch_after {
        return Err(format!(
            "delta fetch observed epoch {observed}, expected the refit epoch {epoch_after}"
        ));
    }
    eprintln!(
        "gate ok: ingest {acked:.0} uploads acked at {uploads_per_s:.0}/s vs {rate_floor:.0} \
         floor, 0 errors, refit {:.1} ms vs {:.1} ms ceiling, epoch {epoch_before:.0} -> \
         {epoch_after:.0} observed by delta fetch",
        refit_ns / 1e6,
        refit_ceiling / 1e6
    );
    Ok(())
}

fn check_chaos(report: &Value, floor: &Value) -> Result<(), String> {
    let field = |name: &str| {
        report.get(name).and_then(Value::as_f64).ok_or(format!("chaos report has no {name}"))
    };
    if report.get("fault_enabled").and_then(Value::as_bool) != Some(true) {
        return Err("chaos report was produced without the fault feature \
             (fault_enabled != true); rebuild chaos_soak with --features fault"
            .into());
    }
    // Invariants: a chaotic run must stay typed, conservative, and alive.
    for (name, why) in [
        ("panics", "client thread panicked under injected faults"),
        ("protocol_violations", "undecodable response reached the client"),
        ("incorrect_safe_decisions", "a decision claimed safe when it must not"),
    ] {
        let v = field(name)?;
        if v != 0.0 {
            return Err(format!("chaos soak recorded {name} = {v}: {why}"));
        }
    }
    // Coverage: every fault category and every hardened path must have
    // actually fired, or the soak proved nothing.
    for name in [
        "transport_refused",
        "transport_corrupted",
        "transport_short_writes",
        "transport_dropped",
        "transport_stalled",
        "sensor_stuck",
        "sensor_dropped",
        "sensor_bursts",
        "retries_total",
        "breaker_opens",
        "decisions_during_outage",
        "conservative_overrides",
    ] {
        if field(name)? == 0.0 {
            return Err(format!("chaos soak never exercised {name} (count is zero)"));
        }
    }
    let clients = field("clients")?;
    let recovered = field("clients_recovered")?;
    if recovered < clients {
        return Err(format!("only {recovered} of {clients} clients recovered after the outage"));
    }
    let p99 = field("recovery_p99_ns")?;
    let ceiling = floor
        .get("chaos_recovery_p99_ns")
        .and_then(Value::as_f64)
        .ok_or("floor file has no chaos_recovery_p99_ns".to_string())?;
    if p99 > ceiling {
        return Err(format!(
            "chaos recovery p99 too slow: {:.1} ms vs {:.1} ms ceiling",
            p99 / 1e6,
            ceiling / 1e6
        ));
    }
    // The crowd-sourcing loop under faults: batches acked, the WAL replay
    // kept them, nothing ingested twice, and the refit reached every
    // client.
    let uploads_acked = field("uploads_acked")?;
    if uploads_acked == 0.0 {
        return Err("chaos soak acked zero uploads (the upload phase proved nothing)".into());
    }
    let wal_recovered = field("wal_recovered_batches")?;
    if wal_recovered < uploads_acked {
        return Err(format!(
            "WAL replay lost acked batches: {wal_recovered} recovered < {uploads_acked} acked"
        ));
    }
    let dup = field("ingest_duplicates_materialized")?;
    if dup != 0.0 {
        return Err(format!("chaos soak materialized {dup} duplicate-ingested readings"));
    }
    if field("clients_observed_refit")? < clients {
        return Err("not every chaos client observed the refitted model's epoch".into());
    }
    eprintln!(
        "gate ok: chaos soak {clients} clients all recovered, {} faults injected, \
         0 panics/violations/unsafe decisions, recovery p99 {:.1} ms vs {:.1} ms ceiling",
        (field("transport_refused")?
            + field("transport_corrupted")?
            + field("transport_short_writes")?
            + field("transport_dropped")?
            + field("transport_stalled")?
            + field("sensor_stuck")?
            + field("sensor_dropped")?
            + field("sensor_bursts")?),
        p99 / 1e6,
        ceiling / 1e6
    );
    Ok(())
}

fn check_failover(report: &Value, floor: &Value) -> Result<(), String> {
    let field = |name: &str| {
        report.get(name).and_then(Value::as_f64).ok_or(format!("failover report has no {name}"))
    };
    if report.get("fault_enabled").and_then(Value::as_bool) != Some(true) {
        return Err("failover report was produced without the fault feature \
             (fault_enabled != true); rebuild failover_drill with --features fault"
            .into());
    }
    // Every scripted scenario must have completed, or the drill proved a
    // weaker claim than the report's name suggests.
    for name in [
        "scenario_kill_follower",
        "scenario_rebind",
        "scenario_stale_follower",
        "scenario_leader_loss",
    ] {
        if report.get(name).and_then(Value::as_bool) != Some(true) {
            return Err(format!("failover drill did not complete {name}"));
        }
    }
    // Invariants: replica deaths must never surface as panics, garbage
    // frames, or an optimistic "safe".
    for (name, why) in [
        ("panics", "client thread panicked during a failover scenario"),
        ("protocol_violations", "undecodable response reached the client"),
        ("incorrect_safe_decisions", "a decision claimed safe when it must not"),
    ] {
        let v = field(name)?;
        if v != 0.0 {
            return Err(format!("failover drill recorded {name} = {v}: {why}"));
        }
    }
    let clients = field("clients")?;
    let converged = field("clients_converged")?;
    if converged < clients {
        return Err(format!(
            "only {converged} of {clients} clients converged to the post-failover epoch"
        ));
    }
    // Coverage: the rotation, the follower sync loop, and the recovery
    // timers must all have actually fired.
    for (name, why) in [
        ("failovers_total", "no client ever rotated off a dead replica"),
        ("follower_installs_total", "followers never installed a replicated epoch"),
        ("follower_sync_errors_total", "follower sync loops never erred against the dead leader"),
        ("recovery_samples", "no recovery was timed"),
    ] {
        if field(name)? == 0.0 {
            return Err(format!("failover drill never exercised {name}: {why}"));
        }
    }
    let p99 = field("recovery_p99_ns")?;
    let ceiling = floor
        .get("failover_recovery_p99_ns")
        .and_then(Value::as_f64)
        .ok_or("floor file has no failover_recovery_p99_ns".to_string())?;
    if p99 > ceiling {
        return Err(format!(
            "failover recovery p99 too slow: {:.1} ms vs {:.1} ms ceiling",
            p99 / 1e6,
            ceiling / 1e6
        ));
    }
    eprintln!(
        "gate ok: failover drill {clients} clients over {} scenarios, {} failovers, \
         all converged to epoch {}, 0 panics/violations/unsafe decisions, \
         recovery p99 {:.1} ms vs {:.1} ms ceiling",
        4,
        field("failovers_total")?,
        field("epoch_converged")?,
        p99 / 1e6,
        ceiling / 1e6
    );
    Ok(())
}

/// Evaluates the declarative fleet SLOs over an observer timeline and
/// prints one verdict line per objective. Fails when the timeline is
/// missing or empty (an observer that never ticked proves nothing) or
/// when any objective is breached.
fn check_slo(path: &str) -> Result<waldo_bench::slo::SloReport, String> {
    use waldo_bench::slo::{evaluate, parse_timeline, SloSet};
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ticks = parse_timeline(&text);
    if ticks.is_empty() {
        return Err(format!("{path} holds no parseable timeline ticks; did the observer run?"));
    }
    let report = evaluate(&ticks, &SloSet::default());
    for result in &report.results {
        eprintln!("gate slo {result}");
    }
    if let Some(failed) = report.results.iter().find(|r| !r.pass) {
        return Err(format!("fleet SLO {} breached: {}", failed.name, failed.detail));
    }
    eprintln!(
        "gate ok: fleet SLOs held over {} observer ticks (replication catch-up p99 {} ms)",
        report.ticks, report.repl_lag_ms_p99,
    );
    Ok(report)
}

/// One compact history line: the headline rate/latency metrics of this
/// gate run, stamped with wall-clock seconds. Only metrics whose source
/// report was supplied appear, so the trend series stay honest.
fn history_entry(
    report: &Value,
    serve: Option<&Value>,
    failover: Option<&Value>,
    slo: Option<&waldo_bench::slo::SloReport>,
) -> Value {
    let mut entry = Map::new();
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    entry.insert("ts", Value::from(ts as f64));
    let mut put = |key: &str, value: Option<f64>| {
        if let Some(v) = value {
            entry.insert(key, Value::from(v));
        }
    };
    put(
        "svm_fit_ns_per_fit",
        report.get("svm_fit").and_then(|s| s.get("cached_ns_per_fit")).and_then(Value::as_f64),
    );
    put(
        "context_readings_per_s",
        report
            .get("context_build")
            .and_then(|b| b.get("serial_readings_per_sec"))
            .and_then(Value::as_f64),
    );
    put(
        "detector_push_readings_per_s",
        report.get("detector_push").and_then(|d| d.get("readings_per_s")).and_then(Value::as_f64),
    );
    if let Some(serve) = serve {
        put("serve_fetch_p50_ns", serve.get("fetch_p50_ns").and_then(Value::as_f64));
        put("serve_fetches_per_s", serve.get("fetches_per_s").and_then(Value::as_f64));
        // The enabled-vs-disabled recording cost as a fraction, when the
        // A/B table is present: the headline number behind the <5% + 20µs
        // obs ceiling, trended so creep below the hard gate is visible.
        let off = serve
            .get("obs_overhead")
            .and_then(|o| o.get("fetch_p50_off_ns"))
            .and_then(Value::as_f64);
        let on = serve
            .get("obs_overhead")
            .and_then(|o| o.get("fetch_p50_on_ns"))
            .and_then(Value::as_f64);
        if let (Some(off), Some(on)) = (off, on) {
            if off > 0.0 {
                put("obs_overhead_frac", Some((on - off) / off));
            }
        }
    }
    if let Some(failover) = failover {
        put("failover_recovery_p99_ns", failover.get("recovery_p99_ns").and_then(Value::as_f64));
    }
    if let Some(slo) = slo {
        put("fleet_repl_lag_ms_p99", Some(slo.repl_lag_ms_p99 as f64));
    }
    Value::Object(entry)
}

/// Appends `entry` as one JSONL line and returns the full series,
/// oldest first (unparseable lines are reported, not skipped silently —
/// a corrupt history should be noticed, not eroded). An entry whose `ts`
/// equals the newest entry's is refused: it is the same run recorded
/// twice, and the trend guard would compare that run with itself.
fn append_history(path: &str, entry: &Value) -> Result<Vec<Value>, String> {
    let mut entries = Vec::new();
    match std::fs::read_to_string(path) {
        Ok(text) => {
            for (i, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let parsed: Value = serde_json::from_str(line)
                    .map_err(|e| format!("{path}:{}: unparseable history line: {e:?}", i + 1))?;
                entries.push(parsed);
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    }
    let ts = |e: &Value| e.get("ts").and_then(Value::as_f64);
    if let (Some(newest), Some(new)) = (entries.last().and_then(ts), ts(entry)) {
        if newest == new {
            return Err(format!(
                "{path}: refusing a second history entry with ts {new}: the newest entry already records this run"
            ));
        }
    }
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {parent:?}: {e}"))?;
        }
    }
    let line = serde_json::to_string(entry).map_err(|e| format!("cannot encode entry: {e:?}"))?;
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path} for append: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot append to {path}: {e}"))?;
    entries.push(entry.clone());
    Ok(entries)
}

/// The sustained-regression guard: for each tracked metric, fail when all
/// of the last [`TREND_RECENT`] entries are worse than the best earlier
/// entry by more than [`TREND_REGRESSION_LIMIT`]×. One bad run never
/// fires it; series shorter than `TREND_RECENT + 1` always pass.
fn check_trend(entries: &[Value]) -> Result<(), String> {
    let mut checked = 0usize;
    for (key, higher_is_better) in TREND_METRICS {
        let series: Vec<f64> =
            entries.iter().filter_map(|e| e.get(key).and_then(Value::as_f64)).collect();
        if series.len() <= TREND_RECENT {
            continue;
        }
        checked += 1;
        let (earlier, recent) = series.split_at(series.len() - TREND_RECENT);
        let best = earlier
            .iter()
            .copied()
            .reduce(|a, b| if higher_is_better { a.max(b) } else { a.min(b) })
            .expect("earlier is non-empty");
        let worse = |v: f64| {
            if higher_is_better {
                v * TREND_REGRESSION_LIMIT < best
            } else {
                v > best * TREND_REGRESSION_LIMIT
            }
        };
        if recent.iter().all(|&v| worse(v)) {
            return Err(format!(
                "sustained regression in {key}: last {TREND_RECENT} entries {recent:?} are all \
                 worse than the best earlier entry {best:.1} by more than \
                 {TREND_REGRESSION_LIMIT}x"
            ));
        }
    }
    eprintln!(
        "gate ok: bench history trend clean over {} entries ({checked} metrics deep enough \
         to judge)",
        entries.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut failover_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--failover") {
        if pos + 1 >= args.len() {
            eprintln!("--failover needs a path");
            return ExitCode::FAILURE;
        }
        failover_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut history_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--history") {
        if pos + 1 >= args.len() {
            eprintln!("--history needs a path");
            return ExitCode::FAILURE;
        }
        history_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut chaos_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--chaos") {
        if pos + 1 >= args.len() {
            eprintln!("--chaos needs a path");
            return ExitCode::FAILURE;
        }
        chaos_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut ingest_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--ingest") {
        if pos + 1 >= args.len() {
            eprintln!("--ingest needs a path");
            return ExitCode::FAILURE;
        }
        ingest_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut slo_path = None;
    if let Some(pos) = args.iter().position(|a| a == "--slo") {
        if pos + 1 >= args.len() {
            eprintln!("--slo needs a path");
            return ExitCode::FAILURE;
        }
        slo_path = Some(args.remove(pos + 1));
        args.remove(pos);
    }
    let mut want_obs = false;
    if let Some(pos) = args.iter().position(|a| a == "--obs") {
        want_obs = true;
        args.remove(pos);
    }
    let (report_path, floor_path, serve_path) = match args.as_slice() {
        [report, floor] => (report, floor, None),
        [report, floor, serve] => (report, floor, Some(serve)),
        _ => {
            eprintln!(
                "usage: gate <report.json> <floor.json> [serve_report.json] [--obs] \
                 [--ingest ingest.json] [--chaos chaos.json] [--failover failover.json] \
                 [--slo fleet_timeline.jsonl] [--history history.jsonl]"
            );
            return ExitCode::FAILURE;
        }
    };
    if want_obs && serve_path.is_none() {
        eprintln!("--obs checks the serve report; pass serve_report.json as the third argument");
        return ExitCode::FAILURE;
    }
    let run = || -> Result<(), String> {
        let report = load(report_path)?;
        let floor = load(floor_path)?;
        check(&report, &floor)?;
        let mut serve_report = None;
        if let Some(serve_path) = serve_path {
            let loaded = load(serve_path)?;
            check_serve(&loaded, &floor)?;
            if want_obs {
                check_obs(&loaded)?;
            }
            serve_report = Some(loaded);
        }
        if let Some(ingest_path) = &ingest_path {
            check_ingest(&load(ingest_path)?, &floor)?;
        }
        if let Some(chaos_path) = &chaos_path {
            check_chaos(&load(chaos_path)?, &floor)?;
        }
        let mut failover_report = None;
        if let Some(failover_path) = &failover_path {
            let loaded = load(failover_path)?;
            check_failover(&loaded, &floor)?;
            failover_report = Some(loaded);
        }
        let mut slo_report = None;
        if let Some(slo_path) = &slo_path {
            slo_report = Some(check_slo(slo_path)?);
        }
        // History last: only runs that passed every ratio gate feed the
        // trend series, so the guard judges regressions among good runs
        // rather than re-flagging failures the gates above already caught.
        if let Some(history_path) = &history_path {
            let entry = history_entry(
                &report,
                serve_report.as_ref(),
                failover_report.as_ref(),
                slo_report.as_ref(),
            );
            let entries = append_history(history_path, &entry)?;
            check_trend(&entries)?;
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gate FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn append_history_refuses_a_repeated_newest_ts() {
        let path = std::env::temp_dir().join(format!("gate_history_{}.jsonl", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        let _ = std::fs::remove_file(path);
        assert_eq!(
            append_history(path, &json!({"ts": 1.0, "svm_fit_ns_per_fit": 5.0})).unwrap().len(),
            1
        );
        let err = append_history(path, &json!({"ts": 1.0, "svm_fit_ns_per_fit": 5.0})).unwrap_err();
        assert!(err.contains("ts 1"), "{err}");
        let entries = append_history(path, &json!({"ts": 2.0, "svm_fit_ns_per_fit": 6.0})).unwrap();
        assert_eq!(entries.len(), 2, "the refused entry must not reach the file");
        std::fs::remove_file(path).unwrap();
    }
}
