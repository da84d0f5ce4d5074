//! CI gate over the bench reports (`probe`, `serve_load`, `chaos_soak`,
//! `failover_drill`) and a fleet observer timeline. Usage: see [`USAGE`].
//!
//! The rules are the [`RULES`] table: the gate exits 1 when a rule of a
//! supplied report fails or its field is missing. `--obs` adds the `obs`
//! rules over the serve report, `--slo` evaluates the [`waldo_bench::slo`]
//! objectives, and `--history` appends a ledger line once all of that
//! passed, then runs [`check_trend`].

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Map, Value};

use Bound::{Const, Field, Floor, FloorRatio};
use Check::{Eq, Ge, Gt, IsTrue, Le};

/// Allowed ratio of `svm_fit` time to its floor; catches a return to O(n²) passes.
const SVM_FIT_REGRESSION_LIMIT: f64 = 2.0;
/// Allowed slowdown of the serial context-build rate against the floor's
/// implied rate; rate-based so quick smokes and full runs gate alike.
const CONTEXT_BUILD_REGRESSION_LIMIT: f64 = 2.0;
/// Allowed slowdown of the detector ingest rate against its floor.
const DETECTOR_PUSH_REGRESSION_LIMIT: f64 = 2.0;
/// Allowed ratio of fetch p50 to its floor; loopback under 16 clients is noisy.
const SERVE_FETCH_REGRESSION_LIMIT: f64 = 10.0;
/// Minimum share of full-fetch bytes a delta fetch must save.
const SERVE_DELTA_SAVINGS_FLOOR: f64 = 0.5;
/// Fewest concurrent clients that make a serve run a concurrency smoke.
const SERVE_MIN_CLIENTS: u64 = 16;
/// Fewest keep-alive connections the throughput phase must hold.
const SERVE_MIN_CONNECTIONS: u64 = 256;
/// Minimum steady-state hit rate of the pre-encoded response cache.
const SERVE_CACHE_HIT_RATE_FLOOR: f64 = 0.90;
/// Allowed relative rise of the fetch p50 with obs recording on versus off.
const OBS_OVERHEAD_CEILING: f64 = 0.05;
/// Absolute slack on the obs ceiling: one preemption outweighs 5% of a fetch.
const OBS_OVERHEAD_SLACK_NS: f64 = 20_000.0;
/// Newest history entries that must *all* be worse for the trend guard to fire.
const TREND_RECENT: usize = 2;
/// How much worse than the best earlier entry counts as a sustained regression.
const TREND_REGRESSION_LIMIT: f64 = 1.5;

/// One gate rule: `field` (a dotted path into `report`) must pass `check`.
#[derive(Clone, Copy)]
struct Rule {
    report: &'static str,
    field: &'static str,
    check: Check,
    why: &'static str,
    /// Bench-history key the measured value is recorded and trended under.
    history: Option<&'static str>,
}

#[derive(Clone, Copy)]
enum Check {
    Eq(Bound),
    Ge(Bound),
    Le(Bound),
    Gt(Bound),
    IsTrue,
}

#[derive(Clone, Copy, Debug)]
enum Bound {
    Const(f64),
    /// A floor-file key times a factor.
    Floor(&'static str, f64),
    /// The ratio of two floor-file keys times a factor.
    FloorRatio(&'static str, &'static str, f64),
    /// Another field of the same report times a factor plus an offset.
    Field(&'static str, f64, f64),
}

const fn rule(report: &'static str, field: &'static str, check: Check, why: &'static str) -> Rule {
    Rule { report, field, check, why, history: None }
}

impl Rule {
    const fn history(self, key: &'static str) -> Rule {
        Rule { history: Some(key), ..self }
    }

    /// Why the rule does not hold on `report`, if it does not.
    fn verify(&self, report: &Value, floor: &Value) -> Result<(), String> {
        let Rule { report: name, field, check, why, .. } = *self;
        let (op, bound, holds): (_, _, fn(f64, f64) -> bool) = match check {
            IsTrue if lookup(report, field).and_then(Value::as_bool) == Some(true) => return Ok(()),
            IsTrue => return Err(format!("{name} report: {field} is not true: {why}")),
            Eq(b) => ("==", b, |v, limit| v == limit),
            Ge(b) => (">=", b, |v, limit| v >= limit),
            Le(b) => ("<=", b, |v, limit| v <= limit),
            Gt(b) => (">", b, |v, limit| v > limit),
        };
        let value = number(report, field, name).map_err(|e| format!("{e}: {why}"))?;
        let limit = bound.resolve(name, report, floor)?;
        if holds(value, limit) {
            return Ok(());
        }
        Err(format!("{name} report: {field} = {value} fails {op} {limit} ({bound:?}): {why}"))
    }
}

const fn field(path: &'static str) -> Bound {
    Field(path, 1.0, 0.0)
}

const ZERO: Bound = Const(0.0);
const STAGE_TIMER: &str = "the stage timer lost its instrumentation";
const UNEXERCISED: &str = "never fired, so the soak proved nothing";
const SCENARIO: &str = "the drill skipped a scripted scenario";
const UNSAFE: &str = "a decision claimed safe when it must not";

const RULES: &[Rule] = &[
    rule("pipeline", "obs_enabled", IsTrue, "rebuild probe with --features obs"),
    rule("pipeline", "stages.synth.calls", Gt(ZERO), STAGE_TIMER),
    rule("pipeline", "stages.fft_features.calls", Gt(ZERO), STAGE_TIMER),
    rule("pipeline", "stages.label.calls", Gt(ZERO), STAGE_TIMER),
    rule("pipeline", "stages.kmeans.calls", Gt(ZERO), STAGE_TIMER),
    rule("pipeline", "stages.svm_fit.calls", Gt(ZERO), STAGE_TIMER),
    rule("pipeline", "stages.cv.calls", Gt(ZERO), STAGE_TIMER),
    rule(
        "pipeline",
        "svm_fit.cached_ns_per_fit",
        Le(Floor("svm_fit_ns_per_fit", SVM_FIT_REGRESSION_LIMIT)),
        "the error-cached SMO regressed",
    )
    .history("svm_fit_ns_per_fit"),
    rule(
        "pipeline",
        "context_build.serial_readings_per_sec",
        Ge(FloorRatio(
            "context_build_readings",
            "context_build_seconds",
            1.0 / CONTEXT_BUILD_REGRESSION_LIMIT,
        )),
        "the fused measurement pipeline regressed",
    )
    .history("context_readings_per_s"),
    rule(
        "pipeline",
        "detector_push.readings_per_s",
        Ge(Floor("detector_push_readings_per_s", 1.0 / DETECTOR_PUSH_REGRESSION_LIMIT)),
        "the online detector ingest regressed",
    )
    .history("detector_push_readings_per_s"),
    rule("serve", "protocol_errors", Eq(ZERO), "the load run hit a protocol error"),
    rule("serve", "clients", Ge(Const(SERVE_MIN_CLIENTS as f64)), "not a concurrency smoke"),
    rule(
        "serve",
        "delta_bytes_saved_fraction",
        Ge(Const(SERVE_DELTA_SAVINGS_FLOOR)),
        "delta fetches stopped skipping unchanged localities",
    ),
    rule(
        "serve",
        "fetch_p50_ns",
        Le(Floor("serve_fetch_p50_ns", SERVE_FETCH_REGRESSION_LIMIT)),
        "serve fetch latency regressed",
    )
    .history("serve_fetch_p50_ns"),
    rule("serve", "connections", Ge(Const(SERVE_MIN_CONNECTIONS as f64)), "too few connections"),
    rule("serve", "fetches_per_s", Ge(Floor("serve_fetches_per_s", 1.0)), "throughput regressed")
        .history("serve_fetches_per_s"),
    rule("serve", "cache_hit_rate", Ge(Const(SERVE_CACHE_HIT_RATE_FLOOR)), "cache mostly missed"),
    rule("obs", "obs_enabled", IsTrue, "rebuild serve_load with --features obs"),
    rule("obs", "obs_overhead.fetch_p50_off_ns", Gt(ZERO), "rerun serve_load --obs-overhead"),
    rule(
        "obs",
        "obs_overhead.fetch_p50_on_ns",
        Le(Field(
            "obs_overhead.fetch_p50_off_ns",
            1.0 + OBS_OVERHEAD_CEILING,
            OBS_OVERHEAD_SLACK_NS,
        )),
        "obs recording overhead too high",
    ),
    rule("obs", "obs.server.endpoints.serve_handle.count", Gt(ZERO), "recording was not active"),
    rule("ingest", "upload_errors", Eq(ZERO), "an upload failed on the clean path"),
    rule("ingest", "duplicates_materialized", Eq(ZERO), "a duplicate ack materialized readings"),
    rule("ingest", "uploads_acked", Gt(ZERO), "the upload phase did not run"),
    rule("ingest", "upload_duplicate_acks", Gt(ZERO), "the idempotency probe never ran"),
    rule("ingest", "uploads_per_s", Ge(Floor("ingest_uploads_per_s", 1.0)), "uploads regressed"),
    rule("ingest", "refit_ns", Le(Floor("ingest_refit_ns_ceiling", 1.0)), "refit too slow"),
    rule("ingest", "epoch_after", Gt(field("epoch_before")), "no epoch bump"),
    rule("ingest", "delta_observed_epoch", Eq(field("epoch_after")), "a delta missed the refit"),
    rule("chaos", "fault_enabled", IsTrue, "rebuild chaos_soak with --features fault"),
    rule("chaos", "panics", Eq(ZERO), "a client thread panicked under injected faults"),
    rule("chaos", "protocol_violations", Eq(ZERO), "an undecodable response reached a client"),
    rule("chaos", "incorrect_safe_decisions", Eq(ZERO), UNSAFE),
    rule("chaos", "transport_refused", Gt(ZERO), UNEXERCISED),
    rule("chaos", "transport_corrupted", Gt(ZERO), UNEXERCISED),
    rule("chaos", "transport_short_writes", Gt(ZERO), UNEXERCISED),
    rule("chaos", "transport_dropped", Gt(ZERO), UNEXERCISED),
    rule("chaos", "transport_stalled", Gt(ZERO), UNEXERCISED),
    rule("chaos", "sensor_stuck", Gt(ZERO), UNEXERCISED),
    rule("chaos", "sensor_dropped", Gt(ZERO), UNEXERCISED),
    rule("chaos", "sensor_bursts", Gt(ZERO), UNEXERCISED),
    rule("chaos", "retries_total", Gt(ZERO), UNEXERCISED),
    rule("chaos", "breaker_opens", Gt(ZERO), UNEXERCISED),
    rule("chaos", "decisions_during_outage", Gt(ZERO), UNEXERCISED),
    rule("chaos", "conservative_overrides", Gt(ZERO), UNEXERCISED),
    rule("chaos", "clients_recovered", Ge(field("clients")), "a client never recovered"),
    rule("chaos", "recovery_p99_ns", Le(Floor("chaos_recovery_p99_ns", 1.0)), "recovery too slow"),
    rule("chaos", "uploads_acked", Gt(ZERO), "the upload phase proved nothing"),
    rule("chaos", "wal_recovered_batches", Ge(field("uploads_acked")), "WAL replay lost a batch"),
    rule("chaos", "ingest_duplicates_materialized", Eq(ZERO), "a batch was ingested twice"),
    rule("chaos", "clients_observed_refit", Ge(field("clients")), "a client missed the refit"),
    rule("failover", "fault_enabled", IsTrue, "rebuild failover_drill with --features fault"),
    rule("failover", "scenario_kill_follower", IsTrue, SCENARIO),
    rule("failover", "scenario_rebind", IsTrue, SCENARIO),
    rule("failover", "scenario_stale_follower", IsTrue, SCENARIO),
    rule("failover", "scenario_leader_loss", IsTrue, SCENARIO),
    rule("failover", "panics", Eq(ZERO), "a client thread panicked during a failover scenario"),
    rule("failover", "protocol_violations", Eq(ZERO), "an undecodable response reached a client"),
    rule("failover", "incorrect_safe_decisions", Eq(ZERO), UNSAFE),
    rule("failover", "clients_converged", Ge(field("clients")), "a client never converged"),
    rule("failover", "failovers_total", Gt(ZERO), "no client ever rotated off a dead replica"),
    rule("failover", "follower_installs_total", Gt(ZERO), "no replicated epoch was installed"),
    rule("failover", "follower_sync_errors_total", Gt(ZERO), "sync never erred on the dead leader"),
    rule("failover", "recovery_samples", Gt(ZERO), "no recovery was timed"),
    rule("failover", "recovery_p99_ns", Le(Floor("failover_recovery_p99_ns", 1.0)), "too slow")
        .history("failover_recovery_p99_ns"),
    rule("failover", "epoch_converged", Gt(ZERO), "epoch 0 means the drill names no epoch"),
];

impl Bound {
    fn resolve(self, name: &str, report: &Value, floor: &Value) -> Result<f64, String> {
        Ok(match self {
            Const(v) => v,
            Floor(key, factor) => number(floor, key, "floor")? * factor,
            FloorRatio(num, den, factor) => {
                number(floor, num, "floor")? / number(floor, den, "floor")? * factor
            }
            Field(path, factor, offset) => number(report, path, name)?.mul_add(factor, offset),
        })
    }
}

fn load(path: &str) -> Result<Value, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("cannot parse {path}: {e:?}"))
}

/// The value at a dotted path such as `stages.svm_fit.calls`.
fn lookup<'a>(report: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(report, |value, key| value.get(key))
}

/// The number at `path` in the `name` report (or the floor file).
fn number(report: &Value, path: &str, name: &str) -> Result<f64, String> {
    lookup(report, path).and_then(Value::as_f64).ok_or(format!("{name} report has no {path}"))
}

/// Verifies every rule of report `name`, failing with all that do not hold.
fn check(name: &str, report: &Value, floor: &Value) -> Result<(), String> {
    let rules = RULES.iter().filter(|r| r.report == name);
    let failed: Vec<String> = rules.clone().filter_map(|r| r.verify(report, floor).err()).collect();
    if !failed.is_empty() {
        return Err(failed.join("; "));
    }
    eprintln!("gate ok: all {} {name} rules hold", rules.count());
    Ok(())
}

/// Evaluates the fleet SLOs over an observer timeline, printing one verdict
/// per objective; an empty timeline fails, as an idle observer proves nothing.
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

/// One history line: the history values of the checked reports, stamped
/// with wall-clock seconds, so a series only holds runs that measured it.
fn history_entry(reports: &[(&str, Value)], slo: Option<&waldo_bench::slo::SloReport>) -> Value {
    let mut entry = Map::new();
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    entry.insert("ts", Value::from(ts as f64));
    for (name, report) in reports {
        let value = |path: &str| number(report, path, name).ok();
        for rule in RULES.iter().filter(|r| r.report == *name) {
            if let (Some(key), Some(v)) = (rule.history, value(rule.field)) {
                entry.insert(key, Value::from(v));
            }
        }
        // The obs on-vs-off recording cost as a fraction, recorded (not
        // gated) so creep below the <5% + 20µs ceiling is visible.
        let off = value("obs_overhead.fetch_p50_off_ns").filter(|&off| off > 0.0);
        let on = value("obs_overhead.fetch_p50_on_ns");
        if let (&"serve", Some(off), Some(on)) = (name, off, on) {
            entry.insert("obs_overhead_frac", Value::from((on - off) / off));
        }
    }
    if let Some(slo) = slo {
        entry.insert("fleet_repl_lag_ms_p99", Value::from(slo.repl_lag_ms_p99 as f64));
    }
    Value::Object(entry)
}

/// Appends `entry` as one JSONL line and returns the full series,
/// oldest first (unparseable lines are reported, not skipped silently —
/// a corrupt history should be noticed, not eroded). An entry whose `ts`
/// equals the newest entry's is refused: it is the same run recorded
/// twice, and the trend guard would compare that run with itself.
fn append_history(path: &str, entry: &Value) -> Result<Vec<Value>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()) {
        entries.push(
            serde_json::from_str(line)
                .map_err(|e| format!("{path}:{}: unparseable history line: {e:?}", i + 1))?,
        );
    }
    let ts = |e: &Value| e.get("ts").and_then(Value::as_f64);
    if let (Some(newest), Some(new)) = (entries.last().and_then(ts), ts(entry)) {
        if newest == new {
            return Err(format!(
                "{path}: refusing a second history entry with ts {new}: the newest entry already records this run"
            ));
        }
    }
    let parent = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        std::fs::create_dir_all(parent).map_err(|e| format!("cannot create {parent:?}: {e}"))?;
    }
    let line = serde_json::to_string(entry).map_err(|e| format!("cannot encode entry: {e:?}"))?;
    use std::io::Write;
    let file = std::fs::OpenOptions::new().create(true).append(true).open(path);
    let mut file = file.map_err(|e| format!("cannot open {path} for append: {e}"))?;
    writeln!(file, "{line}").map_err(|e| format!("cannot append to {path}: {e}"))?;
    entries.push(entry.clone());
    Ok(entries)
}

/// The sustained-regression guard: for each rule with a history key, fail
/// when all of the last [`TREND_RECENT`] entries are worse than the best
/// earlier entry by more than [`TREND_REGRESSION_LIMIT`]×. One bad run never
/// fires it, nor does a series of `TREND_RECENT` entries or fewer; entries
/// without the metric are skipped for its series.
fn check_trend(entries: &[Value]) -> Result<(), String> {
    let mut checked = 0usize;
    for rule in RULES {
        let Some(key) = rule.history else { continue };
        // A `>=` or `>` rule's metric is higher-is-better.
        let up = matches!(rule.check, Ge(_) | Gt(_));
        let series: Vec<f64> =
            entries.iter().filter_map(|e| e.get(key).and_then(Value::as_f64)).collect();
        if series.len() <= TREND_RECENT {
            continue;
        }
        checked += 1;
        let (earlier, recent) = series.split_at(series.len() - TREND_RECENT);
        let best = earlier.iter().copied().reduce(if up { f64::max } else { f64::min });
        let (best, limit) = (best.expect("earlier is non-empty"), TREND_REGRESSION_LIMIT);
        if recent.iter().all(|&v| if up { v * limit < best } else { v > best * limit }) {
            return Err(format!(
                "sustained regression in {key}: last {TREND_RECENT} entries {recent:?} are all \
                 worse than the best earlier entry {best:.1} by more than \
                 {TREND_REGRESSION_LIMIT}x"
            ));
        }
    }
    let n = entries.len();
    eprintln!("gate ok: bench history trend clean over {n} entries ({checked} metrics judged)");
    Ok(())
}

const USAGE: &str = "usage: gate <report.json> <floor.json> [serve_report.json] [--obs] \
    [--ingest ingest.json] [--chaos chaos.json] [--failover failover.json] \
    [--slo fleet_timeline.jsonl] [--history history.jsonl]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gate FAILED: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let mut paths: [Option<String>; 5] = Default::default();
    let flags = ["--failover", "--history", "--chaos", "--ingest", "--slo"];
    for (flag, path) in flags.iter().zip(&mut paths) {
        if let Some(pos) = args.iter().position(|a| a == flag) {
            if pos + 1 >= args.len() {
                return Err(format!("{flag} needs a path"));
            }
            *path = Some(args.remove(pos + 1));
            args.remove(pos);
        }
    }
    let [failover_path, history_path, chaos_path, ingest_path, slo_path] = paths;
    let want_obs = args.iter().position(|a| a == "--obs").map(|pos| args.remove(pos)).is_some();
    let (report_path, floor_path, serve_path) = match args.as_slice() {
        [report, floor] => (report, floor, None),
        [report, floor, serve] => (report, floor, Some(serve)),
        _ => return Err(USAGE.into()),
    };
    if want_obs && serve_path.is_none() {
        return Err("--obs checks the serve report; pass serve_report.json too".into());
    }
    let floor = load(floor_path)?;
    let mut reports = Vec::new();
    for (name, path) in [
        ("pipeline", Some(report_path)),
        ("serve", serve_path),
        ("obs", serve_path.filter(|_| want_obs)),
        ("ingest", ingest_path.as_ref()),
        ("chaos", chaos_path.as_ref()),
        ("failover", failover_path.as_ref()),
    ] {
        if let Some(path) = path {
            let report = load(path)?;
            check(name, &report, &floor)?;
            reports.push((name, report));
        }
    }
    let slo_report = slo_path.as_deref().map(check_slo).transpose()?;
    // History last: only runs that passed every rule feed the trend series,
    // so the guard judges regressions among good runs.
    if let Some(history_path) = &history_path {
        let entry = history_entry(&reports, slo_report.as_ref());
        check_trend(&append_history(history_path, &entry)?)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const FLOOR_FILE: &str = include_str!("../../../../scripts/bench_floor.json");

    fn floor() -> Value {
        serde_json::from_str(FLOOR_FILE).expect("bench_floor.json parses")
    }

    /// A passing report for each rule set, with values like a quick run's.
    fn fixture(report: &str) -> Value {
        let stage = json!({ "calls": 3 });
        let endpoints = json!({ "serve_handle": json!({ "count": 4096 }) });
        match report {
            "pipeline" => json!({
                "obs_enabled": true,
                "stages": json!({
                    "synth": stage, "fft_features": stage, "label": stage,
                    "kmeans": stage, "svm_fit": stage, "cv": stage,
                }),
                "svm_fit": json!({ "cached_ns_per_fit": 2.5e6 }),
                "context_build": json!({ "serial_readings_per_sec": 4000.0 }),
                "detector_push": json!({ "readings_per_s": 3.1e6 }),
            }),
            "serve" | "obs" => json!({
                "protocol_errors": 0,
                "clients": 16,
                "delta_bytes_saved_fraction": 0.93,
                "fetch_p50_ns": 420000.0,
                "connections": 256,
                "fetches_per_s": 480000.0,
                "cache_hit_rate": 0.99,
                "obs_enabled": true,
                "obs_overhead": json!({
                    "fetch_p50_off_ns": 300000.0,
                    "fetch_p50_on_ns": 306000.0,
                }),
                "obs": json!({ "server": json!({ "endpoints": endpoints }) }),
            }),
            "ingest" => json!({
                "upload_errors": 0,
                "duplicates_materialized": 0,
                "uploads_acked": 64,
                "upload_duplicate_acks": 8,
                "uploads_per_s": 4300.0,
                "refit_ns": 3.1e7,
                "epoch_before": 1,
                "epoch_after": 2,
                "delta_observed_epoch": 2,
            }),
            "chaos" => json!({
                "fault_enabled": true,
                "panics": 0,
                "protocol_violations": 0,
                "incorrect_safe_decisions": 0,
                "transport_refused": 5,
                "transport_corrupted": 4,
                "transport_short_writes": 3,
                "transport_dropped": 6,
                "transport_stalled": 2,
                "sensor_stuck": 7,
                "sensor_dropped": 9,
                "sensor_bursts": 1,
                "retries_total": 40,
                "breaker_opens": 3,
                "decisions_during_outage": 12,
                "conservative_overrides": 11,
                "clients": 8,
                "clients_recovered": 8,
                "recovery_p99_ns": 5.0e7,
                "uploads_acked": 16,
                "wal_recovered_batches": 16,
                "ingest_duplicates_materialized": 0,
                "clients_observed_refit": 8,
            }),
            "failover" => json!({
                "fault_enabled": true,
                "scenario_kill_follower": true,
                "scenario_rebind": true,
                "scenario_stale_follower": true,
                "scenario_leader_loss": true,
                "panics": 0,
                "protocol_violations": 0,
                "incorrect_safe_decisions": 0,
                "clients": 6,
                "clients_converged": 6,
                "epoch_converged": 2,
                "failovers_total": 5,
                "follower_installs_total": 4,
                "follower_sync_errors_total": 3,
                "recovery_samples": 6,
                "recovery_p99_ns": 6.0e7,
            }),
            other => panic!("no fixture for {other}"),
        }
    }

    /// `report` with the field at dotted `path` replaced by `value`, or
    /// removed when `value` is `None`.
    fn with_field(report: &Value, path: &str, value: Option<&Value>) -> Value {
        let (key, rest) = path.split_once('.').map_or((path, None), |(k, r)| (k, Some(r)));
        let mut out = Map::new();
        for (k, v) in report.as_object().expect("fixtures are objects").iter() {
            match (k == key, rest, value) {
                (false, _, _) => out.insert(k.as_str(), v.clone()),
                (true, Some(rest), _) => out.insert(k.as_str(), with_field(v, rest, value)),
                (true, None, Some(value)) => out.insert(k.as_str(), value.clone()),
                (true, None, None) => {}
            }
        }
        Value::Object(out)
    }

    const REPORTS: [&str; 6] = ["pipeline", "serve", "obs", "ingest", "chaos", "failover"];

    #[test]
    fn every_fixture_passes_all_its_rules() {
        for report in REPORTS {
            check(report, &fixture(report), &floor()).unwrap();
        }
        let counted: usize =
            REPORTS.iter().map(|name| RULES.iter().filter(|r| r.report == *name).count()).sum();
        assert_eq!(counted, RULES.len(), "every rule belongs to one of the six reports");
    }

    #[test]
    fn every_rule_trips_just_past_its_bound_and_when_its_field_is_missing() {
        let floor = floor();
        for rule in RULES {
            let report = fixture(rule.report);
            let past = match rule.check {
                IsTrue => Value::from(false),
                Eq(b) | Ge(b) | Le(b) | Gt(b) => {
                    let limit = b.resolve(rule.report, &report, &floor).unwrap();
                    if !matches!(rule.check, Gt(_)) {
                        // `==`, `>=` and `<=` hold at the bound itself.
                        let at = with_field(&report, rule.field, Some(&Value::from(limit)));
                        check(rule.report, &at, &floor).unwrap();
                    }
                    let nudge = limit.abs().max(1.0) * 1e-9;
                    Value::from(match rule.check {
                        Eq(_) => limit + nudge,
                        Ge(_) => limit - nudge,
                        Le(_) => limit + nudge,
                        _ => limit,
                    })
                }
            };
            let mutated = with_field(&report, rule.field, Some(&past));
            let err = check(rule.report, &mutated, &floor).unwrap_err();
            let named = format!("{} report: {} ", rule.report, rule.field);
            assert!(err.contains(&named), "{past:?} must trip {named:?}: {err}");

            let removed = with_field(&report, rule.field, None);
            assert!(lookup(&removed, rule.field).is_none());
            let err = check(rule.report, &removed, &floor).unwrap_err();
            assert!(
                err.contains(&named)
                    || err.contains(&format!("{} report has no {}", rule.report, rule.field)),
                "removing {} must fail naming it: {err}",
                rule.field
            );
        }
        assert_eq!(RULES.len(), 66);
    }

    #[test]
    fn floor_keys_named_by_rules_match_the_floor_file() {
        let floor = floor();
        let named: Vec<&str> = RULES
            .iter()
            .flat_map(|r| match r.check {
                Eq(b) | Ge(b) | Le(b) | Gt(b) => match b {
                    Floor(key, _) => vec![key],
                    FloorRatio(num, den, _) => vec![num, den],
                    Const(_) | Field(..) => vec![],
                },
                IsTrue => vec![],
            })
            .collect();
        for key in &named {
            assert!(floor.get(key).and_then(Value::as_f64).is_some(), "floor file lacks {key}");
        }
        for (key, value) in floor.as_object().expect("floor file is an object").iter() {
            if value.as_f64().is_some() {
                assert!(named.contains(&key.as_str()), "no rule uses floor key {key}");
            }
        }
    }

    fn series(key: &str, values: &[f64]) -> Vec<Value> {
        let entry = |v: f64| {
            let mut entry = Map::new();
            entry.insert(key, Value::from(v));
            Value::Object(entry)
        };
        values.iter().map(|&v| entry(v)).collect()
    }

    #[test]
    fn one_bad_newest_run_does_not_fire_the_trend_guard() {
        check_trend(&series("svm_fit_ns_per_fit", &[100.0, 100.0, 100.0, 900.0])).unwrap();
    }

    #[test]
    fn two_consecutive_runs_past_the_limit_fire_the_trend_guard() {
        let err =
            check_trend(&series("svm_fit_ns_per_fit", &[100.0, 120.0, 151.0, 160.0])).unwrap_err();
        assert!(err.contains("svm_fit_ns_per_fit"), "{err}");
        // Exactly 1.5x the best earlier entry is not past the limit.
        check_trend(&series("svm_fit_ns_per_fit", &[100.0, 120.0, 150.0, 160.0])).unwrap();
    }

    #[test]
    fn the_trend_guard_follows_each_metrics_direction() {
        // Lower is better for a `<=` rule's metric, higher for a `>=` one.
        check_trend(&series("svm_fit_ns_per_fit", &[100.0, 100.0, 20.0, 20.0])).unwrap();
        check_trend(&series("serve_fetches_per_s", &[1000.0, 1000.0, 9000.0, 9000.0])).unwrap();
        let err = check_trend(&series("serve_fetches_per_s", &[1000.0, 900.0, 660.0, 600.0]))
            .unwrap_err();
        assert!(err.contains("serve_fetches_per_s"), "{err}");
        check_trend(&series("serve_fetches_per_s", &[1000.0, 900.0, 700.0, 600.0])).unwrap();
    }

    #[test]
    fn a_series_of_trend_recent_entries_or_fewer_passes() {
        let worse = [100.0, 1000.0, 1000.0];
        check_trend(&series("svm_fit_ns_per_fit", &worse[..TREND_RECENT])).unwrap();
        check_trend(&series("svm_fit_ns_per_fit", &worse[..TREND_RECENT + 1])).unwrap_err();
    }

    #[test]
    fn entries_without_a_metric_are_skipped_for_its_series() {
        let mut entries = series("svm_fit_ns_per_fit", &[100.0, 100.0, 160.0]);
        entries.extend(series("serve_fetch_p50_ns", &[1.0, 1.0]));
        // The two newest entries lack svm_fit, so its recent pair is 100, 160.
        check_trend(&entries).unwrap();
        entries.extend(series("svm_fit_ns_per_fit", &[160.0]));
        let err = check_trend(&entries).unwrap_err();
        assert!(err.contains("svm_fit_ns_per_fit") && err.contains("[160.0, 160.0]"), "{err}");
    }

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
