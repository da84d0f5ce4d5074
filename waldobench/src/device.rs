//! `device_sense`: one closed-loop device deciding back to back at seeded
//! sites. Nearly all the work is `iq` extraction and the `core` detector;
//! `serve` and `store` are idle.
//!
//! The untraced device calls `PhoneScanner::sense_channel`, the public
//! entry point. The traced device replays the same loop from the same
//! seed, call by call, with a span around each layer, so its decisions and
//! reading counts match the untraced device's exactly.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use waldo::device::{PhoneConfig, PhoneScanner};
use waldo::{DetectorOutcome, WaldoModel, WhiteSpaceDetector};
use waldo_data::Safety;
use waldo_iq::window::Window;
use waldo_iq::FeatureVector;
use waldo_sensors::{Calibration, Observation, SensorModel};

use crate::stats::{mean, Metrics};
use crate::trace::{Profile, Tracer};
use crate::world::{Scenario, Site};

/// One decision.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    pub safety: Safety,
    pub captures: usize,
    /// Fig 18 CPU: extraction + detector, synthesis excluded.
    pub cpu_s: f64,
    /// Time to answer: radio time plus CPU.
    pub answer_s: f64,
}

/// Salt of the device's capture stream.
const SCANNER_SALT: u64 = 0x6465_7669_6365;

/// A device deciding with `PhoneScanner::sense_channel`, the public
/// entry point, visiting the sites in order across however many blocks
/// it runs.
pub struct Device {
    phone: PhoneScanner,
    decisions: Vec<Decision>,
}

impl Device {
    pub fn new(seed: u64) -> Self {
        let phone =
            PhoneScanner::new(PhoneConfig::default(), SensorModel::rtl_sdr(), seed ^ SCANNER_SALT);
        Device { phone, decisions: Vec::new() }
    }

    /// Decides back to back until `budget` runs out.
    pub fn block(&mut self, scenario: &Scenario, budget: Duration) {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            self.decide_next(scenario);
        }
    }

    /// Decides at the next site.
    fn decide_next(&mut self, scenario: &Scenario) {
        let site = &scenario.sites[self.decisions.len() % scenario.sites.len()];
        let run = self.phone.sense_channel(&scenario.model, site.location, site.true_rss);
        self.decisions.push(Decision {
            safety: run.safety,
            captures: run.captures,
            cpu_s: run.cpu_time_s,
            answer_s: run.radio_time_s + run.cpu_time_s,
        });
    }

    /// Correctness and the end-to-end metrics of every block so far; a
    /// percentile over fewer than `min_samples` decisions is a failure.
    pub fn metrics(&self, scenario: &Scenario, min_samples: usize) -> Metrics {
        let mut m = Metrics::default();
        check_decisions(scenario, &self.decisions, &mut m);
        end_to_end(&self.decisions, min_samples, &mut m);
        m
    }
}

/// The sense loop of `PhoneScanner::sense_channel`, replayed with a span
/// around each layer call. The CPU timer covers what the scanner's timer
/// covers: extraction, calibration and the detector push.
struct TracedDevice {
    config: PhoneConfig,
    sensor: SensorModel,
    calibration: Calibration,
    rng: StdRng,
}

impl TracedDevice {
    fn new(seed: u64) -> Self {
        let sensor = SensorModel::rtl_sdr();
        TracedDevice {
            config: PhoneConfig::default(),
            calibration: Calibration::factory(&sensor),
            sensor,
            rng: StdRng::seed_from_u64(seed ^ SCANNER_SALT),
        }
    }

    fn decide(&mut self, model: &WaldoModel, site: &Site, tr: &mut Tracer) -> Decision {
        let root = tr.start("device.decide");
        let mut detector = tr.span("core.detector_new", || {
            WhiteSpaceDetector::new(model.clone(), self.config.alpha_db)
                .max_readings(self.config.max_captures)
        });
        let mut cpu_ns = 0u64;
        let mut captures = 0usize;
        let safety = loop {
            let batch = tr.span("sensors.capture", || {
                self.sensor.capture_reading_batch(site.true_rss, &mut self.rng)
            });
            let start = Instant::now();
            let extraction =
                tr.span("iq.extract", || FeatureVector::extract_from_batch(&batch, Window::Hann));
            let raw_pilot = extraction.pilot_db;
            let observation = Observation {
                rss_dbm: self.calibration.to_dbm(raw_pilot) + 12.0,
                features: extraction.features.shifted_db(self.calibration.to_dbm(0.0)),
                raw_pilot_db: raw_pilot,
            };
            let outcome =
                tr.span("core.detector_push", || detector.push(site.location, &observation));
            cpu_ns += start.elapsed().as_nanos() as u64;
            captures += 1;
            match outcome {
                DetectorOutcome::Converged { safety, .. } => break safety,
                DetectorOutcome::NeedMoreReadings { .. }
                    if captures >= self.config.max_captures =>
                {
                    break Safety::NotSafe
                }
                DetectorOutcome::NeedMoreReadings { .. } => {}
            }
        };
        tr.end(root);
        let cpu_s = cpu_ns as f64 / 1e9;
        Decision {
            safety,
            captures,
            cpu_s,
            answer_s: captures as f64 * self.config.capture_period_s + cpu_s,
        }
    }
}

/// Checks every decision against the site's ground truth: a safe answer
/// where the simulator says not safe is a failure.
fn check_decisions(scenario: &Scenario, decisions: &[Decision], m: &mut Metrics) {
    for (i, d) in decisions.iter().enumerate() {
        let site = &scenario.sites[i % scenario.sites.len()];
        m.check(!(d.safety == Safety::Safe && site.truth == Safety::NotSafe), || {
            format!("device_sense: incorrect safe at {:?} ({:?})", site.location, site.kind)
        });
    }
}

/// Fills the end-to-end metrics of the phase.
fn end_to_end(decisions: &[Decision], min_samples: usize, m: &mut Metrics) {
    let cpu_us: Vec<f64> = decisions.iter().map(|d| d.cpu_s * 1e6).collect();
    let answer_ms: Vec<f64> = decisions.iter().map(|d| d.answer_s * 1e3).collect();
    m.set_quantile("decide_cpu_us.p50", &cpu_us, 0.5, min_samples, "us");
    m.set_quantile("decide_cpu_us.p99", &cpu_us, 0.99, min_samples, "us");
    m.set_quantile("decide_ms.p50", &answer_ms, 0.5, min_samples, "ms");
    m.set_quantile("decide_ms.p99", &answer_ms, 0.99, min_samples, "ms");
}

/// The traced phase: an untraced and a traced device deciding in turn,
/// site by site, so that a slow spell of the host weighs on both alike;
/// the layer metrics, and the tracing overhead.
pub fn measure_traced(scenario: &Scenario, seed: u64, budget: Duration) -> (Metrics, Profile) {
    let mut m = Metrics::default();
    let mut device = Device::new(seed);
    let mut traced_device = TracedDevice::new(seed);
    let mut tr = Tracer::new(true);
    let mut traced = Vec::new();
    let deadline = Instant::now() + budget;
    while Instant::now() < deadline {
        device.decide_next(scenario);
        let site = &scenario.sites[traced.len() % scenario.sites.len()];
        traced.push(traced_device.decide(&scenario.model, site, &mut tr));
    }
    let plain = device.decisions;
    let mut profile = Profile::default();
    profile.absorb(tr);
    check_decisions(scenario, &plain, &mut m);
    check_decisions(scenario, &traced, &mut m);

    // Replay fidelity: the traced loop draws the same readings, decision
    // for decision.
    let n = scenario.sites.len();
    m.check(traced.len() >= n, || {
        format!("device_sense: fewer than the {n} decisions of one pass over the sites")
    });
    for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
        m.check(a.captures == b.captures && a.safety == b.safety, || {
            format!("device_sense: traced replay diverged at decision {i}")
        });
    }
    let first_pass: Vec<f64> = plain.iter().take(n).map(|d| d.captures as f64).collect();
    m.set("core.readings_per_decision.mean", mean(&first_pass).unwrap_or(0.0), "count");

    let p50 = |name: &str| crate::stats::median(&profile.durations_us(name)).unwrap_or(0.0);
    let extract = profile.durations_us("iq.extract");
    m.set("sensors.capture_us.p50", p50("sensors.capture"), "us");
    m.set("iq.extract_us.p50", crate::stats::quantile(&extract, 0.5).unwrap_or(0.0), "us");
    m.set("iq.extract_us.p99", crate::stats::quantile(&extract, 0.99).unwrap_or(0.0), "us");
    m.set("core.detector_push_us.p50", p50("core.detector_push"), "us");
    m.set("core.detector_new_us.p50", p50("core.detector_new"), "us");

    // How much of the scanner's own decide CPU the two layers explain: the
    // traced decisions drew the same readings as the untraced ones, so
    // their spans are set against `ConvergenceRun::cpu_time_s` of those.
    let total_us = |name: &str| profile.durations_us(name).iter().sum::<f64>();
    let scanner_cpu_us: f64 = plain.iter().map(|d| d.cpu_s * 1e6).sum();
    m.set(
        "trace.decide_cpu_accounted_frac",
        (total_us("iq.extract") + total_us("core.detector_push")) / scanner_cpu_us,
        "ratio",
    );
    // Synthesis stands in for the radio and stays outside the CPU figure.
    m.set("trace.capture_over_decide_cpu", total_us("sensors.capture") / scanner_cpu_us, "ratio");

    let plain_cpu: Vec<f64> = plain.iter().map(|d| d.cpu_s * 1e6).collect();
    let traced_cpu: Vec<f64> = traced.iter().map(|d| d.cpu_s * 1e6).collect();
    let overhead = crate::stats::median(&traced_cpu).unwrap_or(0.0)
        / crate::stats::median(&plain_cpu).unwrap_or(1.0)
        - 1.0;
    m.set("trace.overhead_frac.device_sense", overhead, "ratio");
    (m, profile)
}
