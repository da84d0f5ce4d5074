//! Field observations: one capture turned into the calibrated quantities
//! the rest of the system consumes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use waldo_iq::{window::Window, FeatureVector};

use crate::{Calibration, SensorModel};

/// One calibrated field observation of one channel at one location.
///
/// # Examples
///
/// ```
/// use waldo_sensors::{Calibration, Observation, SensorModel};
/// use rand::SeedableRng;
///
/// let sensor = SensorModel::spectrum_analyzer();
/// let cal = Calibration::identity();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let obs = Observation::measure(&sensor, &cal, Some(-60.0), &mut rng);
/// assert!((obs.rss_dbm - -60.0).abs() < 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Calibrated channel-power estimate: pilot reading + 12 dB, mapped to
    /// dBm. This is the value Algorithm 1 compares against −84 dBm.
    pub rss_dbm: f64,
    /// The full calibrated feature vector (RSS/CFT/AFT and the screened-out
    /// candidates), dB values in dBm.
    pub features: FeatureVector,
    /// The uncalibrated pilot reading (raw dB), kept for Fig 5/6 plots.
    pub raw_pilot_db: f64,
}

impl Observation {
    /// Captures one frame of a channel whose true power at the antenna is
    /// `true_rss_dbm` (`None` = vacant) and derives all calibrated
    /// quantities.
    pub fn measure<R: Rng + ?Sized>(
        sensor: &SensorModel,
        calibration: &Calibration,
        true_rss_dbm: Option<f64>,
        rng: &mut R,
    ) -> Self {
        let _t = waldo_obs::timed("observe");
        let batch = sensor.capture_reading_batch(true_rss_dbm, rng);
        let extraction = FeatureVector::extract_from_batch(&batch, Window::Hann);
        let raw_pilot_db = extraction.pilot_db;
        let rss_dbm = calibration.to_dbm(raw_pilot_db) + 12.0;

        let raw_features = extraction.features;
        // The calibration map is affine in dB; apply it to each dB feature.
        // (`shifted_db` covers the slope-1 fast path exactly.)
        //
        // The RSS *feature* is the sensor's channel-power reading itself
        // (pilot + 12 dB), exactly what the paper feeds the classifier —
        // the wideband capture energy would be dominated by the device's
        // own in-capture noise floor and carry almost no signal.
        let shift_at = |raw: f64| calibration.to_dbm(raw) - raw;
        let features = FeatureVector {
            rss_db: rss_dbm,
            cft_db: calibration.to_dbm(raw_features.cft_db),
            aft_db: calibration.to_dbm(raw_features.aft_db),
            quadrature_imbalance_db: raw_features.quadrature_imbalance_db,
            iq_kurtosis: raw_features.iq_kurtosis,
            edge_bin_db: raw_features.edge_bin_db + shift_at(raw_features.edge_bin_db),
        };
        Self { rss_dbm, features, raw_pilot_db }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xD00D)
    }

    fn mean_rss(
        sensor: &SensorModel,
        cal: &Calibration,
        level: Option<f64>,
        n: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let lin: f64 = (0..n)
            .map(|_| 10f64.powf(Observation::measure(sensor, cal, level, rng).rss_dbm / 10.0))
            .sum::<f64>()
            / n as f64;
        10.0 * lin.log10()
    }

    #[test]
    fn strong_channel_rss_is_calibrated() {
        let mut rng = rng();
        for sensor in [SensorModel::rtl_sdr(), SensorModel::usrp_b200()] {
            let cal = Calibration::factory(&sensor);
            let est = mean_rss(&sensor, &cal, Some(-60.0), 100, &mut rng);
            // Pilot = −71.3 dBm, +12 dB ⇒ estimate ≈ −59.3 dBm (the paper's
            // 12 dB vs the exact 11.3 dB leaves a +0.7 dB bias by design).
            assert!((est - -59.3).abs() < 1.0, "{}: {est}", sensor.kind());
        }
    }

    #[test]
    fn vacant_channel_saturates_at_effective_floor() {
        let mut rng = rng();
        let sensor = SensorModel::rtl_sdr().with_glitch_prob(0.0);
        let cal = Calibration::factory(&sensor);
        let est = mean_rss(&sensor, &cal, None, 150, &mut rng);
        // Effective vacant reading: pilot floor −100 + 12 = −88 dBm — only
        // ~4 dB of headroom below the −84 dBm decodability threshold,
        // which is exactly why the RTL-SDR loses efficiency.
        assert!((est - -88.0).abs() < 1.0, "got {est}");
        let usrp = SensorModel::usrp_b200().with_glitch_prob(0.0);
        let est = mean_rss(&usrp, &Calibration::factory(&usrp), None, 150, &mut rng);
        assert!((est - -91.0).abs() < 1.2, "usrp got {est}");
    }

    #[test]
    fn features_move_with_signal_level() {
        let mut rng = rng();
        let sensor = SensorModel::usrp_b200();
        let cal = Calibration::factory(&sensor);
        let strong = Observation::measure(&sensor, &cal, Some(-55.0), &mut rng);
        let weak = Observation::measure(&sensor, &cal, Some(-85.0), &mut rng);
        assert!(strong.features.cft_db > weak.features.cft_db + 15.0);
        assert!(strong.features.aft_db > weak.features.aft_db + 10.0);
        assert!(strong.features.rss_db > weak.features.rss_db + 10.0);
    }

    #[test]
    fn raw_reading_is_preserved_for_plots() {
        let mut rng = rng();
        let sensor = SensorModel::rtl_sdr();
        let cal = Calibration::factory(&sensor);
        let obs = Observation::measure(&sensor, &cal, Some(-60.0), &mut rng);
        // raw = rss − 11.3 + gain, roughly.
        assert!((obs.raw_pilot_db - (-60.0 - 11.3 + sensor.gain_db())).abs() < 3.0);
        // And the calibrated value is raw + intercept + 12.
        assert!((obs.rss_dbm - (cal.to_dbm(obs.raw_pilot_db) + 12.0)).abs() < 1e-9);
    }

    #[test]
    fn analyzer_is_accurate_at_the_decodability_threshold() {
        // The analyzer's -114 dBm pilot floor leaves ~19 dB of headroom at
        // the -84 dBm contour: its channel estimate there is unbiased.
        let mut rng = rng();
        let sa = SensorModel::spectrum_analyzer();
        let cal = Calibration::identity();
        let est = mean_rss(&sa, &cal, Some(-84.0), 200, &mut rng);
        assert!((est - -83.3).abs() < 1.0, "got {est}");
        // Deep below its floor the estimate saturates at floor + 12.
        let deep = mean_rss(&sa, &cal, Some(-130.0), 200, &mut rng);
        assert!((deep - -102.0).abs() < 1.5, "got {deep}");
    }
}
