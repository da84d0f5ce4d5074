//! Energy detection over I/Q frames.
//!
//! Two estimators are provided, mirroring §2.1 of the paper:
//!
//! * **Wideband**: the conventional energy detector — mean `|x|²` over the
//!   frame. This is what generates the RSS readings of the dataset.
//! * **Pilot narrowband**: power in the central DFT bins only, which rejects
//!   most of the noise (the pilot concentrates in one bin while noise
//!   spreads over all 256), then adds ~12 dB because the ATSC pilot is
//!   11.3 dB below total channel power. This is the trick the paper borrows
//!   from V-Scope to lower the effective noise floor of cheap hardware.

use serde::{Deserialize, Serialize};

use crate::spectral::with_spectral;
use crate::units::power_to_db;
use crate::window::Window;
use crate::{FrameBatch, IqFrame};

/// Energy detector with a configurable analysis window and pilot bin span.
///
/// # Examples
///
/// ```
/// use waldo_iq::{EnergyDetector, FrameSynthesizer};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let frame = FrameSynthesizer::new(256)
///     .pilot_dbfs(-50.0)
///     .noise_dbfs(-55.0)
///     .synthesize(&mut rng);
/// let det = EnergyDetector::new();
/// // The pilot estimator rejects the (stronger) noise and still sees the tone.
/// let pilot = det.pilot_dbfs(&frame);
/// assert!((pilot - -50.0).abs() < 3.0, "pilot {pilot}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyDetector {
    window: Window,
    pilot_bins: usize,
    pilot_to_channel_db: f64,
}

impl Default for EnergyDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl EnergyDetector {
    /// Creates a detector with a Hann window, a 3-bin pilot span, and the
    /// standard 12 dB pilot-to-channel correction.
    pub fn new() -> Self {
        Self { window: Window::Hann, pilot_bins: 3, pilot_to_channel_db: 12.0 }
    }

    /// Uses `window` for the spectral estimators.
    pub fn with_window(mut self, window: Window) -> Self {
        self.window = window;
        self
    }

    /// Number of central bins summed by the pilot estimator (default 3).
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn with_pilot_bins(mut self, bins: usize) -> Self {
        assert!(bins > 0, "pilot span must be at least one bin");
        self.pilot_bins = bins;
        self
    }

    /// Correction added by [`channel_power_dbfs`](Self::channel_power_dbfs)
    /// (default 12 dB; the paper adds 12 dB to pilot power).
    pub fn with_pilot_to_channel_db(mut self, db: f64) -> Self {
        self.pilot_to_channel_db = db;
        self
    }

    /// Mean power of the frame in dBFS — the conventional energy detector.
    ///
    /// Returns `-inf` for empty or all-zero frames.
    pub fn wideband_dbfs(&self, frame: &IqFrame) -> f64 {
        power_to_db(frame.mean_power())
    }

    /// Pilot power estimate in dBFS: the windowed, shifted power spectrum is
    /// summed over the central [`pilot_bins`](Self::with_pilot_bins) bins and
    /// normalized by the window's coherent gain so a pure tone reads its true
    /// power.
    ///
    /// The frame runs through the same lane kernel as feature extraction,
    /// as a one-frame batch; the window coefficients, FFT twiddles and
    /// span-response normalization come from the thread's cached spectral
    /// context.
    ///
    /// # Panics
    ///
    /// Panics if the frame length is not a power of two (frames in this
    /// system are always 256 samples).
    pub fn pilot_dbfs(&self, frame: &IqFrame) -> f64 {
        let n = frame.len();
        let batch = FrameBatch::from_frames(std::slice::from_ref(frame));
        with_spectral(self.window, n, |ctx| {
            ctx.reset_power();
            ctx.accumulate_batch(&batch, 1.0, |_| {});
            let center = n / 2;
            let half_span = self.pilot_bins / 2;
            let lo = center.saturating_sub(half_span);
            let hi = (center + half_span).min(n - 1);
            let power: f64 = ctx.power()[lo..=hi].iter().sum();

            // Normalize by the window's own response over the same span so
            // that a unit-power on-bin tone reads exactly 0 dB regardless of
            // how the window spreads it across neighbouring bins.
            let span_response: f64 = ctx.win_span_norms[lo..=hi].iter().sum();
            power_to_db(power / span_response)
        })
    }

    /// Estimated total channel power: pilot power plus the pilot-to-channel
    /// correction. This is the quantity compared against the −84 dBm contour
    /// threshold after calibration to dBm.
    pub fn channel_power_dbfs(&self, frame: &IqFrame) -> f64 {
        self.pilot_dbfs(frame) + self.pilot_to_channel_db
    }

    /// How far below the total in-capture noise power the pilot estimator's
    /// *expected* noise response sits, in dB (positive = rejection). This is
    /// the narrowband trick quantified: white noise spreads over all bins
    /// while the pilot concentrates, so for a 256-sample Hann / 3-bin
    /// detector the rejection is ≈ 19.3 dB. Sensor models use it to place
    /// their effective narrowband floor.
    pub fn noise_rejection_db(&self, frame_len: usize) -> f64 {
        let n = frame_len;
        with_spectral(self.window, n, |ctx| {
            let power_sum: f64 = ctx.coeffs.iter().map(|w| w * w).sum();
            // Expected pilot-estimator output for unit-power white noise:
            // span_bins · Σw² normalized by the window span response.
            let center = n / 2;
            let half_span = self.pilot_bins / 2;
            let lo = center.saturating_sub(half_span);
            let hi = (center + half_span).min(n - 1);
            let span_response: f64 = ctx.win_span_norms[lo..=hi].iter().sum();
            let bins = (hi - lo + 1) as f64;
            -power_to_db(bins * power_sum / span_response)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameSynthesizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(77)
    }

    #[test]
    fn wideband_reads_total_power() {
        let mut rng = rng();
        let synth = FrameSynthesizer::new(256).pilot_dbfs(-30.0).noise_dbfs(-90.0);
        let det = EnergyDetector::new();
        let mean: f64 =
            (0..50).map(|_| det.wideband_dbfs(&synth.synthesize(&mut rng))).sum::<f64>() / 50.0;
        assert!((mean - -30.0).abs() < 0.3, "got {mean}");
    }

    #[test]
    fn pilot_estimator_is_calibrated_on_pure_tone() {
        let mut rng = rng();
        let frame =
            FrameSynthesizer::new(256).pilot_dbfs(-40.0).noise_dbfs(-120.0).synthesize(&mut rng);
        let det = EnergyDetector::new();
        let p = det.pilot_dbfs(&frame);
        assert!((p - -40.0).abs() < 0.5, "got {p}");
    }

    #[test]
    fn pilot_estimator_rejects_noise() {
        // Pilot 10 dB *below* the total noise power: the wideband detector
        // cannot see it, but bin concentration recovers it.
        let mut rng = rng();
        let synth = FrameSynthesizer::new(256).pilot_dbfs(-70.0).noise_dbfs(-60.0);
        let det = EnergyDetector::new();
        let mut pilot_sum = 0.0;
        let mut wide_sum = 0.0;
        let n = 100;
        for _ in 0..n {
            let f = synth.synthesize(&mut rng);
            pilot_sum += det.pilot_dbfs(&f);
            wide_sum += det.wideband_dbfs(&f);
        }
        let pilot = pilot_sum / n as f64;
        let wide = wide_sum / n as f64;
        assert!((wide - -60.0).abs() < 1.0, "wideband sees noise: {wide}");
        assert!((pilot - -70.0).abs() < 3.0, "pilot recovered: {pilot}");
    }

    #[test]
    fn channel_power_adds_correction() {
        let mut rng = rng();
        let frame =
            FrameSynthesizer::new(256).pilot_dbfs(-50.0).noise_dbfs(-110.0).synthesize(&mut rng);
        let det = EnergyDetector::new();
        assert!((det.channel_power_dbfs(&frame) - (det.pilot_dbfs(&frame) + 12.0)).abs() < 1e-12);
        let det9 = EnergyDetector::new().with_pilot_to_channel_db(9.0);
        assert!((det9.channel_power_dbfs(&frame) - (det9.pilot_dbfs(&frame) + 9.0)).abs() < 1e-12);
    }

    #[test]
    fn pilot_with_offset_still_within_span() {
        let mut rng = rng();
        // One cycle of offset shifts the pilot one bin away from centre; the
        // default 3-bin span still captures it.
        let frame = FrameSynthesizer::new(256)
            .pilot_dbfs(-45.0)
            .pilot_offset_cycles(1.0)
            .noise_dbfs(-120.0)
            .synthesize(&mut rng);
        let det = EnergyDetector::new();
        let p = det.pilot_dbfs(&frame);
        assert!((p - -45.0).abs() < 1.5, "got {p}");
    }

    #[test]
    fn noise_rejection_matches_analytic_value() {
        // Hann, 256 samples, 3 bins: 2·pg/(n·cg²) = 0.75/64 → 19.31 dB.
        let det = EnergyDetector::new();
        let k = det.noise_rejection_db(256);
        assert!((k - 19.31).abs() < 0.1, "got {k}");
    }

    #[test]
    fn noise_rejection_is_observed_empirically() {
        let mut rng = rng();
        let det = EnergyDetector::new();
        let synth = FrameSynthesizer::new(256).noise_dbfs(-60.0);
        let mean: f64 =
            (0..400).map(|_| db_to_lin(det.pilot_dbfs(&synth.synthesize(&mut rng)))).sum::<f64>()
                / 400.0;
        let measured_floor = 10.0 * mean.log10();
        let predicted = -60.0 - det.noise_rejection_db(256);
        assert!((measured_floor - predicted).abs() < 1.0, "{measured_floor} vs {predicted}");
    }

    #[test]
    fn pilot_dbfs_bits_are_pinned() {
        // Bit patterns the one-frame `FftPlan::forward` path produced for
        // these seeded frames before `pilot_dbfs` moved onto the lane
        // kernel; the move must not change a single bit.
        let mut rng = StdRng::seed_from_u64(1307);
        let occupied =
            FrameSynthesizer::new(256).pilot_dbfs(-50.0).data_dbfs(-52.5).noise_dbfs(-70.0);
        let vacant = FrameSynthesizer::new(256).noise_dbfs(-70.0);
        let short =
            FrameSynthesizer::new(64).pilot_dbfs(-40.0).noise_dbfs(-60.0).pilot_offset_cycles(1.3);
        let hann = EnergyDetector::new();
        let wide = EnergyDetector::new().with_window(Window::Blackman).with_pilot_bins(5);
        let got = [
            hann.pilot_dbfs(&occupied.synthesize(&mut rng)),
            hann.pilot_dbfs(&vacant.synthesize(&mut rng)),
            wide.pilot_dbfs(&occupied.synthesize(&mut rng)),
            wide.pilot_dbfs(&short.synthesize(&mut rng)),
        ]
        .map(f64::to_bits);
        assert_eq!(
            got,
            [0xc049760e639ea92c, 0xc056f785af8886bc, 0xc048f1be298428f6, 0xc0440a0a36ea03ba]
        );
    }

    fn db_to_lin(db: f64) -> f64 {
        10f64.powf(db / 10.0)
    }

    #[test]
    fn empty_frame_reads_negative_infinity() {
        let det = EnergyDetector::new();
        assert_eq!(det.wideband_dbfs(&IqFrame::new(vec![])), f64::NEG_INFINITY);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_pilot_bins_panics() {
        let _ = EnergyDetector::new().with_pilot_bins(0);
    }
}
