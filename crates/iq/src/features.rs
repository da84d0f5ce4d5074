//! Signal features for white-space classification (§3.2 of the paper).
//!
//! The paper screens candidate features with one-way ANOVA and keeps three
//! with p ≈ 0 on every channel:
//!
//! * **RSS** — received signal strength from the energy detector;
//! * **CFT** — the central DFT bin (where the pilot concentrates);
//! * **AFT** — the average of the central 15 % of DFT bins.
//!
//! The remaining candidates (time-domain I/Q statistics, individual
//! off-centre DFT bins) scored p > 0.1 on at least one channel and were
//! dropped. This module computes both groups so the reproduction can re-run
//! that ANOVA screening (experiment `fig11`).

use serde::{Deserialize, Serialize};

use crate::spectral::{with_spectral, Spectral};
use crate::units::power_to_db;
use crate::window::Window;
use crate::{FrameBatch, IqFrame};

/// Every feature the extraction stage computes.
///
/// The discriminative trio (RSS, CFT, AFT) come first in
/// [`FeatureKind::ALL`]; the paper adds them to the classifier in exactly
/// that order (Fig 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Received signal strength (wideband energy detector), dB.
    Rss,
    /// Central DFT bin power, dB.
    Cft,
    /// Mean power of the central 15 % of DFT bins, dB.
    Aft,
    /// Power ratio between I and Q components, dB (screened out).
    QuadratureImbalance,
    /// Excess kurtosis of the in-phase component (screened out).
    IqKurtosis,
    /// Power of a single off-centre DFT bin at the ¾ position, dB
    /// (screened out: an "individual DFT bin value").
    EdgeBin,
}

impl FeatureKind {
    /// All features in canonical order (discriminative trio first).
    pub const ALL: [FeatureKind; 6] = [
        FeatureKind::Rss,
        FeatureKind::Cft,
        FeatureKind::Aft,
        FeatureKind::QuadratureImbalance,
        FeatureKind::IqKurtosis,
        FeatureKind::EdgeBin,
    ];

    /// The three features Waldo ships: RSS, CFT, AFT.
    pub const SELECTED: [FeatureKind; 3] = [FeatureKind::Rss, FeatureKind::Cft, FeatureKind::Aft];

    /// Stable short name (used in result tables).
    pub fn name(self) -> &'static str {
        match self {
            FeatureKind::Rss => "RSS",
            FeatureKind::Cft => "CFT",
            FeatureKind::Aft => "AFT",
            FeatureKind::QuadratureImbalance => "IQ-imbalance",
            FeatureKind::IqKurtosis => "IQ-kurtosis",
            FeatureKind::EdgeBin => "edge-bin",
        }
    }
}

impl std::fmt::Display for FeatureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An ordered selection of features fed to a classifier, mirroring the
/// paper's "number of features" axis: location is always present, then RSS,
/// CFT, AFT are appended one at a time.
///
/// # Examples
///
/// ```
/// use waldo_iq::{FeatureKind, FeatureSet};
///
/// let set = FeatureSet::first_n(2); // location + RSS + CFT
/// assert_eq!(set.kinds(), &[FeatureKind::Rss, FeatureKind::Cft]);
/// assert_eq!(FeatureSet::location_only().kinds().len(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FeatureSet {
    kinds: Vec<FeatureKind>,
}

impl FeatureSet {
    /// Location only — the conventional spectrum-database feature set.
    pub fn location_only() -> Self {
        Self { kinds: Vec::new() }
    }

    /// The first `n` of the paper's selected trio (RSS, CFT, AFT), so `n`
    /// in `0..=3`. In the paper's figures "number of features" = `n + 1`
    /// because location counts as the first feature.
    ///
    /// # Panics
    ///
    /// Panics if `n > 3`.
    pub fn first_n(n: usize) -> Self {
        assert!(n <= FeatureKind::SELECTED.len(), "only three signal features are selected");
        Self { kinds: FeatureKind::SELECTED[..n].to_vec() }
    }

    /// An arbitrary custom selection (used by the feature-set ablation).
    pub fn custom(kinds: Vec<FeatureKind>) -> Self {
        Self { kinds }
    }

    /// The selected signal-feature kinds, in order.
    pub fn kinds(&self) -> &[FeatureKind] {
        &self.kinds
    }

    /// Number of signal features (excludes location).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the set is location-only.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }
}

/// The values of every feature extracted from one I/Q frame.
///
/// All dB values are relative to the frame's full-scale reference; the
/// sensor layer shifts them into dBm via its calibration map.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    /// Wideband energy, dB.
    pub rss_db: f64,
    /// Central DFT bin, dB.
    pub cft_db: f64,
    /// Central 15 % of bins, mean power, dB.
    pub aft_db: f64,
    /// I/Q power imbalance, dB.
    pub quadrature_imbalance_db: f64,
    /// Excess kurtosis of the I component (dimensionless).
    pub iq_kurtosis: f64,
    /// Single off-centre bin, dB.
    pub edge_bin_db: f64,
}

/// Everything one batch of frames yields: the feature vector plus the
/// pilot-power estimate the RSS reading chain consumes. Produced by
/// [`FeatureVector::extract_from_frames`] so each frame is FFT'd exactly
/// once.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Extraction {
    /// The averaged feature vector.
    pub features: FeatureVector,
    /// Pilot-power estimate over the batch, dB (window-span normalized,
    /// same convention as [`crate::EnergyDetector::pilot_dbfs`]).
    pub pilot_db: f64,
}

/// Raw per-frame sample moments, accumulated in one pass: Σre, Σre²,
/// Σre³, Σre⁴ and Σim². Everything the time-domain features need — power,
/// I/Q power, mean, variance, kurtosis — falls out of these five sums, so
/// one walk over the samples replaces the historical six. Both the lane
/// kernel and the per-frame oracle drive this same accumulator
/// in the same sample order, which is what makes their feature vectors
/// bit-identical (LLVM does not reassociate float adds without fast-math).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct FrameMoments {
    s1: f64,
    s2: f64,
    s3: f64,
    s4: f64,
    sq_im: f64,
}

impl FrameMoments {
    /// Folds one sample (in-phase `x`, quadrature `y`) into the sums.
    #[inline]
    pub(crate) fn accumulate(&mut self, x: f64, y: f64) {
        let x2 = x * x;
        self.s1 += x;
        self.s2 += x2;
        self.s3 += x2 * x;
        self.s4 += x2 * x2;
        self.sq_im += y * y;
    }
}

/// Batch-averaged time-domain statistics, built frame by frame from
/// [`FrameMoments`] with the same division order in both extraction paths.
#[derive(Debug, Default, Clone, Copy)]
struct TimeAverages {
    p_i: f64,
    p_q: f64,
    kurtosis: f64,
}

impl TimeAverages {
    /// Folds one frame's moments into the running batch averages
    /// (`n` samples per frame, `k` frames in the batch).
    fn add_frame(&mut self, m: &FrameMoments, n: f64, k: f64) {
        let p_i = m.s2 / n;
        self.p_i += p_i / k;
        self.p_q += m.sq_im / n / k;
        let mean = m.s1 / n;
        let var = p_i - mean * mean;
        if var > 0.0 {
            // Fourth central moment from raw moments (binomial expansion).
            let m4 =
                (m.s4 - 4.0 * mean * m.s3 + 6.0 * (mean * mean) * m.s2) / n - 3.0 * mean.powi(4);
            self.kurtosis += (m4 / (var * var) - 3.0) / k;
        }
    }
}

/// Shared post-loop stage of both extraction paths: reads the accumulated
/// shifted power spectrum out of the spectral context and the batch time
/// averages, and derives every feature plus the pilot estimate. `time_power`
/// is computed once here as `p_i + p_q` — the wideband energy *is* the sum
/// of the per-component powers, which the pre-fusion code measured twice.
fn finalize_extraction(ctx: &Spectral, n: usize, norm: f64, time: &TimeAverages) -> Extraction {
    let avg_power = ctx.power();
    let center = n / 2;
    let cft_db = power_to_db(avg_power[center]);

    // Central 15 % of bins.
    let span = ((n as f64 * 0.15).round() as usize).max(1);
    let lo = center.saturating_sub(span / 2);
    let hi = (lo + span).min(n);
    let aft = avg_power[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
    let aft_db = power_to_db(aft);

    let edge_bin_db = power_to_db(avg_power[(3 * n) / 4]);
    let rss_db = power_to_db(time.p_i + time.p_q);
    let quadrature_imbalance_db = power_to_db(time.p_i) - power_to_db(time.p_q);

    // Pilot estimate: central 3 bins of the averaged spectrum,
    // re-normalized from coherent-gain to span-response units.
    let half_span = 1usize;
    let plo = center - half_span;
    let phi = center + half_span;
    let span_response: f64 = ctx.win_span_norms[plo..=phi].iter().sum();
    let pilot_power: f64 = avg_power[plo..=phi].iter().sum::<f64>() * norm / span_response;
    let pilot_db = power_to_db(pilot_power);

    Extraction {
        features: FeatureVector {
            rss_db,
            cft_db,
            aft_db,
            quadrature_imbalance_db,
            iq_kurtosis: time.kurtosis,
            edge_bin_db,
        },
        pilot_db,
    }
}

impl FeatureVector {
    /// Extracts all features from `frame` using `window` for the spectral
    /// stages.
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty or its length is not a power of two.
    pub fn extract(frame: &IqFrame, window: Window) -> Self {
        Self::extract_from_frames(std::slice::from_ref(frame), window).features
    }

    /// Extracts features from a batch of frames by averaging their power
    /// spectra and time-domain statistics — the spectral-averaging every
    /// practical energy detector performs (GNURadio averages FFT frames;
    /// single-frame pilot estimates carry ~3.5 dB of chi-square noise that
    /// would swamp the −84 dBm decision).
    ///
    /// Each frame is transformed once, lane-wise with its group: the
    /// window coefficients, twiddle tables and scratch buffers come from
    /// the thread's cached spectral context, so the steady state evaluates
    /// no trig. Returns the features along with the batch pilot estimate.
    ///
    /// This is a thin wrapper that copies the frames into a [`FrameBatch`]
    /// and runs the [`Self::extract_from_batch`] lane kernel; callers
    /// that already hold a batch should extract from it directly and skip
    /// the copy.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, any frame is empty, frames disagree in
    /// length, or the length is not a power of two.
    pub fn extract_from_frames(frames: &[IqFrame], window: Window) -> Extraction {
        Self::extract_from_batch(&FrameBatch::from_frames(frames), window)
    }

    /// The shipped extraction kernel. The lane kernel of `spectral.rs`
    /// transforms the batch [`crate::EXTRACT_LANES`] frames at a time:
    /// one window pass transposes a group into `[sample][lane]` scratch
    /// and folds each frame's raw time-domain moments, one lane-wise FFT
    /// runs the plan's bit-reversal and twiddles for the whole group, and
    /// the shifted powers are added lane by lane in frame order
    /// (DESIGN.md §14.2). Produces bit-identical results to
    /// [`Self::extract_from_frames_reference`] on the same frames: every
    /// lane repeats the one-frame FFT's operations, and both paths share
    /// the moment accumulator, its sample order and the finalization.
    ///
    /// # Panics
    ///
    /// Panics if the frame length is not a power of two.
    pub fn extract_from_batch(batch: &FrameBatch, window: Window) -> Extraction {
        let _t = waldo_obs::timed("fft_features");
        let n = batch.frame_len();
        with_spectral(window, n, |ctx| {
            let norm = ctx.coherent_sum * ctx.coherent_sum;
            let k = batch.frames() as f64;
            let mut time = TimeAverages::default();
            ctx.reset_power();
            ctx.accumulate_batch(batch, 1.0 / (norm * k), |moments| {
                time.add_frame(moments, n as f64, k);
            });
            finalize_extraction(ctx, n, norm, &time)
        })
    }

    /// The per-frame oracle: one [`FftPlan::forward`](crate::FftPlan::forward)
    /// per interleaved frame via `Spectral::accumulate_shifted_power`,
    /// plus the shared single-pass time-statistics accumulator. No
    /// shipped path runs it. It stays only as the bit-identity oracle for
    /// [`Self::extract_from_batch`] (`tests/properties.rs`) and as the
    /// baseline of probe's `extract` row.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty, any frame is empty, frames disagree in
    /// length, or the length is not a power of two.
    pub fn extract_from_frames_reference(frames: &[IqFrame], window: Window) -> Extraction {
        assert!(!frames.is_empty(), "cannot extract features from an empty batch");
        let n = frames[0].len();
        assert!(n > 0, "cannot extract features from an empty frame");
        assert!(frames.iter().all(|f| f.len() == n), "frames must share a length");
        with_spectral(window, n, |ctx| {
            let norm = ctx.coherent_sum * ctx.coherent_sum;
            let k = frames.len() as f64;
            let mut time = TimeAverages::default();
            ctx.reset_power();
            for frame in frames {
                ctx.accumulate_shifted_power(frame, 1.0 / (norm * k));
                let mut moments = FrameMoments::default();
                for z in frame.samples() {
                    moments.accumulate(z.re, z.im);
                }
                time.add_frame(&moments, n as f64, k);
            }
            finalize_extraction(ctx, n, norm, &time)
        })
    }

    /// Value of one feature.
    pub fn value(&self, kind: FeatureKind) -> f64 {
        match kind {
            FeatureKind::Rss => self.rss_db,
            FeatureKind::Cft => self.cft_db,
            FeatureKind::Aft => self.aft_db,
            FeatureKind::QuadratureImbalance => self.quadrature_imbalance_db,
            FeatureKind::IqKurtosis => self.iq_kurtosis,
            FeatureKind::EdgeBin => self.edge_bin_db,
        }
    }

    /// Shifts every dB-domain feature by `offset_db` (calibration from the
    /// full-scale domain into dBm). Dimensionless features are unchanged.
    pub fn shifted_db(&self, offset_db: f64) -> Self {
        Self {
            rss_db: self.rss_db + offset_db,
            cft_db: self.cft_db + offset_db,
            aft_db: self.aft_db + offset_db,
            quadrature_imbalance_db: self.quadrature_imbalance_db,
            iq_kurtosis: self.iq_kurtosis,
            edge_bin_db: self.edge_bin_db + offset_db,
        }
    }

    /// Projects the selected `set` into a flat vector (classifier input
    /// order).
    pub fn project(&self, set: &FeatureSet) -> Vec<f64> {
        set.kinds().iter().map(|&k| self.value(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameSynthesizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(2024)
    }

    fn occupied(rng: &mut StdRng) -> FeatureVector {
        let frame = FrameSynthesizer::new(256)
            .pilot_dbfs(-45.0)
            .data_dbfs(-50.0)
            .noise_dbfs(-70.0)
            .synthesize(rng);
        FeatureVector::extract(&frame, Window::Hann)
    }

    fn vacant(rng: &mut StdRng) -> FeatureVector {
        let frame = FrameSynthesizer::new(256).noise_dbfs(-70.0).synthesize(rng);
        FeatureVector::extract(&frame, Window::Hann)
    }

    #[test]
    fn cft_tracks_pilot_power() {
        let mut rng = rng();
        let mean: f64 = (0..50).map(|_| occupied(&mut rng).cft_db).sum::<f64>() / 50.0;
        assert!((mean - -45.0).abs() < 1.5, "got {mean}");
    }

    #[test]
    fn selected_features_separate_occupied_from_vacant() {
        let mut rng = rng();
        let occ: Vec<FeatureVector> = (0..40).map(|_| occupied(&mut rng)).collect();
        let vac: Vec<FeatureVector> = (0..40).map(|_| vacant(&mut rng)).collect();
        for kind in FeatureKind::SELECTED {
            let mo = occ.iter().map(|f| f.value(kind)).sum::<f64>() / occ.len() as f64;
            let mv = vac.iter().map(|f| f.value(kind)).sum::<f64>() / vac.len() as f64;
            assert!(mo > mv + 3.0, "{kind}: occupied {mo} vs vacant {mv}");
        }
    }

    #[test]
    fn screened_out_features_do_not_separate() {
        let mut rng = rng();
        let occ: Vec<FeatureVector> = (0..60).map(|_| occupied(&mut rng)).collect();
        let vac: Vec<FeatureVector> = (0..60).map(|_| vacant(&mut rng)).collect();
        let kind = FeatureKind::QuadratureImbalance;
        let mo = occ.iter().map(|f| f.value(kind)).sum::<f64>() / occ.len() as f64;
        let mv = vac.iter().map(|f| f.value(kind)).sum::<f64>() / vac.len() as f64;
        assert!((mo - mv).abs() < 1.0, "{kind} separates too well: {mo} vs {mv}");
    }

    #[test]
    fn feature_set_slices_in_paper_order() {
        assert_eq!(FeatureSet::first_n(0), FeatureSet::location_only());
        assert_eq!(FeatureSet::first_n(1).kinds(), &[FeatureKind::Rss]);
        assert_eq!(
            FeatureSet::first_n(3).kinds(),
            &[FeatureKind::Rss, FeatureKind::Cft, FeatureKind::Aft]
        );
    }

    #[test]
    #[should_panic(expected = "three signal features")]
    fn first_n_rejects_overflow() {
        let _ = FeatureSet::first_n(4);
    }

    #[test]
    fn project_follows_set_order() {
        let mut rng = rng();
        let f = occupied(&mut rng);
        let set = FeatureSet::custom(vec![FeatureKind::Aft, FeatureKind::Rss]);
        assert_eq!(f.project(&set), vec![f.aft_db, f.rss_db]);
        assert!(f.project(&FeatureSet::location_only()).is_empty());
    }

    #[test]
    fn shifted_db_moves_only_db_features() {
        let mut rng = rng();
        let f = occupied(&mut rng);
        let g = f.shifted_db(10.0);
        assert!((g.rss_db - f.rss_db - 10.0).abs() < 1e-12);
        assert!((g.cft_db - f.cft_db - 10.0).abs() < 1e-12);
        assert!((g.aft_db - f.aft_db - 10.0).abs() < 1e-12);
        assert_eq!(g.iq_kurtosis, f.iq_kurtosis);
        assert_eq!(g.quadrature_imbalance_db, f.quadrature_imbalance_db);
    }

    #[test]
    #[should_panic(expected = "frame length must be positive")]
    fn empty_frame_panics() {
        let _ = FeatureVector::extract(&IqFrame::new(vec![]), Window::Hann);
    }
}
