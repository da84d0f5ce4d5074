//! ATSC-like I/Q frame synthesis.
//!
//! Real measurements tune the sensor to the pilot frequency of a digital TV
//! channel and capture 256 I/Q samples. Within that narrow capture bandwidth
//! the signal is: a strong pilot tone (defined to be 11.3 dB below the total
//! 6 MHz channel power), a noise-like slice of the 8VSB data signal, and the
//! receiver's own thermal noise. [`FrameSynthesizer`] produces frames with
//! exactly those three components at configurable powers, which is all the
//! energy detector and feature extractor downstream can observe.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::units::db_to_power;
use crate::{Complex, FrameBatch};

/// The pilot of an ATSC channel is 11.3 dB below total channel power; adding
/// ~12 dB to a pilot measurement estimates full channel power (§2.1).
pub const PILOT_TO_CHANNEL_DB: f64 = 11.3;

/// A captured (or synthesized) frame of I/Q samples.
///
/// # Examples
///
/// ```
/// use waldo_iq::{Complex, IqFrame};
///
/// let frame = IqFrame::new(vec![Complex::new(1.0, 0.0); 4]);
/// assert_eq!(frame.len(), 4);
/// assert_eq!(frame.mean_power(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IqFrame {
    samples: Vec<Complex>,
}

impl IqFrame {
    /// Wraps raw samples in a frame.
    pub fn new(samples: Vec<Complex>) -> Self {
        Self { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the frame holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow of the underlying samples.
    pub fn samples(&self) -> &[Complex] {
        &self.samples
    }

    /// Consumes the frame, returning the samples.
    pub fn into_samples(self) -> Vec<Complex> {
        self.samples
    }

    /// Mean instantaneous power `E[|x|²]` (linear, full-scale units).
    ///
    /// Returns `0.0` for an empty frame.
    pub fn mean_power(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|z| z.norm_sq()).sum::<f64>() / self.samples.len() as f64
    }
}

pub use crate::gauss::standard_normal;

/// Builder producing synthetic I/Q frames.
///
/// Powers are in dB relative to an arbitrary full-scale reference (dBFS);
/// the sensor layer maps dBFS to dBm through its calibration function.
///
/// # Examples
///
/// ```
/// use waldo_iq::FrameSynthesizer;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let frame = FrameSynthesizer::new(256)
///     .pilot_dbfs(-40.0)
///     .data_dbfs(-45.0)
///     .noise_dbfs(-70.0)
///     .synthesize(&mut rng);
/// assert_eq!(frame.len(), 256);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSynthesizer {
    len: usize,
    pilot_dbfs: Option<f64>,
    data_dbfs: Option<f64>,
    noise_dbfs: f64,
    pilot_offset_cycles: f64,
}

impl FrameSynthesizer {
    /// Samples between exact pilot-phasor resyncs. The FFT deliberately
    /// dropped its twiddle recurrence for accuracy (DESIGN.md §8.2); the
    /// pilot keeps one but resynchronizes with `from_polar` every 64
    /// samples, which bounds accumulated rounding error to a few ULP over
    /// any run — far below the tolerances of the spectral tests.
    pub const PILOT_RESYNC: usize = 64;

    /// Starts a synthesizer for frames of `len` samples with no signal and a
    /// −80 dBFS noise floor.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "frame length must be positive");
        Self { len, pilot_dbfs: None, data_dbfs: None, noise_dbfs: -80.0, pilot_offset_cycles: 0.0 }
    }

    /// Sets the pilot tone power (dBFS). Without this call no pilot is
    /// generated (vacant channel).
    pub fn pilot_dbfs(mut self, dbfs: f64) -> Self {
        self.pilot_dbfs = Some(dbfs);
        self
    }

    /// Sets the in-band 8VSB data-skirt power (dBFS), a white noise-like
    /// component present only when the channel is occupied.
    pub fn data_dbfs(mut self, dbfs: f64) -> Self {
        self.data_dbfs = Some(dbfs);
        self
    }

    /// Sets the receiver noise floor (dBFS). Defaults to −80 dBFS.
    pub fn noise_dbfs(mut self, dbfs: f64) -> Self {
        self.noise_dbfs = dbfs;
        self
    }

    /// Offsets the pilot from DC by `cycles` full rotations across the frame
    /// (models imperfect tuning; default 0, i.e. pilot exactly at the
    /// central bin after `fftshift`).
    pub fn pilot_offset_cycles(mut self, cycles: f64) -> Self {
        self.pilot_offset_cycles = cycles;
        self
    }

    /// Generates one frame — a thin wrapper over a one-frame
    /// [`Self::synthesize_batch`], so per-frame and batched callers share
    /// one code path and one draw-order contract.
    pub fn synthesize<R: Rng + ?Sized>(&self, rng: &mut R) -> IqFrame {
        self.synthesize_batch(1, rng).frame(0)
    }

    /// Generates a whole batch of frames into SoA planes with **one
    /// amortized Gaussian fill** ([`crate::gauss::fill_standard_normal_planes`],
    /// the ziggurat sampler) followed by one pilot pass per frame.
    ///
    /// Receiver noise and the 8VSB data skirt are independent circular
    /// complex Gaussians, so their sum is a single circular Gaussian of
    /// combined power; the whole batch's noise is one contiguous pairwise
    /// plane fill, which means a `frames`-frame batch consumes the
    /// identical RNG stream as `frames` consecutive one-frame batches
    /// (vacant channels are bit-identical either way). Occupied channels
    /// interleave pilot-phase draws differently — the batch draws all
    /// noise first, then one phase per frame — so they are statistically
    /// equivalent, not bit-identical, to the per-frame sequence
    /// (DESIGN.md §14).
    ///
    /// The pilot phasor state (amplitude, per-sample rotation) is computed
    /// once per batch; each frame draws its own random phase and advances
    /// by one complex multiply per sample with an exact `from_polar`
    /// resync every [`Self::PILOT_RESYNC`] samples to bound rounding
    /// drift.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn synthesize_batch<R: Rng + ?Sized>(&self, frames: usize, rng: &mut R) -> FrameBatch {
        let _t = waldo_obs::timed("synth");
        let n = self.len;
        let mut batch = FrameBatch::zeroed(frames, n);

        // Noise + data skirt in one pass: 2·frames·n ziggurat draws, none
        // wasted, no per-frame allocation.
        let mut power = db_to_power(self.noise_dbfs);
        if let Some(data_dbfs) = self.data_dbfs {
            power += db_to_power(data_dbfs);
        }
        let sigma = (power / 2.0).sqrt();
        let (re, im) = batch.planes_mut();
        crate::gauss::fill_standard_normal_planes(rng, re, im);
        for v in re.iter_mut() {
            *v *= sigma;
        }
        for v in im.iter_mut() {
            *v *= sigma;
        }

        if let Some(pilot_dbfs) = self.pilot_dbfs {
            let amp = db_to_power(pilot_dbfs).sqrt();
            let dphi = 2.0 * std::f64::consts::PI * self.pilot_offset_cycles / n as f64;
            let rot = Complex::cis(dphi);
            for f in 0..frames {
                let phase0: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
                let (re, im) = batch.frame_planes_mut(f);
                let mut cur = Complex::ZERO;
                for i in 0..n {
                    if i % Self::PILOT_RESYNC == 0 {
                        cur = Complex::from_polar(amp, phase0 + dphi * i as f64);
                    }
                    re[i] += cur.re;
                    im[i] += cur.im;
                    cur *= rot;
                }
            }
        }

        batch
    }

    /// The pre-SoA batched path (PR 2): merged noise + data skirt realized
    /// with one buffered **Box–Muller** fill
    /// ([`crate::gauss::fill_standard_normal`]) into interleaved samples,
    /// pilot recurrence per frame. Retained as the benchmark baseline and
    /// statistical-equivalence reference for [`Self::synthesize_batch`].
    pub fn synthesize_reference<R: Rng + ?Sized>(&self, rng: &mut R) -> IqFrame {
        let n = self.len;

        // Noise + data skirt in one pass: 2n Gaussian draws, none wasted.
        let mut power = db_to_power(self.noise_dbfs);
        if let Some(data_dbfs) = self.data_dbfs {
            power += db_to_power(data_dbfs);
        }
        let sigma = (power / 2.0).sqrt();
        let mut gaussians = vec![0.0f64; 2 * n];
        crate::gauss::fill_standard_normal(rng, &mut gaussians);
        let mut samples: Vec<Complex> = gaussians
            .chunks_exact(2)
            .map(|re_im| Complex::new(sigma * re_im[0], sigma * re_im[1]))
            .collect();

        if let Some(pilot_dbfs) = self.pilot_dbfs {
            let amp = db_to_power(pilot_dbfs).sqrt();
            let phase0: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            let dphi = 2.0 * std::f64::consts::PI * self.pilot_offset_cycles / n as f64;
            let rot = Complex::cis(dphi);
            let mut cur = Complex::ZERO;
            for (i, s) in samples.iter_mut().enumerate() {
                if i % Self::PILOT_RESYNC == 0 {
                    cur = Complex::from_polar(amp, phase0 + dphi * i as f64);
                }
                *s += cur;
                cur *= rot;
            }
        }

        IqFrame::new(samples)
    }

    /// Pre-batching reference path: one discarding Box–Muller call per
    /// Gaussian component and a `from_polar` per pilot sample. Retained as
    /// the benchmark baseline for the batched [`Self::synthesize`].
    pub fn synthesize_unbatched<R: Rng + ?Sized>(&self, rng: &mut R) -> IqFrame {
        let n = self.len;
        let mut samples = vec![Complex::ZERO; n];

        // Receiver noise: circular complex Gaussian of total power `noise`.
        let noise_sigma = (db_to_power(self.noise_dbfs) / 2.0).sqrt();
        for s in samples.iter_mut() {
            *s += Complex::new(
                noise_sigma * standard_normal(rng),
                noise_sigma * standard_normal(rng),
            );
        }

        // 8VSB data skirt: same statistics as noise, present only with signal.
        if let Some(data_dbfs) = self.data_dbfs {
            let sigma = (db_to_power(data_dbfs) / 2.0).sqrt();
            for s in samples.iter_mut() {
                *s += Complex::new(sigma * standard_normal(rng), sigma * standard_normal(rng));
            }
        }

        // Pilot: a tone of power `pilot` at a small offset from DC, random
        // phase per frame.
        if let Some(pilot_dbfs) = self.pilot_dbfs {
            let amp = db_to_power(pilot_dbfs).sqrt();
            let phase0: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            let dphi = 2.0 * std::f64::consts::PI * self.pilot_offset_cycles / n as f64;
            for (i, s) in samples.iter_mut().enumerate() {
                *s += Complex::from_polar(amp, phase0 + dphi * i as f64);
            }
        }

        IqFrame::new(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::power_to_db;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xA11CE)
    }

    #[test]
    fn noise_only_frame_has_requested_power() {
        let mut rng = rng();
        // Average many frames to beat estimator variance.
        let synth = FrameSynthesizer::new(256).noise_dbfs(-60.0);
        let mean: f64 =
            (0..200).map(|_| synth.synthesize(&mut rng).mean_power()).sum::<f64>() / 200.0;
        let db = power_to_db(mean);
        assert!((db - -60.0).abs() < 0.3, "got {db}");
    }

    #[test]
    fn pilot_dominates_when_strong() {
        let mut rng = rng();
        let frame =
            FrameSynthesizer::new(256).pilot_dbfs(-20.0).noise_dbfs(-80.0).synthesize(&mut rng);
        let db = power_to_db(frame.mean_power());
        assert!((db - -20.0).abs() < 0.5, "got {db}");
    }

    #[test]
    fn components_add_in_power() {
        let mut rng = rng();
        let synth = FrameSynthesizer::new(256).pilot_dbfs(-30.0).data_dbfs(-30.0).noise_dbfs(-30.0);
        let mean: f64 =
            (0..300).map(|_| synth.synthesize(&mut rng).mean_power()).sum::<f64>() / 300.0;
        // Three equal powers → +4.77 dB over one.
        let db = power_to_db(mean);
        assert!((db - -25.2).abs() < 0.4, "got {db}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn empty_frame_power_is_zero() {
        let frame = IqFrame::new(vec![]);
        assert!(frame.is_empty());
        assert_eq!(frame.mean_power(), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let synth = FrameSynthesizer::new(64).pilot_dbfs(-25.0);
        let a = synth.synthesize(&mut StdRng::seed_from_u64(5));
        let b = synth.synthesize(&mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_frame_panics() {
        let _ = FrameSynthesizer::new(0);
    }

    #[test]
    fn fused_reference_and_unbatched_agree_statistically() {
        // Three generations of the same distribution: the fused SoA batch
        // (ziggurat fill), the merged Box–Muller reference, and the
        // per-draw unbatched path. Averaged frame power must agree across
        // all three well inside estimator variance.
        let synth = FrameSynthesizer::new(256).pilot_dbfs(-35.0).data_dbfs(-40.0).noise_dbfs(-55.0);
        let mut rng_a = rng();
        let mut rng_b = rng();
        let mut rng_c = rng();
        let fused: f64 =
            (0..300).map(|_| synth.synthesize(&mut rng_a).mean_power()).sum::<f64>() / 300.0;
        let reference: f64 =
            (0..300).map(|_| synth.synthesize_reference(&mut rng_b).mean_power()).sum::<f64>()
                / 300.0;
        let unbatched: f64 =
            (0..300).map(|_| synth.synthesize_unbatched(&mut rng_c).mean_power()).sum::<f64>()
                / 300.0;
        let fused_db = power_to_db(fused);
        assert!((fused_db - power_to_db(reference)).abs() < 0.3, "fused {fused} vs {reference}");
        assert!((fused_db - power_to_db(unbatched)).abs() < 0.3, "fused {fused} vs {unbatched}");
    }

    #[test]
    fn vacant_batch_is_bit_identical_to_per_frame_wrappers() {
        // With no pilot the batch is pure noise fill, and the contiguous
        // plane fill consumes the identical RNG stream as consecutive
        // one-frame batches: same seed → bit-identical samples.
        let synth = FrameSynthesizer::new(64).noise_dbfs(-60.0);
        let batch = synth.synthesize_batch(5, &mut StdRng::seed_from_u64(77));
        let mut rng = StdRng::seed_from_u64(77);
        let frames: Vec<IqFrame> = (0..5).map(|_| synth.synthesize(&mut rng)).collect();
        assert_eq!(batch.to_frames(), frames);
    }

    #[test]
    fn occupied_batch_matches_per_frame_statistics() {
        // Occupied channels draw pilot phases after the whole noise fill,
        // so batch vs per-frame realizations differ; the averaged power
        // over many frames must still agree tightly.
        let synth = FrameSynthesizer::new(256).pilot_dbfs(-35.0).data_dbfs(-40.0).noise_dbfs(-55.0);
        let mut rng_a = rng();
        let mut rng_b = rng();
        let rounds = 15; // 15 × 24 = 360 frames per side
        let batch_mean: f64 = (0..rounds)
            .map(|_| {
                let b = synth.synthesize_batch(24, &mut rng_a);
                (0..b.frames()).map(|f| b.frame(f).mean_power()).sum::<f64>() / 24.0
            })
            .sum::<f64>()
            / rounds as f64;
        let frame_mean: f64 =
            (0..rounds * 24).map(|_| synth.synthesize(&mut rng_b).mean_power()).sum::<f64>()
                / (rounds * 24) as f64;
        let delta_db = power_to_db(batch_mean) - power_to_db(frame_mean);
        assert!(delta_db.abs() < 0.3, "batch {batch_mean} vs per-frame {frame_mean}");
    }

    #[test]
    fn pilot_recurrence_matches_exact_tone() {
        // With the noise floor pushed to numerical zero, each sample is the
        // pilot phasor alone; the cis-recurrence (with periodic resync)
        // must track the exact per-sample `from_polar` to a few ULP.
        let n = 256;
        let synth =
            FrameSynthesizer::new(n).pilot_dbfs(-20.0).noise_dbfs(-3000.0).pilot_offset_cycles(3.7);
        let seed = 0xB0B;
        let batch = synth.synthesize_batch(2, &mut StdRng::seed_from_u64(seed));

        // Replay the synthesizer's RNG consumption to learn each frame's
        // random pilot phase: the whole batch's plane fill first, then one
        // phase draw per frame.
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut re, mut im) = (vec![0.0f64; 2 * n], vec![0.0f64; 2 * n]);
        crate::gauss::fill_standard_normal_planes(&mut rng, &mut re, &mut im);
        let amp = db_to_power(-20.0).sqrt();
        let dphi = 2.0 * std::f64::consts::PI * 3.7 / n as f64;
        for f in 0..2 {
            let phase0: f64 = rng.gen_range(0.0..2.0 * std::f64::consts::PI);
            for (i, s) in batch.frame(f).samples().iter().enumerate() {
                let exact = Complex::from_polar(amp, phase0 + dphi * i as f64);
                let err = (*s - exact).abs();
                assert!(err < 1e-12 * amp, "frame {f} sample {i}: drift {err}");
            }
        }
    }
}
