//! Thread-local cached spectral context shared by the feature extractor
//! and the energy detectors, and the frame-parallel extraction kernel.
//!
//! Both hot paths ([`crate::FeatureVector::extract_from_batch`] and
//! [`crate::EnergyDetector::pilot_dbfs`]) need the same per-(window,
//! length) preparation: the FFT plan, the window coefficients, the
//! window's own shifted spectrum (for span-response normalization) and
//! scratch. Here they are built once per thread and reused, so the steady
//! state of a reading does no trig-table work and no heap traffic.
//!
//! # The lane kernel
//!
//! [`Spectral::accumulate_batch`] transforms a batch's frames in groups
//! of [`EXTRACT_LANES`]:
//!
//! * The window pass transposes a group into `[sample][lane]` planar
//!   scratch (`lane_re[i][l]` is windowed sample `i` of the group's frame
//!   `l`) and folds each frame's time-domain moments on the way.
//! * [`FftPlan::forward_lanes`] runs the plan's own bit-reversal and
//!   twiddle table once for the whole group; every butterfly is an
//!   `EXTRACT_LANES`-wide array op.
//! * `|X[k]|²·scale` is added into the shifted bin `k ^ n/2`, lane by
//!   lane in frame order.
//! * A tail group with fewer than `EXTRACT_LANES` frames reads zeros in
//!   its spare lanes and does not accumulate them.
//!
//! Four lanes measured fastest on a 2-vCPU x86-64 host at the SSE2
//! baseline; eight were slower and double the scratch. At `n = 256` the
//! two lane planes take `2 · 256 · 4 · 8 B = 16 KiB`, half of a 32 KiB
//! L1d.
//!
//! Each lane repeats exactly the scalar operations of
//! [`FftPlan::forward`], and every power bin and moment is summed in the
//! same order as the one-frame path, so the kernel is bit-identical to
//! [`Spectral::accumulate_shifted_power`]. That per-frame path survives
//! only as the oracle that proves it: the bit-identity tests and probe's
//! `extract` baseline.

use std::cell::RefCell;
use std::rc::Rc;

use crate::features::FrameMoments;
use crate::fft::{fftshift_in_place, plan_for, FftPlan};
use crate::window::Window;
use crate::{Complex, FrameBatch, IqFrame};

/// Frames transformed together by the lane kernel (see the module docs
/// for how it was picked).
pub const EXTRACT_LANES: usize = 4;

/// Cached spectral state for one `(window, frame length)` pair.
pub(crate) struct Spectral {
    window: Window,
    n: usize,
    plan: Rc<FftPlan>,
    /// Window coefficients for length `n`.
    pub(crate) coeffs: Vec<f64>,
    /// Coherent (amplitude) sum of the window, `Σw`.
    pub(crate) coherent_sum: f64,
    /// `|FFT(w)|²` after fftshift: the window's span response per bin.
    pub(crate) win_span_norms: Vec<f64>,
    /// Frame-sized complex scratch for the per-frame oracle.
    scratch: Vec<Complex>,
    /// `[sample][lane]` re/im planes of the lane kernel's current group.
    lane_re: Vec<[f64; EXTRACT_LANES]>,
    lane_im: Vec<[f64; EXTRACT_LANES]>,
    /// `n` zeros: the input plane of a tail group's spare lanes.
    zeros: Vec<f64>,
    /// Power-spectrum accumulator (see [`Self::reset_power`]).
    power: Vec<f64>,
}

impl Spectral {
    fn new(window: Window, n: usize) -> Self {
        let plan = plan_for(n).expect("frame length must be a power of two");
        let coeffs = window.coefficients(n);
        let coherent_sum: f64 = coeffs.iter().sum();
        let mut wspec: Vec<Complex> = coeffs.iter().map(|&w| Complex::new(w, 0.0)).collect();
        plan.forward(&mut wspec);
        fftshift_in_place(&mut wspec);
        let win_span_norms = wspec.iter().map(|z| z.norm_sq()).collect();
        Self {
            window,
            n,
            plan,
            coeffs,
            coherent_sum,
            win_span_norms,
            scratch: vec![Complex::ZERO; n],
            lane_re: vec![[0.0; EXTRACT_LANES]; n],
            lane_im: vec![[0.0; EXTRACT_LANES]; n],
            zeros: vec![0.0; n],
            power: Vec::with_capacity(n),
        }
    }

    /// Zeroes the power accumulator (no allocation after first use).
    pub(crate) fn reset_power(&mut self) {
        self.power.clear();
        self.power.resize(self.n, 0.0);
    }

    /// The per-frame oracle: windows `frame` into the complex scratch,
    /// runs [`FftPlan::forward`] and the in-place fftshift, and adds
    /// `|X[k]|² · scale` into the power accumulator. No shipped path runs
    /// it; the bit-identity tests and probe's `extract` baseline hold the
    /// lane kernel to it.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len()` differs from the context length.
    pub(crate) fn accumulate_shifted_power(&mut self, frame: &IqFrame, scale: f64) {
        assert_eq!(frame.len(), self.n, "frame length must match the spectral context");
        for ((dst, s), w) in self.scratch.iter_mut().zip(frame.samples()).zip(&self.coeffs) {
            *dst = s.scale(*w);
        }
        self.plan.forward(&mut self.scratch);
        fftshift_in_place(&mut self.scratch);
        for (acc, z) in self.power.iter_mut().zip(&self.scratch) {
            *acc += z.norm_sq() * scale;
        }
    }

    /// The lane kernel: adds every frame's windowed, shifted
    /// `|X[k]|² · scale` into the power accumulator, and hands each
    /// frame's time-domain moments to `on_frame` in frame order. Bin for
    /// bin, the sums are bit-identical to one
    /// [`Self::accumulate_shifted_power`] call per frame.
    ///
    /// # Panics
    ///
    /// Panics if the batch's frame length differs from the context length.
    pub(crate) fn accumulate_batch(
        &mut self,
        batch: &FrameBatch,
        scale: f64,
        mut on_frame: impl FnMut(&FrameMoments),
    ) {
        assert_eq!(batch.frame_len(), self.n, "frame length must match the spectral context");
        for first in (0..batch.frames()).step_by(EXTRACT_LANES) {
            let count = EXTRACT_LANES.min(batch.frames() - first);
            let moments = self.load_group(batch, first, count);
            self.plan.forward_lanes(&mut self.lane_re, &mut self.lane_im);
            self.accumulate_group(count, scale);
            moments[..count].iter().for_each(&mut on_frame);
        }
    }

    /// Windows frames `first .. first + count` into the lane planes
    /// (spare lanes get zeros) and returns each lane's moments, folded in
    /// sample order.
    fn load_group(
        &mut self,
        batch: &FrameBatch,
        first: usize,
        count: usize,
    ) -> [FrameMoments; EXTRACT_LANES] {
        let zeros = self.zeros.as_slice();
        let re: [&[f64]; EXTRACT_LANES] =
            std::array::from_fn(|l| if l < count { batch.re_plane(first + l) } else { zeros });
        let im: [&[f64]; EXTRACT_LANES] =
            std::array::from_fn(|l| if l < count { batch.im_plane(first + l) } else { zeros });
        let mut moments = [FrameMoments::default(); EXTRACT_LANES];
        for (j, ((dre, dim), &w)) in
            self.lane_re.iter_mut().zip(self.lane_im.iter_mut()).zip(&self.coeffs).enumerate()
        {
            for l in 0..EXTRACT_LANES {
                let (x, y) = (re[l][j], im[l][j]);
                dre[l] = x * w;
                dim[l] = y * w;
                moments[l].accumulate(x, y);
            }
        }
        moments
    }

    /// Adds the first `count` lanes' `|X[k]|² · scale` into the shifted
    /// bins, in lane (frame) order. The fftshifted position of bin `k` is
    /// `(k + n/2) mod n`, so the low `n - n/2` bins land in the upper
    /// part of the accumulator and the rest in the lower part.
    fn accumulate_group(&mut self, count: usize, scale: f64) {
        let half = self.n / 2;
        let (neg, pos) = self.power.split_at_mut(half);
        let (re_lo, re_hi) = self.lane_re.split_at(self.n - half);
        let (im_lo, im_hi) = self.lane_im.split_at(self.n - half);
        for (acc, (re, im)) in pos.iter_mut().zip(re_lo.iter().zip(im_lo)) {
            for l in 0..count {
                *acc += (re[l] * re[l] + im[l] * im[l]) * scale;
            }
        }
        for (acc, (re, im)) in neg.iter_mut().zip(re_hi.iter().zip(im_hi)) {
            for l in 0..count {
                *acc += (re[l] * re[l] + im[l] * im[l]) * scale;
            }
        }
    }

    /// The accumulated, fftshifted power spectrum.
    pub(crate) fn power(&self) -> &[f64] {
        &self.power
    }
}

thread_local! {
    /// Per-thread contexts; the workspace uses one or two (window, n)
    /// pairs, so a linear scan is cheaper than a map.
    static CONTEXTS: RefCell<Vec<Spectral>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with this thread's cached spectral context for `(window, n)`,
/// building it on first use.
///
/// # Panics
///
/// Panics if `n` is not a power of two. Re-entrant use (calling
/// `with_spectral` from inside `f`) is not supported.
pub(crate) fn with_spectral<R>(window: Window, n: usize, f: impl FnOnce(&mut Spectral) -> R) -> R {
    CONTEXTS.with(|cell| {
        let mut list = cell.borrow_mut();
        let idx = match list.iter().position(|s| s.window == window && s.n == n) {
            Some(i) => i,
            None => {
                list.push(Spectral::new(window, n));
                list.len() - 1
            }
        };
        f(&mut list[idx])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{fft, fftshift};
    use proptest::prelude::*;

    #[test]
    fn context_is_cached_per_window_and_length() {
        let first = with_spectral(Window::Hann, 64, |ctx| ctx.coeffs.as_ptr() as usize);
        let second = with_spectral(Window::Hann, 64, |ctx| ctx.coeffs.as_ptr() as usize);
        assert_eq!(first, second, "same (window, n) must reuse the context");
        let other = with_spectral(Window::Hamming, 64, |ctx| ctx.coeffs.as_ptr() as usize);
        assert_ne!(first, other, "different windows need their own context");
    }

    #[test]
    fn window_span_norms_match_direct_computation() {
        with_spectral(Window::Blackman, 32, |ctx| {
            let coeffs = Window::Blackman.coefficients(32);
            let mut wspec: Vec<Complex> = coeffs.iter().map(|&w| Complex::new(w, 0.0)).collect();
            fft(&mut wspec).unwrap();
            let expected: Vec<f64> = fftshift(&wspec).iter().map(|z| z.norm_sq()).collect();
            assert_eq!(ctx.win_span_norms, expected);
        });
    }

    #[test]
    fn accumulation_sums_scaled_frame_spectra() {
        let frame = IqFrame::new((0..16).map(|i| Complex::new(i as f64, -1.0)).collect());
        with_spectral(Window::Hann, 16, |ctx| {
            ctx.reset_power();
            ctx.accumulate_shifted_power(&frame, 0.5);
            ctx.accumulate_shifted_power(&frame, 0.5);
            let coeffs = Window::Hann.coefficients(16);
            let mut buf: Vec<Complex> =
                frame.samples().iter().zip(&coeffs).map(|(s, w)| s.scale(*w)).collect();
            fft(&mut buf).unwrap();
            let expected: Vec<f64> = fftshift(&buf).iter().map(|z| z.norm_sq()).collect();
            for (got, want) in ctx.power().iter().zip(&expected) {
                assert!((got - want).abs() <= 1e-12 * want.max(1.0), "{got} vs {want}");
            }
        });
    }

    /// Seeded pseudo-random frames of length `n` (no RNG dependency on the
    /// synthesizer, so any power-of-two length works).
    fn frames(count: usize, n: usize, seed: u64) -> Vec<IqFrame> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        (0..count)
            .map(|_| IqFrame::new((0..n).map(|_| Complex::new(next(), next())).collect()))
            .collect()
    }

    proptest! {
        /// Every lane of the shipped kernel's transform — window pass,
        /// transpose, `forward_lanes` — equals `FftPlan::forward` on that
        /// windowed frame, bit for bit. Frame counts 1..=2L+1 cover full
        /// groups and every partial tail group; lengths 2..=512 cover every
        /// stage count up to the 256-point frames and one past them.
        #[test]
        fn every_lane_is_bit_identical_to_the_one_frame_fft(seed in any::<u64>()) {
            for log in 1..=9 {
                let n = 1usize << log;
                for count in 1..=2 * EXTRACT_LANES + 1 {
                    let frames = frames(count, n, seed ^ (n * 100 + count) as u64);
                    let batch = FrameBatch::from_frames(&frames);
                    with_spectral(Window::Hamming, n, |ctx| {
                        for first in (0..count).step_by(EXTRACT_LANES) {
                            let lanes = EXTRACT_LANES.min(count - first);
                            ctx.load_group(&batch, first, lanes);
                            ctx.plan.forward_lanes(&mut ctx.lane_re, &mut ctx.lane_im);
                            for (l, frame) in frames[first..first + lanes].iter().enumerate() {
                                let mut want: Vec<Complex> = frame
                                    .samples()
                                    .iter()
                                    .zip(&ctx.coeffs)
                                    .map(|(s, w)| s.scale(*w))
                                    .collect();
                                ctx.plan.forward(&mut want);
                                for (i, z) in want.iter().enumerate() {
                                    prop_assert_eq!(ctx.lane_re[i][l].to_bits(), z.re.to_bits());
                                    prop_assert_eq!(ctx.lane_im[i][l].to_bits(), z.im.to_bits());
                                }
                            }
                            // A tail group's spare lanes carry the zero frame.
                            for l in lanes..EXTRACT_LANES {
                                let mut spare = ctx.lane_re.iter().chain(&ctx.lane_im);
                                prop_assert!(spare.all(|z| z[l] == 0.0));
                            }
                        }
                        Ok(())
                    })?;
                }
            }
        }
    }

    #[test]
    fn lane_kernel_matches_frame_kernel_bit_for_bit() {
        // Shifted power and moments of the lane kernel against one
        // `accumulate_shifted_power` call per frame, including the n = 1
        // plan (no shift) and a tail group.
        for n in [1usize, 2, 32, 256] {
            let frames = frames(EXTRACT_LANES + 3, n, n as u64);
            let batch = FrameBatch::from_frames(&frames);
            with_spectral(Window::Hamming, n, |ctx| {
                ctx.reset_power();
                for frame in &frames {
                    ctx.accumulate_shifted_power(frame, 0.25);
                }
                let reference: Vec<f64> = ctx.power().to_vec();
                ctx.reset_power();
                let mut moments = Vec::new();
                ctx.accumulate_batch(&batch, 0.25, |m| moments.push(*m));
                for (got, want) in ctx.power().iter().zip(&reference) {
                    assert_eq!(got.to_bits(), want.to_bits(), "n={n}");
                }
                let want: Vec<FrameMoments> = frames
                    .iter()
                    .map(|f| {
                        let mut m = FrameMoments::default();
                        f.samples().iter().for_each(|z| m.accumulate(z.re, z.im));
                        m
                    })
                    .collect();
                assert_eq!(moments, want, "n={n}");
            });
        }
    }

    #[test]
    #[should_panic(expected = "frame length must match")]
    fn mismatched_frame_length_panics() {
        let frame = IqFrame::new(vec![Complex::ONE; 8]);
        with_spectral(Window::Hann, 16, |ctx| {
            ctx.reset_power();
            ctx.accumulate_shifted_power(&frame, 1.0);
        });
    }
}
