//! Iterative radix-2 fast Fourier transform with precomputed plans.
//!
//! The feature extractor computes a 256-point DFT per measurement, so a
//! from-scratch FFT (no external DSP crates exist offline) is part of the
//! substrate. The implementation is the standard bit-reversal +
//! Cooley–Tukey butterfly scheme, driven by an [`FftPlan`]: the
//! bit-reversal permutation and every stage's twiddle factors are computed
//! once (each entry by a direct `cis` evaluation, not the error-accumulating
//! `w *= wlen` recurrence) and reused across transforms. [`fft`]/[`ifft`]
//! fetch a thread-local cached plan, so steady-state transforms do no trig
//! and no allocation. [`dft_naive`] is the O(n²) reference the tests
//! validate against.
//!
//! [`FftPlan::forward_lanes`] runs the same plan over several frames at
//! once in the `[sample][lane]` layout (`re[i][l]` is sample `i` of frame
//! `l`). Feature extraction transforms a reading's frames
//! [`crate::EXTRACT_LANES`] at a time this way (`crate::spectral`). Each
//! lane repeats the scalar butterfly sequence of [`FftPlan::forward`]
//! with the same twiddle entries, and Rust neither reassociates float
//! adds nor fuses them into FMA, so every lane is bit-identical to
//! `forward` on its frame. On the extraction path the one-frame
//! `forward` is now only the oracle the lane kernel is tested and
//! benchmarked against.

use std::cell::RefCell;
use std::rc::Rc;

use crate::Complex;

/// Error returned when a transform is requested on an unsupported length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonPowerOfTwo {
    len: usize,
}

impl std::fmt::Display for NonPowerOfTwo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fft length {} is not a power of two", self.len)
    }
}

impl std::error::Error for NonPowerOfTwo {}

/// A precomputed radix-2 transform plan for one FFT size.
///
/// Holds the bit-reversal permutation and the per-stage twiddle tables.
/// Every table entry is evaluated directly with [`Complex::cis`], so the
/// tables are accurate to machine precision — unlike the classic
/// `w *= wlen` recurrence, whose rounding error grows along each chunk.
/// One plan serves both directions: the inverse conjugates table entries
/// on the fly.
///
/// Plans are cheap to share (`Rc` via [`plan_for`]) and immutable; the
/// transforms run in place, so no scratch allocation is needed per call.
///
/// # Examples
///
/// ```
/// use waldo_iq::{fft::FftPlan, Complex};
///
/// let plan = FftPlan::new(4).unwrap();
/// let mut x = vec![Complex::ONE; 4];
/// plan.forward(&mut x);
/// assert!((x[0].re - 4.0).abs() < 1e-12); // all energy at DC
/// plan.inverse(&mut x);
/// assert!((x[0].re - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// `rev[i]` is `i` with its low `log2(n)` bits reversed.
    rev: Vec<u32>,
    /// Forward twiddles for all stages, concatenated. The stage with
    /// half-length `h` (h = 1, 2, …, n/2) owns entries `h-1 .. 2h-1`;
    /// entry `h-1+i` is `e^{-jπi/h}`. Total length `n - 1`.
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`NonPowerOfTwo`] if `n` is not a power of two (zero is
    /// rejected too).
    pub fn new(n: usize) -> Result<Self, NonPowerOfTwo> {
        if n == 0 || !n.is_power_of_two() {
            return Err(NonPowerOfTwo { len: n });
        }
        let bits = n.trailing_zeros();
        let rev = if bits == 0 {
            vec![0]
        } else {
            (0..n).map(|i| (i.reverse_bits() >> (usize::BITS - bits)) as u32).collect()
        };
        let mut twiddles = Vec::with_capacity(n - 1);
        let mut half = 1usize;
        while half < n {
            let step = -std::f64::consts::PI / half as f64;
            twiddles.extend((0..half).map(|i| Complex::cis(step * i as f64)));
            half <<= 1;
        }
        Ok(Self { n, rev, twiddles })
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan length is zero (never true; plans reject `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT: `X[k] = Σ x[n]·e^{-j2πkn/N}`, no normalization.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`len`](Self::len).
    pub fn forward(&self, data: &mut [Complex]) {
        self.process(data, Direction::Forward);
    }

    /// In-place inverse FFT, including the `1/N` normalization so that
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from [`len`](Self::len).
    pub fn inverse(&self, data: &mut [Complex]) {
        self.process(data, Direction::Inverse);
        let scale = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    /// In-place forward FFT of `L` frames at once, held in the
    /// `[sample][lane]` layout: `re[i][l]`/`im[i][l]` is sample `i` of
    /// frame (lane) `l`. One pass of this plan's bit-reversal permutation
    /// and twiddle table serves every lane, and each butterfly is an
    /// `L`-wide array op that autovectorizes even in the 2- and 4-point
    /// stages, where the one-frame transform has nothing to vectorize.
    ///
    /// Lane `l` sees exactly the scalar operation sequence of
    /// [`forward`](Self::forward) on that frame: the same swaps, the same
    /// twiddle entry, the same products and sums in the same order. Rust
    /// neither reassociates float adds nor contracts them into FMA, so
    /// every lane's output is bit-identical to `forward`.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from [`len`](Self::len).
    pub fn forward_lanes<const L: usize>(&self, re: &mut [[f64; L]], im: &mut [[f64; L]]) {
        assert_eq!(re.len(), self.n, "re lanes must hold one plan length of samples");
        assert_eq!(im.len(), self.n, "im lanes must hold one plan length of samples");
        let n = self.n;
        if n == 1 {
            return;
        }
        for i in 0..n {
            let j = self.rev[i] as usize;
            if j > i {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
        let mut half = 1;
        while half < n {
            let stage = &self.twiddles[half - 1..2 * half - 1];
            for (cre, cim) in re.chunks_exact_mut(2 * half).zip(im.chunks_exact_mut(2 * half)) {
                let (ure, vre) = cre.split_at_mut(half);
                let (uim, vim) = cim.split_at_mut(half);
                for ((((ur, ui), vr), vi), tw) in ure
                    .iter_mut()
                    .zip(uim.iter_mut())
                    .zip(vre.iter_mut())
                    .zip(vim.iter_mut())
                    .zip(stage)
                {
                    for l in 0..L {
                        // `chunk[i + half] * tw`, term for term as `Complex::mul`.
                        let pr = vr[l] * tw.re - vi[l] * tw.im;
                        let pi = vr[l] * tw.im + vi[l] * tw.re;
                        let (a, b) = (ur[l], ui[l]);
                        ur[l] = a + pr;
                        ui[l] = b + pi;
                        vr[l] = a - pr;
                        vi[l] = b - pi;
                    }
                }
            }
            half <<= 1;
        }
    }

    fn process(&self, data: &mut [Complex], dir: Direction) {
        assert_eq!(
            data.len(),
            self.n,
            "plan built for length {} applied to a buffer of length {}",
            self.n,
            data.len()
        );
        let n = self.n;
        if n == 1 {
            return;
        }

        // Bit-reversal permutation (table lookup, computed once per plan).
        for i in 0..n {
            let j = self.rev[i] as usize;
            if j > i {
                data.swap(i, j);
            }
        }

        // Cooley–Tukey butterflies with table twiddles.
        let mut half = 1;
        while half < n {
            let stage = &self.twiddles[half - 1..2 * half - 1];
            for chunk in data.chunks_mut(2 * half) {
                for (i, &tw) in stage.iter().enumerate() {
                    let w = match dir {
                        Direction::Forward => tw,
                        Direction::Inverse => tw.conj(),
                    };
                    let u = chunk[i];
                    let v = chunk[i + half] * w;
                    chunk[i] = u + v;
                    chunk[i + half] = u - v;
                }
            }
            half <<= 1;
        }
    }
}

thread_local! {
    /// Per-thread plan cache, keyed by transform length. The workspace
    /// only ever uses a couple of sizes (256-point frames plus small test
    /// transforms), so a linear scan over an `Rc` list beats a map.
    static PLANS: RefCell<Vec<Rc<FftPlan>>> = const { RefCell::new(Vec::new()) };
}

/// Returns this thread's cached plan for length `n`, building it on first
/// use. Subsequent calls for the same length are a pointer clone.
///
/// # Errors
///
/// Returns [`NonPowerOfTwo`] if `n` is not a power of two.
pub fn plan_for(n: usize) -> Result<Rc<FftPlan>, NonPowerOfTwo> {
    PLANS.with(|cell| {
        let mut plans = cell.borrow_mut();
        if let Some(p) = plans.iter().find(|p| p.len() == n) {
            return Ok(Rc::clone(p));
        }
        let p = Rc::new(FftPlan::new(n)?);
        plans.push(Rc::clone(&p));
        Ok(p)
    })
}

/// Computes the in-place forward FFT of `data` using the thread-local
/// cached plan for its length.
///
/// Uses the convention `X[k] = Σ x[n]·e^{-j2πkn/N}` with no normalization
/// (matching common DSP libraries; the inverse divides by `N`).
///
/// # Errors
///
/// Returns [`NonPowerOfTwo`] if `data.len()` is not a power of two (zero
/// length is rejected too).
///
/// # Examples
///
/// ```
/// use waldo_iq::{fft, Complex};
///
/// let mut x = vec![Complex::ONE; 4];
/// fft::fft(&mut x).unwrap();
/// assert!((x[0].re - 4.0).abs() < 1e-12); // all energy at DC
/// assert!(x[1].abs() < 1e-12);
/// ```
pub fn fft(data: &mut [Complex]) -> Result<(), NonPowerOfTwo> {
    plan_for(data.len())?.forward(data);
    Ok(())
}

/// Computes the in-place inverse FFT of `data`, including the `1/N`
/// normalization so that `ifft(fft(x)) == x`. Uses the thread-local
/// cached plan.
///
/// # Errors
///
/// Returns [`NonPowerOfTwo`] if `data.len()` is not a power of two.
pub fn ifft(data: &mut [Complex]) -> Result<(), NonPowerOfTwo> {
    plan_for(data.len())?.inverse(data);
    Ok(())
}

/// Forward FFT that builds its plan from scratch on every call — the
/// unplanned baseline the criterion benches compare [`fft`] against.
/// Numerically identical to the planned path (same tables, same butterfly
/// order), just slower.
///
/// # Errors
///
/// Returns [`NonPowerOfTwo`] if `data.len()` is not a power of two.
pub fn fft_unplanned(data: &mut [Complex]) -> Result<(), NonPowerOfTwo> {
    FftPlan::new(data.len())?.forward(data);
    Ok(())
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    Forward,
    Inverse,
}

/// Reference O(n²) DFT with the same convention as [`fft`]. Works for any
/// length; used by the tests and for tiny transforms.
pub fn dft_naive(data: &[Complex]) -> Vec<Complex> {
    let n = data.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::ZERO;
            for (i, &x) in data.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * i) as f64 / n as f64;
                acc += x * Complex::cis(ang);
            }
            acc
        })
        .collect()
}

/// Reorders an FFT output so that DC sits at the centre bin `n/2`
/// (equivalent of `fftshift`). The paper's CFT feature is "the central DFT
/// bin" of exactly such a shifted spectrum.
///
/// Allocates the shifted copy; hot paths should prefer
/// [`fftshift_in_place`].
///
/// # Examples
///
/// ```
/// use waldo_iq::{fft, Complex};
///
/// let spectrum = vec![
///     Complex::new(1.0, 0.0), // DC
///     Complex::new(2.0, 0.0),
///     Complex::new(3.0, 0.0),
///     Complex::new(4.0, 0.0),
/// ];
/// let shifted = fft::fftshift(&spectrum);
/// assert_eq!(shifted[2], Complex::new(1.0, 0.0)); // DC now central
/// ```
pub fn fftshift(spectrum: &[Complex]) -> Vec<Complex> {
    let mut out = spectrum.to_vec();
    fftshift_in_place(&mut out);
    out
}

/// In-place [`fftshift`]: rotates the slice so DC lands on bin `n/2`
/// without allocating. Works on any element type (complex spectra and
/// real power spectra alike).
pub fn fftshift_in_place<T>(spectrum: &mut [T]) {
    let n = spectrum.len();
    spectrum.rotate_left(n - n / 2);
}

/// Power spectrum `|X[k]|²` of a shifted or unshifted spectrum.
pub fn power_spectrum(spectrum: &[Complex]) -> Vec<f64> {
    spectrum.iter().map(|z| z.norm_sq()).collect()
}

/// Writes the power spectrum `|X[k]|²` into `out`, reusing its capacity
/// (cleared first). The allocation-free counterpart of [`power_spectrum`]
/// for per-reading hot paths.
pub fn power_spectrum_into(spectrum: &[Complex], out: &mut Vec<f64>) {
    out.clear();
    out.extend(spectrum.iter().map(|z| z.norm_sq()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_frame(n: usize, seed: u64) -> Vec<Complex> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn rejects_non_power_of_two() {
        let mut x = vec![Complex::ZERO; 3];
        assert!(fft(&mut x).is_err());
        let mut empty: Vec<Complex> = vec![];
        assert!(fft(&mut empty).is_err());
        let err = fft(&mut [Complex::ZERO; 6]).unwrap_err();
        assert!(err.to_string().contains("6"));
        assert!(FftPlan::new(12).is_err());
        assert!(plan_for(0).is_err());
    }

    #[test]
    fn matches_naive_dft() {
        // Table twiddles are exact per entry, so the FFT error is pure
        // butterfly rounding — two orders tighter than the old `w *= wlen`
        // recurrence allowed.
        for &n in &[1usize, 2, 4, 8, 64, 256] {
            let x = random_frame(n, n as u64);
            let expected = dft_naive(&x);
            let mut got = x.clone();
            fft(&mut got).unwrap();
            for (g, e) in got.iter().zip(&expected) {
                assert!(close(*g, *e, 1e-11 * n as f64), "n={n}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn planned_and_unplanned_are_bit_identical() {
        let x = random_frame(256, 21);
        let mut planned = x.clone();
        let mut unplanned = x;
        fft(&mut planned).unwrap();
        fft_unplanned(&mut unplanned).unwrap();
        assert_eq!(planned, unplanned);
    }

    #[test]
    fn plan_cache_returns_shared_plans() {
        let a = plan_for(64).unwrap();
        let b = plan_for(64).unwrap();
        assert!(Rc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
        let c = plan_for(128).unwrap();
        assert_eq!(c.len(), 128);
    }

    #[test]
    fn plan_twiddle_tables_cover_every_stage() {
        let plan = FftPlan::new(32).unwrap();
        assert_eq!(plan.twiddles.len(), 31);
        // Stage with half-length h starts at h-1 and begins with W⁰ = 1.
        for h in [1usize, 2, 4, 8, 16] {
            assert!(close(plan.twiddles[h - 1], Complex::ONE, 1e-15));
        }
        // Last stage, quarter-way entry: e^{-jπ·8/16} = -j.
        assert!(close(plan.twiddles[15 + 8], Complex::new(0.0, -1.0), 1e-15));
    }

    #[test]
    #[should_panic(expected = "plan built for length 8")]
    fn plan_rejects_mismatched_buffer() {
        let plan = FftPlan::new(8).unwrap();
        let mut x = vec![Complex::ZERO; 16];
        plan.forward(&mut x);
    }

    #[test]
    fn ifft_inverts_fft() {
        let x = random_frame(256, 9);
        let mut y = x.clone();
        fft(&mut y).unwrap();
        ifft(&mut y).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!(close(*a, *b, 1e-10));
        }
    }

    #[test]
    fn plan_inverse_matches_free_function() {
        let plan = FftPlan::new(64).unwrap();
        let x = random_frame(64, 33);
        let mut via_plan = x.clone();
        plan.forward(&mut via_plan);
        plan.inverse(&mut via_plan);
        let mut via_free = x;
        fft(&mut via_free).unwrap();
        ifft(&mut via_free).unwrap();
        assert_eq!(via_plan, via_free);
    }

    #[test]
    fn parseval_energy_is_conserved() {
        let x = random_frame(128, 3);
        let time_energy: f64 = x.iter().map(|z| z.norm_sq()).sum();
        let mut y = x.clone();
        fft(&mut y).unwrap();
        let freq_energy: f64 = y.iter().map(|z| z.norm_sq()).sum::<f64>() / 128.0;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 256;
        let k0 = 37;
        let mut x: Vec<Complex> = (0..n)
            .map(|i| Complex::cis(2.0 * std::f64::consts::PI * (k0 * i) as f64 / n as f64))
            .collect();
        fft(&mut x).unwrap();
        let power = power_spectrum(&x);
        let (argmax, max) = power.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap();
        assert_eq!(argmax, k0);
        let rest: f64 = power.iter().sum::<f64>() - max;
        assert!(rest < 1e-9 * max);
    }

    #[test]
    fn fftshift_centers_dc() {
        let n = 8;
        let mut x = vec![Complex::ONE; n]; // DC only
        fft(&mut x).unwrap();
        let shifted = fftshift(&x);
        assert!((shifted[n / 2].re - n as f64).abs() < 1e-9);
        assert!(shifted[0].abs() < 1e-9);
    }

    #[test]
    fn fftshift_roundtrips_even_lengths() {
        let x = random_frame(16, 5);
        let twice = fftshift(&fftshift(&x));
        assert_eq!(x, twice);
    }

    #[test]
    fn fftshift_in_place_matches_allocating_version() {
        for n in [1usize, 2, 5, 8, 16] {
            let x = random_frame(n, n as u64 + 40);
            let shifted = fftshift(&x);
            let mut in_place = x;
            fftshift_in_place(&mut in_place);
            assert_eq!(shifted, in_place, "n={n}");
        }
    }

    #[test]
    fn power_spectrum_into_reuses_the_buffer() {
        let x = random_frame(32, 6);
        let mut out = Vec::with_capacity(64);
        power_spectrum_into(&x, &mut out);
        assert_eq!(out, power_spectrum(&x));
        let ptr = out.as_ptr();
        power_spectrum_into(&x, &mut out);
        assert_eq!(ptr, out.as_ptr(), "refill must not reallocate");
    }

    #[test]
    fn linearity_of_transform() {
        let a = random_frame(64, 11);
        let b = random_frame(64, 12);
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        fft(&mut fa).unwrap();
        fft(&mut fb).unwrap();
        fft(&mut fs).unwrap();
        for i in 0..64 {
            assert!(close(fs[i], fa[i] + fb[i], 1e-9));
        }
    }
}
