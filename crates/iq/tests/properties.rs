//! Property-based tests of the baseband substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use waldo_iq::window::Window;
use waldo_iq::{
    db_to_power, fft, power_to_db, Complex, FeatureVector, FrameBatch, FrameSynthesizer, IqFrame,
    EXTRACT_LANES,
};

fn arb_frame(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex::new(re, im)),
        len..=len,
    )
}

proptest! {
    #[test]
    fn fft_roundtrips(frame in arb_frame(64)) {
        let mut buf = frame.clone();
        fft::fft(&mut buf).unwrap();
        fft::ifft(&mut buf).unwrap();
        for (a, b) in frame.iter().zip(&buf) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_preserves_energy(frame in arb_frame(128)) {
        let time: f64 = frame.iter().map(|z| z.norm_sq()).sum();
        let mut buf = frame.clone();
        fft::fft(&mut buf).unwrap();
        let freq: f64 = buf.iter().map(|z| z.norm_sq()).sum::<f64>() / 128.0;
        prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
    }

    #[test]
    fn fft_matches_naive_dft(frame in arb_frame(16)) {
        let expect = fft::dft_naive(&frame);
        let mut got = frame.clone();
        fft::fft(&mut got).unwrap();
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((*g - *e).abs() < 1e-8);
        }
    }

    #[test]
    fn db_conversions_roundtrip(db in -200.0f64..100.0) {
        prop_assert!((power_to_db(db_to_power(db)) - db).abs() < 1e-9);
    }

    #[test]
    fn fftshift_is_an_involution_on_even_lengths(frame in arb_frame(32)) {
        let twice = fft::fftshift(&fft::fftshift(&frame));
        prop_assert_eq!(frame, twice);
    }

    #[test]
    fn complex_field_axioms(re1 in -5.0f64..5.0, im1 in -5.0f64..5.0,
                            re2 in -5.0f64..5.0, im2 in -5.0f64..5.0) {
        let a = Complex::new(re1, im1);
        let b = Complex::new(re2, im2);
        // Commutativity and |ab| = |a||b|.
        prop_assert!((a * b - b * a).abs() < 1e-12);
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9);
        // Division inverts multiplication away from zero.
        prop_assume!(b.abs() > 1e-6);
        prop_assert!(((a * b) / b - a).abs() < 1e-6);
    }

    /// The lane kernel and the per-frame oracle share the per-sample
    /// moment accumulator and the spectral finalization, and every lane
    /// repeats the one-frame FFT's operations, so on identical frames —
    /// draw order preserved by construction — every feature and the pilot
    /// estimate must agree to the bit, across occupied and vacant
    /// channels, 64- and 256-sample frames, and batch sizes 1..=2L+1
    /// (full lane groups plus every partial tail group).
    #[test]
    fn fused_extraction_is_bit_identical_to_reference(
        seed in 0u64..1_000,
        frames in 1usize..=2 * EXTRACT_LANES + 1,
        long in any::<bool>(),
        occupied in any::<bool>(),
        pilot in -60.0f64..-25.0,
        noise in -75.0f64..-50.0,
    ) {
        let n = if long { 256 } else { 64 };
        let mut synth = FrameSynthesizer::new(n).noise_dbfs(noise);
        if occupied {
            synth = synth.pilot_dbfs(pilot).data_dbfs(pilot - 2.5).pilot_offset_cycles(1.3);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let frames: Vec<IqFrame> = (0..frames).map(|_| synth.synthesize(&mut rng)).collect();

        let fused = FeatureVector::extract_from_batch(&FrameBatch::from_frames(&frames), Window::Hann);
        let reference = FeatureVector::extract_from_frames_reference(&frames, Window::Hann);

        prop_assert_eq!(fused.pilot_db.to_bits(), reference.pilot_db.to_bits());
        let (f, r) = (fused.features, reference.features);
        prop_assert_eq!(f.rss_db.to_bits(), r.rss_db.to_bits());
        prop_assert_eq!(f.cft_db.to_bits(), r.cft_db.to_bits());
        prop_assert_eq!(f.aft_db.to_bits(), r.aft_db.to_bits());
        prop_assert_eq!(f.quadrature_imbalance_db.to_bits(), r.quadrature_imbalance_db.to_bits());
        prop_assert_eq!(f.iq_kurtosis.to_bits(), r.iq_kurtosis.to_bits());
        prop_assert_eq!(f.edge_bin_db.to_bits(), r.edge_bin_db.to_bits());
    }

    /// A vacant batch is one contiguous Gaussian plane fill, which consumes
    /// the identical RNG stream as consecutive one-frame batches: the SoA
    /// synthesis must reproduce the per-frame wrapper bit for bit.
    #[test]
    fn vacant_batch_synthesis_preserves_draw_order(seed in 0u64..1_000, frames in 1usize..6) {
        let synth = FrameSynthesizer::new(32).noise_dbfs(-55.0);
        let batch = synth.synthesize_batch(frames, &mut StdRng::seed_from_u64(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let expect: Vec<IqFrame> = (0..frames).map(|_| synth.synthesize(&mut rng)).collect();
        prop_assert_eq!(batch.to_frames(), expect);
    }
}

/// Where the Gaussian fill *is* restructured — the ziggurat batch fill vs
/// the Box–Muller reference — the two synthesis paths must agree in
/// distribution: averaged over ≥300 frames, the extracted features sit
/// within a tight statistical tolerance.
#[test]
fn fused_and_reference_features_agree_statistically() {
    let synth = FrameSynthesizer::new(256).pilot_dbfs(-38.0).data_dbfs(-42.0).noise_dbfs(-58.0);
    const ROUNDS: usize = 13; // 13 × 24 = 312 frames per path
    let mut rng_a = StdRng::seed_from_u64(0xF00D);
    let mut rng_b = StdRng::seed_from_u64(0xF00D);
    let mut fused_rss = 0.0;
    let mut fused_pilot = 0.0;
    let mut ref_rss = 0.0;
    let mut ref_pilot = 0.0;
    for _ in 0..ROUNDS {
        let batch = synth.synthesize_batch(24, &mut rng_a);
        let fused = FeatureVector::extract_from_batch(&batch, Window::Hann);
        fused_rss += db_to_power(fused.features.rss_db) / ROUNDS as f64;
        fused_pilot += db_to_power(fused.pilot_db) / ROUNDS as f64;

        let frames: Vec<IqFrame> =
            (0..24).map(|_| synth.synthesize_reference(&mut rng_b)).collect();
        let reference = FeatureVector::extract_from_frames_reference(&frames, Window::Hann);
        ref_rss += db_to_power(reference.features.rss_db) / ROUNDS as f64;
        ref_pilot += db_to_power(reference.pilot_db) / ROUNDS as f64;
    }
    let rss_delta = power_to_db(fused_rss) - power_to_db(ref_rss);
    let pilot_delta = power_to_db(fused_pilot) - power_to_db(ref_pilot);
    assert!(rss_delta.abs() < 0.3, "rss delta {rss_delta} dB");
    assert!(pilot_delta.abs() < 0.5, "pilot delta {pilot_delta} dB");
}
