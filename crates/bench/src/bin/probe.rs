//! Internal tuning probe: prints the headline shapes so world/sensor
//! parameters can be validated before the full harness is wired up.
//!
//! Always starts by timing the pipeline substrate — serial vs parallel
//! `Context::build`, planned vs ad-hoc vs lane-wise FFT, error-cached vs
//! naive SMO, fused-batch vs per-frame synthesis, lane-kernel vs
//! per-frame-oracle feature extraction, and the
//! online detector ingest rate — and writing the numbers to
//! `BENCH_pipeline.json` (override with `--out <path>`). When built with
//! the `obs` feature the report also carries the per-stage wall-clock
//! breakdown (synth / fft_features / label / kmeans / svm_fit / cv / …):
//! each stage's call count and total seconds from its `waldo-obs`
//! histogram over the serial build plus one model fit and one
//! cross-validation (the serial leg so stage seconds are not inflated by
//! oversubscribed workers on small hosts). Pass `--quick` to time at
//! [`Scale::Quick`], and `--bench-only` to stop after the JSON is written
//! (skipping the slow tuning sections below).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Map, Value};
use serde_json::json;
use waldo::baseline::{SpectrumDatabase, VScope};
use waldo::eval::{cross_validate, evaluate_assessor};
use waldo::{ClassifierKind, WaldoConfig};
use waldo_bench::{Context, Scale};
use waldo_iq::{fft, Complex, FeatureSet, FrameSynthesizer, EXTRACT_LANES};
use waldo_ml::svm::{Kernel, SvmTrainer};
use waldo_ml::Dataset;
use waldo_rf::TvChannel;
use waldo_sensors::SensorKind;

/// Times planned (cached [`fft::FftPlan`]) vs per-call (plan rebuilt every
/// transform) 256-point FFTs, and the per-frame share of one
/// [`fft::FftPlan::forward_lanes`] call over [`EXTRACT_LANES`] frames —
/// the transform the extraction kernel runs. Returns mean nanoseconds per
/// frame `(planned, unplanned, lanes)`.
fn bench_fft_256() -> (f64, f64, f64) {
    const N: usize = 256;
    const ITERS: u32 = 10_000;
    const PASSES: usize = 5;
    // Deterministic non-trivial input; no RNG needed.
    let samples: Vec<Complex> =
        (0..N).map(|i| Complex::cis(0.37 * i as f64).scale(1.0 / (1.0 + i as f64))).collect();
    let mut buf = samples.clone();
    // Warm the thread-local plan cache before timing the planned path.
    fft::fft(&mut buf).expect("256 is a power of two");
    let plan = fft::plan_for(N).expect("256 is a power of two");
    let lane_re: Vec<[f64; EXTRACT_LANES]> =
        samples.iter().map(|z| [z.re; EXTRACT_LANES]).collect();
    let lane_im: Vec<[f64; EXTRACT_LANES]> =
        samples.iter().map(|z| [z.im; EXTRACT_LANES]).collect();
    let (mut re, mut im) = (lane_re.clone(), lane_im.clone());
    let lane_iters = ITERS / EXTRACT_LANES as u32;

    // Best-of-PASSES: the minimum per-call time is the least polluted by
    // scheduler noise on a loaded host.
    let mut planned_ns = f64::INFINITY;
    let mut unplanned_ns = f64::INFINITY;
    let mut lanes_ns = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        for _ in 0..ITERS {
            buf.copy_from_slice(&samples);
            fft::fft(std::hint::black_box(&mut buf)).expect("256 is a power of two");
        }
        planned_ns = planned_ns.min(t.elapsed().as_nanos() as f64 / f64::from(ITERS));

        let t = Instant::now();
        for _ in 0..ITERS {
            buf.copy_from_slice(&samples);
            fft::fft_unplanned(std::hint::black_box(&mut buf)).expect("256 is a power of two");
        }
        unplanned_ns = unplanned_ns.min(t.elapsed().as_nanos() as f64 / f64::from(ITERS));

        let t = Instant::now();
        for _ in 0..lane_iters {
            re.copy_from_slice(&lane_re);
            im.copy_from_slice(&lane_im);
            plan.forward_lanes(std::hint::black_box(&mut re), std::hint::black_box(&mut im));
        }
        let frames = f64::from(lane_iters) * EXTRACT_LANES as f64;
        lanes_ns = lanes_ns.min(t.elapsed().as_nanos() as f64 / frames);
    }
    (planned_ns, unplanned_ns, lanes_ns)
}

/// Times error-cached SMO ([`SvmTrainer::fit`]) vs the retained naive
/// recompute reference on a 300×4 RBF problem (the `svm_fit_300x4` bench
/// shape). Returns best-of-passes nanoseconds per fit.
fn bench_svm_fit() -> (f64, f64) {
    const PASSES: usize = 3;
    let mut rng = StdRng::seed_from_u64(7);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..300 {
        let row: Vec<f64> = (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect();
        labels.push(row.iter().sum::<f64>() > 0.1);
        rows.push(row);
    }
    let ds = Dataset::from_rows(rows, labels).expect("non-empty");
    let trainer = SvmTrainer::new().kernel(Kernel::Rbf { gamma: 0.5 }).seed(1);

    let mut cached_ns = f64::INFINITY;
    let mut naive_ns = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        std::hint::black_box(trainer.fit(std::hint::black_box(&ds)).expect("two classes"));
        cached_ns = cached_ns.min(t.elapsed().as_nanos() as f64);

        let t = Instant::now();
        std::hint::black_box(
            trainer.fit_naive_reference(std::hint::black_box(&ds)).expect("two classes"),
        );
        naive_ns = naive_ns.min(t.elapsed().as_nanos() as f64);
    }
    (cached_ns, naive_ns)
}

/// Times the fused SoA batch path ([`FrameSynthesizer::synthesize_batch`]
/// amortized over 24-frame readings) against the per-frame Box–Muller
/// reference and the historical per-draw path, all on occupied 256-sample
/// frames. Returns best-of-passes nanoseconds per frame
/// `(fused, reference, unbatched)`.
fn bench_frame_synth() -> (f64, f64, f64) {
    const READINGS: u32 = 100;
    const FRAMES_PER_READING: usize = 24;
    const PASSES: usize = 3;
    let synth = FrameSynthesizer::new(256).pilot_dbfs(-40.0).data_dbfs(-45.0).noise_dbfs(-70.0);
    let frames = f64::from(READINGS) * FRAMES_PER_READING as f64;

    let mut fused_ns = f64::INFINITY;
    let mut reference_ns = f64::INFINITY;
    let mut unbatched_ns = f64::INFINITY;
    for pass in 0..PASSES {
        let mut rng = StdRng::seed_from_u64(pass as u64);
        let t = Instant::now();
        for _ in 0..READINGS {
            std::hint::black_box(synth.synthesize_batch(FRAMES_PER_READING, &mut rng));
        }
        fused_ns = fused_ns.min(t.elapsed().as_nanos() as f64 / frames);

        let mut rng = StdRng::seed_from_u64(pass as u64);
        let t = Instant::now();
        for _ in 0..READINGS * FRAMES_PER_READING as u32 {
            std::hint::black_box(synth.synthesize_reference(&mut rng));
        }
        reference_ns = reference_ns.min(t.elapsed().as_nanos() as f64 / frames);

        let mut rng = StdRng::seed_from_u64(pass as u64);
        let t = Instant::now();
        for _ in 0..READINGS * FRAMES_PER_READING as u32 {
            std::hint::black_box(synth.synthesize_unbatched(&mut rng));
        }
        unbatched_ns = unbatched_ns.min(t.elapsed().as_nanos() as f64 / frames);
    }
    (fused_ns, reference_ns, unbatched_ns)
}

/// Times the shipped lane-kernel extraction
/// ([`FeatureVector::extract_from_batch`]) against the per-frame oracle it
/// is bit-identical to, on one 24-frame reading. Returns best-of-passes
/// nanoseconds per reading `(lanes, per_frame_oracle)`.
fn bench_extract() -> (f64, f64) {
    use waldo_iq::{window::Window, FeatureVector};
    const ITERS: u32 = 2_000;
    const PASSES: usize = 3;
    let synth = FrameSynthesizer::new(256).pilot_dbfs(-40.0).data_dbfs(-45.0).noise_dbfs(-70.0);
    let batch = synth.synthesize_batch(24, &mut StdRng::seed_from_u64(5));
    let frames = batch.to_frames();

    let mut lanes_ns = f64::INFINITY;
    let mut oracle_ns = f64::INFINITY;
    for _ in 0..PASSES {
        let t = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(FeatureVector::extract_from_batch(
                std::hint::black_box(&batch),
                Window::Hann,
            ));
        }
        lanes_ns = lanes_ns.min(t.elapsed().as_nanos() as f64 / f64::from(ITERS));

        let t = Instant::now();
        for _ in 0..ITERS {
            std::hint::black_box(FeatureVector::extract_from_frames_reference(
                std::hint::black_box(&frames),
                Window::Hann,
            ));
        }
        oracle_ns = oracle_ns.min(t.elapsed().as_nanos() as f64 / f64::from(ITERS));
    }
    (lanes_ns, oracle_ns)
}

/// One synthetic calibrated observation at `rss` dBm (mirrors the
/// criterion `kernels` helper).
fn observation(rss: f64) -> waldo_sensors::Observation {
    waldo_sensors::Observation {
        rss_dbm: rss,
        features: waldo_iq::FeatureVector {
            rss_db: rss,
            cft_db: rss - 11.3,
            aft_db: rss - 12.5,
            quadrature_imbalance_db: 0.0,
            iq_kurtosis: 0.0,
            edge_bin_db: -110.0,
        },
        raw_pilot_db: rss - 11.3,
    }
}

/// Times the steady-state detector ingest loop — model predict + CI update
/// per reading, restarting the episode on convergence — against a Naive
/// Bayes model over a synthetic 600-reading channel. Returns best-of-passes
/// readings pushed per second.
fn bench_detector_push() -> f64 {
    use waldo::{DetectorOutcome, ModelConstructor, WhiteSpaceDetector};
    use waldo_data::{ChannelDataset, Measurement, Safety};
    use waldo_geo::Point;
    const READINGS: u32 = 20_000;
    const PASSES: usize = 3;

    let n = 600;
    let mut measurements = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let x = (i as f64 / n as f64) * 30_000.0;
        let not_safe = x > 15_000.0;
        let rss = if not_safe { -70.0 } else { -92.0 } + ((i % 7) as f64 - 3.0) * 0.4;
        measurements.push(Measurement {
            location: Point::new(x, ((i * 13) % 20) as f64 * 1_000.0),
            odometer_m: i as f64,
            observation: observation(rss),
            true_rss_dbm: rss,
        });
        labels.push(Safety::from_not_safe(not_safe));
    }
    let ds =
        ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels);
    let cfg = WaldoConfig::default()
        .classifier(ClassifierKind::NaiveBayes)
        .features(FeatureSet::first_n(2));
    let model = ModelConstructor::new(cfg).fit(&ds).expect("synthetic channel trains");

    let mut best_ns = f64::INFINITY;
    for pass in 0..PASSES {
        let mut rng = StdRng::seed_from_u64(pass as u64);
        let mut det = WhiteSpaceDetector::new(model.clone(), 0.5);
        let loc = Point::new(25_000.0, 10_000.0);
        let t = Instant::now();
        for _ in 0..READINGS {
            let rss = -70.0 + 0.4 * waldo_iq::synth::standard_normal(&mut rng);
            if let DetectorOutcome::Converged { .. } =
                std::hint::black_box(det.push(loc, &observation(rss)))
            {
                det = WhiteSpaceDetector::new(model.clone(), 0.5);
            }
        }
        best_ns = best_ns.min(t.elapsed().as_nanos() as f64 / f64::from(READINGS));
    }
    1e9 / best_ns
}

/// Total readings held by a campaign, summed across every (sensor,
/// channel) series.
fn total_readings(ctx: &Context) -> usize {
    let campaign = ctx.campaign();
    campaign
        .sensors()
        .iter()
        .flat_map(|&s| campaign.channels().into_iter().map(move |c| (s, c)))
        .filter_map(|(s, c)| campaign.dataset(s, c))
        .map(|ds| ds.len())
        .sum()
}

/// Builds the context serially and in parallel, times both, runs one model
/// fit + one cross-validation so the training stages appear in the
/// profile, and writes the report to `out`. Returns the parallel-built
/// context for the tuning sections.
fn bench_pipeline(scale: Scale, out: &str) -> Context {
    let (planned_ns, unplanned_ns, lanes_ns) = bench_fft_256();
    eprintln!(
        "fft_256: planned {planned_ns:.0} ns, per-call plan {unplanned_ns:.0} ns ({:.2}x), lane-wise {lanes_ns:.0} ns/frame ({:.2}x)",
        unplanned_ns / planned_ns,
        planned_ns / lanes_ns
    );
    let (svm_cached_ns, svm_naive_ns) = bench_svm_fit();
    eprintln!(
        "svm_fit_300x4: cached {:.2} ms, naive {:.2} ms ({:.2}x)",
        svm_cached_ns / 1e6,
        svm_naive_ns / 1e6,
        svm_naive_ns / svm_cached_ns
    );
    let (synth_fused_ns, synth_reference_ns, synth_unbatched_ns) = bench_frame_synth();
    eprintln!(
        "frame_synth_256: fused {synth_fused_ns:.0} ns, reference {synth_reference_ns:.0} ns ({:.2}x), unbatched {synth_unbatched_ns:.0} ns ({:.2}x)",
        synth_reference_ns / synth_fused_ns,
        synth_unbatched_ns / synth_fused_ns
    );
    let (extract_lanes_ns, extract_oracle_ns) = bench_extract();
    eprintln!(
        "extract_24_frame: lanes {:.1} µs, per-frame oracle {:.1} µs ({:.2}x)",
        extract_lanes_ns / 1e3,
        extract_oracle_ns / 1e3,
        extract_oracle_ns / extract_lanes_ns
    );
    let detector_push_per_s = bench_detector_push();
    eprintln!("detector_push: {detector_push_per_s:.0} readings/s");

    // The parallel leg is pinned to at least two workers: on a single-core
    // host (or under `WALDO_WORKERS=1`) the ambient count is 1, where
    // `par_map` short-circuits to the serial loop — timing that would
    // compare two serial runs and report noise as a "speedup" (the
    // workers:1, 0.95x regression this replaced).
    let ambient_workers = waldo_par::available_workers();
    let parallel_workers = ambient_workers.max(2);
    let t = Instant::now();
    let ctx = waldo_par::with_workers(parallel_workers, || Context::build(scale));
    let parallel_s = t.elapsed().as_secs_f64();
    let readings = total_readings(&ctx);
    eprintln!("context (parallel, {parallel_workers} workers, ambient {ambient_workers}) built");

    // Profile window: the serial build plus one SVM model fit and one
    // 5-fold cross-validation, so every stage of the ISSUE's breakdown
    // (synth / fft_features / label / kmeans / svm_fit / cv) records.
    // Profiling the serial leg keeps the per-stage seconds comparable
    // across machines: scoped timers measure per-thread wall clock, which
    // oversubscribed workers on a small host would inflate.
    waldo_obs::reset_histograms();
    let t = Instant::now();
    let serial = waldo_par::with_workers(1, || Context::build(scale));
    let serial_s = t.elapsed().as_secs_f64();
    drop(serial);
    eprintln!(
        "context (serial, 1 worker) built in {serial_s:.1}s; parallel {parallel_s:.1}s ({:.2}x at {parallel_workers} workers)",
        serial_s / parallel_s
    );

    let ds = ctx
        .campaign()
        .dataset(SensorKind::RtlSdr, TvChannel::EVALUATION[0])
        .expect("evaluation channel is always collected");
    let cfg = WaldoConfig::default().features(FeatureSet::first_n(2)).seed(1);
    let t = Instant::now();
    let model = waldo::ModelConstructor::new(cfg.clone()).fit(ds).expect("campaign data trains");
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cm = cross_validate(ds, &cfg, 5, 1);
    let cv_s = t.elapsed().as_secs_f64();
    eprintln!(
        "stage workload: fit {fit_s:.2}s ({} localities), cv {cv_s:.2}s (err {:.4})",
        model.locality_count(),
        cm.error_rate()
    );

    let snap = waldo_obs::histogram_snapshot();
    let mut stages = Map::new();
    if !snap.is_empty() {
        eprintln!("stage attribution (serial build + fit + cv):");
    }
    for (name, hist) in snap {
        let seconds = hist.sum() as f64 / 1e9;
        eprintln!("  {name:>14}: {seconds:>9.3}s over {} calls", hist.count());
        stages.insert(name, json!({ "seconds": seconds, "calls": hist.count() }));
    }

    let report = json!({
        "scale": format!("{scale:?}"),
        "workers": ambient_workers,
        "obs_enabled": waldo_obs::enabled(),
        "context_build": json!({
            "readings": readings,
            "serial_workers": 1,
            "parallel_workers": parallel_workers,
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": serial_s / parallel_s,
            "serial_readings_per_sec": readings as f64 / serial_s,
            "parallel_readings_per_sec": readings as f64 / parallel_s,
        }),
        "fft_256": json!({
            "planned_ns_per_call": planned_ns,
            "unplanned_ns_per_call": unplanned_ns,
            "speedup": unplanned_ns / planned_ns,
            "lanes_ns_per_frame": lanes_ns,
        }),
        "svm_fit": json!({
            "cached_ns_per_fit": svm_cached_ns,
            "naive_ns_per_fit": svm_naive_ns,
            "speedup": svm_naive_ns / svm_cached_ns,
        }),
        "frame_synth": json!({
            "fused_ns_per_frame": synth_fused_ns,
            "reference_ns_per_frame": synth_reference_ns,
            "unbatched_ns_per_frame": synth_unbatched_ns,
            "speedup": synth_reference_ns / synth_fused_ns,
            "speedup_vs_unbatched": synth_unbatched_ns / synth_fused_ns,
        }),
        "extract": json!({
            "lanes_ns_per_reading": extract_lanes_ns,
            "per_frame_oracle_ns_per_reading": extract_oracle_ns,
            "speedup": extract_oracle_ns / extract_lanes_ns,
        }),
        "detector_push": json!({
            "readings_per_s": detector_push_per_s,
        }),
        "stages": Value::Object(stages),
    });
    waldo_bench::report::write_json(out, &report);
    ctx
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let bench_only = args.iter().any(|a| a == "--bench-only");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_pipeline.json", String::as_str);
    let scale = if quick { Scale::Quick } else { Scale::Full };

    let t0 = std::time::Instant::now();
    let ctx = bench_pipeline(scale, out);
    if bench_only {
        return;
    }

    // --- sec2: sensor labels vs analyzer ground truth ---
    for sensor in [SensorKind::RtlSdr, SensorKind::UsrpB200] {
        let (mut fp, mut fn_, mut np, mut nn) = (0usize, 0usize, 0usize, 0usize);
        for ch in TvChannel::STUDY {
            let truth = ctx.campaign().ground_truth(ch);
            let ds = ctx.campaign().dataset(sensor, ch).unwrap();
            for (t, p) in truth.labels().iter().zip(ds.labels()) {
                match (t.is_not_safe(), p.is_not_safe()) {
                    (true, false) => {
                        fp += 1;
                        np += 1;
                    }
                    (true, true) => {
                        np += 1;
                    }
                    (false, true) => {
                        fn_ += 1;
                        nn += 1;
                    }
                    (false, false) => {
                        nn += 1;
                    }
                }
            }
        }
        eprintln!(
            "sec2 {sensor:?}: misdetect(FN)={:.3} false-alarm(FP)={:.3}",
            fn_ as f64 / nn.max(1) as f64,
            fp as f64 / np.max(1) as f64
        );
    }

    // --- fig4: spectrum DB FN per channel vs analyzer truth ---
    for ch in TvChannel::STUDY {
        let truth = ctx.campaign().ground_truth(ch);
        let txs: Vec<_> =
            ctx.world().field().transmitters().into_iter().filter(|t| t.channel() == ch).collect();
        let db = SpectrumDatabase::new(ch, txs);
        let cm = evaluate_assessor(&db, truth, None);
        eprintln!(
            "fig4 {ch}: FN={:.3} FP={:.3} (truth not-safe frac {:.2})",
            cm.fn_rate(),
            cm.fp_rate(),
            truth.not_safe_fraction()
        );
    }

    // --- fig12-ish: feature sweep, NB + SVM, both sensors, avg 3 channels ---
    for sensor in [SensorKind::RtlSdr, SensorKind::UsrpB200] {
        for kind in [ClassifierKind::NaiveBayes, ClassifierKind::Svm] {
            for nf in 0usize..=3 {
                let (mut fp, mut fnr, mut err) = (0.0, 0.0, 0.0);
                for chn in [15u8, 17, 47] {
                    let ch = TvChannel::new(chn).unwrap();
                    let ds = ctx.campaign().dataset(sensor, ch).unwrap();
                    let cfg = WaldoConfig::default()
                        .classifier(kind)
                        .features(FeatureSet::first_n(nf))
                        .localities(1)
                        .seed(1);
                    let cm = cross_validate(ds, &cfg, 10, 1);
                    fp += cm.fp_rate() / 3.0;
                    fnr += cm.fn_rate() / 3.0;
                    err += cm.error_rate() / 3.0;
                }
                eprintln!(
                    "fig12 {sensor:?} {kind} f={} err={err:.4} FP={fp:.4} FN={fnr:.4}",
                    nf + 1
                );
            }
        }
    }

    // --- tab1: V-Scope vs Waldo(SVM, 2 feats, k=1), averaged over eval channels ---
    let mut vs_fp = 0.0;
    let mut vs_fn = 0.0;
    let mut wd_fp = 0.0;
    let mut wd_fn = 0.0;
    let chans = ctx.evaluation_channels();
    for &ch in &chans {
        let ds = ctx.campaign().dataset(SensorKind::RtlSdr, ch).unwrap();
        let txs: Vec<_> =
            ctx.world().field().transmitters().into_iter().filter(|t| t.channel() == ch).collect();
        let vs = VScope::fit(ds, txs, 5, 1).unwrap();
        let cm = evaluate_assessor(&vs, ds, None);
        vs_fp += cm.fp_rate();
        vs_fn += cm.fn_rate();
        let cfg = WaldoConfig::default().features(FeatureSet::first_n(2)).localities(1).seed(1);
        let cm = cross_validate(ds, &cfg, 10, 1);
        wd_fp += cm.fp_rate();
        wd_fn += cm.fn_rate();
    }
    let n = chans.len() as f64;
    eprintln!(
        "tab1: V-Scope FP={:.4} FN={:.4} | Waldo-RTL FP={:.4} FN={:.4}",
        vs_fp / n,
        vs_fn / n,
        wd_fp / n,
        wd_fn / n
    );
    eprintln!("total {:.1}s", t0.elapsed().as_secs_f64());
}
