//! Criterion benchmarks of the compute kernels behind the paper's
//! figures: the per-reading signal path (FFT, features, detection), the
//! classifiers (train + predict), Algorithm-1 labeling, and the online
//! detector step. These are the costs that determine the phone-side
//! responsiveness (Fig 17) and CPU overhead (Fig 18).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use waldo::{ClassifierKind, ModelConstructor, WaldoConfig, WhiteSpaceDetector};
use waldo_data::{ChannelDataset, Labeler, Measurement, Safety};
use waldo_geo::Point;
use waldo_iq::window::Window;
use waldo_iq::{
    fft, Complex, EnergyDetector, FeatureSet, FeatureVector, FrameBatch, FrameSynthesizer, IqFrame,
};
use waldo_ml::nb::GaussianNbTrainer;
use waldo_ml::svm::{Kernel, SvmTrainer};
use waldo_ml::{Classifier, Dataset};
use waldo_rf::TvChannel;
use waldo_sensors::{Observation, SensorKind, SensorModel};

fn frames(n: usize, seed: u64) -> Vec<IqFrame> {
    let mut rng = StdRng::seed_from_u64(seed);
    let synth = FrameSynthesizer::new(256).pilot_dbfs(-40.0).data_dbfs(-45.0).noise_dbfs(-70.0);
    (0..n).map(|_| synth.synthesize(&mut rng)).collect()
}

fn observation(rss: f64) -> Observation {
    Observation {
        rss_dbm: rss,
        features: FeatureVector {
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

fn synthetic_channel(n: usize) -> ChannelDataset {
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
    ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels)
}

fn classification_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let label = row.iter().sum::<f64>() > 0.1;
        rows.push(row);
        labels.push(label);
    }
    Dataset::from_rows(rows, labels).unwrap()
}

fn bench_signal_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("signal_path");
    let frame = frames(1, 1).pop().unwrap();
    let batch = frames(24, 2);
    let detector = EnergyDetector::new();

    group.bench_function("fft_256", |b| {
        let samples: Vec<Complex> = frame.samples().to_vec();
        b.iter_batched(
            || samples.clone(),
            |mut buf| fft::fft(black_box(&mut buf)).unwrap(),
            BatchSize::SmallInput,
        );
    });
    // Same transform, but the plan (bit-reversal table + twiddles) is
    // rebuilt on every call instead of fetched from the thread-local
    // cache — the pre-FftPlan cost model.
    group.bench_function("fft_256_unplanned", |b| {
        let samples: Vec<Complex> = frame.samples().to_vec();
        b.iter_batched(
            || samples.clone(),
            |mut buf| fft::fft_unplanned(black_box(&mut buf)).unwrap(),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("features_single_frame", |b| {
        b.iter(|| FeatureVector::extract(black_box(&frame), Window::Hann));
    });
    group.bench_function("features_24_frame_reading", |b| {
        b.iter(|| FeatureVector::extract_from_frames(black_box(&batch), Window::Hann));
    });
    // The shipped lane kernel vs the per-frame oracle it is bit-identical
    // to: the kernel against its one-FFT-per-frame baseline.
    let soa = FrameBatch::from_frames(&batch);
    group.bench_function("extract_lanes", |b| {
        b.iter(|| FeatureVector::extract_from_batch(black_box(&soa), Window::Hann));
    });
    group.bench_function("extract_per_frame_oracle", |b| {
        b.iter(|| FeatureVector::extract_from_frames_reference(black_box(&batch), Window::Hann));
    });
    group.bench_function("pilot_detector", |b| {
        b.iter(|| detector.pilot_dbfs(black_box(&frame)));
    });
    // Batched synthesis (shared Box–Muller pairs, merged noise + data
    // skirt, pilot phasor recurrence) vs the per-draw reference path.
    let synth = FrameSynthesizer::new(256).pilot_dbfs(-40.0).data_dbfs(-45.0).noise_dbfs(-70.0);
    group.bench_function("frame_synth_256", |b| {
        let mut rng = StdRng::seed_from_u64(21);
        b.iter(|| black_box(synth.synthesize(&mut rng)));
    });
    group.bench_function("frame_synth_256_unbatched", |b| {
        let mut rng = StdRng::seed_from_u64(21);
        b.iter(|| black_box(synth.synthesize_unbatched(&mut rng)));
    });
    group.bench_function("sensor_reading_rtl", |b| {
        let sensor = SensorModel::rtl_sdr();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| sensor.capture_reading(Some(-70.0), &mut rng));
    });
    group.finish();
}

fn bench_classifiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("classifiers");
    group.sample_size(10);
    let ds = classification_dataset(600, 4, 7);

    group.bench_function("nb_fit_600x4", |b| {
        b.iter(|| GaussianNbTrainer::new().fit(black_box(&ds)).unwrap());
    });
    let nb = GaussianNbTrainer::new().fit(&ds).unwrap();
    group.bench_function("nb_predict", |b| {
        b.iter(|| nb.predict(black_box(&[0.1, -0.2, 0.3, 0.0])));
    });
    group.bench_function("svm_fit_300x4", |b| {
        let small = ds.subset(&(0..300).collect::<Vec<_>>());
        b.iter(|| {
            SvmTrainer::new().kernel(Kernel::Rbf { gamma: 0.5 }).fit(black_box(&small)).unwrap()
        });
    });
    // The size a refit pays per changed locality: `svm_train_cap` = 900
    // rows of location + two signal features, RBF γ = 0.5, C = 10.
    group.bench_function("svm_fit_900x4", |b| {
        let cap = classification_dataset(900, 4, 8);
        b.iter(|| {
            SvmTrainer::new()
                .c(10.0)
                .kernel(Kernel::Rbf { gamma: 0.5 })
                .fit(black_box(&cap))
                .unwrap()
        });
    });
    // The pre-error-cache SMO (random second multiplier, f() recomputed
    // per candidate) — the "before" of the svm_fit before/after numbers.
    group.bench_function("svm_fit_naive_300x4", |b| {
        let small = ds.subset(&(0..300).collect::<Vec<_>>());
        b.iter(|| {
            SvmTrainer::new()
                .kernel(Kernel::Rbf { gamma: 0.5 })
                .fit_naive_reference(black_box(&small))
                .unwrap()
        });
    });
    let svm = SvmTrainer::new().kernel(Kernel::Rbf { gamma: 0.5 }).fit(&ds).unwrap();
    group.bench_function("svm_predict", |b| {
        b.iter(|| svm.predict(black_box(&[0.1, -0.2, 0.3, 0.0])));
    });
    // Full kernel evaluation per support vector, without the cached SV
    // squared norms — the "before" of the svm_predict win.
    group.bench_function("svm_predict_naive", |b| {
        b.iter(|| svm.decision_function_naive(black_box(&[0.1, -0.2, 0.3, 0.0])) > 0.0);
    });
    group.bench_function("kmeans_k3_1000x2", |b| {
        let pts: Vec<Vec<f64>> = classification_dataset(1000, 2, 9).rows().to_vec();
        b.iter(|| waldo_ml::kmeans::KMeans::new(3).seed(1).fit(black_box(&pts)).unwrap());
    });
    group.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.sample_size(10);

    // Algorithm-1 labeling over 2000 readings.
    let mut rng = StdRng::seed_from_u64(11);
    let readings: Vec<(Point, f64)> = (0..2000)
        .map(|_| {
            (
                Point::new(rng.gen_range(0.0..35_000.0), rng.gen_range(0.0..20_000.0)),
                rng.gen_range(-110.0..-60.0),
            )
        })
        .collect();
    group.bench_function("algorithm1_label_2000", |b| {
        let labeler = Labeler::new();
        b.iter(|| labeler.label(black_box(&readings)));
    });

    // Campaign-scale labeling (5k readings ≈ one full-scale channel), and
    // the degenerate tiny-radius configuration whose GridIndex bucket size
    // is clamped to 1 m — pinned behavior, see Labeler::label.
    let mut rng5 = StdRng::seed_from_u64(17);
    let readings_5k: Vec<(Point, f64)> = (0..5000)
        .map(|_| {
            (
                Point::new(rng5.gen_range(0.0..35_000.0), rng5.gen_range(0.0..20_000.0)),
                rng5.gen_range(-110.0..-60.0),
            )
        })
        .collect();
    group.bench_function("label_5k", |b| {
        let labeler = Labeler::new();
        b.iter(|| labeler.label(black_box(&readings_5k)));
    });
    group.bench_function("label_5k_tiny_radius", |b| {
        let labeler = Labeler::new().radius_m(0.001);
        b.iter(|| labeler.label(black_box(&readings_5k)));
    });

    // The relabel a `wide` refit pays: ~14k stored readings (campaign plus
    // uploads) through Algorithm 1 on every pass.
    let mut rng14 = StdRng::seed_from_u64(19);
    let readings_14k: Vec<(Point, f64)> = (0..14_000)
        .map(|_| {
            (
                Point::new(rng14.gen_range(0.0..35_000.0), rng14.gen_range(0.0..20_000.0)),
                rng14.gen_range(-110.0..-60.0),
            )
        })
        .collect();
    group.bench_function("label_14k", |b| {
        let labeler = Labeler::new();
        b.iter(|| labeler.label(black_box(&readings_14k)));
    });

    // Model construction on a 600-reading channel.
    let ds = synthetic_channel(600);
    group.bench_function("waldo_fit_nb_600", |b| {
        let c = ModelConstructor::new(
            WaldoConfig::default()
                .classifier(ClassifierKind::NaiveBayes)
                .features(FeatureSet::first_n(2)),
        );
        b.iter(|| c.fit(black_box(&ds)).unwrap());
    });
    group.bench_function("waldo_fit_svm_600", |b| {
        let c = ModelConstructor::new(WaldoConfig::default().features(FeatureSet::first_n(2)));
        b.iter(|| c.fit(black_box(&ds)).unwrap());
    });

    // One detector convergence episode (the Fig 17 unit of work).
    let model =
        ModelConstructor::new(WaldoConfig::default().classifier(ClassifierKind::NaiveBayes))
            .fit(&ds)
            .unwrap();
    group.bench_function("detector_convergence_episode", |b| {
        let mut rng = StdRng::seed_from_u64(13);
        b.iter(|| {
            let mut det = WhiteSpaceDetector::new(model.clone(), 0.5);
            let loc = Point::new(25_000.0, 10_000.0);
            loop {
                let rss = -70.0 + 0.4 * waldo_iq::synth::standard_normal(&mut rng);
                if let waldo::DetectorOutcome::Converged { safety, .. } =
                    det.push(loc, &observation(rss))
                {
                    break black_box(safety);
                }
            }
        });
    });

    // V-Scope fit on the same channel.
    let txs = vec![waldo_rf::Transmitter::new(
        TvChannel::new(30).unwrap(),
        Point::new(40_000.0, 10_000.0),
        85.0,
        300.0,
    )];
    group.bench_function("vscope_fit_600", |b| {
        b.iter(|| waldo::baseline::VScope::fit(black_box(&ds), txs.clone(), 3, 1).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_signal_path, bench_classifiers, bench_system);
criterion_main!(benches);
