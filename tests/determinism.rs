//! Determinism suite for the parallel runtime: every pipeline stage that
//! fans out over `waldo_par` must produce bit-identical results at any
//! worker count, because each unit of work derives its own seeded RNG and
//! the runtime merges results in input order. These tests pin that
//! contract end to end: campaign collection, model construction, and
//! cross validation.

use rand::rngs::StdRng;
use rand::SeedableRng;
use waldo_repro::data::{Campaign, CampaignBuilder};
use waldo_repro::iq::{FrameSynthesizer, IqFrame};
use waldo_repro::ml::svm::{Kernel, SvmTrainer};
use waldo_repro::ml::Dataset;
use waldo_repro::par::{par_map, with_workers};
use waldo_repro::rf::world::{World, WorldBuilder};
use waldo_repro::rf::TvChannel;
use waldo_repro::sensors::SensorKind;
use waldo_repro::waldo::eval::cross_validate;
use waldo_repro::waldo::{ClassifierKind, ModelConstructor, WaldoConfig};

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn world() -> World {
    WorldBuilder::new().seed(42).build()
}

fn collect(world: &World) -> Campaign {
    CampaignBuilder::new(world)
        .readings_per_channel(120)
        .spacing_m(2_000.0)
        .factory_calibration()
        .seed(42)
        .collect()
}

#[test]
fn campaign_collection_is_bit_identical_at_any_worker_count() {
    let world = world();
    let baseline = with_workers(1, || collect(&world));
    for workers in WORKER_COUNTS {
        let candidate = with_workers(workers, || collect(&world));
        assert_eq!(baseline, candidate, "collect() diverged from serial at {workers} workers");
    }
}

#[test]
fn model_construction_is_bit_identical_at_any_worker_count() {
    let world = world();
    let campaign = collect(&world);
    let ds = campaign
        .dataset(SensorKind::RtlSdr, TvChannel::EVALUATION[0])
        .expect("evaluation channel is always collected");
    for kind in [ClassifierKind::Svm, ClassifierKind::NaiveBayes] {
        let config = WaldoConfig::default().classifier(kind).localities(4).seed(9);
        let fit = || ModelConstructor::new(config.clone()).fit(ds).expect("campaign data trains");
        let baseline = with_workers(1, fit);
        for workers in WORKER_COUNTS {
            let candidate = with_workers(workers, fit);
            assert_eq!(baseline, candidate, "{kind} fit diverged from serial at {workers} workers");
        }
    }
}

#[test]
fn error_cached_smo_is_bit_identical_at_any_worker_count() {
    // The error-cached SMO consults a seeded RNG only through its own
    // per-fit StdRng, so fanning independent fits out over the pool must
    // reproduce the serial models exactly (support sets, coefficients,
    // and bias all bit-identical).
    use rand::Rng;
    let datasets: Vec<Dataset> = (0..8u64)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let rows: Vec<Vec<f64>> =
                (0..60).map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
            let labels: Vec<bool> = rows.iter().map(|r| r.iter().sum::<f64>() > 0.0).collect();
            Dataset::from_rows(rows, labels).expect("valid dataset")
        })
        .collect();
    let fit_all = || {
        par_map(&datasets, |ds| {
            SvmTrainer::new().kernel(Kernel::Rbf { gamma: 0.7 }).fit(ds).expect("separable-ish")
        })
    };
    let baseline = with_workers(1, fit_all);
    for workers in WORKER_COUNTS {
        let candidate = with_workers(workers, fit_all);
        assert_eq!(baseline, candidate, "SMO fits diverged from serial at {workers} workers");
    }
}

#[test]
fn batched_synthesis_is_bit_identical_at_any_worker_count() {
    // Batched Gaussian synthesis draws every sample from a per-frame
    // seeded RNG; the worker count must never leak into the stream.
    let seeds: Vec<u64> = (0..32).collect();
    let synthesize_all = || {
        let synth = FrameSynthesizer::new(256).pilot_dbfs(-40.0).data_dbfs(-45.0).noise_dbfs(-70.0);
        par_map(&seeds, |&seed| -> IqFrame {
            let mut rng = StdRng::seed_from_u64(seed);
            synth.synthesize(&mut rng)
        })
    };
    let baseline = with_workers(1, synthesize_all);
    for workers in WORKER_COUNTS {
        let candidate = with_workers(workers, synthesize_all);
        assert_eq!(baseline, candidate, "synthesis diverged from serial at {workers} workers");
    }
}

#[test]
fn fused_reading_pipeline_is_bit_identical_at_any_worker_count() {
    // The fused hot path end to end: SoA capture batch → windowed-FFT
    // accumulate → single-pass feature extraction, fanned out one reading
    // per work item with a per-item seeded RNG. The extracted feature bits
    // must not depend on the worker count.
    use waldo_repro::iq::window::Window;
    use waldo_repro::iq::FeatureVector;
    use waldo_repro::sensors::SensorModel;
    let seeds: Vec<u64> = (0..24).collect();
    let measure_all = || {
        let sensor = SensorModel::rtl_sdr();
        par_map(&seeds, |&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let rss = if seed % 3 == 0 { None } else { Some(-90.0 + seed as f64) };
            let batch = sensor.capture_reading_batch(rss, &mut rng);
            let extraction = FeatureVector::extract_from_batch(&batch, Window::Hann);
            let f = extraction.features;
            [
                extraction.pilot_db,
                f.rss_db,
                f.cft_db,
                f.aft_db,
                f.quadrature_imbalance_db,
                f.iq_kurtosis,
                f.edge_bin_db,
            ]
            .map(f64::to_bits)
        })
    };
    let baseline = with_workers(1, measure_all);
    for workers in WORKER_COUNTS {
        let candidate = with_workers(workers, measure_all);
        assert_eq!(
            baseline, candidate,
            "fused reading pipeline diverged from serial at {workers} workers"
        );
    }
}

#[test]
fn cross_validation_is_bit_identical_at_any_worker_count() {
    let world = world();
    let campaign = collect(&world);
    let ds = campaign
        .dataset(SensorKind::RtlSdr, TvChannel::EVALUATION[1])
        .expect("evaluation channel is always collected");
    let config = WaldoConfig::default().classifier(ClassifierKind::NaiveBayes);
    let run = || cross_validate(ds, &config, 5, 3);
    let baseline = with_workers(1, run);
    for workers in WORKER_COUNTS {
        let candidate = with_workers(workers, run);
        assert_eq!(baseline, candidate, "cross_validate diverged from serial at {workers} workers");
    }
}

/// FNV-1a digest of the refit model's locality payloads and the not-safe
/// label count, taken from the eager-kernel SMO and the
/// every-hot-reading-marks-its-disk labeler. A faster solver or labeler
/// must reproduce both exactly.
const REFIT_PAYLOAD_DIGEST: u64 = 0xb5b3_162f_1ee5_45d7;
const REFIT_NOT_SAFE: usize = 1_681;

#[test]
fn relabel_and_refit_are_pinned_at_any_worker_count() {
    // The store's refit pass end to end: Algorithm 1 over the campaign
    // plus a fixed upload set, then an incremental retrain of two of the
    // three localities. Up to ~900 rows per locality reach the SMO, the
    // size the refit pays for.
    use rand::Rng;
    use waldo_repro::data::{ChannelDataset, Labeler};
    use waldo_repro::geo::Point;
    use waldo_repro::waldo::wire::fnv1a64;
    let world = world();
    let campaign = collect(&world);
    let ds = campaign
        .dataset(SensorKind::RtlSdr, TvChannel::EVALUATION[1])
        .expect("evaluation channel is always collected");
    let constructor = ModelConstructor::new(WaldoConfig::default().localities(3).seed(5));
    let set = constructor.config().feature_set().clone();
    let mut rng = StdRng::seed_from_u64(77);
    let mut points: Vec<(Point, f64)> =
        ds.measurements().iter().map(|m| (m.location, m.observation.rss_dbm)).collect();
    let mut rows: Vec<Vec<f64>> =
        ds.measurements().iter().map(|m| ChannelDataset::feature_row(m, &set)).collect();
    for _ in 0..2_400 {
        let m = &ds.measurements()[rng.gen_range(0..ds.len())];
        let p = Point::new(
            m.location.x + rng.gen_range(-60.0..60.0),
            m.location.y + rng.gen_range(-60.0..60.0),
        );
        points.push((p, m.observation.rss_dbm));
        let mut row = vec![p.x / 1000.0, p.y / 1000.0];
        row.extend(m.observation.features.project(&set));
        rows.push(row);
    }
    let run = || {
        let base = constructor.fit(ds).expect("campaign data trains");
        let labels = Labeler::new().label(&points);
        let not_safe = labels.iter().filter(|l| l.is_not_safe()).count();
        let labels = labels.iter().map(|l| l.is_not_safe()).collect();
        let ml = Dataset::from_rows(rows.clone(), labels).expect("fixed-width rows");
        let refit = constructor.refit_localities(&base, &ml, &[2, 0]).expect("refit trains");
        let bytes: Vec<u8> = refit.locality_payloads().concat();
        (fnv1a64(&bytes), not_safe)
    };
    for workers in [1, 4] {
        let (digest, not_safe) = with_workers(workers, run);
        assert_eq!(
            (digest, not_safe),
            (REFIT_PAYLOAD_DIGEST, REFIT_NOT_SAFE),
            "relabel/refit diverged from the pinned bits at {workers} workers: \
             digest {digest:#018x}, {not_safe} not-safe"
        );
    }
}
