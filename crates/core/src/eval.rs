//! Evaluation harness (§4): 10-fold cross validation, assessor scoring,
//! and the training-fraction sweep. The `repro` binary drives these to
//! regenerate Figures 12–16 and Table 1.

use waldo_data::{ChannelDataset, Safety};
use waldo_ml::model_selection::{train_test_split, KFold};
use waldo_ml::ConfusionMatrix;

use crate::{Assessor, ModelConstructor, WaldoConfig};

/// Runs the paper's 10-fold cross validation of a Waldo configuration on
/// one labeled dataset: train on 90 %, test on 10 %, rotate, and merge the
/// confusion counts.
///
/// Folds are independent (each trains from its own split with the same
/// seeded config), so they fan out across the [`waldo_par`] worker pool;
/// the per-fold confusion counts are integers merged in fold order, so the
/// result is bit-identical to a serial run at any worker count.
///
/// # Panics
///
/// Panics if the dataset is smaller than the fold count or a fold fails to
/// train (which cannot happen on the campaign datasets).
pub fn cross_validate(
    ds: &ChannelDataset,
    config: &WaldoConfig,
    folds: usize,
    seed: u64,
) -> ConfusionMatrix {
    let _t = waldo_obs::timed("cv");
    let constructor = ModelConstructor::new(config.clone());
    let splits = KFold::new(folds, seed).splits(ds.len());
    let fold_cms = waldo_par::par_map(&splits, |split| {
        let train = ds.subset(&split.train);
        let model = constructor.fit(&train).expect("campaign folds always train");
        let mut cm = ConfusionMatrix::default();
        for &i in &split.test {
            let m = &ds.measurements()[i];
            let pred = model.assess(m.location, &m.observation);
            cm.record(ds.labels()[i].is_not_safe(), pred.is_not_safe());
        }
        cm
    });
    let mut cm = ConfusionMatrix::default();
    for fold in &fold_cms {
        cm.merge(fold);
    }
    cm
}

/// Scores any [`Assessor`] against a labeled dataset: each measurement is
/// presented (location + observation) and the prediction compared to
/// `truth` (defaults to the dataset's own Algorithm-1 labels).
pub fn evaluate_assessor(
    assessor: &dyn Assessor,
    ds: &ChannelDataset,
    truth: Option<&[Safety]>,
) -> ConfusionMatrix {
    let truth = truth.unwrap_or_else(|| ds.labels());
    assert_eq!(truth.len(), ds.len(), "truth labels must align with the dataset");
    let mut cm = ConfusionMatrix::default();
    for (m, t) in ds.measurements().iter().zip(truth) {
        let pred = assessor.assess(m.location, &m.observation);
        cm.record(t.is_not_safe(), pred.is_not_safe());
    }
    cm
}

/// The training-fraction sweep of Fig 14: hold out a fixed random 10 % as
/// the test set, then train on growing fractions of the remainder and
/// score each model on the same held-out set.
///
/// Returns `(fraction_of_training_data, confusion)` per requested fraction.
///
/// # Panics
///
/// Panics if any fraction is outside `(0, 1]` or the dataset is too small.
pub fn training_fraction_sweep(
    ds: &ChannelDataset,
    config: &WaldoConfig,
    fractions: &[f64],
    seed: u64,
) -> Vec<(f64, ConfusionMatrix)> {
    assert!(fractions.iter().all(|f| *f > 0.0 && *f <= 1.0), "fractions must lie in (0, 1]");
    let constructor = ModelConstructor::new(config.clone());
    let split = train_test_split(ds.len(), 0.10, seed);
    let test = ds.subset(&split.test);

    fractions
        .iter()
        .map(|&frac| {
            let take = ((split.train.len() as f64) * frac).round().max(1.0) as usize;
            let train = ds.subset(&split.train[..take.min(split.train.len())]);
            let model = constructor.fit(&train).expect("fractions keep enough samples");
            let mut cm = ConfusionMatrix::default();
            for (m, t) in test.measurements().iter().zip(test.labels()) {
                let pred = model.assess(m.location, &m.observation);
                cm.record(t.is_not_safe(), pred.is_not_safe());
            }
            (frac, cm)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassifierKind;
    use waldo_data::Measurement;
    use waldo_geo::Point;
    use waldo_iq::FeatureVector;
    use waldo_rf::TvChannel;
    use waldo_sensors::{Observation, SensorKind};

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

    /// Cleanly separable synthetic channel with mild label noise.
    fn dataset(n: usize, noise_every: usize) -> ChannelDataset {
        let mut measurements = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f64 / n as f64) * 30_000.0;
            let geo_not_safe = x > 15_000.0;
            // Pure label noise: the signal stays consistent with geometry,
            // only the label flips (an unlearnable contradiction).
            let mut not_safe = geo_not_safe;
            if noise_every > 0 && i % noise_every == noise_every - 1 {
                not_safe = !not_safe;
            }
            let rss = if geo_not_safe { -70.0 } else { -95.0 } + ((i % 7) as f64 - 3.0) * 0.4;
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

    fn nb_config() -> WaldoConfig {
        WaldoConfig::default().classifier(ClassifierKind::NaiveBayes).localities(1)
    }

    #[test]
    fn cross_validation_scores_separable_data_well() {
        let ds = dataset(300, 0);
        let cm = cross_validate(&ds, &nb_config(), 10, 1);
        assert_eq!(cm.total(), 300);
        assert!(cm.error_rate() < 0.05, "error {cm}");
    }

    #[test]
    fn label_noise_raises_cv_error() {
        let clean = cross_validate(&dataset(300, 0), &nb_config(), 10, 1);
        let noisy = cross_validate(&dataset(300, 6), &nb_config(), 10, 1);
        assert!(noisy.error_rate() > clean.error_rate());
    }

    #[test]
    fn evaluate_assessor_against_external_truth() {
        let ds = dataset(200, 0);
        let model = ModelConstructor::new(nb_config()).fit(&ds).expect("separable data trains");
        // Perfect against its own labels…
        let own = evaluate_assessor(&model, &ds, None);
        assert!(own.error_rate() < 0.03, "{own}");
        // …and exactly complemented against inverted truth.
        let inverted: Vec<Safety> =
            ds.labels().iter().map(|l| Safety::from_not_safe(!l.is_not_safe())).collect();
        let vs_inverted = evaluate_assessor(&model, &ds, Some(&inverted));
        assert!((own.error_rate() + vs_inverted.error_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_training_data_helps() {
        // Multiple localities make training size matter: a 5 % slice leaves
        // some localities single-class (constant models), while the full set
        // trains every locality properly. Average endpoints across split
        // seeds so no single unlucky hold-out decides the verdict.
        let ds = dataset(400, 0);
        let config = nb_config().localities(4);
        let (mut first_sum, mut last_sum) = (0.0, 0.0);
        for seed in 7..13 {
            let sweep = training_fraction_sweep(&ds, &config, &[0.05, 0.25, 0.5, 1.0], seed);
            assert_eq!(sweep.len(), 4);
            first_sum += sweep.first().unwrap().1.error_rate();
            last_sum += sweep.last().unwrap().1.error_rate();
            // Each step scores the same held-out set.
            assert!(sweep.iter().all(|(_, cm)| cm.total() == sweep[0].1.total()));
        }
        assert!(last_sum <= first_sum, "mean error went {first_sum} → {last_sum}");
    }

    #[test]
    #[should_panic(expected = "fractions must lie")]
    fn zero_fraction_panics() {
        let ds = dataset(100, 0);
        let _ = training_fraction_sweep(&ds, &nb_config(), &[0.0], 0);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_truth_panics() {
        let ds = dataset(50, 0);
        let model = ModelConstructor::new(nb_config()).fit(&ds).unwrap();
        let _ = evaluate_assessor(&model, &ds, Some(&[Safety::Safe]));
    }
}
