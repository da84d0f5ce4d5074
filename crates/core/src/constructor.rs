//! Model construction (§3.2): localities identification + per-locality
//! classifier training.

use serde::{Deserialize, Serialize};
use waldo_data::ChannelDataset;
use waldo_iq::FeatureSet;
use waldo_ml::kmeans::KMeans;
use waldo_ml::model_selection::stratified_cap;
use waldo_ml::nb::GaussianNbTrainer;
use waldo_ml::svm::SvmTrainer;
use waldo_ml::tree::DecisionTreeTrainer;
use waldo_ml::{Dataset, StandardScaler};

use crate::model::{ClusterModel, WaldoModel};

/// The classifier family trained per locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassifierKind {
    /// Support-vector machine (RBF); the paper's primary choice.
    Svm,
    /// Gaussian Naive Bayes; the compact alternative.
    NaiveBayes,
    /// CART decision tree; kept for the overfitting ablation the paper ran
    /// and rejected.
    DecisionTree,
    /// L2-regularized logistic regression — the "regression analysis"
    /// family of §3.2; the smallest descriptor of all.
    Logistic,
}

impl std::fmt::Display for ClassifierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ClassifierKind::Svm => "SVM",
            ClassifierKind::NaiveBayes => "NB",
            ClassifierKind::DecisionTree => "DT",
            ClassifierKind::Logistic => "LR",
        };
        f.write_str(name)
    }
}

/// Configuration for [`ModelConstructor`].
///
/// # Examples
///
/// ```
/// use waldo::{ClassifierKind, WaldoConfig};
/// use waldo_iq::FeatureSet;
///
/// let cfg = WaldoConfig::default()
///     .classifier(ClassifierKind::NaiveBayes)
///     .features(FeatureSet::first_n(2))
///     .localities(3);
/// assert_eq!(cfg.locality_count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaldoConfig {
    classifier: ClassifierKind,
    features: FeatureSet,
    localities: usize,
    svm_train_cap: usize,
    svm_c: f64,
    svm_gamma_factor: f64,
    seed: u64,
}

impl Default for WaldoConfig {
    /// The paper's headline configuration: SVM, location + RSS + CFT (the
    /// two-signal-feature setup of Table 1), three localities.
    fn default() -> Self {
        Self {
            classifier: ClassifierKind::Svm,
            features: FeatureSet::first_n(2),
            localities: 3,
            svm_train_cap: 900,
            svm_c: 10.0,
            svm_gamma_factor: 0.5,
            seed: 0,
        }
    }
}

impl WaldoConfig {
    /// Sets the classifier family.
    pub fn classifier(mut self, kind: ClassifierKind) -> Self {
        self.classifier = kind;
        self
    }

    /// Sets the signal-feature set (location is always included).
    pub fn features(mut self, features: FeatureSet) -> Self {
        self.features = features;
        self
    }

    /// Sets the number of localities (k-means clusters). `1` disables
    /// partitioning.
    ///
    /// # Panics
    ///
    /// Panics if zero.
    pub fn localities(mut self, k: usize) -> Self {
        assert!(k > 0, "need at least one locality");
        self.localities = k;
        self
    }

    /// Caps SVM training samples per locality via stratified subsampling
    /// (SMO is quadratic; 900 default keeps a full 10-fold sweep tractable
    /// while leaving accuracy unchanged on this data).
    ///
    /// # Panics
    ///
    /// Panics if below 10.
    pub fn svm_train_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 10, "cap too small to train on");
        self.svm_train_cap = cap;
        self
    }

    /// SVM soft-margin penalty (default 10).
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn svm_c(mut self, c: f64) -> Self {
        assert!(c > 0.0, "C must be positive");
        self.svm_c = c;
        self
    }

    /// RBF width γ over standardized features (default 0.5). γ is held
    /// constant as features are appended so that per-dimension resolution
    /// — in particular location resolution — does not dilute with the
    /// feature count.
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn svm_gamma_factor(mut self, f: f64) -> Self {
        assert!(f > 0.0, "gamma factor must be positive");
        self.svm_gamma_factor = f;
        self
    }

    /// Seed for clustering and subsampling.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configured classifier family.
    pub fn classifier_kind(&self) -> ClassifierKind {
        self.classifier
    }

    /// The configured feature set.
    pub fn feature_set(&self) -> &FeatureSet {
        &self.features
    }

    /// The configured locality count.
    pub fn locality_count(&self) -> usize {
        self.localities
    }
}

/// Errors from model construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainError {
    /// No measurements to train on.
    Empty,
    /// Fewer measurements than localities.
    TooFewForLocalities,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Empty => write!(f, "no labeled measurements to train on"),
            TrainError::TooFewForLocalities => {
                write!(f, "fewer measurements than requested localities")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// The Model Constructor module: turns a labeled [`ChannelDataset`] into a
/// downloadable [`WaldoModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConstructor {
    config: WaldoConfig,
}

impl ModelConstructor {
    /// Creates a constructor with `config`.
    pub fn new(config: WaldoConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &WaldoConfig {
        &self.config
    }

    /// Trains a model from a labeled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError`] if the dataset is empty or smaller than the
    /// locality count.
    pub fn fit(&self, ds: &ChannelDataset) -> Result<WaldoModel, TrainError> {
        let ml = ds.to_ml_dataset(&self.config.features).map_err(|_| TrainError::Empty)?;
        self.fit_dataset(&ml)
    }

    /// Trains from a pre-assembled ML dataset whose rows follow the
    /// `[x_km, y_km, features…]` layout.
    ///
    /// # Errors
    ///
    /// Same as [`fit`](Self::fit).
    pub fn fit_dataset(&self, ml: &Dataset) -> Result<WaldoModel, TrainError> {
        let _t = waldo_obs::timed("model_fit");
        if ml.is_empty() {
            return Err(TrainError::Empty);
        }
        if ml.len() < self.config.localities {
            return Err(TrainError::TooFewForLocalities);
        }

        // Localities identification: cluster on location only.
        let locations: Vec<Vec<f64>> = ml.rows().iter().map(|r| r[..2].to_vec()).collect();
        let clustering = KMeans::new(self.config.localities)
            .seed(self.config.seed)
            .fit(&locations)
            .expect("validated above: len ≥ k ≥ 1");

        // Locality training is embarrassingly parallel: each cluster trains
        // from its own seeded trainer state, so the fan-out is bit-identical
        // to a serial loop regardless of worker count.
        let memberships: Vec<Vec<usize>> = (0..self.config.localities)
            .map(|c| (0..ml.len()).filter(|&i| clustering.assignment()[i] == c).collect())
            .collect();
        let clusters = waldo_par::par_map(&memberships, |indices| self.fit_cluster(ml, indices));
        // The per-training-point assignment scales with the campaign (up to
        // ~142k entries), not the model; devices only route by centroid, so
        // the downloadable descriptor ships without it.
        let clustering = clustering.without_assignment();
        Ok(WaldoModel { features: self.config.features.clone(), clustering, clusters })
    }

    /// Retrains only the localities in `changed`, keeping `base`'s
    /// clustering — and therefore its locality geometry and routing —
    /// fixed. This is the ingestion plane's incremental refit: after new
    /// crowd-sourced readings land, only the localities whose reading set
    /// actually changed pay a training pass; every other locality keeps its
    /// exact trained parameters (and so its payload bytes and digest, which
    /// is what lets the serve catalog's publish diff leave their
    /// change-epochs alone).
    ///
    /// `ml` must hold the *full* labeled reading set (base campaign plus
    /// uploads) in `base`'s row layout — Algorithm 1's 6 km poisoning rule
    /// is non-local, so labels are always recomputed globally even though
    /// training is not.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Empty`] for an empty dataset.
    ///
    /// # Panics
    ///
    /// Panics if a changed index is out of range or `ml`'s row width does
    /// not match `base`'s feature layout.
    pub fn refit_localities(
        &self,
        base: &WaldoModel,
        ml: &Dataset,
        changed: &[usize],
    ) -> Result<WaldoModel, TrainError> {
        let _t = waldo_obs::timed("model_refit");
        if ml.is_empty() {
            return Err(TrainError::Empty);
        }
        assert_eq!(ml.dim(), 2 + base.features.len(), "dataset does not match the base layout");
        let k = base.clusters.len();
        let mut order: Vec<usize> = changed.to_vec();
        order.sort_unstable();
        order.dedup();
        assert!(order.iter().all(|&c| c < k), "changed locality out of range");

        // Route every row through the *fixed* centroids, then retrain only
        // the changed localities (in parallel, like the full fit).
        let memberships: Vec<Vec<usize>> = order
            .iter()
            .map(|&c| {
                (0..ml.len()).filter(|&i| base.clustering.assign(&ml.rows()[i][..2]) == c).collect()
            })
            .collect();
        let retrained = waldo_par::par_map(&memberships, |indices| self.fit_cluster(ml, indices));
        let mut clusters = base.clusters.clone();
        for (&c, cluster) in order.iter().zip(retrained) {
            clusters[c] = cluster;
        }
        Ok(WaldoModel {
            features: base.features.clone(),
            clustering: base.clustering.clone(),
            clusters,
        })
    }

    fn fit_cluster(&self, ml: &Dataset, indices: &[usize]) -> ClusterModel {
        let sub = ml.subset(indices);
        if sub.is_empty() {
            // An empty locality defaults to not-safe: the conservative call
            // for territory nobody has measured.
            return ClusterModel::Constant(true);
        }
        if !sub.has_both_classes() {
            return ClusterModel::Constant(sub.labels()[0]);
        }
        let scaler = StandardScaler::fit(&sub);
        let scaled = scaler.transform_dataset(&sub);
        match self.config.classifier {
            ClassifierKind::Svm => {
                let capped = scaled.subset(&stratified_cap(
                    &scaled,
                    self.config.svm_train_cap,
                    self.config.seed,
                ));
                let gamma = self.config.svm_gamma_factor;
                let trainer = SvmTrainer::new()
                    .c(self.config.svm_c)
                    .kernel(waldo_ml::svm::Kernel::Rbf { gamma })
                    .seed(self.config.seed);
                match trainer.fit(&capped) {
                    Ok(model) => ClusterModel::Svm { scaler, model },
                    Err(_) => ClusterModel::Constant(majority(&sub)),
                }
            }
            ClassifierKind::NaiveBayes => match GaussianNbTrainer::new().fit(&scaled) {
                Ok(model) => ClusterModel::Nb { scaler, model },
                Err(_) => ClusterModel::Constant(majority(&sub)),
            },
            ClassifierKind::DecisionTree => match DecisionTreeTrainer::new().fit(&scaled) {
                Ok(model) => ClusterModel::Tree { scaler, model },
                Err(_) => ClusterModel::Constant(majority(&sub)),
            },
            ClassifierKind::Logistic => {
                match waldo_ml::logistic::LogisticTrainer::new().fit(&scaled) {
                    Ok(model) => ClusterModel::Logistic { scaler, model },
                    Err(_) => ClusterModel::Constant(majority(&sub)),
                }
            }
        }
    }
}

fn majority(ds: &Dataset) -> bool {
    ds.positives() * 2 >= ds.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waldo_data::{ChannelDataset, Measurement, Safety};
    use waldo_geo::Point;
    use waldo_iq::FeatureVector;
    use waldo_rf::TvChannel;
    use waldo_sensors::{Observation, SensorKind};

    /// A synthetic "channel": not-safe in the east (x > 15 km), where RSS
    /// is also higher — so location alone works, and features agree.
    fn synthetic_dataset(n: usize) -> ChannelDataset {
        let mut measurements = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f64 / n as f64) * 30_000.0;
            let y = ((i * 7) % 20) as f64 * 1_000.0;
            let not_safe = x > 15_000.0;
            let rss = if not_safe { -70.0 } else { -95.0 } + ((i % 5) as f64 - 2.0);
            measurements.push(Measurement {
                location: Point::new(x, y),
                odometer_m: i as f64 * 100.0,
                observation: Observation {
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
                },
                true_rss_dbm: rss,
            });
            labels.push(Safety::from_not_safe(not_safe));
        }
        ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels)
    }

    #[test]
    fn fits_and_predicts_synthetic_channel() {
        let ds = synthetic_dataset(400);
        for kind in [ClassifierKind::Svm, ClassifierKind::NaiveBayes, ClassifierKind::DecisionTree]
        {
            let model =
                ModelConstructor::new(WaldoConfig::default().classifier(kind)).fit(&ds).unwrap();
            let mut correct = 0;
            for (m, l) in ds.measurements().iter().zip(ds.labels()) {
                if model.assess_row_matches(m, *l) {
                    correct += 1;
                }
            }
            let acc = correct as f64 / ds.len() as f64;
            assert!(acc > 0.95, "{kind}: accuracy {acc}");
        }
    }

    impl crate::WaldoModel {
        fn assess_row_matches(&self, m: &Measurement, label: Safety) -> bool {
            use crate::Assessor;
            self.assess(m.location, &m.observation) == label
        }
    }

    #[test]
    fn single_class_clusters_become_constants() {
        let ds = synthetic_dataset(300);
        // Many localities over a hard east/west split: most clusters are
        // single-class.
        let model = ModelConstructor::new(WaldoConfig::default().localities(6)).fit(&ds).unwrap();
        assert!(model.constant_locality_count() >= 2, "expected binary localities");
        assert_eq!(model.locality_count(), 6);
    }

    #[test]
    fn errors_on_degenerate_inputs() {
        let empty = synthetic_dataset(0);
        let c = ModelConstructor::new(WaldoConfig::default());
        assert!(c.fit(&empty).is_err());
        let tiny = synthetic_dataset(2);
        assert_eq!(
            ModelConstructor::new(WaldoConfig::default().localities(5)).fit(&tiny),
            Err(TrainError::TooFewForLocalities)
        );
    }

    #[test]
    fn descriptor_roundtrip_preserves_predictions() {
        let ds = synthetic_dataset(300);
        let model = ModelConstructor::new(WaldoConfig::default()).fit(&ds).unwrap();
        let bytes = model.to_descriptor();
        assert_eq!(bytes.len(), model.descriptor_bytes());
        let restored = crate::WaldoModel::from_descriptor(&bytes).unwrap();
        assert_eq!(model, restored);
    }

    #[test]
    fn nb_descriptor_is_smaller_than_svm() {
        // The paper reports ~4 kB (NB) vs ~40 kB (SVM) descriptors.
        let ds = synthetic_dataset(600);
        let svm = ModelConstructor::new(
            WaldoConfig::default().classifier(ClassifierKind::Svm).localities(1),
        )
        .fit(&ds)
        .unwrap();
        let nb = ModelConstructor::new(
            WaldoConfig::default().classifier(ClassifierKind::NaiveBayes).localities(1),
        )
        .fit(&ds)
        .unwrap();
        // On this cleanly separable toy set the SVM keeps few support
        // vectors; on the real campaign data the gap reaches the paper's
        // ~10x (see the model-size experiment). Here we only pin the
        // ordering.
        assert!(
            nb.descriptor_bytes() < svm.descriptor_bytes(),
            "NB {} vs SVM {}",
            nb.descriptor_bytes(),
            svm.descriptor_bytes()
        );
    }

    #[test]
    fn refit_retrains_only_changed_localities() {
        let ds = synthetic_dataset(400);
        let constructor = ModelConstructor::new(WaldoConfig::default().localities(3).seed(5));
        let base = constructor.fit(&ds).unwrap();
        let ml = ds.to_ml_dataset(constructor.config().feature_set()).unwrap();

        // Refitting on the unchanged dataset reproduces the base payloads
        // exactly for untouched localities (training is deterministic).
        let refit = constructor.refit_localities(&base, &ml, &[1]).unwrap();
        assert_eq!(refit.centroids(), base.centroids(), "clustering must stay fixed");
        let before = base.locality_payloads();
        let after = refit.locality_payloads();
        assert_eq!(before[0], after[0]);
        assert_eq!(before[2], after[2]);

        // Flip the labels of the rows routed to locality 1 and refit: only
        // locality 1's payload may change.
        let flipped: Vec<bool> = ml
            .rows()
            .iter()
            .zip(ml.labels())
            .map(|(r, &l)| if base.clustering.assign(&r[..2]) == 1 { !l } else { l })
            .collect();
        let flipped_ml = waldo_ml::Dataset::from_rows(ml.rows().to_vec(), flipped).unwrap();
        let refit = constructor.refit_localities(&base, &flipped_ml, &[1]).unwrap();
        let after = refit.locality_payloads();
        assert_eq!(before[0], after[0]);
        assert_eq!(before[2], after[2]);
        assert_ne!(before[1], after[1], "the changed locality must retrain");
    }

    #[test]
    fn refit_rejects_empty_dataset() {
        let ds = synthetic_dataset(60);
        let constructor = ModelConstructor::new(WaldoConfig::default());
        let base = constructor.fit(&ds).unwrap();
        let empty = waldo_ml::Dataset::from_rows(Vec::new(), Vec::new()).unwrap();
        assert_eq!(constructor.refit_localities(&base, &empty, &[0]), Err(TrainError::Empty));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = synthetic_dataset(300);
        let a = ModelConstructor::new(WaldoConfig::default().seed(3)).fit(&ds).unwrap();
        let b = ModelConstructor::new(WaldoConfig::default().seed(3)).fit(&ds).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "row layout")]
    fn wrong_row_dimension_panics() {
        let ds = synthetic_dataset(300);
        let model = ModelConstructor::new(WaldoConfig::default()).fit(&ds).unwrap();
        let _ = model.predict_row(&[1.0, 2.0]);
    }
}
