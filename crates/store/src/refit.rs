//! The incremental refit engine: segment-digest diff → relabel → retrain
//! only what changed.
//!
//! Labels are global, training is local. Algorithm 1's 6 km poisoning rule
//! means one new strong reading can flip labels kilometres away, so every
//! refit relabels the *entire* reading set (base campaign plus all stored
//! uploads). Training, however, is per locality, and the clustering is
//! held fixed across refits — so only localities whose segment digest
//! moved since the last refit pay a training pass. Untouched localities
//! keep their exact trained parameters, which keeps their serialized
//! payload bytes identical and lets the serve catalog's publish diff leave
//! their change-epochs alone (delta fetches then ship only what retrained).

use std::collections::BTreeMap;

use waldo::{ModelConstructor, TrainError, WaldoModel};
use waldo_data::{ChannelDataset, Labeler};
use waldo_geo::Point;
use waldo_ml::Dataset;
use waldo_sensors::ReadingSample;

use crate::SegmentStore;

/// What one refit pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefitReport {
    /// Localities retrained this pass.
    pub changed_localities: Vec<usize>,
    /// Uploaded readings folded into the training set (across all
    /// localities, not just changed ones — labels are global).
    pub uploaded_readings: usize,
    /// Total training rows (base campaign + uploads).
    pub total_rows: usize,
}

/// Tracks segment digests across checkpoints and retrains changed
/// localities, keeping the base model's clustering fixed.
#[derive(Debug)]
pub struct RefitEngine {
    constructor: ModelConstructor,
    labeler: Labeler,
    base: ChannelDataset,
    model: WaldoModel,
    last_digests: BTreeMap<usize, u64>,
}

impl RefitEngine {
    /// Creates an engine around an already-fitted `model`. `base` is the
    /// campaign dataset the model was fitted from (its labels are
    /// recomputed per refit, so stale labels are fine); `labeler` must be
    /// the same rule used to label the base campaign.
    pub fn new(
        constructor: ModelConstructor,
        labeler: Labeler,
        base: ChannelDataset,
        model: WaldoModel,
    ) -> Self {
        Self { constructor, labeler, base, model, last_digests: BTreeMap::new() }
    }

    /// The current model (base fit, or the latest refit).
    pub fn model(&self) -> &WaldoModel {
        &self.model
    }

    /// Routes a reading to its locality under the current model — the
    /// closure checkpoints need.
    pub fn locality_of(&self, sample: &ReadingSample) -> usize {
        self.model.locality_for(sample.location)
    }

    /// Diffs `store`'s manifest against the digests seen at the last
    /// refit and retrains exactly the changed localities. Returns
    /// `Ok(None)` when no segment moved (nothing to do), `Ok(Some)` with
    /// the refreshed model otherwise.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError`] reading segments back; [`TrainError`] from
    /// the constructor (never [`TrainError::Empty`] in practice, since the
    /// base campaign is non-empty).
    pub fn refit(
        &mut self,
        store: &SegmentStore,
    ) -> Result<Option<(WaldoModel, RefitReport)>, RefitError> {
        let _t = waldo_obs::timed("store_refit");
        let manifest = store.manifest();
        let changed: Vec<usize> = manifest
            .segments
            .iter()
            .filter(|(loc, meta)| self.last_digests.get(loc) != Some(&meta.digest))
            .map(|(&loc, _)| loc)
            .collect();
        if changed.is_empty() {
            return Ok(None);
        }

        let uploads = store.all_readings()?;
        let ml = self.training_dataset(&uploads);
        let total_rows = ml.len();
        let model = self.constructor.refit_localities(&self.model, &ml, &changed)?;
        self.model = model.clone();
        self.last_digests =
            manifest.segments.iter().map(|(&loc, meta)| (loc, meta.digest)).collect();
        Ok(Some((
            model,
            RefitReport {
                changed_localities: changed,
                uploaded_readings: uploads.len(),
                total_rows,
            },
        )))
    }

    /// Builds the combined, freshly-labeled training dataset: base
    /// campaign rows followed by upload rows, all relabeled together so
    /// the 6 km rule sees the union.
    fn training_dataset(&self, uploads: &[ReadingSample]) -> Dataset {
        let mut points: Vec<(Point, f64)> =
            self.base.measurements().iter().map(|m| (m.location, m.observation.rss_dbm)).collect();
        points.extend(uploads.iter().map(|s| (s.location, s.rss_dbm)));
        let labels = self.labeler.label(&points);

        let set = self.constructor.config().feature_set();
        let mut rows: Vec<Vec<f64>> =
            self.base.measurements().iter().map(|m| ChannelDataset::feature_row(m, set)).collect();
        rows.extend(uploads.iter().map(|s| {
            let mut row = vec![s.location.x / 1000.0, s.location.y / 1000.0];
            row.extend(s.features.project(set));
            row
        }));
        let labels = labels.iter().map(|l| l.is_not_safe()).collect();
        Dataset::from_rows(rows, labels).expect("rows are fixed-width and finite")
    }
}

/// Errors from a refit pass.
#[derive(Debug)]
pub enum RefitError {
    /// Reading segments back failed.
    Store(crate::StoreError),
    /// Training failed.
    Train(TrainError),
}

impl std::fmt::Display for RefitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefitError::Store(e) => write!(f, "refit store access: {e}"),
            RefitError::Train(e) => write!(f, "refit training: {e}"),
        }
    }
}

impl std::error::Error for RefitError {}

impl From<crate::StoreError> for RefitError {
    fn from(e: crate::StoreError) -> Self {
        RefitError::Store(e)
    }
}

impl From<TrainError> for RefitError {
    fn from(e: TrainError) -> Self {
        RefitError::Train(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use waldo::wire::ReadingBatch;
    use waldo::WaldoConfig;
    use waldo_data::{Measurement, Safety};
    use waldo_iq::FeatureVector;
    use waldo_rf::TvChannel;
    use waldo_sensors::{Observation, SensorKind};

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("waldo-refit-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn features_for(rss: f64) -> FeatureVector {
        FeatureVector {
            rss_db: rss,
            cft_db: rss - 11.3,
            aft_db: rss - 12.5,
            quadrature_imbalance_db: 0.0,
            iq_kurtosis: 2.0,
            edge_bin_db: -110.0,
        }
    }

    /// East half hot (not safe), west half quiet, like the constructor's
    /// synthetic channel.
    fn base_dataset(n: usize) -> ChannelDataset {
        let mut measurements = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f64 / n as f64) * 30_000.0;
            let y = ((i * 7) % 20) as f64 * 1_000.0;
            let rss = if x > 15_000.0 { -70.0 } else { -100.0 } + ((i % 5) as f64 - 2.0);
            measurements.push(Measurement {
                location: Point::new(x, y),
                odometer_m: i as f64 * 100.0,
                observation: Observation {
                    rss_dbm: rss,
                    features: features_for(rss),
                    raw_pilot_db: rss - 11.3,
                },
                true_rss_dbm: rss,
            });
            labels.push(Safety::from_not_safe(x > 15_000.0));
        }
        ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels)
    }

    fn engine(n: usize) -> RefitEngine {
        let constructor = ModelConstructor::new(WaldoConfig::default().localities(3).seed(2));
        let base = base_dataset(n);
        let model = constructor.fit(&base).unwrap();
        RefitEngine::new(constructor, Labeler::new(), base, model)
    }

    #[test]
    fn no_segment_change_means_no_refit() {
        let mut eng = engine(200);
        let store = SegmentStore::open(temp_dir("idle")).unwrap();
        assert!(eng.refit(&store).unwrap().is_none());
    }

    #[test]
    fn uploads_retrain_only_their_locality_and_flip_the_decision() {
        let mut eng = engine(300);
        let mut store = SegmentStore::open(temp_dir("flip")).unwrap();

        // A quiet western spot the base model calls safe.
        let spot = Point::new(2_000.0, 4_000.0);
        let target = eng.model().locality_for(spot);
        let before_payloads = eng.model().locality_payloads();

        // Phones report a strong transmitter there: not safe by Algorithm 1.
        let readings: Vec<ReadingSample> = (0..40)
            .map(|i| ReadingSample {
                location: Point::new(
                    spot.x + (i % 7) as f64 * 150.0,
                    spot.y + (i / 7) as f64 * 150.0,
                ),
                rss_dbm: -60.0,
                features: features_for(-60.0),
            })
            .collect();
        let batch = ReadingBatch { batch_id: 1, channel: 30, readings };
        store.checkpoint(std::slice::from_ref(&batch), |s| eng.locality_of(s)).unwrap();

        let (model, report) = eng.refit(&store).unwrap().expect("digest moved");
        assert_eq!(report.changed_localities, vec![target]);
        assert_eq!(report.uploaded_readings, 40);
        assert_eq!(report.total_rows, 340);

        let after_payloads = model.locality_payloads();
        for loc in 0..3 {
            if loc == target {
                assert_ne!(before_payloads[loc], after_payloads[loc]);
            } else {
                assert_eq!(
                    before_payloads[loc], after_payloads[loc],
                    "untouched locality {loc} must keep its payload bytes"
                );
            }
        }

        // The refreshed model now calls the spot not-safe.
        use waldo::Assessor;
        let obs =
            Observation { rss_dbm: -60.0, features: features_for(-60.0), raw_pilot_db: -71.3 };
        assert!(model.assess(spot, &obs).is_not_safe());

        // A second refit with no new checkpoint is a no-op.
        assert!(eng.refit(&store).unwrap().is_none());
    }
}
