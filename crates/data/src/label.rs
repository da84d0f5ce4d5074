//! Algorithm 1: contour labeling of collected measurements.
//!
//! > for all Node n in Dataset: if Power(n) > −84 dBm, SetNotSafe(n) and
//! > SetNotSafe(n′) for every n′ within 6 km.
//!
//! The rule is deliberately biased toward incumbent protection: one hot
//! reading poisons its whole 6 km neighbourhood, while an erroneously cold
//! reading is rescued by its non-noisy neighbours (§2.1).

use waldo_geo::{GridIndex, Point};
use waldo_rf::{DECODABLE_DBM, PROTECTION_RADIUS_M};

use crate::Safety;

/// Configurable Algorithm-1 labeler.
///
/// # Examples
///
/// ```
/// use waldo_data::Labeler;
/// use waldo_geo::Point;
///
/// let readings = vec![
///     (Point::new(0.0, 0.0), -60.0),      // hot
///     (Point::new(3_000.0, 0.0), -100.0), // cold but within 6 km of hot
///     (Point::new(20_000.0, 0.0), -100.0) // cold and far away
/// ];
/// let labels = Labeler::new().label(&readings);
/// assert!(labels[0].is_not_safe());
/// assert!(labels[1].is_not_safe());
/// assert!(!labels[2].is_not_safe());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Labeler {
    threshold_dbm: f64,
    radius_m: f64,
    correction_db: f64,
}

impl Default for Labeler {
    fn default() -> Self {
        Self::new()
    }
}

impl Labeler {
    /// The paper's configuration: −84 dBm threshold, 6 km protection
    /// radius, no antenna correction.
    pub fn new() -> Self {
        Self { threshold_dbm: DECODABLE_DBM, radius_m: PROTECTION_RADIUS_M, correction_db: 0.0 }
    }

    /// Overrides the decodability threshold (the paper notes
    /// conservativeness "can be controlled by decreasing the threshold").
    pub fn threshold_dbm(mut self, t: f64) -> Self {
        assert!(t.is_finite(), "threshold must be finite");
        self.threshold_dbm = t;
        self
    }

    /// Overrides the protection radius (later FCC orders reduced 6 km to
    /// 4 km and finally 1.7 km; the discussion section tracks this).
    ///
    /// # Panics
    ///
    /// Panics unless positive.
    pub fn radius_m(mut self, r: f64) -> Self {
        assert!(r > 0.0, "radius must be positive");
        self.radius_m = r;
        self
    }

    /// Adds a uniform antenna-correction factor (dB) to every reading
    /// before thresholding — ≈ 7.4 dB compensates the 2 m mast (§2.1).
    pub fn antenna_correction_db(mut self, db: f64) -> Self {
        assert!(db.is_finite(), "correction must be finite");
        self.correction_db = db;
        self
    }

    /// Labels `(location, rss_dbm)` readings per Algorithm 1.
    pub fn label(&self, readings: &[(Point, f64)]) -> Vec<Safety> {
        let _t = waldo_obs::timed("label");
        let mut not_safe = vec![false; readings.len()];
        // Index every reading once; then each hot reading marks its
        // neighbourhood. Bucket size = radius keeps the scan at ≤ 9 cells;
        // the 1 m clamp stops a degenerate sub-metre radius from exploding
        // the bucket count (pinned by `tiny_radius_clamps_bucket_size`).
        let mut index: GridIndex<usize> = GridIndex::new(self.radius_m.max(1.0));
        for (i, &(p, _)) in readings.iter().enumerate() {
            index.insert(p, i);
        }
        for &(p, rss) in readings.iter() {
            if rss + self.correction_db > self.threshold_dbm {
                for (_, &j) in index.within(p, self.radius_m) {
                    not_safe[j] = true;
                }
            }
        }
        not_safe.into_iter().map(Safety::from_not_safe).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_reading_poisons_its_disk() {
        let readings = vec![
            (Point::new(0.0, 0.0), -80.0),
            (Point::new(5_999.0, 0.0), -120.0),
            (Point::new(6_001.0, 0.0), -120.0),
        ];
        let labels = Labeler::new().label(&readings);
        assert!(labels[0].is_not_safe());
        assert!(labels[1].is_not_safe());
        assert!(!labels[2].is_not_safe());
    }

    #[test]
    fn threshold_is_strict_greater() {
        let readings = vec![(Point::new(0.0, 0.0), -84.0)];
        assert!(!Labeler::new().label(&readings)[0].is_not_safe());
        let readings = vec![(Point::new(0.0, 0.0), -83.999)];
        assert!(Labeler::new().label(&readings)[0].is_not_safe());
    }

    #[test]
    fn correction_factor_shifts_the_threshold() {
        let readings = vec![(Point::new(0.0, 0.0), -90.0)];
        assert!(!Labeler::new().label(&readings)[0].is_not_safe());
        let corrected = Labeler::new().antenna_correction_db(7.4).label(&readings);
        assert!(corrected[0].is_not_safe());
    }

    #[test]
    fn adding_a_hot_reading_is_monotone() {
        // Labels can only move safe → not-safe as readings are added.
        let mut readings = vec![
            (Point::new(0.0, 0.0), -100.0),
            (Point::new(4_000.0, 0.0), -100.0),
            (Point::new(12_000.0, 0.0), -100.0),
        ];
        let before = Labeler::new().label(&readings);
        readings.push((Point::new(2_000.0, 0.0), -50.0));
        let after = Labeler::new().label(&readings);
        for i in 0..before.len() {
            assert!(!before[i].is_not_safe() || after[i].is_not_safe(), "label {i} regressed");
        }
        assert!(after[0].is_not_safe() && after[1].is_not_safe());
        assert!(!after[2].is_not_safe());
    }

    #[test]
    fn custom_radius_respected() {
        let readings = vec![(Point::new(0.0, 0.0), -70.0), (Point::new(2_000.0, 0.0), -120.0)];
        let tight = Labeler::new().radius_m(1_700.0).label(&readings);
        assert!(!tight[1].is_not_safe());
        let wide = Labeler::new().radius_m(6_000.0).label(&readings);
        assert!(wide[1].is_not_safe());
    }

    #[test]
    fn chains_do_not_propagate() {
        // A poisoned-but-cold reading must NOT poison its own disk: only
        // readings above threshold radiate.
        let readings = vec![
            (Point::new(0.0, 0.0), -70.0),
            (Point::new(5_000.0, 0.0), -120.0),
            (Point::new(10_000.0, 0.0), -120.0),
        ];
        let labels = Labeler::new().label(&readings);
        assert!(labels[1].is_not_safe());
        assert!(!labels[2].is_not_safe(), "poisoning must not chain");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert!(Labeler::new().label(&[]).is_empty());
    }

    #[test]
    fn tiny_radius_clamps_bucket_size() {
        // A sub-metre protection radius must not blow up the grid: the
        // `max(1.0)` clamp in `label` pins the bucket size at 1 m, and the
        // labeling must stay correct (each reading only poisons points
        // within the tiny radius — in practice, itself and co-located
        // readings). Points 0/1 are 0.5 mm apart (inside 1 mm radius),
        // point 2 is 10 m away (outside), point 3 is cold.
        use rand::{Rng, SeedableRng};
        let readings = vec![
            (Point::new(0.0, 0.0), -70.0),
            (Point::new(0.0005, 0.0), -120.0),
            (Point::new(10.0, 0.0), -120.0),
            (Point::new(5_000.0, 0.0), -120.0),
        ];
        let labels = Labeler::new().radius_m(0.001).label(&readings);
        assert!(labels[0].is_not_safe());
        assert!(labels[1].is_not_safe(), "co-located reading inside tiny radius");
        assert!(!labels[2].is_not_safe(), "10 m away is outside a 1 mm radius");
        assert!(!labels[3].is_not_safe());

        // And against brute force on a dense random cloud, where the
        // un-clamped bucket count would be astronomically large.
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        let cloud: Vec<(Point, f64)> = (0..300)
            .map(|_| {
                (
                    Point::new(rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0)),
                    rng.gen_range(-120.0..-60.0),
                )
            })
            .collect();
        let radius = 0.25;
        let fast = Labeler::new().radius_m(radius).label(&cloud);
        for (i, &(p, _)) in cloud.iter().enumerate() {
            let expect = cloud.iter().any(|&(q, r)| r > -84.0 && q.distance(p) <= radius);
            assert_eq!(fast[i].is_not_safe(), expect, "reading {i}");
        }
    }

    #[test]
    fn matches_brute_force_on_random_input() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let readings: Vec<(Point, f64)> = (0..400)
            .map(|_| {
                (
                    Point::new(rng.gen_range(0.0..30_000.0), rng.gen_range(0.0..20_000.0)),
                    rng.gen_range(-120.0..-60.0),
                )
            })
            .collect();
        let fast = Labeler::new().label(&readings);
        // Brute force O(n²).
        for (i, &(p, _)) in readings.iter().enumerate() {
            let expect = readings.iter().any(|&(q, r)| r > -84.0 && q.distance(p) <= 6_000.0);
            assert_eq!(fast[i].is_not_safe(), expect, "reading {i}");
        }
    }
}
