//! k-means clustering with k-means++ initialization.
//!
//! Two consumers in the reproduction: Waldo's *localities identification*
//! (partitioning the study region into a handful of local models, §3.2) and
//! the V-Scope baseline's measurement clustering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::linalg::dist_sq;

/// Errors from clustering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KMeansError {
    /// Fewer points than requested clusters.
    TooFewPoints,
    /// `k` was zero.
    ZeroClusters,
}

impl std::fmt::Display for KMeansError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KMeansError::TooFewPoints => write!(f, "fewer points than clusters"),
            KMeansError::ZeroClusters => write!(f, "k must be at least one"),
        }
    }
}

impl std::error::Error for KMeansError {}

/// Configuration for a k-means run.
///
/// # Examples
///
/// ```
/// use waldo_ml::kmeans::KMeans;
///
/// let pts = vec![
///     vec![0.0, 0.0], vec![0.1, 0.0], vec![10.0, 10.0], vec![10.1, 10.0],
/// ];
/// let clustering = KMeans::new(2).seed(1).fit(&pts).unwrap();
/// assert_eq!(clustering.k(), 2);
/// assert_eq!(clustering.assign(&[0.05, 0.0]), clustering.assign(&[0.0, 0.1]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeans {
    k: usize,
    max_iter: usize,
    seed: u64,
}

impl KMeans {
    /// Creates a runner for `k` clusters (k-means++ init, ≤ 100 Lloyd
    /// iterations).
    pub fn new(k: usize) -> Self {
        Self { k, max_iter: 100, seed: 0 }
    }

    /// Caps Lloyd iterations (default 100).
    ///
    /// # Panics
    ///
    /// Panics if `it == 0`.
    pub fn max_iter(mut self, it: usize) -> Self {
        assert!(it > 0, "at least one iteration is required");
        self.max_iter = it;
        self
    }

    /// Seed for initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs clustering over `points`.
    ///
    /// # Errors
    ///
    /// Returns [`KMeansError`] if `k == 0` or there are fewer points than
    /// clusters.
    pub fn fit(&self, points: &[Vec<f64>]) -> Result<Clustering, KMeansError> {
        if self.k == 0 {
            return Err(KMeansError::ZeroClusters);
        }
        if points.len() < self.k {
            return Err(KMeansError::TooFewPoints);
        }
        let _t = waldo_obs::timed("kmeans");
        let mut rng = StdRng::seed_from_u64(self.seed ^ KMEANS_SALT);
        let mut centroids = plus_plus_init(points, self.k, &mut rng);
        let mut assignment = vec![0usize; points.len()];

        for _ in 0..self.max_iter {
            // Assignment step: each point's nearest centroid is independent
            // of the others, so fan chunks out over the worker pool. The
            // update step below stays serial to keep the floating-point
            // accumulation order (and thus the centroids) bit-identical to
            // a single-threaded run.
            let next = assign_all(points, &centroids);
            let mut moved = false;
            for (slot, best) in assignment.iter_mut().zip(&next) {
                if *slot != *best {
                    *slot = *best;
                    moved = true;
                }
            }
            // Update step.
            let dim = points[0].len();
            let mut sums = vec![vec![0.0; dim]; self.k];
            let mut counts = vec![0usize; self.k];
            for (i, p) in points.iter().enumerate() {
                counts[assignment[i]] += 1;
                for d in 0..dim {
                    sums[assignment[i]][d] += p[d];
                }
            }
            for c in 0..self.k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its centroid.
                    let far = points
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            dist_sq(a, &centroids[nearest(&centroids, a)])
                                .total_cmp(&dist_sq(b, &centroids[nearest(&centroids, b)]))
                        })
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    centroids[c] = points[far].clone();
                    moved = true;
                } else {
                    for slot in &mut sums[c] {
                        *slot /= counts[c] as f64;
                    }
                    centroids[c] = std::mem::take(&mut sums[c]);
                }
            }
            if !moved {
                break;
            }
        }
        // Final assignment after the last update.
        let assignment = assign_all(points, &centroids);
        Ok(Clustering { centroids, assignment })
    }
}

/// Seed salt so k-means draws differ from other seeded components fed the
/// same user seed ("kmeans" in ASCII).
const KMEANS_SALT: u64 = 0x6b6d_6561_6e73;

/// Points per parallel chunk in the assignment step: large enough that a
/// chunk amortizes its scheduling, small enough to load-balance the
/// campaign-sized inputs.
const ASSIGN_CHUNK: usize = 256;

/// Nearest-centroid assignment for every point, chunked over the worker
/// pool. Pure per-point computation, so the output does not depend on the
/// worker count or chunk boundaries.
fn assign_all(points: &[Vec<f64>], centroids: &[Vec<f64>]) -> Vec<usize> {
    waldo_par::par_chunk_map(points, ASSIGN_CHUNK, |chunk| {
        chunk.iter().map(|p| nearest(centroids, p)).collect()
    })
}

fn nearest(centroids: &[Vec<f64>], p: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, centroid) in centroids.iter().enumerate() {
        let d = dist_sq(centroid, p);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

fn plus_plus_init<R: Rng>(points: &[Vec<f64>], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut dists: Vec<f64> = points.iter().map(|p| dist_sq(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points[next].clone());
        for (i, p) in points.iter().enumerate() {
            let d = dist_sq(p, centroids.last().expect("just pushed"));
            if d < dists[i] {
                dists[i] = d;
            }
        }
    }
    centroids
}

/// The result of a k-means run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Clustering {
    centroids: Vec<Vec<f64>>,
    assignment: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// The cluster centroids.
    pub fn centroids(&self) -> &[Vec<f64>] {
        &self.centroids
    }

    /// Training-point assignments, parallel to the input order. Empty for
    /// clusterings rebuilt from centroids alone (see
    /// [`from_centroids`](Self::from_centroids)).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Builds a clustering from bare centroids, with no training
    /// assignment. This is the decode path for distributed models: a device
    /// only needs the centroids to route readings to localities.
    ///
    /// # Panics
    ///
    /// Panics if `centroids` is empty or the centroids disagree on
    /// dimension.
    pub fn from_centroids(centroids: Vec<Vec<f64>>) -> Self {
        assert!(!centroids.is_empty(), "at least one centroid is required");
        let dim = centroids[0].len();
        assert!(centroids.iter().all(|c| c.len() == dim), "centroid dimension mismatch");
        Self { centroids, assignment: Vec::new() }
    }

    /// Drops the training assignment, keeping only the centroids. Shipping
    /// a model does not require the per-training-point assignment (which
    /// scales with the campaign size, not the model), so constructors strip
    /// it before storing the downloadable descriptor.
    pub fn without_assignment(self) -> Self {
        Self { centroids: self.centroids, assignment: Vec::new() }
    }

    /// Assigns an arbitrary point to its nearest centroid.
    ///
    /// # Panics
    ///
    /// Panics if `p` has a different dimension than the centroids.
    pub fn assign(&self, p: &[f64]) -> usize {
        nearest(&self.centroids, p)
    }

    /// Sum of squared distances of training points to their centroids.
    pub fn inertia(&self, points: &[Vec<f64>]) -> f64 {
        points.iter().zip(&self.assignment).map(|(p, &c)| dist_sq(p, &self.centroids[c])).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            let o = i as f64 * 0.01;
            pts.push(vec![0.0 + o, 0.0]);
            pts.push(vec![10.0 + o, 10.0]);
            pts.push(vec![-10.0 - o, 10.0]);
        }
        pts
    }

    #[test]
    fn recovers_three_blobs() {
        let pts = blobs();
        let c = KMeans::new(3).seed(1).fit(&pts).unwrap();
        assert_eq!(c.k(), 3);
        // All points of one blob share a cluster.
        let a = c.assign(&[0.0, 0.0]);
        let b = c.assign(&[10.0, 10.0]);
        let d = c.assign(&[-10.0, 10.0]);
        assert!(a != b && b != d && a != d);
        for p in &pts {
            let expected = if p[0] > 5.0 {
                b
            } else if p[0] < -5.0 {
                d
            } else {
                a
            };
            assert_eq!(c.assign(p), expected);
        }
    }

    #[test]
    fn assignments_match_nearest_centroid() {
        let pts = blobs();
        let c = KMeans::new(3).seed(5).fit(&pts).unwrap();
        for (i, p) in pts.iter().enumerate() {
            let manual = (0..c.k())
                .min_by(|&a, &b| {
                    dist_sq(p, &c.centroids()[a]).total_cmp(&dist_sq(p, &c.centroids()[b]))
                })
                .unwrap();
            assert_eq!(c.assignment()[i], manual);
        }
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = blobs();
        let i1 = KMeans::new(1).seed(2).fit(&pts).unwrap().inertia(&pts);
        let i3 = KMeans::new(3).seed(2).fit(&pts).unwrap().inertia(&pts);
        assert!(i3 < i1, "k=3 inertia {i3} should beat k=1 {i1}");
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let pts = vec![vec![0.0], vec![2.0], vec![4.0]];
        let c = KMeans::new(1).fit(&pts).unwrap();
        assert!((c.centroids()[0][0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn errors_on_bad_inputs() {
        assert_eq!(KMeans::new(0).fit(&blobs()), Err(KMeansError::ZeroClusters));
        assert_eq!(KMeans::new(5).fit(&[vec![1.0], vec![2.0]]), Err(KMeansError::TooFewPoints));
    }

    #[test]
    fn deterministic_per_seed() {
        let pts = blobs();
        let a = KMeans::new(3).seed(11).fit(&pts).unwrap();
        let b = KMeans::new(3).seed(11).fit(&pts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_points_do_not_break_init() {
        let pts = vec![vec![1.0, 1.0]; 10];
        let c = KMeans::new(3).seed(0).fit(&pts).unwrap();
        assert_eq!(c.assignment().len(), 10);
    }
}
