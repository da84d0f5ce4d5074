//! Support-vector machine trained with Sequential Minimal Optimization.
//!
//! The paper's headline classifier: compact to serialize, robust to the
//! sparse road-following datasets that overfit decision trees (§3.2). This
//! implementation supports linear and RBF kernels and soft margins.
//! Training follows Platt's SMO with an **incremental error cache**:
//! `E[i] = f(i) − y[i]` is maintained across the whole training set and
//! refreshed in O(n) after each successful alpha step, instead of
//! recomputing `f()` per candidate (O(n) each, O(n²) per pass). The second
//! multiplier is chosen by max-|E_i − E_j| over the ascending list of
//! non-bound points (the active set), with the seeded RNG as a
//! deterministic fallback. Kernel rows are built the first time a
//! successful step needs them; rejected pairs read single entries. Both
//! keep every pick and every kernel value bit-identical to a full scan
//! over an eager n×n cache — see DESIGN.md §8.4. The pre-cache
//! implementation is retained as [`SvmTrainer::fit_naive_reference`] for
//! benchmarks and the equivalence property tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{DeError, Deserialize, Map, Serialize, Value};

use crate::linalg::{dist_sq, dot};
use crate::{Classifier, Dataset};

/// SVM kernel functions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Kernel {
    /// `K(a, b) = a·b`.
    Linear,
    /// `K(a, b) = exp(−γ‖a−b‖²)`.
    Rbf {
        /// The RBF width parameter γ.
        gamma: f64,
    },
}

impl Kernel {
    /// Evaluates the kernel on two feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => dot(a, b),
            Kernel::Rbf { gamma } => (-gamma * dist_sq(a, b)).exp(),
        }
    }
}

/// Errors from SVM training.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvmError {
    /// The dataset is empty.
    Empty,
    /// Only one class is present.
    SingleClass,
}

impl std::fmt::Display for SvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SvmError::Empty => write!(f, "training set is empty"),
            SvmError::SingleClass => write!(f, "training set contains a single class"),
        }
    }
}

impl std::error::Error for SvmError {}

/// Kernel matrix rows of a training set, built on first use.
///
/// SMO reads whole rows only on a successful step (the O(n) error-cache
/// refresh); a rejected pair needs three entries. On the refit's 900-row
/// fits a few hundred rows are ever needed, so rows are built lazily and
/// the diagonal is precomputed. Every entry, however it is reached, is
/// computed by [`entry`](Self::entry) with the lower index first, so the
/// values are bit-identical to an eager symmetric fill.
struct KernelRows<'a> {
    kernel: Kernel,
    rows: &'a [Vec<f64>],
    /// Per-row squared norms (RBF only): `K(a, b) = exp(−γ(‖a‖² + ‖b‖² −
    /// 2a·b))` costs one dot product instead of a full `dist_sq` walk.
    norms: Vec<f64>,
    diag: Vec<f64>,
    /// Offset of each built row in `built`.
    slot: Vec<Option<usize>>,
    built: Vec<f64>,
}

impl<'a> KernelRows<'a> {
    fn new(kernel: Kernel, rows: &'a [Vec<f64>]) -> Self {
        let norms = match kernel {
            Kernel::Rbf { .. } => rows.iter().map(|r| dot(r, r)).collect(),
            Kernel::Linear => Vec::new(),
        };
        let mut k = Self {
            kernel,
            rows,
            norms,
            diag: Vec::new(),
            slot: vec![None; rows.len()],
            built: Vec::new(),
        };
        k.diag = (0..rows.len()).map(|i| k.entry(i, i)).collect();
        k
    }

    /// `K(a, b)` computed from scratch.
    fn entry(&self, a: usize, b: usize) -> f64 {
        let (i, j) = (a.min(b), a.max(b));
        match self.kernel {
            Kernel::Linear => dot(&self.rows[i], &self.rows[j]),
            Kernel::Rbf { gamma } => {
                // Rounding can push ‖a−b‖² marginally negative for
                // near-identical rows; clamp so K ≤ 1 holds.
                let d = (self.norms[i] + self.norms[j] - 2.0 * dot(&self.rows[i], &self.rows[j]))
                    .max(0.0);
                (-gamma * d).exp()
            }
        }
    }

    /// `K(i, j)`, read from a built row when there is one.
    fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            self.diag[i]
        } else if let Some(at) = self.slot[i] {
            self.built[at + j]
        } else if let Some(at) = self.slot[j] {
            self.built[at + i]
        } else {
            self.entry(i, j)
        }
    }

    /// Row `i`, which [`build`](Self::build) must have produced.
    fn row(&self, i: usize) -> &[f64] {
        let at = self.slot[i].expect("kernel row is built before it is read");
        &self.built[at..at + self.rows.len()]
    }

    fn build(&mut self, i: usize) {
        if self.slot[i].is_some() {
            return;
        }
        // Entries shared with an already built row are copied from it.
        let at = self.built.len();
        for t in 0..self.rows.len() {
            let v = self.get(i, t);
            self.built.push(v);
        }
        self.slot[i] = Some(at);
    }
}

/// Inserts or removes `idx` so the ascending `active` list holds exactly
/// the non-bound multipliers.
fn set_active(active: &mut Vec<usize>, idx: usize, non_bound: bool) {
    match active.binary_search(&idx) {
        Ok(pos) if !non_bound => {
            active.remove(pos);
        }
        Err(pos) if non_bound => active.insert(pos, idx),
        _ => {}
    }
}

/// Trainer for [`SvmModel`].
///
/// # Examples
///
/// ```
/// use waldo_ml::{Classifier, Dataset};
/// use waldo_ml::svm::{Kernel, SvmTrainer};
///
/// let ds = Dataset::from_rows(
///     vec![vec![-1.0, 0.0], vec![-1.5, 0.3], vec![1.0, 0.0], vec![1.5, -0.3]],
///     vec![false, false, true, true],
/// ).unwrap();
/// let model = SvmTrainer::new().kernel(Kernel::Linear).fit(&ds).unwrap();
/// assert!(model.predict(&[1.2, 0.0]));
/// assert!(!model.predict(&[-1.2, 0.0]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmTrainer {
    c: f64,
    kernel: Option<Kernel>,
    tol: f64,
    max_passes: usize,
    max_iter: usize,
    seed: u64,
}

impl Default for SvmTrainer {
    fn default() -> Self {
        Self::new()
    }
}

impl SvmTrainer {
    /// Creates a trainer with `C = 10`, an RBF kernel with γ = 1/dim
    /// (features are expected standardized), tolerance `1e-3`, and a
    /// bounded iteration budget.
    pub fn new() -> Self {
        Self { c: 10.0, kernel: None, tol: 1e-3, max_passes: 3, max_iter: 120, seed: 0 }
    }

    /// Soft-margin penalty `C` (default 10).
    ///
    /// # Panics
    ///
    /// Panics unless `c > 0`.
    pub fn c(mut self, c: f64) -> Self {
        assert!(c > 0.0, "C must be positive");
        self.c = c;
        self
    }

    /// Kernel override (default: RBF with γ = 1/dim at fit time).
    pub fn kernel(mut self, kernel: Kernel) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// KKT violation tolerance (default `1e-3`).
    pub fn tol(mut self, tol: f64) -> Self {
        assert!(tol > 0.0, "tolerance must be positive");
        self.tol = tol;
        self
    }

    /// Number of consecutive clean passes declaring convergence (default 3).
    pub fn max_passes(mut self, p: usize) -> Self {
        assert!(p > 0, "at least one pass is required");
        self.max_passes = p;
        self
    }

    /// Hard cap on outer iterations (default 120).
    pub fn max_iter(mut self, it: usize) -> Self {
        assert!(it > 0, "at least one iteration is required");
        self.max_iter = it;
        self
    }

    /// Seed for the random second-multiplier fallback.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Trains on `ds` (labels: `true` ⇒ +1, `false` ⇒ −1) with the
    /// error-cached SMO.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError`] if the dataset is empty or single-class.
    pub fn fit(&self, ds: &Dataset) -> Result<SvmModel, SvmError> {
        self.fit_impl(ds, |_, _, _, _| {})
    }

    /// Error-cached SMO core. `audit` fires after every successful alpha
    /// step with `(alpha, b, e, active)` so tests can verify the cache
    /// invariant `e[i] == f(i) − y[i]` and the active set at each update.
    fn fit_impl(
        &self,
        ds: &Dataset,
        mut audit: impl FnMut(&[f64], f64, &[f64], &[usize]),
    ) -> Result<SvmModel, SvmError> {
        let _t = waldo_obs::timed("svm_fit");
        if ds.is_empty() {
            return Err(SvmError::Empty);
        }
        if !ds.has_both_classes() {
            return Err(SvmError::SingleClass);
        }
        let n = ds.len();
        let kernel = self.kernel.unwrap_or(Kernel::Rbf { gamma: 1.0 / ds.dim().max(1) as f64 });
        let y: Vec<f64> = ds.labels().iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let mut k = KernelRows::new(kernel, ds.rows());

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        // Error cache: with all alphas zero, f(i) = 0 so E[i] = −y[i].
        let mut e: Vec<f64> = y.iter().map(|&yi| -yi).collect();
        // Ascending indices of the non-bound multipliers (0 < α < C).
        let mut active: Vec<usize> = Vec::new();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5e_ed);

        let mut passes = 0;
        let mut iter = 0;
        while passes < self.max_passes && iter < self.max_iter {
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = e[i];
                let viol = (y[i] * e_i < -self.tol && alpha[i] < self.c)
                    || (y[i] * e_i > self.tol && alpha[i] > 0.0);
                if !viol {
                    continue;
                }
                // Second multiplier: the non-bound point maximizing
                // |E_i − E_j| takes the largest unconstrained step. Strict
                // `>` over the ascending active set keeps the first index
                // on ties, so the pick is deterministic.
                let mut best: Option<(usize, f64)> = None;
                for &j in &active {
                    if j == i {
                        continue;
                    }
                    let gap = (e_i - e[j]).abs();
                    if best.is_none_or(|(_, g)| gap > g) {
                        best = Some((j, gap));
                    }
                }
                let mut step = best.and_then(|(j, _)| {
                    self.try_step(i, j, &mut k, &y, &mut alpha, &mut b, &mut e).then_some(j)
                });
                if step.is_none() {
                    // Deterministic seeded fallback: no non-bound candidate,
                    // or the heuristic step was rejected at the boundary.
                    let mut j = rng.gen_range(0..n - 1);
                    if j >= i {
                        j += 1;
                    }
                    step = self.try_step(i, j, &mut k, &y, &mut alpha, &mut b, &mut e).then_some(j);
                }
                if let Some(j) = step {
                    for t in [i, j] {
                        set_active(&mut active, t, !(alpha[t] <= 0.0 || alpha[t] >= self.c));
                    }
                    changed += 1;
                    audit(&alpha, b, &e, &active);
                }
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iter += 1;
        }

        Ok(SvmModel::from_training(kernel, ds, &alpha, &y, b))
    }

    /// Attempts one SMO step on the pair `(i, j)`. On success updates
    /// `alpha`, `b`, and the full error cache in O(n) (building kernel
    /// rows `i` and `j` if this is their first use), and returns `true`;
    /// on a rejected step (degenerate box, non-negative curvature, or a
    /// negligible move) leaves all state untouched and returns `false`.
    #[allow(clippy::too_many_arguments)]
    fn try_step(
        &self,
        i: usize,
        j: usize,
        k: &mut KernelRows<'_>,
        y: &[f64],
        alpha: &mut [f64],
        b: &mut f64,
        e: &mut [f64],
    ) -> bool {
        if i == j {
            return false;
        }
        let (e_i, e_j) = (e[i], e[j]);
        let (a_i_old, a_j_old) = (alpha[i], alpha[j]);
        let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
            ((a_j_old - a_i_old).max(0.0), (self.c + a_j_old - a_i_old).min(self.c))
        } else {
            ((a_i_old + a_j_old - self.c).max(0.0), (a_i_old + a_j_old).min(self.c))
        };
        // Guard against floating-point producing hi marginally below lo
        // (e.g. −2.2e−16 when the box collapses).
        let hi = hi.max(lo);
        if hi - lo < 1e-12 {
            return false;
        }
        let (k_ij, k_ii, k_jj) = (k.get(i, j), k.diag[i], k.diag[j]);
        let eta = 2.0 * k_ij - k_ii - k_jj;
        if eta >= 0.0 {
            return false;
        }
        let mut a_j = a_j_old - y[j] * (e_i - e_j) / eta;
        a_j = a_j.clamp(lo, hi);
        if (a_j - a_j_old).abs() < 1e-6 {
            return false;
        }
        let a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j);
        alpha[i] = a_i;
        alpha[j] = a_j;

        let b1 = *b - e_i - y[i] * (a_i - a_i_old) * k_ii - y[j] * (a_j - a_j_old) * k_ij;
        let b2 = *b - e_j - y[i] * (a_i - a_i_old) * k_ij - y[j] * (a_j - a_j_old) * k_jj;
        let b_new = if a_i > 0.0 && a_i < self.c {
            b1
        } else if a_j > 0.0 && a_j < self.c {
            b2
        } else {
            (b1 + b2) / 2.0
        };

        // O(n) error-cache refresh: f changed by
        // Δf(t) = y_i·Δα_i·K_it + y_j·Δα_j·K_jt + Δb.
        let d_i = y[i] * (a_i - a_i_old);
        let d_j = y[j] * (a_j - a_j_old);
        let d_b = b_new - *b;
        *b = b_new;
        k.build(i);
        k.build(j);
        let (row_i, row_j) = (k.row(i), k.row(j));
        for ((e_t, &k_it), &k_jt) in e.iter_mut().zip(row_i).zip(row_j) {
            *e_t += d_i * k_it + d_j * k_jt + d_b;
        }
        true
    }

    /// The pre-error-cache reference implementation: recomputes `f()` for
    /// every candidate (O(n) per KKT check, O(n²) per pass), picks the
    /// second multiplier uniformly at random, and builds RBF cache entries
    /// with full `dist_sq` walks. Retained as the baseline for the
    /// `svm_fit` before/after benchmark and as the convergence oracle for
    /// the SMO equivalence property tests.
    ///
    /// # Errors
    ///
    /// Returns [`SvmError`] if the dataset is empty or single-class.
    pub fn fit_naive_reference(&self, ds: &Dataset) -> Result<SvmModel, SvmError> {
        if ds.is_empty() {
            return Err(SvmError::Empty);
        }
        if !ds.has_both_classes() {
            return Err(SvmError::SingleClass);
        }
        let n = ds.len();
        let kernel = self.kernel.unwrap_or(Kernel::Rbf { gamma: 1.0 / ds.dim().max(1) as f64 });
        let y: Vec<f64> = ds.labels().iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();

        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in i..n {
                let v = kernel.eval(&ds.rows()[i], &ds.rows()[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        let mut alpha = vec![0.0f64; n];
        let mut b = 0.0f64;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5e_ed);

        let f = |alpha: &[f64], b: f64, k: &[f64], idx: usize| -> f64 {
            let mut s = b;
            for j in 0..n {
                if alpha[j] != 0.0 {
                    s += alpha[j] * y[j] * k[j * n + idx];
                }
            }
            s
        };

        let mut passes = 0;
        let mut iter = 0;
        while passes < self.max_passes && iter < self.max_iter {
            let mut changed = 0usize;
            for i in 0..n {
                let e_i = f(&alpha, b, &k, i) - y[i];
                let viol = (y[i] * e_i < -self.tol && alpha[i] < self.c)
                    || (y[i] * e_i > self.tol && alpha[i] > 0.0);
                if !viol {
                    continue;
                }
                let mut j = rng.gen_range(0..n - 1);
                if j >= i {
                    j += 1;
                }
                let e_j = f(&alpha, b, &k, j) - y[j];
                let (a_i_old, a_j_old) = (alpha[i], alpha[j]);
                let (lo, hi) = if (y[i] - y[j]).abs() > f64::EPSILON {
                    ((a_j_old - a_i_old).max(0.0), (self.c + a_j_old - a_i_old).min(self.c))
                } else {
                    ((a_i_old + a_j_old - self.c).max(0.0), (a_i_old + a_j_old).min(self.c))
                };
                let hi = hi.max(lo);
                if hi - lo < 1e-12 {
                    continue;
                }
                let eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
                if eta >= 0.0 {
                    continue;
                }
                let mut a_j = a_j_old - y[j] * (e_i - e_j) / eta;
                a_j = a_j.clamp(lo, hi);
                if (a_j - a_j_old).abs() < 1e-6 {
                    continue;
                }
                let a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j);
                alpha[i] = a_i;
                alpha[j] = a_j;

                let b1 = b
                    - e_i
                    - y[i] * (a_i - a_i_old) * k[i * n + i]
                    - y[j] * (a_j - a_j_old) * k[i * n + j];
                let b2 = b
                    - e_j
                    - y[i] * (a_i - a_i_old) * k[i * n + j]
                    - y[j] * (a_j - a_j_old) * k[j * n + j];
                b = if a_i > 0.0 && a_i < self.c {
                    b1
                } else if a_j > 0.0 && a_j < self.c {
                    b2
                } else {
                    (b1 + b2) / 2.0
                };
                changed += 1;
            }
            if changed == 0 {
                passes += 1;
            } else {
                passes = 0;
            }
            iter += 1;
        }

        Ok(SvmModel::from_training(kernel, ds, &alpha, &y, b))
    }
}

/// A trained SVM.
///
/// Serialized as `{kernel, support, coef, bias}`; the prediction caches
/// (per-support-vector squared norms for RBF, the explicit weight vector
/// for linear kernels) are recomputed on construction and deserialization
/// rather than stored.
#[derive(Debug, Clone)]
pub struct SvmModel {
    kernel: Kernel,
    support: Vec<Vec<f64>>,
    coef: Vec<f64>,
    bias: f64,
    /// Per-support-vector squared norms (RBF prediction cache).
    sv_norms: Vec<f64>,
    /// Explicit weight vector `w = Σ αᵢyᵢxᵢ` (linear prediction cache;
    /// empty for RBF kernels).
    weights: Vec<f64>,
}

impl SvmModel {
    /// Assembles a model from its serialized parts, computing the
    /// prediction caches. This is the decode path for both the JSON
    /// descriptor and the `waldo-serve` binary wire format.
    pub fn from_parts(kernel: Kernel, support: Vec<Vec<f64>>, coef: Vec<f64>, bias: f64) -> Self {
        let sv_norms = match kernel {
            Kernel::Rbf { .. } => support.iter().map(|sv| dot(sv, sv)).collect(),
            Kernel::Linear => Vec::new(),
        };
        let weights = match kernel {
            Kernel::Linear => {
                let dim = support.first().map_or(0, Vec::len);
                let mut w = vec![0.0f64; dim];
                for (sv, &a) in support.iter().zip(&coef) {
                    for (w_d, &x_d) in w.iter_mut().zip(sv) {
                        *w_d += a * x_d;
                    }
                }
                w
            }
            Kernel::Rbf { .. } => Vec::new(),
        };
        Self { kernel, support, coef, bias, sv_norms, weights }
    }

    /// Extracts the support vectors (`alpha > 1e-9`) from a finished
    /// training run.
    fn from_training(kernel: Kernel, ds: &Dataset, alpha: &[f64], y: &[f64], bias: f64) -> Self {
        let mut support = Vec::new();
        let mut coef = Vec::new();
        for (i, &a) in alpha.iter().enumerate() {
            if a > 1e-9 {
                support.push(ds.rows()[i].clone());
                coef.push(a * y[i]);
            }
        }
        Self::from_parts(kernel, support, coef, bias)
    }

    /// Signed distance-like decision value; positive predicts `true`.
    ///
    /// Linear kernels evaluate `w·x + b` (one dot product total); RBF
    /// kernels use the cached support-vector norms so each term costs one
    /// dot product.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn decision_function(&self, x: &[f64]) -> f64 {
        let _t = waldo_obs::timed("svm_predict");
        match self.kernel {
            Kernel::Linear => dot(&self.weights, x) + self.bias,
            Kernel::Rbf { gamma } => {
                let x_norm = dot(x, x);
                let mut s = self.bias;
                for ((sv, &a), &sv_norm) in self.support.iter().zip(&self.coef).zip(&self.sv_norms)
                {
                    let d = (sv_norm + x_norm - 2.0 * dot(sv, x)).max(0.0);
                    s += a * (-gamma * d).exp();
                }
                s
            }
        }
    }

    /// Pre-cache decision path: a full kernel evaluation per support
    /// vector. Retained as the baseline for the `svm_predict` benchmark.
    pub fn decision_function_naive(&self, x: &[f64]) -> f64 {
        let mut s = self.bias;
        for (sv, &a) in self.support.iter().zip(&self.coef) {
            s += a * self.kernel.eval(sv, x);
        }
        s
    }

    /// Number of support vectors retained.
    pub fn support_vector_count(&self) -> usize {
        self.support.len()
    }

    /// The retained support vectors.
    pub fn support_vectors(&self) -> &[Vec<f64>] {
        &self.support
    }

    /// Per-support-vector dual coefficients (`alpha_i * y_i`), parallel to
    /// [`support_vectors`](Self::support_vectors).
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The decision-function bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of serialized parameters: every support vector plus its dual
    /// coefficient plus the bias. Backs the model-size experiment (the
    /// paper reports ~40 kB SVM vs ~4 kB NB descriptors).
    pub fn parameter_count(&self) -> usize {
        let dim = self.support.first().map_or(0, Vec::len);
        self.support.len() * (dim + 1) + 1
    }
}

/// Equality over the serialized descriptor (kernel, support vectors, dual
/// coefficients, bias). The prediction caches are deterministic functions
/// of those fields, so comparing them would be redundant.
impl PartialEq for SvmModel {
    fn eq(&self, other: &Self) -> bool {
        self.kernel == other.kernel
            && self.support == other.support
            && self.coef == other.coef
            && self.bias == other.bias
    }
}

impl Serialize for SvmModel {
    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("kernel", self.kernel.to_value());
        m.insert("support", self.support.to_value());
        m.insert("coef", self.coef.to_value());
        m.insert("bias", self.bias.to_value());
        Value::Object(m)
    }
}

impl Deserialize for SvmModel {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let obj = value.as_object().ok_or_else(|| DeError::msg("SvmModel: expected object"))?;
        let field = |name: &str| {
            obj.get(name).ok_or_else(|| DeError::msg(format!("SvmModel: missing field {name}")))
        };
        Ok(Self::from_parts(
            Kernel::from_value(field("kernel")?)?,
            Vec::<Vec<f64>>::from_value(field("support")?)?,
            Vec::<f64>::from_value(field("coef")?)?,
            f64::from_value(field("bias")?)?,
        ))
    }
}

impl Classifier for SvmModel {
    fn predict(&self, x: &[f64]) -> bool {
        self.decision_function(x) > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linearly_separable(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(-1.0..1.0);
            let y: f64 = rng.gen_range(-1.0..1.0);
            let pos = x + y > 0.2 || x + y < -0.2;
            if !pos {
                continue; // leave a margin gap
            }
            rows.push(vec![x, y]);
            labels.push(x + y > 0.0);
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    /// Points inside a disk are positive — linearly inseparable.
    fn ring(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(-2.0..2.0);
            let y: f64 = rng.gen_range(-2.0..2.0);
            let r = (x * x + y * y).sqrt();
            if (0.8..1.2).contains(&r) {
                continue; // margin gap
            }
            rows.push(vec![x, y]);
            labels.push(r < 1.0);
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    #[test]
    fn linear_kernel_separates_linear_data() {
        let ds = linearly_separable(200, 1);
        let model = SvmTrainer::new().kernel(Kernel::Linear).seed(1).fit(&ds).unwrap();
        let correct =
            ds.rows().iter().zip(ds.labels()).filter(|(r, &l)| model.predict(r) == l).count();
        assert!(correct as f64 / ds.len() as f64 > 0.97, "{correct}/{}", ds.len());
    }

    #[test]
    fn rbf_kernel_separates_ring_data() {
        let ds = ring(300, 2);
        let model = SvmTrainer::new().kernel(Kernel::Rbf { gamma: 1.0 }).seed(2).fit(&ds).unwrap();
        let correct =
            ds.rows().iter().zip(ds.labels()).filter(|(r, &l)| model.predict(r) == l).count();
        assert!(correct as f64 / ds.len() as f64 > 0.95, "{correct}/{}", ds.len());
    }

    #[test]
    fn rbf_beats_linear_on_ring_data() {
        // Sanity check that the RBF result above is meaningful: a linear
        // boundary cannot carve out a disk, so it can do no better than
        // roughly the majority-class rate.
        let ds = ring(300, 3);
        let linear = SvmTrainer::new().kernel(Kernel::Linear).seed(3).fit(&ds).unwrap();
        let rbf = SvmTrainer::new().kernel(Kernel::Rbf { gamma: 1.0 }).seed(3).fit(&ds).unwrap();
        let acc = |m: &SvmModel| {
            ds.rows().iter().zip(ds.labels()).filter(|(r, &l)| m.predict(r) == l).count() as f64
                / ds.len() as f64
        };
        let majority = ds.negatives().max(ds.positives()) as f64 / ds.len() as f64;
        assert!(acc(&linear) <= majority + 0.05, "linear {} vs majority {majority}", acc(&linear));
        assert!(acc(&rbf) > acc(&linear) + 0.05, "rbf {} linear {}", acc(&rbf), acc(&linear));
    }

    #[test]
    fn training_errors() {
        assert_eq!(SvmTrainer::new().fit(&Dataset::default()), Err(SvmError::Empty));
        let single = Dataset::from_rows(vec![vec![0.0], vec![1.0]], vec![true, true]).unwrap();
        assert_eq!(SvmTrainer::new().fit(&single), Err(SvmError::SingleClass));
        assert_eq!(
            SvmTrainer::new().fit_naive_reference(&Dataset::default()),
            Err(SvmError::Empty)
        );
        assert_eq!(SvmTrainer::new().fit_naive_reference(&single), Err(SvmError::SingleClass));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = ring(150, 4);
        let a = SvmTrainer::new().seed(9).fit(&ds).unwrap();
        let b = SvmTrainer::new().seed(9).fit(&ds).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn support_vectors_are_a_subset() {
        let ds = linearly_separable(200, 5);
        let model = SvmTrainer::new().kernel(Kernel::Linear).fit(&ds).unwrap();
        assert!(model.support_vector_count() > 0);
        assert!(model.support_vector_count() <= ds.len());
        // A wide-margin problem should need few support vectors.
        assert!(model.support_vector_count() < ds.len() / 2);
    }

    #[test]
    fn decision_function_sign_matches_predict() {
        let ds = ring(200, 6);
        let model = SvmTrainer::new().fit(&ds).unwrap();
        for row in ds.rows().iter().take(20) {
            assert_eq!(model.predict(row), model.decision_function(row) > 0.0);
        }
    }

    #[test]
    fn cached_decision_matches_naive_decision() {
        // The norms-based RBF path and the w-vector linear path must agree
        // with the plain kernel-sum within rounding.
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
            let ds = ring(200, 8);
            let model = SvmTrainer::new().kernel(kernel).seed(8).fit(&ds).unwrap();
            for row in ds.rows().iter().take(40) {
                let fast = model.decision_function(row);
                let naive = model.decision_function_naive(row);
                assert!((fast - naive).abs() < 1e-9, "{kernel:?}: {fast} vs {naive}");
            }
        }
    }

    /// The eager symmetric fill the on-demand rows replaced: the oracle
    /// every lazily built row and entry must match bit for bit.
    fn build_kernel_cache(kernel: Kernel, rows: &[Vec<f64>]) -> Vec<f64> {
        let n = rows.len();
        let mut k = vec![0.0f64; n * n];
        let norms: Vec<f64> = rows.iter().map(|r| dot(r, r)).collect();
        for i in 0..n {
            for j in i..n {
                let v = match kernel {
                    Kernel::Linear => dot(&rows[i], &rows[j]),
                    Kernel::Rbf { gamma } => {
                        let d = (norms[i] + norms[j] - 2.0 * dot(&rows[i], &rows[j])).max(0.0);
                        (-gamma * d).exp()
                    }
                };
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }
        k
    }

    #[test]
    fn error_cache_matches_recomputed_f_after_every_update() {
        // The invariant behind the whole optimization: after every
        // successful alpha step, the incrementally maintained E equals the
        // from-scratch f(i) − y[i] (over the eager kernel) for every point,
        // and the active set is exactly the ascending non-bound indices.
        let ds = ring(120, 10);
        let kernel = Kernel::Rbf { gamma: 0.5 };
        let k = build_kernel_cache(kernel, ds.rows());
        let y: Vec<f64> = ds.labels().iter().map(|&l| if l { 1.0 } else { -1.0 }).collect();
        let n = y.len();
        let mut audits = 0usize;
        let trainer = SvmTrainer::new().seed(10);
        trainer
            .fit_impl(&ds, |alpha, b, e, active| {
                audits += 1;
                for idx in 0..n {
                    let mut f = b;
                    for t in 0..n {
                        if alpha[t] != 0.0 {
                            f += alpha[t] * y[t] * k[t * n + idx];
                        }
                    }
                    let expect = f - y[idx];
                    assert!(
                        (e[idx] - expect).abs() < 1e-8,
                        "update {audits}: e[{idx}] = {} but f−y = {expect}",
                        e[idx]
                    );
                }
                let non_bound: Vec<usize> =
                    (0..n).filter(|&t| alpha[t] > 0.0 && alpha[t] < 10.0).collect();
                assert_eq!(active, non_bound, "update {audits}: active set drifted");
            })
            .unwrap();
        assert!(audits > 0, "training must take successful steps");
    }

    #[test]
    fn on_demand_rows_match_the_eager_fill_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(64);
        for case in 0..60 {
            let n = rng.gen_range(2..=64usize);
            let dim = rng.gen_range(1..=5usize);
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
            for t in 0..n {
                // Some duplicated rows, where RBF's clamp matters.
                let row = if t > 0 && rng.gen::<f64>() < 0.2 {
                    rows[rng.gen_range(0..t)].clone()
                } else {
                    (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect()
                };
                rows.push(row);
            }
            for kernel in [Kernel::Linear, Kernel::Rbf { gamma: rng.gen_range(0.05..2.0) }] {
                let eager = build_kernel_cache(kernel, &rows);
                let mut lazy = KernelRows::new(kernel, &rows);
                for _ in 0..3 * n {
                    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if rng.gen::<bool>() {
                        lazy.build(i);
                        let row = lazy.row(i);
                        for t in 0..n {
                            assert_eq!(
                                row[t].to_bits(),
                                eager[i * n + t].to_bits(),
                                "case {case} {kernel:?}: row {i} entry {t}"
                            );
                        }
                    }
                    assert_eq!(
                        lazy.get(i, j).to_bits(),
                        eager[i * n + j].to_bits(),
                        "case {case} {kernel:?}: entry ({i}, {j})"
                    );
                }
                for i in 0..n {
                    assert_eq!(lazy.diag[i].to_bits(), eager[i * n + i].to_bits());
                }
            }
        }
    }

    #[test]
    fn serde_roundtrip_rebuilds_caches() {
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 1.0 }] {
            let ds = ring(150, 12);
            let model = SvmTrainer::new().kernel(kernel).seed(12).fit(&ds).unwrap();
            let back = SvmModel::from_value(&model.to_value()).unwrap();
            assert_eq!(model, back);
            // The rebuilt caches must drive identical decisions.
            for row in ds.rows().iter().take(20) {
                assert_eq!(
                    model.decision_function(row).to_bits(),
                    back.decision_function(row).to_bits()
                );
            }
        }
    }

    #[test]
    fn kernel_eval_known_values() {
        assert_eq!(Kernel::Linear.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        let rbf = Kernel::Rbf { gamma: 0.5 };
        assert!((rbf.eval(&[0.0], &[0.0]) - 1.0).abs() < 1e-12);
        assert!((rbf.eval(&[0.0], &[2.0]) - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn parameter_count_reflects_sv_budget() {
        let ds = linearly_separable(100, 7);
        let model = SvmTrainer::new().kernel(Kernel::Linear).fit(&ds).unwrap();
        let expect = model.support_vector_count() * 3 + 1;
        assert_eq!(model.parameter_count(), expect);
    }

    /// A 4-feature cloud whose labels follow a disk boundary with 10% of
    /// them flipped, so many multipliers end at the box bound `C`: the
    /// shape of a refit's capped locality fit.
    fn noisy_disk(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..4).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let inside = row[0] * row[0] + row[1] * row[1] < 1.5;
            labels.push(inside ^ (rng.gen::<f64>() < 0.1));
            rows.push(row);
        }
        Dataset::from_rows(rows, labels).unwrap()
    }

    /// FNV-1a over the serialized descriptor's bits: kernel, support
    /// vectors, dual coefficients and bias.
    fn model_digest(model: &SvmModel) -> u64 {
        let mut words: Vec<u64> = match model.kernel() {
            Kernel::Linear => vec![0],
            Kernel::Rbf { gamma } => vec![1, gamma.to_bits()],
        };
        for sv in model.support_vectors() {
            words.extend(sv.iter().map(|v| v.to_bits()));
        }
        words.extend(model.coefficients().iter().map(|v| v.to_bits()));
        words.push(model.bias().to_bits());
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn seeded_fits_are_pinned_bit_for_bit() {
        // Digests taken from the eager-kernel, full-scan solver: the
        // active set and on-demand rows must not move a single bit.
        let fits = [
            ("ring 150x2 rbf", SvmTrainer::new().seed(9).fit(&ring(150, 4)), 0xa33e_23dc_a188_500f),
            (
                "separable 200x2 linear",
                SvmTrainer::new().kernel(Kernel::Linear).seed(5).fit(&linearly_separable(200, 5)),
                0x8ae1_d7f5_9bc4_183d,
            ),
            (
                "noisy disk 900x4 rbf",
                SvmTrainer::new()
                    .c(10.0)
                    .kernel(Kernel::Rbf { gamma: 0.5 })
                    .seed(11)
                    .fit(&noisy_disk(900, 11)),
                0x277c_0f2e_679b_57e6,
            ),
        ];
        for (name, model, pinned) in fits {
            let model = model.unwrap();
            let digest = model_digest(&model);
            assert_eq!(
                digest,
                pinned,
                "{name}: digest {digest:#018x} ({} support vectors)",
                model.support_vector_count()
            );
        }
    }

    #[test]
    #[should_panic(expected = "C must be positive")]
    fn non_positive_c_panics() {
        let _ = SvmTrainer::new().c(0.0);
    }
}
