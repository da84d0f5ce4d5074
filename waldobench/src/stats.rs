//! Percentiles, the metric table every phase fills, and the host
//! fingerprint printed beside every result.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by nearest rank; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Most slices a tail quantile is taken over.
const MAX_SLICES: usize = 5;

/// A tail quantile robust to a passing stall of the host: `values`, in
/// the order they were measured, is cut into up to [`MAX_SLICES`]
/// consecutive slices of at least `min_per_slice` samples, and the result
/// is the median of the slices' `q`-quantiles.
pub fn sliced_quantile(values: &[f64], q: f64, min_per_slice: usize) -> Option<f64> {
    let slices = (values.len() / min_per_slice.max(1)).clamp(1, MAX_SLICES);
    let len = values.len() / slices;
    let per_slice: Vec<f64> = (0..slices)
        .filter_map(|i| {
            let end = if i + 1 == slices { values.len() } else { (i + 1) * len };
            quantile(&values[i * len..end], q)
        })
        .collect();
    median(&per_slice)
}

/// Named metrics with units, plus the correctness tally of the run.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations that failed, with the first few reasons.
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    /// Sets `name` to the `q`-quantile of `values`, or records a failure
    /// when there are fewer than `min_samples` of them. A p99 is the
    /// [`sliced_quantile`] over slices of at least `min_samples`.
    pub fn set_quantile(
        &mut self,
        name: &str,
        values: &[f64],
        q: f64,
        min_samples: usize,
        unit: &'static str,
    ) {
        if values.len() < min_samples {
            self.fail(format!("{name}: {} samples, needs {min_samples}", values.len()));
        }
        let value =
            if q >= 0.99 { sliced_quantile(values, q, min_samples) } else { quantile(values, q) };
        if let Some(v) = value {
            self.set(name, v, unit);
        }
    }

    /// Counts `n` checked operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed check.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(reason);
        }
    }

    /// Counts one check that passes when `ok`.
    pub fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(reason());
        }
    }

    pub fn merge(&mut self, other: Metrics) {
        self.values.extend(other.values);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Where a result was measured. Results with different fingerprints are
/// not comparable.
pub fn fingerprint(reactors: u64) -> serde_json::Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let waldo_env: BTreeMap<String, String> =
        std::env::vars().filter(|(k, _)| k.starts_with("WALDO_")).collect();
    serde_json::json!({
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "cpu_model": cpu_model,
        "reactors": reactors,
        "par_workers": waldo_par::current_workers(),
        "waldo_env": waldo_env,
        "os": std::env::consts::OS,
        "arch": std::env::consts::ARCH,
    })
}

/// CPU time (user + system) consumed by this process so far, including
/// threads that have exited, nanoseconds. Linux reports it in ticks of
/// 1/100 s. `None` where `/proc` is unavailable.
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

/// Host-wide CPU ticks so far, `(all, stolen by the hypervisor)`, from the
/// first line of `/proc/stat`. Steal during a run marks a noisy host.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|t| t.parse().ok()).collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}
