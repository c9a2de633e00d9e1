//! Per-class latency statistics.
//!
//! A workload's ops fall into classes chosen by the generator (a model
//! cell, or a serve key group). Latency metrics take each class's
//! percentile first and then the geometric mean across classes, so a mix
//! whose ops range from microseconds to hundreds of milliseconds does not
//! report only its heaviest class.

/// Tail percentiles in order of preference: the highest one that leaves at
/// least [`TAIL_SAMPLES`] samples beyond it in every class is reported.
const TAIL_CANDIDATES: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples a tail percentile must have beyond it to be reported.
pub const TAIL_SAMPLES: usize = 10;

/// Smallest class size that still gets a tail (`p75` with
/// [`TAIL_SAMPLES`] beyond it).
pub const MIN_CLASS_SAMPLES: usize = 4 * TAIL_SAMPLES;

/// Linear-interpolated percentile `q ∈ [0, 1]` of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp()
}

/// Samples beyond the `q` percentile in a class of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    // The epsilon keeps 100 × (1 − 0.9) from flooring to 9.
    ((n as f64) * (1.0 - q) + 1e-9).floor() as usize
}

/// The highest candidate percentile with at least [`TAIL_SAMPLES`]
/// samples beyond it in a class of `n` samples.
pub fn tail_quantile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&q| beyond(n, q) >= TAIL_SAMPLES)
        .unwrap_or(0.5)
}

/// Latencies grouped by class.
pub struct ClassLatencies {
    pub names: Vec<String>,
    pub samples: Vec<Vec<f64>>,
}

impl ClassLatencies {
    pub fn new(names: Vec<String>) -> Self {
        let samples = vec![Vec::new(); names.len()];
        Self { names, samples }
    }

    pub fn push(&mut self, class: usize, value: f64) {
        self.samples[class].push(value);
    }

    pub fn min_count(&self) -> usize {
        self.samples.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Geomean across classes of each class's median.
    pub fn p50(&self) -> f64 {
        geomean(&self.class_medians())
    }

    /// Geomean across classes of each class's `q` percentile.
    pub fn quantile(&self, q: f64) -> f64 {
        let per: Vec<f64> = self.samples.iter().map(|s| percentile(s, q)).collect();
        geomean(&per)
    }

    pub fn class_medians(&self) -> Vec<f64> {
        self.samples.iter().map(|s| median(s)).collect()
    }

    /// The common tail percentile for this sample (see [`tail_quantile`])
    /// and the geomean across classes of each class's value at it.
    pub fn tail(&self) -> (f64, f64) {
        let q = tail_quantile(self.min_count());
        let per: Vec<f64> = self.samples.iter().map(|s| percentile(s, q)).collect();
        (q, geomean(&per))
    }
}

/// Split `seconds` of nominal work between classes whose single-op costs
/// are `nominal_ms`: every class gets at least [`MIN_CLASS_SAMPLES`] ops,
/// and the rest of the time is shared equally ("water filling"). The
/// nominal costs are constants of the benchmark, never measurements, so
/// the op counts depend only on `seconds`.
pub fn class_counts(nominal_ms: &[f64], seconds: f64) -> Vec<usize> {
    let floor_ms: Vec<f64> = nominal_ms
        .iter()
        .map(|ms| ms * MIN_CLASS_SAMPLES as f64)
        .collect();
    let mut floored = vec![false; nominal_ms.len()];
    loop {
        let fixed: f64 = (0..floor_ms.len())
            .filter(|&i| floored[i])
            .map(|i| floor_ms[i])
            .sum();
        let free = floored.iter().filter(|f| !**f).count();
        let share = ((seconds * 1000.0 - fixed) / free.max(1) as f64).max(0.0);
        let mut changed = false;
        for i in 0..floor_ms.len() {
            if !floored[i] && floor_ms[i] >= share {
                floored[i] = true;
                changed = true;
            }
        }
        if !changed {
            return nominal_ms
                .iter()
                .enumerate()
                .map(|(i, ms)| {
                    if floored[i] {
                        MIN_CLASS_SAMPLES
                    } else {
                        ((share / ms).round() as usize).max(MIN_CLASS_SAMPLES)
                    }
                })
                .collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(100), 0.90);
        assert_eq!(tail_quantile(1000), 0.99);
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    }

    #[test]
    fn class_counts_fill_time_and_respect_the_floor() {
        let counts = class_counts(&[1.0, 10.0, 100.0], 9.0);
        assert_eq!(counts[2], MIN_CLASS_SAMPLES);
        let total: f64 = counts
            .iter()
            .zip([1.0, 10.0, 100.0])
            .map(|(n, ms)| *n as f64 * ms)
            .sum();
        assert!((total - 9000.0).abs() < 200.0, "{total}");
    }
}
