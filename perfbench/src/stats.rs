//! Sample sets and the quantile rules every reported timing follows.

use std::time::Duration;

/// Nanosecond samples of one quantity, collected in any order.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn append(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sorts the samples for quantile queries.
    pub fn dist(&self) -> Dist {
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        Dist(sorted)
    }
}

/// A sorted sample set.
#[derive(Debug, Clone)]
pub struct Dist(Vec<u64>);

impl Dist {
    /// Nearest-rank quantile in nanoseconds; 0 for an empty set.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = (q * self.0.len() as f64).ceil() as usize;
        self.0[rank.clamp(1, self.0.len()) - 1]
    }

    pub fn p50_ms(&self) -> f64 {
        self.quantile_ns(0.5) as f64 / 1e6
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_ns(0.5) as f64 / 1e3
    }

    /// Mean in nanoseconds; 0 for an empty set.
    pub fn mean_ns(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().map(|&v| v as f64).sum::<f64>() / self.0.len() as f64
    }

    /// Mean in nanoseconds of the samples left after dropping the
    /// `trim` share at each end; 0 for an empty set.
    pub fn trimmed_mean_ns(&self, trim: f64) -> f64 {
        let cut = (self.0.len() as f64 * trim).floor() as usize;
        Dist(self.0[cut..self.0.len() - cut].to_vec()).mean_ns()
    }

    /// The tail percentile this set supports (see [`tail_percentile`])
    /// and its value in nanoseconds.
    pub fn tail_ns(&self) -> (u32, u64) {
        let p = tail_percentile(self.0.len());
        (p, self.quantile_ns(f64::from(p) / 100.0))
    }
}

/// The tail percentile reported for `n` samples: p99 from 1000 samples
/// on, otherwise the highest whole percentile that still has at least
/// ten samples beyond it, never below the median.
pub fn tail_percentile(n: usize) -> u32 {
    if n >= 1000 {
        return 99;
    }
    if n == 0 {
        return 50;
    }
    let p = 100 * n.saturating_sub(10) / n;
    p.clamp(50, 99) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.push_ns(v);
        }
        let d = s.dist();
        assert_eq!(d.quantile_ns(0.5), 50);
        assert_eq!(d.quantile_ns(0.99), 99);
        assert_eq!(d.quantile_ns(1.0), 100);
        assert_eq!(d.quantile_ns(0.0), 1);
        assert_eq!(d.mean_ns(), 50.5);
        assert_eq!(d.trimmed_mean_ns(0.1), 50.5);
        assert_eq!(d.trimmed_mean_ns(0.25), 50.5);
        assert_eq!(Samples::default().dist().quantile_ns(0.5), 0);
        assert_eq!(Samples::default().dist().trimmed_mean_ns(0.1), 0.0);
        // Trimming drops a stall at either end, where the mean would not.
        let mut stalled = Samples::default();
        for v in [10, 10, 10, 10, 10, 10, 10, 10, 10, 1000] {
            stalled.push_ns(v);
        }
        assert_eq!(stalled.dist().trimmed_mean_ns(0.1), 10.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5000), 99);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(730), 98);
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(12), 50);
        for n in [20usize, 100, 333, 999] {
            let p = tail_percentile(n) as f64 / 100.0;
            assert!(n as f64 * (1.0 - p) >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }
}
