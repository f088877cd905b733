//! An HDR-style log-linear latency histogram.
//!
//! The bench harness's summary statistics ([`crate::bench`]) are built
//! from a full in-memory sample vector, which is fine for twenty timed
//! samples but not for a daemon recording millions of requests.
//! This histogram records a `u64` sample (nanoseconds, bytes, …) in
//! O(1) into a fixed 1920-bucket table and answers quantile queries
//! with a bounded relative error, like HdrHistogram but with none of
//! its configurability — one precision, zero dependencies.
//!
//! Bucketing is log-linear: values below 64 get exact unit buckets;
//! above that, each power of two is split into 32 linear sub-buckets,
//! so the reported value of any sample is at most [`RELATIVE_ERROR`]
//! (3.125 %) above the true one. The whole `u64` range is covered.
//!
//! Determinism: a histogram is a pure function of the multiset of
//! recorded samples. [`Histogram::merge`] is commutative and
//! associative, so per-client histograms folded in any order give the
//! identical aggregate, however client threads race.

use crate::json::Json;

/// log2 of the linear sub-buckets per power of two.
const LOG2_SUB: u32 = 5;
/// Linear sub-buckets per power of two (32).
const SUB: u64 = 1 << LOG2_SUB;
/// Total buckets needed to cover the full `u64` range: 2·SUB exact
/// unit buckets, then 32 sub-buckets for each of the remaining 58
/// doublings.
const BUCKETS: usize = ((64 - LOG2_SUB as usize) + 1) * SUB as usize;

/// Upper bound on the relative error of any reported quantile value:
/// a bucket spans at most `1/SUB` of its value range.
pub const RELATIVE_ERROR: f64 = 1.0 / SUB as f64;

/// Maps a sample to its bucket index. Monotonic: `v <= w` implies
/// `index(v) <= index(w)`.
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - u64::leading_zeros(v) as u64; // >= LOG2_SUB + 1
    let shift = exp - LOG2_SUB as u64;
    let mantissa = (v >> shift) - SUB;
    ((shift + 1) * SUB + mantissa) as usize
}

/// The largest value that maps into bucket `index` — what quantile
/// queries report, so the answer is always an upper bound on the true
/// sample at that rank.
fn bucket_upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB {
        return index;
    }
    let shift = index / SUB - 1;
    let mantissa = index % SUB;
    ((mantissa + SUB) << shift) + ((1u64 << shift) - 1)
}

/// A fixed-precision log-linear histogram of `u64` samples.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(count={}, min={}, p50={}, p99={}, max={})",
            self.count,
            self.min(),
            self.quantile(0.50),
            self.quantile(0.99),
            self.max()
        )
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.record_n(sample, 1);
    }

    /// Records `n` occurrences of `sample`.
    pub fn record_n(&mut self, sample: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(sample)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(sample.saturating_mul(n));
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, exact. 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, exact. 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the samples, 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound within
    /// [`RELATIVE_ERROR`] of the sample at rank `ceil(q · count)`,
    /// clamped into `[min, max]` so `quantile(0.0) == min()` and
    /// `quantile(1.0) == max()` exactly. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The interval the true sample at quantile `q` lies in: the value
    /// range of the bucket holding rank `ceil(q · count)`, intersected
    /// with `[min, max]`. The upper bound equals [`Histogram::quantile`];
    /// the interval width is at most [`RELATIVE_ERROR`] of the value
    /// (plus one for the half-open bucket edge), which is the bound two
    /// independent histograms over related samples can be compared
    /// under: if the same requests were timed on both sides, the lower
    /// bound of the larger side can never exceed the upper bound of the
    /// smaller side. `(0, 0)` when empty.
    pub fn quantile_bounds(&self, q: f64) -> (u64, u64) {
        if self.count == 0 {
            return (0, 0);
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                let hi = bucket_upper_bound(i).clamp(self.min, self.max);
                let lo = match i {
                    0 => 0,
                    _ => (bucket_upper_bound(i - 1) + 1).clamp(self.min, self.max),
                };
                return (lo.min(hi), hi);
            }
        }
        (self.max, self.max)
    }

    /// Folds `other` in. Commutative and associative: merging
    /// per-worker histograms in any order yields the same result.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Serializes the summary plus the sparse bucket table. The
    /// rendering is a pure function of the recorded multiset, so two
    /// histograms over the same samples serialize byte-identically.
    pub fn to_json(&self) -> Json {
        let buckets: Vec<Json> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
            .collect();
        Json::Obj(vec![
            ("count".to_owned(), Json::Num(self.count as f64)),
            ("sum".to_owned(), Json::Num(self.sum as f64)),
            ("min".to_owned(), Json::Num(self.min() as f64)),
            ("max".to_owned(), Json::Num(self.max as f64)),
            ("p50".to_owned(), Json::Num(self.quantile(0.50) as f64)),
            ("p95".to_owned(), Json::Num(self.quantile(0.95) as f64)),
            ("p99".to_owned(), Json::Num(self.quantile(0.99) as f64)),
            ("buckets".to_owned(), Json::Arr(buckets)),
        ])
    }

    /// Rebuilds a histogram from its [`Histogram::to_json`] form.
    ///
    /// # Errors
    ///
    /// A missing member, an out-of-range bucket index, or a summary
    /// that disagrees with the bucket table.
    pub fn from_json(doc: &Json) -> Result<Histogram, String> {
        let field = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram: missing or non-integer `{k}`"))
        };
        let mut h = Histogram::new();
        let buckets = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram: missing `buckets`")?;
        for entry in buckets {
            let pair = entry.as_arr().ok_or("histogram: bucket is not a pair")?;
            let (i, c) = match (
                pair.first().and_then(Json::as_u64),
                pair.get(1).and_then(Json::as_u64),
            ) {
                (Some(i), Some(c)) if (i as usize) < BUCKETS => (i as usize, c),
                _ => return Err("histogram: malformed bucket pair".to_owned()),
            };
            h.counts[i] += c;
            h.count += c;
        }
        if h.count != field("count")? {
            return Err("histogram: count disagrees with the bucket table".to_owned());
        }
        h.sum = field("sum")?;
        h.max = field("max")?;
        h.min = if h.count == 0 {
            u64::MAX
        } else {
            field("min")?
        };
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RandomSource, Xoshiro256};

    /// Error allowed on a reported quantile: the bucketing bound plus
    /// one bucket of slack for the rank landing on a bucket edge.
    fn close(reported: u64, expected: u64) -> bool {
        let bound = (expected as f64 * RELATIVE_ERROR).max(1.0) as u64 + 1;
        reported >= expected.saturating_sub(bound) && reported <= expected + bound
    }

    #[test]
    fn bucket_index_is_monotonic_and_bounded() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            65_535,
            1 << 32,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotonic at {v}");
            assert!(i < BUCKETS, "index {i} out of range at {v}");
            assert!(
                bucket_upper_bound(i) >= v,
                "upper bound below the value at {v}"
            );
            last = i;
        }
        // Exact unit buckets for small values.
        for v in 0..128u64 {
            assert!(bucket_upper_bound(bucket_index(v)) >= v);
            if v < 64 {
                assert_eq!(bucket_upper_bound(bucket_index(v)), v);
            }
        }
    }

    #[test]
    fn quantiles_are_exact_on_small_values() {
        // Values below 2·SUB live in unit buckets: quantiles are exact.
        let mut h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.5), 25);
        assert_eq!(h.quantile(0.02), 1);
        assert_eq!(h.quantile(1.0), 50);
        assert_eq!(h.count(), 50);
        assert_eq!(h.sum(), 50 * 51 / 2);
        assert_eq!(h.mean(), h.sum() / 50);
    }

    #[test]
    fn quantiles_match_known_uniform_distribution_within_bound() {
        // 1..=100_000 once each: the q-quantile is q·100_000.
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expected) in [
            (0.50, 50_000u64),
            (0.90, 90_000),
            (0.95, 95_000),
            (0.99, 99_000),
            (0.999, 99_900),
        ] {
            let got = h.quantile(q);
            assert!(close(got, expected), "q{q}: got {got}, want ~{expected}");
            // The reported value is never below the true rank value by
            // more than one bucket — it is an upper-bound scheme.
            assert!(got + 1 >= expected || close(got, expected));
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn quantiles_match_known_bimodal_distribution() {
        // 90% fast (~1000), 10% slow (~1_000_000): p50/p90 sit in the
        // fast mode, p95/p99 in the slow one — the exact shape a
        // latency histogram exists to expose.
        let mut h = Histogram::new();
        h.record_n(1_000, 9_000);
        h.record_n(1_000_000, 1_000);
        assert!(close(h.quantile(0.50), 1_000));
        assert!(close(h.quantile(0.90), 1_000));
        assert!(close(h.quantile(0.95), 1_000_000));
        assert!(close(h.quantile(0.99), 1_000_000));
        assert_eq!(h.max(), 1_000_000);
        assert_eq!(h.min(), 1_000);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let parts: Vec<Histogram> = (0..4)
            .map(|_| {
                let mut h = Histogram::new();
                for _ in 0..500 {
                    h.record(rng.next_below(1 << 30));
                }
                h
            })
            .collect();

        // (((a+b)+c)+d)
        let mut left = Histogram::new();
        for p in &parts {
            left.merge(p);
        }
        // (a+(b+(c+d)))
        let mut right = Histogram::new();
        for p in parts.iter().rev() {
            right.merge(p);
        }
        // ((a+c)+(d+b))
        let mut shuffled = Histogram::new();
        for i in [0usize, 2, 3, 1] {
            shuffled.merge(&parts[i]);
        }
        for other in [&right, &shuffled] {
            assert_eq!(left.count(), other.count());
            assert_eq!(left.sum(), other.sum());
            assert_eq!(left.min(), other.min());
            assert_eq!(left.max(), other.max());
            assert_eq!(
                left.to_json().to_string(),
                other.to_json().to_string(),
                "merge order changed the serialized histogram"
            );
        }
    }

    #[test]
    fn seeded_replay_is_deterministic() {
        // Recording the same seeded sample stream twice — even split
        // across a different number of per-thread sub-histograms —
        // serializes byte-identically.
        let samples: Vec<u64> = {
            let mut rng = Xoshiro256::seed_from_u64(42);
            (0..2_000).map(|_| rng.next_below(10_000_000)).collect()
        };
        let mut whole = Histogram::new();
        for &s in &samples {
            whole.record(s);
        }
        let mut merged = Histogram::new();
        for chunk in samples.chunks(123) {
            let mut part = Histogram::new();
            for &s in chunk {
                part.record(s);
            }
            merged.merge(&part);
        }
        assert_eq!(whole.to_json().to_string(), merged.to_json().to_string());
    }

    #[test]
    fn json_roundtrip_preserves_quantiles() {
        let mut h = Histogram::new();
        let mut rng = Xoshiro256::seed_from_u64(3);
        for _ in 0..1_000 {
            h.record(rng.next_below(1 << 40));
        }
        let doc = h.to_json();
        let back = Histogram::from_json(&doc).expect("roundtrips");
        assert_eq!(back.count(), h.count());
        assert_eq!(back.sum(), h.sum());
        assert_eq!(back.min(), h.min());
        assert_eq!(back.max(), h.max());
        for q in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(back.quantile(q), h.quantile(q));
        }
        assert_eq!(doc.to_string(), back.to_json().to_string());
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.quantile(0.99), 0);
        let back = Histogram::from_json(&h.to_json()).expect("empty roundtrips");
        assert_eq!(back.count(), 0);
    }

    #[test]
    fn quantile_bounds_bracket_the_true_rank_value() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, expected) in [(0.50, 50_000u64), (0.95, 95_000), (0.99, 99_000)] {
            let (lo, hi) = h.quantile_bounds(q);
            assert!(
                lo <= expected && expected <= hi,
                "q{q}: {expected} outside [{lo}, {hi}]"
            );
            assert_eq!(hi, h.quantile(q), "upper bound must equal quantile()");
            // The interval is at most one bucket wide: RELATIVE_ERROR
            // of the value, plus one for the half-open edge.
            assert!(
                (hi - lo) as f64 <= hi as f64 * RELATIVE_ERROR + 1.0,
                "q{q}: interval [{lo}, {hi}] wider than the error bound"
            );
        }
    }

    #[test]
    fn quantile_bounds_are_exact_on_unit_buckets_and_empty() {
        let mut h = Histogram::new();
        for v in 1..=50u64 {
            h.record(v);
        }
        assert_eq!(h.quantile_bounds(0.5), (25, 25));
        assert_eq!(h.quantile_bounds(1.0), (50, 50));
        assert_eq!(Histogram::new().quantile_bounds(0.99), (0, 0));
    }

    #[test]
    fn quantile_bounds_of_componentwise_smaller_samples_stay_consistent() {
        // Server-side wall time is a component of what a client times:
        // per sample, server <= client. The comparison the soak tests
        // make — server lower bound <= client upper bound at the same
        // quantile — must hold for any such pair of streams.
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut server = Histogram::new();
        let mut client = Histogram::new();
        for _ in 0..5_000 {
            let s = rng.next_below(40_000_000);
            let overhead = rng.next_below(3_000_000);
            server.record(s);
            client.record(s + overhead);
        }
        for q in [0.5, 0.9, 0.99] {
            let (s_lo, _) = server.quantile_bounds(q);
            let (_, c_hi) = client.quantile_bounds(q);
            assert!(
                s_lo <= c_hi,
                "q{q}: server lower bound {s_lo} exceeds client upper bound {c_hi}"
            );
        }
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(1.0) == u64::MAX);
        assert_eq!(h.sum(), u64::MAX); // saturated
    }
}
