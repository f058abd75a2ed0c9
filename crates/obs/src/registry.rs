//! Named counters and log-bucketed histograms.
//!
//! The registry replaces bespoke per-layer counter structs with a single
//! flat namespace (`layer.metric` by convention: `emmc.flash.programs`,
//! `ftl.map.read_lookups`, …). Producers intern a name once to get a cheap
//! [`CounterId`]/[`HistogramId`] handle, then update through the handle on
//! the hot path; convenience by-name methods exist for cold paths.
//! Registries from independent runs merge exactly (bucket counts are
//! integers), which is what makes per-shard replay aggregation sound.

use hps_core::hash::FxHashMap;

/// Exponent of the smallest distinguished histogram bucket edge
/// (`2^MIN_EXP` ≈ 1e-6 — microsecond-scale latencies in ms units).
const MIN_EXP: i32 = -20;
/// Exponent of the largest finite bucket edge (`2^MAX_EXP` ≈ 1.8e13).
const MAX_EXP: i32 = 44;
/// Bucket 0 is the underflow bucket (`v <= 2^MIN_EXP`), the last bucket
/// the overflow bucket (`v > 2^MAX_EXP`).
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize + 2;

/// A latency/size histogram with logarithmic (power-of-two) buckets.
///
/// Bucket `i` (for `1 <= i <= MAX_EXP-MIN_EXP`) covers
/// `(2^(MIN_EXP+i-1), 2^(MIN_EXP+i)]`; bucket 0 catches everything at or
/// below `2^MIN_EXP` (including zero and negatives), the last bucket
/// everything above `2^MAX_EXP`. Quantiles interpolate linearly within a
/// bucket and are clamped to the observed `[min, max]`.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: [u64; N_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        LogHistogram {
            counts: [0; N_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Number of buckets, including the underflow and overflow buckets.
    pub const fn n_buckets() -> usize {
        N_BUCKETS
    }

    /// The bucket a value falls into.
    pub fn bucket_index(v: f64) -> usize {
        if v.is_nan() || v <= 2f64.powi(MIN_EXP) {
            // Underflow bucket: zero, negatives, NaN, and tiny values.
            return 0;
        }
        let exp = v.log2().ceil() as i32;
        if exp > MAX_EXP {
            return N_BUCKETS - 1;
        }
        (exp - MIN_EXP).max(1) as usize
    }

    /// Inclusive upper edge of bucket `i`; infinite for the overflow
    /// bucket.
    pub fn bucket_upper_edge(i: usize) -> f64 {
        if i >= N_BUCKETS - 1 {
            f64::INFINITY
        } else {
            2f64.powi(MIN_EXP + i as i32)
        }
    }

    /// Records one observation. Non-finite values are ignored.
    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Raw bucket counts (underflow first, overflow last).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Approximate `q`-quantile (`q` clamped to `[0, 1]`); `None` when
    /// empty. Monotone non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Position of the target observation among `count` sorted samples.
        let pos = q * (self.count - 1) as f64;
        // The extremes are tracked exactly; interior quantiles interpolate
        // within a bucket (clamped to [min, max], so they stay between
        // these endpoints and monotonicity in `q` is preserved).
        if pos <= 0.0 {
            return Some(self.min);
        }
        if pos >= (self.count - 1) as f64 {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bucket_start = cum as f64;
            cum += c;
            if pos < cum as f64 || cum == self.count {
                // Interpolate within the bucket by rank.
                let frac = ((pos - bucket_start) / c as f64).clamp(0.0, 1.0);
                let lower = if i == 0 {
                    0.0
                } else {
                    Self::bucket_upper_edge(i - 1)
                };
                let upper = Self::bucket_upper_edge(i).min(self.max);
                let lower = lower.min(upper);
                let v = lower + (upper - lower) * frac;
                return Some(v.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds another histogram's observations into this one. Bucket counts
    /// merge exactly, so merging is associative and commutative up to
    /// floating-point summation of `sum`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistogramId(usize);

/// A counter or histogram stored in the registry.
///
/// The histogram is boxed so that counter-heavy registries don't pay the
/// histogram's ~560-byte footprint per entry.
#[derive(Clone, Debug)]
pub enum Metric {
    /// Monotonic event count.
    Counter(u64),
    /// Value distribution.
    Histogram(Box<LogHistogram>),
}

/// A flat namespace of counters and histograms.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: Vec<(String, Metric)>,
    index: FxHashMap<String, usize>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Interns `name` as a counter and returns its handle. Re-registering
    /// the same name returns the existing handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a histogram.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(&i) = self.index.get(name) {
            assert!(
                matches!(self.entries[i].1, Metric::Counter(_)),
                "metric {name:?} already registered as a histogram"
            );
            return CounterId(i);
        }
        let i = self.entries.len();
        self.entries.push((name.to_string(), Metric::Counter(0)));
        self.index.insert(name.to_string(), i);
        CounterId(i)
    }

    /// Interns `name` as a histogram and returns its handle.
    /// Re-registering the same name returns the existing handle.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(&i) = self.index.get(name) {
            assert!(
                matches!(self.entries[i].1, Metric::Histogram(_)),
                "metric {name:?} already registered as a counter"
            );
            return HistogramId(i);
        }
        let i = self.entries.len();
        self.entries
            .push((name.to_string(), Metric::Histogram(Box::default())));
        self.index.insert(name.to_string(), i);
        HistogramId(i)
    }

    /// Increments a counter through its handle.
    pub fn inc(&mut self, id: CounterId, by: u64) {
        match &mut self.entries[id.0].1 {
            Metric::Counter(v) => *v += by,
            Metric::Histogram(_) => unreachable!("CounterId always indexes a counter"),
        }
    }

    /// Records an observation through a histogram handle.
    pub fn observe(&mut self, id: HistogramId, v: f64) {
        match &mut self.entries[id.0].1 {
            Metric::Histogram(h) => h.observe(v),
            Metric::Counter(_) => unreachable!("HistogramId always indexes a histogram"),
        }
    }

    /// Folds a standalone histogram's observations into a registered
    /// histogram through its handle — the bulk counterpart of
    /// [`MetricsRegistry::observe`] for pre-accumulated data.
    pub fn merge_histogram(&mut self, id: HistogramId, other: &LogHistogram) {
        match &mut self.entries[id.0].1 {
            Metric::Histogram(h) => h.merge(other),
            Metric::Counter(_) => unreachable!("HistogramId always indexes a histogram"),
        }
    }

    /// By-name counter increment (interns on first use) — cold paths only.
    pub fn add(&mut self, name: &str, by: u64) {
        let id = self.counter(name);
        self.inc(id, by);
    }

    /// By-name histogram observation (interns on first use) — cold paths
    /// only.
    pub fn record(&mut self, name: &str, v: f64) {
        let id = self.histogram(name);
        self.observe(id, v);
    }

    /// Current value of a counter, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.index.get(name).map(|&i| &self.entries[i].1) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A histogram's current state, if registered.
    pub fn histogram_value(&self, name: &str) -> Option<&LogHistogram> {
        match self.index.get(name).map(|&i| &self.entries[i].1) {
            Some(Metric::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// All metrics, sorted by name.
    pub fn iter_sorted(&self) -> Vec<(&str, &Metric)> {
        let mut out: Vec<(&str, &Metric)> =
            self.entries.iter().map(|(n, m)| (n.as_str(), m)).collect();
        out.sort_by_key(|(n, _)| *n);
        out
    }

    /// Folds another registry into this one: counters add, histograms
    /// merge, names absent here are adopted.
    ///
    /// # Panics
    ///
    /// Panics if a name is a counter in one registry and a histogram in
    /// the other.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, metric) in &other.entries {
            match metric {
                Metric::Counter(v) => {
                    let id = self.counter(name);
                    self.inc(id, *v);
                }
                Metric::Histogram(h) => {
                    let id = self.histogram(name);
                    match &mut self.entries[id.0].1 {
                        Metric::Histogram(mine) => mine.merge(h),
                        Metric::Counter(_) => unreachable!(),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_the_line() {
        // Every value lands in exactly one bucket whose edges bracket it.
        for &v in &[0.0, 1e-9, 0.001, 0.5, 1.0, 1.5, 4.0, 1e6, 1e15] {
            let i = LogHistogram::bucket_index(v);
            let upper = LogHistogram::bucket_upper_edge(i);
            assert!(v <= upper, "{v} above its bucket edge {upper}");
            if i > 0 {
                let lower = LogHistogram::bucket_upper_edge(i - 1);
                assert!(v > lower, "{v} at or below the previous edge {lower}");
            }
        }
    }

    #[test]
    fn quantiles_bracket_observations() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.observe(i as f64 * 0.1);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 >= h.min().unwrap() && p50 <= h.max().unwrap());
        assert!(p99 >= p50);
        assert_eq!(h.quantile(0.0).unwrap(), h.min().unwrap());
        assert_eq!(h.quantile(1.0).unwrap(), h.max().unwrap());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_is_exact_on_counts() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..100 {
            a.observe(i as f64);
            b.observe((i * 7) as f64);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 200);
        for i in 0..LogHistogram::n_buckets() {
            assert_eq!(
                merged.bucket_counts()[i],
                a.bucket_counts()[i] + b.bucket_counts()[i]
            );
        }
    }

    #[test]
    fn registry_counters_and_histograms() {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("emmc.requests");
        let h = reg.histogram("emmc.response_ms");
        reg.inc(c, 3);
        reg.observe(h, 1.5);
        reg.add("emmc.requests", 2);
        reg.record("emmc.response_ms", 2.5);
        assert_eq!(reg.counter_value("emmc.requests"), Some(5));
        assert_eq!(reg.histogram_value("emmc.response_ms").unwrap().count(), 2);
        assert_eq!(reg.counter_value("missing"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x");
        reg.histogram("x");
    }

    #[test]
    fn registry_merge_adds_and_adopts() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("shared", 1);
        b.add("shared", 10);
        b.add("only-b", 4);
        b.record("hist", 2.0);
        a.merge(&b);
        assert_eq!(a.counter_value("shared"), Some(11));
        assert_eq!(a.counter_value("only-b"), Some(4));
        assert_eq!(a.histogram_value("hist").unwrap().count(), 1);
    }

    #[test]
    fn iter_sorted_is_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.add("z", 1);
        reg.add("a", 1);
        reg.add("m", 1);
        let names: Vec<&str> = reg.iter_sorted().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
