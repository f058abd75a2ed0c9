//! Fixed-edge histograms and quantiles.
//!
//! [`Histogram`] buckets samples against caller-supplied edges, which is
//! exactly how Figs. 4–6 categorize request sizes, response times, and
//! inter-arrival times; [`quantile`] interpolates between the order
//! statistics of a sample set.

/// A histogram over caller-supplied upper bucket edges.
///
/// A sample `x` falls in the first bucket whose edge satisfies `x <= edge`;
/// samples above the last edge land in an implicit overflow bucket. This is
/// the "smaller than or equal to 4 KB" bucketing convention of Fig. 4.
///
/// # Example
///
/// ```
/// use hps_core::Histogram;
///
/// let mut h = Histogram::new(&[4.0, 8.0, 16.0]);
/// for x in [2.0, 4.0, 5.0, 100.0] {
///     h.push(x);
/// }
/// assert_eq!(h.counts(), &[2, 1, 0, 1]); // last is overflow
/// assert!((h.fraction(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    edges: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending upper edges.
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty or not strictly ascending.
    pub fn new(edges: &[f64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        Histogram {
            edges: edges.to_vec(),
            counts: vec![0; edges.len() + 1],
            total: 0,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        let idx = self.edges.partition_point(|&e| e < x);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// The upper edges this histogram was built with.
    pub fn edges(&self) -> &[f64] {
        &self.edges
    }

    /// Per-bucket counts; the final element is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of samples in bucket `idx`; `0.0` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range (`edges().len() + 1` buckets exist).
    pub fn fraction(&self, idx: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[idx] as f64 / self.total as f64
        }
    }

    /// All bucket fractions, overflow last.
    pub fn fractions(&self) -> Vec<f64> {
        (0..self.counts.len()).map(|i| self.fraction(i)).collect()
    }

    /// Fraction of samples at or below `edge_idx`'s edge (cumulative).
    ///
    /// # Panics
    ///
    /// Panics if `edge_idx >= edges().len()`.
    pub fn cumulative_fraction(&self, edge_idx: usize) -> f64 {
        assert!(edge_idx < self.edges.len(), "edge index out of range");
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.counts[..=edge_idx].iter().sum();
        hits as f64 / self.total as f64
    }

    /// Merges another histogram with identical edges.
    ///
    /// # Panics
    ///
    /// Panics if the edges differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.edges, other.edges, "histogram edges must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Computes the `q`-quantile (0..=1) of a sample set by linear interpolation.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, q)
}

/// Linear-interpolated `q`-quantile of an already-sorted slice — the
/// allocation-free path for callers that keep a sorted sample buffer.
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_sorted(samples: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_is_inclusive_upper() {
        let mut h = Histogram::new(&[4.0, 8.0]);
        h.push(4.0);
        h.push(4.1);
        h.push(8.0);
        h.push(9.0);
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn histogram_cumulative() {
        let mut h = Histogram::new(&[1.0, 2.0, 3.0]);
        for x in [0.5, 1.5, 2.5, 3.5] {
            h.push(x);
        }
        assert!((h.cumulative_fraction(0) - 0.25).abs() < 1e-12);
        assert!((h.cumulative_fraction(2) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(&[10.0]);
        let mut b = Histogram::new(&[10.0]);
        a.push(5.0);
        b.push(15.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_edges() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn quantiles() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut v, 0.5), Some(2.5));
        assert_eq!(quantile(&mut [], 0.5), None);
    }
}
