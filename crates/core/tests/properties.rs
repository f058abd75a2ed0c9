//! Property-based tests for the foundation types.

use hps_core::stats::quantile;
use hps_core::{Bytes, Histogram, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    #[test]
    fn bytes_div_ceil_covers(size in 1u64..1u64 << 40, unit_kib in 1u64..1024) {
        let size = Bytes::new(size);
        let unit = Bytes::kib(unit_kib);
        let pieces = size.div_ceil(unit);
        // Enough pieces to cover, but not one more than needed.
        prop_assert!(unit * pieces >= size);
        prop_assert!(unit * (pieces - 1) < size || pieces == 0);
    }

    #[test]
    fn bytes_round_up_is_aligned_and_minimal(size in 0u64..1u64 << 40, unit_kib in 1u64..1024) {
        let size = Bytes::new(size);
        let unit = Bytes::kib(unit_kib);
        let rounded = size.round_up_to(unit);
        prop_assert!(rounded >= size);
        prop_assert!(rounded.is_multiple_of(unit) || rounded.is_zero());
        prop_assert!(rounded.saturating_sub(size) < unit);
    }

    #[test]
    fn time_arithmetic_is_consistent(a_ns in 0u64..1u64 << 50, d_ns in 0u64..1u64 << 40) {
        let t = SimTime::from_ns(a_ns);
        let d = SimDuration::from_ns(d_ns);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
        prop_assert_eq!((t + d).saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
    }

    #[test]
    fn histogram_conserves_samples(samples in prop::collection::vec(0f64..1e4, 1..300)) {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0, 1000.0]);
        for &s in &samples {
            h.push(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        let sum: u64 = h.counts().iter().sum();
        prop_assert_eq!(sum, samples.len() as u64);
        let frac_sum: f64 = h.fractions().iter().sum();
        prop_assert!((frac_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_cumulative_is_monotone(samples in prop::collection::vec(0f64..1e4, 1..300)) {
        let edges = [1.0, 10.0, 100.0, 1000.0];
        let mut h = Histogram::new(&edges);
        for &s in &samples {
            h.push(s);
        }
        let mut prev = 0.0;
        for i in 0..edges.len() {
            let c = h.cumulative_fraction(i);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!(c <= 1.0 + 1e-12);
            prev = c;
        }
    }

    #[test]
    fn quantile_is_bounded_by_extremes(mut samples in prop::collection::vec(-1e6f64..1e6, 1..200), q in 0.0f64..=1.0) {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let v = quantile(&mut samples, q).unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn rng_weighted_index_in_range(seed in 0u64.., weights in prop::collection::vec(0.001f64..100.0, 1..20)) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            let i = rng.weighted_index(&weights);
            prop_assert!(i < weights.len());
        }
    }

    #[test]
    fn rng_streams_are_reproducible(seed in 0u64..) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..20 {
            prop_assert_eq!(a.uniform_u64(1 << 32), b.uniform_u64(1 << 32));
        }
    }

    #[test]
    fn lognormal_is_positive(seed in 0u64.., mean in 0.01f64..1e4, sigma in 0.0f64..3.0) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..20 {
            prop_assert!(rng.lognormal_with_mean(mean, sigma) > 0.0);
        }
    }
}
