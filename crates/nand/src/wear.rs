//! Wear statistics and wear-state distributions.
//!
//! Implication 4 of the paper argues that the weak localities of smartphone
//! workloads make a *simple* wear-leveling strategy sufficient. To evaluate
//! that claim the simulator records per-block erase counts; [`WearStats`]
//! summarizes them into the metrics the ablation benches report: max/mean
//! erase count and the max/mean ratio (a common wear-evenness indicator —
//! 1.0 is perfectly even).
//!
//! Fleet simulation additionally needs the *inverse* direction: start a
//! device mid-life instead of factory-fresh. [`WearProfile`] describes a
//! per-block pre-aging distribution whose draws are pure hashes of
//! `(seed, plane, block)` — no RNG stream is consumed, so injecting wear
//! is order-independent and byte-identical at any job count, the same
//! discipline as [`crate::faults`].

use crate::plane::Plane;
use core::fmt;

/// Summary of erase-count distribution across a set of blocks.
///
/// # Example
///
/// ```
/// use hps_nand::WearStats;
///
/// let stats = WearStats::from_counts([3, 5, 4, 4].into_iter());
/// assert_eq!(stats.max(), 5);
/// assert_eq!(stats.total(), 16);
/// assert!((stats.mean() - 4.0).abs() < 1e-12);
/// assert!((stats.evenness() - 1.25).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WearStats {
    blocks: u64,
    total: u64,
    max: u64,
    min: u64,
}

impl WearStats {
    /// Builds statistics from an iterator of per-block erase counts.
    pub fn from_counts<I: Iterator<Item = u64>>(counts: I) -> Self {
        let mut stats = WearStats {
            blocks: 0,
            total: 0,
            max: 0,
            min: u64::MAX,
        };
        for c in counts {
            stats.blocks += 1;
            stats.total += c;
            stats.max = stats.max.max(c);
            stats.min = stats.min.min(c);
        }
        if stats.blocks == 0 {
            stats.min = 0;
        }
        stats
    }

    /// Builds statistics over every block of the given planes.
    pub fn from_planes<'a, I: Iterator<Item = &'a Plane>>(planes: I) -> Self {
        Self::from_counts(planes.flat_map(|p| p.iter().map(|(_, b)| b.erase_count())))
    }

    /// Number of blocks observed.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Sum of all erase counts.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Highest per-block erase count.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Lowest per-block erase count.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Mean erase count; `0.0` when no blocks were observed.
    pub fn mean(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total as f64 / self.blocks as f64
        }
    }

    /// Max-to-mean ratio; `1.0` means perfectly even wear. Returns `1.0`
    /// when nothing has been erased yet.
    pub fn evenness(&self) -> f64 {
        let mean = self.mean();
        if mean == 0.0 {
            1.0
        } else {
            self.max as f64 / mean
        }
    }

    /// Exports the wear summary into a metrics registry under `prefix`
    /// (`<prefix>.blocks`, `.erases_total`, `.erases_max`, `.erases_min`).
    pub fn record_into(&self, registry: &mut hps_obs::MetricsRegistry, prefix: &str) {
        registry.add(&format!("{prefix}.blocks"), self.blocks);
        registry.add(&format!("{prefix}.erases_total"), self.total);
        registry.add(&format!("{prefix}.erases_max"), self.max);
        registry.add(
            &format!("{prefix}.erases_min"),
            if self.blocks == 0 { 0 } else { self.min },
        );
    }
}

/// A deterministic per-block pre-aging distribution: each block starts
/// with `mean_erases ± spread` prior erase cycles, drawn by hashing
/// `(seed, plane, block)` so the wear pattern is a pure function of
/// coordinates (no shared RNG stream, no ordering sensitivity).
///
/// # Example
///
/// ```
/// use hps_nand::wear::WearProfile;
///
/// let w = WearProfile { seed: 9, mean_erases: 500, spread: 100 };
/// let a = w.draw(0, 3);
/// assert_eq!(a, w.draw(0, 3), "draws are pure functions of coordinates");
/// assert!((400..=600).contains(&a));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WearProfile {
    /// Seed decorrelating this device's wear pattern from its neighbors'.
    pub seed: u64,
    /// Center of the per-block prior-erase distribution.
    pub mean_erases: u64,
    /// Half-width of the uniform band around the mean; draws land in
    /// `[mean - spread, mean + spread]` (clamped at zero below).
    pub spread: u64,
}

impl WearProfile {
    /// A factory-fresh profile: every block draws zero prior erases.
    pub const FRESH: WearProfile = WearProfile {
        seed: 0,
        mean_erases: 0,
        spread: 0,
    };

    /// Prior erase count for the block at `(plane, block)`.
    pub fn draw(&self, plane: usize, block: usize) -> u64 {
        if self.mean_erases == 0 && self.spread == 0 {
            return 0;
        }
        let lo = self.mean_erases.saturating_sub(self.spread);
        let width = (self.mean_erases + self.spread) - lo + 1;
        // splitmix64 finalizer over the packed coordinates: the same
        // pure-hash discipline as the fault model's draws.
        let x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((plane as u64) << 32 | block as u64);
        let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        lo + z % width
    }
}

impl fmt::Display for WearStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "erases: total={} mean={:.2} max={} min={} evenness={:.3}",
            self.total,
            self.mean(),
            self.max,
            self.min,
            self.evenness()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::Bytes;

    #[test]
    fn empty_is_neutral() {
        let s = WearStats::from_counts(std::iter::empty());
        assert_eq!(s.blocks(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.evenness(), 1.0);
        assert_eq!(s.min(), 0);
    }

    #[test]
    fn uniform_wear_is_perfectly_even() {
        let s = WearStats::from_counts([7, 7, 7].into_iter());
        assert_eq!(s.evenness(), 1.0);
        assert_eq!(s.min(), 7);
        assert_eq!(s.max(), 7);
    }

    #[test]
    fn wear_profile_draws_stay_in_band_and_vary() {
        let w = WearProfile {
            seed: 42,
            mean_erases: 1_000,
            spread: 250,
        };
        let mut distinct = std::collections::BTreeSet::new();
        for plane in 0..4 {
            for block in 0..64 {
                let d = w.draw(plane, block);
                assert!((750..=1250).contains(&d), "draw {d} out of band");
                distinct.insert(d);
            }
        }
        assert!(distinct.len() > 50, "draws should spread across the band");
        assert_eq!(WearProfile::FRESH.draw(3, 9), 0);
    }

    #[test]
    fn wear_profile_is_seed_sensitive() {
        let a = WearProfile {
            seed: 1,
            mean_erases: 100,
            spread: 100,
        };
        let b = WearProfile { seed: 2, ..a };
        let diverges = (0..32).any(|blk| a.draw(0, blk) != b.draw(0, blk));
        assert!(diverges, "different seeds must produce different patterns");
    }

    #[test]
    fn from_planes_walks_all_blocks() {
        let mut p = Plane::new(&[(Bytes::kib(4), 2)], 2);
        use crate::plane::BlockId;
        let pg = p.program_next(BlockId(0)).unwrap();
        p.invalidate(BlockId(0), pg);
        p.erase(BlockId(0));
        let s = WearStats::from_planes([&p].into_iter());
        assert_eq!(s.blocks(), 2);
        assert_eq!(s.total(), 1);
        assert_eq!(s.max(), 1);
        assert_eq!(s.min(), 0);
        assert_eq!(s.evenness(), 2.0);
    }
}
