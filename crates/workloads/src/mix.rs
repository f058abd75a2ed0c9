//! Per-device workload mix sampling for fleet simulation.
//!
//! A fleet run assigns each simulated phone its own application workload,
//! drawn from a weighted mix (2DIO's observation: per-device workload
//! variation is what population studies must model, not one canonical
//! trace). [`WorkloadMix`] is that distribution: a weighted list of
//! profile names, sampled with a caller-provided [`SimRng`] so device `i`
//! of a fleet draws the same workload on every run and at every job count.
//!
//! Sampling returns the *name* (plus its index in the mix), not a
//! regenerated trace: the fleet engine keys its memoized trace cache on
//! `(name, variant)`, so the thousands of devices that draw the same
//! workload share one materialized trace instead of regenerating it.

use crate::profiles::by_name;
use crate::AppProfile;
use hps_core::SimRng;

/// A weighted distribution over application workloads.
///
/// # Example
///
/// ```
/// use hps_core::SimRng;
/// use hps_workloads::WorkloadMix;
///
/// let mix = WorkloadMix::from_weights(&[("Twitter", 3.0), ("Email", 1.0)])
///     .expect("both are paper workloads");
/// let mut rng = SimRng::seed_from(7);
/// let (index, name) = mix.sample(&mut rng);
/// assert!(name == "Twitter" || name == "Email");
/// assert!(index < 2);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadMix {
    names: Vec<&'static str>,
    weights: Vec<f64>,
}

impl WorkloadMix {
    /// Builds a mix from `(workload name, weight)` pairs. Returns `None`
    /// if any name is unknown, the list is empty, or no weight is
    /// positive (mirroring what [`SimRng::weighted_index`] would reject).
    pub fn from_weights(entries: &[(&str, f64)]) -> Option<WorkloadMix> {
        if entries.is_empty() {
            return None;
        }
        let mut names = Vec::with_capacity(entries.len());
        for &(name, weight) in entries {
            // `is_finite` also rejects NaN, so `< 0.0` is a total check here.
            if weight < 0.0 || !weight.is_finite() {
                return None;
            }
            // Resolve through the canonical table so the stored name has
            // 'static lifetime and typos fail at spec-build time.
            names.push(by_name(name)?.name);
        }
        let weights: Vec<f64> = entries.iter().map(|&(_, w)| w).collect();
        // lint: allow(float-accum) -- fixed-order spec list; validation only
        if weights.iter().sum::<f64>() <= 0.0 {
            return None;
        }
        Some(WorkloadMix { names, weights })
    }

    /// Equal-weight mix over the given workload names.
    pub fn uniform(names: &[&str]) -> Option<WorkloadMix> {
        let entries: Vec<(&str, f64)> = names.iter().map(|&n| (n, 1.0)).collect();
        WorkloadMix::from_weights(&entries)
    }

    /// A representative smartphone mix: the heavy daily-driver apps the
    /// paper's combo analysis centers on, weighted toward the social and
    /// messaging workloads that dominate real usage.
    #[expect(
        clippy::expect_used,
        reason = "infallible by construction; every name is a paper workload"
    )]
    pub fn default_fleet() -> WorkloadMix {
        WorkloadMix::from_weights(&[
            ("Facebook", 3.0),
            ("Twitter", 3.0),
            ("Messaging", 2.0),
            ("WebBrowsing", 2.0),
            ("Email", 2.0),
            ("GoogleMaps", 1.0),
            ("YouTube", 1.0),
            ("Music", 1.0),
            ("CameraVideo", 1.0),
            ("AngryBirds", 1.0),
        ])
        .expect("default fleet mix uses only paper workload names")
    }

    /// Number of entries in the mix.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the mix has no entries (unreachable via constructors;
    /// kept for the idiomatic `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Workload names in mix order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Draws one workload: `(index into the mix, workload name)`.
    pub fn sample(&self, rng: &mut SimRng) -> (usize, &'static str) {
        let index = rng.weighted_index(&self.weights);
        (index, self.names[index])
    }

    /// Resolves entry `index` to its full profile.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[expect(
        clippy::expect_used,
        reason = "infallible by construction; names were resolved in from_weights"
    )]
    pub fn profile(&self, index: usize) -> AppProfile {
        by_name(self.names[index]).expect("mix names resolved at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_name_is_rejected() {
        assert!(WorkloadMix::from_weights(&[("NoSuchApp", 1.0)]).is_none());
        assert!(WorkloadMix::from_weights(&[]).is_none());
        assert!(WorkloadMix::from_weights(&[("Twitter", 0.0)]).is_none());
        assert!(WorkloadMix::from_weights(&[("Twitter", f64::NAN)]).is_none());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mix = WorkloadMix::default_fleet();
        let draws = |seed: u64| -> Vec<usize> {
            let mut rng = SimRng::seed_from(seed);
            (0..50).map(|_| mix.sample(&mut rng).0).collect()
        };
        assert_eq!(draws(11), draws(11));
        assert_ne!(draws(11), draws(12), "different seeds should diverge");
    }

    #[test]
    fn weights_shape_the_draw() {
        let mix =
            WorkloadMix::from_weights(&[("Twitter", 99.0), ("Email", 1.0)]).expect("valid mix");
        let mut rng = SimRng::seed_from(3);
        let twitter = (0..1000)
            .filter(|_| mix.sample(&mut rng).1 == "Twitter")
            .count();
        assert!(twitter > 900, "99:1 mix drew Twitter only {twitter}/1000");
    }

    #[test]
    fn profiles_resolve() {
        let mix = WorkloadMix::uniform(&["Movie", "Idle"]).expect("valid mix");
        assert_eq!(mix.len(), 2);
        assert_eq!(mix.profile(0).name, "Movie");
        assert_eq!(mix.names(), &["Movie", "Idle"]);
    }
}
