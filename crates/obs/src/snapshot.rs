//! Mergeable, canonically serializable metric snapshots.
//!
//! [`MetricsSnapshot`] is the aggregation primitive fleet-scale replay
//! needs (ROADMAP items 1–2): capture one snapshot per shard/run, `merge`
//! them in any grouping, and the result is *byte-identical* to the
//! snapshot of an equivalent single run — counters add exactly in `u64`,
//! histogram bucket counts add exactly in `u64`, and min/max are exact
//! order statistics. The one non-associative quantity, a histogram's
//! floating-point `sum`, is deliberately excluded from the canonical
//! encoding (summation order differs between split and single runs), so
//! canonical bytes compare equal exactly when the distributions match.

use std::fmt::Write as _;

use crate::registry::{Metric, MetricsRegistry};

/// A point-in-time copy of a [`MetricsRegistry`] that merges
/// deterministically and serializes canonically.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    registry: MetricsRegistry,
}

impl MetricsSnapshot {
    /// An empty snapshot (the identity element of [`merge`]).
    ///
    /// [`merge`]: MetricsSnapshot::merge
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Copies the current state of a registry.
    pub fn capture(registry: &MetricsRegistry) -> Self {
        MetricsSnapshot {
            registry: registry.clone(),
        }
    }

    /// The snapshot's metrics.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Folds another snapshot into this one: counters add, histogram
    /// buckets add, absent names are adopted. Associative and commutative
    /// on everything the canonical encoding covers.
    ///
    /// # Panics
    ///
    /// Panics if a name is a counter in one snapshot and a histogram in
    /// the other (inherited from [`MetricsRegistry::merge`]).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.registry.merge(&other.registry);
    }

    /// Canonical byte encoding: one line per metric, sorted by name.
    ///
    /// * `counter <name> <value>`
    /// * `hist <name> n=<count> min=<f64 bits as hex> max=<bits>
    ///   buckets=<i>:<c>,...` (non-zero buckets only)
    ///
    /// Two snapshots encode identically iff their counters and histogram
    /// distributions (bucket counts, count, min, max) are identical; the
    /// float `sum` is excluded because summation order makes it
    /// non-associative under merging.
    #[expect(clippy::let_underscore_must_use, reason = "String writes cannot fail")]
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for (name, metric) in self.registry.iter_sorted() {
            match metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "counter {name} {v}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "hist {name} n={} min={:016x} max={:016x} buckets=",
                        h.count(),
                        h.min().unwrap_or(0.0).to_bits(),
                        h.max().unwrap_or(0.0).to_bits(),
                    );
                    let mut first = true;
                    for (i, &c) in h.bucket_counts().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push(',');
                        }
                        let _ = write!(out, "{i}:{c}");
                        first = false;
                    }
                    out.push('\n');
                }
            }
        }
        out.into_bytes()
    }
}

/// A streaming K-way tree merge of [`MetricsSnapshot`]s.
///
/// Feeding 100 000 per-device snapshots through a plain left fold works,
/// but every merge then touches an accumulator that has already absorbed
/// the whole fleet — the cost of merge *i* grows with the union of metric
/// names seen so far. The tree merger instead keeps one pending snapshot
/// per power-of-two level (a binary carry chain, like a binomial heap):
/// pushing snapshot `n` performs exactly as many merges as trailing one
/// bits in `n`, so the amortized merge depth is O(log n) and memory stays
/// flat at O(log n) snapshots regardless of fleet size.
///
/// Because [`MetricsSnapshot::merge`] is associative and commutative on
/// everything the canonical encoding covers, the tree shape is
/// unobservable: [`finish`](SnapshotTreeMerger::finish) is byte-identical
/// to a sequential fold in push order (pinned by proptest).
///
/// # Example
///
/// ```
/// use hps_obs::{MetricsRegistry, MetricsSnapshot, SnapshotTreeMerger};
///
/// let mut tree = SnapshotTreeMerger::new();
/// let mut seq = MetricsSnapshot::new();
/// for v in 1..=5u64 {
///     let mut reg = MetricsRegistry::new();
///     reg.add("reqs", v);
///     let snap = MetricsSnapshot::capture(&reg);
///     seq.merge(&snap);
///     tree.push(snap);
/// }
/// assert_eq!(tree.finish().canonical_bytes(), seq.canonical_bytes());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SnapshotTreeMerger {
    /// `levels[i]`, when present, aggregates exactly 2^i pushed snapshots.
    levels: Vec<Option<MetricsSnapshot>>,
    pushed: u64,
}

impl SnapshotTreeMerger {
    /// An empty merger.
    pub fn new() -> Self {
        SnapshotTreeMerger::default()
    }

    /// Number of snapshots pushed so far.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Absorbs one snapshot, carry-merging equal-weight partials.
    pub fn push(&mut self, snapshot: MetricsSnapshot) {
        let mut carry = snapshot;
        for level in self.levels.iter_mut() {
            match level.take() {
                None => {
                    *level = Some(carry);
                    self.pushed += 1;
                    return;
                }
                Some(mut resident) => {
                    // Merge into the older (resident) partial so the fold
                    // order matches a sequential left fold exactly.
                    resident.merge(&carry);
                    carry = resident;
                }
            }
        }
        self.levels.push(Some(carry));
        self.pushed += 1;
    }

    /// Merges the remaining partials (oldest last, preserving left-fold
    /// order) into the final aggregate.
    pub fn finish(self) -> MetricsSnapshot {
        let mut acc: Option<MetricsSnapshot> = None;
        // Highest level holds the oldest pushes; fold downward so the
        // result is the same left fold a sequential merge would produce.
        for level in self.levels.into_iter().rev().flatten() {
            match acc.as_mut() {
                None => acc = Some(level),
                Some(a) => a.merge(&level),
            }
        }
        acc.unwrap_or_default()
    }
}

/// Tree-merges any number of snapshots; byte-identical to folding them
/// sequentially in iteration order. See [`SnapshotTreeMerger`].
pub fn merge_all(shards: impl IntoIterator<Item = MetricsSnapshot>) -> MetricsSnapshot {
    let mut tree = SnapshotTreeMerger::new();
    for shard in shards {
        tree.push(shard);
    }
    tree.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(pairs: &[(&str, u64)], samples: &[(&str, f64)]) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for &(name, v) in pairs {
            reg.add(name, v);
        }
        for &(name, s) in samples {
            reg.record(name, s);
        }
        MetricsSnapshot::capture(&reg)
    }

    #[test]
    fn merge_of_shards_matches_single_run() {
        let mut merged = shard(&[("reqs", 3)], &[("lat", 1.5), ("lat", 9.0)]);
        merged.merge(&shard(&[("reqs", 4), ("gc", 1)], &[("lat", 0.25)]));
        let single = shard(
            &[("reqs", 7), ("gc", 1)],
            &[("lat", 1.5), ("lat", 9.0), ("lat", 0.25)],
        );
        assert_eq!(merged.canonical_bytes(), single.canonical_bytes());
    }

    #[test]
    fn canonical_bytes_ignore_insertion_order() {
        let a = shard(&[("a", 1), ("z", 2)], &[("h", 4.0)]);
        let mut reg = MetricsRegistry::new();
        reg.record("h", 4.0);
        reg.add("z", 2);
        reg.add("a", 1);
        let b = MetricsSnapshot::capture(&reg);
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn distinct_distributions_encode_differently() {
        let a = shard(&[], &[("h", 1.0)]);
        let b = shard(&[], &[("h", 1024.0)]);
        assert_ne!(a.canonical_bytes(), b.canonical_bytes());
    }

    #[test]
    fn empty_snapshot_is_merge_identity() {
        let mut a = shard(&[("c", 5)], &[("h", 2.0)]);
        let before = a.canonical_bytes();
        a.merge(&MetricsSnapshot::new());
        assert_eq!(a.canonical_bytes(), before);
    }

    fn numbered(i: u64) -> MetricsSnapshot {
        shard(
            &[("reqs", i + 1), ("gc", i % 3)],
            &[("lat", (i % 17) as f64 + 0.5)],
        )
    }

    #[test]
    fn tree_merge_matches_sequential_fold() {
        for n in [0u64, 1, 2, 3, 7, 8, 31, 100] {
            let mut tree = SnapshotTreeMerger::new();
            let mut seq = MetricsSnapshot::new();
            for i in 0..n {
                seq.merge(&numbered(i));
                tree.push(numbered(i));
            }
            assert_eq!(tree.pushed(), n);
            assert_eq!(
                tree.finish().canonical_bytes(),
                seq.canonical_bytes(),
                "tree merge diverged at n={n}"
            );
        }
    }

    #[test]
    fn tree_merge_memory_is_logarithmic() {
        let mut tree = SnapshotTreeMerger::new();
        for i in 0..1024u64 {
            tree.push(numbered(i));
        }
        assert!(
            tree.levels.len() <= 11,
            "1024 pushes must hold at most ~log2(n)+1 partials, got {}",
            tree.levels.len()
        );
    }

    #[test]
    fn merge_all_helper_agrees() {
        let snaps: Vec<MetricsSnapshot> = (0..13).map(numbered).collect();
        let mut seq = MetricsSnapshot::new();
        for s in &snaps {
            seq.merge(s);
        }
        assert_eq!(merge_all(snaps).canonical_bytes(), seq.canonical_bytes());
    }
}
