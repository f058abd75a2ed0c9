//! Address models with tunable spatial and temporal locality.
//!
//! Table IV publishes two locality numbers per trace, defined in Section
//! III-C: spatial locality is the fraction of requests that start exactly
//! where the previous request ended; temporal locality is the fraction
//! whose starting address was accessed before. [`AddressModel`] generates
//! addresses by a three-way choice — sequential continuation, re-access of
//! an earlier request's address, or a fresh never-touched address — and
//! keeps both measured statistics on target with closed-loop control:
//!
//! * the model tracks every page it has covered, so "fresh" draws are
//!   *guaranteed* misses (a bump pointer walks virgin territory) and
//!   re-accesses are *guaranteed* hits;
//! * sequential continuations sometimes land on covered pages as a side
//!   effect (e.g. the successor of a re-accessed region); the controller
//!   measures the actual hit rate and steers the explicit re-access
//!   probability to compensate, so the generated trace's localities match
//!   the table to within sampling noise.

use hps_core::{Bytes, SimRng};

/// A set of 4 KiB page numbers: one bit per page, plus the count of
/// distinct members. The bitmap starts zeroed over the footprint and grows
/// when a member lies past it (a re-accessed start address near the
/// footprint's end, with a larger request size than before).
#[derive(Clone, Debug)]
struct PageSet {
    words: Vec<u64>,
    len: u64,
}

impl PageSet {
    /// An empty set with room for pages `0..pages` before it grows.
    fn with_pages(pages: u64) -> Self {
        PageSet {
            words: vec![0; pages.div_ceil(64) as usize],
            len: 0,
        }
    }

    fn contains(&self, page: u64) -> bool {
        self.words
            .get((page / 64) as usize)
            .is_some_and(|w| (w >> (page % 64)) & 1 == 1)
    }

    fn insert(&mut self, page: u64) {
        let word = (page / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1 << (page % 64);
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Distinct pages in the set.
    fn len(&self) -> u64 {
        self.len
    }
}

/// Stateful address generator for one application stream.
#[derive(Clone, Debug)]
pub struct AddressModel {
    /// Target unconditional probability of a sequential continuation.
    p_seq: f64,
    /// Target unconditional probability of an address re-access.
    p_reuse: f64,
    /// Addressable footprint in bytes (addresses are < footprint).
    footprint: Bytes,
    /// End address of the previous request.
    last_end: u64,
    /// Starting addresses of earlier requests (re-access candidates).
    history: Vec<u64>,
    /// Cap on history length (memory bound; re-accesses favour recency).
    history_cap: usize,
    /// Bump pointer for fresh addresses; always past every covered page.
    next_fresh: u64,
    /// Every 4 KiB page touched so far (the measurement's ground truth).
    covered: PageSet,
    /// Requests generated.
    total: u64,
    /// Requests that were sequential continuations.
    seq_count: u64,
    /// Requests whose starting page was already covered (temporal hits).
    hit_count: u64,
}

impl AddressModel {
    /// Creates a model targeting `spatial_pct` spatial and `temporal_pct`
    /// temporal locality (Table IV percentages) over a `footprint`-byte
    /// region.
    ///
    /// # Panics
    ///
    /// Panics if percentages are outside `[0, 100]`, their sum exceeds 100,
    /// or the footprint is smaller than 1 MiB.
    pub fn new(spatial_pct: f64, temporal_pct: f64, footprint: Bytes) -> Self {
        assert!(
            (0.0..=100.0).contains(&spatial_pct),
            "spatial pct out of range"
        );
        assert!(
            (0.0..=100.0).contains(&temporal_pct),
            "temporal pct out of range"
        );
        assert!(
            spatial_pct + temporal_pct <= 100.0,
            "locality targets exceed 100%"
        );
        assert!(
            footprint >= Bytes::mib(1),
            "footprint must be at least 1 MiB"
        );
        AddressModel {
            p_seq: spatial_pct / 100.0,
            p_reuse: temporal_pct / 100.0,
            footprint,
            last_end: 0,
            history: Vec::new(),
            history_cap: 4096,
            next_fresh: 0,
            covered: PageSet::with_pages(footprint.as_u64() / 4096),
            total: 0,
            seq_count: 0,
            hit_count: 0,
        }
    }

    /// Draws the starting address for a request of `size` bytes and
    /// advances the model state.
    pub fn sample(&mut self, rng: &mut SimRng, size: Bytes) -> u64 {
        let max_start_page = (self.footprint.as_u64().saturating_sub(size.as_u64())) / 4096;
        let have_history = !self.history.is_empty();

        // Closed-loop steering with gain: p_eff = target − k·(measured −
        // target). A high gain squeezes the equilibrium bias from
        // incidental hits (sequential successors landing on covered pages)
        // down to noise level.
        const GAIN: f64 = 8.0;
        let total = self.total.max(1) as f64;
        let seq_measured = self.seq_count as f64 / total;
        let hit_measured = self.hit_count as f64 / total;
        let p_seq_eff = (self.p_seq - GAIN * (seq_measured - self.p_seq)).clamp(0.0, 1.0);
        let p_hit_eff = (self.p_reuse - GAIN * (hit_measured - self.p_reuse)).clamp(0.0, 1.0);
        // The reuse branch is only reached when not sequential.
        let p_reuse_cond = if p_seq_eff >= 1.0 {
            0.0
        } else {
            (p_hit_eff / (1.0 - p_seq_eff)).clamp(0.0, 1.0)
        };

        let mut is_seq = false;
        let start = if have_history && rng.chance(p_seq_eff) {
            is_seq = true;
            if self.last_end / 4096 <= max_start_page {
                self.last_end
            } else {
                0 // wrapped at the footprint edge; still "sequential intent"
            }
        } else if have_history && rng.chance(p_reuse_cond) {
            *rng.pick(&self.history)
        } else {
            self.fresh_address(rng, max_start_page)
        };

        // Account against the *measured* definitions.
        if is_seq {
            self.seq_count += 1;
        }
        if self.covered.contains(start / 4096) {
            self.hit_count += 1;
        }
        self.total += 1;

        self.last_end = start + size.as_u64();
        self.next_fresh = self.next_fresh.max(self.last_end);
        let pages = size.div_ceil(Bytes::kib(4));
        for p in 0..pages {
            self.covered.insert(start / 4096 + p);
        }
        if self.history.len() == self.history_cap {
            let slot = rng.uniform_u64(self.history_cap as u64) as usize;
            self.history[slot] = start;
        } else {
            self.history.push(start);
        }
        start
    }

    /// A never-covered starting address: bump pointer plus a random 1–64
    /// page stride, wrapping at the footprint edge (and skipping covered
    /// pages after a wrap).
    fn fresh_address(&mut self, rng: &mut SimRng, max_start_page: u64) -> u64 {
        let stride_pages = rng.uniform_range(1, 64);
        let mut page = self.next_fresh / 4096 + stride_pages;
        if page > max_start_page {
            page = 0;
        }
        // After a wrap the low region is covered; skip forward, at most one
        // pass around the ring — and not at all once the whole footprint is
        // covered (then truly fresh pages no longer exist).
        if self.covered.len() <= max_start_page {
            let mut scanned = 0u64;
            while self.covered.contains(page) && scanned <= max_start_page {
                page += 1;
                scanned += 1;
                if page > max_start_page {
                    page = 0;
                }
            }
        }
        let addr = page * 4096;
        self.next_fresh = addr;
        addr
    }

    /// The configured footprint.
    pub fn footprint(&self) -> Bytes {
        self.footprint
    }

    /// Measured temporal locality so far, in percent.
    pub fn measured_temporal_pct(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            100.0 * self.hit_count as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Direction, IoRequest, SimTime};
    use hps_trace::{stats, Trace};
    use std::collections::BTreeSet;

    fn run_trace(spatial: f64, temporal: f64, n: usize) -> Trace {
        let mut model = AddressModel::new(spatial, temporal, Bytes::gib(1));
        let mut rng = SimRng::seed_from(11);
        let mut trace = Trace::new("addr");
        for i in 0..n {
            let size = Bytes::kib(4);
            let lba = model.sample(&mut rng, size);
            trace.push_request(IoRequest::new(
                i as u64,
                SimTime::from_ms(i as u64),
                Direction::Write,
                size,
                lba,
            ));
        }
        trace
    }

    #[test]
    fn measured_spatial_locality_matches_target() {
        let trace = run_trace(30.0, 20.0, 20_000);
        let measured = stats::spatial_locality(&trace);
        assert!((measured - 30.0).abs() < 2.0, "spatial {measured}");
    }

    #[test]
    fn measured_temporal_locality_matches_target() {
        let trace = run_trace(25.0, 40.0, 20_000);
        let measured = stats::temporal_locality(&trace);
        assert!((measured - 40.0).abs() < 2.0, "temporal {measured}");
    }

    #[test]
    fn mixed_sizes_still_match_targets() {
        let mut model = AddressModel::new(22.0, 45.0, Bytes::gib(2));
        let mut rng = SimRng::seed_from(13);
        let mut trace = Trace::new("mixed");
        for i in 0..20_000u64 {
            let size = Bytes::kib(*rng.pick(&[4u64, 8, 16, 64]));
            let lba = model.sample(&mut rng, size);
            trace.push_request(IoRequest::new(
                i,
                SimTime::from_ms(i),
                Direction::Write,
                size,
                lba,
            ));
        }
        let sp = stats::spatial_locality(&trace);
        let tp = stats::temporal_locality(&trace);
        assert!((sp - 22.0).abs() < 2.0, "spatial {sp}");
        assert!((tp - 45.0).abs() < 2.0, "temporal {tp}");
    }

    #[test]
    fn zero_locality_is_mostly_random() {
        let trace = run_trace(0.0, 0.0, 10_000);
        assert!(stats::spatial_locality(&trace) < 1.0);
        assert!(stats::temporal_locality(&trace) < 1.0);
    }

    #[test]
    fn internal_counters_agree_with_external_measurement() {
        let mut model = AddressModel::new(20.0, 30.0, Bytes::gib(1));
        let mut rng = SimRng::seed_from(17);
        let mut trace = Trace::new("agree");
        for i in 0..5_000u64 {
            let size = Bytes::kib(4);
            let lba = model.sample(&mut rng, size);
            trace.push_request(IoRequest::new(
                i,
                SimTime::from_ms(i),
                Direction::Write,
                size,
                lba,
            ));
        }
        assert!((model.measured_temporal_pct() - stats::temporal_locality(&trace)).abs() < 1e-9);
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let mut model = AddressModel::new(20.0, 20.0, Bytes::mib(64));
        let mut rng = SimRng::seed_from(5);
        for _ in 0..10_000 {
            let size = Bytes::kib(64);
            let lba = model.sample(&mut rng, size);
            assert!(lba + size.as_u64() <= Bytes::mib(64).as_u64());
            assert_eq!(lba % 4096, 0, "4 KiB aligned");
        }
    }

    #[test]
    fn history_is_bounded() {
        let mut model = AddressModel::new(0.0, 50.0, Bytes::gib(1));
        let mut rng = SimRng::seed_from(6);
        for _ in 0..10_000 {
            model.sample(&mut rng, Bytes::kib(4));
        }
        assert!(model.history.len() <= model.history_cap);
    }

    #[test]
    fn covered_count_includes_pages_past_the_footprint() {
        // Small requests spread start addresses over a 1 MiB footprint;
        // re-accessing the late ones with 512 KiB reaches past its end.
        let footprint = Bytes::mib(1);
        let mut model = AddressModel::new(10.0, 40.0, footprint);
        let mut rng = SimRng::seed_from(3);
        let mut pages = BTreeSet::new();
        for i in 0..80 {
            let size = Bytes::kib(if i < 40 { 4 } else { 512 });
            let start = model.sample(&mut rng, size);
            pages.extend((0..size.div_ceil(Bytes::kib(4))).map(|p| start / 4096 + p));
        }
        let footprint_pages = footprint.as_u64() / 4096;
        let past = pages.iter().filter(|&&p| p >= footprint_pages).count();
        assert!(past > 0, "no page past the footprint");
        assert_eq!(model.covered.len(), pages.len() as u64);
        for p in 0..2 * footprint_pages {
            assert_eq!(model.covered.contains(p), pages.contains(&p), "page {p}");
        }
    }

    #[test]
    #[should_panic(expected = "exceed 100%")]
    fn inconsistent_targets_panic() {
        let _ = AddressModel::new(60.0, 60.0, Bytes::gib(1));
    }
}
