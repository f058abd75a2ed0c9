//! SLC-mode write buffer — Implication 5 of the paper.
//!
//! "One feasible way to better serve these small requests is to use SLC
//! flash … an MLC flash cell can work in the SLC mode by selectively using
//! its fast pages, and thus, obtains an SLC-like performance. Thus, the
//! performance gain is achieved at the cost of 50% capacity loss."
//!
//! This module models that design (ComboFTL-style): a region of blocks
//! operated in SLC mode absorbs *small* writes at SLC program speed; the
//! data migrates to the regular MLC pools in the background. The buffer is
//! finite — when small writes outrun the migration drain, admission stalls
//! and the device degrades to MLC speed (the capacity/performance trade
//! the paper describes).
//!
//! The mechanics reuse the byte-budget drain model of
//! [`crate::cache::WriteCache`]: an admitted write occupies SLC space until
//! its background MLC programs complete.

use crate::cache::WriteCache;
use hps_core::{Bytes, SimDuration, SimTime};

/// Configuration of the SLC-mode region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlcConfig {
    /// Usable SLC capacity. Remember the paper's cost model: every SLC
    /// byte displaces two MLC bytes of raw flash.
    pub capacity: Bytes,
    /// SLC-mode page program latency (fast pages; Micron MLC parts program
    /// their fast pages in roughly a third of the full-page time).
    pub program: SimDuration,
    /// Largest request the SLC region absorbs; bigger writes go straight
    /// to MLC (they are served efficiently by large pages already).
    pub max_request: Bytes,
}

impl SlcConfig {
    /// A Nexus-5-plausible configuration: 64 MiB SLC region, 450 µs
    /// program, absorbing requests up to 8 KiB (the paper's "small
    /// requests" plus one page of slack).
    pub const DEFAULT: SlcConfig = SlcConfig {
        capacity: Bytes::mib(64),
        program: SimDuration::from_us(450),
        max_request: Bytes::kib(8),
    };

    /// Raw MLC capacity sacrificed for this region (2× the SLC capacity —
    /// the "50% capacity loss" of Implication 5, scoped to the region).
    pub fn raw_capacity_cost(&self) -> Bytes {
        self.capacity * 2
    }
}

impl Default for SlcConfig {
    fn default() -> Self {
        SlcConfig::DEFAULT
    }
}

/// Runtime state of the SLC region.
#[derive(Clone, Debug)]
pub struct SlcBuffer {
    config: SlcConfig,
    /// Space/drain accounting (reuses the write-cache FIFO drain model).
    space: WriteCache,
    absorbed: u64,
    absorbed_bytes: Bytes,
}

impl SlcBuffer {
    /// Creates an empty SLC region.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero.
    pub fn new(config: SlcConfig) -> Self {
        SlcBuffer {
            space: WriteCache::new(config.capacity),
            config,
            absorbed: 0,
            absorbed_bytes: Bytes::ZERO,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> SlcConfig {
        self.config
    }

    /// `true` if this write should be absorbed by the SLC region.
    pub fn absorbs(&self, size: Bytes) -> bool {
        size <= self.config.max_request
    }

    /// Admits a small write arriving at `now` whose background MLC programs
    /// finish at `drain_at`. Returns the time the SLC region has space for
    /// it (`now` when it fits immediately; later under backpressure).
    ///
    /// # Panics
    ///
    /// Panics if the write is larger than [`SlcConfig::max_request`] — the
    /// caller must check [`SlcBuffer::absorbs`] first.
    pub fn admit(&mut self, now: SimTime, size: Bytes, drain_at: SimTime) -> SimTime {
        assert!(self.absorbs(size), "write too large for the SLC region");
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let ready = self
            .space
            .admit(now, size, drain_at)
            .expect("max_request <= capacity, so admission never bypasses");
        self.absorbed += 1;
        self.absorbed_bytes += size;
        ready
    }

    /// SLC program time for `size` bytes (per 4 KiB fast page, serialized —
    /// small writes are one or two pages).
    pub fn program_time(&self, size: Bytes) -> SimDuration {
        self.config.program * size.div_ceil(Bytes::kib(4))
    }

    /// Writes absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Bytes absorbed so far.
    pub fn absorbed_bytes(&self) -> Bytes {
        self.absorbed_bytes
    }

    /// Admissions that had to wait for the drain.
    pub fn stalls(&self) -> u64 {
        self.space.stalls()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SlcBuffer {
        SlcBuffer::new(SlcConfig {
            capacity: Bytes::kib(16),
            program: SimDuration::from_us(450),
            max_request: Bytes::kib(8),
        })
    }

    #[test]
    fn absorbs_only_small_requests() {
        let b = small();
        assert!(b.absorbs(Bytes::kib(4)));
        assert!(b.absorbs(Bytes::kib(8)));
        assert!(!b.absorbs(Bytes::kib(12)));
    }

    #[test]
    fn admission_is_immediate_with_space() {
        let mut b = small();
        let t = b.admit(SimTime::from_ms(3), Bytes::kib(4), SimTime::from_ms(10));
        assert_eq!(t, SimTime::from_ms(3));
        assert_eq!(b.absorbed(), 1);
        assert_eq!(b.absorbed_bytes(), Bytes::kib(4));
    }

    #[test]
    fn backpressure_when_drain_lags() {
        let mut b = small();
        // Fill 16 KiB with drains far in the future.
        b.admit(SimTime::ZERO, Bytes::kib(8), SimTime::from_ms(50));
        b.admit(SimTime::ZERO, Bytes::kib(8), SimTime::from_ms(90));
        // The next admission must wait for the first drain.
        let t = b.admit(SimTime::ZERO, Bytes::kib(8), SimTime::from_ms(120));
        assert_eq!(t, SimTime::from_ms(50));
        assert_eq!(b.stalls(), 1);
    }

    #[test]
    fn program_time_scales_per_page() {
        let b = small();
        assert_eq!(b.program_time(Bytes::kib(4)), SimDuration::from_us(450));
        assert_eq!(b.program_time(Bytes::kib(8)), SimDuration::from_us(900));
    }

    #[test]
    fn capacity_cost_is_double() {
        assert_eq!(SlcConfig::DEFAULT.raw_capacity_cost(), Bytes::mib(128));
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_admission_panics() {
        let mut b = small();
        b.admit(SimTime::ZERO, Bytes::kib(12), SimTime::from_ms(1));
    }
}
