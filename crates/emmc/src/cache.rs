//! The device's RAM write buffer.
//!
//! Real eMMC parts acknowledge writes once the data reaches a small on-die
//! RAM buffer; NAND programming drains the buffer in the background. This
//! is why the paper's Table IV shows millisecond-scale service times on the
//! real device while a 4 KiB NAND program takes 1.385 ms — and it is "the
//! RAM buffer layer" the paper explicitly *disables* for the Section V case
//! study so the page-size schemes are compared bare.
//!
//! [`WriteCache`] models the buffer as a byte-budget FIFO: each admitted
//! write occupies its size until its background flash programs complete;
//! a write that does not fit stalls until enough predecessors drain
//! (backpressure). Writes larger than the whole buffer bypass it
//! (write-through).

use hps_core::{Bytes, SimTime};
use std::collections::VecDeque;

/// A byte-budget write-back buffer with FIFO draining.
///
/// # Example
///
/// ```
/// use hps_core::{Bytes, SimTime};
/// use hps_emmc::cache::WriteCache;
///
/// let mut cache = WriteCache::new(Bytes::kib(8));
/// // A 4 KiB write admitted instantly; drains at t=10ms.
/// let ready = cache.admit(SimTime::ZERO, Bytes::kib(4), SimTime::from_ms(10));
/// assert_eq!(ready, Some(SimTime::ZERO));
/// // Another 4 KiB fills the buffer...
/// cache.admit(SimTime::ZERO, Bytes::kib(4), SimTime::from_ms(20));
/// // ...so the third must wait for the first to drain.
/// let ready = cache.admit(SimTime::ZERO, Bytes::kib(4), SimTime::from_ms(30));
/// assert_eq!(ready, Some(SimTime::from_ms(10)));
/// ```
#[derive(Clone, Debug)]
pub struct WriteCache {
    capacity: Bytes,
    /// `(drain_complete, bytes)` in admission order.
    entries: VecDeque<(SimTime, Bytes)>,
    used: Bytes,
    stalls: u64,
    bypasses: u64,
}

impl WriteCache {
    /// Creates an empty buffer of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: Bytes) -> Self {
        assert!(!capacity.is_zero(), "cache capacity must be non-zero");
        WriteCache {
            capacity,
            entries: VecDeque::new(),
            used: Bytes::ZERO,
            stalls: 0,
            bypasses: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently buffered (after draining everything that completed
    /// by the last `admit` call).
    pub fn used(&self) -> Bytes {
        self.used
    }

    /// Requests space for a `size`-byte write arriving at `now` whose
    /// background flash programs finish at `drain_at`.
    ///
    /// Returns `Some(t)` — the earliest time the buffer has room (`t == now`
    /// when it fits immediately) — or `None` when the write is larger than
    /// the whole buffer and must bypass it (the caller then completes it at
    /// flash speed, and nothing is buffered).
    pub fn admit(&mut self, now: SimTime, size: Bytes, drain_at: SimTime) -> Option<SimTime> {
        if size > self.capacity {
            self.bypasses += 1;
            return None;
        }
        self.evict_drained(now);
        let mut ready = now;
        while self.used + size > self.capacity {
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            let (t, b) = self
                .entries
                .pop_front()
                .expect("used > 0 whenever the new write does not fit");
            ready = ready.max(t);
            self.used -= b;
        }
        if ready > now {
            self.stalls += 1;
        }
        self.entries.push_back((drain_at, size));
        self.used += size;
        Some(ready)
    }

    /// Writes that had to wait for buffer space.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Writes that bypassed the buffer entirely.
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    fn evict_drained(&mut self, now: SimTime) {
        while let Some(&(t, b)) = self.entries.front() {
            if t <= now {
                self.entries.pop_front();
                self.used -= b;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_immediately_when_empty() {
        let mut c = WriteCache::new(Bytes::kib(64));
        let ready = c.admit(SimTime::from_ms(5), Bytes::kib(16), SimTime::from_ms(50));
        assert_eq!(ready, Some(SimTime::from_ms(5)));
        assert_eq!(c.used(), Bytes::kib(16));
        assert_eq!(c.stalls(), 0);
    }

    #[test]
    fn drained_entries_free_space() {
        let mut c = WriteCache::new(Bytes::kib(8));
        c.admit(SimTime::ZERO, Bytes::kib(8), SimTime::from_ms(10));
        // At t=20 the first entry has drained: room again, no stall.
        let ready = c.admit(SimTime::from_ms(20), Bytes::kib(8), SimTime::from_ms(30));
        assert_eq!(ready, Some(SimTime::from_ms(20)));
        assert_eq!(c.stalls(), 0);
    }

    #[test]
    fn backpressure_waits_for_fifo_drain() {
        let mut c = WriteCache::new(Bytes::kib(8));
        c.admit(SimTime::ZERO, Bytes::kib(4), SimTime::from_ms(10));
        c.admit(SimTime::ZERO, Bytes::kib(4), SimTime::from_ms(20));
        // Needs 8 KiB: must wait for BOTH entries.
        let ready = c.admit(SimTime::ZERO, Bytes::kib(8), SimTime::from_ms(30));
        assert_eq!(ready, Some(SimTime::from_ms(20)));
        assert_eq!(c.stalls(), 1);
        assert_eq!(c.used(), Bytes::kib(8));
    }

    #[test]
    fn oversized_writes_bypass() {
        let mut c = WriteCache::new(Bytes::kib(8));
        assert_eq!(
            c.admit(SimTime::ZERO, Bytes::kib(16), SimTime::from_ms(9)),
            None
        );
        assert_eq!(c.bypasses(), 1);
        assert_eq!(c.used(), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = WriteCache::new(Bytes::ZERO);
    }
}
