//! The request distributor (Section V of the paper).
//!
//! The distributor splits a block-level request into page-sized chunks
//! according to the device's scheme. The paper's example: a 20 KiB write
//!
//! * on **HPS** becomes two 8 KiB sub-requests plus one 4 KiB sub-request
//!   (24 KiB moved, 0 wasted);
//! * on **8PS** becomes three 8 KiB sub-requests (24 KiB consumed, 4 KiB
//!   wasted);
//! * on **4PS** becomes five 4 KiB sub-requests (no waste, but five slow
//!   4 KiB programs).

use crate::scheme::SchemeKind;
use hps_core::scratch::InlineVec;
use hps_core::{Bytes, IoRequest};
use hps_ftl::Lpn;

/// One page-sized piece of a request: which LPNs it covers, the physical
/// page size it targets, and how much real payload it carries (`data` <
/// `page_size` only for padded tails on 8PS).
///
/// The LPN list lives inline (a physical page hosts at most two logical
/// pages), so a `Chunk` is a plain `Copy`-free value with no heap
/// footprint — the replay hot path reuses a scratch `Vec<Chunk>` across
/// requests without per-chunk allocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Chunk {
    /// The logical pages stored in this physical page (1 or 2).
    pub lpns: InlineVec<Lpn, 2>,
    /// Target physical page size.
    pub page_size: Bytes,
    /// True payload bytes (for space accounting).
    pub data: Bytes,
}

impl Chunk {
    fn single(lpn: Lpn, page_size: Bytes, data: Bytes) -> Self {
        Chunk {
            lpns: InlineVec::from_slice(&[lpn]),
            page_size,
            data,
        }
    }

    fn pair(first: Lpn, page_size: Bytes, data: Bytes) -> Self {
        Chunk {
            lpns: InlineVec::from_slice(&[first, Lpn(first.0 + 1)]),
            page_size,
            data,
        }
    }
}

/// Splits a request into chunks for the given scheme.
///
/// The request's `lba` is truncated to its containing 4 KiB page and the
/// size is rounded up to whole pages, mirroring the file-system alignment
/// the paper observes ("all the request sizes are aligned to flash page
/// size at file system level").
///
/// # Example
///
/// ```
/// use hps_core::{Bytes, Direction, IoRequest, SimTime};
/// use hps_emmc::{split_request, SchemeKind};
///
/// let req = IoRequest::new(0, SimTime::ZERO, Direction::Write, Bytes::kib(20), 0);
/// assert_eq!(split_request(&req, SchemeKind::Hps).len(), 3); // 8+8+4
/// assert_eq!(split_request(&req, SchemeKind::Ps8).len(), 3); // 8+8+8 (4 wasted)
/// assert_eq!(split_request(&req, SchemeKind::Ps4).len(), 5); // 4×5
/// ```
pub fn split_request(request: &IoRequest, scheme: SchemeKind) -> Vec<Chunk> {
    // Allocating wrapper; the hot path uses `split_request_into`.
    let mut chunks = Vec::new();
    split_request_into(request, scheme, &mut chunks);
    chunks
}

/// Like [`split_request`], but appends into a caller-owned buffer so the
/// replay hot path can reuse one allocation across requests. The buffer
/// is *not* cleared first.
pub fn split_request_into(request: &IoRequest, scheme: SchemeKind, out: &mut Vec<Chunk>) {
    let first_lpn = Lpn::from_lba(request.lba);
    let pages = request.size.div_ceil(Bytes::kib(4));
    split_lpn_run_into(first_lpn, pages, scheme, out);
}

/// Splits a run of `pages` consecutive LPNs starting at `first` into chunks.
pub fn split_lpn_run(first: Lpn, pages: u64, scheme: SchemeKind) -> Vec<Chunk> {
    let mut chunks = Vec::with_capacity((pages as usize).div_ceil(2));
    split_lpn_run_into(first, pages, scheme, &mut chunks);
    chunks
}

/// Like [`split_lpn_run`], but appends into a caller-owned buffer (not
/// cleared first); the allocation-free path for warm replay loops.
pub fn split_lpn_run_into(first: Lpn, pages: u64, scheme: SchemeKind, chunks: &mut Vec<Chunk>) {
    // Every request-to-chunk split funnels through this loop.
    let _prof = hps_obs::profile::phase(hps_obs::Phase::Split);
    let mut lpn = first;
    let mut remaining = pages;
    let k4 = Bytes::kib(4);
    let k8 = Bytes::kib(8);
    while remaining > 0 {
        match scheme {
            SchemeKind::Ps4 => {
                chunks.push(Chunk::single(lpn, k4, k4));
                lpn = Lpn(lpn.0 + 1);
                remaining -= 1;
            }
            SchemeKind::Ps8 => {
                if remaining >= 2 {
                    chunks.push(Chunk::pair(lpn, k8, k8));
                    lpn = Lpn(lpn.0 + 2);
                    remaining -= 2;
                } else {
                    // Lone 4 KiB tail padded into an 8 KiB page: half wasted.
                    chunks.push(Chunk::single(lpn, k8, k4));
                    lpn = Lpn(lpn.0 + 1);
                    remaining -= 1;
                }
            }
            SchemeKind::Hps => {
                if remaining >= 2 {
                    chunks.push(Chunk::pair(lpn, k8, k8));
                    lpn = Lpn(lpn.0 + 2);
                    remaining -= 2;
                } else {
                    // The hybrid advantage: the tail gets a right-sized page.
                    chunks.push(Chunk::single(lpn, k4, k4));
                    lpn = Lpn(lpn.0 + 1);
                    remaining -= 1;
                }
            }
        }
    }
}

/// Total flash bytes the chunks consume (page sizes summed).
pub fn flash_consumed(chunks: &[Chunk]) -> Bytes {
    chunks.iter().map(|c| c.page_size).sum()
}

/// Total payload bytes the chunks carry.
pub fn data_carried(chunks: &[Chunk]) -> Bytes {
    chunks.iter().map(|c| c.data).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Direction, SimTime};

    fn req(kib: u64, lba: u64) -> IoRequest {
        IoRequest::new(0, SimTime::ZERO, Direction::Write, Bytes::kib(kib), lba)
    }

    #[test]
    fn paper_example_20k() {
        // Section V: a 20 KiB write.
        let r = req(20, 0);

        let hps = split_request(&r, SchemeKind::Hps);
        assert_eq!(
            hps.iter().map(|c| c.page_size.as_kib()).collect::<Vec<_>>(),
            vec![8, 8, 4]
        );
        assert_eq!(flash_consumed(&hps), Bytes::kib(20), "HPS wastes nothing");

        let ps8 = split_request(&r, SchemeKind::Ps8);
        assert_eq!(flash_consumed(&ps8), Bytes::kib(24), "8PS wastes 4 KiB");
        assert_eq!(data_carried(&ps8), Bytes::kib(20));
        // Space utilization 20/24 = 83.3%, the paper's number.
        let util = data_carried(&ps8).as_u64() as f64 / flash_consumed(&ps8).as_u64() as f64;
        assert!((util - 20.0 / 24.0).abs() < 1e-12);

        let ps4 = split_request(&r, SchemeKind::Ps4);
        assert_eq!(ps4.len(), 5);
        assert_eq!(flash_consumed(&ps4), Bytes::kib(20));
    }

    #[test]
    fn small_4k_request_per_scheme() {
        let r = req(4, 4096);
        let hps = split_request(&r, SchemeKind::Hps);
        assert_eq!(hps.len(), 1);
        assert_eq!(
            hps[0].page_size,
            Bytes::kib(4),
            "HPS serves 4K in a 4K page"
        );
        let ps8 = split_request(&r, SchemeKind::Ps8);
        assert_eq!(ps8[0].page_size, Bytes::kib(8), "8PS pads");
        assert_eq!(ps8[0].data, Bytes::kib(4));
    }

    #[test]
    fn lpns_are_consecutive_and_cover_request() {
        let r = req(24, 8192); // LPNs 2..8
        for scheme in SchemeKind::ALL {
            let chunks = split_request(&r, scheme);
            let lpns: Vec<u64> = chunks
                .iter()
                .flat_map(|c| c.lpns.iter().map(|l| l.0))
                .collect();
            assert_eq!(lpns, (2..8).collect::<Vec<_>>(), "{scheme}");
        }
    }

    #[test]
    fn unaligned_lba_truncates_to_page() {
        let r = req(4, 5000); // inside LPN 1
        let chunks = split_request(&r, SchemeKind::Ps4);
        assert_eq!(chunks[0].lpns, vec![Lpn(1)]);
    }

    #[test]
    fn unaligned_size_rounds_up() {
        let r = IoRequest::new(0, SimTime::ZERO, Direction::Write, Bytes::new(5000), 0);
        let chunks = split_request(&r, SchemeKind::Ps4);
        assert_eq!(chunks.len(), 2, "5000 bytes spans two 4 KiB pages");
    }

    #[test]
    fn pair_chunks_hold_adjacent_lpns() {
        let chunks = split_lpn_run(Lpn(10), 2, SchemeKind::Hps);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].lpns, vec![Lpn(10), Lpn(11)]);
    }

    #[test]
    fn large_request_chunk_counts() {
        // 1 MiB = 256 pages.
        let r = req(1024, 0);
        assert_eq!(split_request(&r, SchemeKind::Ps4).len(), 256);
        assert_eq!(split_request(&r, SchemeKind::Ps8).len(), 128);
        assert_eq!(split_request(&r, SchemeKind::Hps).len(), 128);
    }
}
