//! A plane: the smallest unit of parallel access, holding a pool of blocks.
//!
//! In the HPS scheme a single plane mixes block page sizes — Fig. 10 of the
//! paper shows a die whose planes contain both 4 KiB-page blocks and
//! 8 KiB-page blocks. [`Plane`] therefore stores per-block page sizes and
//! exposes pool-level accounting *per page size*, which is what the FTL's
//! allocator and garbage collector operate on.
//!
//! The plane, not the block, holds page state: one counter array and one
//! valid-page bitmap for all its blocks (see [`crate::block`]), so building
//! a plane makes two allocations, whatever its size.

use crate::block::{Block, Counters};
use core::fmt;
use hps_core::Bytes;

/// Index of a block within its plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk{}", self.0)
    }
}

/// A physical page address within a plane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PageAddr {
    /// The block within the plane.
    pub block: BlockId,
    /// The page within the block.
    pub page: usize,
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:p{}", self.block, self.page)
    }
}

/// A pool of blocks, possibly of mixed page sizes.
///
/// Block operations are keyed by [`BlockId`] and panic on an id out of
/// range; [`Plane::block`] answers queries.
///
/// # Example
///
/// ```
/// use hps_core::Bytes;
/// use hps_nand::{BlockId, Plane};
///
/// // An HPS-style plane: two 4 KiB blocks and one 8 KiB block, 4 pages each.
/// let mut plane = Plane::new(&[(Bytes::kib(4), 2), (Bytes::kib(8), 1)], 4);
/// assert_eq!(plane.blocks_total(), 3);
/// assert_eq!(plane.block(BlockId(2)).page_size(), Bytes::kib(8));
/// let page = plane.program_next(BlockId(2)).unwrap();
/// assert_eq!(page, 0);
/// plane.invalidate(BlockId(2), page);
/// assert_eq!(plane.invalid_pages(Bytes::kib(8)), 1);
/// assert_eq!(plane.invalid_pages(Bytes::kib(4)), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Plane {
    pages_per_block: usize,
    words_per_block: usize,
    /// Per-block counters, indexed by [`BlockId`].
    blocks: Vec<Counters>,
    /// Valid-page bits, `words_per_block` words per block in block order;
    /// page `p` is bit `p % 64` of its block's word `p / 64`.
    valid: Vec<u64>,
}

impl Plane {
    /// Creates a plane from `(page_size, block_count)` pool specs; blocks are
    /// laid out in spec order, so `BlockId`s `0..n0` use the first spec's page
    /// size, and so on.
    ///
    /// # Panics
    ///
    /// Panics if no spec contributes any block, any page size is zero, or
    /// `pages_per_block` is zero.
    pub fn new(pools: &[(Bytes, usize)], pages_per_block: usize) -> Self {
        assert!(
            pages_per_block > 0,
            "a block must contain at least one page"
        );
        let total = pools.iter().map(|&(_, count)| count).sum();
        let mut blocks = Vec::with_capacity(total);
        for &(page_size, count) in pools {
            assert!(!page_size.is_zero(), "page size must be non-zero");
            let fresh = Counters {
                page_size,
                ..Counters::default()
            };
            blocks.resize(blocks.len() + count, fresh);
        }
        assert!(
            !blocks.is_empty(),
            "a plane must contain at least one block"
        );
        let words_per_block = pages_per_block.div_ceil(64);
        Plane {
            pages_per_block,
            words_per_block,
            blocks,
            valid: vec![0; total * words_per_block],
        }
    }

    /// Total number of blocks in the plane.
    pub fn blocks_total(&self) -> usize {
        self.blocks.len()
    }

    /// A view of one block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> Block<'_> {
        Block {
            plane: self,
            id,
            counters: &self.blocks[id.0],
        }
    }

    /// Iterates `(BlockId, Block)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, Block<'_>)> {
        (0..self.blocks.len()).map(|i| (BlockId(i), self.block(BlockId(i))))
    }

    /// Iterates blocks of one page size.
    pub fn iter_pool(&self, page_size: Bytes) -> impl Iterator<Item = (BlockId, Block<'_>)> {
        self.iter().filter(move |(_, b)| b.page_size() == page_size)
    }

    /// Invalid (reclaimable) pages across all blocks of `page_size`.
    pub fn invalid_pages(&self, page_size: Bytes) -> usize {
        self.iter_pool(page_size)
            .map(|(_, b)| b.invalid_pages())
            .sum()
    }

    /// Programs the next free page of block `id`, returning its in-block
    /// index, or `None` if the block is fully written.
    pub fn program_next(&mut self, id: BlockId) -> Option<usize> {
        // NAND-program phase: array state transition cost, pooled with the
        // per-op scheduling cost attributed by the device layer.
        let _prof = hps_obs::profile::phase(hps_obs::Phase::NandProgram);
        let c = &mut self.blocks[id.0];
        if c.write_ptr >= self.pages_per_block {
            return None;
        }
        let page = c.write_ptr;
        let word = &mut self.valid[id.0 * self.words_per_block + page / 64];
        let bit = 1u64 << (page % 64);
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        assert_eq!(*word & bit, 0, "write pointer passed a non-free page");
        *word |= bit;
        c.valid += 1;
        c.write_ptr += 1;
        Some(page)
    }

    /// Marks a previously programmed page invalid (superseded by a newer
    /// write elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range or not currently [`Valid`](crate::PageState::Valid) — invalidating a free or
    /// already-invalid page indicates FTL mapping corruption.
    pub fn invalidate(&mut self, id: BlockId, page: usize) {
        let (word, bit) = self.bit(id, page);
        let c = &mut self.blocks[id.0];
        assert!(
            self.valid[word] & bit != 0,
            "only valid pages can be invalidated (FTL mapping bug)"
        );
        self.valid[word] &= !bit;
        c.valid -= 1;
    }

    /// Restores an invalidated page to [`Valid`](crate::PageState::Valid).
    ///
    /// This exists only for power-loss recovery: the FTL invalidates the
    /// old physical page *before* programming its replacement, so a crash
    /// inside that window leaves the durable copy of an LPN flagged
    /// invalid. Recovery, having determined from OOB metadata that the
    /// page still holds the newest acknowledged copy, undoes the
    /// invalidation. Normal operation never calls this.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not behind the write pointer or not currently
    /// [`Invalid`](crate::PageState::Invalid).
    pub fn revalidate(&mut self, id: BlockId, page: usize) {
        let (word, bit) = self.bit(id, page);
        let c = &mut self.blocks[id.0];
        assert!(
            page < c.write_ptr,
            "only programmed pages can be revalidated"
        );
        assert!(
            self.valid[word] & bit == 0,
            "only invalid pages can be revalidated (recovery bug)"
        );
        self.valid[word] |= bit;
        c.valid += 1;
    }

    /// Erases block `id`: every page becomes free, the write pointer
    /// rewinds, and the wear count increments.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages — the FTL must migrate
    /// live data before erasing (this is what garbage collection does).
    pub fn erase(&mut self, id: BlockId) {
        let _prof = hps_obs::profile::phase(hps_obs::Phase::NandErase);
        assert_eq!(
            self.blocks[id.0].valid, 0,
            "erasing a block with live data would lose it"
        );
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        hps_core::audit::enforce(self.block(id).audit_recount());
        let w = self.words_per_block;
        self.valid[id.0 * w..][..w].fill(0);
        let c = &mut self.blocks[id.0];
        c.write_ptr = 0;
        c.erase_count += 1;
    }

    /// Credits `erases` prior erase cycles to a factory-fresh block —
    /// fleet runs use this to start devices mid-life, so the wear-slope
    /// term of the fault model conditions on realistic erase counts from
    /// the first request.
    ///
    /// # Panics
    ///
    /// Panics if the block has ever been programmed or erased: pre-aging
    /// models *history before the simulation*, not a mid-run reset, so it
    /// is only legal on a pristine block.
    pub fn preage(&mut self, id: BlockId, erases: u64) {
        let c = &mut self.blocks[id.0];
        assert!(
            c.write_ptr == 0 && c.erase_count == 0,
            "pre-aging is only legal on a factory-fresh block"
        );
        c.erase_count = erases;
    }

    /// Pages per block, the same for every block.
    pub(crate) fn pages_per_block(&self) -> usize {
        self.pages_per_block
    }

    /// Block `id`'s words of the valid-page bitmap.
    pub(crate) fn valid_words(&self, id: BlockId) -> &[u64] {
        let w = self.words_per_block;
        &self.valid[id.0 * w..][..w]
    }

    /// The bitmap word index and bit mask of one page; panics if `page` is
    /// out of range, so a page never reaches into a neighbour's words.
    fn bit(&self, id: BlockId, page: usize) -> (usize, u64) {
        assert!(page < self.pages_per_block, "page index out of range");
        (id.0 * self.words_per_block + page / 64, 1 << (page % 64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hps_plane() -> Plane {
        Plane::new(&[(Bytes::kib(4), 2), (Bytes::kib(8), 1)], 4)
    }

    #[test]
    fn layout_follows_spec_order() {
        let p = hps_plane();
        assert_eq!(p.block(BlockId(0)).page_size(), Bytes::kib(4));
        assert_eq!(p.block(BlockId(1)).page_size(), Bytes::kib(4));
        assert_eq!(p.block(BlockId(2)).page_size(), Bytes::kib(8));
    }

    #[test]
    fn pool_accounting_is_per_page_size() {
        let mut p = hps_plane();
        for id in [BlockId(0), BlockId(2)] {
            let page = p.program_next(id).unwrap();
            p.invalidate(id, page);
        }
        p.program_next(BlockId(1));
        assert_eq!(p.invalid_pages(Bytes::kib(4)), 1);
        assert_eq!(p.invalid_pages(Bytes::kib(8)), 1);
        assert_eq!(p.iter_pool(Bytes::kib(4)).count(), 2);
    }

    #[cfg(any(debug_assertions, feature = "sanitize"))]
    #[test]
    fn audit_recount_catches_a_stray_bit() {
        let mut p = Plane::new(&[(Bytes::kib(4), 2)], 70);
        p.program_next(BlockId(1));
        assert!(p.block(BlockId(1)).audit_recount().is_ok());
        // A bit past the write pointer, in the block's second word.
        p.valid[p.words_per_block + 1] |= 1 << 3;
        let v = p.block(BlockId(1)).audit_recount().unwrap_err();
        assert_eq!(v.invariant, hps_core::audit::InvariantId::TallyDiverged);
        p.blocks[1].valid += 1;
        let v = p.block(BlockId(1)).audit_recount().unwrap_err();
        assert_eq!(v.invariant, hps_core::audit::InvariantId::ProgramOutOfOrder);
        assert!(p.block(BlockId(0)).audit_recount().is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_plane_panics() {
        let _ = Plane::new(&[], 4);
    }
}
