//! One flash block: its page states and the read view the FTL queries.
//!
//! A block is an erase unit holding a fixed number of same-sized pages
//! (1024 pages per block in Table V). Flash physics impose three rules
//! that [`Plane`]'s block operations enforce:
//!
//! 1. pages within a block are programmed strictly in order (the write
//!    pointer only moves forward);
//! 2. a programmed page cannot be programmed again until the whole block is
//!    erased (`erase-before-write`);
//! 3. erasing is all-or-nothing at block granularity and increments the
//!    block's wear count.
//!
//! A block owns no memory: its counters are one entry of its plane's
//! counter array, and its pages are bits of its plane's valid-page bitmap.
//! A page at or past the write pointer is free; below it, a set bit means
//! valid and a clear one invalid. [`Block`] is a view of one block whose
//! counter queries never read the bitmap.

use crate::plane::{BlockId, Plane};
use core::fmt;
use hps_core::Bytes;

/// Lifecycle of one flash page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but superseded; reclaimable by GC.
    Invalid,
}

/// The counters of one block, kept by its [`Plane`] in one array;
/// `write_ptr` counts the pages programmed since the last erase.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    pub(crate) page_size: Bytes,
    pub(crate) write_ptr: usize,
    pub(crate) valid: usize,
    pub(crate) erase_count: u64,
}

/// A read-only view of one block of a [`Plane`], from [`Plane::block`].
///
/// # Example
///
/// ```
/// use hps_core::Bytes;
/// use hps_nand::{BlockId, PageState, Plane};
///
/// let mut plane = Plane::new(&[(Bytes::kib(4), 1)], 4);
/// let id = BlockId(0);
/// let p0 = plane.program_next(id).unwrap();
/// let p1 = plane.program_next(id).unwrap();
/// assert_eq!((p0, p1), (0, 1));
/// plane.invalidate(id, p0);
/// let b = plane.block(id);
/// assert_eq!((b.valid_pages(), b.invalid_pages()), (1, 1));
/// assert_eq!(b.page_state(2), PageState::Free);
/// let mut live = vec![7];
/// b.valid_page_indices_into(&mut live); // appends
/// assert_eq!(live, [7, 1]);
/// plane.invalidate(id, p1);
/// plane.erase(id);
/// assert_eq!(plane.block(id).free_pages(), 4);
/// assert_eq!(plane.block(id).erase_count(), 1);
/// ```
#[derive(Clone, Copy)]
pub struct Block<'a> {
    pub(crate) plane: &'a Plane,
    pub(crate) id: BlockId,
    pub(crate) counters: &'a Counters,
}

impl fmt::Debug for Block<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Block")
            .field("id", &self.id)
            .field("counters", self.counters)
            .finish()
    }
}

impl<'a> Block<'a> {
    /// Size of each page in this block.
    pub fn page_size(&self) -> Bytes {
        self.counters.page_size
    }

    /// Total pages in the block.
    pub fn pages_per_block(&self) -> usize {
        self.plane.pages_per_block()
    }

    /// State of one page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn page_state(&self, page: usize) -> PageState {
        assert!(page < self.pages_per_block(), "page index out of range");
        if page >= self.counters.write_ptr {
            PageState::Free
        } else if (self.words()[page / 64] >> (page % 64)) & 1 == 1 {
            PageState::Valid
        } else {
            PageState::Invalid
        }
    }

    /// Pages still erased and programmable.
    pub fn free_pages(&self) -> usize {
        self.pages_per_block() - self.counters.write_ptr
    }

    /// Pages holding live data.
    pub fn valid_pages(&self) -> usize {
        self.counters.valid
    }

    /// Pages holding superseded data (reclaimable).
    pub fn invalid_pages(&self) -> usize {
        self.counters.write_ptr - self.counters.valid
    }

    /// Pages programmed since the last erase (the write pointer): recovery
    /// scans exactly `0..programmed_pages()` when rebuilding from OOB
    /// metadata.
    pub fn programmed_pages(&self) -> usize {
        self.counters.write_ptr
    }

    /// `true` if no page has ever been programmed since the last erase.
    pub fn is_erased(&self) -> bool {
        self.counters.write_ptr == 0
    }

    /// How many times this block has been erased.
    pub fn erase_count(&self) -> u64 {
        self.counters.erase_count
    }

    /// Appends the indices of all currently valid pages into `out` (not
    /// cleared first), ascending. The GC hot path reuses one buffer across
    /// victim collections, so steady-state GC performs no heap allocations.
    pub fn valid_page_indices_into(&self, out: &mut Vec<usize>) {
        for (i, &word) in self.words().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(i * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Recounts the valid bits against the cached `valid` counter and
    /// checks that no bit is set at or past the write pointer; any
    /// divergence means the block state machine itself is corrupt.
    ///
    /// The simulator only runs it at block-granularity events (erase)
    /// rather than per program/invalidate. Compiled in for debug builds
    /// and the `sanitize` feature.
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    pub fn audit_recount(&self) -> Result<(), hps_core::audit::Violation> {
        use hps_core::audit::{InvariantId, Violation};
        let violation = |invariant, detail| {
            Err(Violation {
                invariant,
                sim_time_ns: 0,
                request: None,
                addr: None,
                detail,
            })
        };
        let (words, c) = (self.words(), self.counters);
        let valid: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if valid != c.valid {
            return violation(
                InvariantId::TallyDiverged,
                format!(
                    "block counter says valid={}, popcount finds {valid}",
                    c.valid
                ),
            );
        }
        let (full, rem) = (c.write_ptr / 64, c.write_ptr % 64);
        if words.get(full).is_some_and(|&w| w >> rem != 0)
            || words.iter().skip(full + 1).any(|&w| w != 0)
        {
            return violation(
                InvariantId::ProgramOutOfOrder,
                "programmed page found beyond the write pointer".to_string(),
            );
        }
        Ok(())
    }

    /// This block's words of the plane's valid-page bitmap.
    fn words(&self) -> &'a [u64] {
        self.plane.valid_words(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockId = BlockId(0);

    /// A plane of one 4 KiB block of `pages` pages.
    fn block4(pages: usize) -> Plane {
        Plane::new(&[(Bytes::kib(4), 1)], pages)
    }

    #[test]
    #[should_panic(expected = "only invalid pages")]
    fn revalidate_valid_page_panics() {
        let mut p = block4(2);
        p.program_next(B);
        p.revalidate(B, 0);
    }

    #[test]
    #[should_panic(expected = "only programmed pages")]
    fn revalidate_free_page_panics() {
        let mut p = block4(2);
        p.revalidate(B, 0);
    }

    #[test]
    #[should_panic(expected = "live data")]
    fn erase_with_valid_pages_panics() {
        let mut p = block4(2);
        p.program_next(B);
        p.erase(B);
    }

    #[test]
    #[should_panic(expected = "only valid pages")]
    fn invalidate_free_page_panics() {
        let mut p = block4(2);
        p.invalidate(B, 0);
    }

    #[test]
    #[should_panic(expected = "only valid pages")]
    fn double_invalidate_panics() {
        let mut p = block4(2);
        p.program_next(B);
        p.invalidate(B, 0);
        p.invalidate(B, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalidate_past_the_block_panics() {
        // Page 64 of a 64-page block would be bit 0 of the next block's
        // first word.
        let mut p = Plane::new(&[(Bytes::kib(4), 2)], 64);
        p.program_next(BlockId(1));
        p.invalidate(B, 64);
    }

    #[test]
    fn preage_credits_history_without_touching_pages() {
        let mut p = block4(2);
        p.preage(B, 500);
        assert_eq!(p.block(B).erase_count(), 500);
        assert!(p.block(B).is_erased());
        p.program_next(B);
        p.invalidate(B, 0);
        p.erase(B);
        assert_eq!(
            p.block(B).erase_count(),
            501,
            "live erases stack on the credit"
        );
    }

    #[test]
    #[should_panic(expected = "factory-fresh")]
    fn preage_after_use_panics() {
        let mut p = block4(2);
        p.program_next(B);
        p.preage(B, 10);
    }
}
