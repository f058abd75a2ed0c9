//! The page-level mapping table and the physical-page resident table.
//!
//! Two structures move in lockstep:
//!
//! * [`MappingTable`] — LPN → PPN, the classic page-level FTL map;
//! * [`ResidentTable`] — PPN → the LPNs currently *live* in that physical
//!   page. A 4 KiB page hosts one LPN; an 8 KiB page hosts up to two. A
//!   physical page stays flash-`Valid` until its last live resident is
//!   remapped, at which point the FTL invalidates it in the block.
//!
//! Keeping residents explicit is what makes the hybrid scheme honest: when
//! one half of an 8 KiB page is overwritten, the other half must survive and
//! be migrated by GC.
//!
//! Both tables sit on the replay hot path (every host chunk touches them
//! several times), so neither uses a plain SipHash `HashMap` any more:
//!
//! * the mapping table is a **two-level paged direct map** — a hash of
//!   lazily allocated fixed-size chunks. Traces are sparse across the
//!   32 GiB logical space but dense within the regions they touch, so a
//!   lookup is one cheap [`FxHashMap`] probe plus an array index, and a hot
//!   run of consecutive LPNs shares one chunk;
//! * the resident table stores its ≤2 residents **inline** (the invariant
//!   is one or two LPNs per physical page), eliminating the per-page `Vec`
//!   allocation the old implementation paid on every program and GC
//!   migration.

use crate::addr::{Lpn, Ppn};
use core::ops::Deref;
use hps_core::FxHashMap;

/// Log2 of the mapping chunk size: 512 LPN slots (= 2 MiB of logical
/// space) per lazily allocated chunk.
const CHUNK_BITS: u32 = 9;
/// Slots per chunk.
const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// Mask selecting the slot index within a chunk.
const CHUNK_MASK: u64 = (CHUNK_LEN as u64) - 1;

/// One lazily allocated run of 512 consecutive LPN slots.
#[derive(Clone, Debug)]
struct Chunk {
    slots: Box<[Option<Ppn>; CHUNK_LEN]>,
    /// Mapped slots in this chunk; the chunk is freed when it hits zero.
    live: u32,
}

impl Chunk {
    fn empty() -> Self {
        Chunk {
            slots: Box::new([None; CHUNK_LEN]),
            live: 0,
        }
    }
}

/// LPN → PPN map: a two-level paged direct map. Sparse traces allocate
/// only the chunks they touch; dense runs within a chunk are one array
/// index apart.
#[derive(Clone, Debug, Default)]
pub struct MappingTable {
    chunks: FxHashMap<u64, Chunk>,
    len: usize,
}

impl MappingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current physical location of `lpn`, if it has ever been written.
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        self.chunks
            .get(&(lpn.0 >> CHUNK_BITS))
            .and_then(|c| c.slots[(lpn.0 & CHUNK_MASK) as usize])
    }

    /// Points `lpn` at `ppn`, returning the previous location if any.
    #[inline]
    pub fn remap(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let chunk = self
            .chunks
            .entry(lpn.0 >> CHUNK_BITS)
            .or_insert_with(Chunk::empty);
        let prev = chunk.slots[(lpn.0 & CHUNK_MASK) as usize].replace(ppn);
        if prev.is_none() {
            chunk.live += 1;
            self.len += 1;
        }
        prev
    }

    /// Removes the mapping for `lpn` (TRIM/discard), returning the old
    /// location if any.
    #[inline]
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let key = lpn.0 >> CHUNK_BITS;
        let chunk = self.chunks.get_mut(&key)?;
        let prev = chunk.slots[(lpn.0 & CHUNK_MASK) as usize].take();
        if prev.is_some() {
            chunk.live -= 1;
            self.len -= 1;
            if chunk.live == 0 {
                self.chunks.remove(&key);
            }
        }
        prev
    }

    /// Number of mapped LPNs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks currently allocated (one per touched 2 MiB logical region).
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.len()
    }
}

/// The live residents of one physical page, stored inline: one or two
/// LPNs, never more. Dereferences to a slice of the live entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentList {
    lpns: [Lpn; 2],
    len: u8,
}

impl ResidentList {
    /// An empty list (a page with no residents).
    pub const EMPTY: ResidentList = ResidentList {
        lpns: [Lpn(0), Lpn(0)],
        len: 0,
    };

    fn from_slice(lpns: &[Lpn]) -> Self {
        assert!(
            (1..=2).contains(&lpns.len()),
            "a physical page hosts one or two LPNs, got {}",
            lpns.len()
        );
        let mut list = ResidentList::EMPTY;
        for &lpn in lpns {
            list.lpns[list.len as usize] = lpn;
            list.len += 1;
        }
        list
    }

    /// The live entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Lpn] {
        &self.lpns[..self.len as usize]
    }

    /// Removes the entry at `pos` (order not preserved), like
    /// `Vec::swap_remove`.
    fn swap_remove(&mut self, pos: usize) {
        debug_assert!(pos < self.len as usize);
        self.len -= 1;
        self.lpns[pos] = self.lpns[self.len as usize];
    }
}

impl Deref for ResidentList {
    type Target = [Lpn];
    fn deref(&self) -> &[Lpn] {
        self.as_slice()
    }
}

/// PPN → live residents. At most two LPNs per physical page (the 8 KiB
/// case); exactly one for 4 KiB pages. Residents live inline in the map
/// entry — no per-page heap allocation.
#[derive(Clone, Debug, Default)]
pub struct ResidentTable {
    residents: FxHashMap<Ppn, ResidentList>,
}

impl ResidentTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a freshly programmed physical page holding `lpns`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already occupied (program-without-erase) or if
    /// `lpns` is empty or holds more than two entries.
    pub fn occupy(&mut self, ppn: Ppn, lpns: &[Lpn]) {
        let prev = self.residents.insert(ppn, ResidentList::from_slice(lpns));
        assert!(prev.is_none(), "physical page {ppn} already occupied");
    }

    /// Removes `lpn` from `ppn`'s residents. Returns `true` when that was
    /// the last live resident — the caller must then invalidate the page in
    /// its block.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` has no residents or `lpn` is not among them — either
    /// indicates the mapping and resident tables have diverged.
    pub fn evict(&mut self, ppn: Ppn, lpn: Lpn) -> bool {
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let list = self
            .residents
            .get_mut(&ppn)
            .expect("evict from unoccupied page");
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let pos = list
            .iter()
            .position(|&l| l == lpn)
            .expect("evicted LPN not resident in page");
        list.swap_remove(pos);
        if list.is_empty() {
            self.residents.remove(&ppn);
            true
        } else {
            false
        }
    }

    /// The live residents of `ppn` (empty slice if none).
    pub fn residents(&self, ppn: Ppn) -> &[Lpn] {
        self.residents.get(&ppn).map_or(&[], ResidentList::as_slice)
    }

    /// Removes and returns all residents of `ppn` (used when GC migrates
    /// the page's live data elsewhere).
    pub fn take(&mut self, ppn: Ppn) -> ResidentList {
        self.residents.remove(&ppn).unwrap_or(ResidentList::EMPTY)
    }

    /// Number of occupied physical pages.
    pub fn occupied_pages(&self) -> usize {
        self.residents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_nand::{BlockId, PageAddr};

    fn ppn(plane: usize, block: usize, page: usize) -> Ppn {
        Ppn {
            plane,
            addr: PageAddr {
                block: BlockId(block),
                page,
            },
        }
    }

    #[test]
    fn mapping_remap_returns_old() {
        let mut m = MappingTable::new();
        assert!(m.lookup(Lpn(5)).is_none());
        assert_eq!(m.remap(Lpn(5), ppn(0, 0, 0)), None);
        assert_eq!(m.remap(Lpn(5), ppn(0, 0, 1)), Some(ppn(0, 0, 0)));
        assert_eq!(m.lookup(Lpn(5)), Some(ppn(0, 0, 1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unmap_removes() {
        let mut m = MappingTable::new();
        m.remap(Lpn(1), ppn(0, 0, 0));
        assert_eq!(m.unmap(Lpn(1)), Some(ppn(0, 0, 0)));
        assert_eq!(m.unmap(Lpn(1)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn chunks_allocate_lazily_and_free_when_empty() {
        let mut m = MappingTable::new();
        assert_eq!(m.allocated_chunks(), 0);
        // Two LPNs in the same 512-slot chunk, one far away.
        m.remap(Lpn(3), ppn(0, 0, 0));
        m.remap(Lpn(510), ppn(0, 0, 1));
        m.remap(Lpn(1 << 30), ppn(0, 0, 2));
        assert_eq!(m.allocated_chunks(), 2);
        assert_eq!(m.len(), 3);
        m.unmap(Lpn(1 << 30));
        assert_eq!(m.allocated_chunks(), 1, "empty chunk is freed");
        m.unmap(Lpn(3));
        m.unmap(Lpn(510));
        assert_eq!(m.allocated_chunks(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn chunk_boundaries_do_not_alias() {
        let mut m = MappingTable::new();
        // LPNs 511 and 512 straddle a chunk boundary; 0 and 512 share a
        // slot index in different chunks.
        m.remap(Lpn(511), ppn(0, 1, 0));
        m.remap(Lpn(512), ppn(0, 2, 0));
        m.remap(Lpn(0), ppn(0, 3, 0));
        assert_eq!(m.lookup(Lpn(511)), Some(ppn(0, 1, 0)));
        assert_eq!(m.lookup(Lpn(512)), Some(ppn(0, 2, 0)));
        assert_eq!(m.lookup(Lpn(0)), Some(ppn(0, 3, 0)));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn shared_page_lives_until_both_evicted() {
        let mut r = ResidentTable::new();
        let p = ppn(1, 2, 3);
        r.occupy(p, &[Lpn(10), Lpn(11)]);
        assert_eq!(r.residents(p), &[Lpn(10), Lpn(11)]);
        assert!(!r.evict(p, Lpn(10)), "partner still live");
        assert!(r.evict(p, Lpn(11)), "last resident evicted");
        assert_eq!(r.occupied_pages(), 0);
    }

    #[test]
    fn single_resident_page() {
        let mut r = ResidentTable::new();
        let p = ppn(0, 0, 0);
        r.occupy(p, &[Lpn(1)]);
        assert!(r.evict(p, Lpn(1)));
    }

    #[test]
    fn take_drains_residents() {
        let mut r = ResidentTable::new();
        let p = ppn(0, 1, 0);
        r.occupy(p, &[Lpn(7), Lpn(8)]);
        assert_eq!(&*r.take(p), &[Lpn(7), Lpn(8)][..]);
        assert_eq!(r.residents(p), &[]);
        assert!(r.take(p).is_empty());
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupy_panics() {
        let mut r = ResidentTable::new();
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        r.occupy(ppn(0, 0, 0), &[Lpn(2)]);
    }

    #[test]
    #[should_panic(expected = "one or two LPNs")]
    fn too_many_residents_panics() {
        let mut r = ResidentTable::new();
        r.occupy(ppn(0, 0, 0), &[Lpn(1), Lpn(2), Lpn(3)]);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evict_wrong_lpn_panics() {
        let mut r = ResidentTable::new();
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        r.evict(ppn(0, 0, 0), Lpn(2));
    }
}
