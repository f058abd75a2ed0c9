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
//! several times), so both are flat arrays that [`crate::Ftl::new`] sizes
//! once from the [`crate::FtlConfig`]: an access is one index, with no
//! hashing and no growth.
//!
//! * The mapping table holds one `u32` per LPN of the logical capacity:
//!   the packed PPN + 1, or 0 for "unmapped".
//! * The resident table holds one `[u32; 2]` per packed PPN: each slot a
//!   resident LPN + 1, or 0 for "empty". Slot 0 fills first.
//! * [`PpnLayout`] packs a [`Ppn`] as `plane | block | page` bit fields
//!   whose widths come from the configuration (Table V HPS: 3 + 10 + 10 =
//!   23 bits), so packing and unpacking are shifts and masks.
//!
//! Zero means empty in both tables so that they come from a zeroed
//! allocation: the OS backs a page of a table with memory only when an
//! entry in it is first written. A Table V device's 8,388,608-entry map is
//! 32 MiB of address space, of which a trace makes resident only the
//! regions it touches.

use crate::addr::{Lpn, Ppn};
use core::ops::Deref;
use hps_nand::{BlockId, PageAddr};

/// Bits needed to hold every index below `n`.
fn index_bits(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// How a [`Ppn`] packs into a `u32`: the page index in the low
/// `page_bits`, the block index above it, and the plane index on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PpnLayout {
    /// Width of the page field.
    page_bits: u32,
    /// Width of the page and block fields together: the plane field's
    /// shift.
    plane_shift: u32,
    /// Planes, the plane field's range.
    planes: usize,
}

impl PpnLayout {
    /// The layout for `planes` planes of `blocks_per_plane` blocks of
    /// `pages_per_block` pages each, or `None` when a packed PPN + 1 might
    /// not fit in a `u32`.
    pub fn new(planes: usize, blocks_per_plane: usize, pages_per_block: usize) -> Option<Self> {
        let page_bits = index_bits(pages_per_block);
        let plane_shift = page_bits + index_bits(blocks_per_plane);
        let layout = PpnLayout {
            page_bits,
            plane_shift,
            planes,
        };
        // Every packed PPN is below `slots`, so PPN + 1 fits if it does.
        (plane_shift < u32::BITS && u32::try_from(layout.slots()).is_ok()).then_some(layout)
    }

    /// Packed values the layout spans, `planes << plane_shift`: every
    /// packed PPN is below it.
    pub fn slots(self) -> usize {
        self.planes.saturating_mul(1 << self.plane_shift)
    }

    /// Packs `ppn`.
    #[inline]
    pub fn pack(self, ppn: Ppn) -> u32 {
        debug_assert!(ppn.plane < self.planes, "plane {} out of layout", ppn.plane);
        debug_assert!(ppn.addr.page < 1 << self.page_bits, "page out of layout");
        debug_assert!(
            ppn.addr.block.0 < 1 << (self.plane_shift - self.page_bits),
            "block out of layout"
        );
        ((ppn.plane << self.plane_shift) | (ppn.addr.block.0 << self.page_bits) | ppn.addr.page)
            as u32
    }

    /// Unpacks a value [`PpnLayout::pack`] produced.
    #[inline]
    pub fn unpack(self, packed: u32) -> Ppn {
        let packed = packed as usize;
        Ppn {
            plane: packed >> self.plane_shift,
            addr: PageAddr {
                block: BlockId((packed & ((1 << self.plane_shift) - 1)) >> self.page_bits),
                page: packed & ((1 << self.page_bits) - 1),
            },
        }
    }
}

/// LPN → PPN map: one packed entry per LPN of the logical capacity.
#[derive(Clone, Debug)]
pub struct MappingTable {
    /// Packed PPN + 1 per LPN; 0 = unmapped.
    entries: Vec<u32>,
    layout: PpnLayout,
    /// Mapped LPNs.
    len: usize,
}

impl MappingTable {
    /// An empty table over LPNs `0..lpns`, packing PPNs with `layout`.
    pub fn new(lpns: usize, layout: PpnLayout) -> Self {
        MappingTable {
            entries: vec![0; lpns],
            layout,
            len: 0,
        }
    }

    /// The LPN range the table covers: every LPN below this is mappable.
    pub fn lpns(&self) -> usize {
        self.entries.len()
    }

    /// Current physical location of `lpn`, if it has ever been written.
    /// An LPN past the table's range has never been written.
    #[inline]
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        let entry = *self.entries.get(usize::try_from(lpn.0).ok()?)?;
        entry.checked_sub(1).map(|p| self.layout.unpack(p))
    }

    /// Points `lpn` at `ppn`, returning the previous location if any.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is past the table's range.
    #[inline]
    pub fn remap(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        let entry = self.layout.pack(ppn) + 1;
        let slot = usize::try_from(lpn.0)
            .ok()
            .and_then(|i| self.entries.get_mut(i))
            .unwrap_or_else(|| panic!("{lpn} is past the mapping table's range"));
        let prev = core::mem::replace(slot, entry);
        if prev == 0 {
            self.len += 1;
        }
        prev.checked_sub(1).map(|p| self.layout.unpack(p))
    }

    /// Removes the mapping for `lpn` (TRIM/discard), returning the old
    /// location if any.
    #[inline]
    pub fn unmap(&mut self, lpn: Lpn) -> Option<Ppn> {
        let slot = self.entries.get_mut(usize::try_from(lpn.0).ok()?)?;
        let prev = core::mem::take(slot).checked_sub(1)?;
        self.len -= 1;
        Some(self.layout.unpack(prev))
    }

    /// Number of mapped LPNs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The live entries as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Lpn] {
        &self.lpns[..self.len as usize]
    }
}

impl Deref for ResidentList {
    type Target = [Lpn];
    fn deref(&self) -> &[Lpn] {
        self.as_slice()
    }
}

/// PPN → live residents: one inline `[u32; 2]` entry per packed PPN. At
/// most two LPNs per physical page (the 8 KiB case); exactly one for 4 KiB
/// pages.
#[derive(Clone, Debug)]
pub struct ResidentTable {
    /// Resident LPN + 1 per slot, per packed PPN; 0 = empty. A page's
    /// second slot is set only while its first is.
    entries: Vec<[u32; 2]>,
    layout: PpnLayout,
    /// Pages with at least one resident.
    occupied: usize,
}

/// `lpn` + 1 as a resident-table slot value.
fn slot_value(lpn: Lpn) -> u32 {
    lpn.0
        .checked_add(1)
        .and_then(|v| u32::try_from(v).ok())
        .unwrap_or_else(|| panic!("{lpn} does not fit a resident-table slot"))
}

impl ResidentTable {
    /// An empty table over every PPN `layout` can pack.
    pub fn new(layout: PpnLayout) -> Self {
        ResidentTable {
            entries: vec![[0; 2]; layout.slots()],
            layout,
            occupied: 0,
        }
    }

    /// Registers a freshly programmed physical page holding `lpns`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already occupied (program-without-erase) or if
    /// `lpns` is empty or holds more than two entries.
    #[inline]
    pub fn occupy(&mut self, ppn: Ppn, lpns: &[Lpn]) {
        assert!(
            (1..=2).contains(&lpns.len()),
            "a physical page hosts one or two LPNs, got {}",
            lpns.len()
        );
        let entry = &mut self.entries[self.layout.pack(ppn) as usize];
        assert!(entry[0] == 0, "physical page {ppn} already occupied");
        for (slot, &lpn) in entry.iter_mut().zip(lpns) {
            *slot = slot_value(lpn);
        }
        self.occupied += 1;
    }

    /// Removes `lpn` from `ppn`'s residents. Returns `true` when that was
    /// the last live resident — the caller must then invalidate the page in
    /// its block. Evicting the first of two residents moves the second
    /// into slot 0, as `Vec::swap_remove` would.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` has no residents or `lpn` is not among them — either
    /// indicates the mapping and resident tables have diverged.
    #[inline]
    pub fn evict(&mut self, ppn: Ppn, lpn: Lpn) -> bool {
        let entry = &mut self.entries[self.layout.pack(ppn) as usize];
        assert!(entry[0] != 0, "evict from unoccupied page");
        let value = slot_value(lpn);
        if entry[0] == value {
            entry[0] = entry[1];
        } else {
            assert!(entry[1] == value, "evicted LPN not resident in page");
        }
        entry[1] = 0;
        let last = entry[0] == 0;
        if last {
            self.occupied -= 1;
        }
        last
    }

    /// The live residents of `ppn` (empty if none).
    pub fn residents(&self, ppn: Ppn) -> ResidentList {
        let entry = self.entries[self.layout.pack(ppn) as usize];
        let mut list = ResidentList::EMPTY;
        for value in entry.into_iter().take_while(|&v| v != 0) {
            list.lpns[list.len as usize] = Lpn(u64::from(value) - 1);
            list.len += 1;
        }
        list
    }

    /// Removes and returns all residents of `ppn` (used when GC migrates
    /// the page's live data elsewhere).
    pub fn take(&mut self, ppn: Ppn) -> ResidentList {
        let list = self.residents(ppn);
        if !list.is_empty() {
            self.entries[self.layout.pack(ppn) as usize] = [0; 2];
            self.occupied -= 1;
        }
        list
    }

    /// Number of occupied physical pages.
    pub fn occupied_pages(&self) -> usize {
        self.occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Room for the PPNs the tests below use.
    fn layout() -> PpnLayout {
        PpnLayout::new(2, 4, 8).unwrap()
    }

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
    fn table_v_hps_packs_into_23_bits() {
        // 8 planes, 512 + 256 blocks, 1024 pages: 3 + 10 + 10 bits.
        let l = PpnLayout::new(8, 768, 1024).unwrap();
        assert_eq!(l.slots(), 1 << 23);
        for p in [
            ppn(0, 0, 0),
            ppn(7, 767, 1023),
            ppn(3, 512, 1),
            ppn(5, 1, 512),
        ] {
            assert_eq!(l.unpack(l.pack(p)), p);
        }
        assert_eq!(l.pack(ppn(7, 767, 1023)), (7 << 20) | (767 << 10) | 1023);
    }

    #[test]
    fn layout_rejects_what_u32_cannot_hold() {
        // Three planes of 2^30 pages use all 32 bits and still leave room
        // for the + 1; four planes do not.
        assert_eq!(
            PpnLayout::new(3, 1 << 15, 1 << 15).map(PpnLayout::slots),
            Some(3 << 30)
        );
        assert!(PpnLayout::new(4, 1 << 15, 1 << 15).is_none());
        assert!(PpnLayout::new(1, 1 << 40, 1).is_none());
        // Single-plane, single-block, single-page: zero-width fields.
        let l = PpnLayout::new(1, 1, 1).unwrap();
        assert_eq!(l.slots(), 1);
        assert_eq!(l.unpack(l.pack(ppn(0, 0, 0))), ppn(0, 0, 0));
    }

    #[test]
    fn mapping_remap_returns_old() {
        let mut m = MappingTable::new(8, layout());
        assert!(m.lookup(Lpn(5)).is_none());
        assert_eq!(m.remap(Lpn(5), ppn(0, 0, 0)), None);
        assert_eq!(m.remap(Lpn(5), ppn(0, 0, 1)), Some(ppn(0, 0, 0)));
        assert_eq!(m.lookup(Lpn(5)), Some(ppn(0, 0, 1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn unmap_removes() {
        let mut m = MappingTable::new(8, layout());
        m.remap(Lpn(1), ppn(0, 0, 0));
        assert_eq!(m.unmap(Lpn(1)), Some(ppn(0, 0, 0)));
        assert_eq!(m.unmap(Lpn(1)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn lpns_past_the_range_are_never_mapped() {
        let mut m = MappingTable::new(8, layout());
        m.remap(Lpn(7), ppn(1, 3, 7));
        assert_eq!(m.lookup(Lpn(7)), Some(ppn(1, 3, 7)));
        assert_eq!(m.lookup(Lpn(8)), None);
        assert_eq!(m.lookup(Lpn(u64::MAX)), None);
        assert_eq!(m.unmap(Lpn(8)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "past the mapping table's range")]
    fn remap_past_the_range_panics() {
        MappingTable::new(8, layout()).remap(Lpn(8), ppn(0, 0, 0));
    }

    #[test]
    fn shared_page_lives_until_both_evicted() {
        let mut r = ResidentTable::new(layout());
        let p = ppn(1, 2, 3);
        r.occupy(p, &[Lpn(10), Lpn(11)]);
        assert_eq!(&*r.residents(p), &[Lpn(10), Lpn(11)]);
        assert!(!r.evict(p, Lpn(10)), "partner still live");
        assert_eq!(&*r.residents(p), &[Lpn(11)], "partner moves to slot 0");
        assert!(r.evict(p, Lpn(11)), "last resident evicted");
        assert_eq!(r.occupied_pages(), 0);
    }

    #[test]
    fn single_resident_page() {
        let mut r = ResidentTable::new(layout());
        let p = ppn(0, 0, 0);
        r.occupy(p, &[Lpn(1)]);
        assert!(r.evict(p, Lpn(1)));
    }

    #[test]
    fn lpn_zero_is_a_resident() {
        // Entries store LPN + 1, so LPN 0 must not read as "empty".
        let mut r = ResidentTable::new(layout());
        r.occupy(ppn(0, 1, 1), &[Lpn(0)]);
        assert_eq!(&*r.residents(ppn(0, 1, 1)), &[Lpn(0)]);
        assert_eq!(r.occupied_pages(), 1);
    }

    #[test]
    fn take_drains_residents() {
        let mut r = ResidentTable::new(layout());
        let p = ppn(0, 1, 0);
        r.occupy(p, &[Lpn(7), Lpn(8)]);
        assert_eq!(&*r.take(p), &[Lpn(7), Lpn(8)][..]);
        assert!(r.residents(p).is_empty());
        assert!(r.take(p).is_empty());
        assert_eq!(r.occupied_pages(), 0);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_occupy_panics() {
        let mut r = ResidentTable::new(layout());
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        r.occupy(ppn(0, 0, 0), &[Lpn(2)]);
    }

    #[test]
    #[should_panic(expected = "one or two LPNs")]
    fn too_many_residents_panics() {
        let mut r = ResidentTable::new(layout());
        r.occupy(ppn(0, 0, 0), &[Lpn(1), Lpn(2), Lpn(3)]);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evict_wrong_lpn_panics() {
        let mut r = ResidentTable::new(layout());
        r.occupy(ppn(0, 0, 0), &[Lpn(1)]);
        r.evict(ppn(0, 0, 0), Lpn(2));
    }
}
