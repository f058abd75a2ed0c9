//! Per-plane, per-page-size block pools.
//!
//! Each plane partitions its blocks into pools by page size (one pool per
//! size; the HPS scheme has two). A pool writes into a single *active* block
//! at a time; when it fills, the allocator promotes the coldest block from
//! the free list — picking the lowest erase count is the entire
//! wear-leveling strategy, which is the "simple wear-leveling" the paper's
//! Implication 4 deems sufficient for smartphone workloads.

use hps_core::Bytes;
use hps_nand::{BlockId, Plane};

/// Allocation state for one page size within one plane.
#[derive(Clone, Debug)]
pub struct Pool {
    page_size: Bytes,
    /// Every block of this page size in the plane (fixed at construction).
    members: Vec<BlockId>,
    /// Erased blocks available for promotion.
    free: Vec<BlockId>,
    /// The block currently being filled.
    active: Option<BlockId>,
    /// Reserved blocks for bad-block replacement (fault injection only).
    /// Never allocated from; a retirement pops one into `members`.
    spares: Vec<BlockId>,
}

impl Pool {
    /// Builds the pool for `page_size` by scanning the plane's blocks.
    ///
    /// # Panics
    ///
    /// Panics if the plane has no blocks of this page size, or if any of
    /// them is not erased (pools must be built on a fresh plane).
    pub fn new(plane: &Plane, page_size: Bytes) -> Self {
        Pool::with_spares(plane, page_size, 0)
    }

    /// Builds the pool like [`Pool::new`], but withholds the *last*
    /// `spare_count` blocks of this page size as bad-block replacement
    /// spares. Spares are invisible to allocation and GC until
    /// [`Pool::retire_and_replace`] adopts one.
    ///
    /// # Panics
    ///
    /// Panics if the plane does not have more than `spare_count` blocks of
    /// this page size (a pool needs at least one working block), or if any
    /// block is not erased.
    pub fn with_spares(plane: &Plane, page_size: Bytes, spare_count: usize) -> Self {
        // Sized once: building a pool allocates the same whatever its size.
        let mut members = Vec::with_capacity(plane.iter_pool(page_size).count());
        for (id, block) in plane.iter_pool(page_size) {
            assert!(block.is_erased(), "pool must start from erased blocks");
            members.push(id);
        }
        assert!(
            members.len() > spare_count,
            "plane needs more than {spare_count} spare {page_size} blocks"
        );
        let spares = members.split_off(members.len() - spare_count);
        Pool {
            page_size,
            free: members.clone(),
            members,
            active: None,
            spares,
        }
    }

    /// The page size this pool serves.
    pub fn page_size(&self) -> Bytes {
        self.page_size
    }

    /// All member block ids.
    pub fn members(&self) -> &[BlockId] {
        &self.members
    }

    /// The block currently being filled, if any.
    pub fn active(&self) -> Option<BlockId> {
        self.active
    }

    /// Number of erased blocks waiting in the free list.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Allocates the next physical page, promoting a new active block from
    /// the free list when needed. Returns `None` when the active block is
    /// full and the free list is empty — the caller must garbage-collect.
    pub fn allocate_page(&mut self, plane: &mut Plane) -> Option<(BlockId, usize)> {
        loop {
            if let Some(active) = self.active {
                if let Some(page) = plane.program_next(active) {
                    return Some((active, page));
                }
                // Active block full; retire it.
                self.active = None;
            }
            let next = self.pop_coldest(plane)?;
            self.active = Some(next);
        }
    }

    /// Returns an erased block (a GC victim after erase) to the free list.
    ///
    /// # Panics
    ///
    /// Panics if the block is not erased, belongs to another pool, or is
    /// already free/active.
    pub fn return_erased(&mut self, plane: &Plane, id: BlockId) {
        assert!(
            plane.block(id).is_erased(),
            "only erased blocks return to the free list"
        );
        assert!(
            self.members.contains(&id),
            "block belongs to a different pool"
        );
        assert!(!self.free.contains(&id), "block already in the free list");
        assert_ne!(self.active, Some(id), "active block cannot be returned");
        self.free.push(id);
    }

    /// Candidate GC victims: member blocks that are neither active nor in
    /// the free list (i.e. fully or partially programmed).
    pub fn victim_candidates<'a>(&'a self, plane: &'a Plane) -> impl Iterator<Item = BlockId> + 'a {
        self.members
            .iter()
            .copied()
            .filter(move |&id| Some(id) != self.active && !self.free.contains(&id))
            .filter(move |&id| !plane.block(id).is_erased())
    }

    /// Spare blocks still available for bad-block replacement.
    pub fn spare_blocks(&self) -> usize {
        self.spares.len()
    }

    /// Retires `id` as grown-bad and adopts a spare in its place.
    ///
    /// The bad block leaves `members` (and the free/active sets), so it can
    /// never be allocated from or selected as a GC victim again. The
    /// adopted spare joins `members` and the free list. Returns the spare's
    /// id, or `None` when the spare pool is exhausted — the caller must
    /// degrade to read-only.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a member of this pool.
    pub fn retire_and_replace(&mut self, id: BlockId) -> Option<BlockId> {
        #[expect(
            clippy::expect_used,
            reason = "documented panic: a non-member block is a caller bug"
        )]
        let idx = self
            .members
            .iter()
            .position(|&m| m == id)
            .expect("retired block must belong to this pool");
        self.members.swap_remove(idx);
        if let Some(free_idx) = self.free.iter().position(|&m| m == id) {
            self.free.swap_remove(free_idx);
        }
        if self.active == Some(id) {
            self.active = None;
        }
        let spare = self.spares.pop()?;
        self.members.push(spare);
        self.free.push(spare);
        Some(spare)
    }

    /// Rebuilds the free list from the plane's actual block states
    /// (power-loss recovery): the active block is forgotten and every
    /// erased member becomes free again.
    pub fn rebuild_free_list(&mut self, plane: &Plane) {
        self.active = None;
        self.free.clear();
        self.free.extend(
            self.members
                .iter()
                .copied()
                .filter(|&id| plane.block(id).is_erased()),
        );
    }

    /// Simple wear leveling: promote the free block with the lowest erase
    /// count.
    fn pop_coldest(&mut self, plane: &Plane) -> Option<BlockId> {
        let (idx, _) = self
            .free
            .iter()
            .enumerate()
            .min_by_key(|(_, &id)| plane.block(id).erase_count())?;
        Some(self.free.swap_remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane_4k(blocks: usize, pages: usize) -> Plane {
        Plane::new(&[(Bytes::kib(4), blocks)], pages)
    }

    #[test]
    fn allocates_sequentially_within_active_block() {
        let mut plane = plane_4k(2, 3);
        let mut pool = Pool::new(&plane, Bytes::kib(4));
        let (b0, p0) = pool.allocate_page(&mut plane).unwrap();
        let (b1, p1) = pool.allocate_page(&mut plane).unwrap();
        assert_eq!(b0, b1, "stays in the active block");
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(pool.free_blocks(), 1);
    }

    #[test]
    fn promotes_next_block_when_full() {
        let mut plane = plane_4k(2, 2);
        let mut pool = Pool::new(&plane, Bytes::kib(4));
        let (first, _) = pool.allocate_page(&mut plane).unwrap();
        pool.allocate_page(&mut plane).unwrap();
        let (second, page) = pool.allocate_page(&mut plane).unwrap();
        assert_ne!(first, second);
        assert_eq!(page, 0);
        assert_eq!(pool.free_blocks(), 0);
    }

    #[test]
    fn exhausts_to_none() {
        let mut plane = plane_4k(1, 2);
        let mut pool = Pool::new(&plane, Bytes::kib(4));
        assert!(pool.allocate_page(&mut plane).is_some());
        assert!(pool.allocate_page(&mut plane).is_some());
        assert!(pool.allocate_page(&mut plane).is_none());
    }

    #[test]
    fn wear_leveling_picks_coldest() {
        let mut plane = plane_4k(3, 1);
        let mut pool = Pool::new(&plane, Bytes::kib(4));
        // Fill all three blocks (1 page each), invalidate, erase two with
        // different wear.
        let mut blocks = Vec::new();
        for _ in 0..3 {
            let (b, p) = pool.allocate_page(&mut plane).unwrap();
            blocks.push((b, p));
        }
        for &(b, p) in &blocks {
            plane.invalidate(b, p);
        }
        // Erase block 0 twice (hot), block 1 once (cold).
        let (hot, cold) = (blocks[0].0, blocks[1].0);
        plane.erase(hot);
        plane.program_next(hot);
        plane.invalidate(hot, 0);
        plane.erase(hot);
        plane.erase(cold);
        pool.return_erased(&plane, hot);
        pool.return_erased(&plane, cold);
        let (picked, _) = pool.allocate_page(&mut plane).unwrap();
        assert_eq!(picked, cold, "coldest block promoted first");
    }

    #[test]
    fn victim_candidates_exclude_active_and_free() {
        let mut plane = plane_4k(3, 2);
        let mut pool = Pool::new(&plane, Bytes::kib(4));
        // Fill block A fully, start block B (active), leave C free.
        for _ in 0..3 {
            pool.allocate_page(&mut plane).unwrap();
        }
        let candidates: Vec<BlockId> = pool.victim_candidates(&plane).collect();
        assert_eq!(
            candidates.len(),
            1,
            "only the retired full block is a candidate"
        );
        assert_ne!(Some(candidates[0]), pool.active());
    }

    #[test]
    fn mixed_plane_pools_are_disjoint() {
        let plane = Plane::new(&[(Bytes::kib(4), 2), (Bytes::kib(8), 3)], 2);
        let p4 = Pool::new(&plane, Bytes::kib(4));
        let p8 = Pool::new(&plane, Bytes::kib(8));
        assert_eq!(p4.members().len(), 2);
        assert_eq!(p8.members().len(), 3);
        assert!(p4.members().iter().all(|id| !p8.members().contains(id)));
    }

    #[test]
    fn spares_are_withheld_until_adopted() {
        let mut plane = plane_4k(4, 1);
        let mut pool = Pool::with_spares(&plane, Bytes::kib(4), 2);
        assert_eq!(pool.members().len(), 2);
        assert_eq!(pool.spare_blocks(), 2);
        assert_eq!(pool.free_blocks(), 2);
        // Fill both working blocks; spares must not be touched.
        assert!(pool.allocate_page(&mut plane).is_some());
        assert!(pool.allocate_page(&mut plane).is_some());
        assert!(pool.allocate_page(&mut plane).is_none(), "spares invisible");
        // Retire one working block: a spare is adopted and allocatable.
        let bad = pool.members()[0];
        let spare = pool.retire_and_replace(bad).expect("spare available");
        assert_eq!(pool.spare_blocks(), 1);
        assert!(pool.members().contains(&spare));
        assert!(!pool.members().contains(&bad));
        let (got, _) = pool.allocate_page(&mut plane).expect("spare allocatable");
        assert_eq!(got, spare);
        // Retired block never reappears as a GC victim.
        assert!(pool.victim_candidates(&plane).all(|id| id != bad));
    }

    #[test]
    fn retire_exhausts_to_none() {
        let plane = plane_4k(3, 1);
        let mut pool = Pool::with_spares(&plane, Bytes::kib(4), 1);
        let first = pool.members()[0];
        let spare = pool.retire_and_replace(first).expect("one spare");
        assert!(pool.retire_and_replace(spare).is_none(), "spares exhausted");
    }

    #[test]
    fn rebuild_free_list_reflects_block_states() {
        let mut plane = plane_4k(3, 1);
        let mut pool = Pool::new(&plane, Bytes::kib(4));
        let (b, p) = pool.allocate_page(&mut plane).unwrap();
        // Simulate recovery: block b holds data, the others are erased.
        pool.rebuild_free_list(&plane);
        assert_eq!(pool.active(), None);
        assert_eq!(pool.free_blocks(), 2);
        plane.invalidate(b, p);
        plane.erase(b);
        pool.rebuild_free_list(&plane);
        assert_eq!(pool.free_blocks(), 3);
    }

    #[test]
    #[should_panic(expected = "different pool")]
    fn return_foreign_block_panics() {
        let plane = Plane::new(&[(Bytes::kib(4), 1), (Bytes::kib(8), 1)], 2);
        let mut p4 = Pool::new(&plane, Bytes::kib(4));
        p4.return_erased(&plane, BlockId(1));
    }
}
