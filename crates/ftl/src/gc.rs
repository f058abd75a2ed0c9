//! Garbage-collection policy.
//!
//! Victim selection is greedy: among a pool's non-active, non-free blocks,
//! pick the one with the most invalid pages (most space reclaimed per
//! erase), breaking ties toward the colder block. The migration itself —
//! moving a victim's live pages into the active block and erasing it — is
//! orchestrated by [`crate::Ftl`], because it must update the mapping and
//! resident tables.
//!
//! Two trigger policies model the paper's Implication 2:
//!
//! * **Threshold GC** (the SSD default the paper criticizes): collect only
//!   when a pool's free-block count drops to a floor.
//! * **Idle GC** (the paper's recommendation): smartphone inter-arrival
//!   times are long — 13 of 18 traces average above 200 ms, enough to hide
//!   a full GC pass — so collect during idle windows long before space
//!   pressure builds.

use crate::pool::Pool;
use hps_nand::{BlockId, Plane};

/// When garbage collection should run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcTrigger {
    /// Collect when a pool's free blocks drop to the given floor
    /// (the conventional SSD policy).
    Threshold {
        /// Free-block floor that forces a collection.
        min_free_blocks: usize,
    },
    /// Additionally collect during idle windows whenever at least this many
    /// invalid pages are reclaimable in the pool (the paper's Implication 2).
    Idle {
        /// Free-block floor that still forces a collection under pressure.
        min_free_blocks: usize,
        /// Minimum reclaimable (invalid) pages before an idle pass bothers.
        min_invalid_pages: usize,
    },
}

impl GcTrigger {
    /// The free-block floor under which GC is mandatory.
    pub fn min_free_blocks(&self) -> usize {
        match *self {
            GcTrigger::Threshold { min_free_blocks } => min_free_blocks,
            GcTrigger::Idle {
                min_free_blocks, ..
            } => min_free_blocks,
        }
    }

    /// `true` if this trigger performs idle-time collection.
    pub fn collects_when_idle(&self) -> bool {
        matches!(self, GcTrigger::Idle { .. })
    }
}

impl Default for GcTrigger {
    fn default() -> Self {
        GcTrigger::Threshold { min_free_blocks: 2 }
    }
}

/// Reusable buffers for GC migration, owned by [`crate::Ftl`] and threaded
/// through every victim collection.
///
/// The only per-victim allocation the migration loop used to make was the
/// list of the victim's live page indices; it now lands in
/// [`GcScratch::live_pages`], which keeps its high-water-mark capacity
/// (bounded by `pages_per_block`) so steady-state GC allocates nothing.
#[derive(Debug, Default)]
pub struct GcScratch {
    /// Live (valid) page indices of the current victim block.
    pub live_pages: Vec<usize>,
}

/// Picks the greedy victim for a pool: the candidate block with the most
/// invalid pages (ties broken toward the lower erase count). Returns `None`
/// when no candidate holds any invalid page — erasing such a block would
/// reclaim nothing.
pub fn select_victim(plane: &Plane, pool: &Pool) -> Option<BlockId> {
    let _prof = hps_obs::profile::phase(hps_obs::Phase::GcSelect);
    pool.victim_candidates(plane)
        .filter(|&id| plane.block(id).invalid_pages() > 0)
        .max_by(|&a, &b| {
            let blk_a = plane.block(a);
            let blk_b = plane.block(b);
            blk_a
                .invalid_pages()
                .cmp(&blk_b.invalid_pages())
                .then(blk_b.erase_count().cmp(&blk_a.erase_count()))
        })
}

/// `true` when an idle window should trigger a pass for this pool under the
/// given trigger policy.
pub fn idle_pass_worthwhile(plane: &Plane, pool: &Pool, trigger: GcTrigger) -> bool {
    match trigger {
        GcTrigger::Threshold { .. } => false,
        GcTrigger::Idle {
            min_invalid_pages, ..
        } => {
            if plane.invalid_pages(pool.page_size()) < min_invalid_pages {
                return false;
            }
            // Only bother when the best victim reclaims a meaningful slice
            // of its block: migrating nearly-all-valid blocks in every idle
            // window would multiply write amplification for no latency win.
            match select_victim(plane, pool) {
                Some(victim) => {
                    let block = plane.block(victim);
                    block.invalid_pages() * 4 >= block.pages_per_block()
                }
                None => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::Bytes;

    fn setup(blocks: usize, pages: usize) -> (Plane, Pool) {
        let plane = Plane::new(&[(Bytes::kib(4), blocks)], pages);
        let pool = Pool::new(&plane, Bytes::kib(4));
        (plane, pool)
    }

    #[test]
    fn no_victim_on_fresh_plane() {
        let (plane, pool) = setup(3, 2);
        assert_eq!(select_victim(&plane, &pool), None);
    }

    #[test]
    fn greedy_picks_most_invalid() {
        let (mut plane, mut pool) = setup(3, 4);
        // Fill two blocks; invalidate 1 page in the first, 3 in the second.
        let mut placed: Vec<(BlockId, usize)> = Vec::new();
        for _ in 0..8 {
            placed.push(pool.allocate_page(&mut plane).unwrap());
        }
        let first = placed[0].0;
        let second = placed[4].0;
        plane.invalidate(first, 0);
        for p in 0..3 {
            plane.invalidate(second, p);
        }
        // Make a third block active so both full blocks are candidates.
        pool.allocate_page(&mut plane).unwrap();
        assert_eq!(select_victim(&plane, &pool), Some(second));
    }

    #[test]
    fn blocks_with_only_valid_pages_are_not_victims() {
        let (mut plane, mut pool) = setup(2, 2);
        pool.allocate_page(&mut plane).unwrap();
        pool.allocate_page(&mut plane).unwrap();
        pool.allocate_page(&mut plane).unwrap(); // second block active
        assert_eq!(select_victim(&plane, &pool), None);
    }

    #[test]
    fn trigger_accessors() {
        let t = GcTrigger::Threshold { min_free_blocks: 3 };
        assert_eq!(t.min_free_blocks(), 3);
        assert!(!t.collects_when_idle());
        let i = GcTrigger::Idle {
            min_free_blocks: 1,
            min_invalid_pages: 10,
        };
        assert_eq!(i.min_free_blocks(), 1);
        assert!(i.collects_when_idle());
    }

    #[test]
    fn idle_pass_requires_idle_trigger_and_garbage() {
        let (mut plane, mut pool) = setup(3, 2);
        let idle = GcTrigger::Idle {
            min_free_blocks: 1,
            min_invalid_pages: 1,
        };
        assert!(!idle_pass_worthwhile(&plane, &pool, idle), "no garbage yet");
        let (b, p) = pool.allocate_page(&mut plane).unwrap();
        pool.allocate_page(&mut plane).unwrap(); // fill block
        plane.invalidate(b, p);
        pool.allocate_page(&mut plane).unwrap(); // retire it (new active)
        assert!(idle_pass_worthwhile(&plane, &pool, idle));
        let thr = GcTrigger::Threshold { min_free_blocks: 1 };
        assert!(
            !idle_pass_worthwhile(&plane, &pool, thr),
            "threshold never idles"
        );
    }
}
