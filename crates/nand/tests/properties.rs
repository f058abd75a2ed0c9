//! Property-based tests of the flash page state a plane keeps: arbitrary
//! program/invalidate/revalidate/erase sequences agree with a per-block
//! reference model and never violate the physical invariants.

use hps_core::Bytes;
use hps_nand::{BlockId, PageState, Plane, WearStats};
use proptest::prelude::*;

/// The reference model: each block a page-state vector (the write
/// pointer is its count of non-free pages) and an erase count.
type Model = Vec<(Vec<PageState>, u64)>;

/// Indices of a model block's pages in `state`, ascending.
fn indices(pages: &[PageState], state: PageState) -> Vec<usize> {
    (0..pages.len()).filter(|&p| pages[p] == state).collect()
}

/// An operation on block `.0` (taken modulo the block count).
#[derive(Clone, Debug)]
enum Op {
    /// Programs up to this many pages.
    Program(usize, usize),
    /// Invalidates the k-th valid page (modulo the valid count).
    Invalidate(usize, usize),
    /// Revalidates the k-th invalid page (modulo the invalid count).
    Revalidate(usize, usize),
    /// Invalidates every valid page, then erases the block.
    Erase(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..8, 1usize..130).prop_map(|(b, n)| Op::Program(b, n)),
        3 => (0usize..8, 0usize..2048).prop_map(|(b, k)| Op::Invalidate(b, k)),
        1 => (0usize..8, 0usize..2048).prop_map(|(b, k)| Op::Revalidate(b, k)),
        1 => (0usize..8).prop_map(Op::Erase),
    ]
}

/// Applies `op` to the plane and to the model, checking what
/// `program_next` returns; returns the block it touched.
fn apply(plane: &mut Plane, model: &mut Model, op: &Op) -> usize {
    let (Op::Program(b, _) | Op::Invalidate(b, _) | Op::Revalidate(b, _) | Op::Erase(b)) = *op;
    let b = b % model.len();
    let (id, (pages, erases)) = (BlockId(b), &mut model[b]);
    let nth = |state, k: usize| {
        let found = indices(pages, state);
        (!found.is_empty()).then(|| found[k % found.len()])
    };
    match *op {
        Op::Program(_, n) => {
            for _ in 0..n {
                let next = pages.iter().position(|&s| s == PageState::Free);
                assert_eq!(plane.program_next(id), next);
                if let Some(p) = next {
                    pages[p] = PageState::Valid;
                }
            }
        }
        Op::Invalidate(_, k) => {
            if let Some(p) = nth(PageState::Valid, k) {
                plane.invalidate(id, p);
                pages[p] = PageState::Invalid;
            }
        }
        Op::Revalidate(_, k) => {
            if let Some(p) = nth(PageState::Invalid, k) {
                plane.revalidate(id, p);
                pages[p] = PageState::Valid;
            }
        }
        Op::Erase(_) => {
            for p in indices(pages, PageState::Valid) {
                plane.invalidate(id, p);
            }
            plane.erase(id);
            pages.fill(PageState::Free);
            *erases += 1;
        }
    }
    b
}

proptest! {
    #[test]
    fn plane_matches_per_block_reference_model(
        pages in prop_oneof![Just(1usize), Just(63), Just(64), Just(65), Just(1024)],
        blocks_4k in 1usize..4,
        blocks_8k in 2usize..4,
        ops in prop::collection::vec(op_strategy(), 0..150),
    ) {
        let mut plane = Plane::new(&[(Bytes::kib(4), blocks_4k), (Bytes::kib(8), blocks_8k)], pages);
        let mut model: Model = vec![(vec![PageState::Free; pages], 0); blocks_4k + blocks_8k];
        let mut live = Vec::new();
        for op in &ops {
            let touched = apply(&mut plane, &mut model, op);
            // Every block, not only the touched one: an operation that
            // reached into a neighbour's words shows up here, since
            // `valid_page_indices_into` reads the raw bits, past the write
            // pointer included.
            for (i, (pages_model, erases)) in model.iter().enumerate() {
                let blk = plane.block(BlockId(i));
                let ctx = format!("{op:?} on block {touched}, checking block {i}");
                for (p, &state) in pages_model.iter().enumerate() {
                    prop_assert_eq!(blk.page_state(p), state, "{} page {}", ctx, p);
                }
                let valid = indices(pages_model, PageState::Valid);
                let programmed = pages - indices(pages_model, PageState::Free).len();
                let size = Bytes::kib(if i < blocks_4k { 4 } else { 8 });
                prop_assert_eq!(
                    (blk.page_size(), blk.pages_per_block(), blk.programmed_pages(), blk.free_pages()),
                    (size, pages, programmed, pages - programmed),
                    "{}", ctx
                );
                prop_assert_eq!(
                    (blk.valid_pages(), blk.invalid_pages(), blk.is_erased(), blk.erase_count()),
                    (valid.len(), programmed - valid.len(), programmed == 0, *erases),
                    "{}", ctx
                );
                live.clear();
                blk.valid_page_indices_into(&mut live);
                prop_assert_eq!(&live, &valid, "{}", ctx);
            }
        }
    }

    #[test]
    fn plane_pool_accounting_sums_blocks(
        blocks_4k in 1usize..8,
        blocks_8k in 1usize..8,
        programs in 0usize..40,
    ) {
        let mut plane = Plane::new(&[(Bytes::kib(4), blocks_4k), (Bytes::kib(8), blocks_8k)], 4);
        // Program round-robin over all blocks, invalidating every other
        // programmed page.
        let total_blocks = plane.blocks_total();
        let mut invalidated = 0;
        for i in 0..programs {
            let id = BlockId(i % total_blocks);
            if let Some(page) = plane.program_next(id).filter(|_| i % 2 == 0) {
                plane.invalidate(id, page);
                invalidated += 1;
            }
        }
        for size in [Bytes::kib(4), Bytes::kib(8)] {
            let summed: usize = plane.iter_pool(size).map(|(_, b)| b.invalid_pages()).sum();
            prop_assert_eq!(plane.invalid_pages(size), summed);
        }
        let invalid = plane.invalid_pages(Bytes::kib(4)) + plane.invalid_pages(Bytes::kib(8));
        let valid: usize = plane.iter().map(|(_, b)| b.valid_pages()).sum();
        prop_assert_eq!(invalid, invalidated);
        prop_assert_eq!(valid + invalid, programs.min(total_blocks * 4));
    }

    #[test]
    fn wear_stats_bounds(counts in prop::collection::vec(0u64..1000, 1..100)) {
        let stats = WearStats::from_counts(counts.iter().copied());
        prop_assert_eq!(stats.blocks(), counts.len() as u64);
        prop_assert_eq!(stats.total(), counts.iter().sum::<u64>());
        prop_assert!(stats.min() <= stats.max());
        prop_assert!(stats.mean() <= stats.max() as f64 + 1e-9);
        prop_assert!(stats.mean() >= stats.min() as f64 - 1e-9);
        prop_assert!(stats.evenness() >= 1.0 - 1e-9);
    }
}
