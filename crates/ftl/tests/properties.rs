//! Property-based tests of the FTL: arbitrary write/overwrite workloads
//! never lose data, never double-count space, and always leave the flash
//! state consistent; and the hot-path table structures (the flat
//! [`MappingTable`] and [`ResidentTable`]) behave exactly like their
//! plain-`HashMap` reference models under arbitrary operation sequences.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps_core::hash::{FxHashMap, FxHashSet};
use hps_core::Bytes;
use hps_ftl::gc::GcTrigger;
use hps_ftl::{Ftl, FtlConfig, Lpn, MappingTable, Ppn, PpnLayout, ResidentTable};
use hps_nand::{BlockId, Geometry, PageAddr};
use proptest::prelude::*;

fn ppn(plane: usize, block: usize, page: usize) -> Ppn {
    Ppn {
        plane,
        addr: PageAddr {
            block: BlockId(block),
            page,
        },
    }
}

fn small_ftl(planes: usize, blocks: usize, pages: usize, hybrid: bool) -> Ftl {
    let pools = if hybrid {
        vec![(Bytes::kib(4), blocks), (Bytes::kib(8), blocks.div_ceil(2))]
    } else {
        vec![(Bytes::kib(4), blocks)]
    };
    Ftl::new(FtlConfig {
        geometry: Geometry::new(1, 1, 1, planes).unwrap(),
        pools,
        pages_per_block: pages,
        gc_trigger: GcTrigger::Threshold { min_free_blocks: 1 },
        faults: hps_nand::FaultConfig::NONE,
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_data_loss_under_random_overwrites(
        writes in prop::collection::vec((0u64..24, 0usize..4), 1..300),
    ) {
        // 4 blocks x 8 pages x 4 planes = 128 pages; LPN space of 24 forces
        // constant overwriting, hence GC with live migration.
        let mut ftl = small_ftl(4, 4, 8, false);
        let mut written: FxHashSet<u64> = FxHashSet::default();
        for (lpn, plane) in writes {
            ftl.write_chunk(plane, Bytes::kib(4), &[Lpn(lpn)], Bytes::kib(4)).unwrap();
            written.insert(lpn);
        }
        // Every LPN ever written must still resolve; nothing else may.
        let all: Vec<Lpn> = (0..24).map(Lpn).collect();
        let (ops, unmapped) = ftl.read_ops(&all);
        let unmapped: FxHashSet<u64> = unmapped.into_iter().map(|l| l.0).collect();
        for lpn in 0..24u64 {
            prop_assert_eq!(written.contains(&lpn), !unmapped.contains(&lpn), "lpn {}", lpn);
        }
        prop_assert_eq!(ops.len(), written.len());
        prop_assert_eq!(ftl.mapped_lpns(), written.len());
    }

    #[test]
    fn hybrid_pages_share_and_split_correctly(
        // LPN bases 0..6 keep live data within the small 8 KiB pool even
        // when every pair ends up there (6 pairs vs 16 pages).
        writes in prop::collection::vec((0u64..6, prop::bool::ANY), 1..150),
    ) {
        let mut ftl = small_ftl(2, 4, 8, true);
        let mut written: FxHashSet<u64> = FxHashSet::default();
        for (base, use_8k) in writes {
            if use_8k {
                let pair = [Lpn(base * 2), Lpn(base * 2 + 1)];
                ftl.write_chunk(0, Bytes::kib(8), &pair, Bytes::kib(8)).unwrap();
                written.insert(pair[0].0);
                written.insert(pair[1].0);
            } else {
                ftl.write_chunk(1, Bytes::kib(4), &[Lpn(base)], Bytes::kib(4)).unwrap();
                written.insert(base);
            }
        }
        let all: Vec<Lpn> = written.iter().map(|&l| Lpn(l)).collect();
        let (_, unmapped) = ftl.read_ops(&all);
        prop_assert!(unmapped.is_empty(), "lost LPNs: {unmapped:?}");
    }

    #[test]
    fn space_utilization_in_unit_interval(
        // 12 distinct LPNs fit the 8 KiB pool (3 blocks x 8 pages) with a
        // reserve block to spare even if every write pads into it.
        writes in prop::collection::vec((0u64..12, prop::bool::ANY), 1..150),
    ) {
        let mut ftl = small_ftl(2, 6, 8, true);
        for (lpn, pad) in writes {
            // Occasionally pad a lone 4 KiB payload into an 8 KiB page.
            if pad {
                ftl.write_chunk(0, Bytes::kib(8), &[Lpn(lpn)], Bytes::kib(4)).unwrap();
            } else {
                ftl.write_chunk(0, Bytes::kib(4), &[Lpn(lpn)], Bytes::kib(4)).unwrap();
            }
        }
        let util = ftl.space().utilization();
        prop_assert!((0.0..=1.0).contains(&util), "utilization {util}");
        prop_assert!(ftl.space().flash_consumed() >= ftl.space().data_written());
        prop_assert!(ftl.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn mapping_table_matches_reference_model(
        // (op, raw lpn, plane, page): remap/remap/unmap/lookup over two
        // regions a million LPNs apart, the second at the table's end.
        ops in prop::collection::vec((0u8..4, 0u64..1200, 0usize..4, 0usize..512), 1..400),
    ) {
        let layout = PpnLayout::new(4, 16, 32).unwrap();
        let mut table = MappingTable::new((1 << 20) + 600, layout);
        let mut model: FxHashMap<u64, Ppn> = FxHashMap::default();
        for (op, raw, plane, page) in ops {
            let lpn = if raw < 600 { raw } else { (1 << 20) + (raw - 600) };
            let loc = ppn(plane, page / 32, page % 32);
            match op {
                0 | 1 => prop_assert_eq!(table.remap(Lpn(lpn), loc), model.insert(lpn, loc)),
                2 => prop_assert_eq!(table.unmap(Lpn(lpn)), model.remove(&lpn)),
                _ => prop_assert_eq!(table.lookup(Lpn(lpn)), model.get(&lpn).copied()),
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
        }
        for (&lpn, &loc) in &model {
            prop_assert_eq!(table.lookup(Lpn(lpn)), Some(loc));
        }
    }

    #[test]
    fn resident_table_matches_reference_model(
        // (op, page, pick, pair): occupy/occupy/evict/take against a
        // FxHashMap<Ppn, Vec<Lpn>> model. Both sides use swap-remove
        // semantics, so even the resident *order* must agree.
        ops in prop::collection::vec((0u8..4, 0usize..32, 0usize..4, prop::bool::ANY), 1..300),
    ) {
        let mut table = ResidentTable::new(PpnLayout::new(1, 4, 8).unwrap());
        let mut model: FxHashMap<Ppn, Vec<Lpn>> = FxHashMap::default();
        let mut next = 0u64;
        for (op, page, pick, pair) in ops {
            let p = ppn(0, page / 8, page % 8);
            match op {
                0 | 1 => {
                    if let std::collections::hash_map::Entry::Vacant(slot) = model.entry(p) {
                        let lpns = if pair {
                            vec![Lpn(next), Lpn(next + 1)]
                        } else {
                            vec![Lpn(next)]
                        };
                        next += 2;
                        table.occupy(p, &lpns);
                        slot.insert(lpns);
                    }
                }
                2 => {
                    if let Some(lpns) = model.get_mut(&p) {
                        let idx = pick % lpns.len();
                        let lpn = lpns[idx];
                        let last = table.evict(p, lpn);
                        lpns.swap_remove(idx);
                        prop_assert_eq!(last, lpns.is_empty());
                        if lpns.is_empty() {
                            model.remove(&p);
                        }
                    }
                }
                _ => {
                    let taken = table.take(p);
                    let expected = model.remove(&p).unwrap_or_default();
                    prop_assert_eq!(&*taken, &expected[..]);
                }
            }
            prop_assert_eq!(table.occupied_pages(), model.len());
        }
        for (p, lpns) in &model {
            prop_assert_eq!(&*table.residents(*p), &lpns[..]);
        }
    }

    #[test]
    fn gc_preserves_wear_monotonicity(overwrites in 10usize..200) {
        let mut ftl = small_ftl(1, 4, 4, false);
        for i in 0..overwrites {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn((i % 3) as u64)], Bytes::kib(4)).unwrap();
        }
        let wear = ftl.wear();
        // Total erases in wear stats equals the FTL's erase counter.
        prop_assert_eq!(wear.total(), ftl.stats().erases);
        // Simple WL keeps evenness bounded on hot workloads.
        if wear.total() >= 8 {
            prop_assert!(wear.evenness() < 3.0, "evenness {}", wear.evenness());
        }
    }
}
