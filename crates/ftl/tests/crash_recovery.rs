//! Crash-anywhere property test: a sudden power-off at an *arbitrary*
//! flash-mutation index, followed by [`Ftl::recover`], must always yield a
//! state where (a) every write acknowledged before the crash is still
//! readable, (b) nothing unacknowledged is mapped, and (c) the shadow-state
//! auditor's deep verification holds (checked inside `recover` in debug and
//! `sanitize` builds).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hps_core::hash::FxHashSet;
use hps_core::{Bytes, Error};
use hps_ftl::gc::GcTrigger;
use hps_ftl::{Ftl, FtlConfig, Lpn};
use hps_nand::{FaultConfig, Geometry};
use proptest::prelude::*;

/// A small hybrid device with full fault injection: program and erase
/// failures, a nonzero bit error rate, two spares per pool.
fn faulty_ftl(seed: u64) -> Ftl {
    Ftl::new(FtlConfig {
        geometry: Geometry::new(1, 1, 1, 2).unwrap(),
        pools: vec![(Bytes::kib(4), 6), (Bytes::kib(8), 3)],
        pages_per_block: 8,
        gc_trigger: GcTrigger::Threshold { min_free_blocks: 1 },
        faults: FaultConfig {
            seed,
            program_fail_prob: 2e-3,
            erase_fail_prob: 1e-3,
            rber_base: 1e-4,
            rber_wear_slope: 1e-6,
            read_disturb_rber: 1e-7,
            ecc_bits_per_kib: 8,
            max_read_retries: 3,
            retry_rber_scale: 0.5,
            spare_blocks_per_pool: 2,
            bad_block_program_fails: 2,
        },
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acked_writes_survive_a_crash_at_any_op_index(
        writes in prop::collection::vec((0u64..24, 0usize..2), 30..200),
        crash_at in 1u64..150,
        seed in 0u64..1_000,
    ) {
        let mut ftl = faulty_ftl(seed);
        ftl.arm_crash(crash_at).unwrap();

        let mut acked: FxHashSet<u64> = FxHashSet::default();
        let mut crashed = false;
        for &(lpn, plane) in &writes {
            match ftl.write_chunk(plane, Bytes::kib(4), &[Lpn(lpn)], Bytes::kib(4)) {
                Ok(_) => {
                    acked.insert(lpn);
                }
                Err(Error::PowerLoss { .. }) => {
                    crashed = true;
                    break;
                }
                Err(Error::ReadOnly { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }

        // Recovery must succeed whether or not the crash fired (it is
        // idempotent on an uncrashed device) and passes the shadow
        // auditor's deep verification internally.
        let report = ftl.recover().unwrap();
        prop_assert!(report.pages_scanned >= acked.len() as u64);

        // (a) + (b): exactly the acknowledged LPNs resolve.
        let all: Vec<Lpn> = (0..24).map(Lpn).collect();
        let (_, unmapped) = ftl.read_ops(&all);
        let unmapped: FxHashSet<u64> = unmapped.into_iter().map(|l| l.0).collect();
        for lpn in 0..24u64 {
            prop_assert_eq!(
                acked.contains(&lpn),
                !unmapped.contains(&lpn),
                "lpn {} (crashed={}, acked={})",
                lpn, crashed, acked.len()
            );
        }
        prop_assert_eq!(ftl.mapped_lpns(), acked.len());

        // (c) the recovered device keeps working (unless it degraded to
        // read-only before the crash, which the fault rates make rare).
        if ftl.read_only_reason().is_none() {
            for lpn in 0..4u64 {
                match ftl.write_chunk(0, Bytes::kib(4), &[Lpn(lpn)], Bytes::kib(4)) {
                    Ok(_) | Err(Error::ReadOnly { .. }) => {}
                    Err(e) => panic!("post-recovery: {e}"),
                }
            }
        }
    }

    #[test]
    fn double_recovery_is_stable(
        writes in prop::collection::vec(0u64..16, 20..120),
        crash_at in 1u64..80,
    ) {
        let mut ftl = faulty_ftl(77);
        ftl.arm_crash(crash_at).unwrap();
        for &lpn in &writes {
            match ftl.write_chunk(0, Bytes::kib(4), &[Lpn(lpn)], Bytes::kib(4)) {
                Ok(_) => {}
                Err(Error::PowerLoss { .. }) | Err(Error::ReadOnly { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let first = ftl.recover().unwrap();
        let mapped = ftl.mapped_lpns();
        // A second scan of the same flash must rebuild the same state.
        let second = ftl.recover().unwrap();
        prop_assert_eq!(first.pages_scanned, second.pages_scanned);
        prop_assert_eq!(first.mappings_rebuilt, second.mappings_rebuilt);
        prop_assert_eq!(ftl.mapped_lpns(), mapped);
    }
}
