//! Pins every request the generator streams for `hpsbench`'s
//! `paper_replay` workload: all 25 profiles at seed 42 and scale 3.
//!
//! The paper goldens pin only epoch 0 at the master seed, and the quick
//! digests only the first 300 requests per profile. This digest also
//! covers the later epochs and every wrap past the footprint edge that
//! `AddressModel` skips covered pages after, so a change to the address
//! model's bookkeeping that moves one address fails here.

use hps_core::{Direction, IoRequest};
use hps_trace::TraceSource;
use hps_workloads::{all_combos, all_individual, stream};

/// FNV-1a offset basis and prime (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// The digest of the streams below, computed before the address model's
/// covered-page set became a bitmap.
const PINNED: u64 = 0x70ef_003b_fed6_e00d;

fn fold(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fold_request(hash: &mut u64, req: &IoRequest) {
    fold(hash, req.id);
    fold(hash, req.arrival.as_ns());
    fold(hash, u64::from(req.direction == Direction::Write));
    fold(hash, req.size.as_u64());
    fold(hash, req.lba);
}

#[test]
fn paper_replay_streams_match_pinned_digest() {
    let mut hash = FNV_OFFSET;
    let mut requests = 0u64;
    for profile in all_individual().into_iter().chain(all_combos()) {
        let mut source = stream(&profile, 42, 3);
        while let Some(req) = source.next_request() {
            fold_request(&mut hash, &req);
            requests += 1;
        }
    }
    assert_eq!(requests, 716_490, "25 profiles x 3 epochs");
    assert_eq!(hash, PINNED, "digest {hash:#018x} over {requests} requests");
}
