//! Concurrent-application (combo) traces.
//!
//! The paper's 7 combo traces come from genuinely concurrent runs (Music
//! while WebBrowsing, etc.), and their Table III/IV rows differ from any
//! statistical mixture of the member applications — shared buffers raise
//! the combined request and data rates. The default combo generation
//! therefore uses the combo's *own* table row ([`crate::profiles`]); this
//! module adds the complementary tool: [`merge_traces`], a true
//! time-interleaved merge of two member traces, used by the concurrency
//! example and the Fig. 7 cross-check.

use crate::generator::generate;
use crate::profile::AppProfile;
use crate::profiles;
use hps_core::IoRequest;
use hps_trace::{Trace, TraceRecord};

/// A combo definition: which table row it owns and which two members
/// compose it.
#[derive(Clone, Debug)]
pub struct ComboProfile {
    /// The combo's own Table III/IV row.
    pub profile: AppProfile,
    /// First member's individual profile.
    pub member_a: AppProfile,
    /// Second member's individual profile.
    pub member_b: AppProfile,
}

/// The 7 combos with their member applications.
pub fn all_combo_definitions() -> Vec<ComboProfile> {
    let combos = profiles::all_combos();
    let members: [(&str, &str); 7] = [
        ("Music", "WebBrowsing"),
        ("Radio", "WebBrowsing"),
        ("Music", "Facebook"),
        ("Radio", "Facebook"),
        ("Music", "Messaging"),
        ("Radio", "Messaging"),
        ("Facebook", "Messaging"),
    ];
    combos
        .into_iter()
        .zip(members)
        .map(|(profile, (a, b))| ComboProfile {
            profile,
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            member_a: profiles::by_name(a).expect("member exists"),
            #[expect(clippy::expect_used, reason = "infallible by construction")]
            member_b: profiles::by_name(b).expect("member exists"),
        })
        .collect()
}

/// Generates a combo trace from its own table row (the default, matching
/// the paper's measured statistics).
pub fn generate_combo(combo: &ComboProfile, seed: u64) -> Trace {
    generate(&combo.profile, seed)
}

/// Generates a combo trace by actually running both members concurrently:
/// each member is regenerated over the combo's duration with its share of
/// the combo's request count, then the two streams are merged by arrival
/// time. Useful for studying how interleaving (not just mixture statistics)
/// affects the device.
pub fn generate_merged(combo: &ComboProfile, seed: u64) -> Trace {
    let duration = combo.profile.duration_s;
    let rate_a = combo.member_a.arrival_rate();
    let rate_b = combo.member_b.arrival_rate();
    let share_a = rate_a / (rate_a + rate_b);
    let n = combo.profile.num_reqs;
    let n_a = ((n as f64 * share_a) as u64).clamp(2, n - 2);
    let n_b = n - n_a;

    let mut a = combo.member_a.clone();
    a.num_reqs = n_a;
    a.duration_s = duration;
    let mut b = combo.member_b.clone();
    b.num_reqs = n_b;
    b.duration_s = duration;

    let trace_a = generate(&a, seed);
    let trace_b = generate(&b, seed.wrapping_add(1));
    merge_traces(&trace_a, &trace_b, combo.profile.name)
}

/// Merges two traces by arrival time into a new trace named `name`,
/// re-assigning request ids to the merged order. Member address spaces are
/// kept disjoint by offsetting the second trace's addresses past the
/// first's footprint (two applications never share files).
#[expect(clippy::expect_used, reason = "infallible by construction")]
pub fn merge_traces(a: &Trace, b: &Trace, name: impl Into<String>) -> Trace {
    let offset = a
        .records()
        .iter()
        .map(|r| r.request.end_lba())
        .max()
        .unwrap_or(0)
        .next_multiple_of(4096);
    let mut merged: Vec<TraceRecord> = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.records().iter().peekable();
    let mut ib = b.records().iter().peekable();
    loop {
        let take_a = match (ia.peek(), ib.peek()) {
            (Some(ra), Some(rb)) => ra.arrival() <= rb.arrival(),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        #[expect(clippy::expect_used, reason = "infallible by construction")]
        let (rec, shift) = if take_a {
            (*ia.next().expect("peeked"), 0)
        } else {
            (*ib.next().expect("peeked"), offset)
        };
        let req = rec.request;
        let id = merged.len() as u64;
        merged.push(TraceRecord::new(IoRequest::new(
            id,
            req.arrival,
            req.direction,
            req.size,
            req.lba + shift,
        )));
    }
    Trace::from_records(name, merged).expect("merge preserves arrival order")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::{Bytes, Direction, SimTime};

    fn mini_trace(name: &str, arrivals_ms: &[u64], lba0: u64) -> Trace {
        let mut t = Trace::new(name);
        for (i, &ms) in arrivals_ms.iter().enumerate() {
            t.push_request(IoRequest::new(
                i as u64,
                SimTime::from_ms(ms),
                Direction::Write,
                Bytes::kib(4),
                lba0 + i as u64 * 4096,
            ));
        }
        t
    }

    #[test]
    fn merge_interleaves_by_arrival() {
        let a = mini_trace("a", &[0, 10, 20], 0);
        let b = mini_trace("b", &[5, 15], 0);
        let m = merge_traces(&a, &b, "a/b");
        let arrivals: Vec<u64> = m.iter().map(|r| r.arrival().as_ms()).collect();
        assert_eq!(arrivals, vec![0, 5, 10, 15, 20]);
        assert_eq!(m.name(), "a/b");
        // Ids re-assigned in merged order.
        let ids: Vec<u64> = m.iter().map(|r| r.request.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn merge_keeps_address_spaces_disjoint() {
        let a = mini_trace("a", &[0, 10], 0); // ends at 2*4096
        let b = mini_trace("b", &[5], 0);
        let m = merge_traces(&a, &b, "a/b");
        let b_rec = m.iter().find(|r| r.arrival().as_ms() == 5).unwrap();
        assert!(b_rec.request.lba >= 2 * 4096, "b offset past a's footprint");
    }

    #[test]
    fn merge_with_empty_is_identity_modulo_ids() {
        let a = mini_trace("a", &[0, 1], 0);
        let empty = Trace::new("e");
        let m = merge_traces(&a, &empty, "m");
        assert_eq!(m.len(), 2);
        let m2 = merge_traces(&empty, &a, "m2");
        assert_eq!(m2.len(), 2);
    }

    #[test]
    fn seven_combo_definitions() {
        let defs = all_combo_definitions();
        assert_eq!(defs.len(), 7);
        assert_eq!(defs[0].profile.name, "Music/WB");
        assert_eq!(defs[0].member_a.name, "Music");
        assert_eq!(defs[0].member_b.name, "WebBrowsing");
        assert_eq!(defs[6].profile.name, "FB/Msg");
    }

    #[test]
    fn generated_combo_matches_own_row() {
        let defs = all_combo_definitions();
        let t = generate_combo(&defs[0], 9);
        assert_eq!(t.len() as u64, defs[0].profile.num_reqs);
        assert_eq!(t.name(), "Music/WB");
    }

    #[test]
    fn merged_combo_has_target_count_and_order() {
        let defs = all_combo_definitions();
        let t = generate_merged(&defs[6], 9); // FB/Msg, smallest
        assert_eq!(t.len() as u64, defs[6].profile.num_reqs);
        t.validate().expect("merged trace well-formed");
    }
}
