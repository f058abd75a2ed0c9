//! Channel and die occupancy: the resource model.
//!
//! Within one request, sub-operations parallelize across the device's two
//! channels and four dies (Table V geometry); across requests the device is
//! FIFO (eMMC 4.5 has no command queueing). [`ResourceSchedule`] keeps a
//! free-at horizon per channel and per die and maps each
//! [`FlashOp`] to its completion time:
//!
//! * **read**: the die senses the page (`read` latency), then the data
//!   crosses the channel (`transfer`);
//! * **program**: the data crosses the channel first, then the die programs
//!   (`program` latency);
//! * **erase**: die-only, no channel traffic.
//!
//! This is the granularity at which SSDsim models an SSD, which is exactly
//! what the paper used for its case study: an operation starts at
//! `max(release, channel free, die free)`, and reserving it moves each
//! horizon it occupies forward to its finish.
//!
//! Per-op plane→channel/die decoding and Table V latency math are
//! precomputed into lookup tables at construction, replacing five
//! divisions and a branch-and-multiply per op with three array loads. A
//! test-only reference scheduler re-derives everything from the geometry
//! and timing models on every op; property tests pin the two to identical
//! [`ScheduledOp`] placements.

use hps_core::{Bytes, SimDuration, SimTime};
use hps_ftl::{FlashOp, OpKind};
use hps_nand::{Geometry, NandTiming};

/// How the channel behaves during a flash operation.
///
/// The paper's case study runs SSDsim without advanced commands, where the
/// channel stays occupied for the whole operation — which is why
/// Implication 1 observes that sub-requests of a large request "cannot be
/// processed in a complete parallel manner" on a 2-channel eMMC. The
/// interleaved mode models ONFI die interleaving (transfer releases the
/// channel while the die works), the behaviour of SSD-class advanced
/// commands; it is kept for the parallelism ablation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChannelMode {
    /// eMMC 4.5 / SSDsim-baseline: the channel is held for the entire
    /// operation (transfer + cell time). Parallelism equals channel count.
    #[default]
    Legacy,
    /// ONFI interleaving: the channel is busy only during data transfer;
    /// dies on the same channel overlap their cell operations.
    Interleaved,
}

/// Resolved placement and timing of one scheduled flash operation — what
/// the telemetry layer needs to draw the op on its channel/die track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Channel the operation occupied.
    pub channel: usize,
    /// Die (flat index) the operation occupied.
    pub die: usize,
    /// When the operation first occupied a resource.
    pub start: SimTime,
    /// When the operation completed.
    pub finish: SimTime,
}

/// Precomputed latency components of one op class (kind × page size).
#[derive(Clone, Copy, Debug)]
struct ClassCosts {
    /// Cell time: sense for reads, program for writes, erase for erases.
    cell: SimDuration,
    /// Channel transfer time (zero for erases).
    xfer: SimDuration,
    /// `cell + xfer`, the legacy-mode occupancy and busy-accounting total.
    total: SimDuration,
}

/// Busy-until horizons for every channel and die.
///
/// Resource slots are channels first (`0..channels`), then flat dies
/// (`channels..channels + dies_total`).
#[derive(Clone, Debug)]
pub struct ResourceSchedule {
    geometry: Geometry,
    timing: NandTiming,
    mode: ChannelMode,
    /// When each resource slot is next free.
    free_at: Vec<SimTime>,
    /// Channel index per flat plane (equals the channel's resource slot).
    plane_channel: Box<[u32]>,
    /// Flat die index per plane; the die's resource slot is offset by
    /// `geometry.channels`.
    plane_die: Box<[u32]>,
    /// Costs indexed `[read_4k, program_4k, read_8k, program_8k]`.
    class_costs: [ClassCosts; 4],
    busy: SimDuration,
}

impl ResourceSchedule {
    /// Creates an all-idle schedule with the given channel semantics.
    pub fn new(geometry: Geometry, timing: NandTiming, mode: ChannelMode) -> Self {
        let planes = geometry.planes_total();
        let plane_channel = (0..planes)
            .map(|p| geometry.channel_of_plane(p) as u32)
            .collect();
        let plane_die = (0..planes)
            .map(|p| geometry.die_of_plane(p) as u32)
            .collect();
        let costs = |cell: SimDuration, xfer: SimDuration| ClassCosts {
            cell,
            xfer,
            total: cell + xfer,
        };
        let x4 = timing.transfer(Bytes::kib(4));
        let x8 = timing.transfer(Bytes::kib(8));
        ResourceSchedule {
            geometry,
            timing,
            mode,
            free_at: vec![SimTime::ZERO; geometry.channels + geometry.dies_total()],
            plane_channel,
            plane_die,
            class_costs: [
                costs(timing.page_4k.read, x4),
                costs(timing.page_4k.program, x4),
                costs(timing.page_8k.read, x8),
                costs(timing.page_8k.program, x8),
            ],
            busy: SimDuration::ZERO,
        }
    }

    /// The geometry this schedule covers.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Latency components for one op. The page-size check mirrors
    /// [`NandTiming::page_timing`], including its unsupported-size panic.
    #[inline]
    fn costs(&self, kind: OpKind, page_size: Bytes) -> ClassCosts {
        if kind == OpKind::Erase {
            // Erase latency is page-size independent, but the timing model
            // still rejects sizes it does not know (as the reference
            // scheduler does by querying page timings for every op).
            let _ = self.page_class(page_size);
            return ClassCosts {
                cell: self.timing.erase,
                xfer: SimDuration::ZERO,
                total: self.timing.erase,
            };
        }
        let idx = self.page_class(page_size) + (kind == OpKind::Program) as usize;
        self.class_costs[idx]
    }

    /// `0` for 4 KiB pages, `2` for 8 KiB; panics like
    /// [`NandTiming::page_timing`] on anything else.
    #[inline]
    fn page_class(&self, page_size: Bytes) -> usize {
        if page_size == Bytes::kib(4) {
            0
        } else if page_size == Bytes::kib(8) {
            2
        } else {
            // Canonical panic message lives in the timing model.
            let _ = self.timing.page_timing(page_size);
            unreachable!("page_timing rejects unsupported sizes")
        }
    }

    /// Extends resource slot `r`'s horizon to `until`. Horizons only move
    /// forward; a reservation ending before the current horizon leaves it
    /// unchanged.
    #[inline]
    fn reserve(&mut self, r: usize, until: SimTime) {
        let slot = &mut self.free_at[r];
        if until > *slot {
            *slot = until;
        }
    }

    /// Pre-op channel/die horizons, for the monotonicity audit.
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    fn horizons_of(&self, op: &FlashOp) -> (SimTime, SimTime) {
        let channel = self.plane_channel[op.plane] as usize;
        let die_slot = self.geometry.channels + self.plane_die[op.plane] as usize;
        (self.free_at[channel], self.free_at[die_slot])
    }

    /// Event-time monotonicity audit for one scheduled operation: the op
    /// must run forward in time, never before its release, and reserving it
    /// must never rewind a resource's free-at horizon.
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    fn audit_scheduled(
        &self,
        earliest: SimTime,
        horizons_before: (SimTime, SimTime),
        scheduled: ScheduledOp,
    ) {
        use hps_core::audit::{enforce, InvariantId, Violation};
        let regression = |detail: String| {
            enforce(Err(Violation {
                invariant: InvariantId::EventTimeRegression,
                sim_time_ns: scheduled.start.as_ns(),
                request: None,
                addr: None,
                detail,
            }));
        };
        if scheduled.finish < scheduled.start || scheduled.start < earliest {
            regression(format!(
                "op scheduled start={} finish={} against release time {earliest}",
                scheduled.start, scheduled.finish
            ));
        }
        let (chan_before, die_before) = horizons_before;
        let chan_after = self.free_at[scheduled.channel];
        let die_after = self.free_at[self.geometry.channels + scheduled.die];
        if chan_after < chan_before || die_after < die_before {
            regression(format!(
                "resource horizon rewound: channel {} -> {}, die {} -> {}",
                chan_before, chan_after, die_before, die_after
            ));
        }
    }

    /// Places one op against the horizons. Timing math is identical to the
    /// reference scheduler's; only the bookkeeping differs (lookup tables
    /// and monotone reserves).
    #[inline]
    fn schedule_op_inner(&mut self, op: &FlashOp, earliest: SimTime) -> ScheduledOp {
        let channel = self.plane_channel[op.plane] as usize;
        let die = self.plane_die[op.plane] as usize;
        let die_slot = self.geometry.channels + die;
        let c = self.costs(op.kind, op.page_size);
        if self.mode == ChannelMode::Legacy && op.kind != OpKind::Erase {
            // Channel held for the entire operation: channel and die are
            // both occupied from start to finish.
            let start = earliest
                .max(self.free_at[channel])
                .max(self.free_at[die_slot]);
            let done = start + c.total;
            self.reserve(channel, done);
            self.reserve(die_slot, done);
            self.busy += c.total;
            return ScheduledOp {
                channel,
                die,
                start,
                finish: done,
            };
        }
        match op.kind {
            OpKind::Read => {
                // Sense on the die, then move data out over the channel.
                let sense_start = earliest.max(self.free_at[die_slot]);
                let sense_done = sense_start + c.cell;
                self.reserve(die_slot, sense_done);
                let xfer_start = sense_done.max(self.free_at[channel]);
                let done = xfer_start + c.xfer;
                self.reserve(channel, done);
                self.busy += c.total;
                ScheduledOp {
                    channel,
                    die,
                    start: sense_start,
                    finish: done,
                }
            }
            OpKind::Program => {
                // Move data in over the channel, then program the cells.
                let xfer_start = earliest.max(self.free_at[channel]);
                let xfer_done = xfer_start + c.xfer;
                self.reserve(channel, xfer_done);
                let prog_start = xfer_done.max(self.free_at[die_slot]);
                let done = prog_start + c.cell;
                self.reserve(die_slot, done);
                self.busy += c.total;
                ScheduledOp {
                    channel,
                    die,
                    start: xfer_start,
                    finish: done,
                }
            }
            OpKind::Erase => {
                let start = earliest.max(self.free_at[die_slot]);
                let done = start + c.cell;
                self.reserve(die_slot, done);
                self.busy += c.cell;
                ScheduledOp {
                    channel,
                    die,
                    start,
                    finish: done,
                }
            }
        }
    }

    /// Schedules a batch of operations (all released at `earliest`) and
    /// returns the time the last one completes; `earliest` when empty.
    pub fn schedule_batch(&mut self, ops: &[FlashOp], earliest: SimTime) -> SimTime {
        self.schedule_batch_observed(ops, earliest, |_, _| {})
    }

    /// [`ResourceSchedule::schedule_batch`], invoking `on_op` with every
    /// operation's resolved placement — the telemetry tap.
    ///
    /// Ops are placed back to back with a single profiler guard per
    /// same-kind run (each op still counted).
    pub fn schedule_batch_observed(
        &mut self,
        ops: &[FlashOp],
        earliest: SimTime,
        mut on_op: impl FnMut(&FlashOp, ScheduledOp),
    ) -> SimTime {
        let mut finish = earliest;
        let mut run_kind: Option<OpKind> = None;
        let mut run: Option<hps_obs::profile::RunPhaseTimer> = None;
        for op in ops {
            if run_kind != Some(op.kind) {
                // Close the previous run before opening the next: the
                // profiler frame stack is strictly scoped.
                drop(run.take());
                run = Some(hps_obs::profile::phase_run(match op.kind {
                    OpKind::Read => hps_obs::Phase::NandRead,
                    OpKind::Program => hps_obs::Phase::NandProgram,
                    OpKind::Erase => hps_obs::Phase::NandErase,
                }));
                run_kind = Some(op.kind);
            }
            if let Some(r) = run.as_mut() {
                r.bump();
            }
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            let horizons = self.horizons_of(op);
            let scheduled = self.schedule_op_inner(op, earliest);
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            self.audit_scheduled(earliest, horizons, scheduled);
            on_op(op, scheduled);
            if scheduled.finish > finish {
                finish = scheduled.finish;
            }
        }
        drop(run);
        finish
    }

    /// The time when every resource is idle again.
    pub fn all_idle_at(&self) -> SimTime {
        self.free_at
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Accumulated busy time across all resources (for utilization studies).
    pub fn total_busy(&self) -> SimDuration {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hps_core::Bytes;
    use hps_ftl::FlashOp;

    fn sched() -> ResourceSchedule {
        ResourceSchedule::new(
            Geometry::TABLE_V,
            NandTiming::TABLE_V,
            ChannelMode::Interleaved,
        )
    }

    fn legacy() -> ResourceSchedule {
        ResourceSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, ChannelMode::Legacy)
    }

    fn k4() -> Bytes {
        Bytes::kib(4)
    }

    /// Schedules `op` as a one-op batch and returns its placement.
    pub(super) fn place(s: &mut ResourceSchedule, op: &FlashOp, earliest: SimTime) -> ScheduledOp {
        let mut placed = None;
        s.schedule_batch_observed(std::slice::from_ref(op), earliest, |_, p| placed = Some(p));
        placed.expect("a one-op batch places its op")
    }

    #[test]
    fn single_read_time() {
        let mut s = sched();
        let done = s.schedule_batch(&[FlashOp::read(0, k4())], SimTime::ZERO);
        let t = NandTiming::TABLE_V;
        assert_eq!(done, SimTime::ZERO + t.page_4k.read + t.transfer(k4()));
    }

    #[test]
    fn single_program_time() {
        let mut s = sched();
        let done = s.schedule_batch(&[FlashOp::program(0, k4())], SimTime::from_ms(1));
        let t = NandTiming::TABLE_V;
        assert_eq!(
            done,
            SimTime::from_ms(1) + t.transfer(k4()) + t.page_4k.program
        );
    }

    #[test]
    fn programs_on_different_dies_overlap() {
        let mut s = sched();
        // Planes 0 and 2 are on different dies of channel 0.
        let ops = [FlashOp::program(0, k4()), FlashOp::program(2, k4())];
        let finish = s.schedule_batch(&ops, SimTime::ZERO);
        let t = NandTiming::TABLE_V;
        // Transfers serialize on the shared channel; programs overlap.
        let expected = SimTime::ZERO + t.transfer(k4()) * 2 + t.page_4k.program;
        assert_eq!(finish, expected);
    }

    #[test]
    fn programs_on_same_die_serialize() {
        let mut s = sched();
        // Planes 0 and 1 share die 0: the die is the bottleneck.
        let ops = [FlashOp::program(0, k4()), FlashOp::program(1, k4())];
        let finish = s.schedule_batch(&ops, SimTime::ZERO);
        let t = NandTiming::TABLE_V;
        let expected = SimTime::ZERO + t.transfer(k4()) + t.page_4k.program * 2;
        assert_eq!(finish, expected);
    }

    #[test]
    fn channels_are_independent() {
        let mut s = sched();
        // Plane 0 is on channel 0; plane 4 on channel 1 (Table V layout).
        assert_ne!(
            Geometry::TABLE_V.channel_of_plane(0),
            Geometry::TABLE_V.channel_of_plane(4)
        );
        let ops = [FlashOp::program(0, k4()), FlashOp::program(4, k4())];
        let finish = s.schedule_batch(&ops, SimTime::ZERO);
        let t = NandTiming::TABLE_V;
        assert_eq!(finish, SimTime::ZERO + t.transfer(k4()) + t.page_4k.program);
    }

    #[test]
    fn erase_occupies_die_only() {
        let mut s = sched();
        s.schedule_batch(&[FlashOp::erase(0, k4())], SimTime::ZERO);
        // A read on the same die waits for the erase; a program's transfer
        // on the channel does not.
        let t = NandTiming::TABLE_V;
        let read_done = s.schedule_batch(&[FlashOp::read(0, k4())], SimTime::ZERO);
        assert!(read_done >= SimTime::ZERO + t.erase + t.page_4k.read);
    }

    #[test]
    fn eight_k_page_beats_two_4k_on_one_die() {
        // The HPS premise, at the resource level: storing 8 KiB in one 8 KiB
        // page is faster than two 4 KiB programs on the same die.
        let t = NandTiming::TABLE_V;
        let mut a = sched();
        let two_4k = a.schedule_batch(
            &[FlashOp::program(0, k4()), FlashOp::program(0, k4())],
            SimTime::ZERO,
        );
        let mut b = sched();
        let one_8k = b.schedule_batch(&[FlashOp::program(0, Bytes::kib(8))], SimTime::ZERO);
        assert!(one_8k < two_4k);
        assert_eq!(
            one_8k,
            SimTime::ZERO + t.transfer(Bytes::kib(8)) + t.page_8k.program
        );
    }

    #[test]
    fn batch_of_nothing_finishes_immediately() {
        let mut s = sched();
        assert_eq!(
            s.schedule_batch(&[], SimTime::from_ms(7)),
            SimTime::from_ms(7)
        );
    }

    #[test]
    fn empty_batch_leaves_all_idle_at_untouched() {
        // An empty batch advances no horizon.
        let mut s = sched();
        assert_eq!(s.all_idle_at(), SimTime::ZERO);
        s.schedule_batch(&[], SimTime::from_ms(3));
        assert_eq!(s.all_idle_at(), SimTime::ZERO);
        // A real op then moves the horizon exactly to its finish.
        let done = s.schedule_batch(&[FlashOp::program(0, k4())], SimTime::from_ms(3));
        assert_eq!(s.all_idle_at(), done);
    }

    #[test]
    fn mixed_erase_and_program_on_same_die_serialize() {
        // Satellite edge case: an erase and a program of one batch landing
        // on the same die must run back to back on the die, while the
        // program's channel transfer may overlap the erase.
        let t = NandTiming::TABLE_V;
        let mut s = sched();
        let ops = [FlashOp::erase(0, k4()), FlashOp::program(1, k4())];
        let mut placed = Vec::new();
        let finish = s.schedule_batch_observed(&ops, SimTime::ZERO, |_, sch| placed.push(sch));
        // Planes 0 and 1 share die 0.
        assert_eq!(placed[0].die, placed[1].die);
        // Erase holds the die; the program's cell phase starts only after.
        let program_cell_start = placed[1].finish - t.page_4k.program;
        assert!(program_cell_start >= placed[0].finish);
        // The transfer happened during the erase (interleaved channel).
        assert_eq!(placed[1].start, SimTime::ZERO);
        assert_eq!(finish, placed[1].finish);
        assert_eq!(finish, SimTime::ZERO + t.erase + t.page_4k.program);
    }

    #[test]
    fn batch_matches_sequential_singles() {
        // Batching is pure bookkeeping: its placements equal those of
        // one-op batches submitted one at a time.
        let ops = [
            FlashOp::read(3, k4()),
            FlashOp::program(3, k4()),
            FlashOp::program(6, Bytes::kib(8)),
            FlashOp::erase(3, k4()),
        ];
        for mode in [ChannelMode::Legacy, ChannelMode::Interleaved] {
            let mut batched = ResourceSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, mode);
            let mut singles = ResourceSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, mode);
            let mut from_batch = Vec::new();
            let finish = batched
                .schedule_batch_observed(&ops, SimTime::from_us(9), |_, s| from_batch.push(s));
            let from_singles: Vec<_> = ops
                .iter()
                .map(|op| place(&mut singles, op, SimTime::from_us(9)))
                .collect();
            assert_eq!(from_batch, from_singles);
            assert_eq!(
                finish,
                from_singles
                    .iter()
                    .map(|s| s.finish)
                    .fold(SimTime::from_us(9), SimTime::max)
            );
            assert_eq!(batched.all_idle_at(), singles.all_idle_at());
            assert_eq!(batched.total_busy(), singles.total_busy());
        }
    }

    #[test]
    fn busy_time_accumulates() {
        let mut s = sched();
        s.schedule_batch(&[FlashOp::erase(0, k4())], SimTime::ZERO);
        assert_eq!(s.total_busy(), NandTiming::TABLE_V.erase);
    }

    #[test]
    fn legacy_mode_serializes_same_channel_dies() {
        let mut s = legacy();
        // Planes 0 and 2 share channel 0 but sit on different dies; in
        // legacy mode the held channel serializes them anyway.
        let ops = [FlashOp::program(0, k4()), FlashOp::program(2, k4())];
        let finish = s.schedule_batch(&ops, SimTime::ZERO);
        let t = NandTiming::TABLE_V;
        let one = t.page_4k.program + t.transfer(k4());
        assert_eq!(finish, SimTime::ZERO + one * 2);
    }

    #[test]
    fn legacy_mode_reports_held_channel_placements() {
        // Satellite edge case: in legacy mode the ScheduledOp stream shows
        // the serialization — each same-channel op starts exactly when the
        // previous one finishes, and start/finish spans cover the whole
        // cell + transfer occupancy.
        let t = NandTiming::TABLE_V;
        let mut s = legacy();
        let ops = [
            FlashOp::program(0, k4()),
            FlashOp::read(2, k4()),
            FlashOp::program(1, k4()),
        ];
        let mut placed = Vec::new();
        s.schedule_batch_observed(&ops, SimTime::ZERO, |_, sch| placed.push(sch));
        assert!(placed.iter().all(|p| p.channel == 0));
        assert_eq!(placed[0].start, SimTime::ZERO);
        assert_eq!(placed[1].start, placed[0].finish);
        assert_eq!(placed[2].start, placed[1].finish);
        assert_eq!(
            placed[1].finish - placed[1].start,
            t.page_4k.read + t.transfer(k4())
        );
        // The channel horizon is the last finish; nothing overlapped.
        assert_eq!(s.all_idle_at(), placed[2].finish);
    }

    #[test]
    fn legacy_mode_still_parallelizes_across_channels() {
        let mut s = legacy();
        let ops = [FlashOp::program(0, k4()), FlashOp::program(4, k4())];
        let finish = s.schedule_batch(&ops, SimTime::ZERO);
        let t = NandTiming::TABLE_V;
        assert_eq!(finish, SimTime::ZERO + t.page_4k.program + t.transfer(k4()));
    }

    #[test]
    fn legacy_erase_does_not_hold_the_channel() {
        let mut s = legacy();
        s.schedule_batch(&[FlashOp::erase(0, k4())], SimTime::ZERO);
        // A program on the same channel but a different die can proceed.
        let t = NandTiming::TABLE_V;
        let done = s.schedule_batch(&[FlashOp::program(2, k4())], SimTime::ZERO);
        assert_eq!(done, SimTime::ZERO + t.transfer(k4()) + t.page_4k.program);
    }

    #[test]
    fn legacy_one_8k_page_beats_two_4k_even_cross_die() {
        // The HPS premise under eMMC channel semantics: on a held channel,
        // two 4 KiB programs serialize even across dies, so one 8 KiB
        // program always wins.
        let t = NandTiming::TABLE_V;
        let mut a = legacy();
        let two_4k = a.schedule_batch(
            &[FlashOp::program(0, k4()), FlashOp::program(2, k4())],
            SimTime::ZERO,
        );
        let mut b = legacy();
        let one_8k = b.schedule_batch(&[FlashOp::program(0, Bytes::kib(8))], SimTime::ZERO);
        assert!(one_8k < two_4k);
        assert_eq!(
            one_8k,
            SimTime::ZERO + t.page_8k.program + t.transfer(Bytes::kib(8))
        );
    }

    #[test]
    #[should_panic(expected = "unsupported page size")]
    fn unsupported_page_size_panics_like_timing_model() {
        let mut s = sched();
        let _ = s.schedule_batch(&[FlashOp::erase(0, Bytes::kib(16))], SimTime::ZERO);
    }
}

#[cfg(test)]
mod equivalence {
    //! The production schedule must place every op exactly where the
    //! reference scheduler places it, for arbitrary op streams, both
    //! channel modes, and monotone release times — start, finish, channel,
    //! die, `all_idle_at`, `total_busy`. The production side is driven
    //! only through `schedule_batch_observed`.

    use super::tests::place;
    use super::*;
    use proptest::prelude::*;

    /// The reference scheduler: the same timing math without lookup
    /// tables. Every op pays the full plane-address division chain and
    /// timing-model queries, and horizons are unconditional stores.
    #[derive(Clone, Debug)]
    struct NaiveSchedule {
        geometry: Geometry,
        timing: NandTiming,
        mode: ChannelMode,
        channel_free: Vec<SimTime>,
        die_free: Vec<SimTime>,
        busy: SimDuration,
    }

    impl NaiveSchedule {
        fn new(geometry: Geometry, timing: NandTiming, mode: ChannelMode) -> Self {
            NaiveSchedule {
                geometry,
                timing,
                mode,
                channel_free: vec![SimTime::ZERO; geometry.channels],
                die_free: vec![SimTime::ZERO; geometry.dies_total()],
                busy: SimDuration::ZERO,
            }
        }

        fn schedule_detailed(&mut self, op: &FlashOp, earliest: SimTime) -> ScheduledOp {
            let channel = self.geometry.channel_of_plane(op.plane);
            let die = self.geometry.die_of_plane(op.plane);
            let page = self.timing.page_timing(op.page_size);
            let xfer = self.timing.transfer(op.page_size);
            if self.mode == ChannelMode::Legacy && op.kind != OpKind::Erase {
                let cell = match op.kind {
                    OpKind::Read => page.read,
                    OpKind::Program => page.program,
                    OpKind::Erase => unreachable!("erase handled below"),
                };
                let start = earliest
                    .max(self.channel_free[channel])
                    .max(self.die_free[die]);
                let done = start + cell + xfer;
                self.channel_free[channel] = done;
                self.die_free[die] = done;
                self.busy += cell + xfer;
                return ScheduledOp {
                    channel,
                    die,
                    start,
                    finish: done,
                };
            }
            match op.kind {
                OpKind::Read => {
                    let sense_start = earliest.max(self.die_free[die]);
                    let sense_done = sense_start + page.read;
                    self.die_free[die] = sense_done;
                    let xfer_start = sense_done.max(self.channel_free[channel]);
                    let done = xfer_start + xfer;
                    self.channel_free[channel] = done;
                    self.busy += page.read + xfer;
                    ScheduledOp {
                        channel,
                        die,
                        start: sense_start,
                        finish: done,
                    }
                }
                OpKind::Program => {
                    let xfer_start = earliest.max(self.channel_free[channel]);
                    let xfer_done = xfer_start + xfer;
                    self.channel_free[channel] = xfer_done;
                    let prog_start = xfer_done.max(self.die_free[die]);
                    let done = prog_start + page.program;
                    self.die_free[die] = done;
                    self.busy += page.program + xfer;
                    ScheduledOp {
                        channel,
                        die,
                        start: xfer_start,
                        finish: done,
                    }
                }
                OpKind::Erase => {
                    let start = earliest.max(self.die_free[die]);
                    let done = start + self.timing.erase;
                    self.die_free[die] = done;
                    self.busy += self.timing.erase;
                    ScheduledOp {
                        channel,
                        die,
                        start,
                        finish: done,
                    }
                }
            }
        }

        fn schedule_batch(&mut self, ops: &[FlashOp], earliest: SimTime) -> SimTime {
            ops.iter().fold(earliest, |finish, op| {
                finish.max(self.schedule_detailed(op, earliest).finish)
            })
        }

        fn all_idle_at(&self) -> SimTime {
            self.channel_free
                .iter()
                .chain(self.die_free.iter())
                .copied()
                .fold(SimTime::ZERO, SimTime::max)
        }
    }

    fn op_from(code: u8, plane: usize) -> FlashOp {
        let size = if code & 1 == 0 {
            Bytes::kib(4)
        } else {
            Bytes::kib(8)
        };
        match code % 3 {
            0 => FlashOp::read(plane, size),
            1 => FlashOp::program(plane, size),
            _ => FlashOp::erase(plane, size),
        }
    }

    proptest! {
        #[test]
        fn schedule_matches_reference(
            ops in proptest::collection::vec((0u8..6, 0usize..8, 0u64..3), 1..200),
            legacy in proptest::bool::ANY,
        ) {
            let mode = if legacy { ChannelMode::Legacy } else { ChannelMode::Interleaved };
            let mut sched = ResourceSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, mode);
            let mut reference = NaiveSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, mode);
            // Release times advance monotonically, as device FIFO order
            // guarantees; gaps of 0/1/2 ms mix reuse and idle skips.
            let mut earliest = SimTime::ZERO;
            for &(code, plane, gap_ms) in &ops {
                earliest = earliest.max(sched.all_idle_at()) + SimDuration::from_ms(gap_ms);
                let op = op_from(code, plane);
                let got = place(&mut sched, &op, earliest);
                let want = reference.schedule_detailed(&op, earliest);
                prop_assert_eq!(got, want);
                prop_assert_eq!(sched.all_idle_at(), reference.all_idle_at());
                prop_assert_eq!(sched.total_busy(), reference.busy);
            }
        }

        #[test]
        fn batched_schedule_matches_reference(
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..6, 0usize..8), 0..12),
                1..40,
            ),
            legacy in proptest::bool::ANY,
        ) {
            let mode = if legacy { ChannelMode::Legacy } else { ChannelMode::Interleaved };
            let mut sched = ResourceSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, mode);
            let mut reference = NaiveSchedule::new(Geometry::TABLE_V, NandTiming::TABLE_V, mode);
            let mut release = SimTime::ZERO;
            for batch in &batches {
                let ops: Vec<FlashOp> =
                    batch.iter().map(|&(code, plane)| op_from(code, plane)).collect();
                // A replica cloned before the batch yields the reference
                // per-op placements, so every op is compared — not just
                // the batch max.
                let mut replica = reference.clone();
                let reference_placements: Vec<ScheduledOp> = ops
                    .iter()
                    .map(|op| replica.schedule_detailed(op, release))
                    .collect();
                let mut placements = Vec::new();
                let finish =
                    sched.schedule_batch_observed(&ops, release, |_, s| placements.push(s));
                let reference_finish = reference.schedule_batch(&ops, release);
                prop_assert_eq!(finish, reference_finish);
                prop_assert_eq!(placements, reference_placements);
                release = finish.max(release);
            }
            prop_assert_eq!(sched.all_idle_at(), reference.all_idle_at());
            prop_assert_eq!(sched.total_busy(), reference.busy);
        }
    }
}
