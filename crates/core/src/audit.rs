//! Shadow-state invariant auditor for the flash simulation.
//!
//! The paper's HPS-vs-multi-plane conclusions are only as trustworthy as
//! the simulator's bookkeeping: a silent mapping-table or space-accounting
//! bug would corrupt every regenerated table and figure. This module keeps
//! an *independent* replica of the flash state — built from nothing but the
//! stream of mutations the real structures perform — and cross-checks the
//! two models at every step.
//!
//! The auditor deliberately speaks primitive coordinates (`usize` plane /
//! block / page indices, raw `u64` logical page numbers) so it has no
//! dependency on the NAND or FTL crates and cannot share a bug with the
//! structures it audits.
//!
//! Checked invariant families (see `DESIGN.md` for the full catalogue):
//!
//! * **NAND discipline** — no program of a non-erased page, strictly
//!   in-order programming within a block, no read of a never-programmed
//!   page, erase only at block granularity.
//! * **Mapping bijectivity** — a physical page holds at most its declared
//!   capacity of live logical pages, and no logical page is silently
//!   double-homed.
//! * **Space accounting** — valid/invalid/free tallies reported by the
//!   real `space`/`pool` structures must match the shadow tally (verified
//!   amortised: O(1) per mutation, full cross-check every
//!   [`DEEP_VERIFY_INTERVAL`] mutations and on demand).
//! * **GC liveness** — a collected victim must actually reclaim invalid
//!   pages, and live data must survive migration.
//! * **Event-time monotonicity** — the device event clock never runs
//!   backwards ([`MonotonicityGuard`]).
//! * **Span balance** — every opened telemetry lifecycle span is closed
//!   exactly once ([`SpanLedger`]).
//!
//! Hooks in `hps-nand`, `hps-ftl`, `hps-emmc`, and `hps-obs` are compiled
//! in under `#[cfg(any(debug_assertions, feature = "sanitize"))]`; release
//! builds without the `sanitize` feature carry zero cost. Violations are
//! reported as structured [`Violation`] values and escalated to a panic by
//! [`enforce`], so tests fail loudly at the first divergence.

use crate::hash::{FxHashMap, FxHashSet};
use std::fmt;

/// Run a full shadow-vs-real deep verification every this many mutations.
///
/// Per-mutation checks are O(1); the deep pass recounts every touched
/// block, so it is amortised to keep the sanitized build usable on the
/// paper-scale device (Table V: thousands of blocks per plane).
pub const DEEP_VERIFY_INTERVAL: u64 = 4096;

/// Identifies which invariant a [`Violation`] breached.
///
/// The variant names are stable API: mutation tests assert on
/// [`InvariantId::name`] substrings, and the structured report embeds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantId {
    /// A page was programmed while not in the erased state.
    ProgramNotErased,
    /// Pages within a block were programmed out of ascending order.
    ProgramOutOfOrder,
    /// A read targeted a page that has never been programmed.
    ReadUnprogrammed,
    /// A physical page was asked to hold more live logical pages than its
    /// declared capacity, or the same LPN twice.
    DoubleMappedPpn,
    /// The real mapping table and the shadow model disagree about where a
    /// logical page lives.
    MappingDiverged,
    /// The real space accounting (valid/invalid/free page counts) diverged
    /// from the shadow tally.
    SpaceDiverged,
    /// A single block's valid-page count diverged from the shadow tally.
    TallyDiverged,
    /// Garbage collection erased a block that still held live data not yet
    /// migrated out.
    GcLiveDataLost,
    /// Garbage collection selected a victim with zero invalid pages —
    /// the pass could not reclaim anything.
    GcNothingReclaimed,
    /// The device event clock moved backwards.
    EventTimeRegression,
    /// A telemetry lifecycle span was left open, closed twice, or closed
    /// without being opened.
    SpanUnbalanced,
}

impl InvariantId {
    /// Stable machine-readable name, embedded in reports and asserted on
    /// by mutation tests.
    pub const fn name(self) -> &'static str {
        match self {
            InvariantId::ProgramNotErased => "nand.program_not_erased",
            InvariantId::ProgramOutOfOrder => "nand.program_out_of_order",
            InvariantId::ReadUnprogrammed => "nand.read_unprogrammed",
            InvariantId::DoubleMappedPpn => "ftl.double_mapped_ppn",
            InvariantId::MappingDiverged => "ftl.mapping_diverged",
            InvariantId::SpaceDiverged => "ftl.space_diverged",
            InvariantId::TallyDiverged => "ftl.tally_diverged",
            InvariantId::GcLiveDataLost => "gc.live_data_lost",
            InvariantId::GcNothingReclaimed => "gc.nothing_reclaimed",
            InvariantId::EventTimeRegression => "emmc.event_time_regression",
            InvariantId::SpanUnbalanced => "obs.span_unbalanced",
        }
    }
}

impl fmt::Display for InvariantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Physical coordinates of the page (or block) a violation concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAddr {
    /// Plane index within the device.
    pub plane: usize,
    /// Block index within the plane.
    pub block: usize,
    /// Page index within the block (0 for block-granularity violations).
    pub page: usize,
}

impl fmt::Display for ShadowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plane {} block {} page {}",
            self.plane, self.block, self.page
        )
    }
}

/// A structured invariant-violation report.
///
/// Carries everything a failing test needs to localise the bug: which
/// invariant, when in simulated time, which host request was in flight,
/// and which physical address was involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant was breached.
    pub invariant: InvariantId,
    /// Simulated time of the offending mutation, in nanoseconds (0 when
    /// no clock context was set).
    pub sim_time_ns: u64,
    /// Host request id in flight when the violation occurred, if any.
    pub request: Option<u64>,
    /// Physical address involved, if the invariant concerns one.
    pub addr: Option<ShadowAddr>,
    /// Human-readable detail: expected vs observed values.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sanitizer violation [{}] at t={}ns",
            self.invariant, self.sim_time_ns
        )?;
        if let Some(req) = self.request {
            write!(f, " request={req}")?;
        }
        if let Some(addr) = self.addr {
            write!(f, " at {addr}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Escalate a violation check to a panic, for use at wired hook sites.
///
/// Mutation tests drive the non-panicking `try_*` APIs directly; the
/// simulator's embedded hooks route through this so any divergence aborts
/// the test run with the structured report as the panic message.
#[track_caller]
pub fn enforce(result: Result<(), Violation>) {
    if let Err(v) = result {
        panic!("{v}");
    }
}

/// State of one shadow page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShadowPage {
    Erased,
    /// Programmed and holding at least one live logical page.
    Live,
    /// Programmed but every logical page it held has been superseded.
    Dead,
}

/// Per-block shadow state, allocated lazily the first time a block is
/// touched so an idle paper-scale device costs no memory.
#[derive(Debug, Clone)]
struct ShadowBlock {
    pages: Vec<ShadowPage>,
    /// Next page expected to be programmed (forward-only write pointer).
    write_ptr: usize,
    live: usize,
    dead: usize,
}

impl ShadowBlock {
    fn new(pages_per_block: usize) -> Self {
        ShadowBlock {
            pages: vec![ShadowPage::Erased; pages_per_block],
            write_ptr: 0,
            live: 0,
            dead: 0,
        }
    }
}

fn pack(plane: usize, block: usize, page: usize) -> u64 {
    debug_assert!(plane < (1 << 16) && block < (1 << 24) && page < (1 << 24));
    ((plane as u64) << 48) | ((block as u64) << 24) | page as u64
}

/// Snapshot of one block's shadow tally, for cross-checking against the
/// real `space`/`pool` accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockTally {
    /// Pages holding at least one live logical page.
    pub live: usize,
    /// Programmed pages whose contents are fully superseded.
    pub dead: usize,
    /// Pages still in the erased state.
    pub erased: usize,
}

/// Independent replica of the flash state, updated by the audit hooks and
/// cross-checked against the real NAND/FTL structures.
///
/// All methods are `try_*` and return `Err(Violation)` instead of
/// panicking, so mutation tests can inject a bad call and inspect the
/// resulting invariant id; wired hook sites wrap calls in [`enforce`].
#[derive(Debug)]
pub struct ShadowFlash {
    planes: usize,
    blocks_per_plane: usize,
    pages_per_block: usize,
    /// Lazily populated: (plane, block) -> shadow block state.
    blocks: FxHashMap<u64, ShadowBlock>,
    /// LPN -> packed PPN of the page currently holding it.
    forward: FxHashMap<u64, u64>,
    /// Packed PPN -> live LPNs resident in that page.
    resident: FxHashMap<u64, Vec<u64>>,
    /// Mutations since the last deep verify.
    mutations: u64,
    /// Current clock/request context, attached to violation reports.
    sim_time_ns: u64,
    request: Option<u64>,
}

impl ShadowFlash {
    /// Create a shadow for a device of the given geometry.
    pub fn new(planes: usize, blocks_per_plane: usize, pages_per_block: usize) -> Self {
        ShadowFlash {
            planes,
            blocks_per_plane,
            pages_per_block,
            blocks: FxHashMap::default(),
            forward: FxHashMap::default(),
            resident: FxHashMap::default(),
            mutations: 0,
            sim_time_ns: 0,
            request: None,
        }
    }

    /// Attach a clock/request context so subsequent violations carry it.
    pub fn set_context(&mut self, sim_time_ns: u64, request: Option<u64>) {
        self.sim_time_ns = sim_time_ns;
        self.request = request;
    }

    fn violation(
        &self,
        invariant: InvariantId,
        addr: Option<ShadowAddr>,
        detail: String,
    ) -> Violation {
        Violation {
            invariant,
            sim_time_ns: self.sim_time_ns,
            request: self.request,
            addr,
            detail,
        }
    }

    fn check_bounds(&self, plane: usize, block: usize, page: usize) -> Result<(), Violation> {
        if plane >= self.planes || block >= self.blocks_per_plane || page >= self.pages_per_block {
            return Err(self.violation(
                InvariantId::ProgramNotErased,
                Some(ShadowAddr { plane, block, page }),
                format!(
                    "address outside device geometry ({}x{}x{})",
                    self.planes, self.blocks_per_plane, self.pages_per_block
                ),
            ));
        }
        Ok(())
    }

    fn block_mut(&mut self, plane: usize, block: usize) -> &mut ShadowBlock {
        let ppb = self.pages_per_block;
        self.blocks
            .entry(pack(plane, block, 0))
            .or_insert_with(|| ShadowBlock::new(ppb))
    }

    fn tick(&mut self) -> bool {
        self.mutations += 1;
        self.mutations.is_multiple_of(DEEP_VERIFY_INTERVAL)
    }

    /// Record a host (or GC destination) program of `lpns` into the page,
    /// checking NAND discipline and mapping bijectivity.
    ///
    /// `capacity` is how many logical pages the physical page may hold
    /// (2 for an HPS half-page pairing, 1 otherwise). Returns `true` when
    /// a deep verify is due.
    pub fn try_program(
        &mut self,
        plane: usize,
        block: usize,
        page: usize,
        lpns: &[u64],
        capacity: usize,
    ) -> Result<bool, Violation> {
        self.check_bounds(plane, block, page)?;
        let addr = ShadowAddr { plane, block, page };

        // NAND discipline against the shadow block state.
        let (state, write_ptr) = {
            let b = self.block_mut(plane, block);
            (b.pages[page], b.write_ptr)
        };
        if state != ShadowPage::Erased {
            return Err(self.violation(
                InvariantId::ProgramNotErased,
                Some(addr),
                format!("page state is {state:?}, expected Erased"),
            ));
        }
        if page != write_ptr {
            return Err(self.violation(
                InvariantId::ProgramOutOfOrder,
                Some(addr),
                format!("programming page {page} but block write pointer is at {write_ptr}"),
            ));
        }

        // Mapping bijectivity: capacity and no duplicate LPN in one page.
        if lpns.len() > capacity {
            return Err(self.violation(
                InvariantId::DoubleMappedPpn,
                Some(addr),
                format!(
                    "{} logical pages programmed into a page of capacity {capacity}",
                    lpns.len()
                ),
            ));
        }
        let mut seen = FxHashSet::default();
        for &lpn in lpns {
            if !seen.insert(lpn) {
                return Err(self.violation(
                    InvariantId::DoubleMappedPpn,
                    Some(addr),
                    format!("lpn {lpn} appears twice in one physical page"),
                ));
            }
        }

        // Supersede any previous home of each LPN.
        for &lpn in lpns {
            self.supersede(lpn)?;
        }

        let key = pack(plane, block, page);
        {
            let b = self.block_mut(plane, block);
            b.pages[page] = if lpns.is_empty() {
                ShadowPage::Dead
            } else {
                ShadowPage::Live
            };
            b.write_ptr = page + 1;
            if lpns.is_empty() {
                b.dead += 1;
            } else {
                b.live += 1;
            }
        }
        if !lpns.is_empty() {
            for &lpn in lpns {
                self.forward.insert(lpn, key);
            }
            self.resident.insert(key, lpns.to_vec());
        }
        Ok(self.tick())
    }

    /// Remove `lpn`'s current mapping (host overwrite or explicit unmap).
    ///
    /// A missing mapping is *not* a violation — first-time writes and
    /// repeated unmaps are legal no-ops in the real FTL too.
    pub fn try_unmap(&mut self, lpn: u64) -> Result<bool, Violation> {
        self.supersede(lpn)?;
        Ok(self.tick())
    }

    fn supersede(&mut self, lpn: u64) -> Result<(), Violation> {
        let Some(key) = self.forward.remove(&lpn) else {
            return Ok(());
        };
        let plane = (key >> 48) as usize;
        let block = ((key >> 24) & 0xff_ffff) as usize;
        let page = (key & 0xff_ffff) as usize;
        let addr = ShadowAddr { plane, block, page };
        let remaining = {
            let Some(lpns) = self.resident.get_mut(&key) else {
                return Err(self.violation(
                    InvariantId::MappingDiverged,
                    Some(addr),
                    format!("lpn {lpn} maps to a page with no resident set"),
                ));
            };
            let before = lpns.len();
            lpns.retain(|&l| l != lpn);
            if lpns.len() == before {
                return Err(self.violation(
                    InvariantId::MappingDiverged,
                    Some(addr),
                    format!("lpn {lpn} maps to a page whose resident set does not contain it"),
                ));
            }
            lpns.len()
        };
        if remaining == 0 {
            self.resident.remove(&key);
            let b = self.block_mut(plane, block);
            b.live -= 1;
            b.dead += 1;
            b.pages[page] = ShadowPage::Dead;
        }
        Ok(())
    }

    /// Check a read of a physical page: it must have been programmed.
    pub fn try_read(&self, plane: usize, block: usize, page: usize) -> Result<(), Violation> {
        self.check_bounds(plane, block, page)?;
        let state = self
            .blocks
            .get(&pack(plane, block, 0))
            .map(|b| b.pages[page])
            .unwrap_or(ShadowPage::Erased);
        if state == ShadowPage::Erased {
            return Err(self.violation(
                InvariantId::ReadUnprogrammed,
                Some(ShadowAddr { plane, block, page }),
                "read of a never-programmed page".to_string(),
            ));
        }
        Ok(())
    }

    /// Mark the start of a GC pass on a victim block: it must hold at
    /// least one dead (reclaimable) page.
    pub fn try_gc_victim(&mut self, plane: usize, block: usize) -> Result<(), Violation> {
        self.check_bounds(plane, block, 0)?;
        let tally = self.block_tally(plane, block);
        if tally.dead == 0 {
            return Err(self.violation(
                InvariantId::GcNothingReclaimed,
                Some(ShadowAddr {
                    plane,
                    block,
                    page: 0,
                }),
                format!(
                    "victim has 0 invalid pages (live={} erased={}) — GC cannot reclaim anything",
                    tally.live, tally.erased
                ),
            ));
        }
        Ok(())
    }

    /// Record a block erase. Every page must be dead or erased; live data
    /// still resident in the block was lost by the caller.
    pub fn try_erase(&mut self, plane: usize, block: usize) -> Result<bool, Violation> {
        self.check_bounds(plane, block, 0)?;
        let tally = self.block_tally(plane, block);
        if tally.live > 0 {
            return Err(self.violation(
                InvariantId::GcLiveDataLost,
                Some(ShadowAddr {
                    plane,
                    block,
                    page: 0,
                }),
                format!(
                    "erasing block with {} live pages not migrated out",
                    tally.live
                ),
            ));
        }
        let ppb = self.pages_per_block;
        let b = self
            .blocks
            .entry(pack(plane, block, 0))
            .or_insert_with(|| ShadowBlock::new(ppb));
        b.pages.fill(ShadowPage::Erased);
        b.write_ptr = 0;
        b.live = 0;
        b.dead = 0;
        Ok(self.tick())
    }

    /// Cross-check one block's real valid-page count against the shadow.
    pub fn try_check_block(
        &self,
        plane: usize,
        block: usize,
        real_valid: usize,
    ) -> Result<(), Violation> {
        let tally = self.block_tally(plane, block);
        if tally.live != real_valid {
            return Err(self.violation(
                InvariantId::TallyDiverged,
                Some(ShadowAddr {
                    plane,
                    block,
                    page: 0,
                }),
                format!(
                    "real structure reports {real_valid} valid pages, shadow counts {}",
                    tally.live
                ),
            ));
        }
        Ok(())
    }

    /// Cross-check device-wide space accounting (total valid and invalid
    /// programmed pages across all planes) against the shadow tally.
    pub fn try_check_space(&self, real_valid: usize, real_invalid: usize) -> Result<(), Violation> {
        #[expect(
            clippy::disallowed_methods,
            reason = "an integer sum is the same in any visit order"
        )]
        let live = self.blocks.values().map(|b| b.live).sum::<usize>();
        #[expect(
            clippy::disallowed_methods,
            reason = "an integer sum is the same in any visit order"
        )]
        let dead = self.blocks.values().map(|b| b.dead).sum::<usize>();
        if live != real_valid || dead != real_invalid {
            return Err(self.violation(
                InvariantId::SpaceDiverged,
                None,
                format!(
                    "real accounting valid={real_valid} invalid={real_invalid}, \
                     shadow counts live={live} dead={dead}"
                ),
            ));
        }
        Ok(())
    }

    /// Cross-check the real mapping of `lpn` against the shadow.
    pub fn try_check_mapping(
        &self,
        lpn: u64,
        real: Option<(usize, usize, usize)>,
    ) -> Result<(), Violation> {
        let shadow = self.forward.get(&lpn).map(|&key| {
            (
                (key >> 48) as usize,
                ((key >> 24) & 0xff_ffff) as usize,
                (key & 0xff_ffff) as usize,
            )
        });
        if shadow != real {
            let addr =
                real.or(shadow)
                    .map(|(plane, block, page)| ShadowAddr { plane, block, page });
            return Err(self.violation(
                InvariantId::MappingDiverged,
                addr,
                format!("lpn {lpn}: real mapping {real:?}, shadow mapping {shadow:?}"),
            ));
        }
        Ok(())
    }

    /// Shadow tally for one block (all-erased if never touched).
    pub fn block_tally(&self, plane: usize, block: usize) -> BlockTally {
        match self.blocks.get(&pack(plane, block, 0)) {
            Some(b) => BlockTally {
                live: b.live,
                dead: b.dead,
                erased: self.pages_per_block - b.live - b.dead,
            },
            None => BlockTally {
                live: 0,
                dead: 0,
                erased: self.pages_per_block,
            },
        }
    }

    /// Number of logical pages currently mapped in the shadow.
    pub fn mapped_lpns(&self) -> usize {
        self.forward.len()
    }

    /// Iterate the logical pages currently mapped in the shadow, with
    /// their physical coordinates, in ascending LPN order (so the first
    /// divergence an audit reports is the same on every run).
    #[expect(
        clippy::disallowed_methods,
        reason = "collected into a BTreeMap before anything reads the order"
    )]
    pub fn mappings(&self) -> impl Iterator<Item = (u64, (usize, usize, usize))> {
        self.forward
            .iter()
            .map(|(&lpn, &key)| {
                (
                    lpn,
                    (
                        (key >> 48) as usize,
                        ((key >> 24) & 0xff_ffff) as usize,
                        (key & 0xff_ffff) as usize,
                    ),
                )
            })
            .collect::<std::collections::BTreeMap<_, _>>()
            .into_iter()
    }

    /// Total mutations recorded so far.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }
}

/// Telemetry span-balance ledger: every opened lifecycle span must be
/// closed exactly once.
#[derive(Debug, Default)]
pub struct SpanLedger {
    open: FxHashSet<u64>,
    opened: u64,
    closed: u64,
}

impl SpanLedger {
    /// Create an empty ledger.
    pub fn new() -> Self {
        SpanLedger::default()
    }

    /// Record a span open for `id`. Double-open is a violation.
    pub fn try_open(&mut self, id: u64, sim_time_ns: u64) -> Result<(), Violation> {
        if !self.open.insert(id) {
            return Err(Violation {
                invariant: InvariantId::SpanUnbalanced,
                sim_time_ns,
                request: Some(id),
                addr: None,
                detail: format!("span {id} opened twice without an intervening close"),
            });
        }
        self.opened += 1;
        Ok(())
    }

    /// Record a span close for `id`. Closing an unopened span is a
    /// violation.
    pub fn try_close(&mut self, id: u64, sim_time_ns: u64) -> Result<(), Violation> {
        if !self.open.remove(&id) {
            return Err(Violation {
                invariant: InvariantId::SpanUnbalanced,
                sim_time_ns,
                request: Some(id),
                addr: None,
                detail: format!("span {id} closed without being open"),
            });
        }
        self.closed += 1;
        Ok(())
    }

    /// Assert that every opened span has been closed (end-of-run check).
    #[expect(
        clippy::disallowed_methods,
        reason = "the minimum is the same in any visit order"
    )]
    pub fn try_drained(&self, sim_time_ns: u64) -> Result<(), Violation> {
        if let Some(id) = self.open.iter().copied().min() {
            return Err(Violation {
                invariant: InvariantId::SpanUnbalanced,
                sim_time_ns,
                request: Some(id),
                addr: None,
                detail: format!(
                    "{} span(s) still open at end of run (opened={} closed={})",
                    self.open.len(),
                    self.opened,
                    self.closed
                ),
            });
        }
        Ok(())
    }
}

/// Guards event-queue time monotonicity: the device clock must never run
/// backwards.
#[derive(Debug, Default)]
pub struct MonotonicityGuard {
    last_ns: Option<u64>,
}

impl MonotonicityGuard {
    /// Create a guard with no history.
    pub fn new() -> Self {
        MonotonicityGuard::default()
    }

    /// Record an event at `now_ns`; it must not precede the previous one.
    pub fn try_advance(&mut self, now_ns: u64, request: Option<u64>) -> Result<(), Violation> {
        if let Some(last) = self.last_ns {
            if now_ns < last {
                return Err(Violation {
                    invariant: InvariantId::EventTimeRegression,
                    sim_time_ns: now_ns,
                    request,
                    addr: None,
                    detail: format!("event at t={now_ns}ns arrived after t={last}ns"),
                });
            }
        }
        self.last_ns = Some(now_ns);
        Ok(())
    }

    /// The most recent timestamp observed, if any.
    pub fn last_ns(&self) -> Option<u64> {
        self.last_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> ShadowFlash {
        ShadowFlash::new(2, 4, 8)
    }

    #[test]
    fn program_and_supersede() {
        let mut s = shadow();
        s.try_program(0, 0, 0, &[10], 1).unwrap();
        assert_eq!(
            s.block_tally(0, 0),
            BlockTally {
                live: 1,
                dead: 0,
                erased: 7
            }
        );
        // Overwrite lpn 10 elsewhere: old page goes dead.
        s.try_program(0, 0, 1, &[10], 1).unwrap();
        assert_eq!(
            s.block_tally(0, 0),
            BlockTally {
                live: 1,
                dead: 1,
                erased: 6
            }
        );
        assert_eq!(s.mapped_lpns(), 1);
        s.try_check_mapping(10, Some((0, 0, 1))).unwrap();
        assert!(s.try_check_mapping(10, Some((0, 0, 0))).is_err());
    }

    #[test]
    fn double_program_detected() {
        let mut s = shadow();
        s.try_program(0, 0, 0, &[1], 1).unwrap();
        // Reprogramming page 0 violates erase-before-program.
        // (write_ptr moved on, so out-of-order fires first only if page
        // mismatches; here state check fires.)
        let err = s.try_program(0, 0, 0, &[2], 1).unwrap_err();
        assert_eq!(err.invariant, InvariantId::ProgramNotErased);
    }

    #[test]
    fn out_of_order_program_detected() {
        let mut s = shadow();
        s.try_program(0, 0, 0, &[1], 1).unwrap();
        let err = s.try_program(0, 0, 5, &[2], 1).unwrap_err();
        assert_eq!(err.invariant, InvariantId::ProgramOutOfOrder);
    }

    #[test]
    fn read_unprogrammed_detected() {
        let mut s = shadow();
        assert_eq!(
            s.try_read(0, 1, 3).unwrap_err().invariant,
            InvariantId::ReadUnprogrammed
        );
        s.try_program(0, 1, 0, &[9], 1).unwrap();
        s.try_read(0, 1, 0).unwrap();
    }

    #[test]
    fn capacity_overflow_detected() {
        let mut s = shadow();
        let err = s.try_program(0, 0, 0, &[1, 2], 1).unwrap_err();
        assert_eq!(err.invariant, InvariantId::DoubleMappedPpn);
        let err = s.try_program(0, 0, 0, &[3, 3], 2).unwrap_err();
        assert_eq!(err.invariant, InvariantId::DoubleMappedPpn);
        // Two distinct LPNs in an HPS pairing are fine.
        s.try_program(0, 0, 0, &[1, 2], 2).unwrap();
    }

    #[test]
    fn erase_with_live_data_detected() {
        let mut s = shadow();
        s.try_program(1, 2, 0, &[7], 1).unwrap();
        let err = s.try_erase(1, 2).unwrap_err();
        assert_eq!(err.invariant, InvariantId::GcLiveDataLost);
        // After superseding the data the erase is legal.
        s.try_unmap(7).unwrap();
        s.try_erase(1, 2).unwrap();
        assert_eq!(
            s.block_tally(1, 2),
            BlockTally {
                live: 0,
                dead: 0,
                erased: 8
            }
        );
        // And the block can be programmed again from page 0.
        s.try_program(1, 2, 0, &[8], 1).unwrap();
    }

    #[test]
    fn gc_victim_must_have_invalid_pages() {
        let mut s = shadow();
        s.try_program(0, 3, 0, &[1], 1).unwrap();
        let err = s.try_gc_victim(0, 3).unwrap_err();
        assert_eq!(err.invariant, InvariantId::GcNothingReclaimed);
        s.try_unmap(1).unwrap();
        s.try_gc_victim(0, 3).unwrap();
    }

    #[test]
    fn space_cross_check() {
        let mut s = shadow();
        s.try_program(0, 0, 0, &[1], 1).unwrap();
        s.try_program(0, 0, 1, &[1], 1).unwrap(); // supersedes page 0
        s.try_check_space(1, 1).unwrap();
        let err = s.try_check_space(2, 0).unwrap_err();
        assert_eq!(err.invariant, InvariantId::SpaceDiverged);
        s.try_check_block(0, 0, 1).unwrap();
        assert_eq!(
            s.try_check_block(0, 0, 2).unwrap_err().invariant,
            InvariantId::TallyDiverged
        );
    }

    #[test]
    fn span_ledger_balance() {
        let mut l = SpanLedger::new();
        l.try_open(1, 0).unwrap();
        assert_eq!(
            l.try_open(1, 5).unwrap_err().invariant,
            InvariantId::SpanUnbalanced
        );
        assert_eq!(
            l.try_drained(5).unwrap_err().invariant,
            InvariantId::SpanUnbalanced
        );
        l.try_close(1, 10).unwrap();
        l.try_drained(10).unwrap();
        assert_eq!(
            l.try_close(1, 11).unwrap_err().invariant,
            InvariantId::SpanUnbalanced
        );
    }

    #[test]
    fn monotonicity_guard() {
        let mut g = MonotonicityGuard::new();
        g.try_advance(10, None).unwrap();
        g.try_advance(10, None).unwrap();
        g.try_advance(20, Some(3)).unwrap();
        let err = g.try_advance(5, Some(4)).unwrap_err();
        assert_eq!(err.invariant, InvariantId::EventTimeRegression);
        assert_eq!(err.request, Some(4));
    }

    #[test]
    fn violation_display_mentions_invariant_name() {
        let mut s = shadow();
        s.set_context(1234, Some(42));
        s.try_program(0, 0, 0, &[1], 1).unwrap();
        let err = s.try_program(0, 0, 0, &[2], 1).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("nand.program_not_erased"), "{text}");
        assert!(text.contains("t=1234ns"), "{text}");
        assert!(text.contains("request=42"), "{text}");
    }

    #[test]
    fn deep_verify_tick_fires_on_interval() {
        let mut s = ShadowFlash::new(1, 1024, 64);
        let mut ticks = 0;
        let mut n = 0u64;
        'outer: for block in 0..1024 {
            for page in 0..64 {
                if s.try_program(0, block, page, &[n], 1).unwrap() {
                    ticks += 1;
                }
                n += 1;
                if n == DEEP_VERIFY_INTERVAL * 2 {
                    break 'outer;
                }
            }
        }
        assert_eq!(ticks, 2);
    }
}
