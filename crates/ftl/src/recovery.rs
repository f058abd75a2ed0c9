//! Fault-handling runtime and power-loss recovery.
//!
//! This module is the policy half of the fault-injection subsystem (the
//! physics half — failure draws and the bit-error model — is
//! [`hps_nand::faults`]). It owns the per-device [`FaultRuntime`]: the
//! reliability counters, the per-block wear/disturb state the draws are
//! conditioned on, the simulated out-of-band (OOB) journal that makes
//! recovery possible, and the armed crash point. It also implements
//! [`Ftl::arm_crash`] and [`Ftl::recover`].
//!
//! # The OOB journal
//!
//! Real NAND pages carry a spare ("out-of-band") area the FTL fills with
//! reverse-map metadata at program time; it is written atomically with the
//! page payload. The simulation mirrors that contract: every *successful*
//! page program journals an [`OobEntry`] — the page's resident LPNs plus a
//! device-wide monotonically increasing sequence number — and an erase
//! discards the block's entries. A failed program journals nothing (the
//! page is garbage on real hardware too), which is exactly what lets
//! recovery tell a torn page from a good one.
//!
//! # Recovery
//!
//! [`Ftl::recover`] models the mount-time scan an FTL performs after sudden
//! power loss: walk every programmed page, and for each LPN let the entry
//! with the **highest sequence number win** (a GC migration or overwrite
//! always journals a fresher sequence than the copy it supersedes). The
//! winners rebuild the mapping and resident tables from scratch; every
//! other programmed page is garbage. Two asymmetries need repair along the
//! way:
//!
//! * the FTL invalidates an LPN's old page *before* programming its
//!   replacement, so a crash inside that window leaves the durable winner
//!   flagged invalid — recovery *revalidates* it;
//! * a crash between a GC copy and the victim's erase leaves the stale copy
//!   flagged valid — recovery *invalidates* it (its sequence number lost).
//!
//! Free lists and garbage counters are then recomputed from the actual
//! block states, and in audited builds the shadow auditor is rebuilt from
//! the recovered state and a full deep verification run, so every recovery
//! is checked against the same invariants as normal operation.
//!
//! Lifetime statistics (operation counters, space accounting, reliability
//! counters) survive recovery unchanged: real FTLs checkpoint such metadata
//! periodically, and none of it is reconstructible from page OOB alone.

use crate::addr::{Lpn, Ppn};
use crate::ftl::Ftl;
use hps_core::{Bytes, Error, FxHashMap, Result};
use hps_nand::{FaultConfig, FaultStats, PageAddr, PageState};

#[cfg(any(debug_assertions, feature = "sanitize"))]
use hps_core::audit::{enforce, ShadowFlash};

/// Simulated out-of-band metadata of one programmed page: the reverse map
/// entry written atomically with the page.
#[derive(Clone, Copy, Debug)]
pub(crate) struct OobEntry {
    /// Resident LPNs (1 or 2; an HPS 8 KiB page holds two).
    pub lpns: [u64; 2],
    /// How many of `lpns` are meaningful.
    pub n: u8,
    /// Device-wide program sequence number; recovery's freshness order.
    pub seq: u64,
}

/// Per-device fault-injection state, allocated only when the configured
/// [`FaultConfig`] is enabled — a fault-free FTL carries a `None` and pays
/// nothing.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    /// The active fault profile.
    pub cfg: FaultConfig,
    /// Reliability counters.
    pub stats: FaultStats,
    /// Reads issued to each `[plane][block]` since its last erase (the
    /// read-disturb conditioning variable).
    pub reads_since_erase: Vec<Vec<u32>>,
    /// Program failures accrued by each `[plane][block]` (grown-bad
    /// retirement threshold).
    pub program_fails: Vec<Vec<u32>>,
    /// The OOB journal: `(plane, block, page)` → reverse-map entry.
    pub oob: FxHashMap<(usize, usize, usize), OobEntry>,
    /// Last sequence number issued (0 = none yet).
    pub seq: u64,
    /// Flash mutations ticked so far (program attempts and erases).
    pub mutations: u64,
    /// Armed crash point: mutations remaining until power is cut. `Some(0)`
    /// means the crash has fired; every further mutation keeps failing
    /// until [`Ftl::recover`] clears it.
    pub crash_after: Option<u64>,
    /// Set when spares ran out: the device is read-only and the string
    /// records which pool degraded first.
    pub read_only: Option<String>,
}

impl FaultRuntime {
    pub(crate) fn new(cfg: FaultConfig, planes: usize, blocks_per_plane: usize) -> Self {
        FaultRuntime {
            cfg,
            stats: FaultStats::default(),
            reads_since_erase: vec![vec![0; blocks_per_plane]; planes],
            program_fails: vec![vec![0; blocks_per_plane]; planes],
            oob: FxHashMap::default(),
            seq: 0,
            mutations: 0,
            crash_after: None,
            read_only: None,
        }
    }

    /// Ticks the crash countdown ahead of one flash mutation. The crash
    /// fires *before* the mutation applies, modeling power cut mid-operation
    /// (the operation's effects are simply absent from flash).
    ///
    /// # Errors
    ///
    /// Returns [`Error::PowerLoss`] when the armed crash point is reached;
    /// keeps returning it for every subsequent mutation until recovery.
    pub(crate) fn check_crash(&mut self) -> Result<()> {
        if let Some(remaining) = self.crash_after.as_mut() {
            if *remaining == 0 {
                return Err(Error::PowerLoss {
                    ops_completed: self.mutations,
                });
            }
            *remaining -= 1;
        }
        self.mutations += 1;
        Ok(())
    }

    /// Journals the OOB entry of one successful page program.
    pub(crate) fn journal(&mut self, plane: usize, block: usize, page: usize, lpns: &[Lpn]) {
        debug_assert!((1..=2).contains(&lpns.len()));
        self.seq += 1;
        let mut raw = [0u64; 2];
        for (slot, lpn) in raw.iter_mut().zip(lpns) {
            *slot = lpn.0;
        }
        self.oob.insert(
            (plane, block, page),
            OobEntry {
                lpns: raw,
                n: lpns.len() as u8,
                seq: self.seq,
            },
        );
    }

    /// Discards every OOB entry of one block (erase or retirement).
    pub(crate) fn remove_block_oob(&mut self, plane: usize, block: usize) {
        self.oob.retain(|&(p, b, _), _| p != plane || b != block);
    }
}

/// What [`Ftl::recover`] found and repaired while rebuilding from the OOB
/// journal after a simulated power loss.
#[must_use = "recovery results must be checked: read_only and the repair counts are the outcome"]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Programmed pages scanned across the device.
    pub pages_scanned: u64,
    /// Blocks visited (every block, including spares and retired ones).
    pub blocks_scanned: u64,
    /// LPN mappings rebuilt from winning OOB entries.
    pub mappings_rebuilt: u64,
    /// Invalid pages restored to valid (the durable copy of an LPN caught
    /// in the invalidate-before-program crash window).
    pub pages_revalidated: u64,
    /// Valid pages demoted to invalid (stale copies whose newer version
    /// was already durable, e.g. a GC victim the crash preempted erasing).
    pub pages_invalidated: u64,
    /// Programmed pages scanned, broken out by page size — the device layer
    /// prices the recovery scan as one page read each.
    pub pages_scanned_by_size: Vec<(Bytes, u64)>,
    /// Carried-over degradation state: `Some` when the device had already
    /// exhausted its spares before the crash.
    pub read_only: Option<String>,
}

impl Ftl {
    /// Arms a sudden-power-off: after `after_ops` further flash mutations
    /// (program attempts and erases), the next mutation fails with
    /// [`Error::PowerLoss`] *before* applying, and keeps failing until
    /// [`Ftl::recover`] runs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when fault injection is disabled —
    /// the crash/recovery machinery depends on the OOB journal, which only
    /// exists under an enabled [`FaultConfig`].
    pub fn arm_crash(&mut self, after_ops: u64) -> Result<()> {
        let Some(f) = self.faults.as_deref_mut() else {
            return Err(Error::InvalidConfig(
                "arm_crash requires fault injection (FaultConfig is NONE)".into(),
            ));
        };
        f.crash_after = Some(after_ops);
        Ok(())
    }

    /// Reliability counters, when fault injection is enabled.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_deref().map(|f| f.stats)
    }

    /// Spare blocks still available for bad-block replacement, summed over
    /// every plane and pool. Zero when fault injection is disabled.
    pub fn spare_blocks_remaining(&self) -> usize {
        self.pools
            .iter()
            .flatten()
            .map(|pool| pool.spare_blocks())
            .sum()
    }

    /// Why the device degraded to read-only, if it has.
    pub fn read_only_reason(&self) -> Option<&str> {
        self.faults.as_deref().and_then(|f| f.read_only.as_deref())
    }

    /// Rebuilds the FTL's volatile state from the durable flash image after
    /// a simulated power loss: per-LPN winners are chosen by OOB sequence
    /// number, page validity is repaired to match, mapping/resident tables
    /// are rebuilt from scratch, free lists and garbage counters are
    /// recomputed from block states, and (in audited builds) the shadow
    /// auditor is reconstructed and a full deep verification run.
    ///
    /// Idempotent: recovering an uncrashed device is a no-op scan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when fault injection is disabled.
    ///
    /// # Panics
    ///
    /// Panics (via the auditor) if the rebuilt state violates any shadow
    /// invariant — that would be a recovery bug, not a simulated fault.
    pub fn recover(&mut self) -> Result<RecoveryReport> {
        let Some(f) = self.faults.as_deref_mut() else {
            return Err(Error::InvalidConfig(
                "recover requires fault injection (FaultConfig is NONE)".into(),
            ));
        };
        // Power is back on; disarm the crash point.
        f.crash_after = None;

        // Pass 1: scan every programmed page's OOB and pick each LPN's
        // winner — the entry with the highest sequence number.
        let mut report = RecoveryReport::default();
        let mut winner: FxHashMap<u64, (u64, usize, usize, usize)> = FxHashMap::default();
        let mut by_size: Vec<(Bytes, u64)> = Vec::new();
        for (pi, plane) in self.planes.iter().enumerate() {
            for (id, block) in plane.iter() {
                report.blocks_scanned += 1;
                let programmed = block.programmed_pages() as u64;
                report.pages_scanned += programmed;
                match by_size.iter_mut().find(|(s, _)| *s == block.page_size()) {
                    Some((_, n)) => *n += programmed,
                    None => by_size.push((block.page_size(), programmed)),
                }
                for page in 0..block.programmed_pages() {
                    let Some(e) = f.oob.get(&(pi, id.0, page)) else {
                        continue;
                    };
                    for &lpn in &e.lpns[..e.n as usize] {
                        let fresher = winner.get(&lpn).is_none_or(|&(seq, ..)| e.seq > seq);
                        if fresher {
                            winner.insert(lpn, (e.seq, pi, id.0, page));
                        }
                    }
                }
            }
        }
        by_size.sort_by_key(|&(s, _)| s);
        report.pages_scanned_by_size = by_size;

        // Pass 2: rebuild the mapping and resident tables from the winners
        // and repair page validity to match. Everything not a winner is
        // garbage.
        (self.mapping, self.residents) = self.config.empty_tables()?;
        for pi in 0..self.planes.len() {
            for bi in 0..self.planes[pi].blocks_total() {
                let id = hps_nand::BlockId(bi);
                let programmed = self.planes[pi].block(id).programmed_pages();
                for page in 0..programmed {
                    let mut live = [Lpn(0); 2];
                    let mut n = 0usize;
                    if let Some(e) = f.oob.get(&(pi, bi, page)) {
                        for &lpn in &e.lpns[..e.n as usize] {
                            if winner.get(&lpn) == Some(&(e.seq, pi, bi, page)) {
                                live[n] = Lpn(lpn);
                                n += 1;
                            }
                        }
                    }
                    let plane = &mut self.planes[pi];
                    let state = plane.block(id).page_state(page);
                    if n > 0 {
                        if state == PageState::Invalid {
                            plane.revalidate(id, page);
                            report.pages_revalidated += 1;
                        }
                        let ppn = Ppn {
                            plane: pi,
                            addr: PageAddr { block: id, page },
                        };
                        self.residents.occupy(ppn, &live[..n]);
                        for &lpn in &live[..n] {
                            self.mapping.remap(lpn, ppn);
                            report.mappings_rebuilt += 1;
                        }
                    } else if state == PageState::Valid {
                        plane.invalidate(id, page);
                        report.pages_invalidated += 1;
                    }
                }
            }
        }

        // Pass 3: free lists and garbage counters follow from the repaired
        // block states. Retired blocks are not members, so their garbage
        // stays out of the victim-existence counters.
        for pi in 0..self.planes.len() {
            for (pool_idx, pool) in self.pools[pi].iter_mut().enumerate() {
                pool.rebuild_free_list(&self.planes[pi]);
                self.garbage[pi][pool_idx] = pool
                    .members()
                    .iter()
                    .map(|&id| self.planes[pi].block(id).invalid_pages())
                    .sum();
            }
        }

        report.read_only = f.read_only.clone();

        // Pass 4 (audited builds): reconstruct the shadow auditor from the
        // recovered state and deep-verify the whole device against it.
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        {
            let mut shadow = ShadowFlash::new(
                self.planes.len(),
                self.planes[0].blocks_total(),
                self.config.pages_per_block,
            );
            for pi in 0..self.planes.len() {
                for bi in 0..self.planes[pi].blocks_total() {
                    let id = hps_nand::BlockId(bi);
                    let block = self.planes[pi].block(id);
                    let capacity =
                        (block.page_size().as_u64() / Bytes::kib(4).as_u64()).max(1) as usize;
                    for page in 0..block.programmed_pages() {
                        let ppn = Ppn {
                            plane: pi,
                            addr: PageAddr { block: id, page },
                        };
                        let mut raw = [0u64; 2];
                        let lpns = self.residents.residents(ppn);
                        for (slot, lpn) in raw.iter_mut().zip(lpns.iter()) {
                            *slot = lpn.0;
                        }
                        let tick = shadow.try_program(pi, bi, page, &raw[..lpns.len()], capacity);
                        enforce(tick.map(|_| ()));
                    }
                }
            }
            self.shadow = shadow;
            enforce(self.audit_deep_verify());
        }

        Ok(report)
    }
}
