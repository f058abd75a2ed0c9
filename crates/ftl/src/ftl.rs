//! The FTL orchestrator: mapping + pools + GC + space accounting.
//!
//! [`Ftl`] owns the flash planes and answers the two questions the device
//! simulator asks:
//!
//! * *"store these LPNs in a page of this size on this plane"* —
//!   [`Ftl::write_chunk`], which transparently invalidates overwritten
//!   data, runs threshold GC under space pressure, and reports every
//!   physical operation performed;
//! * *"where do these LPNs live?"* — [`Ftl::read_ops`], which dedupes
//!   shared 8 KiB pages and separates never-written LPNs so the device can
//!   model them as pre-existing data.

use crate::addr::{FlashOp, Lpn, Ppn};
use crate::gc::{self, GcScratch, GcTrigger};
use crate::mapping::{MappingTable, PpnLayout, ResidentTable};
use crate::pool::Pool;
use crate::recovery::FaultRuntime;
use crate::space::SpaceAccounting;
use hps_core::{Bytes, Error, FxHashSet, Result};
use hps_nand::{BlockId, FaultConfig, Geometry, PageAddr, Plane, WearProfile, WearStats};

#[cfg(any(debug_assertions, feature = "sanitize"))]
use hps_core::audit::{enforce, ShadowFlash};

/// Static configuration of an [`Ftl`].
#[derive(Clone, Debug)]
pub struct FtlConfig {
    /// The flash array's dimensions.
    pub geometry: Geometry,
    /// Per-plane pools as `(page_size, block_count)`; Table V's HPS plane is
    /// `[(4 KiB, 512), (8 KiB, 256)]`.
    pub pools: Vec<(Bytes, usize)>,
    /// Pages per block (1024 in Table V).
    pub pages_per_block: usize,
    /// When garbage collection runs.
    pub gc_trigger: GcTrigger,
    /// Fault-injection profile. [`FaultConfig::NONE`] (the default
    /// everywhere) disables every mechanism and keeps behaviour
    /// byte-identical to a fault-free build. When enabled, each pool also
    /// gets `spare_blocks_per_pool` extra physical blocks per plane for
    /// bad-block replacement — spares never add logical capacity.
    pub faults: FaultConfig,
}

impl FtlConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if there are no pools, any pool is
    /// empty, page sizes repeat, `pages_per_block` is zero, the fault
    /// profile is invalid, or the flat FTL tables cannot hold the device:
    /// a packed PPN + 1 (see [`crate::mapping::PpnLayout`]) or the logical
    /// page count + 1 does not fit in a `u32`.
    pub fn validate(&self) -> Result<()> {
        if self.pools.is_empty() {
            return Err(Error::InvalidConfig("at least one pool required".into()));
        }
        if self.pages_per_block == 0 {
            return Err(Error::InvalidConfig(
                "pages_per_block must be non-zero".into(),
            ));
        }
        // lint: allow(hot-path-alloc) -- config validation runs once at construction
        let mut seen = Vec::new();
        for &(size, count) in &self.pools {
            if count == 0 {
                return Err(Error::InvalidConfig(format!("pool {size} has zero blocks")));
            }
            if size.is_zero() {
                return Err(Error::InvalidConfig("zero page size".into()));
            }
            if seen.contains(&size) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate pool page size {size}"
                )));
            }
            seen.push(size);
        }
        self.faults.validate()?;
        self.ppn_layout()?;
        if self.logical_pages() >= u64::from(u32::MAX) {
            return Err(Error::InvalidConfig(format!(
                "{} logical pages overflow the u32 mapping entries",
                self.logical_pages()
            )));
        }
        Ok(())
    }

    /// Bad-block spares per pool per plane: fault injection's
    /// `spare_blocks_per_pool`, or 0 when it is off.
    fn spares_per_pool(&self) -> usize {
        if self.faults.enabled() {
            self.faults.spare_blocks_per_pool
        } else {
            0
        }
    }

    /// Physical blocks per plane, spares included.
    fn blocks_per_plane(&self) -> usize {
        let spares = self.spares_per_pool();
        self.pools.iter().map(|&(_, count)| count + spares).sum()
    }

    /// How the FTL tables pack a PPN for this device.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a packed PPN + 1 does not fit
    /// in a `u32`.
    fn ppn_layout(&self) -> Result<PpnLayout> {
        let (planes, blocks) = (self.geometry.planes_total(), self.blocks_per_plane());
        PpnLayout::new(planes, blocks, self.pages_per_block).ok_or_else(|| {
            Error::InvalidConfig(format!(
                "{planes} planes x {blocks} blocks x {} pages overflow a u32 packed PPN",
                self.pages_per_block
            ))
        })
    }

    /// 4 KiB logical pages: the LPN range the device maps.
    fn logical_pages(&self) -> u64 {
        self.physical_capacity().as_u64() / Bytes::kib(4).as_u64()
    }

    /// Empty mapping and resident tables sized for this device, from
    /// zeroed allocations (see [`crate::mapping`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the packed PPN does not fit.
    pub(crate) fn empty_tables(&self) -> Result<(MappingTable, ResidentTable)> {
        let layout = self.ppn_layout()?;
        Ok((
            MappingTable::new(self.logical_pages() as usize, layout),
            ResidentTable::new(layout),
        ))
    }

    /// Physical capacity of the whole device.
    pub fn physical_capacity(&self) -> Bytes {
        let per_plane: Bytes = self
            .pools
            .iter()
            .map(|&(size, count)| size * (count * self.pages_per_block) as u64)
            .sum();
        per_plane * self.geometry.planes_total() as u64
    }

    /// Page sizes available, ascending.
    pub fn page_sizes(&self) -> Vec<Bytes> {
        let mut sizes: Vec<Bytes> = self.pools.iter().map(|&(s, _)| s).collect();
        sizes.sort();
        sizes
    }
}

/// Operation counters accumulated over an [`Ftl`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Pages programmed on behalf of host writes.
    pub host_programs: u64,
    /// Pages programmed by GC migration.
    pub gc_programs: u64,
    /// Pages read by GC migration.
    pub gc_reads: u64,
    /// Blocks erased.
    pub erases: u64,
    /// GC victim collections completed.
    pub gc_runs: u64,
}

impl FtlStats {
    /// Write amplification: total programs over host programs. `1.0` before
    /// any host write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_programs == 0 {
            1.0
        } else {
            (self.host_programs + self.gc_programs) as f64 / self.host_programs as f64
        }
    }
}

/// The flash translation layer.
///
/// Fields are crate-visible so the power-loss recovery pass
/// (`crate::recovery`) can rebuild them in place.
pub struct Ftl {
    pub(crate) config: FtlConfig,
    pub(crate) planes: Vec<Plane>,
    /// `pools[plane][i]` corresponds to `config.pools[i]`.
    pub(crate) pools: Vec<Vec<Pool>>,
    pub(crate) mapping: MappingTable,
    pub(crate) residents: ResidentTable,
    pub(crate) space: SpaceAccounting,
    pub(crate) stats: FtlStats,
    /// Reusable GC migration buffers (see [`GcScratch`]).
    gc_scratch: GcScratch,
    /// Invalid ("garbage") page count per `[plane][pool]`, maintained
    /// incrementally at every invalidate/erase. A pool with zero garbage
    /// provably has no GC victim, so the write path skips victim selection
    /// in O(1) instead of scanning every candidate block near the
    /// free-block floor.
    pub(crate) garbage: Vec<Vec<usize>>,
    /// Reusable dedup set for [`Ftl::read_ops_into`] on large requests;
    /// cleared per call, capacity retained.
    read_seen: FxHashSet<Ppn>,
    /// Reusable dedup list for [`Ftl::read_ops_into`] on small requests —
    /// a linear scan over a handful of `Ppn`s beats hashing them.
    read_seen_list: Vec<Ppn>,
    /// Fault-injection runtime; `None` when the configured profile is
    /// [`FaultConfig::NONE`], making the fault-free hot path one
    /// pointer-null test.
    pub(crate) faults: Option<Box<FaultRuntime>>,
    /// Shadow-state invariant auditor (debug builds + `sanitize` feature).
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    pub(crate) shadow: ShadowFlash,
}

/// Requests of at most this many LPNs dedup physical pages by linear scan
/// over a small reused vector; longer ones fall back to the hash set. The
/// crossover is generous — scanning a handful of `Ppn`s is cheaper than
/// hashing them, and replay traces are dominated by short requests — and
/// it only affects speed: both stores keep first-seen semantics.
const READ_DEDUP_SCAN_MAX: usize = 16;

/// The dedup store behind [`Ftl::read_ops_into`].
enum ReadSeen<'a> {
    /// Small request: membership by linear scan.
    Scan(&'a mut Vec<Ppn>),
    /// Large request: membership by hash probe.
    Hash(&'a mut FxHashSet<Ppn>),
}

impl ReadSeen<'_> {
    /// Records `ppn`, returning `true` when it was not seen before (the
    /// `HashSet::insert` contract).
    #[inline]
    fn insert(&mut self, ppn: Ppn) -> bool {
        match self {
            ReadSeen::Scan(list) => {
                if list.contains(&ppn) {
                    false
                } else {
                    list.push(ppn);
                    true
                }
            }
            ReadSeen::Hash(set) => set.insert(ppn),
        }
    }
}

impl Ftl {
    /// Builds a fresh (fully erased) FTL from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: FtlConfig) -> Result<Self> {
        config.validate()?;
        // Under fault injection each pool gets extra physical blocks as
        // bad-block spares. They live at the tail of the plane's pool
        // segment, invisible to allocation (and to `physical_capacity`,
        // which reads `config.pools`) until a retirement adopts one.
        let spares = config.spares_per_pool();
        // Constructor-time allocation: runs once per device, never on the replay path.
        let plane_spec: Vec<(Bytes, usize)> = config
            .pools
            .iter()
            .map(|&(size, count)| (size, count + spares))
            .collect();
        let planes: Vec<Plane> = (0..config.geometry.planes_total())
            .map(|_| Plane::new(&plane_spec, config.pages_per_block))
            .collect();
        let pools = planes
            .iter()
            .map(|plane| {
                config
                    .pools
                    .iter()
                    .map(|&(size, _)| Pool::with_spares(plane, size, spares))
                    .collect()
            })
            .collect();
        let blocks_per_plane = config.blocks_per_plane();
        let (mapping, residents) = config.empty_tables()?;
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        let shadow = ShadowFlash::new(
            config.geometry.planes_total(),
            blocks_per_plane,
            config.pages_per_block,
        );
        let faults = config.faults.enabled().then(|| {
            Box::new(FaultRuntime::new(
                config.faults,
                config.geometry.planes_total(),
                blocks_per_plane,
            ))
        });
        // lint: allow(hot-path-alloc) -- constructor, runs once per device
        let garbage = vec![vec![0; config.pools.len()]; planes.len()];
        Ok(Ftl {
            config,
            planes,
            pools,
            garbage,
            mapping,
            residents,
            space: SpaceAccounting::new(),
            stats: FtlStats::default(),
            gc_scratch: GcScratch::default(),
            read_seen: FxHashSet::default(),
            read_seen_list: Vec::new(), // lint: allow(hot-path-alloc) -- constructor, runs once per device
            faults,
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            shadow,
        })
    }

    /// The configuration this FTL was built with.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Lifetime operation counters.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Space-utilization accounting (Fig. 9's metric).
    pub fn space(&self) -> SpaceAccounting {
        self.space
    }

    /// Erase-count statistics across every block.
    pub fn wear(&self) -> WearStats {
        WearStats::from_planes(self.planes.iter())
    }

    /// Pre-ages every block from a [`WearProfile`]: each block is credited
    /// `profile.draw(plane, block)` prior erase cycles, so the device
    /// starts mid-life and the fault model's wear-slope term conditions on
    /// realistic erase counts from the first request. Draws are pure
    /// hashes of the coordinates — injecting wear consumes no RNG stream
    /// and is byte-identical at any job count.
    ///
    /// # Panics
    ///
    /// Panics if any block has already been programmed or erased
    /// (pre-aging models history *before* the simulation; inject wear
    /// right after construction, before the first request).
    pub fn inject_wear(&mut self, profile: &WearProfile) {
        for (plane_idx, plane) in self.planes.iter_mut().enumerate() {
            for block_idx in 0..plane.blocks_total() {
                let erases = profile.draw(plane_idx, block_idx);
                if erases > 0 {
                    plane.preage(BlockId(block_idx), erases);
                }
            }
        }
    }

    /// Number of currently mapped LPNs.
    pub fn mapped_lpns(&self) -> usize {
        self.mapping.len()
    }

    /// Free blocks remaining in `plane`'s pool for `page_size`.
    ///
    /// # Panics
    ///
    /// Panics if the plane index or page size is unknown.
    pub fn free_blocks(&self, plane: usize, page_size: Bytes) -> usize {
        self.pools[plane][self.pool_index(page_size)].free_blocks()
    }

    /// Writes one physical page's worth of LPNs (`lpns`, 1 or 2 entries)
    /// into a page of `page_size` on `plane`. `data` is the true payload
    /// size — less than `page_size` when a small write pads a large page.
    ///
    /// Returns every physical op performed, including any GC the write
    /// forced. Ops are ordered: GC ops first, then the host program.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityExhausted`] when the pool has no space even
    /// after garbage collection.
    ///
    /// # Panics
    ///
    /// Panics if `lpns` is empty/too long, holds duplicates, or holds an
    /// LPN at or past the logical capacity (`logical_capacity() / 4 KiB`;
    /// the device clamps every request into range, so such an LPN is a
    /// caller bug), or if `data` exceeds `page_size`.
    pub fn write_chunk(
        &mut self,
        plane: usize,
        page_size: Bytes,
        lpns: &[Lpn],
        data: Bytes,
    ) -> Result<Vec<FlashOp>> {
        let mut ops = Vec::new(); // lint: allow(hot-path-alloc) — allocating wrapper; hot path uses write_chunk_into
        self.write_chunk_into(plane, page_size, lpns, data, &mut ops)?;
        Ok(ops)
    }

    /// [`Ftl::write_chunk`], but appending the performed ops into a
    /// caller-owned buffer (not cleared first). This is the replay hot
    /// path: the device reuses one `Vec<FlashOp>` across requests, so a
    /// warm write performs no heap allocations.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::write_chunk`].
    ///
    /// # Panics
    ///
    /// Same as [`Ftl::write_chunk`].
    pub fn write_chunk_into(
        &mut self,
        plane: usize,
        page_size: Bytes,
        lpns: &[Lpn],
        data: Bytes,
        ops: &mut Vec<FlashOp>,
    ) -> Result<()> {
        // FTL write phase; GC triggered from here nests (and is
        // attributed to) the gc.select/gc.copyback phases.
        let _prof = hps_obs::profile::phase(hps_obs::Phase::FtlWrite);
        assert!(
            (1..=2).contains(&lpns.len()),
            "a chunk holds one or two LPNs"
        );
        assert!(
            lpns.len() < 2 || lpns[0] != lpns[1],
            "duplicate LPN in chunk"
        );
        for &lpn in lpns {
            assert!(
                lpn.0 < self.mapping.lpns() as u64,
                "{lpn} is past the logical capacity of {} LPNs",
                self.mapping.lpns()
            );
        }
        assert!(data <= page_size, "payload larger than the page");
        if let Some(reason) = self.faults.as_deref().and_then(|f| f.read_only.as_deref()) {
            // Spares exhausted earlier: writes can no longer be placed
            // safely. Reads keep working.
            return Err(Error::ReadOnly {
                reason: reason.to_string(),
            });
        }
        let pool_idx = self.pool_index(page_size);

        // Threshold GC: keep a free-block floor so migration always has room.
        self.collect_pool_to_floor(plane, pool_idx, ops)?;

        // Invalidate any previous locations of these LPNs.
        for &lpn in lpns {
            self.invalidate_lpn(lpn);
        }

        // Program the new page (re-driving past injected program failures).
        let ppn = match self.allocate_checked(plane, pool_idx, page_size, false, ops)? {
            Some(ppn) => ppn,
            None => {
                // Pool full mid-write: force a collection and retry once.
                self.collect_victim(plane, pool_idx, ops)?;
                self.allocate_checked(plane, pool_idx, page_size, false, ops)?
                    .ok_or_else(|| Error::CapacityExhausted {
                        location: format!("plane {plane} ({page_size} pool)"),
                    })?
            }
        };
        self.residents.occupy(ppn, lpns);
        for &lpn in lpns {
            self.mapping.remap(lpn, ppn);
        }
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        {
            // At most two LPNs per physical page: a stack array keeps the
            // audited build's hot path allocation-free too.
            let mut lpns_raw = [0u64; 2];
            for (slot, lpn) in lpns_raw.iter_mut().zip(lpns) {
                *slot = lpn.0;
            }
            let tick = self.shadow.try_program(
                ppn.plane,
                ppn.addr.block.0,
                ppn.addr.page,
                &lpns_raw[..lpns.len()],
                Self::page_lpn_capacity(page_size),
            );
            self.audit_tick(tick);
        }
        self.space.record_write(data, page_size);
        self.stats.host_programs += 1;
        if let Some(f) = self.faults.as_deref_mut() {
            // The OOB reverse map is written atomically with the page; it
            // is what recovery rebuilds the mapping from.
            f.journal(plane, ppn.addr.block.0, ppn.addr.page, lpns);
        }
        ops.push(FlashOp::program(plane, page_size));
        Ok(())
    }

    /// [`Ftl::allocate`] with fault injection: ticks the crash countdown,
    /// draws a program-failure verdict for the allocated page, and on
    /// failure consumes the page (invalidated, cost charged via `ops`) and
    /// re-drives to the next one. Termination is guaranteed because every
    /// failed attempt consumes a page. The fault-free path is a single
    /// null test in front of [`Ftl::allocate`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::PowerLoss`] when an armed crash point fires.
    fn allocate_checked(
        &mut self,
        plane: usize,
        pool_idx: usize,
        page_size: Bytes,
        for_gc: bool,
        ops: &mut Vec<FlashOp>,
    ) -> Result<Option<Ppn>> {
        if self.faults.is_none() {
            return Ok(self.allocate(plane, pool_idx));
        }
        loop {
            // The crash fires before the program applies: a torn program
            // leaves nothing durable (no OOB entry on real parts either).
            if let Some(f) = self.faults.as_deref_mut() {
                f.check_crash()?;
            }
            let Some(ppn) = self.allocate(plane, pool_idx) else {
                return Ok(None);
            };
            let block = ppn.addr.block;
            let epoch = self.planes[plane].block(block).erase_count();
            let failed = if let Some(f) = self.faults.as_deref_mut() {
                let failed = f.cfg.program_fails(plane, block.0, ppn.addr.page, epoch);
                if failed {
                    f.stats.program_failures += 1;
                    f.program_fails[plane][block.0] += 1;
                }
                failed
            } else {
                false
            };
            if !failed {
                return Ok(Some(ppn));
            }
            // Program failure: the attempt's time cost is still paid, the
            // page is garbage (journals no OOB entry), and the loop
            // re-drives the write to the next page.
            let op = FlashOp::program(plane, page_size);
            ops.push(if for_gc { op.gc() } else { op });
            self.planes[plane].invalidate(block, ppn.addr.page);
            self.garbage[plane][pool_idx] += 1;
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            {
                // An empty LPN set marks the shadow page dead-on-arrival.
                let tick = self
                    .shadow
                    .try_program(plane, block.0, ppn.addr.page, &[], 1);
                self.audit_tick(tick);
            }
        }
    }

    /// Resolves `lpns` to the physical reads required: one op per distinct
    /// mapped physical page (two LPNs sharing an 8 KiB page cost one read),
    /// plus the list of LPNs that were never written (the device models
    /// those as pre-existing data).
    ///
    /// Under fault injection each distinct physical read also runs the
    /// ECC/read-retry state machine (`&mut self` exists for its counters):
    /// bit errors above the correction threshold trigger bounded re-reads
    /// at reduced effective RBER, each costing one extra flash read, and
    /// exhausting the budget records an uncorrectable-ECC event.
    pub fn read_ops(&mut self, lpns: &[Lpn]) -> (Vec<FlashOp>, Vec<Lpn>) {
        // Allocating wrapper; the hot path uses `read_ops_with` with reused buffers.
        let mut seen: FxHashSet<Ppn> = FxHashSet::default();
        let mut ops = Vec::new(); // lint: allow(hot-path-alloc)
        let mut unmapped = Vec::new(); // lint: allow(hot-path-alloc)
        self.read_ops_with(
            lpns,
            &mut ReadSeen::Hash(&mut seen),
            &mut ops,
            &mut unmapped,
        );
        (ops, unmapped)
    }

    /// [`Ftl::read_ops`], but appending into caller-owned buffers (not
    /// cleared first) and reusing the FTL's internal dedup storage. The
    /// replay hot path: a warm read performs no heap allocations. Short
    /// requests dedup by linear scan, long ones by hash probe — first-seen
    /// semantics either way, so the emitted ops are identical.
    pub fn read_ops_into(&mut self, lpns: &[Lpn], ops: &mut Vec<FlashOp>, unmapped: &mut Vec<Lpn>) {
        if lpns.len() <= READ_DEDUP_SCAN_MAX {
            let mut list = core::mem::take(&mut self.read_seen_list);
            list.clear();
            self.read_ops_with(lpns, &mut ReadSeen::Scan(&mut list), ops, unmapped);
            self.read_seen_list = list;
        } else {
            let mut seen = core::mem::take(&mut self.read_seen);
            seen.clear();
            self.read_ops_with(lpns, &mut ReadSeen::Hash(&mut seen), ops, unmapped);
            self.read_seen = seen;
        }
    }

    fn read_ops_with(
        &mut self,
        lpns: &[Lpn],
        seen: &mut ReadSeen<'_>,
        ops: &mut Vec<FlashOp>,
        unmapped: &mut Vec<Lpn>,
    ) {
        let _prof = hps_obs::profile::phase(hps_obs::Phase::FtlRead);
        for &lpn in lpns {
            let mapped = {
                // Map-lookup phase, separated from read-op construction.
                let _prof_lookup = hps_obs::profile::phase(hps_obs::Phase::FtlMapLookup);
                self.mapping.lookup(lpn)
            };
            match mapped {
                Some(ppn) => {
                    #[cfg(any(debug_assertions, feature = "sanitize"))]
                    enforce(
                        self.shadow
                            .try_read(ppn.plane, ppn.addr.block.0, ppn.addr.page),
                    );
                    if seen.insert(ppn) {
                        let block = self.planes[ppn.plane].block(ppn.addr.block);
                        let size = block.page_size();
                        let epoch = block.erase_count();
                        if let Some(f) = self.faults.as_deref_mut() {
                            ecc_read_retry(f, ppn, size, epoch, ops);
                        }
                        ops.push(FlashOp::read(ppn.plane, size));
                    }
                }
                None => unmapped.push(lpn),
            }
        }
    }

    /// Runs at most one idle-time GC pass per plane/pool (Implication 2).
    /// Returns the physical ops performed; empty when the trigger is not an
    /// idle policy or nothing is worth collecting.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CapacityExhausted`] if migration runs out of space —
    /// possible only on pathologically over-filled devices.
    pub fn idle_gc(&mut self) -> Result<Vec<FlashOp>> {
        let mut ops = Vec::new(); // lint: allow(hot-path-alloc) — allocating wrapper; hot path uses idle_gc_into
        self.idle_gc_into(&mut ops)?;
        Ok(ops)
    }

    /// [`Ftl::idle_gc`], but appending the performed ops into a
    /// caller-owned buffer (not cleared first); the allocation-free path
    /// for warm replay loops.
    ///
    /// # Errors
    ///
    /// Same as [`Ftl::idle_gc`].
    pub fn idle_gc_into(&mut self, ops: &mut Vec<FlashOp>) -> Result<()> {
        let trigger = self.config.gc_trigger;
        if !trigger.collects_when_idle() {
            return Ok(());
        }
        if self
            .faults
            .as_deref()
            .is_some_and(|f| f.read_only.is_some())
        {
            // A degraded device performs no background erases; idling is
            // simply a no-op rather than an error.
            return Ok(());
        }
        for plane in 0..self.planes.len() {
            for pool_idx in 0..self.pools[plane].len() {
                // Same O(1) fast path as `collect_pool_to_floor`: an idle
                // window over a garbage-free pool has nothing to collect.
                if self.garbage[plane][pool_idx] == 0 {
                    continue;
                }
                if gc::idle_pass_worthwhile(
                    &self.planes[plane],
                    &self.pools[plane][pool_idx],
                    trigger,
                ) {
                    self.collect_victim(plane, pool_idx, ops)?;
                }
            }
        }
        Ok(())
    }

    /// Logical capacity: every pool byte is addressable (the model reserves
    /// no over-provisioned space; the GC floor provides working room).
    pub fn logical_capacity(&self) -> Bytes {
        self.config.physical_capacity()
    }

    /// Number of planes the FTL manages.
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// Fraction of one plane's physical pages currently holding garbage
    /// (invalid data), read from the O(1) per-pool garbage counters. Feeds
    /// the per-plane garbage-ratio counter track in the Chrome export.
    pub fn garbage_ratio(&self, plane: usize) -> f64 {
        let p = &self.planes[plane];
        let pages_per_block = p.block(BlockId(0)).pages_per_block();
        let total = p.blocks_total() * pages_per_block;
        if total == 0 {
            return 0.0;
        }
        let invalid: usize = self.garbage[plane].iter().sum();
        invalid as f64 / total as f64
    }

    /// Attach the device clock and in-flight request id to the auditor so
    /// violation reports carry them. No-op shell in un-sanitized release
    /// builds (the cfg lives here so callers need no gating of their own).
    #[allow(unused_variables)]
    pub fn audit_set_context(&mut self, sim_time_ns: u64, request: Option<u64>) {
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        self.shadow.set_context(sim_time_ns, request);
    }

    /// Cross-checks the entire real FTL state against the shadow model:
    /// per-block valid counts, device-wide valid/invalid tallies, and every
    /// logical-to-physical mapping. O(blocks + mapped LPNs); the auditor
    /// schedules it every [`hps_core::audit::DEEP_VERIFY_INTERVAL`]
    /// mutations, and end-of-run checks call it directly.
    ///
    /// # Errors
    ///
    /// Returns the first [`hps_core::audit::Violation`] found.
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    pub fn audit_deep_verify(&self) -> core::result::Result<(), hps_core::audit::Violation> {
        let mut valid = 0usize;
        let mut invalid = 0usize;
        for (plane_idx, plane) in self.planes.iter().enumerate() {
            for (id, block) in plane.iter() {
                valid += block.valid_pages();
                invalid += block.invalid_pages();
                self.shadow
                    .try_check_block(plane_idx, id.0, block.valid_pages())?;
            }
        }
        self.shadow.try_check_space(valid, invalid)?;
        if self.shadow.mapped_lpns() != self.mapping.len() {
            return Err(hps_core::audit::Violation {
                invariant: hps_core::audit::InvariantId::MappingDiverged,
                sim_time_ns: 0,
                request: None,
                addr: None,
                detail: format!(
                    "real mapping holds {} LPNs, shadow holds {}",
                    self.mapping.len(),
                    self.shadow.mapped_lpns()
                ),
            });
        }
        for (lpn, _) in self.shadow.mappings() {
            let real = self
                .mapping
                .lookup(Lpn(lpn))
                .map(|p| (p.plane, p.addr.block.0, p.addr.page));
            self.shadow.try_check_mapping(lpn, real)?;
        }
        Ok(())
    }

    /// Folds a shadow mutation result: escalates violations immediately and
    /// runs the amortized deep verification when the mutation counter says
    /// one is due.
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    fn audit_tick(&self, tick: core::result::Result<bool, hps_core::audit::Violation>) {
        match tick {
            Ok(true) => enforce(self.audit_deep_verify()),
            Ok(false) => {}
            Err(v) => enforce(Err(v)),
        }
    }

    /// How many 4 KiB logical pages one physical page of `page_size` holds
    /// (2 for the HPS 8 KiB half-page pairing, 1 otherwise).
    #[cfg(any(debug_assertions, feature = "sanitize"))]
    fn page_lpn_capacity(page_size: Bytes) -> usize {
        (page_size.as_u64() / Bytes::kib(4).as_u64()).max(1) as usize
    }

    fn pool_index(&self, page_size: Bytes) -> usize {
        self.config
            .pools
            .iter()
            .position(|&(s, _)| s == page_size)
            .unwrap_or_else(|| panic!("no pool with page size {page_size}"))
    }

    fn allocate(&mut self, plane: usize, pool_idx: usize) -> Option<Ppn> {
        let (block, page) = self.pools[plane][pool_idx].allocate_page(&mut self.planes[plane])?;
        Some(Ppn {
            plane,
            addr: PageAddr { block, page },
        })
    }

    fn invalidate_lpn(&mut self, lpn: Lpn) {
        if let Some(old) = self.mapping.unmap(lpn) {
            if self.residents.evict(old, lpn) {
                let plane = &mut self.planes[old.plane];
                let page_size = plane.block(old.addr.block).page_size();
                plane.invalidate(old.addr.block, old.addr.page);
                let pool_idx = self.pool_index(page_size);
                self.garbage[old.plane][pool_idx] += 1;
            }
        }
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        {
            let tick = self.shadow.try_unmap(lpn.0);
            self.audit_tick(tick);
        }
    }

    /// GC until the pool's free blocks exceed the trigger floor (or no
    /// victim remains).
    fn collect_pool_to_floor(
        &mut self,
        plane: usize,
        pool_idx: usize,
        ops: &mut Vec<FlashOp>,
    ) -> Result<()> {
        let floor = self.config.gc_trigger.min_free_blocks();
        while self.pools[plane][pool_idx].free_blocks() <= floor {
            // O(1) fast path: a pool with zero invalid pages has no victim
            // (`gc::select_victim` would scan every candidate block to
            // conclude the same), so a write stream hovering at the
            // free-block floor with no garbage pays one counter read here.
            // Garbage in the *active* block alone still selects no victim,
            // so the scan below stays as the authoritative check.
            if self.garbage[plane][pool_idx] == 0 {
                break;
            }
            let Some(victim) = gc::select_victim(&self.planes[plane], &self.pools[plane][pool_idx])
            else {
                break;
            };
            self.collect_block(plane, pool_idx, victim, ops)?;
        }
        Ok(())
    }

    /// Collects the greedy victim of one pool: migrate live pages into the
    /// active block, erase the victim, return it to the free list.
    fn collect_victim(
        &mut self,
        plane: usize,
        pool_idx: usize,
        ops: &mut Vec<FlashOp>,
    ) -> Result<()> {
        let Some(victim) = gc::select_victim(&self.planes[plane], &self.pools[plane][pool_idx])
        else {
            return Ok(());
        };
        self.collect_block(plane, pool_idx, victim, ops)
    }

    /// Collects one already-selected victim block: migrate live pages into
    /// the active block, erase it, return it to the free list. Callers that
    /// ran [`gc::select_victim`] themselves use this directly so the scan
    /// happens once per collection.
    fn collect_block(
        &mut self,
        plane: usize,
        pool_idx: usize,
        victim: BlockId,
        ops: &mut Vec<FlashOp>,
    ) -> Result<()> {
        let _prof = hps_obs::profile::phase(hps_obs::Phase::GcCopyback);
        let page_size = self.planes[plane].block(victim).page_size();
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        enforce(self.shadow.try_gc_victim(plane, victim.0));
        // Reuse the FTL-owned scratch buffer for the victim's live-page
        // list (taken out of `self` so the loop below can borrow freely).
        let mut live_pages = core::mem::take(&mut self.gc_scratch.live_pages);
        live_pages.clear();
        self.planes[plane]
            .block(victim)
            .valid_page_indices_into(&mut live_pages);
        for &page in &live_pages {
            let old = Ppn {
                plane,
                addr: PageAddr {
                    block: victim,
                    page,
                },
            };
            // Allocate the destination FIRST: if the pool is truly out of
            // space we must fail before touching the old page, or the
            // mapping and resident tables would diverge.
            let new = match self.allocate_checked(plane, pool_idx, page_size, true, ops) {
                Ok(Some(ppn)) => ppn,
                Ok(None) => {
                    self.gc_scratch.live_pages = live_pages;
                    return Err(Error::CapacityExhausted {
                        location: format!("plane {plane} ({page_size} pool) during GC"),
                    });
                }
                Err(e) => {
                    self.gc_scratch.live_pages = live_pages;
                    return Err(e);
                }
            };
            // Read the live page...
            ops.push(FlashOp::read(plane, page_size).gc());
            self.stats.gc_reads += 1;
            // ...and move its residents across.
            let lpns = self.residents.take(old);
            debug_assert!(!lpns.is_empty(), "valid page with no residents");
            self.planes[plane].invalidate(victim, page);
            self.garbage[plane][pool_idx] += 1;
            self.residents.occupy(new, &lpns);
            for &lpn in lpns.iter() {
                self.mapping.remap(lpn, new);
            }
            if let Some(f) = self.faults.as_deref_mut() {
                // The migrated copy journals a fresher sequence number, so
                // recovery prefers it over the victim's stale copy even if
                // the crash preempts the erase below.
                f.journal(plane, new.addr.block.0, new.addr.page, &lpns);
            }
            #[cfg(any(debug_assertions, feature = "sanitize"))]
            {
                // The GC read must target a programmed page, and migrating
                // the residents supersedes the victim copy in the shadow.
                enforce(self.shadow.try_read(plane, victim.0, page));
                let mut lpns_raw = [0u64; 2];
                for (slot, lpn) in lpns_raw.iter_mut().zip(lpns.iter()) {
                    *slot = lpn.0;
                }
                let lpns_raw = &lpns_raw[..lpns.len()];
                let tick = self.shadow.try_program(
                    new.plane,
                    new.addr.block.0,
                    new.addr.page,
                    lpns_raw,
                    Self::page_lpn_capacity(page_size),
                );
                self.audit_tick(tick);
            }
            ops.push(FlashOp::program(plane, page_size).gc());
            self.stats.gc_programs += 1;
        }
        // Hand the buffer back; an early return above only loses capacity,
        // never correctness.
        self.gc_scratch.live_pages = live_pages;
        // Under fault injection the erase may fail outright (a draw) or the
        // block may have accrued enough program failures to be retired as
        // grown-bad. Both retire at erase time, when the block provably
        // holds no live data — so retirement never migrates anything.
        let mut retire = false;
        let epoch = self.planes[plane].block(victim).erase_count();
        if let Some(f) = self.faults.as_deref_mut() {
            // The crash fires before the erase applies: the victim's pages
            // (and OOB entries) stay intact for recovery to judge.
            f.check_crash()?;
            let draw_failed = f.cfg.erase_fails(plane, victim.0, epoch);
            if draw_failed {
                f.stats.erase_failures += 1;
            }
            retire = draw_failed
                || (f.cfg.bad_block_program_fails > 0
                    && f.program_fails[plane][victim.0] >= f.cfg.bad_block_program_fails);
            f.remove_block_oob(plane, victim.0);
            f.reads_since_erase[plane][victim.0] = 0;
        }
        // The erase (or retirement) reclaims every invalid page the counter
        // has accrued for this block (each was counted exactly once, by
        // `invalidate_lpn`, a failed program, or the migration loop above),
        // so the bookkeeping nets to zero across a full collect cycle. A
        // retired block leaves the pool's membership, so its pages leave
        // the victim-existence counter too.
        let reclaimed = self.planes[plane].block(victim).invalid_pages();
        debug_assert!(self.garbage[plane][pool_idx] >= reclaimed);
        self.garbage[plane][pool_idx] -= reclaimed;
        if retire {
            // The failed erase attempt still costs erase time; the block is
            // never erased (its pages stay invalid, consistent with the
            // shadow's view) and a spare replaces it — or, with spares
            // exhausted, the device degrades to read-only.
            ops.push(FlashOp::erase(plane, page_size).gc());
            let replaced = self.pools[plane][pool_idx].retire_and_replace(victim);
            if let Some(f) = self.faults.as_deref_mut() {
                f.stats.bad_blocks += 1;
                match replaced {
                    Some(_) => f.stats.spare_adoptions += 1,
                    None => {
                        f.read_only = Some(format!(
                            "plane {plane} ({page_size} pool): spares exhausted"
                        ));
                    }
                }
            }
            self.stats.gc_runs += 1;
            return Ok(());
        }
        self.planes[plane].erase(victim);
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        {
            let tick = self.shadow.try_erase(plane, victim.0);
            self.audit_tick(tick);
        }
        self.pools[plane][pool_idx].return_erased(&self.planes[plane], victim);
        ops.push(FlashOp::erase(plane, page_size).gc());
        self.stats.erases += 1;
        self.stats.gc_runs += 1;
        Ok(())
    }
}

/// Runs the ECC/read-retry state machine for one distinct physical page
/// read. Bit errors are drawn from the configured RBER model (wear- and
/// disturb-conditioned); when they exceed the page's correction threshold,
/// each retry re-reads at a reduced effective RBER and emits one extra
/// flash read on the page's plane, so the retry's latency lands in
/// simulated time just ahead of the page's own read. A read that exhausts
/// the retry budget is recorded as an uncorrectable-ECC event — the
/// simulator still completes it, since payload contents are not modeled.
fn ecc_read_retry(
    f: &mut FaultRuntime,
    ppn: Ppn,
    page_size: Bytes,
    erase_epoch: u64,
    ops: &mut Vec<FlashOp>,
) {
    let cfg = f.cfg;
    if cfg.rber_base == 0.0 && cfg.rber_wear_slope == 0.0 && cfg.read_disturb_rber == 0.0 {
        return;
    }
    let counter = &mut f.reads_since_erase[ppn.plane][ppn.addr.block.0];
    *counter += 1;
    let reads = u64::from(*counter);
    let threshold = cfg.ecc_threshold(page_size);
    let mut retries = 0u32;
    let corrected = loop {
        let errors = cfg.read_bit_errors(
            ppn.plane,
            ppn.addr.block.0,
            ppn.addr.page,
            page_size,
            erase_epoch,
            reads,
            retries,
        );
        if errors <= threshold {
            break true;
        }
        if retries >= cfg.max_read_retries {
            break false;
        }
        retries += 1;
        ops.push(FlashOp::read(ppn.plane, page_size));
    };
    f.stats.record_read(retries, corrected);
}

impl core::fmt::Debug for Ftl {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ftl")
            .field("config", &self.config)
            .field("mapped_lpns", &self.mapping.len())
            .field("stats", &self.stats)
            .field("space", &self.space)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FtlConfig {
        FtlConfig {
            geometry: Geometry::new(1, 1, 1, 1).unwrap(),
            pools: vec![(Bytes::kib(4), 4)],
            pages_per_block: 4,
            gc_trigger: GcTrigger::Threshold { min_free_blocks: 1 },
            faults: FaultConfig::NONE,
        }
    }

    fn hybrid_config() -> FtlConfig {
        FtlConfig {
            geometry: Geometry::new(1, 1, 1, 2).unwrap(),
            pools: vec![(Bytes::kib(4), 4), (Bytes::kib(8), 2)],
            pages_per_block: 4,
            gc_trigger: GcTrigger::Threshold { min_free_blocks: 1 },
            faults: FaultConfig::NONE,
        }
    }

    #[test]
    fn config_validation() {
        assert!(tiny_config().validate().is_ok());
        let mut c = tiny_config();
        c.pools.clear();
        assert!(c.validate().is_err());
        let mut c = tiny_config();
        c.pools.push((Bytes::kib(4), 2));
        assert!(c.validate().is_err(), "duplicate page size");
        let mut c = tiny_config();
        c.pages_per_block = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn config_validation_rejects_devices_the_tables_cannot_pack() {
        // 8 planes x 2^16 blocks x 2^16 pages: a 35-bit packed PPN.
        let wide = FtlConfig {
            geometry: Geometry::TABLE_V,
            pools: vec![(Bytes::kib(4), 1 << 16)],
            pages_per_block: 1 << 16,
            gc_trigger: GcTrigger::default(),
            faults: FaultConfig::NONE,
        };
        // 2^28 physical 64 KiB pages pack into 28 bits, but hold 2^32 LPNs.
        let deep = FtlConfig {
            geometry: Geometry::new(1, 1, 1, 1).unwrap(),
            pools: vec![(Bytes::kib(64), 1 << 12)],
            pages_per_block: 1 << 16,
            gc_trigger: GcTrigger::default(),
            faults: FaultConfig::NONE,
        };
        for (config, needle) in [(wide, "packed PPN"), (deep, "logical pages")] {
            match config.validate() {
                Err(Error::InvalidConfig(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected InvalidConfig({needle}), got {other:?}"),
            }
            assert!(matches!(Ftl::new(config), Err(Error::InvalidConfig(_))));
        }
        // Fault spares count towards the block field: 2^10 pool blocks
        // fill 10 bits, and one spare per pool needs an 11th.
        let mut c = FtlConfig {
            geometry: Geometry::new(1, 1, 1, 1).unwrap(),
            pools: vec![(Bytes::kib(4), 1 << 10)],
            pages_per_block: 1 << 21,
            gc_trigger: GcTrigger::default(),
            faults: FaultConfig::NONE,
        };
        assert!(c.validate().is_ok());
        c.faults = faulty_config(0.0, 0.0, 1).faults;
        assert!(c.validate().is_err(), "spares push the PPN to 32 bits");
    }

    #[test]
    #[should_panic(expected = "past the logical capacity of 16 LPNs")]
    fn write_past_logical_capacity_panics() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        assert_eq!(ftl.logical_capacity(), Bytes::kib(4 * 16));
        ftl.write_chunk(0, Bytes::kib(4), &[Lpn(16)], Bytes::kib(4))
            .unwrap();
    }

    #[test]
    fn physical_capacity_matches_table_v_shape() {
        // HPS plane of Table V: 512×4K blocks + 256×8K blocks, 1024 pages,
        // 8 planes → 32 GiB.
        let c = FtlConfig {
            geometry: Geometry::TABLE_V,
            pools: vec![(Bytes::kib(4), 512), (Bytes::kib(8), 256)],
            pages_per_block: 1024,
            gc_trigger: GcTrigger::default(),
            faults: FaultConfig::NONE,
        };
        assert_eq!(c.physical_capacity(), Bytes::gib(32));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        let ops = ftl
            .write_chunk(0, Bytes::kib(4), &[Lpn(3)], Bytes::kib(4))
            .unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, crate::addr::OpKind::Program);
        let (reads, unmapped) = ftl.read_ops(&[Lpn(3), Lpn(4)]);
        assert_eq!(reads.len(), 1);
        assert_eq!(unmapped, vec![Lpn(4)]);
    }

    #[test]
    fn shared_8k_page_reads_once() {
        let mut ftl = Ftl::new(hybrid_config()).unwrap();
        ftl.write_chunk(0, Bytes::kib(8), &[Lpn(0), Lpn(1)], Bytes::kib(8))
            .unwrap();
        let (reads, unmapped) = ftl.read_ops(&[Lpn(0), Lpn(1)]);
        assert_eq!(reads.len(), 1, "one physical read serves both LPNs");
        assert!(unmapped.is_empty());
        assert_eq!(reads[0].page_size, Bytes::kib(8));
    }

    #[test]
    fn overwrite_invalidates_and_gc_reclaims() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        // 4 blocks × 4 pages = 16 pages; floor of 1 free block. Overwrite
        // the same LPN repeatedly: every write invalidates the previous
        // page, so GC always has fully-invalid victims and the device never
        // exhausts.
        for i in 0..64 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(0)], Bytes::kib(4))
                .unwrap_or_else(|e| panic!("write {i} failed: {e}"));
        }
        assert!(ftl.stats().gc_runs > 0, "GC must have run");
        assert_eq!(
            ftl.stats().gc_programs,
            0,
            "fully-invalid victims migrate nothing"
        );
        assert!(ftl.stats().erases >= ftl.stats().gc_runs);
        assert_eq!(ftl.mapped_lpns(), 1);
    }

    #[test]
    fn gc_migrates_live_data_correctly() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        // Fill LPNs 0..8 (two blocks), then overwrite LPNs 0..4 many times.
        // GC victims will contain live pages from the first fill.
        for i in 0..8 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i)], Bytes::kib(4))
                .unwrap();
        }
        for _ in 0..10 {
            for i in 0..4 {
                ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i)], Bytes::kib(4))
                    .unwrap();
            }
        }
        // All 8 LPNs must still be mapped and readable.
        let lpns: Vec<Lpn> = (0..8).map(Lpn).collect();
        let (reads, unmapped) = ftl.read_ops(&lpns);
        assert!(unmapped.is_empty(), "GC lost live data: {unmapped:?}");
        assert_eq!(reads.len(), 8);
        assert!(ftl.stats().gc_programs > 0, "some victims held live pages");
    }

    #[test]
    fn capacity_exhausts_when_all_live() {
        let mut ftl = Ftl::new(hybrid_config()).unwrap();
        // 16 distinct LPNs fill plane 0's 4 KiB pool with live data; GC can
        // reclaim nothing, so the 17th write there must fail. The device's
        // other pages keep all 17 LPNs inside its 64-LPN logical capacity.
        let mut failed = None;
        for i in 0..17 {
            if let Err(e) = ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i)], Bytes::kib(4)) {
                failed = Some((i, e));
                break;
            }
        }
        let (i, e) = failed.expect("over-filling must fail");
        assert!(i >= 12, "should fit most of the device, failed at {i}");
        assert!(matches!(e, Error::CapacityExhausted { .. }));
    }

    #[test]
    fn failed_gc_leaves_state_consistent() {
        // Regression: a CapacityExhausted raised mid-GC must not diverge
        // the mapping and resident tables. Fill the device with live data,
        // then hammer writes until one fails; afterwards every LPN must
        // still resolve and be overwritable without panicking. Plane 0's
        // 4 KiB pool fills at 16 LPNs, inside the 64-LPN logical capacity.
        let mut ftl = Ftl::new(hybrid_config()).unwrap();
        let mut live: Vec<u64> = Vec::new();
        let mut first_err = None;
        for i in 0..32 {
            match ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i)], Bytes::kib(4)) {
                Ok(_) => live.push(i),
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        assert!(first_err.is_some(), "over-filling must eventually fail");
        // All successfully written LPNs still resolve.
        let lpns: Vec<Lpn> = live.iter().map(|&l| Lpn(l)).collect();
        let (_, unmapped) = ftl.read_ops(&lpns);
        assert!(
            unmapped.is_empty(),
            "failure corrupted mappings: {unmapped:?}"
        );
        // Overwriting a live LPN must not panic, whatever it returns.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "the device may legitimately be read-only after the fill"
        )]
        let _ = ftl.write_chunk(0, Bytes::kib(4), &[Lpn(live[0])], Bytes::kib(4));
    }

    #[test]
    fn garbage_counter_matches_scanned_invalid_pages() {
        // The O(1) fast path is only sound if the incremental counter
        // equals what a full block scan would report, at every step of a
        // workload that exercises overwrites, migrations, and erases in
        // both pools of a hybrid plane.
        let mut ftl = Ftl::new(hybrid_config()).unwrap();
        let check = |ftl: &Ftl| {
            for (plane_idx, plane) in ftl.planes.iter().enumerate() {
                for (pool_idx, &(page_size, _)) in ftl.config.pools.iter().enumerate() {
                    assert_eq!(
                        ftl.garbage[plane_idx][pool_idx],
                        plane.invalid_pages(page_size),
                        "plane {plane_idx} pool {pool_idx} counter drifted"
                    );
                }
            }
        };
        check(&ftl);
        for i in 0..48u64 {
            // Alternate pools and keep a hot set so GC migrates live data.
            if i % 3 == 0 {
                let a = Lpn(2 * (i % 4));
                ftl.write_chunk(0, Bytes::kib(8), &[a, Lpn(a.0 + 1)], Bytes::kib(8))
                    .unwrap();
            } else {
                ftl.write_chunk(0, Bytes::kib(4), &[Lpn(16 + i % 6)], Bytes::kib(4))
                    .unwrap();
            }
            check(&ftl);
        }
        assert!(ftl.stats().gc_runs > 0, "workload must trigger GC");
    }

    #[test]
    fn space_accounting_tracks_padding() {
        let mut ftl = Ftl::new(hybrid_config()).unwrap();
        // A 4 KiB payload padded into an 8 KiB page wastes half.
        ftl.write_chunk(0, Bytes::kib(8), &[Lpn(9)], Bytes::kib(4))
            .unwrap();
        assert_eq!(ftl.space().waste(), Bytes::kib(4));
        assert!((ftl.space().utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn write_amplification_counts_gc_programs() {
        let stats = FtlStats {
            host_programs: 10,
            gc_programs: 5,
            ..Default::default()
        };
        assert!((stats.write_amplification() - 1.5).abs() < 1e-12);
        assert_eq!(FtlStats::default().write_amplification(), 1.0);
    }

    #[test]
    fn idle_gc_only_fires_for_idle_trigger() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        for i in 0..8 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 2)], Bytes::kib(4))
                .unwrap();
        }
        assert!(
            ftl.idle_gc().unwrap().is_empty(),
            "threshold trigger never idles"
        );

        let mut cfg = tiny_config();
        cfg.gc_trigger = GcTrigger::Idle {
            min_free_blocks: 1,
            min_invalid_pages: 2,
        };
        let mut ftl = Ftl::new(cfg).unwrap();
        for i in 0..8 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 2)], Bytes::kib(4))
                .unwrap();
        }
        let ops = ftl.idle_gc().unwrap();
        assert!(!ops.is_empty(), "idle trigger collects reclaimable garbage");
        assert!(ops.iter().all(|op| op.for_gc));
    }

    fn faulty_config(program_fail: f64, erase_fail: f64, seed: u64) -> FtlConfig {
        let mut c = tiny_config();
        c.faults = FaultConfig {
            seed,
            program_fail_prob: program_fail,
            erase_fail_prob: erase_fail,
            ecc_bits_per_kib: 8,
            max_read_retries: 3,
            retry_rber_scale: 0.5,
            spare_blocks_per_pool: 2,
            ..FaultConfig::NONE
        };
        c
    }

    #[test]
    fn none_profile_allocates_no_runtime() {
        let ftl = Ftl::new(tiny_config()).unwrap();
        assert!(ftl.fault_stats().is_none());
        assert_eq!(ftl.spare_blocks_remaining(), 0);
        assert!(ftl.read_only_reason().is_none());
    }

    #[test]
    fn arm_crash_and_recover_require_faults() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        assert!(matches!(ftl.arm_crash(3), Err(Error::InvalidConfig(_))));
        assert!(matches!(ftl.recover(), Err(Error::InvalidConfig(_))));
    }

    #[test]
    fn program_failures_redrive_without_data_loss() {
        let mut ftl = Ftl::new(faulty_config(0.2, 0.0, 11)).unwrap();
        for i in 0..64u64 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 4)], Bytes::kib(4))
                .unwrap();
        }
        let stats = ftl.fault_stats().unwrap();
        assert!(stats.program_failures > 0, "20% failure rate must fire");
        let lpns: Vec<Lpn> = (0..4).map(Lpn).collect();
        let (reads, unmapped) = ftl.read_ops(&lpns);
        assert!(unmapped.is_empty(), "re-drive lost data: {unmapped:?}");
        assert_eq!(reads.len(), 4);
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        enforce(ftl.audit_deep_verify());
    }

    #[test]
    fn erase_failures_retire_blocks_onto_spares() {
        let mut ftl = Ftl::new(faulty_config(0.0, 0.4, 5)).unwrap();
        let mut hit_read_only = false;
        for i in 0..200u64 {
            match ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 2)], Bytes::kib(4)) {
                Ok(_) => {}
                Err(Error::ReadOnly { .. }) => {
                    hit_read_only = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let stats = ftl.fault_stats().unwrap();
        assert!(
            stats.bad_blocks > 0,
            "40% erase failures must retire blocks"
        );
        assert!(stats.spare_adoptions > 0, "spares must be adopted first");
        if hit_read_only {
            assert_eq!(ftl.spare_blocks_remaining(), 0);
            assert!(ftl.read_only_reason().unwrap().contains("spares exhausted"));
            // Degradation is sticky for writes; reads keep working.
            let err = ftl
                .write_chunk(0, Bytes::kib(4), &[Lpn(0)], Bytes::kib(4))
                .unwrap_err();
            assert!(matches!(err, Error::ReadOnly { .. }));
        }
        let (_, unmapped) = ftl.read_ops(&[Lpn(0), Lpn(1)]);
        assert!(unmapped.is_empty(), "retirement lost live data");
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        enforce(ftl.audit_deep_verify());
    }

    #[test]
    fn read_retries_correct_high_rber() {
        let mut c = faulty_config(0.0, 0.0, 3);
        // Mean raw bit errors ≈ 33 on a 4 KiB page vs a threshold of 32:
        // roughly half of first reads fail, retries halve the rate.
        c.faults.rber_base = 1e-3;
        let mut ftl = Ftl::new(c).unwrap();
        for i in 0..8u64 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i)], Bytes::kib(4))
                .unwrap();
        }
        let mut ops = Vec::new();
        let mut unmapped = Vec::new();
        for _ in 0..16 {
            for i in 0..8u64 {
                let retries_before = ftl.fault_stats().unwrap().read_retries;
                let first = ops.len();
                ftl.read_ops_into(&[Lpn(i)], &mut ops, &mut unmapped);
                let retries = ftl.fault_stats().unwrap().read_retries - retries_before;
                // The page's retry reads come first, then its own read, all
                // on the page's plane at its page size.
                let ppn = ftl.mapping.lookup(Lpn(i)).unwrap();
                assert_eq!(ops.len() - first, retries as usize + 1);
                assert!(ops[first..]
                    .iter()
                    .all(|op| *op == FlashOp::read(ppn.plane, Bytes::kib(4))));
            }
        }
        let stats = ftl.fault_stats().unwrap();
        assert!(stats.read_retries > 0, "half the reads need a retry");
        assert!(stats.corrected_reads > 0, "retries must correct some");
        assert_eq!(
            ops.len() as u64,
            16 * 8 + stats.read_retries,
            "each retry costs exactly one extra flash read"
        );
        let depth_total: u64 = stats.retry_depth.iter().sum();
        assert_eq!(depth_total, 16 * 8, "one histogram entry per physical read");
    }

    #[test]
    fn uncorrectable_reads_are_counted() {
        let mut c = faulty_config(0.0, 0.0, 9);
        // Overwhelm ECC: mean errors ≈ 164 vs threshold 32, and retries
        // only halve the rate once — guaranteed UECC territory.
        c.faults.rber_base = 5e-3;
        c.faults.max_read_retries = 1;
        let mut ftl = Ftl::new(c).unwrap();
        ftl.write_chunk(0, Bytes::kib(4), &[Lpn(0)], Bytes::kib(4))
            .unwrap();
        for _ in 0..32 {
            let (_, unmapped) = ftl.read_ops(&[Lpn(0)]);
            assert!(unmapped.is_empty(), "UECC still completes the read");
        }
        assert!(ftl.fault_stats().unwrap().uecc_events > 0);
    }

    #[test]
    fn crash_fires_then_recovery_rebuilds_state() {
        let mut ftl = Ftl::new(faulty_config(0.05, 0.0, 7)).unwrap();
        let mut acked: Vec<u64> = Vec::new();
        for i in 0..10u64 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 6)], Bytes::kib(4))
                .unwrap();
            if !acked.contains(&(i % 6)) {
                acked.push(i % 6);
            }
        }
        ftl.arm_crash(5).unwrap();
        let mut crashed = false;
        for i in 0..64u64 {
            match ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 6)], Bytes::kib(4)) {
                Ok(_) => {}
                Err(Error::PowerLoss { .. }) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(crashed, "armed crash must fire within a few writes");
        // Power stays lost until recovery.
        let again = ftl
            .write_chunk(0, Bytes::kib(4), &[Lpn(0)], Bytes::kib(4))
            .unwrap_err();
        assert!(matches!(again, Error::PowerLoss { .. }));
        let report = ftl.recover().unwrap();
        assert!(report.pages_scanned > 0);
        assert_eq!(report.mappings_rebuilt, ftl.mapped_lpns() as u64);
        // Every acknowledged write survives (recover() deep-verified the
        // rebuilt state against a fresh shadow already).
        let lpns: Vec<Lpn> = acked.iter().map(|&l| Lpn(l)).collect();
        let (_, unmapped) = ftl.read_ops(&lpns);
        assert!(
            unmapped.is_empty(),
            "recovery lost acked writes: {unmapped:?}"
        );
        // And the device keeps working afterwards.
        for i in 0..16u64 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 6)], Bytes::kib(4))
                .unwrap();
        }
        #[cfg(any(debug_assertions, feature = "sanitize"))]
        enforce(ftl.audit_deep_verify());
    }

    #[test]
    fn recovery_is_idempotent_on_uncrashed_state() {
        let mut ftl = Ftl::new(faulty_config(0.1, 0.0, 2)).unwrap();
        for i in 0..24u64 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(i % 5)], Bytes::kib(4))
                .unwrap();
        }
        let mapped_before = ftl.mapped_lpns();
        let report = ftl.recover().unwrap();
        assert_eq!(report.pages_revalidated, 0, "nothing was torn");
        assert_eq!(ftl.mapped_lpns(), mapped_before);
        let lpns: Vec<Lpn> = (0..5).map(Lpn).collect();
        let (_, unmapped) = ftl.read_ops(&lpns);
        assert!(unmapped.is_empty());
    }

    #[test]
    fn wear_spreads_with_simple_leveling() {
        let mut ftl = Ftl::new(tiny_config()).unwrap();
        for _ in 0..200 {
            ftl.write_chunk(0, Bytes::kib(4), &[Lpn(0)], Bytes::kib(4))
                .unwrap();
        }
        let wear = ftl.wear();
        assert!(wear.total() > 0);
        // Cold-first promotion keeps max within 2x of mean on this
        // pathological single-LPN workload.
        assert!(wear.evenness() < 2.0, "evenness {}", wear.evenness());
    }
}
