//! Flash translation layer for the simulated eMMC device.
//!
//! The FTL sits between the request distributor (in `hps-emmc`) and the raw
//! flash array (`hps-nand`). It owns:
//!
//! * a page-level **mapping table** from 4 KiB logical page numbers (LPNs)
//!   to physical pages — an 8 KiB physical page can host two LPNs
//!   ([`mapping`]);
//! * per-plane, per-page-size **block pools** with an active block and a
//!   free list; allocation picks the coldest free block, which is the
//!   "simple wear-leveling strategy" Implication 4 of the paper argues is
//!   sufficient ([`pool`]);
//! * **garbage collection**: greedy victim selection and valid-page
//!   migration, triggered when a pool's free blocks run low, plus an
//!   idle-time variant motivated by Implication 2 ([`gc`]);
//! * **space-utilization accounting** — the Fig. 9 metric: bytes of data
//!   written over bytes of flash consumed ([`space`]);
//! * **fault handling and recovery** — ECC read-retry, write re-drive,
//!   bad-block retirement onto spares, read-only degradation, and
//!   power-loss recovery from a simulated OOB journal, active only when a
//!   [`hps_nand::FaultConfig`] is enabled ([`recovery`]).
//!
//! The FTL is *timeless*: every mutating call returns the list of physical
//! [`FlashOp`]s it performed, and the event engine in `hps-emmc` turns those
//! into simulated time.

pub mod addr;
pub mod ftl;
pub mod gc;
pub mod mapping;
pub mod pool;
pub mod recovery;
pub mod space;

pub use addr::{FlashOp, Lpn, OpKind, Ppn};
pub use ftl::{Ftl, FtlConfig, FtlStats};
pub use gc::{GcScratch, GcTrigger};
pub use mapping::{MappingTable, PpnLayout, ResidentList, ResidentTable};
pub use recovery::RecoveryReport;
pub use space::SpaceAccounting;
