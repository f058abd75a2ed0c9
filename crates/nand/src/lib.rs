//! NAND flash memory substrate.
//!
//! This crate models the raw flash array inside an eMMC device at the
//! granularity the paper's simulator (an SSDsim-style event-driven model)
//! needs:
//!
//! * [`geometry`] — the channel × chip × die × plane hierarchy of Table V.
//! * [`timing`] — page read/program and block erase latencies, plus the
//!   channel transfer cost, for 4 KiB and 8 KiB pages (Micron datasheet
//!   values quoted in the paper).
//! * [`block`] — page states and the read-only view of one block.
//! * [`plane`] — a plane as a pool of blocks, possibly with *mixed page
//!   sizes* (the HPS enabler: page size is uniform within a block but may
//!   vary across blocks of the same die, Fig. 10 of the paper). It keeps
//!   every block's state in one counter array and one bitmap, and its
//!   block operations enforce flash's physical constraints: pages program
//!   sequentially within a block, a programmed page cannot be rewritten
//!   until its block is erased, and erases happen at block granularity.
//! * [`wear`] — erase-count accounting used by the wear-leveling analysis.
//! * [`faults`] — deterministic, seed-driven fault injection: program/erase
//!   failure draws, a wear- and disturb-dependent raw bit-error model, and
//!   the reliability counters the FTL's recovery machinery accumulates.
//!
//! The crate holds *state and legality*, not time: the discrete-event
//! scheduling of channel and die occupancy lives in `hps-emmc`.

pub mod block;
pub mod faults;
pub mod geometry;
pub mod plane;
pub mod timing;
pub mod wear;

pub use block::{Block, PageState};
pub use faults::{FaultConfig, FaultStats};
pub use geometry::{Geometry, PlaneAddr};
pub use plane::{BlockId, PageAddr, Plane};
pub use timing::{NandTiming, PageTiming};
pub use wear::{WearProfile, WearStats};
