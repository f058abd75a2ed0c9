//! Experiment orchestration: one function per table/figure of the paper.
//!
//! Each `exp_*` function regenerates one artifact of the paper's evaluation
//! and returns it as rendered text; the `repro` binary dispatches on a
//! subcommand and writes the output under `experiments/`. The same
//! functions back the workspace integration tests and the `paper_suite`
//! workload of the `hpsbench` benchmark.

pub mod ablations;
pub mod experiments;
pub mod implications;
pub mod reliability;
pub mod runner;

pub use experiments::*;
pub use reliability::exp_faults;
pub use runner::{combo_traces, individual_traces, replay_on, trace_by_name, MASTER_SEED};
