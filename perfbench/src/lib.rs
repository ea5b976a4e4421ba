//! The repository benchmark: one command per workload that prints the
//! end-to-end metrics (or, traced, the per-layer ones) and checks every
//! output. See `perfbench/README.md` for the workloads and metrics.

pub mod campaign_cold;
pub mod host;
pub mod probe;
pub mod report;
pub mod run;
pub mod socket_scaling;
pub mod stats;
pub mod trace;
pub mod tune_search;
