//! Memory-system models for the NMP-PaK reproduction.
//!
//! The paper evaluates its design with a trace-driven methodology: memory traces of
//! MacroNode reads and writes captured from the real assembly execution are replayed
//! against a cycle-level DDR4 model (Ramulator) for the NMP system, and against
//! CPU/GPU machine models for the baselines (§5). This crate does not replay: its
//! models are analytic folds over the trace events of a
//! [`nmp_pak_pakman::CompactionTrace`], one pass each, counting traffic per access
//! and charging time per node, iteration and barrier in the same loop. Row-buffer
//! locality is not modelled.
//!
//! * [`config`] — DDR4-3200 organization parameters (Table 2),
//! * [`layout`] — MacroNode-slot → DIMM and PE placement (ascending (k-1)-mer order
//!   across DIMMs, §4.2) and the line rounding of every access,
//! * [`traffic`] — the per-iteration read/write traffic of a trace under either the
//!   baseline (sequential-stage) or the optimized (pipelined, data-reusing) process
//!   flow (§4.5),
//! * [`cpu`] — an analytic multicore model producing runtime and the stall-time
//!   breakdown of Fig. 6,
//! * [`gpu`] — an A100-like analytic model (capacity-constrained, §6.6),
//! * [`stats`] — traffic and bandwidth-utilization accounting,
//! * [`table`] — per-size lookup tables for the models' pure per-size costs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod cpu;
pub mod gpu;
pub mod layout;
pub mod stats;
pub mod table;
pub mod traffic;

pub use config::DramConfig;
pub use cpu::{CpuConfig, CpuRunResult, NodeCost, StallBreakdown};
pub use gpu::{GpuConfig, GpuRunResult};
pub use layout::{NodeLayout, SlotCursor};
pub use stats::MemoryStats;
pub use table::{SizeTable, SIZE_TABLE_CAP};
pub use traffic::{IterationTraffic, ProcessFlow, TrafficSummary};
