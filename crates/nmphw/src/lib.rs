//! The NMP-PaK hardware model.
//!
//! This crate models the paper's channel-level near-memory processing architecture
//! (§4.1–4.3, Figs. 9–11). Like `nmp_pak_memsim`, its models are analytic folds
//! over the events of a [`nmp_pak_pakman::CompactionTrace`], not a cycle-level
//! replay:
//!
//! * [`pe`] — the 3-stage pipelined systolic processing element (P1 invalidation
//!   check, P2 TransferNode extraction, P3 routing & update) with a cycle model derived
//!   from the operation counts of each stage,
//! * [`crossbar`] — the (N+1)×(N+1) inter-PE crossbar switch inside each buffer chip,
//! * [`bridge`] — the inter-DIMM network bridge,
//! * [`mapping`] — the shard → channel fold of sharded execution (the slot → DIMM
//!   table of Fig. 11 is `NodeLayout::dimm_of`),
//! * [`system`] — the full-system simulator: one pass over the trace charges every
//!   iteration's nodes to the PE arrays and DRAM channels, its TransferNodes to the
//!   interconnect, and its oversized nodes to the host CPU (hybrid processing, §4.3),
//!   producing runtime, traffic, bandwidth-utilization and communication-locality
//!   statistics,
//! * [`network`] — the inter-node cost model projecting multi-node runs,
//! * [`area_power`] — the 28 nm component area/power model behind Table 3.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod area_power;
pub mod bridge;
pub mod config;
pub mod crossbar;
pub mod mapping;
pub mod network;
pub mod pe;
pub mod system;

pub use area_power::{AreaPowerModel, ComponentBudget};
pub use bridge::NetworkBridge;
pub use config::{NmpConfig, PeVariant};
pub use crossbar::CrossbarSwitch;
pub use mapping::ShardChannelMap;
pub use network::{MultinodeProjection, NetworkModel};
pub use pe::{PeCycleModel, StageCycles};
pub use system::{ChannelLoadStats, CommStats, NmpRunResult, NmpSystem};
