//! NMP-PaK: the end-to-end system.
//!
//! This crate ties the software pipeline (`nmp-pak-pakman`), the memory-system
//! substrate (`nmp-pak-memsim`) and the hardware model (`nmp-pak-nmphw`) into the
//! system the paper evaluates:
//!
//! * [`workload`] — canonical synthetic workloads (genome + simulated reads) at
//!   laptop-friendly scales,
//! * [`assembler`] — [`assembler::NmpPakAssembler`], the top-level API: run the
//!   software pipeline, record the compaction trace, and simulate Iterative
//!   Compaction on a chosen execution backend,
//! * [`backend`] — the seven §5.3 configurations (CPU baseline with and
//!   without software optimizations, CPU-PaK, GPU baseline, NMP-PaK, ideal-PE
//!   and ideal-forwarding variants) as one closed [`backend::Backend`] type,
//!   built from one table by [`backend::BackendRegistry::standard`],
//! * [`experiments`] — one driver per table/figure of the evaluation (Figs. 5–15,
//!   Tables 1 and 3, §6.3, §6.4, §6.6).
//!
//! ```
//! use nmp_pak_core::workload::Workload;
//! use nmp_pak_core::assembler::NmpPakAssembler;
//! use nmp_pak_core::backend::BackendId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workload = Workload::tiny(7)?;
//! let assembler = NmpPakAssembler::default();
//! let run = assembler.run(&workload, BackendId::NMP_PAK)?;
//! assert!(run.backend_result.runtime_ns > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assembler;
pub mod backend;
pub mod experiments;
pub mod workload;

pub use assembler::{NmpPakAssembler, SystemRun};
pub use backend::{
    Backend, BackendId, BackendRegistry, BackendResult, SimulationContext, SystemConfig,
};
pub use workload::Workload;
