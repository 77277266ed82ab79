//! Architecture description of the EdgeMM multi-core CPU.
//!
//! EdgeMM (DAC 2025) is a hierarchical multi-core RISC-V CPU built on the
//! Snitch cluster. The chip is organised as *groups* of *clusters* of
//! *cores*; every core pairs an area-efficient RISC-V host core with an AI
//! coprocessor. Two cluster flavours exist:
//!
//! * **Compute-centric (CC) clusters** — cores extended with a weight
//!   stationary systolic array for GEMM; cores in a cluster share the
//!   instruction and data memory.
//! * **Memory-centric (MC) clusters** — cores extended with a digital
//!   compute-in-memory (CIM) macro for GEMV; data memory and compute array
//!   are fused in the CIM macro and a small shared buffer handles inter-core
//!   transfers.
//!
//! This crate holds the *static* description of a chip: the hierarchy, the
//! per-core coprocessor geometry, the memory sizes, and an analytic 22 nm
//! area/power model reproducing the paper's Fig. 10. The dynamic behaviour
//! (cycle counts, bandwidth contention) lives in `edgemm-coproc`,
//! `edgemm-mem` and `edgemm-sim`.
//!
//! # Example
//!
//! ```
//! use edgemm_arch::{ChipConfig, ClusterKind};
//!
//! let chip = ChipConfig::paper_default();
//! assert_eq!(chip.groups, 4);
//! assert_eq!(chip.total_cores(ClusterKind::ComputeCentric), 32);
//! assert_eq!(chip.total_cores(ClusterKind::MemoryCentric), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
mod error;

pub use area::{AreaBreakdown, AreaModel, PowerBreakdown, PowerModel};
pub use config::{
    ChipConfig, ChipConfigBuilder, CimGeometry, ClusterConfig, ClusterKind, CoprocessorKind,
    CoreConfig, MemoryConfig, SystolicGeometry,
};
pub use error::ConfigError;
