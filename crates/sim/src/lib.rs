//! Performance simulator of the EdgeMM chip.
//!
//! This is the Rust counterpart of the paper's "in-house simulator with a
//! dedicated mapping explorer": it takes a chip configuration
//! (`edgemm-arch`), the coprocessor timing models (`edgemm-coproc`), the
//! memory-system model (`edgemm-mem`) and an MLLM operator stream
//! (`edgemm-mllm`) and produces per-phase cycle counts.
//!
//! The model is analytic rather than event-driven at the instruction level:
//! every matrix operator is tensor-partitioned across the cores of the
//! executing cluster kind (the mapping explorer picks the partition), its
//! compute time comes from the published cycle formulas (Eq. 2 / Eq. 3), its
//! DRAM time comes from the effective-bandwidth model, and — because every
//! cluster double-buffers its DMA — the operator cost is the maximum of the
//! two, not the sum. This is exactly the fidelity the paper's evaluation
//! plots require (relative speedups of design points, not RTL waveforms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod machine;
mod mapping;
mod report;

pub use kernel::{OpCost, PruningEffect};
pub use machine::{Machine, SimConfig};
pub use mapping::{Mapping, MappingExplorer, Partition};
pub use report::{PhaseResult, RunReport};
