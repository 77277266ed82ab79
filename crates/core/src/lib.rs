//! # EdgeMM
//!
//! A full reproduction of **"EdgeMM: Multi-Core CPU with Heterogeneous
//! AI-Extension and Activation-aware Weight Pruning for Multimodal LLMs at
//! Edge"** (DAC 2025) as a Rust library: architecture model, coprocessor
//! and memory timing models, MLLM workload substrate, activation-aware
//! pruning, token-length-driven bandwidth management, and the baselines the
//! paper compares against. Four of the paper's hardware mechanisms are
//! described, not modeled, because no figure depends on them: the AI-ISA
//! extension (Fig. 7; coprocessor work is priced through the Eq. 2/3 cycle
//! formulas instead of running instructions), the coprocessors' BF16/INT8
//! numerics, the MC cores' hardware pruner block (Fig. 8b; `edgemm-pruning`
//! selects the channels and its pass is a fixed overhead per pruned
//! operator) and Sec. IV-B's PMC budget enforcement (every transfer moves
//! at its side's static bandwidth share).
//!
//! The crate you are reading is the top-level facade: it wires the
//! subsystem crates together into an easily-scriptable [`EdgeMm`] system and
//! provides, in [`figures`], one data generator per table and figure of the
//! paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use edgemm::{EdgeMm, RequestOptions};
//! use edgemm_mllm::{zoo, ModelWorkload};
//!
//! // The paper's design point (4 groups x (2 CC + 2 MC) clusters at 1 GHz).
//! let system = EdgeMm::paper_default();
//! // One request: an image plus a 20-token prompt, generating 64 tokens.
//! let workload = ModelWorkload::new(zoo::sphinx_tiny(), 20, 64);
//! let report = system.run(&workload, RequestOptions::default());
//! assert!(report.tokens_per_second > 0.0);
//! assert!(report.tokens_per_joule > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | `edgemm-core` | unit-safe quantities ([`units::Cycles`], [`units::Bytes`], [`units::Tokens`]) and audited float comparisons |
//! | `edgemm-arch` | chip hierarchy, coprocessor geometries, 22 nm area/power model |
//! | `edgemm-coproc` | systolic array (Eq. 2), digital CIM macro (Eq. 3) |
//! | `edgemm-mem` | DRAM model, serial DMA channel, bandwidth allocation, KV pools |
//! | `edgemm-mllm` | model zoo (Table I), operator streams, synthetic activations |
//! | `edgemm-pruning` | dynamic Top-k (Alg. 1), fixed-ratio baseline, metrics |
//! | `edgemm-sim` | the performance simulator and mapping explorer |
//! | `edgemm-sched` | pipeline model, token-length-driven bandwidth manager |
//! | `edgemm-serve` | multi-request serving: continuous batching, scheduling policies |
//! | `edgemm-fleet` | fleet tier: N replicas behind a routed gateway on one event clock |
//! | `edgemm-baseline` | Snitch SIMD baseline, RTX 3060 roofline model |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
mod system;

pub use system::{
    EdgeMm, PruningMeasurement, RequestOptions, ServeOptions, SystemReport, DEFAULT_SPILL_PENALTY,
};

pub use edgemm_core::float;
pub use edgemm_core::units;

pub use edgemm_fleet::{FleetReport, RoutingKind};
pub use edgemm_serve::ServeSession;

pub use edgemm_arch as arch;
pub use edgemm_baseline as baseline;
pub use edgemm_coproc as coproc;
pub use edgemm_fleet as fleet;
pub use edgemm_mem as mem;
pub use edgemm_mllm as mllm;
pub use edgemm_pruning as pruning;
pub use edgemm_sched as sched;
pub use edgemm_serve as serve;
pub use edgemm_sim as sim;
