//! Multimodal LLM workload substrate.
//!
//! EdgeMM's evaluation runs multimodal LLMs (MLLMs) of the shape shown in
//! the paper's Fig. 1a: a Transformer *vision encoder* turns the image into
//! vision tokens, a small *projector* aligns them with the language model,
//! and a decoder-only *LLM* runs a prefill pass over all tokens followed by
//! autoregressive decoding. We do not ship the real SPHINX-Tiny / KarmaVLM
//! weights; instead this crate reproduces everything the architecture
//! evaluation actually consumes:
//!
//! * the **layer geometry** of the representative MLLMs of Table I
//!   ([`zoo`] module),
//! * the **operator stream** of each inference phase — which GEMMs and GEMVs
//!   of which shapes run, with their FLOP counts and DRAM traffic, summed
//!   per phase for Fig. 2 ([`workload`](crate::ModelWorkload)),
//! * a **synthetic activation generator** whose channel-magnitude
//!   distribution reproduces the sparsity-with-outliers structure of Fig. 3,
//!   so the pruning experiments are meaningful without real weights.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod config;
mod tensor;
mod workload;
pub mod zoo;

pub use activation::{ActivationGenerator, ActivationProfile};
pub use config::{LlmConfig, MllmConfig, ProjectorConfig, ProjectorKind, VisionEncoderConfig};
pub use tensor::{gemm_from_fn, gemv, Matrix};
pub use workload::{MatmulOp, ModelWorkload, OpKind, Phase, TrafficClass};
