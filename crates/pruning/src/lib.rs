//! Activation-aware weight pruning (paper Sec. IV-A).
//!
//! During LLM decoding, the FFN weight matrices dominate DRAM traffic while
//! the activation vectors feeding them are sparse across channels with a few
//! large outliers. Channel-wise activation-aware pruning exploits this: keep
//! only the Top-k activation channels and skip the corresponding *rows* of
//! the weight matrices entirely — they are never even fetched from DRAM.
//!
//! This crate implements:
//!
//! * [`DynamicTopK`] — the paper's layer-wise dynamic Top-k scheme (Alg. 1),
//!   where `k` starts at the full dimension, is skipped for the first layer,
//!   and shrinks as deeper layers exhibit more prominent outliers;
//! * [`FixedRatioPruning`] — the fixed-ratio baseline the paper compares
//!   against in Fig. 12b (ratios 0.1 and 0.7);
//! * [`metrics`] — cosine similarity and kurtosis, the two quantities
//!   plotted in Fig. 12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dynamic;
mod fixed;
pub mod metrics;
mod topk;

pub use dynamic::{DynamicTopK, DynamicTopKConfig, LayerDecision};
pub use fixed::FixedRatioPruning;
pub use topk::{top_k_indices, PruneSelection};

/// Strategy trait implemented by every pruning scheme in this crate.
///
/// A pruner observes the FFN input activation vector of each decoder layer
/// (in layer order, once per generated token) and decides which channels to
/// keep. Implementations may carry state across layers (the dynamic scheme
/// does) — call [`Pruner::reset`] between tokens.
pub trait Pruner {
    /// Decide which channels of `activations` to keep for `layer`.
    fn select(&mut self, layer: usize, activations: &[f32]) -> PruneSelection;

    /// Reset any cross-layer state (called at the start of each token).
    fn reset(&mut self);

    /// Short name for reports.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruner_trait_is_object_safe() {
        fn assert_object(_: &dyn Pruner) {}
        let mut p = FixedRatioPruning::new(0.5);
        assert_object(&p);
        let sel = p.select(0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sel.kept.len(), 2);
    }
}
