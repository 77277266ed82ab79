//! The fixed-ratio pruning baseline the paper compares against.
//!
//! [`FixedRatioPruning`] keeps a fixed fraction of channels per layer
//! regardless of their distribution (the "fixed 0.1" / "fixed 0.7" curves
//! of Fig. 12b). This is the "fixed empirical k" approach of prior work the
//! paper cites (Wanda-style Top-k with constant k).

use crate::topk::{top_k_indices, PruneSelection};
use crate::Pruner;

/// Keep a fixed fraction of channels in every layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedRatioPruning {
    prune_ratio: f64,
}

impl FixedRatioPruning {
    /// Create a pruner that removes `prune_ratio` of the channels
    /// (0.0 = keep everything, 0.7 = keep 30 %).
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not in `[0, 1)`.
    pub fn new(prune_ratio: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&prune_ratio),
            "prune ratio must be in [0, 1)"
        );
        FixedRatioPruning { prune_ratio }
    }

    /// The configured pruning ratio.
    pub fn prune_ratio(&self) -> f64 {
        self.prune_ratio
    }
}

impl Pruner for FixedRatioPruning {
    fn select(&mut self, _layer: usize, activations: &[f32]) -> PruneSelection {
        let total = activations.len();
        let keep =
            ((total as f64 * (1.0 - self.prune_ratio)).round() as usize).clamp(1, total.max(1));
        PruneSelection {
            kept: top_k_indices(activations, keep),
            total,
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> &str {
        "fixed-ratio"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ratio_keeps_expected_count() {
        let mut p = FixedRatioPruning::new(0.7);
        let sel = p.select(0, &vec![1.0; 100]);
        assert_eq!(sel.kept.len(), 30);
        assert!((sel.pruning_ratio() - 0.7).abs() < 1e-9);
        assert!((p.prune_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn fixed_ratio_zero_keeps_everything() {
        let mut p = FixedRatioPruning::new(0.0);
        let sel = p.select(3, &[1.0, 2.0, 3.0]);
        assert_eq!(sel.kept.len(), 3);
    }

    #[test]
    fn fixed_ratio_keeps_at_least_one() {
        let mut p = FixedRatioPruning::new(0.99);
        let sel = p.select(0, &[5.0, 1.0]);
        assert_eq!(sel.kept.len(), 1);
        assert_eq!(sel.kept, vec![0]);
    }

    #[test]
    fn fixed_ratio_ignores_layer_index() {
        let mut p = FixedRatioPruning::new(0.5);
        let x = [4.0, 3.0, 2.0, 1.0];
        assert_eq!(p.select(0, &x), p.select(10, &x));
    }

    #[test]
    #[should_panic(expected = "prune ratio must be in [0, 1)")]
    fn invalid_ratio_panics() {
        FixedRatioPruning::new(1.0);
    }

    #[test]
    fn names_distinguish_baselines() {
        let fixed = FixedRatioPruning::new(0.1);
        assert_eq!(fixed.name(), "fixed-ratio");
        assert_ne!(fixed.name(), crate::DynamicTopK::paper_default(8).name());
    }
}
