//! Hardware activation-aware pruner of the MC core (paper Fig. 8b).
//!
//! Each MC core owns a small pruner block that implements the per-core part
//! of the layer-wise dynamic Top-k scheme (paper Alg. 1) without global
//! coordination: the activation vector is partitioned channel-wise across
//! cores and every core prunes only its local slice.
//!
//! The block contains:
//!
//! * a **Top-k engine** that selects the `k` largest-magnitude channels of
//!   the local slice and marks them in an index register;
//! * a **th-mask** unit that, given the slice maximum, counts how many
//!   channels exceed `max / t` — the count `n` used to update `k` for the
//!   next layer;
//! * an **address generator** that turns the index register into DRAM read
//!   addresses for the non-pruned weight rows, so pruned rows are never
//!   fetched;
//! * a **masking/aggregation** stage that packs the selected activations
//!   into the destination vector register for the CIM GEMV.

use edgemm_core::units::Cycles;

/// Outcome of one hardware pruner invocation over a local activation slice.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// Indices (into the local slice) of the channels that were kept,
    /// in ascending order.
    pub kept_indices: Vec<usize>,
    /// The packed activation values for the kept channels, in the same order.
    pub packed: Vec<f32>,
    /// DRAM byte addresses of the weight rows that must be fetched.
    pub row_addresses: Vec<u64>,
    /// The threshold count `n = |{i : |v_i| > max/t}|` used to update `k`.
    pub threshold_count: usize,
    /// Cycles spent in the pruner block.
    pub cycles: Cycles,
}

impl PruneOutcome {
    /// Fraction of channels pruned away (0.0 = nothing pruned).
    pub fn pruning_ratio(&self, slice_len: usize) -> f64 {
        if slice_len == 0 {
            0.0
        } else {
            1.0 - self.kept_indices.len() as f64 / slice_len as f64
        }
    }
}

/// Functional + timing model of the hardware Act-Aware pruner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActAwarePruner {
    /// Lanes compared per cycle by the Top-k engine and th-mask.
    lanes: usize,
    /// Bytes of one weight row fetched per kept channel (row stride used by
    /// the address generator).
    row_stride_bytes: u64,
}

impl ActAwarePruner {
    /// Create a pruner with the given comparator width and weight-row stride.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize, row_stride_bytes: u64) -> Self {
        assert!(lanes > 0, "pruner must compare at least one lane per cycle");
        ActAwarePruner {
            lanes,
            row_stride_bytes,
        }
    }

    /// Weight-row stride used by the address generator.
    pub fn row_stride_bytes(&self) -> u64 {
        self.row_stride_bytes
    }

    /// Run the pruner over a local activation slice.
    ///
    /// * `slice` — the local channels of the activation vector;
    /// * `k` — the Top-k budget for this slice (clamped to the slice length);
    /// * `threshold` — the divisor `t` of Alg. 1 (a channel smaller than
    ///   `max/t` is considered negligible);
    /// * `weight_base_addr` — DRAM base address of this core's weight shard,
    ///   fed to the address generator.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn prune(
        &self,
        slice: &[f32],
        k: usize,
        threshold: u32,
        weight_base_addr: u64,
    ) -> PruneOutcome {
        assert!(threshold > 0, "threshold divisor must be non-zero");
        let len = slice.len();
        let k = k.min(len);
        // Top-k engine: order channels by descending magnitude; ties resolve
        // by channel index, matching a deterministic hardware comparator tree.
        let mut order: Vec<usize> = (0..len).collect();
        order.sort_by(|&a, &b| {
            edgemm_core::float::total_cmp_f32(slice[b].abs(), slice[a].abs()).then(a.cmp(&b))
        });
        let mut kept: Vec<usize> = order.into_iter().take(k).collect();
        kept.sort_unstable();
        // th-mask: count channels above max/t.
        let max_abs = slice.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let threshold_value = max_abs / threshold as f32;
        let threshold_count = slice.iter().filter(|v| v.abs() > threshold_value).count();
        // Masking/aggregation + address generation.
        let packed: Vec<f32> = kept.iter().map(|&i| slice[i]).collect();
        let row_addresses: Vec<u64> = kept
            .iter()
            .map(|&i| weight_base_addr + i as u64 * self.row_stride_bytes)
            .collect();
        // Timing: one comparator pass over the slice per selection wave plus
        // a pass for the th-mask, `lanes` channels per cycle, and one cycle
        // per kept channel for the address generator FIFO.
        let passes = len.div_ceil(self.lanes) as u64;
        let cycles = Cycles::new(2 * passes + kept.len() as u64 + 1);
        PruneOutcome {
            kept_indices: kept,
            packed,
            row_addresses,
            threshold_count,
            cycles,
        }
    }
}

impl Default for ActAwarePruner {
    fn default() -> Self {
        // 16 comparator lanes; row stride of a 2048-wide BF16 FFN row.
        Self::new(16, 2048 * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn keeps_the_largest_magnitude_channels() {
        let pruner = ActAwarePruner::new(4, 8);
        let slice = [0.1, -5.0, 0.2, 3.0, -0.05, 0.4];
        let out = pruner.prune(&slice, 2, 16, 0);
        assert_eq!(out.kept_indices, vec![1, 3]);
        assert_eq!(out.packed, vec![-5.0, 3.0]);
    }

    #[test]
    fn k_clamped_to_slice_length() {
        let pruner = ActAwarePruner::default();
        let slice = [1.0, 2.0];
        let out = pruner.prune(&slice, 100, 16, 0);
        assert_eq!(out.kept_indices, vec![0, 1]);
        assert_eq!(out.pruning_ratio(slice.len()), 0.0);
    }

    #[test]
    fn threshold_count_matches_alg1_definition() {
        let pruner = ActAwarePruner::default();
        // max = 16.0, t = 16 -> threshold 1.0; channels strictly above 1.0: 16.0 and 2.0.
        let slice = [16.0, 2.0, 1.0, 0.5, -0.2];
        let out = pruner.prune(&slice, 5, 16, 0);
        assert_eq!(out.threshold_count, 2);
    }

    #[test]
    fn address_generator_uses_base_and_stride() {
        let pruner = ActAwarePruner::new(4, 256);
        let slice = [0.0, 9.0, 0.0, 7.0];
        let out = pruner.prune(&slice, 2, 16, 0x1000);
        assert_eq!(out.row_addresses, vec![0x1000 + 256, 0x1000 + 3 * 256]);
    }

    #[test]
    fn pruning_ratio_reported() {
        let pruner = ActAwarePruner::default();
        let slice = vec![1.0; 64];
        let out = pruner.prune(&slice, 16, 16, 0);
        assert!((out.pruning_ratio(64) - 0.75).abs() < 1e-9);
        assert_eq!(out.pruning_ratio(0), 0.0);
    }

    #[test]
    fn cycles_grow_with_slice_and_k() {
        let pruner = ActAwarePruner::new(16, 8);
        let small = pruner.prune(&vec![1.0; 64], 8, 16, 0);
        let large = pruner.prune(&vec![1.0; 1024], 8, 16, 0);
        let more_kept = pruner.prune(&vec![1.0; 1024], 256, 16, 0);
        assert!(large.cycles > small.cycles);
        assert!(more_kept.cycles > large.cycles);
    }

    #[test]
    fn empty_slice_is_harmless() {
        let pruner = ActAwarePruner::default();
        let out = pruner.prune(&[], 4, 16, 0);
        assert!(out.kept_indices.is_empty());
        assert!(out.packed.is_empty());
        assert_eq!(out.threshold_count, 0);
    }

    #[test]
    #[should_panic(expected = "threshold divisor must be non-zero")]
    fn zero_threshold_panics() {
        ActAwarePruner::default().prune(&[1.0], 1, 0, 0);
    }

    proptest! {
        /// The pruner keeps exactly min(k, len) channels and they are the
        /// largest by magnitude.
        #[test]
        fn keeps_exactly_k(values in proptest::collection::vec(-100.0f32..100.0, 1..128), k in 0usize..200) {
            let pruner = ActAwarePruner::default();
            let out = pruner.prune(&values, k, 16, 0);
            prop_assert_eq!(out.kept_indices.len(), k.min(values.len()));
            // No pruned channel has strictly larger magnitude than a kept one.
            let kept_min = out
                .packed
                .iter()
                .fold(f32::INFINITY, |m, v| m.min(v.abs()));
            for (i, v) in values.iter().enumerate() {
                if !out.kept_indices.contains(&i) {
                    prop_assert!(v.abs() <= kept_min + 1e-6);
                }
            }
        }

        /// Packed values correspond to kept indices, in order.
        #[test]
        fn packed_matches_indices(values in proptest::collection::vec(-10.0f32..10.0, 1..64), k in 1usize..64) {
            let pruner = ActAwarePruner::default();
            let out = pruner.prune(&values, k, 16, 0);
            prop_assert_eq!(out.packed.len(), out.kept_indices.len());
            for (p, &i) in out.packed.iter().zip(&out.kept_indices) {
                prop_assert_eq!(*p, values[i]);
            }
            // Indices are sorted ascending (the aggregation preserves order).
            prop_assert!(out.kept_indices.windows(2).all(|w| w[0] < w[1]));
        }

        /// The threshold count never exceeds the slice length.
        #[test]
        fn threshold_count_bounded(values in proptest::collection::vec(-10.0f32..10.0, 0..64)) {
            let pruner = ActAwarePruner::default();
            let out = pruner.prune(&values, 8, 16, 0);
            prop_assert!(out.threshold_count <= values.len());
        }
    }
}
