//! Chip-level bandwidth allocation between CC and MC clusters.
//!
//! EdgeMM allocates DRAM bandwidth between the cluster kinds by a `Bc:Bm`
//! budget ratio. The ratio is the knob the token-length-driven manager
//! turns: the paper sweeps it from the default 1:1 down to 1:3 and 1:7 as
//! the output token length grows (Fig. 13). This module converts a ratio
//! into the CC and MC bandwidth shares every op is priced at; the *policy*
//! choosing the ratio for a given token length lives in `edgemm-sched`. The
//! hardware enforces a ratio with per-interval budgets counted in each DMA
//! (Sec. IV-B); the model applies the shares directly.

/// A bandwidth split between the CC clusters (as a group) and the MC
/// clusters (as a group). Shares sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthAllocation {
    /// Fraction of chip DRAM bandwidth given to all CC clusters together.
    pub cc_share: f64,
    /// Fraction of chip DRAM bandwidth given to all MC clusters together.
    pub mc_share: f64,
}

impl BandwidthAllocation {
    /// Equal sharing (the paper's default before the manager intervenes).
    pub fn equal() -> Self {
        BandwidthAllocation {
            cc_share: 0.5,
            mc_share: 0.5,
        }
    }

    /// Build from a `Bc:Bm` budget ratio, e.g. `from_ratio(1.0, 3.0)` for the
    /// 1:3 point of Fig. 13.
    ///
    /// # Panics
    ///
    /// Panics if either term is negative or both are zero.
    pub fn from_ratio(bc: f64, bm: f64) -> Self {
        assert!(bc >= 0.0 && bm >= 0.0, "budget terms must be non-negative");
        let sum = bc + bm;
        assert!(sum > 0.0, "at least one budget term must be positive");
        BandwidthAllocation {
            cc_share: bc / sum,
            mc_share: bm / sum,
        }
    }

    /// Sequential-execution allocation: whichever cluster kind is active gets
    /// the whole DRAM interface (the other kind is idle). This is the right
    /// default for unpipelined single-request simulation; the pipelined
    /// scheduler replaces it with a real split.
    pub fn exclusive() -> Self {
        BandwidthAllocation {
            cc_share: 1.0,
            mc_share: 1.0,
        }
    }

    /// Give everything to one side (used by the homo-CC / homo-MC baselines).
    pub fn all_cc() -> Self {
        BandwidthAllocation {
            cc_share: 1.0,
            mc_share: 0.0,
        }
    }

    /// Give everything to the MC clusters.
    pub fn all_mc() -> Self {
        BandwidthAllocation {
            cc_share: 0.0,
            mc_share: 1.0,
        }
    }

    /// The `Bc:Bm` ratio expressed with `Bc = 1` (returns `None` when the CC
    /// share is zero).
    pub fn ratio_bm_per_bc(&self) -> Option<f64> {
        if self.cc_share <= 0.0 {
            None
        } else {
            Some(self.mc_share / self.cc_share)
        }
    }
}

impl Default for BandwidthAllocation {
    fn default() -> Self {
        Self::equal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_split_by_default() {
        let alloc = BandwidthAllocation::default();
        assert!((alloc.cc_share - 0.5).abs() < 1e-12);
        assert!((alloc.mc_share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_one_to_three() {
        let alloc = BandwidthAllocation::from_ratio(1.0, 3.0);
        assert!((alloc.cc_share - 0.25).abs() < 1e-12);
        assert!((alloc.mc_share - 0.75).abs() < 1e-12);
        assert!((alloc.ratio_bm_per_bc().unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_one_to_seven_matches_fig13_extreme() {
        let alloc = BandwidthAllocation::from_ratio(1.0, 7.0);
        assert!((alloc.mc_share - 0.875).abs() < 1e-12);
    }

    #[test]
    fn all_one_side() {
        assert_eq!(BandwidthAllocation::all_cc().mc_share, 0.0);
        assert_eq!(BandwidthAllocation::all_mc().cc_share, 0.0);
        assert!(BandwidthAllocation::all_mc().ratio_bm_per_bc().is_none());
    }

    #[test]
    #[should_panic(expected = "at least one budget term must be positive")]
    fn zero_ratio_panics() {
        BandwidthAllocation::from_ratio(0.0, 0.0);
    }

    proptest! {
        /// Shares always sum to one and stay in [0, 1].
        #[test]
        fn shares_form_a_partition(bc in 0.0f64..100.0, bm in 0.0f64..100.0) {
            prop_assume!(bc + bm > 0.0);
            let alloc = BandwidthAllocation::from_ratio(bc, bm);
            prop_assert!((alloc.cc_share + alloc.mc_share - 1.0).abs() < 1e-9);
            prop_assert!(alloc.cc_share >= 0.0 && alloc.cc_share <= 1.0);
        }

        /// Shifting budget towards MC never decreases the MC share.
        #[test]
        fn mc_bandwidth_monotonic(bm in 1.0f64..16.0) {
            let before = BandwidthAllocation::from_ratio(1.0, bm).mc_share;
            prop_assert!(BandwidthAllocation::from_ratio(1.0, bm + 1.0).mc_share >= before);
        }
    }
}
