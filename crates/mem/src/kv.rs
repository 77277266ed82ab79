//! KV-cache capacity model: a byte budget with an on-chip tier and a spill
//! penalty.
//!
//! The serving layer used to stand in for on-chip memory with a constant
//! stream-batch cap. [`KvPool`] replaces that with the quantity that
//! actually binds on an edge SoC: *bytes of KV cache resident at once*. It
//! is the configuration of the KV account: a budget, an on-chip tier and a
//! spill penalty. The [`PagedKvPool`](crate::PagedKvPool) built over it
//! holds the account itself: what is resident, its high-water mark and the
//! traffic scaling the occupancy implies. Joins are admitted only while the
//! account has headroom, so the batch size becomes a consequence of context
//! lengths instead of a tuning constant.
//!
//! The pool is two-tiered:
//!
//! * the first [`onchip_bytes`](KvPool::onchip_bytes) of resident KV live in
//!   the MC clusters' CIM-fused data memories and generate **no DRAM
//!   traffic** when read back each decode step;
//! * everything above that tier *spills to DRAM* and is re-streamed every
//!   step at a penalty — spilled KV moves in scattered per-stream blocks
//!   rather than one sequential burst, so its effective bandwidth is worse
//!   than the bulk-transfer model assumes.
//!
//! The resulting per-step scaling applied to a batch's KV DRAM cycles is
//!
//! ```text
//! factor = spilled / occupied * spill_penalty
//!        = max(occupied - onchip, 0) / occupied * spill_penalty
//! ```
//!
//! With the [`KvPool::unbounded`] default (no budget, no on-chip tier,
//! penalty 1.0) the factor is exactly 1.0 and the serving simulator
//! reproduces the pre-pool cost model byte for byte.

use edgemm_core::units::Bytes;

/// A KV-cache byte budget with an on-chip tier and a spill penalty.
///
/// It is `Copy` so a serving configuration can embed it; each run builds
/// its own [`PagedKvPool`](crate::PagedKvPool) account over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvPool {
    budget_bytes: Bytes,
    onchip_bytes: Bytes,
    spill_penalty: f64,
}

impl KvPool {
    /// A pool with no capacity limit, no on-chip tier and a unit spill
    /// penalty: every byte of KV streams from DRAM at the bulk rate, which
    /// is exactly the pre-pool serving cost model.
    pub fn unbounded() -> Self {
        KvPool {
            budget_bytes: Bytes::MAX,
            onchip_bytes: Bytes::ZERO,
            spill_penalty: 1.0,
        }
    }

    /// A pool admitting at most `budget_bytes` of resident KV, with no
    /// on-chip tier and a unit spill penalty. Layer the tier and penalty on
    /// with [`Self::with_onchip`] and [`Self::with_spill_penalty`].
    ///
    /// # Panics
    ///
    /// Panics if the budget is zero.
    pub fn with_budget(budget_bytes: Bytes) -> Self {
        assert!(!budget_bytes.is_zero(), "KV budget must be positive");
        KvPool {
            budget_bytes,
            ..Self::unbounded()
        }
    }

    /// The same pool with the first `onchip_bytes` of occupancy served from
    /// on-chip memory (clamped to the budget).
    pub fn with_onchip(self, onchip_bytes: Bytes) -> Self {
        KvPool {
            onchip_bytes: onchip_bytes.min(self.budget_bytes),
            ..self
        }
    }

    /// The same pool with a different spill penalty: the multiplier applied
    /// to the DRAM cycles of KV traffic that lives above the on-chip tier.
    ///
    /// # Panics
    ///
    /// Panics if the penalty is below 1.0 (spilling cannot be faster than
    /// the bulk-transfer model).
    pub fn with_spill_penalty(self, spill_penalty: f64) -> Self {
        assert!(
            spill_penalty >= 1.0,
            "spill penalty must be at least 1.0, got {spill_penalty}"
        );
        KvPool {
            spill_penalty,
            ..self
        }
    }

    /// The admission capacity in bytes ([`Bytes::MAX`] when unbounded).
    pub fn budget_bytes(&self) -> Bytes {
        self.budget_bytes
    }

    /// Size of the on-chip tier in bytes.
    pub fn onchip_bytes(&self) -> Bytes {
        self.onchip_bytes
    }

    /// The spill-penalty multiplier.
    pub fn spill_penalty(&self) -> f64 {
        self.spill_penalty
    }
}

impl Default for KvPool {
    fn default() -> Self {
        Self::unbounded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn onchip_tier_is_clamped_to_the_budget() {
        let pool = KvPool::with_budget(Bytes::new(100)).with_onchip(Bytes::new(500));
        assert_eq!(pool.onchip_bytes(), 100);
    }

    #[test]
    fn default_is_unbounded() {
        assert_eq!(KvPool::default(), KvPool::unbounded());
    }

    #[test]
    #[should_panic(expected = "KV budget must be positive")]
    fn zero_budget_rejected() {
        KvPool::with_budget(Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "spill penalty must be at least 1.0")]
    fn sub_unit_penalty_rejected() {
        KvPool::unbounded().with_spill_penalty(0.5);
    }
}
