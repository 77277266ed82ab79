//! KV-cache capacity model: a byte-budgeted pool with an on-chip tier.
//!
//! The serving layer used to stand in for on-chip memory with a constant
//! stream-batch cap. [`KvPool`] replaces that with the quantity that
//! actually binds on an edge SoC: *bytes of KV cache resident at once*.
//! A stream reserves its peak KV footprint when it joins the decode batch
//! and releases it when it finishes; joins are admitted only while the pool
//! has headroom, so the batch size becomes a consequence of context lengths
//! instead of a tuning constant.
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

use edgemm_core::float::is_one;
use edgemm_core::units::Bytes;

/// A byte-budgeted KV-cache pool with an on-chip tier and a spill penalty.
///
/// The pool tracks reservations, the high-water mark, and the traffic
/// scaling that the current occupancy implies. It is `Copy` so a serving
/// configuration can embed the pool's *initial* (empty) state and hand each
/// run its own working copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvPool {
    budget_bytes: Bytes,
    onchip_bytes: Bytes,
    spill_penalty: f64,
    reserved_bytes: Bytes,
    peak_bytes: Bytes,
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
            reserved_bytes: Bytes::ZERO,
            peak_bytes: Bytes::ZERO,
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

    /// Whether the pool has no capacity limit.
    pub fn is_unbounded(&self) -> bool {
        self.budget_bytes == Bytes::MAX
    }

    /// Bytes currently reserved.
    pub fn reserved_bytes(&self) -> Bytes {
        self.reserved_bytes
    }

    /// High-water mark of reserved bytes over the pool's lifetime.
    pub fn peak_bytes(&self) -> Bytes {
        self.peak_bytes
    }

    /// Headroom left under the budget.
    pub fn available_bytes(&self) -> Bytes {
        self.budget_bytes.saturating_sub(self.reserved_bytes)
    }

    /// Try to reserve `bytes` for a stream. Fails (changing nothing) when
    /// the reservation would exceed the budget — with one escape hatch: a
    /// stream whose footprint alone exceeds the budget is admitted while
    /// the pool is *empty*, so an oversized request degrades to running
    /// solo instead of deadlocking the queue. (Its spilled majority still
    /// pays the spill penalty every step.)
    pub fn try_reserve(&mut self, bytes: Bytes) -> bool {
        let fits = self
            .reserved_bytes
            .checked_add(bytes)
            .is_some_and(|total| total <= self.budget_bytes);
        if !fits && !self.reserved_bytes.is_zero() {
            return false;
        }
        self.reserved_bytes = self.reserved_bytes.saturating_add(bytes);
        self.peak_bytes = self.peak_bytes.max(self.reserved_bytes);
        true
    }

    /// Release a reservation made by [`Self::try_reserve`].
    ///
    /// # Panics
    ///
    /// Panics if more bytes are released than are reserved.
    pub fn release(&mut self, bytes: Bytes) {
        assert!(
            bytes <= self.reserved_bytes,
            "released {bytes} bytes with only {} reserved",
            self.reserved_bytes
        );
        self.reserved_bytes -= bytes;
    }

    /// The multiplier the current occupancy applies to a decode step's KV
    /// DRAM cycles: the fraction of resident KV that spilled past the
    /// on-chip tier, times the spill penalty (see the module docs for the
    /// formula). 1.0 for an empty pool or the unbounded default; below 1.0
    /// when most of the batch's KV fits on chip; above 1.0 when a penalised
    /// majority spills.
    pub fn kv_traffic_factor(&self) -> f64 {
        spill_traffic_factor(self.reserved_bytes, self.onchip_bytes, self.spill_penalty)
    }
}

/// The two-tier spill formula of the module docs over `occupied` bytes of
/// resident KV, shared by both pools: 1.0 when nothing is resident, or
/// when there is no on-chip tier and the penalty is 1.0.
pub(crate) fn spill_traffic_factor(occupied: Bytes, onchip: Bytes, spill_penalty: f64) -> f64 {
    if occupied.is_zero() || (onchip.is_zero() && is_one(spill_penalty)) {
        return 1.0;
    }
    let spilled = occupied.saturating_sub(onchip);
    spilled.ratio(occupied) * spill_penalty
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
    fn unbounded_pool_never_blocks_and_never_scales() {
        let mut pool = KvPool::unbounded();
        assert!(pool.is_unbounded());
        for _ in 0..8 {
            assert!(pool.try_reserve(Bytes::new(1 << 40)));
            assert_eq!(pool.kv_traffic_factor(), 1.0);
        }
        assert_eq!(pool.peak_bytes(), 8 << 40);
    }

    #[test]
    fn budget_blocks_at_capacity_and_frees_on_release() {
        let mut pool = KvPool::with_budget(Bytes::new(100));
        assert!(pool.try_reserve(Bytes::new(60)));
        assert!(
            !pool.try_reserve(Bytes::new(41)),
            "over-budget reservation admitted"
        );
        assert_eq!(pool.reserved_bytes(), 60);
        assert!(pool.try_reserve(Bytes::new(40)));
        assert_eq!(pool.available_bytes(), 0);
        pool.release(Bytes::new(60));
        assert!(pool.try_reserve(Bytes::new(60)));
        assert_eq!(pool.peak_bytes(), 100);
    }

    #[test]
    fn oversized_stream_is_admitted_only_into_an_empty_pool() {
        let mut pool = KvPool::with_budget(Bytes::new(100));
        assert!(
            pool.try_reserve(Bytes::new(250)),
            "solo oversized stream must run"
        );
        assert_eq!(pool.reserved_bytes(), 250);
        assert!(
            !pool.try_reserve(Bytes::new(1)),
            "nothing may join an oversized solo"
        );
        pool.release(Bytes::new(250));
        assert!(pool.try_reserve(Bytes::new(10)));
        assert!(
            !pool.try_reserve(Bytes::new(250)),
            "escape hatch requires an empty pool"
        );
    }

    #[test]
    fn traffic_factor_follows_the_spill_formula() {
        let mut pool = KvPool::with_budget(Bytes::new(1000))
            .with_onchip(Bytes::new(400))
            .with_spill_penalty(1.5);
        assert_eq!(pool.kv_traffic_factor(), 1.0, "empty pool is neutral");
        assert!(pool.try_reserve(Bytes::new(200)));
        assert_eq!(pool.kv_traffic_factor(), 0.0, "fully on-chip KV is free");
        assert!(pool.try_reserve(Bytes::new(600)));
        // 400 of 800 spilled: factor = 0.5 * 1.5.
        assert!((pool.kv_traffic_factor() - 0.75).abs() < 1e-12);
        pool.release(Bytes::new(600));
        pool.release(Bytes::new(200));
        assert_eq!(pool.kv_traffic_factor(), 1.0);
    }

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

    #[test]
    #[should_panic(expected = "released")]
    fn over_release_panics() {
        let mut pool = KvPool::with_budget(Bytes::new(10));
        pool.release(Bytes::new(1));
    }
}
