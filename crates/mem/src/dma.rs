//! A serial DMA channel between DRAM and a cluster's data memory.
//!
//! Every cluster has a distributed DMA module linked to the DRAM controller.
//! The channel carries one transfer at a time (one outstanding transfer per
//! cluster DMA, as in the Snitch cluster), so a transfer issued while an
//! earlier one is in flight queues behind it. The paper's Sec. IV-B budget
//! enforcement (a performance-monitoring counter per cluster that blocks
//! requests once a per-interval budget is spent) is described, not modeled:
//! a channel moves data at its static share of the DRAM interface.

use edgemm_core::units::{Bytes, Cycles};

use crate::dram::DramModel;

/// A serial DMA channel at a fixed share of the DRAM bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct DmaEngine {
    dram: DramModel,
    /// Largest contiguous block the cluster data memory can accept.
    max_block_bytes: Bytes,
    /// Fraction of the chip DRAM bandwidth allocated to this channel.
    bandwidth_share: f64,
    /// Cycle at which the last transfer completes.
    busy_until: Cycles,
}

impl DmaEngine {
    /// Create a channel for a cluster whose data memory accepts blocks of
    /// at most `max_block_bytes` and that receives `bandwidth_share` of the
    /// chip's DRAM bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `max_block_bytes` is zero or the share is not in `(0, 1]`.
    pub fn new(dram: DramModel, max_block_bytes: Bytes, bandwidth_share: f64) -> Self {
        assert!(!max_block_bytes.is_zero(), "block size must be non-zero");
        assert!(
            bandwidth_share > 0.0 && bandwidth_share <= 1.0,
            "share must be in (0, 1]"
        );
        DmaEngine {
            dram,
            max_block_bytes,
            bandwidth_share,
            busy_until: Cycles::ZERO,
        }
    }

    /// Move `bytes` issued at `issue_cycle` and return the cycle the
    /// transfer completes: it starts at the later of `issue_cycle` and the
    /// previous transfer's completion, and takes
    /// [`DramModel::transfer_cycles`] at the channel's block size and share.
    pub fn transfer(&mut self, bytes: Bytes, issue_cycle: Cycles) -> Cycles {
        let start = issue_cycle.max(self.busy_until);
        self.busy_until = start
            + self
                .dram
                .transfer_cycles(bytes, self.max_block_bytes, self.bandwidth_share);
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: u64 = 64 * 1024;

    fn engine() -> DmaEngine {
        DmaEngine::new(DramModel::paper_default(), Bytes::new(BLOCK), 1.0)
    }

    /// The transfer time of `bytes` on [`engine`]'s channel.
    fn cycles(bytes: u64) -> Cycles {
        DramModel::paper_default().transfer_cycles(Bytes::new(bytes), Bytes::new(BLOCK), 1.0)
    }

    #[test]
    fn requests_serialise_on_the_engine() {
        let mut dma = engine();
        // A back-to-back pair: the second waits for the first.
        let a = dma.transfer(Bytes::new(64 * 1024), Cycles::ZERO);
        assert_eq!(a, cycles(64 * 1024));
        let b = dma.transfer(Bytes::new(64 * 1024), Cycles::ZERO);
        assert_eq!(b, a + cycles(64 * 1024));
        // An issue after an idle gap starts at the issue cycle.
        let issue = b + Cycles::new(5_000);
        let c = dma.transfer(Bytes::new(3 * 1024), issue);
        assert_eq!(c, issue + cycles(3 * 1024));
        // An issue 10^15 cycles out costs the same as any other.
        let far = c + Cycles::new(1_000_000_000_000_000);
        let d = dma.transfer(Bytes::new(128 * 1024), far);
        assert_eq!(d, far + cycles(128 * 1024));
        // And the channel stays serial after it.
        let e = dma.transfer(Bytes::new(4 * 1024), far);
        assert_eq!(e, d + cycles(4 * 1024));
    }

    #[test]
    fn smaller_share_means_longer_transfers() {
        let mut full = engine();
        let mut quarter = DmaEngine::new(DramModel::paper_default(), Bytes::new(BLOCK), 0.25);
        let a = full.transfer(Bytes::new(1 << 20), Cycles::ZERO);
        let b = quarter.transfer(Bytes::new(1 << 20), Cycles::ZERO);
        assert!(b > a);
        assert_eq!(
            b,
            DramModel::paper_default().transfer_cycles(
                Bytes::new(1 << 20),
                Bytes::new(BLOCK),
                0.25
            )
        );
    }

    #[test]
    #[should_panic(expected = "share must be in (0, 1]")]
    fn invalid_share_panics() {
        DmaEngine::new(DramModel::paper_default(), Bytes::new(1024), 1.5);
    }
}
