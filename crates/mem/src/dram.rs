//! External DRAM timing model.
//!
//! The model captures the two quantities the paper's evaluation depends on:
//! the peak bandwidth of the external memory (LPDDR-class for an edge SoC)
//! and the fixed per-transfer overhead of the DMA + DRAM controller path
//! (request setup, AXI traversal, page activation). Effective bandwidth is
//!
//! ```text
//! BW_eff(bytes) = bytes / (overhead_cycles + bytes / peak_bytes_per_cycle)
//! ```
//!
//! which drops sharply for small transfers and approaches the ideal
//! bandwidth for large ones — the curve of the paper's Fig. 6b.

use edgemm_core::units::{clock_hz, Bytes, Cycles};

/// Bytes per GiB, as an exact float.
const GIB: f64 = 1_073_741_824.0;

/// Timing model of the shared external DRAM interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramModel {
    /// Peak bandwidth in GiB/s.
    pub peak_gib_s: f64,
    /// Core clock in MHz (cycles below are core cycles).
    pub clock_mhz: u32,
    /// Fixed overhead per DMA transfer, in core cycles (controller latency,
    /// AXI traversal, page activation).
    pub overhead_cycles: Cycles,
    /// Energy cost of moving one byte from DRAM, in picojoules (used for the
    /// token/J efficiency figure).
    pub energy_pj_per_byte: f64,
}

impl DramModel {
    /// The LPDDR5X-class interface assumed for the paper-default chip:
    /// 68 GiB/s peak, 1 GHz core clock, 200-cycle transfer overhead.
    pub fn paper_default() -> Self {
        DramModel {
            peak_gib_s: 68.0,
            clock_mhz: 1000,
            overhead_cycles: Cycles::new(200),
            energy_pj_per_byte: 20.0,
        }
    }

    /// Create a model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `peak_gib_s` is not positive or `clock_mhz` is zero.
    pub fn new(
        peak_gib_s: f64,
        clock_mhz: u32,
        overhead_cycles: Cycles,
        energy_pj_per_byte: f64,
    ) -> Self {
        assert!(peak_gib_s > 0.0, "peak bandwidth must be positive");
        assert!(clock_mhz > 0, "clock must be non-zero");
        DramModel {
            peak_gib_s,
            clock_mhz,
            overhead_cycles,
            energy_pj_per_byte,
        }
    }

    /// Peak bandwidth in bytes per core cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.peak_gib_s * GIB / clock_hz(self.clock_mhz)
    }

    /// Core cycles to move `bytes` with a fraction `share` (0 < share <= 1)
    /// of the peak bandwidth, issued as transfers of `block_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `share` is not in `(0, 1]` or `block_bytes` is zero.
    pub fn transfer_cycles(&self, bytes: Bytes, block_bytes: Bytes, share: f64) -> Cycles {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0, 1]");
        assert!(!block_bytes.is_zero(), "block size must be non-zero");
        if bytes.is_zero() {
            return Cycles::ZERO;
        }
        let transfers = bytes.div_ceil(block_bytes);
        let stream_cycles =
            Cycles::from_f64_ceil(bytes.as_f64() / (self.peak_bytes_per_cycle() * share));
        self.overhead_cycles * transfers + stream_cycles
    }

    /// Effective bandwidth in GiB/s achieved when moving data in blocks of
    /// `block_bytes` at full share — the quantity plotted in Fig. 6b.
    pub fn effective_bandwidth_gib_s(&self, block_bytes: Bytes) -> f64 {
        if block_bytes.is_zero() {
            return 0.0;
        }
        let seconds = self
            .transfer_cycles(block_bytes, block_bytes, 1.0)
            .seconds(self.clock_mhz);
        block_bytes.as_f64() / GIB / seconds
    }
}

impl Default for DramModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn peak_bytes_per_cycle_consistent() {
        let dram = DramModel::paper_default();
        // 68 GiB/s at 1 GHz is ~73 bytes/cycle.
        let bpc = dram.peak_bytes_per_cycle();
        assert!((bpc - 73.014_444).abs() < 0.05, "bpc = {bpc}");
    }

    #[test]
    fn small_transfers_are_overhead_dominated() {
        let dram = DramModel::paper_default();
        let small = dram.effective_bandwidth_gib_s(Bytes::new(1024));
        let large = dram.effective_bandwidth_gib_s(Bytes::new(4 * 1024 * 1024));
        // Fig. 6b: effective bandwidth drops notably for small matrices but
        // nears the ideal bandwidth as the block size increases.
        assert!(small < 0.3 * dram.peak_gib_s, "small-block BW = {small}");
        assert!(large > 0.9 * dram.peak_gib_s, "large-block BW = {large}");
    }

    #[test]
    fn effective_bandwidth_is_monotonic_in_block_size() {
        let dram = DramModel::paper_default();
        let sizes = [
            1u64 << 10,
            1 << 12,
            1 << 14,
            1 << 16,
            1 << 18,
            1 << 20,
            1 << 22,
        ];
        let bws: Vec<f64> = sizes
            .iter()
            .map(|&s| dram.effective_bandwidth_gib_s(Bytes::new(s)))
            .collect();
        for pair in bws.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-9,
                "bandwidth not monotonic: {bws:?}"
            );
        }
    }

    #[test]
    fn transfer_cycles_scale_with_share() {
        let dram = DramModel::paper_default();
        let full = dram.transfer_cycles(Bytes::new(1 << 20), Bytes::new(1 << 20), 1.0);
        let half = dram.transfer_cycles(Bytes::new(1 << 20), Bytes::new(1 << 20), 0.5);
        // Streaming part doubles; overhead stays the same.
        assert!(half > full);
        assert!(half < full * 2u64);
    }

    #[test]
    fn zero_bytes_is_free() {
        let dram = DramModel::paper_default();
        assert_eq!(
            dram.transfer_cycles(Bytes::ZERO, Bytes::new(1024), 1.0),
            Cycles::ZERO
        );
        assert_eq!(dram.effective_bandwidth_gib_s(Bytes::ZERO), 0.0);
    }

    #[test]
    #[should_panic(expected = "share must be in (0, 1]")]
    fn bad_share_panics() {
        DramModel::paper_default().transfer_cycles(Bytes::new(1024), Bytes::new(1024), 0.0);
    }

    #[test]
    #[should_panic(expected = "peak bandwidth must be positive")]
    fn bad_peak_panics() {
        DramModel::new(0.0, 1000, Cycles::new(10), 20.0);
    }

    proptest! {
        /// Effective bandwidth never exceeds the peak.
        #[test]
        fn effective_never_exceeds_peak(block in 1u64..(1 << 26)) {
            let dram = DramModel::paper_default();
            prop_assert!(dram.effective_bandwidth_gib_s(Bytes::new(block)) <= dram.peak_gib_s + 1e-9);
        }

        /// Transfer cycles are monotonic in the byte count.
        #[test]
        fn cycles_monotonic_in_bytes(bytes in 1u64..(1 << 26), extra in 1u64..(1 << 20)) {
            let dram = DramModel::paper_default();
            let block = Bytes::new(64 * 1024);
            prop_assert!(
                dram.transfer_cycles(Bytes::new(bytes + extra), block, 1.0)
                    >= dram.transfer_cycles(Bytes::new(bytes), block, 1.0)
            );
        }
    }
}
