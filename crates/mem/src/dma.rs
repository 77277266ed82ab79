//! Per-cluster DMA engines with performance-monitoring counters.
//!
//! Every cluster has a distributed DMA module linked to the DRAM controller.
//! The DMA carries a performance-monitoring counter (PMC) that accumulates
//! the memory-access usage `d` of its cluster within the current throttling
//! interval `T`; once `d` exceeds the cluster budget `B`, subsequent
//! requests are blocked until the interval elapses and the PMC resets
//! (paper Sec. IV-B).

use edgemm_core::units::{Bytes, Cycles};

use crate::dram::DramModel;
use crate::traffic::{TrafficClass, TrafficStats};

/// One DMA transfer request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaRequest {
    /// Bytes to move.
    pub bytes: Bytes,
    /// Semantic class of the data (for the Fig. 2c breakdown).
    pub class: TrafficClass,
}

impl DmaRequest {
    /// Convenience constructor.
    pub fn new(bytes: Bytes, class: TrafficClass) -> Self {
        DmaRequest { bytes, class }
    }
}

/// Record of one executed transfer, for traces and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaTranscript {
    /// The request that was served.
    pub request: DmaRequest,
    /// Cycle at which the transfer started (after any throttling stall).
    pub start_cycle: Cycles,
    /// Cycle at which the transfer completed.
    pub end_cycle: Cycles,
    /// Cycles the request was stalled waiting for budget.
    pub stall_cycles: Cycles,
}

/// A cluster DMA engine with budget throttling.
///
/// The engine processes requests serially (one outstanding transfer per
/// cluster DMA, as in the Snitch cluster) and tracks its PMC against the
/// configured budget per interval.
#[derive(Debug, Clone, PartialEq)]
pub struct DmaEngine {
    dram: DramModel,
    /// Largest contiguous block the cluster data memory can accept.
    max_block_bytes: Bytes,
    /// Fraction of the chip DRAM bandwidth allocated to this cluster.
    bandwidth_share: f64,
    /// Budget `B` in bytes per interval, `None` = unthrottled.
    budget_per_interval: Option<Bytes>,
    /// Interval `T` in cycles.
    interval_cycles: Cycles,
    /// PMC: bytes used in the current interval.
    pmc_bytes: Bytes,
    /// Start cycle of the current interval.
    interval_start: Cycles,
    /// Local time of the engine (cycle at which it becomes idle).
    now: Cycles,
    stats: TrafficStats,
    total_stall_cycles: Cycles,
}

impl DmaEngine {
    /// Create an engine for a cluster whose data memory accepts blocks of at
    /// most `max_block_bytes` and that receives `bandwidth_share` of the
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
            budget_per_interval: None,
            interval_cycles: Cycles::new(10_000),
            pmc_bytes: Bytes::ZERO,
            interval_start: Cycles::ZERO,
            now: Cycles::ZERO,
            stats: TrafficStats::new(),
            total_stall_cycles: Cycles::ZERO,
        }
    }

    /// Configure throttling: budget `B` bytes per interval of `T` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval_cycles` is zero.
    pub fn set_budget(&mut self, budget_bytes: Bytes, interval_cycles: Cycles) {
        assert!(!interval_cycles.is_zero(), "interval must be non-zero");
        self.budget_per_interval = Some(budget_bytes);
        self.interval_cycles = interval_cycles;
    }

    /// Remove throttling.
    pub fn clear_budget(&mut self) {
        self.budget_per_interval = None;
    }

    /// Change the bandwidth share (used by the dynamic bandwidth manager).
    ///
    /// # Panics
    ///
    /// Panics if the share is not in `(0, 1]`.
    pub fn set_bandwidth_share(&mut self, share: f64) {
        assert!(share > 0.0 && share <= 1.0, "share must be in (0, 1]");
        self.bandwidth_share = share;
    }

    /// Current bandwidth share.
    pub fn bandwidth_share(&self) -> f64 {
        self.bandwidth_share
    }

    /// The engine's local clock: the cycle at which it becomes idle.
    pub fn now(&self) -> Cycles {
        self.now
    }

    /// Cumulative traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Total cycles spent stalled on budget throttling.
    pub fn total_stall_cycles(&self) -> Cycles {
        self.total_stall_cycles
    }

    /// Submit a request at `issue_cycle` (clamped to the engine's local time)
    /// and return the transcript of its execution.
    pub fn submit(&mut self, request: DmaRequest, issue_cycle: Cycles) -> DmaTranscript {
        let mut start = issue_cycle.max(self.now);
        // Advance the throttling interval to cover `start`.
        self.roll_interval(start);
        let mut stall = Cycles::ZERO;
        if let Some(budget) = self.budget_per_interval {
            // If the PMC already exceeds the budget, stall to the next
            // interval boundary (requests are blocked until T elapses).
            if self.pmc_bytes >= budget {
                let next = self.interval_start + self.interval_cycles;
                stall = next - start;
                start = next;
                self.roll_interval(start);
            }
        }
        let cycles =
            self.dram
                .transfer_cycles(request.bytes, self.max_block_bytes, self.bandwidth_share);
        let end = start + cycles;
        self.pmc_bytes += request.bytes;
        self.now = end;
        self.stats.record(request.class, request.bytes);
        self.total_stall_cycles += stall;
        DmaTranscript {
            request,
            start_cycle: start,
            end_cycle: end,
            stall_cycles: stall,
        }
    }

    /// Advance the throttling interval to the one that holds `cycle`,
    /// resetting the PMC if it moved. One division, however far `cycle`
    /// lies ahead: an idle gap of any length costs the same as none.
    /// `interval_start ≤ cycle` always holds (every roll is to a cycle at
    /// or after the engine's clock, which never runs behind the interval
    /// start), and the test subtracts rather than adds, so neither side
    /// can overflow.
    fn roll_interval(&mut self, cycle: Cycles) {
        let elapsed = cycle - self.interval_start;
        if elapsed >= self.interval_cycles {
            let whole = elapsed.get() / self.interval_cycles.get();
            self.interval_start += self.interval_cycles * whole;
            self.pmc_bytes = Bytes::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> DmaEngine {
        DmaEngine::new(DramModel::paper_default(), Bytes::new(64 * 1024), 1.0)
    }

    fn request(bytes: u64, class: TrafficClass) -> DmaRequest {
        DmaRequest::new(Bytes::new(bytes), class)
    }

    #[test]
    fn unthrottled_requests_never_stall() {
        let mut dma = engine();
        for _ in 0..10 {
            let t = dma.submit(request(32 * 1024, TrafficClass::FfnWeights), Cycles::ZERO);
            assert_eq!(t.stall_cycles, 0);
        }
        assert_eq!(dma.total_stall_cycles(), 0);
        assert_eq!(dma.stats().bytes(TrafficClass::FfnWeights), 10 * 32 * 1024);
    }

    #[test]
    fn requests_serialise_on_the_engine() {
        let mut dma = engine();
        let a = dma.submit(request(64 * 1024, TrafficClass::Activations), Cycles::ZERO);
        let b = dma.submit(request(64 * 1024, TrafficClass::Activations), Cycles::ZERO);
        assert_eq!(b.start_cycle, a.end_cycle);
        assert!(dma.now() == b.end_cycle);
    }

    #[test]
    fn budget_blocks_until_interval_end() {
        let mut dma = engine();
        dma.set_budget(Bytes::new(100 * 1024), Cycles::new(50_000));
        // First request consumes the whole budget.
        let a = dma.submit(request(128 * 1024, TrafficClass::FfnWeights), Cycles::ZERO);
        assert_eq!(a.stall_cycles, 0);
        // Second request must wait for the next interval boundary.
        let b = dma.submit(request(4 * 1024, TrafficClass::FfnWeights), a.end_cycle);
        assert!(b.stall_cycles > 0);
        assert_eq!(b.start_cycle, 50_000);
        assert_eq!(dma.total_stall_cycles(), b.stall_cycles);
    }

    #[test]
    fn pmc_resets_every_interval() {
        let mut dma = engine();
        dma.set_budget(Bytes::new(100 * 1024), Cycles::new(10_000));
        let a = dma.submit(request(128 * 1024, TrafficClass::FfnWeights), Cycles::ZERO);
        // Issue far in the future: the PMC has long reset, no stall.
        let b = dma.submit(
            request(128 * 1024, TrafficClass::FfnWeights),
            a.end_cycle + Cycles::new(100_000),
        );
        assert_eq!(b.stall_cycles, 0);
    }

    #[test]
    fn a_far_future_issue_jumps_the_window_in_one_step() {
        // 10^15 cycles is 10^11 intervals of T: walking them one at a time
        // would not finish.
        let interval = Cycles::new(10_000);
        let mut dma = engine();
        dma.set_budget(Bytes::new(100 * 1024), interval);
        let first = dma.submit(request(1024, TrafficClass::KvCache), Cycles::ZERO);
        let issue = first.end_cycle + Cycles::new(1_000_000_000_000_000);
        let a = dma.submit(request(128 * 1024, TrafficClass::KvCache), issue);
        assert_eq!(a.stall_cycles, 0, "the PMC reset across the gap");
        assert_eq!(a.start_cycle, issue);
        // The follow-up is over budget in the same interval: it stalls to
        // exactly the next multiple of T.
        let b = dma.submit(request(4 * 1024, TrafficClass::KvCache), a.end_cycle);
        let next = Cycles::new((issue.get() / interval.get() + 1) * interval.get());
        assert!(a.end_cycle < next);
        assert_eq!(b.start_cycle, next);
        assert_eq!(b.stall_cycles, next - a.end_cycle);
        assert_eq!(dma.total_stall_cycles(), b.stall_cycles);
    }

    #[test]
    fn clearing_budget_removes_stalls() {
        let mut dma = engine();
        dma.set_budget(Bytes::new(1), Cycles::new(1_000_000));
        let a = dma.submit(request(1024, TrafficClass::KvCache), Cycles::ZERO);
        dma.clear_budget();
        let b = dma.submit(request(1024, TrafficClass::KvCache), a.end_cycle);
        assert_eq!(b.stall_cycles, 0);
    }

    #[test]
    fn smaller_share_means_longer_transfers() {
        let mut full = engine();
        let mut quarter = DmaEngine::new(DramModel::paper_default(), Bytes::new(64 * 1024), 0.25);
        let a = full.submit(request(1 << 20, TrafficClass::FfnWeights), Cycles::ZERO);
        let b = quarter.submit(request(1 << 20, TrafficClass::FfnWeights), Cycles::ZERO);
        assert!(b.end_cycle > a.end_cycle);
        assert!((quarter.bandwidth_share() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn share_can_be_retuned_at_runtime() {
        let mut dma = engine();
        let slow_before = dma.submit(request(1 << 20, TrafficClass::FfnWeights), Cycles::ZERO);
        dma.set_bandwidth_share(0.125);
        let start = slow_before.end_cycle;
        let slow_after = dma.submit(request(1 << 20, TrafficClass::FfnWeights), start);
        assert!(
            slow_after.end_cycle - slow_after.start_cycle
                > slow_before.end_cycle - slow_before.start_cycle
        );
    }

    /// [`DmaEngine::submit`] with the interval walked one `T` per
    /// iteration: the definition the one-division roll must match.
    fn stepwise_submit(dma: &mut DmaEngine, request: DmaRequest, issue: Cycles) -> DmaTranscript {
        fn walk(dma: &mut DmaEngine, cycle: Cycles) {
            while cycle >= dma.interval_start + dma.interval_cycles {
                dma.interval_start += dma.interval_cycles;
                dma.pmc_bytes = Bytes::ZERO;
            }
        }
        let mut start = issue.max(dma.now);
        walk(dma, start);
        let mut stall = Cycles::ZERO;
        if dma
            .budget_per_interval
            .is_some_and(|budget| dma.pmc_bytes >= budget)
        {
            let next = dma.interval_start + dma.interval_cycles;
            stall = next - start;
            start = next;
            walk(dma, start);
        }
        let cycles =
            dma.dram
                .transfer_cycles(request.bytes, dma.max_block_bytes, dma.bandwidth_share);
        let end = start + cycles;
        dma.pmc_bytes += request.bytes;
        dma.now = end;
        dma.stats.record(request.class, request.bytes);
        dma.total_stall_cycles += stall;
        DmaTranscript {
            request,
            start_cycle: start,
            end_cycle: end,
            stall_cycles: stall,
        }
    }

    proptest! {
        /// Random scripts of submits, budget changes and share changes run
        /// the same on the one-division roll as on the stepwise walk:
        /// every transcript, the traffic stats, the stall total and the
        /// whole engine state agree. A gap is a number of whole intervals
        /// (up to 2^16 of up to ~5·10^8 cycles, so up to ~3·10^13 cycles)
        /// plus an offset, counted from the previous issue, so an issue
        /// can also land while the engine is still busy.
        #[test]
        fn interval_jump_matches_the_stepwise_walk(
            seed: u64,
            steps in 1usize..48,
            budgeted: bool,
        ) {
            let mut rng = TestRng::for_case(seed);
            let mut draw = |bound: u64| rng.next_u64() % bound;
            let mut fast = engine();
            let mut slow = engine();
            let mut interval = Cycles::new(10_000);
            let mut issue = Cycles::ZERO;
            for step in 0..steps {
                let kind = if step == 0 && budgeted { 2 } else { draw(8) };
                match kind {
                    0 => {
                        fast.clear_budget();
                        slow.clear_budget();
                    }
                    1 => {
                        let share = (1 + draw(16)) as f64 / 16.0;
                        fast.set_bandwidth_share(share);
                        slow.set_bandwidth_share(share);
                    }
                    2 => {
                        let budget = Bytes::new(draw((128 << 10) + 1));
                        let octave = draw(29);
                        interval = Cycles::new((1 << octave) + draw(1 << octave));
                        fast.set_budget(budget, interval);
                        slow.set_budget(budget, interval);
                    }
                    _ => {
                        let intervals = match draw(4) {
                            0 => 0,
                            1 => 1,
                            2 => draw(8),
                            _ => draw(1 << 16),
                        };
                        issue += interval * intervals + Cycles::new(draw(interval.get()));
                        let bytes = Bytes::new(draw((64 << 10) + 1));
                        let request = DmaRequest::new(bytes, TrafficClass::KvCache);
                        prop_assert_eq!(
                            fast.submit(request, issue),
                            stepwise_submit(&mut slow, request, issue)
                        );
                    }
                }
            }
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(fast.total_stall_cycles(), slow.total_stall_cycles());
            prop_assert_eq!(&fast, &slow);
        }
    }

    #[test]
    #[should_panic(expected = "share must be in (0, 1]")]
    fn invalid_share_panics() {
        DmaEngine::new(DramModel::paper_default(), Bytes::new(1024), 1.5);
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_panics() {
        engine().set_budget(Bytes::new(1024), Cycles::ZERO);
    }
}
