//! Aggregate serving metrics: latency/TTFT/TPOT percentiles, throughput,
//! queue depth, SLO attainment and per-class breakdowns.

use edgemm_core::float::{count, count_u64, fraction};
use edgemm_core::units::{Bytes, Tokens};

use crate::request::{CompletedRequest, RejectedRequest};
use crate::slo::Priority;

/// Queue and batch occupancy observed at one event-loop instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueSample {
    /// Simulation time of the sample in seconds.
    pub time_s: f64,
    /// Requests waiting for the CC stage or for a free decode slot
    /// (excludes the request currently in prefill).
    pub waiting: usize,
    /// Streams currently in the decode batch.
    pub active: usize,
    /// KV-cache bytes resident in the pool at this instant — the pool's
    /// *full* account, precisely: under whole-request reservations, the sum
    /// of every decode-batch member's reserved peak footprint; under paged
    /// allocation, `allocated blocks × block bytes` over **all** block
    /// holders — decode-batch tables, refcounted shared-prefix blocks
    /// (counted once, however many streams map them) and, with
    /// [`crate::ServeConfig::eager_kv_accounting`], the blocks written by
    /// completed prefill chunks of streams still in the CC/ready queues.
    /// Without eager accounting, paged samples cover decode-batch residents
    /// plus shared-prefix blocks only (ready-queue KV enters the account at
    /// join). KV images parked in the DRAM spill area are *excluded*: they
    /// do not occupy the pool. With a bounded pool the value stays within
    /// the budget at *every* sample, not just at the peak (property-tested)
    /// — except while a single oversized stream admitted through the
    /// sole-owner escape hatch runs solo, exactly as for
    /// [`ServeReport::peak_kv_bytes`].
    pub kv_bytes: Bytes,
}

/// Nearest-rank percentile over an unsorted sample, `pct` in `(0, 100]`.
/// Returns 0 for an empty sample.
fn percentile(mut values: Vec<f64>, pct: f64) -> f64 {
    assert!(pct > 0.0 && pct <= 100.0, "percentile must be in (0, 100]");
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    // The nearest-rank index is a dimensionless position in the sample.
    // lint:allow(unit-cast)
    let rank = ((pct / 100.0) * count(values.len())).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// SLO summary of one priority class within a serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// The priority class the row summarises.
    pub priority: Priority,
    /// Requests of this class that completed.
    pub completed: usize,
    /// Requests of this class dropped by admission control.
    pub rejected: usize,
    /// Requests of this class that missed their SLO: completions that blew
    /// a deadline plus the rejected ones.
    pub misses: usize,
    /// Fraction of this class's *submitted* requests that completed within
    /// every deadline their class sets (rejects count as misses).
    pub attainment: f64,
    /// Median time to first token over the class's completions.
    pub p50_ttft_s: f64,
    /// 95th-percentile time to first token.
    pub p95_ttft_s: f64,
    /// 99th-percentile time to first token.
    pub p99_ttft_s: f64,
    /// Median time per output token.
    pub p50_tpot_s: f64,
    /// 95th-percentile time per output token.
    pub p95_tpot_s: f64,
    /// 99th-percentile time per output token.
    pub p99_tpot_s: f64,
}

/// The outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Every served request, in completion order.
    pub completed: Vec<CompletedRequest>,
    /// Requests dropped by admission control, in rejection order (empty
    /// unless [`crate::AdmissionControl::Reject`] is active).
    pub rejected: Vec<RejectedRequest>,
    /// Queue-depth timeline, sampled at every simulator event.
    pub queue_samples: Vec<QueueSample>,
    /// Number of stream-batched decode steps executed.
    pub decode_steps: u64,
    /// Number of chunk-boundary preemptions: times the CC stage's pick
    /// displaced the request whose chunk had just finished (it wanted to
    /// continue but something else took the stage). Continuing a prefill,
    /// or resuming one after the preemptor completed, does not count.
    /// Always zero when prefill is unchunked (a prefill then runs as one
    /// block) and under FCFS with admit-all admission (the in-progress
    /// prefill is always the earliest arrival). Deferring admission can
    /// preempt even under FCFS: a prefill whose TTFT deadline becomes
    /// unreachable mid-flight is parked behind feasible arrivals at its
    /// next chunk boundary.
    pub preemptions: u64,
    /// Mid-decode evictions (paged mode only): times a running stream's KV
    /// blocks were revoked — because a strictly-more-urgent ready request
    /// claimed its decode slot, or because the pool could not grow a
    /// stream's context under the byte budget. Evicted requests are never
    /// dropped; they re-queue for re-prefill and still complete
    /// (property-tested). Always zero under whole-request reservations.
    pub evictions: u64,
    /// Prompt-plus-generated tokens the CC stage had to prefill *again*
    /// because an eviction freed their KV — the recompute cost of paging,
    /// in tokens. Zero when nothing was evicted, and collapses to zero when
    /// a DRAM spill area absorbs every eviction
    /// ([`crate::ServeConfig::spill_capacity_bytes`]): spilled streams
    /// restore their KV verbatim instead of recomputing it.
    pub restarted_prefill_tokens: Tokens,
    /// KV bytes written to the DRAM spill area by spill-and-restore
    /// evictions, priced at the modeled DMA bandwidth. Zero without a
    /// configured spill area.
    pub spilled_kv_bytes: Bytes,
    /// KV bytes read back from the spill area when spilled streams
    /// re-joined the decode batch. Equals [`Self::spilled_kv_bytes`] at the
    /// end of every run — every spilled stream restores exactly once
    /// (property-tested conservation).
    pub restored_kv_bytes: Bytes,
    /// High-water mark of KV-cache bytes resident in the run's pool at
    /// once. Under a bounded [`edgemm_mem::KvPool`] budget this stays within
    /// it (property-tested), except for a single oversized stream admitted
    /// solo.
    pub peak_kv_bytes: Bytes,
    /// Total output tokens generated across all completed requests.
    pub total_output_tokens: Tokens,
    /// First arrival to last completion, in seconds (0 when nothing
    /// completed) — requests that were rejected without consuming the
    /// machine do not stretch it.
    pub makespan_s: f64,
}

impl ServeReport {
    /// Requests submitted to the run: completed plus rejected.
    pub fn submitted(&self) -> usize {
        self.completed.len() + self.rejected.len()
    }

    /// Nearest-rank end-to-end latency percentile over the completed
    /// requests, `pct` in `(0, 100]`. Returns 0 for an empty report.
    ///
    /// # Panics
    ///
    /// Panics if `pct` is outside `(0, 100]`.
    pub fn latency_percentile_s(&self, pct: f64) -> f64 {
        percentile(self.completed.iter().map(|r| r.latency_s()).collect(), pct)
    }

    /// Nearest-rank time-to-first-token percentile over the completed
    /// requests. Same domain and empty-report behaviour as
    /// [`Self::latency_percentile_s`].
    pub fn ttft_percentile_s(&self, pct: f64) -> f64 {
        percentile(
            self.completed
                .iter()
                .map(|r| r.time_to_first_token_s())
                .collect(),
            pct,
        )
    }

    /// Nearest-rank time-per-output-token percentile over the completed
    /// requests. Same domain and empty-report behaviour as
    /// [`Self::latency_percentile_s`].
    pub fn tpot_percentile_s(&self, pct: f64) -> f64 {
        percentile(
            self.completed
                .iter()
                .map(|r| r.time_per_output_token_s())
                .collect(),
            pct,
        )
    }

    /// Median end-to-end latency.
    pub fn p50_latency_s(&self) -> f64 {
        self.latency_percentile_s(50.0)
    }

    /// 95th-percentile end-to-end latency.
    pub fn p95_latency_s(&self) -> f64 {
        self.latency_percentile_s(95.0)
    }

    /// 99th-percentile end-to-end latency.
    pub fn p99_latency_s(&self) -> f64 {
        self.latency_percentile_s(99.0)
    }

    /// Mean end-to-end latency.
    pub fn mean_latency_s(&self) -> f64 {
        if self.completed.is_empty() {
            return 0.0;
        }
        self.completed.iter().map(|r| r.latency_s()).sum::<f64>() / count(self.completed.len())
    }

    /// Fraction of submitted requests that completed within every deadline
    /// their class sets. Rejected requests count as misses; deadline-free
    /// requests always count as met. 1.0 for an empty report.
    pub fn slo_attainment(&self) -> f64 {
        if self.submitted() == 0 {
            return 1.0;
        }
        let met = self.completed.iter().filter(|r| r.meets_slo()).count();
        fraction(met, self.submitted())
    }

    /// Submitted requests that missed their SLO: completions that blew a
    /// deadline plus everything admission control rejected.
    pub fn deadline_misses(&self) -> usize {
        self.completed.iter().filter(|r| !r.meets_slo()).count() + self.rejected.len()
    }

    /// Per-priority-class SLO summary, most urgent class first. Classes with
    /// no submitted requests are omitted.
    pub fn class_stats(&self) -> Vec<ClassStats> {
        Priority::ALL
            .iter()
            .filter_map(|&priority| {
                let completed: Vec<&CompletedRequest> = self
                    .completed
                    .iter()
                    .filter(|r| r.slo.priority == priority)
                    .collect();
                let rejected = self
                    .rejected
                    .iter()
                    .filter(|r| r.slo.priority == priority)
                    .count();
                let submitted = completed.len() + rejected;
                if submitted == 0 {
                    return None;
                }
                let met = completed.iter().filter(|r| r.meets_slo()).count();
                let ttft: Vec<f64> = completed
                    .iter()
                    .map(|r| r.time_to_first_token_s())
                    .collect();
                let tpot: Vec<f64> = completed
                    .iter()
                    .map(|r| r.time_per_output_token_s())
                    .collect();
                Some(ClassStats {
                    priority,
                    completed: completed.len(),
                    rejected,
                    misses: submitted - met,
                    attainment: fraction(met, submitted),
                    p50_ttft_s: percentile(ttft.clone(), 50.0),
                    p95_ttft_s: percentile(ttft.clone(), 95.0),
                    p99_ttft_s: percentile(ttft, 99.0),
                    p50_tpot_s: percentile(tpot.clone(), 50.0),
                    p95_tpot_s: percentile(tpot.clone(), 95.0),
                    p99_tpot_s: percentile(tpot, 99.0),
                })
            })
            .collect()
    }

    /// Steady-state serving throughput: output tokens per second over the
    /// whole run (first arrival to last completion).
    pub fn tokens_per_second(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.total_output_tokens.as_f64() / self.makespan_s
    }

    /// Completed requests per second over the whole run.
    pub fn requests_per_second(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        count(self.completed.len()) / self.makespan_s
    }

    /// Average number of streams decoded per step (weight-reuse factor).
    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.decode_steps == 0 {
            return 0.0;
        }
        self.total_output_tokens.as_f64() / count_u64(self.decode_steps)
    }

    /// Largest number of requests simultaneously waiting.
    pub fn max_queue_depth(&self) -> usize {
        self.queue_samples
            .iter()
            .map(|s| s.waiting)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloClass;

    fn report_with_latencies(latencies: &[f64]) -> ServeReport {
        ServeReport {
            completed: latencies
                .iter()
                .enumerate()
                .map(|(i, &l)| CompletedRequest {
                    id: i as u64,
                    arrival_s: 0.0,
                    prefill_start_s: 0.0,
                    prefill_end_s: l / 2.0,
                    decode_start_s: l / 2.0,
                    finish_s: l,
                    output_tokens: 4,
                    slo: SloClass::best_effort(),
                })
                .collect(),
            rejected: vec![],
            queue_samples: vec![
                QueueSample {
                    time_s: 0.0,
                    waiting: 3,
                    active: 1,
                    kv_bytes: Bytes::ZERO,
                },
                QueueSample {
                    time_s: 1.0,
                    waiting: 1,
                    active: 2,
                    kv_bytes: Bytes::ZERO,
                },
            ],
            decode_steps: 10,
            preemptions: 0,
            evictions: 0,
            restarted_prefill_tokens: Tokens::ZERO,
            spilled_kv_bytes: Bytes::ZERO,
            restored_kv_bytes: Bytes::ZERO,
            peak_kv_bytes: Bytes::ZERO,
            total_output_tokens: Tokens::new(4 * latencies.len()),
            makespan_s: 2.0,
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let r = report_with_latencies(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(r.p50_latency_s(), 2.0);
        assert_eq!(r.p95_latency_s(), 4.0);
        assert_eq!(r.p99_latency_s(), 4.0);
        assert_eq!(r.latency_percentile_s(25.0), 1.0);
        assert_eq!(r.latency_percentile_s(100.0), 4.0);
    }

    #[test]
    fn ttft_and_tpot_percentiles_track_the_fixture() {
        // TTFT = l/2 and TPOT = (l/2)/4 in the fixture.
        let r = report_with_latencies(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(r.ttft_percentile_s(50.0), 1.0);
        assert_eq!(r.ttft_percentile_s(99.0), 2.0);
        assert!((r.tpot_percentile_s(50.0) - 0.25).abs() < 1e-12);
        assert!((r.tpot_percentile_s(99.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_and_occupancy() {
        let r = report_with_latencies(&[1.0, 2.0]);
        assert!((r.tokens_per_second() - 4.0).abs() < 1e-12);
        assert!((r.requests_per_second() - 1.0).abs() < 1e-12);
        assert!((r.mean_batch_occupancy() - 0.8).abs() < 1e-12);
        assert_eq!(r.max_queue_depth(), 3);
        assert!((r.mean_latency_s() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn attainment_counts_rejects_as_misses() {
        let mut r = report_with_latencies(&[1.0, 2.0, 3.0]);
        // Best-effort completions always meet SLO.
        assert_eq!(r.slo_attainment(), 1.0);
        assert_eq!(r.deadline_misses(), 0);
        // A TTFT deadline of 1.2 s: fixture TTFTs are 0.5, 1.0, 1.5 — one
        // completion misses.
        for done in r.completed.iter_mut() {
            done.slo = SloClass::interactive().with_ttft(1.2).with_tpot(10.0);
        }
        assert_eq!(r.deadline_misses(), 1);
        assert!((r.slo_attainment() - 2.0 / 3.0).abs() < 1e-12);
        // One rejected request dilutes attainment further.
        r.rejected.push(RejectedRequest {
            id: 99,
            arrival_s: 0.0,
            reject_s: 0.5,
            slo: SloClass::interactive(),
        });
        assert_eq!(r.submitted(), 4);
        assert_eq!(r.deadline_misses(), 2);
        assert!((r.slo_attainment() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn class_stats_group_by_priority() {
        let mut r = report_with_latencies(&[1.0, 2.0, 4.0]);
        r.completed[0].slo = SloClass::interactive().with_ttft(1.0).with_tpot(10.0);
        r.completed[1].slo = SloClass::batch();
        r.completed[2].slo = SloClass::batch();
        r.rejected.push(RejectedRequest {
            id: 99,
            arrival_s: 0.0,
            reject_s: 0.5,
            slo: SloClass::interactive(),
        });
        let stats = r.class_stats();
        assert_eq!(stats.len(), 2);
        // Most urgent class first.
        assert_eq!(stats[0].priority, Priority::Interactive);
        assert_eq!(stats[0].completed, 1);
        assert_eq!(stats[0].rejected, 1);
        assert_eq!(stats[0].misses, 1);
        // The one completion met its 1.0 s TTFT (fixture TTFT 0.5); the
        // reject halves attainment.
        assert!((stats[0].attainment - 0.5).abs() < 1e-12);
        assert_eq!(stats[1].priority, Priority::Batch);
        assert_eq!(stats[1].completed, 2);
        assert_eq!(stats[1].rejected, 0);
        assert_eq!(stats[1].misses, 0);
        assert_eq!(stats[1].attainment, 1.0);
        assert_eq!(stats[1].p95_ttft_s, 2.0);
        // No standard-priority submissions: the class is omitted.
        assert!(stats.iter().all(|s| s.priority != Priority::Standard));
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = ServeReport {
            completed: vec![],
            rejected: vec![],
            queue_samples: vec![],
            decode_steps: 0,
            preemptions: 0,
            evictions: 0,
            restarted_prefill_tokens: Tokens::ZERO,
            spilled_kv_bytes: Bytes::ZERO,
            restored_kv_bytes: Bytes::ZERO,
            peak_kv_bytes: Bytes::ZERO,
            total_output_tokens: Tokens::ZERO,
            makespan_s: 0.0,
        };
        assert_eq!(r.p99_latency_s(), 0.0);
        assert_eq!(r.ttft_percentile_s(95.0), 0.0);
        assert_eq!(r.tokens_per_second(), 0.0);
        assert_eq!(r.mean_batch_occupancy(), 0.0);
        assert_eq!(r.max_queue_depth(), 0);
        assert_eq!(r.slo_attainment(), 1.0);
        assert!(r.class_stats().is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile must be in (0, 100]")]
    fn out_of_range_percentile_rejected() {
        report_with_latencies(&[1.0]).latency_percentile_s(0.0);
    }
}
