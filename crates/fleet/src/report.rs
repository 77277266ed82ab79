//! Fleet-level reporting: per-replica serve reports plus the cross-replica
//! aggregates a routing policy is judged on.

use edgemm_core::float::{count, fraction};
use edgemm_core::units::{Bytes, Tokens};
use edgemm_serve::{ServeCounters, ServeReport};

/// What a fleet serve returns: each replica's full [`ServeReport`] (exactly
/// what a one-shot serve of that replica's sub-trace would report), the
/// request-to-replica assignment and the fleet makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Final per-replica reports, in replica order. A replica nothing was
    /// dispatched to carries an empty report.
    pub replicas: Vec<ServeReport>,
    /// `assignments[i]` is the replica the `i`-th submitted request was
    /// dispatched to.
    pub assignments: Vec<usize>,
    /// Retired: the number of replicas that served at least one request.
    /// Kept only because the repository benchmark reads it.
    pub completion_events: u64,
    /// Retired: always 0 (the gateway schedules no completion events that
    /// could go stale). Kept only because the repository benchmark reads
    /// it.
    pub stale_completions: u64,
    /// Fleet-clock time at which the fleet drained: the later of the last
    /// arrival and the last replica's last completion or rejection, both
    /// on the 1 GHz fleet tick (0 for an empty trace).
    pub makespan_s: f64,
    /// The run's work counts.
    pub counters: FleetCounters,
}

/// Deterministic work counts of one fleet run, the same on every host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCounters {
    /// The replicas' [`ServeCounters`], summed. A replaying replica counts
    /// its last replay only, so each replica counts what a one-shot serve
    /// of its sub-trace counts.
    pub serve: ServeCounters,
    /// Dispatches that made their replica replay: requests routed at or
    /// before the target engine's last processed event.
    pub replays: u64,
}

impl FleetReport {
    /// Requests dispatched across the fleet.
    pub fn dispatched(&self) -> usize {
        self.assignments.len()
    }

    /// Requests completed across all replicas.
    pub fn completed(&self) -> usize {
        self.replicas.iter().map(|r| r.completed.len()).sum()
    }

    /// Requests rejected by admission control across all replicas.
    pub fn rejected(&self) -> usize {
        self.replicas.iter().map(|r| r.rejected.len()).sum()
    }

    /// Requests submitted across all replicas (completed plus rejected);
    /// equals [`Self::dispatched`] by the gateway's conservation invariant
    /// (property-tested).
    pub fn submitted(&self) -> usize {
        self.replicas.iter().map(|r| r.submitted()).sum()
    }

    /// Fleet-wide SLO attainment: the fraction of all dispatched requests
    /// that completed within every deadline their class sets, rejected
    /// requests counting as misses — the submission-weighted aggregate of
    /// the per-replica attainments. 1.0 for an empty fleet run.
    pub fn slo_attainment(&self) -> f64 {
        let submitted = self.submitted();
        if submitted == 0 {
            return 1.0;
        }
        let met: usize = self
            .replicas
            .iter()
            .map(|r| r.completed.iter().filter(|c| c.meets_slo()).count())
            .sum();
        fraction(met, submitted)
    }

    /// Dispatched requests that missed their SLO (deadline-blowing
    /// completions plus rejections), summed across replicas.
    pub fn deadline_misses(&self) -> usize {
        self.replicas.iter().map(|r| r.deadline_misses()).sum()
    }

    /// Prompt tokens re-prefilled after mid-decode evictions, summed across
    /// replicas — the fleet-level cost of scattering tenants whose shared
    /// prefixes then thrash each replica's KV pool. The number
    /// prefix-affinity routing exists to shrink.
    pub fn restarted_prefill_tokens(&self) -> Tokens {
        self.replicas
            .iter()
            .map(|r| r.restarted_prefill_tokens)
            .sum()
    }

    /// Largest per-replica KV high-water mark.
    pub fn peak_kv_bytes(&self) -> Bytes {
        self.replicas
            .iter()
            .map(|r| r.peak_kv_bytes)
            .fold(Bytes::ZERO, Bytes::max)
    }

    /// Output tokens generated across the fleet.
    pub fn total_output_tokens(&self) -> Tokens {
        self.replicas.iter().map(|r| r.total_output_tokens).sum()
    }

    /// Per-replica load imbalance: the busiest replica's dispatched count
    /// over the fleet mean. 1.0 is a perfectly even split (and the value
    /// for an empty run); R is the worst case (everything on one of R
    /// replicas).
    pub fn load_imbalance(&self) -> f64 {
        let total = self.submitted();
        if total == 0 {
            return 1.0;
        }
        let max = self
            .replicas
            .iter()
            .map(|r| r.submitted())
            .max()
            .unwrap_or(0);
        fraction(max, total) * count(self.replicas.len())
    }
}
