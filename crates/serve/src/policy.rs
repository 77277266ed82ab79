//! Scheduling policies: which queued request each pipeline stage takes next.
//!
//! A policy governs *both* serialisation points of the pipeline:
//!
//! * **CC admission** ([`SchedulePolicy::choose`]): the CC stage (vision
//!   encode + prefill) is serial, so a long prefill at the head of the queue
//!   delays every request behind it — and, since requests only join the
//!   decode batch after their prefill, it also starves the MC stage.
//! * **Decode-batch join** ([`SchedulePolicy::choose_join`]): when more
//!   prefilled requests wait than the batch has free slots, the policy picks
//!   which stream joins at the step boundary. By default this reuses the CC
//!   ordering, so a policy governs the whole pipeline consistently.
//!
//! A policy sees a snapshot of the queue with per-request cost estimates and
//! SLO classes and picks one request. A policy that ranks requests by a
//! fixed sort key can also expose it ([`SchedulePolicy::cc_key`]); the
//! engine then keeps its CC queue ordered by that key and walks it in
//! order, instead of offering the whole queue at every pick.

use edgemm_core::units::Cycles;

use crate::slo::{Priority, SloClass};

/// A queued request as presented to a scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// The request's identifier.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Total prompt length (vision tokens + text tokens).
    pub prompt_tokens: usize,
    /// Output tokens the request will generate.
    pub output_tokens: usize,
    /// Estimated total CC-stage (encode + projector + prefill) cycles of
    /// the request, including any chunks already executed — the request's
    /// original demand, which keeps cost-aware orderings stable across
    /// chunk boundaries (and identical to the pre-chunking simulator).
    pub prefill_cycles: Cycles,
    /// The not-yet-executed remainder of [`Self::prefill_cycles`]: the
    /// whole stage for a request that has not started, the unexecuted
    /// chunks for one preempted mid-prefill, and zero once the request is
    /// prefilled and waiting for a decode slot. Custom policies that want
    /// shortest-*remaining*-work ordering should rank by this.
    pub remaining_prefill_cycles: Cycles,
    /// Estimated solo decode cycles for the whole generation, with the
    /// configured activation-aware pruning already applied.
    pub decode_cycles: Cycles,
    /// Priority class and deadlines the request is served under.
    pub slo: SloClass,
}

impl QueuedRequest {
    /// Estimated total service demand (prefill plus pruned decode).
    pub fn service_cycles(&self) -> Cycles {
        self.prefill_cycles + self.decode_cycles
    }

    /// Absolute TTFT deadline in seconds (`+inf` for deadline-free classes,
    /// which therefore sort last under EDF).
    pub fn ttft_deadline_abs(&self) -> f64 {
        self.slo.ttft_deadline_abs(self.arrival_s)
    }
}

/// A pluggable admission policy. Implementations must be deterministic.
pub trait SchedulePolicy: std::fmt::Debug {
    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Index into `queued` of the request the CC stage admits next.
    /// `queued` is never empty; the returned index must be in range.
    fn choose(&self, queued: &[QueuedRequest]) -> usize;

    /// Index into `ready` of the prefilled request that joins the decode
    /// batch next. `ready` is never empty; the returned index must be in
    /// range. Defaults to the CC ordering ([`Self::choose`]) so both stages
    /// follow one discipline unless a policy overrides it.
    fn choose_join(&self, ready: &[QueuedRequest]) -> usize {
        self.choose(ready)
    }

    /// The CC stage's sort key for `request`, if the policy has one.
    ///
    /// A key is computed from the [`QueuedRequest`] alone and ends in the
    /// request id, so keys are unique and totally ordered, and the minimum
    /// key over any queue must be exactly the entry [`Self::choose`]
    /// returns for it. Return `Some` for every request or for none. With
    /// keys, the engine keeps its CC queue ordered and visits only the
    /// candidates it gates; the default `None` keeps the snapshot scan,
    /// where every pick offers `choose` the whole queue.
    ///
    /// `f64` fields enter through [`PolicyKey::float`], which orders them
    /// as `<` does (`-0.0` equal to `+0.0`, `+∞` above every finite value).
    /// NaN is the exception: the scan's argmin is order-dependent around a
    /// NaN arrival time, while a key ranks it above `+∞`.
    fn cc_key(&self, _request: &QueuedRequest) -> Option<PolicyKey> {
        None
    }
}

/// `inner` with its CC key hidden: the engine then scans a snapshot for
/// every pick. The differential suite runs keyed policies through it to
/// hold the keyed walk to the scan, byte for byte.
#[cfg(any(test, feature = "reference"))]
#[derive(Debug, Clone, Copy)]
pub struct Unkeyed<'p>(pub &'p dyn SchedulePolicy);

#[cfg(any(test, feature = "reference"))]
impl SchedulePolicy for Unkeyed<'_> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        self.0.choose(queued)
    }

    fn choose_join(&self, ready: &[QueuedRequest]) -> usize {
        self.0.choose_join(ready)
    }
}

/// A policy's rank of one queued request ([`SchedulePolicy::cc_key`]):
/// up to three fields compared left to right, then the request id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicyKey([u64; 4]);

impl PolicyKey {
    /// Rank by `fields` left to right, ties broken by `id`. A key with
    /// fewer fields pads the front with zeros.
    pub fn new(fields: [u64; 3], id: u64) -> Self {
        let [a, b, c] = fields;
        PolicyKey([a, b, c, id])
    }

    /// `x` as a field whose unsigned order is `x`'s numeric order: `-0.0`
    /// and `+0.0` map to one value, and `±∞` rank beyond every finite
    /// value. A NaN ranks beyond the infinity of its sign.
    pub fn float(x: f64) -> u64 {
        // Adding +0.0 turns -0.0 into +0.0 and leaves everything else as is.
        let bits = (x + 0.0).to_bits();
        if bits >> 63 == 0 {
            bits | 1 << 63
        } else {
            !bits
        }
    }
}

/// A count as a key field.
fn count_field(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A priority as a key field, most urgent lowest.
fn priority_field(priority: Priority) -> u64 {
    match priority {
        Priority::Interactive => 0,
        Priority::Standard => 1,
        Priority::Batch => 2,
    }
}

fn argmin_by_key<K: PartialOrd>(
    queued: &[QueuedRequest],
    key: impl Fn(&QueuedRequest) -> K,
) -> usize {
    assert!(!queued.is_empty(), "policy invoked on an empty queue");
    let mut best = 0;
    for i in 1..queued.len() {
        if key(&queued[i]) < key(&queued[best]) {
            best = i;
        }
    }
    best
}

/// First come, first served: admit in arrival order. The fairness baseline —
/// no request is overtaken, so tail latency tracks queue depth directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fcfs;

impl SchedulePolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        argmin_by_key(queued, |r| (r.arrival_s, r.id))
    }

    fn cc_key(&self, r: &QueuedRequest) -> Option<PolicyKey> {
        Some(PolicyKey::new([0, 0, PolicyKey::float(r.arrival_s)], r.id))
    }
}

/// Shortest prompt first: admit the request with the fewest prompt tokens.
/// Prefill cost grows with the prompt, so this is shortest-job-first for the
/// serial CC stage — it minimises mean time-to-first-token under load at the
/// price of possibly starving long prompts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShortestPromptFirst;

impl SchedulePolicy for ShortestPromptFirst {
    fn name(&self) -> &'static str {
        "shortest-prompt"
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        argmin_by_key(queued, |r| (r.prompt_tokens, r.arrival_s, r.id))
    }

    fn cc_key(&self, r: &QueuedRequest) -> Option<PolicyKey> {
        let fields = [
            0,
            count_field(r.prompt_tokens),
            PolicyKey::float(r.arrival_s),
        ];
        Some(PolicyKey::new(fields, r.id))
    }
}

/// Pruning-aware shortest service first: order by the estimated *end-to-end*
/// service demand with activation-aware pruning already folded into the
/// decode estimate. Under pruning, a long generation is cheaper than its
/// token count suggests (only the kept FFN rows are fetched), so this policy
/// ranks requests by what they will actually cost the machine rather than by
/// their nominal lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruningAware;

impl SchedulePolicy for PruningAware {
    fn name(&self) -> &'static str {
        "pruning-aware"
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        argmin_by_key(queued, |r| (r.service_cycles(), r.arrival_s, r.id))
    }

    fn cc_key(&self, r: &QueuedRequest) -> Option<PolicyKey> {
        let fields = [0, r.service_cycles().get(), PolicyKey::float(r.arrival_s)];
        Some(PolicyKey::new(fields, r.id))
    }
}

/// Earliest deadline first: admit the request whose absolute TTFT deadline
/// (arrival + class TTFT budget) expires soonest; deadline-free classes sort
/// last, tied groups fall back to priority then arrival order. The
/// deadline-driven counterpart of FCFS — under load it spends the serial CC
/// stage on the requests that are about to miss, instead of on whoever
/// happened to arrive first.
///
/// For the decode-batch join, where the TTFT deadline is already history,
/// EDF orders by [`crate::Priority`] and then arrival: interactive streams
/// take free decode slots before background batch work.
///
/// Plain EDF still wastes the CC stage on requests that can no longer make
/// their deadline (and under overload that can leave it *worse* than FCFS —
/// the classic domino effect); pair it with
/// [`crate::AdmissionControl::Defer`] or
/// [`crate::AdmissionControl::Reject`] to shed hopeless work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EarliestDeadlineFirst;

impl SchedulePolicy for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn choose(&self, queued: &[QueuedRequest]) -> usize {
        argmin_by_key(queued, |r| {
            (r.ttft_deadline_abs(), r.slo.priority, r.arrival_s, r.id)
        })
    }

    fn choose_join(&self, ready: &[QueuedRequest]) -> usize {
        argmin_by_key(ready, |r| (r.slo.priority, r.arrival_s, r.id))
    }

    fn cc_key(&self, r: &QueuedRequest) -> Option<PolicyKey> {
        let fields = [
            PolicyKey::float(r.ttft_deadline_abs()),
            priority_field(r.slo.priority),
            PolicyKey::float(r.arrival_s),
        ];
        Some(PolicyKey::new(fields, r.id))
    }
}

/// The built-in policies, enumerable for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// [`Fcfs`].
    Fcfs,
    /// [`ShortestPromptFirst`].
    ShortestPromptFirst,
    /// [`PruningAware`].
    PruningAware,
    /// [`EarliestDeadlineFirst`].
    EarliestDeadlineFirst,
}

impl PolicyKind {
    /// All built-in policies, in presentation order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fcfs,
        PolicyKind::ShortestPromptFirst,
        PolicyKind::PruningAware,
        PolicyKind::EarliestDeadlineFirst,
    ];

    /// The policy implementation.
    pub fn policy(self) -> &'static dyn SchedulePolicy {
        match self {
            PolicyKind::Fcfs => &Fcfs,
            PolicyKind::ShortestPromptFirst => &ShortestPromptFirst,
            PolicyKind::PruningAware => &PruningAware,
            PolicyKind::EarliestDeadlineFirst => &EarliestDeadlineFirst,
        }
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        self.policy().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{Priority, SloClass};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn queued(id: u64, arrival_s: f64, prompt: usize, prefill: u64, decode: u64) -> QueuedRequest {
        QueuedRequest {
            id,
            arrival_s,
            prompt_tokens: prompt,
            output_tokens: 16,
            prefill_cycles: Cycles::new(prefill),
            remaining_prefill_cycles: Cycles::new(prefill),
            decode_cycles: Cycles::new(decode),
            slo: SloClass::best_effort(),
        }
    }

    impl QueuedRequest {
        fn into_slo(self, slo: SloClass) -> Self {
            QueuedRequest { slo, ..self }
        }
    }

    #[test]
    fn fcfs_respects_arrival_order() {
        let q = [
            queued(1, 0.5, 10, 100, 100),
            queued(0, 0.1, 90, 900, 900),
            queued(2, 0.9, 5, 50, 50),
        ];
        assert_eq!(Fcfs.choose(&q), 1);
    }

    #[test]
    fn shortest_prompt_ignores_arrival() {
        let q = [
            queued(0, 0.1, 90, 900, 900),
            queued(1, 0.5, 10, 100, 100),
            queued(2, 0.9, 5, 50, 50),
        ];
        assert_eq!(ShortestPromptFirst.choose(&q), 2);
    }

    #[test]
    fn pruning_aware_orders_by_total_service() {
        // A short prompt with a huge (unpruned-looking) decode loses to a
        // longer prompt whose pruned decode is cheap.
        let q = [queued(0, 0.0, 5, 50, 10_000), queued(1, 0.0, 40, 400, 200)];
        assert_eq!(PruningAware.choose(&q), 1);
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        // Later arrival but tighter budget expires first; a deadline-free
        // batch request sorts last even though it arrived earliest.
        let q = [
            queued(0, 0.0, 10, 100, 100).into_slo(SloClass::batch()),
            queued(1, 0.1, 10, 100, 100).into_slo(SloClass::standard()),
            queued(2, 0.4, 10, 100, 100).into_slo(SloClass::interactive()),
        ];
        assert_eq!(EarliestDeadlineFirst.choose(&q), 2);
    }

    #[test]
    fn edf_join_orders_by_priority() {
        let q = [
            queued(0, 0.0, 10, 100, 100).into_slo(SloClass::batch()),
            queued(1, 0.5, 10, 100, 100).into_slo(SloClass::interactive()),
        ];
        assert_eq!(EarliestDeadlineFirst.choose_join(&q), 1);
        // Default join ordering reuses the CC choice.
        assert_eq!(Fcfs.choose_join(&q), Fcfs.choose(&q));
    }

    #[test]
    fn cost_ranking_uses_total_not_remaining_prefill() {
        // Two requests already prefilled (remaining = 0) contend for a
        // decode slot: the pruning-aware ordering ranks by *total* service
        // demand, exactly as it did before chunking existed — ranking by
        // the remaining work would instead favour the long-prefill request
        // (only its decode is left) and silently change legacy schedules.
        let mut long_prefill = queued(0, 0.0, 600, 1_000_000, 100);
        let mut short_prefill = queued(1, 0.0, 10, 1_000, 500);
        long_prefill.remaining_prefill_cycles = Cycles::ZERO;
        short_prefill.remaining_prefill_cycles = Cycles::ZERO;
        let ready = [long_prefill, short_prefill];
        assert_eq!(PruningAware.choose_join(&ready), 1);
        assert_eq!(PruningAware.choose(&ready), 1);
    }

    #[test]
    fn ties_break_by_arrival_then_id() {
        let q = [queued(7, 0.3, 10, 100, 100), queued(3, 0.3, 10, 100, 100)];
        assert_eq!(ShortestPromptFirst.choose(&q), 1);
        assert_eq!(PruningAware.choose(&q), 1);
        assert_eq!(EarliestDeadlineFirst.choose(&q), 1);
    }

    #[test]
    fn deadline_free_classes_never_preempt_deadlines() {
        let q = [
            queued(0, 0.0, 10, 100, 100),
            queued(1, 5.0, 10, 100, 100).into_slo(SloClass::batch().with_ttft(100.0)),
        ];
        // Best-effort (+inf deadline) loses to even a very loose deadline.
        assert_eq!(EarliestDeadlineFirst.choose(&q), 1);
        assert_eq!(q[0].ttft_deadline_abs(), f64::INFINITY);
    }

    #[test]
    fn priorities_order_interactive_first() {
        assert!(Priority::Interactive < Priority::Batch);
    }

    /// A queue of `len` requests with distinct, shuffled ids and every
    /// other field drawn from a pool of a few values, so each leading key
    /// field ties often: `±0.0` arrivals, deadline-free classes at `+∞`
    /// deadlines, equal prompts, and cost splits with equal totals.
    fn tied_queue(rng: &mut StdRng, len: usize) -> Vec<QueuedRequest> {
        let arrivals = [0.0, -0.0, 0.25, 0.5];
        let prompts = [8, 8, 64];
        let costs = [(100, 300), (300, 100), (200, 200), (50, 50)];
        let slos = [
            SloClass::best_effort(),
            SloClass::batch(),
            SloClass::interactive(),
            SloClass::standard(),
            SloClass::batch().with_ttft(0.25),
        ];
        let mut ids: Vec<u64> = (0..len as u64).map(|i| i * 7 % 64).collect();
        for i in (1..len).rev() {
            ids.swap(i, rng.gen_range(0..i + 1));
        }
        ids.into_iter()
            .map(|id| {
                let (prefill, decode) = costs[rng.gen_range(0..costs.len())];
                queued(
                    id,
                    arrivals[rng.gen_range(0..arrivals.len())],
                    prompts[rng.gen_range(0..prompts.len())],
                    prefill,
                    decode,
                )
                .into_slo(slos[rng.gen_range(0..slos.len())])
            })
            .collect()
    }

    #[test]
    fn the_minimum_cc_key_is_the_scan_pick() {
        let mut rng = StdRng::seed_from_u64(29);
        for round in 0..4_000 {
            let len = rng.gen_range(1..10);
            let queue = tied_queue(&mut rng, len);
            for kind in PolicyKind::ALL {
                let policy = kind.policy();
                let keys: Vec<PolicyKey> = queue
                    .iter()
                    .map(|r| policy.cc_key(r).expect("built-in policies are keyed"))
                    .collect();
                let min = (0..queue.len()).min_by_key(|&i| keys[i]);
                assert_eq!(
                    min,
                    Some(policy.choose(&queue)),
                    "round {round}, {}: {queue:?}",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn cc_keys_end_in_the_id_and_order_floats_numerically() {
        let a = queued(3, 0.0, 10, 100, 100);
        let b = QueuedRequest { id: 9, ..a };
        let negative_zero = QueuedRequest {
            arrival_s: -0.0,
            ..b
        };
        for kind in PolicyKind::ALL {
            let key = |r: &QueuedRequest| kind.policy().cc_key(r);
            assert!(key(&a) < key(&b), "{}", kind.name());
            // -0.0 ties +0.0, as under `<`, so the id decides.
            assert!(key(&a) < key(&negative_zero), "{}", kind.name());
            assert_eq!(key(&negative_zero), key(&b), "{}", kind.name());
        }
        let ranks: Vec<u64> = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.0,
            f64::INFINITY,
        ]
        .into_iter()
        .map(PolicyKey::float)
        .collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{ranks:?}");
        assert_eq!(ranks[2], ranks[3]);
        assert!(ranks[5] < ranks[6]);
    }

    #[test]
    fn kinds_enumerate_distinct_policies() {
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec!["fcfs", "shortest-prompt", "pruning-aware", "edf"]
        );
    }
}
