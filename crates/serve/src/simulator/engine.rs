//! The resumable event engine behind [`ServeSimulator::run`]: a request
//! table whose pending tail is sorted by arrival, and two completion slots.

use edgemm_core::units::{Bytes, Cycles, Tokens};
use edgemm_mem::{DmaEngine, KvPool, PagedKvPool};

use super::{DecodeMemo, InFlight, ServeSimulator};
use crate::metrics::{QueueSample, ServeReport};
use crate::policy::{PolicyKey, PolicyKind, QueuedRequest, SchedulePolicy};
use crate::request::ServeRequest;
use crate::slo::AdmissionControl;

/// Deterministic work counts of one serve run: its events and DMA
/// transfers, the work of its CC dispatch and decode joins, and its
/// decode-memo misses. They are the same on every host, so tests can pin
/// them where wall time can only inform. Read them with
/// [`ServeScratch::counters`] after a run; a fleet run sums its replicas'
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Cycles processed: one per [`QueueSample`], whatever happened at it.
    pub events: u64,
    /// Prefill chunks completed.
    pub chunk_completions: u64,
    /// Decode steps completed. [`ServeEngine::finish`] completes every
    /// step it starts, so this count is the report's `decode_steps`.
    pub step_completions: u64,
    /// KV image transfers (spill, restore or copy-on-write) priced on the
    /// DMA engine.
    pub dma_transfers: u64,
    /// Times the CC stage was idle with a non-empty queue and looked for a
    /// chunk to start.
    pub cc_dispatches: u64,
    /// Picks tried: one per candidate a dispatch offers the CC gate, the
    /// forced pick included.
    pub cc_picks: u64,
    /// Candidates the picks looked at. On the scan path, the snapshot
    /// entries offered to each policy call; on the keyed path, the keys
    /// visited, one per pick.
    pub cc_candidates: u64,
    /// Picks the CC gate refused.
    pub gate_refusals: u64,
    /// Picks made by the forced second pass, which admits its pick past
    /// the pool budget so a fully held pool cannot deadlock.
    pub forced_picks: u64,
    /// Decode-join picks: one per [`SchedulePolicy::choose_join`] call a
    /// batch top-up makes.
    pub join_picks: u64,
    /// Ready-set entries offered across those calls.
    pub join_candidates: u64,
    /// Decode-memo misses: the cached contexts whose KV operator pair the
    /// run had to price (for an admission's solo step or an engine step).
    /// The memo lives in the [`ServeScratch`] and is cleared at every
    /// reset or replay, so a run counts what a one-shot serve of its
    /// requests counts. The prefill chunk memo has no such count: it
    /// outlives runs and is shared by a simulator's clones, so its misses
    /// would depend on what was served before, and the same serve would
    /// count differently.
    pub kv_misses: u64,
}

impl std::iter::Sum for ServeCounters {
    /// Field-wise sum, as a fleet totals its replicas' runs.
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| ServeCounters {
            events: a.events + b.events,
            chunk_completions: a.chunk_completions + b.chunk_completions,
            step_completions: a.step_completions + b.step_completions,
            dma_transfers: a.dma_transfers + b.dma_transfers,
            cc_dispatches: a.cc_dispatches + b.cc_dispatches,
            cc_picks: a.cc_picks + b.cc_picks,
            cc_candidates: a.cc_candidates + b.cc_candidates,
            gate_refusals: a.gate_refusals + b.gate_refusals,
            forced_picks: a.forced_picks + b.forced_picks,
            join_picks: a.join_picks + b.join_picks,
            join_candidates: a.join_candidates + b.join_candidates,
            kv_misses: a.kv_misses + b.kv_misses,
        })
    }
}

/// [`ServeSimulator::dma_transfer_cycles`] on the run's engine, counting
/// each transfer the engine prices.
fn price_dma(
    dma: &mut Option<DmaEngine>,
    counters: &mut ServeCounters,
    bytes: Bytes,
    now: Cycles,
) -> Cycles {
    counters.dma_transfers += u64::from(dma.is_some() && !bytes.is_zero());
    ServeSimulator::dma_transfer_cycles(dma, bytes, now)
}

/// When a queued request's TTFT deadline is still in reach: while its
/// remaining prefill can start at or before some cycle
/// ([`InFlight::ttft_feasible_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slack {
    /// At any cycle: no deadline, or the first token already exists.
    Always,
    /// At or before this latest start (deadline minus remaining prefill).
    Until(Cycles),
    /// At no cycle: the remaining prefill alone outlasts the deadline.
    Never,
}

impl InFlight {
    fn slack(&self) -> Slack {
        match self.ttft_deadline_cycle {
            Some(deadline) if !self.has_first_token => {
                if deadline >= self.remaining_prefill_cycles {
                    Slack::Until(deadline - self.remaining_prefill_cycles)
                } else {
                    Slack::Never
                }
            }
            _ => Slack::Always,
        }
    }
}

/// The CC queue: the requests waiting for their next prefill chunk.
///
/// `order` is the queue in arrival-and-requeue order, with swap removal.
/// That order is part of the report bytes: it is the order admission
/// control rejects in and the order a forced pick spills the other
/// prefills in, and the scan path offers it to unkeyed policies.
///
/// When the policy keys its picks ([`SchedulePolicy::cc_key`]), the same
/// requests are also indexed in two sets sorted by descending key, so the
/// policy's pick is last: `feasible` (under [`AdmissionControl::Serve`],
/// every request) and `infeasible`, the requests whose TTFT deadline is
/// out of reach. A feasible request with a deadline also sits in
/// `latest_start`, sorted by descending latest start, and
/// [`Self::expire`] moves it to `infeasible` once the clock passes that
/// cycle. A queued request's key and slack never change (its state changes
/// only at a gate that admits it), so both are recomputed from its state
/// rather than stored, and the sets never need a re-index. The index holds
/// request indices only.
#[derive(Debug, Default)]
struct CcQueue {
    order: Vec<usize>,
    /// Per pushed request (by state index), its position in `order`, or
    /// [`NOT_QUEUED`].
    pos: Vec<usize>,
    /// Whether the run's policy keys its CC picks: decided by the first
    /// request queued after a reset.
    keyed: Option<bool>,
    /// Whether admission control splits the queue on TTFT slack (any mode
    /// but [`AdmissionControl::Serve`]).
    split: bool,
    feasible: Vec<usize>,
    infeasible: Vec<usize>,
    latest_start: Vec<usize>,
}

/// [`CcQueue::pos`] of a request that is not queued.
const NOT_QUEUED: usize = usize::MAX;

/// Where request `idx` sorts in a keyed set: by its key, then by index
/// (which only ever breaks ties between duplicate ids).
fn rank(states: &[InFlight], policy: &dyn SchedulePolicy, idx: usize) -> (PolicyKey, usize) {
    let key = policy.cc_key(&states[idx].as_queued());
    (key.unwrap_or_default(), idx)
}

/// Where request `idx` sorts in the latest-start index.
fn start_rank(states: &[InFlight], idx: usize) -> (Cycles, usize) {
    match states[idx].slack() {
        Slack::Until(start) => (start, idx),
        Slack::Always | Slack::Never => (Cycles::ZERO, idx),
    }
}

/// Insert `idx` into `set`, sorted by descending `by`.
fn insert_sorted<R: Ord>(set: &mut Vec<usize>, idx: usize, by: impl Fn(usize) -> R) {
    let rank = by(idx);
    let at = set.partition_point(|&other| by(other) > rank);
    set.insert(at, idx);
}

/// Remove `idx` from `set`, sorted by descending `by`.
fn remove_sorted<R: Ord>(set: &mut Vec<usize>, idx: usize, by: impl Fn(usize) -> R) {
    let rank = by(idx);
    let at = set.partition_point(|&other| by(other) > rank);
    debug_assert_eq!(set.get(at), Some(&idx), "request {idx} is not in its set");
    set.remove(at);
}

impl CcQueue {
    /// Empty the queue for a run under `admission`.
    fn reset(&mut self, admission: AdmissionControl) {
        self.order.clear();
        self.pos.clear();
        self.keyed = None;
        self.split = admission != AdmissionControl::Serve;
        self.feasible.clear();
        self.infeasible.clear();
        self.latest_start.clear();
    }

    /// Room for the positions of `requests` pushed requests, so `pos`
    /// does not grow by doubling (the other lists grow with the queue).
    fn reserve(&mut self, requests: usize) {
        self.pos.reserve(requests.saturating_sub(self.pos.len()));
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The queued requests, in queue order.
    fn order(&self) -> &[usize] {
        &self.order
    }

    fn contains(&self, idx: usize) -> bool {
        self.pos.get(idx).is_some_and(|&pos| pos != NOT_QUEUED)
    }

    /// Whether picks walk the keyed sets instead of scanning `order`.
    fn keyed(&self) -> bool {
        self.keyed == Some(true)
    }

    /// The feasible (or infeasible) keyed set, the policy's pick last.
    fn set(&self, infeasible: bool) -> &[usize] {
        if infeasible {
            &self.infeasible
        } else {
            &self.feasible
        }
    }

    /// The slack a request in `state` is indexed under: its own when
    /// admission control splits the queue, [`Slack::Always`] otherwise.
    fn slack(&self, state: &InFlight) -> Slack {
        if self.split {
            state.slack()
        } else {
            Slack::Always
        }
    }

    /// Queue request `idx` at the back, and index it under `policy`'s key.
    fn push(&mut self, idx: usize, states: &[InFlight], policy: &dyn SchedulePolicy) {
        if self.pos.len() <= idx {
            self.pos.resize(idx + 1, NOT_QUEUED);
        }
        debug_assert!(!self.contains(idx), "request {idx} queued twice");
        self.pos[idx] = self.order.len();
        self.order.push(idx);
        if self.keyed == Some(false) {
            return;
        }
        let keyed = policy.cc_key(&states[idx].as_queued()).is_some();
        assert_eq!(
            *self.keyed.get_or_insert(keyed),
            keyed,
            "policy {} keys some requests but not others",
            policy.name()
        );
        if !keyed {
            return;
        }
        let by_key = |other| rank(states, policy, other);
        match self.slack(&states[idx]) {
            Slack::Always => insert_sorted(&mut self.feasible, idx, by_key),
            Slack::Until(_) => {
                insert_sorted(&mut self.latest_start, idx, |other| {
                    start_rank(states, other)
                });
                insert_sorted(&mut self.feasible, idx, by_key);
            }
            Slack::Never => insert_sorted(&mut self.infeasible, idx, by_key),
        }
    }

    /// Take queued request `idx` out of `order` (a swap removal). A keyed
    /// run takes it out of its set first.
    fn remove(&mut self, idx: usize) {
        let pos = std::mem::replace(&mut self.pos[idx], NOT_QUEUED);
        self.order.swap_remove(pos);
        if let Some(&moved) = self.order.get(pos) {
            self.pos[moved] = pos;
        }
    }

    /// Take a walk's admitted pick, at `at` in the feasible (or
    /// infeasible) set, out of the index. Its gate may have skipped reused
    /// chunks, so `slack` is the slack it was indexed under.
    fn unindex_pick(&mut self, infeasible: bool, at: usize, slack: Slack, states: &[InFlight]) {
        if infeasible {
            self.infeasible.remove(at);
            return;
        }
        let idx = self.feasible.remove(at);
        if let Slack::Until(start) = slack {
            remove_sorted(&mut self.latest_start, idx, |other| {
                if other == idx {
                    (start, idx)
                } else {
                    start_rank(states, other)
                }
            });
        }
    }

    /// Take a hopeless request out of the infeasible set (where
    /// [`Self::expire`] put every request a reject can drop).
    fn unindex_hopeless(&mut self, idx: usize, states: &[InFlight], policy: &dyn SchedulePolicy) {
        if self.keyed() {
            remove_sorted(&mut self.infeasible, idx, |other| {
                rank(states, policy, other)
            });
        }
    }

    /// Move every feasible request whose latest start is before `now` to
    /// the infeasible set.
    fn expire(&mut self, now: Cycles, states: &[InFlight], policy: &dyn SchedulePolicy) {
        while let Some(&idx) = self.latest_start.last() {
            if start_rank(states, idx).0 >= now {
                break;
            }
            self.latest_start.pop();
            let by_key = |other| rank(states, policy, other);
            remove_sorted(&mut self.feasible, idx, by_key);
            insert_sorted(&mut self.infeasible, idx, by_key);
        }
    }
}

/// The state of one serve run, and the allocations it reuses across runs.
///
/// [`ServeSimulator::engine`] resets it and hands out a [`ServeEngine`]
/// over it. The reset keeps each collection's capacity (but the CC
/// queue's, which a finished run gives back), never its content, so a
/// reused scratch runs byte-identically to a fresh one, minus the
/// allocations.
#[derive(Debug, Default)]
pub struct ServeScratch {
    /// Every pushed request: `states[..arrived]` have arrived, in the order
    /// they joined the CC queue, and the rest are pending.
    states: Vec<InFlight>,
    /// How many of `states` have arrived.
    arrived: usize,
    cc_queue: CcQueue,
    ready: Vec<usize>,
    batch: Vec<usize>,
    /// The request whose chunk the CC stage runs, and the cycle the chunk
    /// completes at (never more than one, never cancelled).
    cc_busy: Option<(usize, Cycles)>,
    /// The cycle the decode step in flight completes at.
    step_end: Option<Cycles>,
    /// The request whose chunk just finished and went back to the queue:
    /// the only request a pick can *preempt* (displace mid-prefill).
    cc_resumable: Option<usize>,
    /// Cycle of the last processed event; `None` before the first.
    last_event: Option<Cycles>,
    kv: KvPool,
    paged: Option<PagedKvPool>,
    dma: Option<DmaEngine>,
    decode_memo: DecodeMemo,
    completed_order: Vec<usize>,
    rejected_order: Vec<(usize, Cycles)>,
    queue_samples: Vec<QueueSample>,
    /// The previous run's sample count: the log moves into the report, so
    /// only its size can pre-size the next run's.
    samples_hint: usize,
    preemptions: u64,
    restarted_prefill_tokens: Tokens,
    counters: ServeCounters,
}

impl ServeScratch {
    /// An empty scratch; capacity grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work counters of the run this scratch last held (a replaying
    /// engine counts the replay only, so a run counts the same however its
    /// requests were pushed).
    pub fn counters(&self) -> ServeCounters {
        ServeCounters {
            kv_misses: self.decode_memo.kv_misses,
            ..self.counters
        }
    }

    /// Clear every piece of run state for a fresh run of `simulator`.
    fn reset(&mut self, simulator: &ServeSimulator<'_>) {
        self.states.clear();
        self.arrived = 0;
        self.cc_queue.reset(simulator.config.admission);
        self.ready.clear();
        self.batch.clear();
        self.cc_busy = None;
        self.step_end = None;
        self.cc_resumable = None;
        self.last_event = None;
        self.kv = simulator.config.kv;
        self.paged = simulator.paged_pool();
        self.dma = simulator.dma_engine(self.paged.as_ref());
        self.decode_memo.clear();
        self.completed_order.clear();
        self.rejected_order.clear();
        self.queue_samples.clear();
        self.queue_samples.reserve(self.samples_hint);
        self.preemptions = 0;
        self.restarted_prefill_tokens = Tokens::ZERO;
        self.counters = ServeCounters::default();
    }
}

/// A serve run in progress: a simulator and its scheduling policy driving
/// the run state in a [`ServeScratch`]. Start one with
/// [`ServeSimulator::engine`], [push](Self::push) requests as they arrive,
/// [advance](Self::advance_until) through any model instant, read the live
/// load in between, and [finish](Self::finish) into a [`ServeReport`]. A
/// one-shot run pushes every request, then finishes; the fleet gateway
/// steps one engine per replica on one clock.
///
/// The requests not yet arrived wait at the tail of the run's request
/// table, which each advance sorts by `(arrival cycle, id)`, so the next
/// arrival is the first of them. At most one prefill chunk and one decode
/// step are ever in flight, and neither is ever cancelled, so their
/// completions sit in two slots: the next event is the earliest of the
/// next arrival and the two slots, and scheduling or taking a completion
/// is a field write. Each processed cycle takes everything due, applies it
/// grouped by kind (arrivals in id order, then the chunk completion, then
/// the step completion — the reference engine's drain order), dispatches
/// the CC stage, then the MC stage, and records one [`QueueSample`]. An
/// event costs the same however much model time the run spans (the DMA
/// engine jumps its throttling window across an idle gap in one step) and
/// however many arrivals are still pending.
#[derive(Debug)]
pub struct ServeEngine<'e, 'a> {
    simulator: &'e ServeSimulator<'a>,
    policy: &'e dyn SchedulePolicy,
    scratch: &'e mut ServeScratch,
    /// Pushes that replayed the run. Kept here, not in the scratch, so a
    /// replay's reset of the scratch's counters leaves it standing.
    replays: u64,
}

impl<'a> ServeSimulator<'a> {
    /// Start a run under `policy` with its state in `scratch` (whatever run
    /// the scratch held is discarded).
    pub fn engine<'e>(
        &'e self,
        policy: &'e dyn SchedulePolicy,
        scratch: &'e mut ServeScratch,
    ) -> ServeEngine<'e, 'a> {
        scratch.reset(self);
        ServeEngine {
            simulator: self,
            policy,
            scratch,
            replays: 0,
        }
    }

    /// Serve a trace of requests under `policy` and report per-request
    /// timelines plus aggregate metrics.
    ///
    /// This is the [`ServeEngine`] with every request pushed up front.
    /// Steps are priced by the factored `decode_step_cycles`, and the
    /// report is byte-identical to the reference engine's — pinned by the
    /// differential suite.
    ///
    /// # Panics
    ///
    /// Panics if two requests share an id or a policy returns an
    /// out-of-range index.
    pub fn run(&self, requests: &[ServeRequest], policy: &dyn SchedulePolicy) -> ServeReport {
        self.run_with_scratch(requests, policy, &mut ServeScratch::new())
    }

    /// [`Self::run`] with its state in `scratch`: byte-identical for any
    /// scratch (see [`ServeScratch`]), minus the allocation churn when one
    /// simulator serves many traces back to back.
    ///
    /// # Panics
    ///
    /// Panics if two requests share an id or a policy returns an
    /// out-of-range index.
    pub fn run_with_scratch(
        &self,
        requests: &[ServeRequest],
        policy: &dyn SchedulePolicy,
        scratch: &mut ServeScratch,
    ) -> ServeReport {
        let mut engine = self.engine(policy, scratch);
        engine.scratch.states.reserve(requests.len());
        engine.scratch.cc_queue.reserve(requests.len());
        for request in requests {
            engine.push(request);
        }
        engine.finish()
    }
}

/// A serving session: a simulator, the built-in policy it serves under and
/// a scratch, reused across traces.
///
/// The simulator keeps its pricing memo and the scratch its collection
/// capacities from one run to the next, so repeatedly timed serves (the
/// benchmark's hot loop) spend their host cycles simulating instead of
/// re-pricing chunks and re-growing the same collections. One session
/// serves a single system (the facade's `EdgeMm::serve_session`), and the
/// fleet gateway holds one per replica.
#[derive(Debug)]
pub struct ServeSession<'a> {
    simulator: ServeSimulator<'a>,
    policy: PolicyKind,
    scratch: ServeScratch,
}

impl<'a> ServeSession<'a> {
    /// A session serving through `simulator` under `policy`.
    pub fn new(simulator: ServeSimulator<'a>, policy: PolicyKind) -> Self {
        ServeSession {
            simulator,
            policy,
            scratch: ServeScratch::new(),
        }
    }

    /// Serve one trace: [`ServeSimulator::run_with_scratch`] under the
    /// session's policy, byte-identical to a one-shot [`ServeSimulator::run`].
    pub fn serve(&mut self, requests: &[ServeRequest]) -> ServeReport {
        self.simulator
            .run_with_scratch(requests, self.policy.policy(), &mut self.scratch)
    }

    /// Start a resumable run under the session's policy, in its scratch.
    pub fn engine(&mut self) -> ServeEngine<'_, 'a> {
        self.simulator
            .engine(self.policy.policy(), &mut self.scratch)
    }

    /// The work counters of the session's last run
    /// ([`ServeScratch::counters`]).
    pub fn counters(&self) -> ServeCounters {
        self.scratch.counters()
    }

    /// The session's simulator, for runs under another policy on exactly
    /// the session's configuration.
    pub fn simulator(&self) -> &ServeSimulator<'a> {
        &self.simulator
    }
}

impl ServeEngine<'_, '_> {
    /// Add `request` to the run. The state at a cycle depends only on
    /// requests arriving at or before it, so a later arrival just joins;
    /// one at or before the last processed event makes the engine *replay*:
    /// reset, re-push every request, and re-process on the next advance.
    /// Either way the finished report is byte-identical to a one-shot run
    /// of every pushed request.
    pub fn push(&mut self, request: &ServeRequest) {
        let s = &mut *self.scratch;
        let state = self.simulator.admit(request, &mut s.decode_memo);
        if s.last_event.is_some_and(|last| state.arrival_cycle <= last) {
            let mut states = std::mem::take(&mut s.states);
            states.push(state);
            s.reset(self.simulator);
            let memo = &mut s.decode_memo;
            let admitted = states
                .iter()
                .map(|state| self.simulator.admit(&state.request, memo));
            s.states.extend(admitted);
            self.replays += 1;
        } else {
            s.states.push(state);
        }
    }

    /// Process every event at a model time of at most `now_s` seconds (the
    /// chip clock's `Cycles::seconds_at`, the report's own time base).
    pub fn advance_until(&mut self, now_s: f64) {
        let clock_hz = self.simulator.clock_hz();
        self.sort_pending();
        while let Some(now) = self.next_cycle() {
            if now.seconds_at(clock_hz) > now_s {
                break;
            }
            self.process(now);
        }
    }

    /// Pushes so far that made the engine replay (see [`Self::push`]).
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Requests pushed so far.
    pub fn pushed(&self) -> usize {
        self.scratch.states.len()
    }

    /// Pushed requests the processed events have not completed or rejected.
    pub fn in_flight(&self) -> usize {
        let s = &*self.scratch;
        s.states.len() - s.completed_order.len() - s.rejected_order.len()
    }

    /// KV-cache bytes resident after the last processed event (zero before
    /// the first): what that event's [`QueueSample::kv_bytes`] records.
    pub fn kv_bytes(&self) -> Bytes {
        let s = &*self.scratch;
        s.paged
            .as_ref()
            .map_or(s.kv.reserved_bytes(), PagedKvPool::occupied_bytes)
    }

    /// Process every remaining event and report the run.
    ///
    /// # Panics
    ///
    /// Panics if two pushed requests share an id, before processing any
    /// remaining event (a one-shot run processes none).
    pub fn finish(mut self) -> ServeReport {
        let s = &*self.scratch;
        let mut ids: Vec<u64> = s.states.iter().map(|state| state.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.states.len(), "request ids must be unique");
        self.sort_pending();
        while let Some(now) = self.next_cycle() {
            self.process(now);
        }
        let s = &mut *self.scratch;
        // The drained queue gives its memory back rather than keep it for
        // the next run: a finished scratch can sit idle while other serves
        // allocate (a session between traces, or one being replaced), and
        // `run_with_scratch` sizes the queue afresh.
        debug_assert!(s.cc_queue.is_empty());
        s.cc_queue = CcQueue::default();
        s.samples_hint = s.queue_samples.len();
        self.simulator.assemble_report(
            &s.states,
            &s.completed_order,
            &s.rejected_order,
            std::mem::take(&mut s.queue_samples),
            s.counters.step_completions,
            s.preemptions,
            s.restarted_prefill_tokens,
            &s.kv,
            s.paged.as_ref(),
        )
    }

    /// Sort the pending requests into arrival order, `(arrival cycle, id)`,
    /// so the next arrival is `states[arrived]`. Reordering them moves no
    /// reference: an index enters a queue or a slot only once its request
    /// arrives. In place, because a stable sort would allocate scratch for
    /// half of them.
    fn sort_pending(&mut self) {
        let s = &mut *self.scratch;
        s.states[s.arrived..].sort_unstable_by_key(|state| (state.arrival_cycle, state.request.id));
    }

    /// The cycle of the next event: the earliest of the next arrival, the
    /// chunk completion and the step completion.
    fn next_cycle(&self) -> Option<Cycles> {
        let s = &*self.scratch;
        let arrival = s.states.get(s.arrived).map(|state| state.arrival_cycle);
        let chunk = s.cc_busy.map(|(_, end)| end);
        [arrival, chunk, s.step_end].into_iter().flatten().min()
    }

    /// Process everything due at cycle `now`, the earliest pending event.
    /// Completions land strictly after the cycle that scheduled them
    /// (chunks and steps are clamped to ≥ 1 cycle), so a slot due at `now`
    /// was never due at an earlier processed cycle.
    fn process(&mut self, now: Cycles) {
        let s = &mut *self.scratch;
        debug_assert!(s.last_event.map_or(true, |last| last < now));
        s.last_event = Some(now);
        s.counters.events += 1;
        // Same-cycle arrivals join in id order, whatever their push order.
        while let Some(state) = s.states.get(s.arrived) {
            if state.arrival_cycle > now {
                break;
            }
            s.cc_queue.push(s.arrived, &s.states, self.policy);
            s.arrived += 1;
        }
        if let Some((idx, _)) = s.cc_busy.filter(|&(_, end)| end <= now) {
            s.cc_busy = None;
            s.counters.chunk_completions += 1;
            let state = &mut s.states[idx];
            state.remaining_prefill_cycles -= state.chunk_cycles[state.chunks_done];
            state.chunks_done += 1;
            if state.prefill_finished() {
                // TTFT freezes at the *first* prefill completion; an eviction
                // re-prefill (paged mode) re-materialises KV without moving
                // the recorded first token.
                if !state.has_first_token {
                    state.prefill_end = now;
                    state.has_first_token = true;
                }
                s.ready.push(idx);
            } else {
                // Back to the queue: the policy decides at the chunk
                // boundary whether this prefill continues or an urgent
                // arrival preempts it.
                s.cc_queue.push(idx, &s.states, self.policy);
                s.cc_resumable = Some(idx);
            }
        }
        if s.step_end.is_some_and(|end| end <= now) {
            s.step_end = None;
            s.counters.step_completions += 1;
            for &idx in &s.batch {
                s.states[idx].remaining_tokens -= 1;
                s.states[idx].generated += 1;
            }
            s.batch.retain(|&idx| {
                let state = &mut s.states[idx];
                let finished = state.remaining_tokens == 0;
                if finished {
                    state.finish = now;
                    match s.paged.as_mut() {
                        Some(pool) => pool.release(&mut state.table),
                        None => s.kv.release(state.kv_bytes),
                    }
                    s.completed_order.push(idx);
                }
                !finished
            });
        }
        self.dispatch_prefill(now);
        self.dispatch_decode(now);
        let kv_bytes = self.kv_bytes();
        let s = &mut *self.scratch;
        s.queue_samples.push(QueueSample {
            time_s: now.seconds_at(self.simulator.clock_hz()),
            waiting: s.cc_queue.len() + s.ready.len(),
            active: s.batch.len(),
            kv_bytes,
        });
    }

    /// Dispatch the serial CC stage: one prefill chunk at a time, in the
    /// policy's order. Admission control first splits the queue on TTFT
    /// slack (for requests mid-prefill, the slack of their *remaining*
    /// chunks).
    ///
    /// A pick the CC gate refuses is skipped and the next one in the
    /// policy's order is tried (the refused one retries once memory
    /// drains). Unkeyed policies re-pick from a snapshot of the rest after
    /// every refusal. Keyed ones walk their ordered set: the minimum of the
    /// remaining keys is the next key in order, so the walk gates exactly
    /// the scan's picks, in the same order, and visits only those.
    fn dispatch_prefill(&mut self, now: Cycles) {
        let config = self.simulator.config;
        let s = &mut *self.scratch;
        if s.cc_busy.is_some() || s.cc_queue.is_empty() {
            return;
        }
        s.counters.cc_dispatches += 1;
        let keyed = s.cc_queue.keyed();
        if keyed {
            s.cc_queue.expire(now, &s.states, self.policy);
        }
        let any_hopeless = !keyed || !s.cc_queue.set(true).is_empty();
        if config.admission == AdmissionControl::Reject && any_hopeless {
            self.reject_hopeless(now);
        }
        // The candidates: everything, or (under deferral) the feasible
        // subset when one exists. Keyed, a set; unkeyed, a list in queue
        // order.
        let s = &*self.scratch;
        let from_infeasible = keyed && s.cc_queue.set(false).is_empty();
        let mut candidates = Vec::new();
        if !keyed {
            let feasible = |&idx: &usize| s.states[idx].ttft_feasible_at(now);
            candidates.extend_from_slice(s.cc_queue.order());
            if config.admission == AdmissionControl::Defer && candidates.iter().any(feasible) {
                candidates.retain(feasible);
            }
        }
        // Two passes under CC-side KV gating: every candidate is first
        // tried within the budget; if all are refused while nothing is
        // decoding and nothing is ready to decode, the queued prefills hold
        // every pool block between them and refusing them all would
        // deadlock — the second pass admits the policy's pick by force.
        for force in [false, true] {
            let s = &*self.scratch;
            let idle = s.batch.is_empty() && s.ready.is_empty();
            if s.cc_queue.is_empty() || (force && !(config.cc_gated() && idle)) {
                break;
            }
            let started = if keyed {
                self.walk_keyed(from_infeasible, force, now)
            } else {
                self.scan(&candidates, force, now)
            };
            if started {
                break;
            }
        }
    }

    /// Drop every queued request whose TTFT deadline is out of reach.
    fn reject_hopeless(&mut self, now: Cycles) {
        let s = &mut *self.scratch;
        let mut i = 0;
        while i < s.cc_queue.len() {
            let idx = s.cc_queue.order()[i];
            if s.states[idx].ttft_feasible_at(now) {
                i += 1;
                continue;
            }
            s.cc_queue.unindex_hopeless(idx, &s.states, self.policy);
            s.cc_queue.remove(idx);
            // Blocks the reject already holds (an attached prefix,
            // eager-accounted chunks) go back to the pool; a no-op for empty
            // tables. A spilled image is read back and dropped so the spill
            // area's accounting settles (unpriced: the reject leaves the
            // system).
            if let Some(pool) = s.paged.as_mut() {
                let state = &mut s.states[idx];
                if let Some(ticket) = state.spill.take() {
                    pool.try_restore(&mut state.table, &ticket, true);
                }
                pool.release(&mut state.table);
            }
            s.rejected_order.push((idx, now));
        }
        debug_assert!(s.cc_queue.set(true).is_empty());
    }

    /// One pass of policy picks over the queued `candidates`, re-picking
    /// from a snapshot of the rest after each refusal. Returns whether a
    /// chunk started.
    fn scan(&mut self, candidates: &[usize], force: bool, now: Cycles) -> bool {
        let s = &*self.scratch;
        let mut candidates = candidates.to_vec();
        let mut snapshot: Vec<QueuedRequest> = candidates
            .iter()
            .map(|&idx| s.states[idx].as_queued())
            .collect();
        while !candidates.is_empty() {
            // lint:allow(unit-cast): a dimensionless count
            self.scratch.counters.cc_candidates += snapshot.len() as u64;
            let pick = self.policy.choose(&snapshot);
            assert!(
                pick < candidates.len(),
                "policy {} returned index {pick} for a queue of {}",
                self.policy.name(),
                candidates.len()
            );
            let idx = candidates[pick];
            if self.try_pick(idx, force) {
                self.start_chunk(idx, now);
                return true;
            }
            candidates.swap_remove(pick);
            snapshot.swap_remove(pick);
        }
        false
    }

    /// One pass over the feasible (or infeasible) keyed set in key order.
    /// Returns whether a chunk started.
    fn walk_keyed(&mut self, infeasible: bool, force: bool, now: Cycles) -> bool {
        let mut at = self.scratch.cc_queue.set(infeasible).len();
        while at > 0 {
            at -= 1;
            let s = &mut *self.scratch;
            let idx = s.cc_queue.set(infeasible)[at];
            s.counters.cc_candidates += 1;
            let slack = s.cc_queue.slack(&s.states[idx]);
            if self.try_pick(idx, force) {
                let s = &mut *self.scratch;
                s.cc_queue.unindex_pick(infeasible, at, slack, &s.states);
                self.start_chunk(idx, now);
                return true;
            }
        }
        false
    }

    /// Offer pick `idx` to the CC gate (ungated configurations admit every
    /// pick), counting it. Returns whether the gate admitted it.
    fn try_pick(&mut self, idx: usize, force: bool) -> bool {
        let counters = &mut self.scratch.counters;
        counters.cc_picks += 1;
        counters.forced_picks += u64::from(force);
        if !self.simulator.config.cc_gated() {
            return true;
        }
        let state = &self.scratch.states[idx];
        let before = (state.prefill_cycles, state.remaining_prefill_cycles);
        if self.gate_chunk(idx, force) {
            return true;
        }
        // A refused gate leaves the pick's key and slack alone, which keyed
        // walks rely on: a prefix hit that collapses chunks covers the
        // first chunk, so its gate admits, and a forced gate always admits.
        let state = &self.scratch.states[idx];
        debug_assert!(!force, "a forced gate refused its pick");
        debug_assert_eq!(
            (state.prefill_cycles, state.remaining_prefill_cycles),
            before,
            "a refused gate changed the prefill of request {}",
            state.request.id
        );
        self.scratch.counters.gate_refusals += 1;
        false
    }

    /// Start the next chunk of queued request `idx`, which the gate
    /// admitted (and a keyed walk took out of its set).
    fn start_chunk(&mut self, idx: usize, now: Cycles) {
        let s = &mut *self.scratch;
        s.cc_queue.remove(idx);
        // A preemption is a pick that displaces the request whose chunk
        // just ran: it wanted to continue (it is still queued mid-prefill)
        // and something else took the stage at its chunk boundary.
        // Continuing an earlier victim while the queue holds other
        // mid-prefill requests is not a *new* preemption.
        if s.cc_resumable
            .is_some_and(|prev| idx != prev && s.cc_queue.contains(prev))
        {
            s.preemptions += 1;
        }
        s.cc_resumable = None;
        let state = &mut s.states[idx];
        if state.chunks_done == 0 {
            state.prefill_start = now;
        }
        // A freshly attached prefix owes its copy-on-write bytes: the DMA
        // transfer extends this chunk.
        let copied = std::mem::replace(&mut state.pending_copy_bytes, Bytes::ZERO);
        let copy_cycles = price_dma(&mut s.dma, &mut s.counters, copied, now);
        let chunk = state.chunk_cycles[state.chunks_done];
        s.cc_busy = Some((idx, now + chunk + copy_cycles));
    }

    /// The CC gate for `idx`'s next chunk (`ServeSimulator::cc_chunk_gate`;
    /// gating implies paged mode). A forced pick first parks every *other*
    /// queued prefill's eager KV in the spill area, so it runs against a
    /// drained pool; without an area, forced growth is the only escape.
    fn gate_chunk(&mut self, idx: usize, force: bool) -> bool {
        let s = &mut *self.scratch;
        let Some(pool) = s.paged.as_mut() else {
            return true;
        };
        if force {
            for &other in s.cc_queue.order() {
                let parked = s.states[other].spill.is_some();
                if other == idx || parked || s.states[other].table.is_empty() {
                    continue;
                }
                if let Some(ticket) = pool.try_spill(&mut s.states[other].table) {
                    s.states[idx].pending_copy_bytes += ticket.bytes();
                    s.states[other].spill = Some(ticket);
                }
            }
        }
        self.simulator
            .cc_chunk_gate(&mut s.states[idx], pool, force)
    }

    /// Dispatch the MC stage: top the batch up (continuous batching), grow
    /// every paged stream for the token the step generates, then price and
    /// start the step.
    fn dispatch_decode(&mut self, now: Cycles) {
        if self.scratch.step_end.is_some() {
            return;
        }
        // Spilled or restored KV images extend the step that forced them.
        let mut dma_cycles = Cycles::ZERO;
        self.top_up(now, &mut dma_cycles);
        self.grow_batch(now, &mut dma_cycles);
        let s = &mut *self.scratch;
        if s.batch.is_empty() {
            return;
        }
        let (paged, kv_factor) = match s.paged.as_ref() {
            Some(pool) => (true, pool.kv_traffic_factor()),
            None => (false, s.kv.kv_traffic_factor()),
        };
        let states = &s.states;
        let contexts = s.batch.iter().map(|&idx| states[idx].step_context(paged));
        let step = self
            .simulator
            .decode_step_cycles(contexts, kv_factor, &mut s.decode_memo);
        s.step_end = Some(now + step + dma_cycles);
    }

    /// Top the batch up from the ready set in the policy's join order. A
    /// join must fit the KV pool and the optional hard cap; a pick that
    /// does not stops the top-up — it blocks at the head of the ready queue
    /// until a finishing stream releases KV bytes (no bypass, so the
    /// policy's order holds under memory pressure too) — unless, in paged
    /// mode, revoking strictly-less-urgent decode slots admits it.
    fn top_up(&mut self, now: Cycles, dma_cycles: &mut Cycles) {
        let config = self.simulator.config;
        let paged = self.scratch.paged.is_some();
        let can_join =
            |s: &ServeScratch| !s.ready.is_empty() && (paged || config.has_slot(s.batch.len()));
        if !can_join(self.scratch) {
            return;
        }
        // One snapshot per top-up; `swap_remove` on both vectors in
        // lockstep keeps indices aligned.
        let s = &*self.scratch;
        let mut snapshot: Vec<QueuedRequest> =
            s.ready.iter().map(|&i| s.states[i].as_queued()).collect();
        while can_join(self.scratch) {
            let pick = self.choose_join(&snapshot);
            let idx = self.scratch.ready[pick];
            if !self.try_join(idx, now, dma_cycles) {
                if !self.revocation_admits(idx) {
                    break;
                }
                let priority = self.scratch.states[idx].request.slo.priority;
                loop {
                    let s = &*self.scratch;
                    let pos = self
                        .least_urgent()
                        .filter(|&pos| s.states[s.batch[pos]].request.slo.priority > priority)
                        // lint:allow(no-unwrap): revocation_admits checked a victim exists
                        .expect("feasibility guaranteed a victim");
                    let victim = s.batch[pos];
                    if self.displace(pos, now, dma_cycles) {
                        snapshot.push(self.scratch.states[victim].as_queued());
                    }
                    if self.try_join(idx, now, dma_cycles) {
                        break;
                    }
                }
            }
            snapshot.swap_remove(pick);
            let s = &mut *self.scratch;
            s.ready.swap_remove(pick);
            if s.states[idx].decode_start == 0 {
                s.states[idx].decode_start = now;
            }
            s.batch.push(idx);
        }
    }

    /// The policy's join pick among `ready`, checked in range and counted.
    fn choose_join(&mut self, ready: &[QueuedRequest]) -> usize {
        let counters = &mut self.scratch.counters;
        counters.join_picks += 1;
        // lint:allow(unit-cast): a dimensionless count
        counters.join_candidates += ready.len() as u64;
        let pick = self.policy.choose_join(ready);
        assert!(
            pick < ready.len(),
            "policy {} returned join index {pick} for a ready set of {}",
            self.policy.name(),
            ready.len()
        );
        pick
    }

    /// Join ready stream `idx` to the decode batch if it fits: unpaged, it
    /// reserves its whole-request peak KV; paged, a spilled stream reads
    /// its image back and any other grows its table to its context.
    fn try_join(&mut self, idx: usize, now: Cycles, dma_cycles: &mut Cycles) -> bool {
        let config = self.simulator.config;
        let s = &mut *self.scratch;
        if !config.has_slot(s.batch.len()) {
            return false;
        }
        let state = &mut s.states[idx];
        let Some(pool) = s.paged.as_mut() else {
            return s.kv.try_reserve(state.kv_bytes);
        };
        if let Some(ticket) = state.spill {
            // Forced when the batch is empty, so decode progresses even
            // while queued streams hold blocks.
            if !pool.try_restore(&mut state.table, &ticket, s.batch.is_empty()) {
                return false;
            }
            state.spill = None;
            *dma_cycles += price_dma(&mut s.dma, &mut s.counters, ticket.bytes(), now);
            return true;
        }
        let context = Tokens::new(state.context_tokens());
        if pool.try_grow_to(&mut state.table, context) {
            return true;
        }
        if config.accounted() && s.batch.is_empty() {
            // Queued streams hold pool blocks, so the sole-owner hatch
            // cannot open; force the join — decode must drain.
            pool.grow_to_forced(&mut state.table, context);
            return true;
        }
        false
    }

    /// Priority-aware decode-slot revocation for pick `idx`: only
    /// strictly-less-urgent streams can be evicted for it, so equal
    /// priorities wait instead of thrashing — and only when revoking *all*
    /// of them would actually admit the pick, so a victim never pays the
    /// re-prefill recompute for nothing.
    fn revocation_admits(&self, idx: usize) -> bool {
        let s = &*self.scratch;
        let Some(pool) = s.paged.as_ref() else {
            return false;
        };
        let pick = &s.states[idx];
        let priority = pick.request.slo.priority;
        let evictable = || {
            s.batch
                .iter()
                .filter(move |&&v| s.states[v].request.slo.priority > priority)
        };
        let freed: u64 = evictable()
            .map(|&v| pool.reclaimable_blocks(&s.states[v].table))
            .sum();
        let needed = match pick.spill {
            // A spilled pick re-admits by restoring its whole image, not by
            // growing from an empty table.
            Some(ticket) => ticket.blocks(),
            None => pool
                .blocks_for(Tokens::new(pick.context_tokens()))
                .saturating_sub(pick.table.blocks()),
        };
        let evictable = evictable().count();
        // Evicting the whole batch makes the pick the sole owner (the
        // escape hatch always admits it); otherwise the freed blocks must
        // leave room under the budget.
        let kv_feasible = evictable == s.batch.len()
            || pool
                .block_bytes()
                .checked_mul(pool.occupied_blocks() - freed + needed)
                .unwrap_or(Bytes::MAX)
                <= pool.budget_bytes();
        kv_feasible && self.simulator.config.has_slot(s.batch.len() - evictable)
    }

    /// Growth: room for the token each stream generates this step. Under
    /// pressure the least-urgent member is displaced — possibly the grower
    /// itself; a sole remaining stream always grows (the pool's sole-owner
    /// escape hatch, or a forced growth), so this terminates.
    fn grow_batch(&mut self, now: Cycles, dma_cycles: &mut Cycles) {
        let accounted = self.simulator.config.accounted();
        let mut i = 0;
        while i < self.scratch.batch.len() {
            let s = &mut *self.scratch;
            let Some(pool) = s.paged.as_mut() else {
                return;
            };
            let state = &mut s.states[s.batch[i]];
            let target = Tokens::new(state.context_tokens() + 1);
            if pool.try_grow_to(&mut state.table, target) {
                i += 1;
                continue;
            }
            if accounted && s.batch.len() == 1 {
                // Sole batch member, but CC/ready streams hold accounted
                // blocks so the pool's own sole-owner hatch stays shut:
                // force the growth — decode must always progress.
                pool.grow_to_forced(&mut state.table, target);
                i += 1;
                continue;
            }
            // lint:allow(no-unwrap): loop guard keeps batch non-empty
            let pos = self.least_urgent().expect("non-empty batch");
            self.displace(pos, now, dma_cycles);
            if pos < i {
                i -= 1;
            }
        }
    }

    /// Batch position of the least-urgent decode stream by (priority,
    /// arrival, id): the eviction victim whenever one must be chosen.
    /// Deterministic, so equal-priority pressure always resolves the same
    /// way (the later arrival loses) and cannot ping-pong.
    fn least_urgent(&self) -> Option<usize> {
        let s = &*self.scratch;
        let urgency = |&(_, &v): &(usize, &usize)| {
            let r = &s.states[v];
            (r.request.slo.priority, r.arrival_cycle, r.request.id)
        };
        let (pos, _) = s.batch.iter().enumerate().max_by_key(urgency)?;
        Some(pos)
    }

    /// Take the stream at batch position `pos` off the decode batch under
    /// memory pressure. Spill-and-restore when the area has room: its KV
    /// image parks in DRAM (the DMA transfer extends this step) and it
    /// re-queues on the ready set with its state intact. Recompute is the
    /// fallback (area full or none): its blocks are freed and it re-queues
    /// on the CC stage for re-prefill. Returns whether it was spilled.
    fn displace(&mut self, pos: usize, now: Cycles, dma_cycles: &mut Cycles) -> bool {
        let s = &mut *self.scratch;
        let Some(pool) = s.paged.as_mut() else {
            return false;
        };
        let victim = s.batch.remove(pos);
        let state = &mut s.states[victim];
        if let Some(ticket) = pool.try_spill(&mut state.table) {
            *dma_cycles += price_dma(&mut s.dma, &mut s.counters, ticket.bytes(), now);
            state.spill = Some(ticket);
            s.ready.push(victim);
            return true;
        }
        pool.evict(&mut state.table);
        s.restarted_prefill_tokens += Tokens::new(state.context_tokens());
        self.simulator.requeue_for_reprefill(state);
        s.cc_queue.push(victim, &s.states, self.policy);
        false
    }
}
