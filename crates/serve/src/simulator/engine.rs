//! The resumable heap engine behind [`ServeSimulator::run`].

use std::collections::HashMap;

use edgemm_core::units::{Bytes, Cycles, Tokens};
use edgemm_event::EventQueue;
use edgemm_mem::{DmaEngine, KvPool, PagedKvPool};
use edgemm_sim::OpCost;

use super::{InFlight, ServeSimulator};
use crate::metrics::{QueueSample, ServeReport};
use crate::policy::{QueuedRequest, SchedulePolicy};
use crate::request::ServeRequest;
use crate::slo::AdmissionControl;

/// What the engine pops from its [`EventQueue`]. DMA transfers complete
/// within the chunk or step that forced them, so they need no event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Request `states[i]` enters the CC queue.
    Arrival(usize),
    /// The CC stage finishes the current prefill chunk of `states[i]`.
    ChunkDone(usize),
    /// The MC stage finishes the decode step of the current batch.
    StepDone,
}

/// The state of one serve run, and the allocations it reuses across runs.
///
/// [`ServeSimulator::engine`] resets it and hands out a [`ServeEngine`]
/// over it. The reset keeps each collection's capacity, never its content
/// (the memos are keyed by request index), so a reused scratch runs
/// byte-identically to a fresh one, minus the allocations.
#[derive(Debug, Default)]
pub struct ServeScratch {
    /// Every pushed request, in push order.
    states: Vec<InFlight>,
    /// How many of `states` have their arrival in `events`. A push only
    /// admits and the next advance schedules the new arrivals, so a
    /// one-shot run admits every request before the heap grows (interleaved,
    /// the two cost ~2 MiB more peak RSS at the benchmark's light load).
    scheduled: usize,
    events: EventQueue<Event>,
    cc_queue: Vec<usize>,
    ready: Vec<usize>,
    batch: Vec<usize>,
    /// The request whose chunk the CC stage runs (its `ChunkDone` is in
    /// `events`; never more than one, never cancelled).
    cc_busy: Option<usize>,
    /// Whether a decode step (and its `StepDone`) is in flight.
    step_in_flight: bool,
    /// The request whose chunk just finished and went back to the queue:
    /// the only request a pick can *preempt* (displace mid-prefill).
    cc_resumable: Option<usize>,
    /// Cycle of the last processed event; `None` before the first.
    last_event: Option<Cycles>,
    kv: KvPool,
    paged: Option<PagedKvPool>,
    dma: Option<DmaEngine>,
    kv_costs: HashMap<usize, (OpCost, OpCost)>,
    step_memo: HashMap<(Vec<usize>, u64), Cycles>,
    weight_memo: HashMap<Vec<usize>, (Cycles, usize)>,
    completed_order: Vec<usize>,
    rejected_order: Vec<(usize, Cycles)>,
    queue_samples: Vec<QueueSample>,
    /// The previous run's sample count: the log moves into the report, so
    /// only its size can pre-size the next run's.
    samples_hint: usize,
    decode_steps: u64,
    preemptions: u64,
    restarted_prefill_tokens: Tokens,
}

impl ServeScratch {
    /// An empty scratch; capacity grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every piece of run state for a fresh run of `simulator`.
    fn reset(&mut self, simulator: &ServeSimulator<'_>) {
        self.states.clear();
        self.scheduled = 0;
        self.events.clear();
        self.cc_queue.clear();
        self.ready.clear();
        self.batch.clear();
        self.cc_busy = None;
        self.step_in_flight = false;
        self.cc_resumable = None;
        self.last_event = None;
        self.kv = simulator.config.kv;
        self.paged = simulator.paged_pool();
        self.dma = simulator.dma_engine(self.paged.as_ref());
        self.kv_costs.clear();
        self.step_memo.clear();
        self.weight_memo.clear();
        self.completed_order.clear();
        self.rejected_order.clear();
        self.queue_samples.clear();
        self.queue_samples.reserve(self.samples_hint);
        self.decode_steps = 0;
        self.preemptions = 0;
        self.restarted_prefill_tokens = Tokens::ZERO;
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
/// Arrivals, prefill-chunk completions and decode-step completions are
/// events in an [`EventQueue`]. Each processed cycle pops everything due,
/// applies it grouped by kind (arrivals in id order, then the chunk
/// completion, then the step completion — the reference engine's drain
/// order), dispatches the CC stage, then the MC stage, and records one
/// [`QueueSample`].
#[derive(Debug)]
pub struct ServeEngine<'e, 'a> {
    simulator: &'e ServeSimulator<'a>,
    policy: &'e dyn SchedulePolicy,
    scratch: &'e mut ServeScratch,
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
        }
    }

    /// Serve a trace of requests under `policy` and report per-request
    /// timelines plus aggregate metrics.
    ///
    /// This is the heap-scheduled [`ServeEngine`] with every request pushed
    /// up front. Step pricing is incremental (see the private
    /// `paged_step_cycles_fast` and `step_cycles_memo` helpers). The report
    /// is byte-identical to the reference engine's — pinned by the
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
        for request in requests {
            engine.push(request);
        }
        engine.finish()
    }
}

impl ServeEngine<'_, '_> {
    /// Add `request` to the run. The state at a cycle depends only on
    /// requests arriving at or before it, so a later arrival just joins;
    /// one at or before the last processed event makes the engine *replay*:
    /// reset, re-push every request in `(arrival cycle, id)` order, and
    /// re-process on the next advance. Either way the finished report is
    /// byte-identical to a one-shot run of every pushed request.
    pub fn push(&mut self, request: &ServeRequest) {
        let state = self.simulator.admit(request);
        let s = &mut *self.scratch;
        if s.last_event.is_some_and(|last| state.arrival_cycle <= last) {
            let mut states = std::mem::take(&mut s.states);
            states.push(state);
            states.sort_by_key(|state| (state.arrival_cycle, state.request.id));
            s.reset(self.simulator);
            let admitted = states
                .iter()
                .map(|state| self.simulator.admit(&state.request));
            s.states.extend(admitted);
        } else {
            s.states.push(state);
        }
    }

    /// Process every event at a model time of at most `now_s` seconds (the
    /// chip clock's `Cycles::seconds_at`, the report's own time base).
    pub fn advance_until(&mut self, now_s: f64) {
        let clock_hz = self.simulator.clock_hz();
        self.schedule_arrivals();
        while let Some(now) = self.scratch.events.next_cycle() {
            if now.seconds_at(clock_hz) > now_s {
                break;
            }
            self.process(now);
        }
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
    /// Panics if two pushed requests share an id.
    pub fn finish(mut self) -> ServeReport {
        self.schedule_arrivals();
        while let Some(now) = self.scratch.events.next_cycle() {
            self.process(now);
        }
        let s = &mut *self.scratch;
        let mut ids: Vec<u64> = s.states.iter().map(|state| state.request.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.states.len(), "request ids must be unique");
        s.samples_hint = s.queue_samples.len();
        self.simulator.assemble_report(
            &s.states,
            &s.completed_order,
            &s.rejected_order,
            std::mem::take(&mut s.queue_samples),
            s.decode_steps,
            s.preemptions,
            s.restarted_prefill_tokens,
            &s.kv,
            s.paged.as_ref(),
        )
    }

    /// Put the arrivals pushed since the last advance into the heap.
    fn schedule_arrivals(&mut self) {
        let s = &mut *self.scratch;
        for (idx, state) in s.states.iter().enumerate().skip(s.scheduled) {
            s.events.push(state.arrival_cycle, Event::Arrival(idx));
        }
        s.scheduled = s.states.len();
    }

    /// Process everything due at cycle `now`. Completions land strictly
    /// after the cycle that scheduled them (chunks and steps are clamped to
    /// ≥ 1 cycle), so every event at `now` belongs here.
    fn process(&mut self, now: Cycles) {
        let s = &mut *self.scratch;
        debug_assert!(s.last_event.map_or(true, |last| last < now));
        s.last_event = Some(now);
        let arrived = s.cc_queue.len();
        let mut chunk_done = None;
        let mut step_done = false;
        while let Some((_, event)) = s.events.pop_due(now) {
            match event {
                Event::Arrival(idx) => s.cc_queue.push(idx),
                Event::ChunkDone(idx) => chunk_done = Some(idx),
                Event::StepDone => step_done = true,
            }
        }
        // Same-cycle arrivals join in id order, whatever their push order.
        let states = &s.states;
        s.cc_queue[arrived..].sort_by_key(|&idx| states[idx].request.id);
        if let Some(idx) = chunk_done {
            debug_assert_eq!(s.cc_busy, Some(idx));
            s.cc_busy = None;
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
                s.cc_queue.push(idx);
                s.cc_resumable = Some(idx);
            }
        }
        if step_done {
            s.step_in_flight = false;
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

    /// Dispatch the serial CC stage: one prefill chunk at a time, chosen by
    /// the policy from a snapshot of the queue. Admission control first
    /// splits the queue on TTFT slack (for requests mid-prefill, the slack
    /// of their *remaining* chunks).
    fn dispatch_prefill(&mut self, now: Cycles) {
        let config = self.simulator.config;
        if self.scratch.cc_busy.is_some() || self.scratch.cc_queue.is_empty() {
            return;
        }
        if config.admission == AdmissionControl::Reject {
            self.reject_hopeless(now);
        }
        // Positions into `cc_queue` the policy may choose from: everything,
        // or (under deferral) the feasible subset when one exists.
        let s = &*self.scratch;
        let feasible = |&pos: &usize| s.states[s.cc_queue[pos]].ttft_feasible_at(now);
        let mut positions: Vec<usize> = (0..s.cc_queue.len()).collect();
        if config.admission == AdmissionControl::Defer && positions.iter().any(feasible) {
            positions.retain(feasible);
        }
        // Two passes under CC-side KV gating: every candidate is first
        // tried within the budget; if all are refused while nothing is
        // decoding and nothing is ready to decode, the queued prefills hold
        // every pool block between them and refusing them all would
        // deadlock — the second pass admits the policy's pick by force.
        for force in [false, true] {
            let s = &*self.scratch;
            let idle = s.batch.is_empty() && s.ready.is_empty();
            if positions.is_empty() || (force && !(config.cc_gated() && idle)) {
                break;
            }
            if self.dispatch_chunk(&positions, force, now) {
                break;
            }
        }
    }

    /// Drop every queued request whose TTFT deadline is out of reach.
    fn reject_hopeless(&mut self, now: Cycles) {
        let s = &mut *self.scratch;
        let mut i = 0;
        while i < s.cc_queue.len() {
            let idx = s.cc_queue[i];
            if s.states[idx].ttft_feasible_at(now) {
                i += 1;
                continue;
            }
            s.cc_queue.swap_remove(i);
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
    }

    /// One pass of policy picks over the queue `positions`: a pick the CC
    /// gate refuses is skipped and the policy re-picks among the rest (it
    /// retries once memory drains). Returns whether a chunk started.
    fn dispatch_chunk(&mut self, positions: &[usize], force: bool, now: Cycles) -> bool {
        let mut candidates = positions.to_vec();
        let s = &*self.scratch;
        let mut snapshot: Vec<QueuedRequest> = candidates
            .iter()
            .map(|&pos| s.states[s.cc_queue[pos]].as_queued())
            .collect();
        while !candidates.is_empty() {
            let pick = self.policy.choose(&snapshot);
            assert!(
                pick < candidates.len(),
                "policy {} returned index {pick} for a queue of {}",
                self.policy.name(),
                candidates.len()
            );
            let idx = self.scratch.cc_queue[candidates[pick]];
            if self.simulator.config.cc_gated() && !self.gate_chunk(idx, force) {
                candidates.swap_remove(pick);
                snapshot.swap_remove(pick);
                continue;
            }
            let s = &mut *self.scratch;
            s.cc_queue.swap_remove(candidates[pick]);
            // A preemption is a pick that displaces the request whose chunk
            // just ran: it wanted to continue (it is still queued
            // mid-prefill) and something else took the stage at its chunk
            // boundary. Continuing an earlier victim while the queue holds
            // other mid-prefill requests is not a *new* preemption.
            if s.cc_resumable
                .is_some_and(|prev| idx != prev && s.cc_queue.contains(&prev))
            {
                s.preemptions += 1;
            }
            s.cc_resumable = None;
            let state = &mut s.states[idx];
            if state.chunks_done == 0 {
                state.prefill_start = now;
            }
            // A freshly attached prefix owes its copy-on-write bytes: the
            // DMA transfer extends this chunk.
            let copied = std::mem::replace(&mut state.pending_copy_bytes, Bytes::ZERO);
            let copy_cycles = ServeSimulator::dma_transfer_cycles(&mut s.dma, copied, now);
            let chunk = state.chunk_cycles[state.chunks_done];
            s.events
                .push(now + chunk + copy_cycles, Event::ChunkDone(idx));
            s.cc_busy = Some(idx);
            return true;
        }
        false
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
            for &other in &s.cc_queue {
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
        if self.scratch.step_in_flight {
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
        let step = match s.paged.as_ref() {
            None => {
                let factor = s.kv.kv_traffic_factor();
                let memo = &mut s.step_memo;
                self.simulator
                    .step_cycles_memo(&s.states, &s.batch, factor, memo)
            }
            Some(pool) => self.simulator.paged_step_cycles_fast(
                &s.states,
                &s.batch,
                pool.kv_traffic_factor(),
                &mut s.kv_costs,
                &mut s.weight_memo,
            ),
        };
        s.events.push(now + step + dma_cycles, Event::StepDone);
        s.step_in_flight = true;
        s.decode_steps += 1;
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

    /// The policy's join pick among `ready`, checked in range.
    fn choose_join(&self, ready: &[QueuedRequest]) -> usize {
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
            *dma_cycles += ServeSimulator::dma_transfer_cycles(&mut s.dma, ticket.bytes(), now);
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
            *dma_cycles += ServeSimulator::dma_transfer_cycles(&mut s.dma, ticket.bytes(), now);
            state.spill = Some(ticket);
            s.ready.push(victim);
            return true;
        }
        pool.evict(&mut state.table);
        s.restarted_prefill_tokens += Tokens::new(state.context_tokens());
        self.simulator.requeue_for_reprefill(state);
        s.cc_queue.push(victim);
        false
    }
}
