//! The event-driven multi-request simulator with continuous batching,
//! chunked prefill and KV-occupancy batch admission.
//!
//! Requests flow through the two-stage EdgeMM pipeline: the CC stage runs
//! vision encode + projector + prefill (one request at a time, in the order
//! a [`SchedulePolicy`] picks), then the request joins the MC decode batch.
//! Two resource models govern the stages:
//!
//! * **Chunked prefill** ([`ServeConfig::chunk_tokens`]): the CC stage
//!   processes a prefill in token-budget chunks and re-runs the scheduling
//!   policy at every chunk boundary, so an interactive arrival can preempt
//!   a long background prefill mid-flight instead of waiting out its whole
//!   encode + prefill block. Unchunked prefill is the one-chunk special
//!   case and reproduces the pre-chunking simulator exactly.
//! * **KV-occupancy admission** ([`ServeConfig::kv`]): a prefilled request
//!   joins the decode batch only while the [`KvPool`] has headroom for its
//!   peak KV footprint; when the pool is full the request blocks in the
//!   ready queue until a finishing stream releases bytes. The constant
//!   [`ServeConfig::batch_cap`] is retained only as an optional override
//!   on top of the memory model.
//!
//! Decoding is *continuously batched* at step granularity: every step
//! generates one token for every stream in the batch, finished requests
//! leave at the step boundary, and admitted requests join immediately —
//! the batch never drains to restart. When more prefilled requests wait
//! than there is headroom, the join order is also the policy's call
//! ([`SchedulePolicy::choose_join`]), so one discipline governs the whole
//! pipeline.
//!
//! On top of the policy sits [`AdmissionControl`]: every time the CC stage
//! looks for work it computes each queued request's TTFT *slack* — could the
//! deadline still be met if the remaining prefill started right now? — and
//! either serves hopeless requests anyway ([`AdmissionControl::Serve`]),
//! parks them behind every salvageable request ([`AdmissionControl::Defer`]),
//! or drops them ([`AdmissionControl::Reject`], reported in
//! [`ServeReport::rejected`]).
//!
//! Costs come from the cycle-level simulator (`edgemm-sim`), not from a
//! separate analytic model. Each request's prefill is priced on the grid
//! of [`Machine::prefill_chunk_costs`] (no budget is one chunk of the
//! whole prompt). A decode step of a stream batch is the per-operator sum
//!
//! ```text
//! Σ_ops max( Σ_streams compute, weight DRAM + kv_factor · Σ_streams KV DRAM )
//! ```
//!
//! over [`Machine::decode_step_costs_at`] — the weight fetch is shared by
//! the batch (the Fig. 9c weight reuse), compute and KV-cache traffic
//! repeat per stream, and the KV traffic is scaled by the pool's spill
//! state ([`KvPool::kv_traffic_factor`]). The engine prices the same sum
//! factored: a weight term fixed by the batch size (`StepShape`) plus, for
//! each of the two KV operators a layer runs, the op count times one
//! batch-summed term over each stream's context. The reference engine keeps
//! the per-op sum itself (`reference_step_cycles`) as the oracle.

use std::collections::HashMap;
use std::iter;
use std::sync::{Arc, Mutex, OnceLock};

use edgemm_arch::ClusterKind;
use edgemm_core::float::is_one;
use edgemm_core::units::{clock_hz, Bytes, BytesPerToken, Cycles, Tokens};
use edgemm_mem::{
    prefix_key, BlockTable, DmaEngine, DmaRequest, KvPool, PagedKvPool, SpillTicket,
    TrafficClass as MemTrafficClass,
};
use edgemm_mllm::{MllmConfig, ModelWorkload, Phase, TrafficClass};
use edgemm_sim::{DecodeOptions, Machine, OpCost, PruningEffect};

use crate::metrics::{QueueSample, ServeReport};
use crate::policy::QueuedRequest;
#[cfg(any(test, feature = "reference"))]
use crate::policy::SchedulePolicy;
use crate::request::{CompletedRequest, RejectedRequest, ServeRequest};
use crate::slo::AdmissionControl;

mod engine;

pub use engine::{ServeCounters, ServeEngine, ServeScratch, ServeSession};

/// Static configuration of a serving run.
///
/// Build one with the chained constructors: [`ServeConfig::new`] is fully
/// unconstrained, [`ServeConfig::with_batch_cap`] is the legacy
/// constant-cap entry point, and [`Self::chunk_tokens`](Self::with_chunk_tokens)
/// / [`Self::with_kv_pool`] layer the memory-aware models on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Optional hard cap on the number of streams decoded concurrently,
    /// layered *on top of* the KV pool. `None` leaves batch membership
    /// entirely to KV headroom — the physically grounded default once a
    /// bounded [`Self::kv`] is configured. Keep a cap when an external
    /// constraint (scheduler slots, per-stream state) binds before memory
    /// does, or to reproduce pre-KV-pool results.
    pub batch_cap: Option<usize>,
    /// Prefill chunk budget in prompt tokens. `None` runs each prefill as
    /// one unpreemptible block (the pre-chunking behaviour); `Some(n)`
    /// re-runs the scheduling policy every `n` prompt tokens, letting
    /// urgent arrivals preempt long prefills at chunk boundaries at the
    /// price of re-streaming the layer weights once per chunk.
    pub chunk_tokens: Option<usize>,
    /// The KV-cache capacity model admitting decode streams by byte
    /// headroom ([`KvPool::unbounded`] reproduces the pre-pool behaviour).
    pub kv: KvPool,
    /// Block size, in cached tokens, of *paged* KV allocation. `None` (the
    /// default) keeps whole-request peak reservations: a stream reserves
    /// `kv_cache_bytes(prompt + output)` when it joins the decode batch and
    /// holds it to completion. `Some(n)` turns the [`Self::kv`] budget into
    /// a block-granular [`PagedKvPool`]: streams allocate `n`-token blocks
    /// lazily as decode extends their context, every decode step is priced
    /// at each stream's *actual* context length (not the request average),
    /// and under KV or slot pressure a strictly-less-urgent stream can be
    /// **evicted mid-decode** — its blocks freed and the request re-queued
    /// for re-prefill over its accumulated context (see `docs/memory.md`).
    pub block_tokens: Option<usize>,
    /// Share KV blocks across requests that declare the same prompt prefix
    /// ([`crate::SharedPrefix`]): the full blocks of a tenant's system
    /// prompt are allocated once, refcounted, and mapped by every stream
    /// carrying it — later streams skip the covered prefill chunks and pay
    /// only a copy-on-write tail-block copy (priced on the DMA engine).
    /// Requires paged allocation ([`Self::block_tokens`]); off by default.
    pub prefix_sharing: bool,
    /// DRAM spill area for evicted KV. `None` (the default) keeps the PR 5
    /// recompute model: an eviction discards the stream's blocks and
    /// re-queues it for re-prefill. `Some(bytes)` turns evictions into
    /// **spill-and-restore**: the victim's KV image is written to the area
    /// (a DMA transfer at the modeled bandwidth share, charged to the
    /// decode step that forced it) and read back verbatim when the stream
    /// re-joins, so [`ServeReport::restarted_prefill_tokens`] collapses to
    /// zero; recompute remains the fallback once the area is full.
    /// Requires paged allocation ([`Self::block_tokens`]).
    pub spill_capacity_bytes: Option<Bytes>,
    /// Account KV written by completed prefill chunks *as it is written*:
    /// each chunk dispatch grows the stream's block table to the tokens the
    /// chunk will cover, so streams waiting in the CC/ready queues hold
    /// their true footprint in the pool and admission (and
    /// [`QueueSample::kv_bytes`]) stop under-reporting. A chunk that cannot
    /// allocate its blocks waits at the CC stage until the pool drains.
    /// Requires paged allocation ([`Self::block_tokens`]); off by default
    /// (join-time accounting, the PR 5 behaviour).
    pub eager_kv_accounting: bool,
    /// Activation-aware pruning effect applied to every request's decode
    /// FFN GEMVs (use [`PruningEffect::disabled`] for dense serving).
    pub pruning: PruningEffect,
    /// What the CC stage does with requests whose TTFT deadline has become
    /// unreachable ([`AdmissionControl::Serve`] reproduces the pre-SLO
    /// behaviour: serve everything, report the misses).
    pub admission: AdmissionControl,
}

impl ServeConfig {
    /// Dense serving with no batch cap, no prefill chunking and an
    /// unbounded KV pool: the maximally permissive starting point for the
    /// chained builder methods.
    pub fn new() -> Self {
        ServeConfig {
            batch_cap: None,
            chunk_tokens: None,
            kv: KvPool::unbounded(),
            block_tokens: None,
            prefix_sharing: false,
            spill_capacity_bytes: None,
            eager_kv_accounting: false,
            pruning: PruningEffect::disabled(),
            admission: AdmissionControl::Serve,
        }
    }

    /// Dense serving under a constant decode batch cap and admit-all
    /// admission — the legacy entry point, routed through [`Self::new`].
    ///
    /// Prefer bounding the batch with a [`KvPool`] (via
    /// [`Self::with_kv_pool`]): the pool derives batch membership from the
    /// thing that actually runs out — KV bytes — so long-context streams
    /// cost more slots than short ones. A hard cap still makes sense when
    /// something other than memory binds first (fixed scheduler slots,
    /// per-stream software state) or when reproducing pre-pool results.
    pub fn with_batch_cap(batch_cap: usize) -> Self {
        Self::new().with_batch_cap_override(batch_cap)
    }

    /// The same configuration with a hard cap on concurrent decode streams.
    pub fn with_batch_cap_override(self, batch_cap: usize) -> Self {
        ServeConfig {
            batch_cap: Some(batch_cap),
            ..self
        }
    }

    /// The same configuration with prefill chunked at `chunk_tokens` prompt
    /// tokens.
    pub fn with_chunk_tokens(self, chunk_tokens: usize) -> Self {
        ServeConfig {
            chunk_tokens: Some(chunk_tokens),
            ..self
        }
    }

    /// The same configuration with decode-batch admission governed by `kv`.
    pub fn with_kv_pool(self, kv: KvPool) -> Self {
        ServeConfig { kv, ..self }
    }

    /// The same configuration with the KV pool paged at `block_tokens`
    /// tokens per block (lazy allocation, per-step context-length pricing,
    /// and priority-aware mid-decode eviction — see
    /// [`ServeConfig::block_tokens`]).
    pub fn with_block_tokens(self, block_tokens: usize) -> Self {
        ServeConfig {
            block_tokens: Some(block_tokens),
            ..self
        }
    }

    /// The same configuration with cross-request prefix sharing enabled
    /// (see [`ServeConfig::prefix_sharing`]; requires
    /// [`Self::with_block_tokens`]).
    pub fn with_prefix_sharing(self) -> Self {
        ServeConfig {
            prefix_sharing: true,
            ..self
        }
    }

    /// The same configuration with a DRAM spill area of `capacity` bytes
    /// for spill-and-restore eviction (see
    /// [`ServeConfig::spill_capacity_bytes`]; requires
    /// [`Self::with_block_tokens`]).
    pub fn with_spill_capacity(self, capacity: Bytes) -> Self {
        ServeConfig {
            spill_capacity_bytes: Some(capacity),
            ..self
        }
    }

    /// The same configuration with eager (chunk-granular) KV accounting
    /// (see [`ServeConfig::eager_kv_accounting`]; requires
    /// [`Self::with_block_tokens`]).
    pub fn with_eager_kv_accounting(self) -> Self {
        ServeConfig {
            eager_kv_accounting: true,
            ..self
        }
    }

    /// The same configuration under a different admission mode.
    pub fn with_admission(self, admission: AdmissionControl) -> Self {
        ServeConfig { admission, ..self }
    }

    /// Whether CC dispatches consult the pool (and may be refused): prefix
    /// attaches and eager chunk accounting allocate blocks there.
    fn cc_gated(&self) -> bool {
        self.prefix_sharing || self.eager_kv_accounting
    }

    /// Whether ready or CC streams can hold pool blocks (sharing, eager
    /// accounting or spilling), which shuts the pool's sole-owner escape
    /// hatch; the forced admission paths reopen it, and only then.
    fn accounted(&self) -> bool {
        self.cc_gated() || self.spill_capacity_bytes.is_some()
    }

    /// Whether a decode batch of `batch_len` streams has room for one more
    /// under the optional hard cap.
    fn has_slot(&self, batch_len: usize) -> bool {
        self.batch_cap.map_or(true, |cap| batch_len < cap)
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::with_batch_cap(8)
    }
}

/// Precomputed costs plus recorded timeline of one request in flight.
#[derive(Debug)]
struct InFlight {
    request: ServeRequest,
    arrival_cycle: Cycles,
    /// Absolute TTFT deadline in cycles, if the request's class sets one.
    ttft_deadline_cycle: Option<Cycles>,
    prompt_tokens: usize,
    /// Per-chunk CC-stage cycles (vision encode + projector folded into the
    /// first chunk). A single entry when prefill is unchunked.
    chunk_cycles: Vec<Cycles>,
    chunks_done: usize,
    /// Sum of the not-yet-executed chunks — the CC time the request still
    /// needs, which is what feasibility and cost-aware policies care about.
    remaining_prefill_cycles: Cycles,
    /// Total CC-stage cycles (all chunks).
    prefill_cycles: Cycles,
    /// Peak KV-cache footprint reserved in the pool while decoding
    /// (whole-request reservations; unused by the paged allocator).
    kv_bytes: Bytes,
    /// The request's average decode context (prompt plus half the output):
    /// the context an unpaged step prices its KV operators at.
    average_context: usize,
    /// One average decode step, solo.
    solo_step_cycles: Cycles,
    remaining_tokens: usize,
    /// Tokens generated so far. Survives an eviction: the text exists, only
    /// its KV must be recomputed, so the accumulated context of a stream is
    /// always `prompt_tokens + generated`.
    generated: usize,
    /// Paged-mode page table of the stream's resident KV blocks.
    table: BlockTable,
    /// The stream's parked KV image while spill-and-restore evicted it:
    /// the ticket to restore from at re-admission. `None` while resident.
    spill: Option<SpillTicket>,
    /// Copy-on-write bytes a shared-prefix attach still owes the DMA
    /// engine — charged to (and cleared by) the stream's next CC chunk.
    pending_copy_bytes: Bytes,
    /// Whether the first prefill has completed (the first token exists).
    /// TTFT is frozen then: an evicted request re-queued for re-prefill is
    /// never re-judged (or rejected) on a deadline that is already history.
    has_first_token: bool,
    prefill_start: Cycles,
    prefill_end: Cycles,
    decode_start: Cycles,
    finish: Cycles,
}

impl InFlight {
    /// Could the TTFT deadline still be met if the *remaining* prefill ran
    /// uninterrupted from `now`? Deadline-free requests always can, and so
    /// do requests whose first token already exists (eviction re-prefills
    /// cannot re-miss a TTFT that is already decided).
    fn ttft_feasible_at(&self, now: Cycles) -> bool {
        self.has_first_token
            || self.ttft_deadline_cycle.map_or(true, |deadline| {
                now + self.remaining_prefill_cycles <= deadline
            })
    }

    /// Cached context of the stream: prompt prefix plus generated tokens.
    fn context_tokens(&self) -> usize {
        self.prompt_tokens + self.generated
    }

    /// The context a decode step prices the stream's KV operators at: the
    /// actual one when paged, the request average otherwise.
    fn step_context(&self, paged: bool) -> usize {
        if paged {
            self.context_tokens()
        } else {
            self.average_context
        }
    }

    fn prefill_finished(&self) -> bool {
        self.chunks_done == self.chunk_cycles.len()
    }

    fn as_queued(&self) -> QueuedRequest {
        QueuedRequest {
            id: self.request.id,
            arrival_s: self.request.arrival_s,
            prompt_tokens: self.prompt_tokens,
            output_tokens: self.request.output_tokens,
            prefill_cycles: self.prefill_cycles,
            remaining_prefill_cycles: self.remaining_prefill_cycles,
            decode_cycles: self.solo_step_cycles * self.request.output_tokens,
            slo: self.request.slo,
        }
    }
}

/// One decode step's operator stream reduced to what batching changes.
/// A weight-facing operator costs the same at any context and its fetch
/// is shared by the batch, so it keeps its solo compute and DRAM cycles.
/// The KV-facing operators are the score and the context aggregation of
/// every layer, alternating in stream order with the same shapes in every
/// layer, so a count is all the step needs of them.
#[derive(Debug)]
struct StepShape {
    /// Solo `(compute, DRAM)` cycles of each weight-facing operator.
    weight_ops: Vec<(Cycles, Cycles)>,
    /// How many KV-facing operators the step runs.
    kv_ops: usize,
}

impl StepShape {
    /// The weight-facing operators' share of a step over `streams` streams:
    /// compute repeats per stream, the fetch is issued once.
    fn weight_cycles(&self, streams: usize) -> Cycles {
        self.weight_ops
            .iter()
            .map(|&(compute, dram)| (compute * streams).max(dram))
            .sum()
    }
}

/// What [`ServeSimulator::decode_step_cycles`] memoises within a run. Each
/// key fixes its value for the simulator's lifetime, so nothing is ever
/// invalidated; a reset clears it only because the holder may serve
/// another simulator next.
#[derive(Debug, Default)]
struct DecodeMemo {
    /// [`StepShape::weight_cycles`], indexed by batch size.
    weight_cycles: Vec<Cycles>,
    /// The score and aggregation operators' solo `(compute, DRAM)` cycles
    /// at a cached context: all the step reads of their costs.
    kv_costs: HashMap<usize, [(Cycles, Cycles); 2]>,
    /// Contexts whose KV op pair had to be priced since the last clear.
    kv_misses: u64,
}

impl DecodeMemo {
    fn clear(&mut self) {
        self.weight_cycles.clear();
        self.kv_costs.clear();
        self.kv_misses = 0;
    }
}

/// The pricing a simulator memoises for its whole lifetime, shared by its
/// clones. Every entry is a function of the machine, the model and the
/// pruning effect alone, which a clone copies, so the owner and its clones
/// may fill and read one memo.
#[derive(Debug, Default)]
struct PricingMemo {
    /// Vision encode + projector cycles. The two phases never see the text
    /// prompt — their operators are fixed by the model alone — so the cost
    /// is priced once and shared by every admission.
    setup_cycles: OnceLock<Cycles>,
    /// Prefill chunk cycles keyed by `(cached, len)`. A chunk's operators
    /// depend only on the cached prefix and the chunk length, never on
    /// which request's prompt it belongs to, so the full chunks of every
    /// prompt under one budget share one entry.
    chunk_cache: Mutex<HashMap<(usize, usize), Cycles>>,
    /// The decode step's shape, priced once: it depends on the model and
    /// the pruning effect alone.
    step_shape: OnceLock<StepShape>,
}

/// The multi-request serving simulator over one machine and one model.
///
/// A clone serves under the same machine, model and configuration, and
/// shares the original's pricing memo: the vision setup, prefill chunk and
/// decode step-shape costs that one of them prices, the others read. Run
/// state is never shared (it lives in a [`ServeScratch`]), so a clone
/// serves exactly what the original would; the fleet gives every replica
/// on one system a clone of one simulator.
#[derive(Debug, Clone)]
pub struct ServeSimulator<'a> {
    machine: &'a Machine,
    model: MllmConfig,
    config: ServeConfig,
    /// KV bytes one cached token occupies (all layers, K and V) at the MC
    /// weight precision — the unit the paged allocator sizes blocks in.
    kv_bytes_per_token: BytesPerToken,
    /// A zero-prompt workload over the served model, kept around so pricing
    /// probes (e.g. the per-context KV op shapes) need not rebuild one.
    probe: ModelWorkload,
    /// Setup, chunk and step-shape pricing, shared with every clone.
    memo: Arc<PricingMemo>,
}

impl<'a> ServeSimulator<'a> {
    /// Create a simulator serving `model` on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if a configured batch capacity, chunk budget or KV block size
    /// is zero.
    pub fn new(machine: &'a Machine, model: MllmConfig, config: ServeConfig) -> Self {
        assert!(
            config.batch_cap != Some(0),
            "batch capacity must be at least 1"
        );
        assert!(
            config.chunk_tokens != Some(0),
            "chunk budget must be at least one token"
        );
        assert!(
            config.block_tokens != Some(0),
            "KV block size must be at least one token"
        );
        assert!(
            config.block_tokens.is_some() || !config.prefix_sharing,
            "prefix sharing requires paged allocation (block_tokens)"
        );
        assert!(
            config.block_tokens.is_some() || config.spill_capacity_bytes.is_none(),
            "spill-and-restore requires paged allocation (block_tokens)"
        );
        assert!(
            config.block_tokens.is_some() || !config.eager_kv_accounting,
            "eager KV accounting requires paged allocation (block_tokens)"
        );
        let kv_bytes_per_token = Bytes::per_token(
            model
                .llm
                .kv_bytes_per_token(machine.config().mc_weight_bytes),
        );
        let probe = ModelWorkload::new(model.clone(), 0, 1);
        ServeSimulator {
            machine,
            model,
            config,
            kv_bytes_per_token,
            probe,
            memo: Arc::default(),
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    fn clock_hz(&self) -> f64 {
        clock_hz(self.machine.config().chip.clock_mhz)
    }

    fn admit(&self, request: &ServeRequest, memo: &mut DecodeMemo) -> InFlight {
        let workload = ModelWorkload::new(
            self.model.clone(),
            request.text_tokens,
            request.output_tokens,
        );
        let decode = DecodeOptions {
            pruning: self.config.pruning,
            batch: 1,
        };
        let cc_kind = ClusterKind::ComputeCentric;
        // Vision encode + projector always run ahead of the first prompt
        // chunk; they are unsplittable and folded into chunk 0. Their
        // operators are prompt-independent, so the cost is priced once per
        // simulator and its clones.
        let setup_cycles: Cycles = *self.memo.setup_cycles.get_or_init(|| {
            [Phase::VisionEncode, Phase::Projector]
                .iter()
                .map(|&phase| {
                    self.machine
                        .run_phase_on(&workload, phase, cc_kind, decode)
                        .cycles
                })
                .sum()
        });
        let chunk_cycles = self.prefill_chunk_cycles(&workload, setup_cycles);
        let prefill_cycles: Cycles = chunk_cycles.iter().copied().sum();
        // Peak resident KV: every layer caches K and V for the prompt plus
        // the whole generation, at the MC-side weight precision (the same
        // bytes/value the decode step's KV traffic is charged at).
        let kv_bytes = Bytes::new(workload.config().llm.kv_cache_bytes(
            workload.prompt_tokens() + request.output_tokens,
            self.machine.config().mc_weight_bytes,
        ));
        let average_context = workload.average_context_tokens();
        let solo_step_cycles = self.decode_step_cycles(iter::once(average_context), 1.0, memo);
        let clock_hz = self.clock_hz();
        let arrival_cycle = Cycles::from_seconds_round(request.arrival_s, clock_hz);
        InFlight {
            arrival_cycle,
            // Offset from the *quantized* arrival and floored, so that a
            // request admitted at the last feasible cycle always satisfies
            // `CompletedRequest::meets_ttft` (which measures TTFT from the
            // same quantized arrival) — feasibility and the recorded miss
            // can never disagree by a rounding cycle.
            ttft_deadline_cycle: request
                .slo
                .ttft_deadline_s
                .map(|d| arrival_cycle + Cycles::from_seconds_floor(d, clock_hz)),
            prompt_tokens: workload.prompt_tokens(),
            remaining_prefill_cycles: prefill_cycles,
            prefill_cycles,
            chunk_cycles,
            chunks_done: 0,
            kv_bytes,
            average_context,
            solo_step_cycles,
            remaining_tokens: request.output_tokens,
            generated: 0,
            table: BlockTable::empty(),
            spill: None,
            pending_copy_bytes: Bytes::ZERO,
            has_first_token: false,
            request: *request,
            prefill_start: Cycles::ZERO,
            prefill_end: Cycles::ZERO,
            decode_start: Cycles::ZERO,
            finish: Cycles::ZERO,
        }
    }

    /// The block-granular pool of a paged run (`None` when unpaged), with
    /// the configured spill area.
    fn paged_pool(&self) -> Option<PagedKvPool> {
        self.config.block_tokens.map(|block_tokens| {
            let pool = PagedKvPool::new(self.config.kv, block_tokens, self.kv_bytes_per_token);
            match self.config.spill_capacity_bytes {
                Some(capacity) => pool.with_spill_capacity(capacity),
                None => pool,
            }
        })
    }

    /// The DMA engine of a paged run that shares prefixes or spills: spill
    /// images and copy-on-write copies move over the MC clusters' share of
    /// the DRAM interface, serially per the engine model.
    fn dma_engine(&self, paged: Option<&PagedKvPool>) -> Option<DmaEngine> {
        let moves_kv = self.config.prefix_sharing || self.config.spill_capacity_bytes.is_some();
        paged.filter(|_| moves_kv).map(|pool| {
            let config = self.machine.config();
            let share = config.allocation.mc_share;
            let share = if share > 0.0 { share } else { 1.0 };
            DmaEngine::new(config.dram, pool.block_bytes(), share)
        })
    }

    /// Price one prefill as the CC stage's chunk list on the grid of
    /// `Machine::prefill_chunk_costs`. No budget is one chunk of the whole
    /// prompt: `prefill_chunk_ops(0, prompt)` is `prefill_ops()`, so that
    /// chunk is the unchunked prefill. `setup_cycles` (vision encode +
    /// projector — zero for an eviction re-prefill) folds into the first
    /// chunk, and every chunk is clamped to one cycle because a zero-cycle
    /// stage would stall the event loop (events must advance time).
    ///
    /// A chunk is priced from one decoder layer: every layer runs the same
    /// shapes and `Machine`'s op costs ignore names, so the full stream's
    /// cycles are the layer's times `llm.layers`, exactly (`Cycles` is an
    /// integer).
    fn prefill_chunk_cycles(&self, workload: &ModelWorkload, setup_cycles: Cycles) -> Vec<Cycles> {
        let prompt = workload.prompt_tokens();
        let budget = self.config.chunk_tokens.unwrap_or(prompt).max(1);
        let mut chunks = Vec::with_capacity(prompt.div_ceil(budget).max(1));
        // A chunk's operators are fixed by `(cached, len)` alone, so the
        // full chunks of every prompt under one budget are priced once.
        let mut cache = self
            .memo
            .chunk_cache
            .lock()
            // lint:allow(no-unwrap): poisoning only follows a prior panic
            .expect("chunk cache poisoned");
        let layers = self.model.llm.layers;
        let mut cached = 0;
        while cached < prompt {
            let len = budget.min(prompt - cached);
            let chunk = *cache.entry((cached, len)).or_insert_with(|| {
                let layer = self.machine.run_ops(
                    Phase::Prefill,
                    &workload.prefill_chunk_layer_ops(cached, len),
                    ClusterKind::ComputeCentric,
                    PruningEffect::disabled(),
                );
                layer.cycles * layers
            });
            let cycles = if cached == 0 {
                setup_cycles + chunk
            } else {
                chunk
            };
            chunks.push(cycles.max(Cycles::new(1)));
            cached += len;
        }
        if chunks.is_empty() {
            // A zero-token prompt still yields one (setup-only) chunk,
            // mirroring `Machine::prefill_chunk_costs`.
            chunks.push(setup_cycles.max(Cycles::new(1)));
        }
        chunks
    }

    /// The decode step's shape, priced at context 1 (its weight-facing
    /// operators cost the same at any context).
    fn step_shape(&self) -> &StepShape {
        self.memo.step_shape.get_or_init(|| {
            let costs = self.machine.decode_step_costs_at(
                &self.probe,
                ClusterKind::MemoryCentric,
                self.config.pruning,
                1,
            );
            let is_kv = |cost: &&OpCost| cost.traffic_class == TrafficClass::KvCache;
            StepShape {
                weight_ops: costs
                    .iter()
                    .filter(|cost| !is_kv(cost))
                    .map(|cost| (cost.compute_cycles, cost.dram_cycles))
                    .collect(),
                kv_ops: costs.iter().filter(is_kv).count(),
            }
        })
    }

    /// Solo `(compute, DRAM)` cycles of the two KV-facing attention
    /// operators (score and context aggregation) of one decode step with
    /// exactly `context` cached tokens. The shapes depend only on the model
    /// and the context — not on the layer or the request — so one pair
    /// serves every layer of every stream.
    fn kv_step_costs_at(&self, context: usize) -> [(Cycles, Cycles); 2] {
        let (scores, aggregate) = self.probe.decode_kv_ops(context);
        [scores, aggregate].map(|op| {
            let cost = self
                .machine
                .op_cost(&op, ClusterKind::MemoryCentric, self.config.pruning);
            (cost.compute_cycles, cost.dram_cycles)
        })
    }

    /// Cycles of one stream-batched decode step over streams whose KV
    /// operators price at `contexts`, with the summed KV DRAM cycles scaled
    /// by `kv_factor` — below 1.0 when the batch's caches fit the on-chip
    /// tier, above 1.0 when a penalised majority spills to DRAM (see
    /// [`KvPool::kv_traffic_factor`]).
    ///
    /// This is the reference's per-op sum reassociated. The streams share
    /// every weight-facing operator, so those terms depend on the batch
    /// size alone and are memoised by it. Every layer's two KV operators
    /// have the same shapes, so the KV side is one batch-summed
    /// `max(compute, kv_factor · DRAM)` per parity (even-indexed KV ops are
    /// scores, odd-indexed ones aggregations) times its op count. `Cycles`
    /// is an integer newtype, so the reassociated sum is bit-identical; the
    /// differential suite pins it.
    fn decode_step_cycles(
        &self,
        contexts: impl ExactSizeIterator<Item = usize>,
        kv_factor: f64,
        memo: &mut DecodeMemo,
    ) -> Cycles {
        let shape = self.step_shape();
        let streams = contexts.len();
        while memo.weight_cycles.len() <= streams {
            let size = memo.weight_cycles.len();
            memo.weight_cycles.push(shape.weight_cycles(size));
        }
        let mut scores = (Cycles::ZERO, Cycles::ZERO);
        let mut aggregate = (Cycles::ZERO, Cycles::ZERO);
        for context in contexts {
            let [s, a] = memo.kv_costs.entry(context).or_insert_with(|| {
                memo.kv_misses += 1;
                self.kv_step_costs_at(context)
            });
            scores.0 += s.0;
            scores.1 += s.1;
            aggregate.0 += a.0;
            aggregate.1 += a.1;
        }
        let kv_term = |(compute, dram): (Cycles, Cycles)| {
            // Exact integer path when the pool is neutral, so the unbounded
            // configuration reproduces the pre-pool model byte for byte.
            let dram = if is_one(kv_factor) {
                dram
            } else {
                dram.scale_round(kv_factor)
            };
            compute.max(dram)
        };
        let total = memo.weight_cycles[streams]
            + kv_term(scores) * shape.kv_ops.div_ceil(2)
            + kv_term(aggregate) * (shape.kv_ops / 2);
        total.max(Cycles::new(1))
    }

    /// Reset an evicted stream's CC-stage state for re-prefill: its freed
    /// KV must be recomputed over the *accumulated* context (original
    /// prompt plus every token generated so far — the text survives the
    /// eviction, only the cache is lost). Vision encode and projector are
    /// not re-run: their activations are tiny, context-independent and kept
    /// in DRAM. The caller re-queues the request on the CC stage.
    fn requeue_for_reprefill(&self, state: &mut InFlight) {
        let workload = ModelWorkload::new(
            self.model.clone(),
            state.request.text_tokens + state.generated,
            state.remaining_tokens.max(1),
        );
        let chunk_cycles = self.prefill_chunk_cycles(&workload, Cycles::ZERO);
        state.prefill_cycles = chunk_cycles.iter().copied().sum();
        state.remaining_prefill_cycles = state.prefill_cycles;
        state.chunk_cycles = chunk_cycles;
        state.chunks_done = 0;
    }

    /// A shared-prefix registry hit reuses the prefix's KV, so the prefill
    /// chunks it fully covers need not run: collapse them to the 1-cycle
    /// event-loop minimum and refresh the cycle totals. Chunk 0 always runs
    /// — it carries the unsplittable vision encode + projector — and so
    /// does the chunk holding the first token past the reused prefix.
    /// Unchunked prefill is one block and cannot be split, so sharing then
    /// saves memory but no prefill compute.
    fn skip_reused_chunks(&self, state: &mut InFlight, reused: Tokens) {
        debug_assert_eq!(state.chunks_done, 0);
        let Some(budget) = self.config.chunk_tokens else {
            return;
        };
        let reused = reused.get();
        for i in 1..state.chunk_cycles.len() {
            if (i + 1) * budget <= reused {
                state.chunk_cycles[i] = Cycles::new(1);
            }
        }
        state.prefill_cycles = state.chunk_cycles.iter().copied().sum();
        state.remaining_prefill_cycles = state.prefill_cycles;
    }

    /// The CC dispatch gate under prefix sharing / eager KV accounting: the
    /// pool resources the candidate's next chunk needs before it can run.
    /// On the first chunk of a stream declaring a shared prefix, attach it
    /// to the registry (a hit maps the resident blocks, skips the covered
    /// chunks and queues the copy-on-write bytes for pricing; a miss
    /// allocates the prefix blocks with this stream as first holder; a
    /// *refused* attach — no room — degrades to a private unshared
    /// prefill). Under eager accounting, additionally grow the table to the
    /// tokens the chunk will cover, so the KV it writes is in the pool's
    /// account the moment it exists; when the pool is full the stream is
    /// *parked* — its KV moves to the DRAM spill area and the prefill
    /// writes through to it. Returns `false` only when eager accounting can
    /// neither grow nor park (spill area exhausted or absent) — the
    /// candidate is skipped this round and retried once memory drains
    /// (anything it already holds stays attached).
    ///
    /// `force` admits the chunk unconditionally: a refused eager growth is
    /// forced past the budget (restoring any parked image first). The
    /// dispatcher forces exactly when nothing is decoding and nothing is
    /// ready to decode — every pool block is then held by queued prefills,
    /// so without the override no stream could ever run again.
    fn cc_chunk_gate(&self, state: &mut InFlight, pool: &mut PagedKvPool, force: bool) -> bool {
        if self.config.prefix_sharing
            && state.chunks_done == 0
            && state.table.is_empty()
            && state.table.prefix_key().is_none()
        {
            if let Some(prefix) = state.request.shared_prefix {
                if prefix.tokens > 0 {
                    let key = prefix_key(prefix.id, prefix.tokens);
                    // A refused attach (no room for the prefix blocks, or
                    // for the divergence copy on a hit) degrades to a
                    // private unshared prefill rather than stalling the CC
                    // stage: the stream merely loses the dedup opportunity.
                    if let Some(attach) =
                        pool.try_attach_prefix(&mut state.table, key, Tokens::new(prefix.tokens))
                    {
                        state.pending_copy_bytes += attach.copied_bytes;
                        if attach.reused_tokens.get() > 0 {
                            self.skip_reused_chunks(state, attach.reused_tokens);
                        }
                    }
                }
            }
        }
        if self.config.eager_kv_accounting {
            let covered = match self.config.chunk_tokens {
                None => state.context_tokens(),
                Some(budget) => ((state.chunks_done + 1) * budget).min(state.context_tokens()),
            };
            // Never shrink the recorded token count (a shared prefix may
            // already cover more than this chunk).
            let covered = Tokens::new(covered.max(state.table.tokens().get()));
            if let Some(ticket) = state.spill.as_mut() {
                // A parked prefill stays parked: the chunk's KV is written
                // straight through to the DRAM spill area and the whole
                // image is read back (and priced) at decode admission.
                if pool.try_grow_spilled(ticket, covered) {
                    return true;
                }
            } else {
                if pool.try_grow_to(&mut state.table, covered) {
                    return true;
                }
                // The serving pool is full. Rather than stall the CC stage
                // until decode drains, park the stream's KV in the spill
                // area and prefill write-through; the moved bytes extend
                // this chunk's DMA transfer.
                let moved = pool.block_bytes().checked_mul(state.table.blocks());
                if let Some(ticket) = pool.try_park(&mut state.table, covered) {
                    state.pending_copy_bytes += moved.unwrap_or(Bytes::ZERO);
                    state.spill = Some(ticket);
                    return true;
                }
            }
            if force {
                // No spill room either (or none configured): forced growth
                // past the budget is the only remaining escape.
                if let Some(ticket) = state.spill.take() {
                    let restored = pool.try_restore(&mut state.table, &ticket, true);
                    debug_assert!(restored, "forced restore cannot be refused");
                    state.pending_copy_bytes += ticket.bytes();
                }
                pool.grow_to_forced(&mut state.table, covered);
                return true;
            }
            return false;
        }
        true
    }

    /// Price a KV image transfer (spill, restore or copy-on-write) on the
    /// serial DMA engine: the cycles from `now` until the transfer
    /// completes, including any queueing behind an earlier transfer still
    /// in flight. Zero when no engine is configured or nothing moves.
    fn dma_transfer_cycles(dma: &mut Option<DmaEngine>, bytes: Bytes, now: Cycles) -> Cycles {
        let Some(engine) = dma.as_mut() else {
            return Cycles::ZERO;
        };
        if bytes.is_zero() {
            return Cycles::ZERO;
        }
        let transcript = engine.submit(DmaRequest::new(bytes, MemTrafficClass::KvCache), now);
        transcript.end_cycle - now
    }

    /// Isolated end-to-end cycles of one request (no queueing, no batching):
    /// the latency lower bound that serving can only add to. Includes the
    /// configured chunking overhead and the pool's KV scaling, so it is the
    /// solo latency *under this serving configuration* — in paged mode that
    /// means per-step pricing at the growing context (step `s` attends over
    /// `prompt + s` cached tokens) with blocks allocated as it grows.
    pub fn solo_cycles(&self, request: &ServeRequest) -> Cycles {
        let mut memo = DecodeMemo::default();
        let state = self.admit(request, &mut memo);
        let mut total = state.prefill_cycles;
        let Some(block_tokens) = self.config.block_tokens else {
            let mut kv = self.config.kv;
            kv.try_reserve(state.kv_bytes);
            let contexts = iter::once(state.average_context);
            let step = self.decode_step_cycles(contexts, kv.kv_traffic_factor(), &mut memo);
            return total + step * request.output_tokens;
        };
        let mut pool = PagedKvPool::new(self.config.kv, block_tokens, self.kv_bytes_per_token);
        let mut table = BlockTable::empty();
        pool.try_grow_to(&mut table, Tokens::new(state.prompt_tokens));
        for context in state.prompt_tokens..state.prompt_tokens + request.output_tokens {
            // A solo stream always grows (the sole-owner escape hatch).
            pool.try_grow_to(&mut table, Tokens::new(context + 1));
            let factor = pool.kv_traffic_factor();
            total += self.decode_step_cycles(iter::once(context), factor, &mut memo);
        }
        total
    }

    /// The reference engine's decode-step pricer: the per-operator sum
    ///
    /// ```text
    /// Σ_ops max( Σ_streams compute, weight DRAM + kv_factor · Σ_streams KV DRAM )
    /// ```
    ///
    /// over each batch member's own operator stream, priced by
    /// [`Machine::decode_step_costs_at`] at its step context (memoised per
    /// context in `op_streams`). All requests serve the same model, so the
    /// streams align positionally; the weight fetch is issued once for the
    /// batch, while compute and KV-cache traffic repeat per stream.
    /// [`Self::decode_step_cycles`] is this sum reassociated.
    #[cfg(any(test, feature = "reference"))]
    fn reference_step_cycles(
        &self,
        states: &[InFlight],
        batch: &[usize],
        kv_factor: f64,
        op_streams: &mut HashMap<usize, Vec<OpCost>>,
    ) -> Cycles {
        let paged = self.config.block_tokens.is_some();
        let contexts: Vec<usize> = batch
            .iter()
            .map(|&idx| states[idx].step_context(paged))
            .collect();
        for &context in &contexts {
            op_streams.entry(context).or_insert_with(|| {
                self.machine.decode_step_costs_at(
                    &self.probe,
                    ClusterKind::MemoryCentric,
                    self.config.pruning,
                    context,
                )
            });
        }
        let streams: Vec<&[OpCost]> = contexts.iter().map(|c| &op_streams[c][..]).collect();
        let mut total = Cycles::ZERO;
        for op in 0..streams[0].len() {
            let mut compute = Cycles::ZERO;
            let mut kv_dram = Cycles::ZERO;
            let mut weight_dram = Cycles::ZERO;
            for costs in &streams {
                let cost = &costs[op];
                compute += cost.compute_cycles;
                if cost.traffic_class == TrafficClass::KvCache {
                    kv_dram += cost.dram_cycles;
                } else {
                    weight_dram = weight_dram.max(cost.dram_cycles);
                }
            }
            if !is_one(kv_factor) {
                kv_dram = kv_dram.scale_round(kv_factor);
            }
            total += compute.max(weight_dram + kv_dram);
        }
        total.max(Cycles::new(1))
    }

    /// The reference engine: the original advance-and-scan event loop,
    /// kept as the behavioural oracle for the [`ServeEngine`] behind
    /// [`Self::run`] (whose stage methods carry the model's rationale). It
    /// orders arrivals by a sorted index of its own, not by the engine's
    /// pending tail. The differential harness (this crate's unit tests and
    /// the workspace `tests/properties.rs`) replays traces through both and
    /// asserts byte-identical [`ServeReport`]s.
    ///
    /// Compiled for this crate's tests and behind the `reference` feature
    /// for external harnesses; it is not part of the production API.
    ///
    /// # Panics
    ///
    /// Panics if two requests share an id or a policy returns an
    /// out-of-range index.
    #[cfg(any(test, feature = "reference"))]
    pub fn run_reference(
        &self,
        requests: &[ServeRequest],
        policy: &dyn SchedulePolicy,
    ) -> ServeReport {
        let clock_hz = self.clock_hz();
        let mut memo = DecodeMemo::default();
        let mut states: Vec<InFlight> = requests.iter().map(|r| self.admit(r, &mut memo)).collect();
        {
            let mut ids: Vec<u64> = requests.iter().map(|r| r.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), requests.len(), "request ids must be unique");
        }

        // Arrival order, stable on (cycle, id).
        let mut order: Vec<usize> = (0..states.len()).collect();
        order.sort_by_key(|&i| (states[i].arrival_cycle, states[i].request.id));

        let mut next_arrival = 0usize;
        let mut cc_queue: Vec<usize> = Vec::new();
        let mut ready: Vec<usize> = Vec::new();
        let mut batch: Vec<usize> = Vec::new();
        let mut cc_busy: Option<(Cycles, usize)> = None;
        let mut step_end: Option<Cycles> = None;
        let mut kv = self.config.kv;
        let mut paged = self.paged_pool();
        let cc_gated = self.config.cc_gated();
        let accounted = self.config.accounted();
        let mut dma = self.dma_engine(paged.as_ref());
        let mut op_streams: HashMap<usize, Vec<OpCost>> = HashMap::new();
        let mut restarted_prefill_tokens = Tokens::ZERO;
        let mut completed_order: Vec<usize> = Vec::new();
        let mut rejected_order: Vec<(usize, Cycles)> = Vec::new();
        let mut queue_samples: Vec<QueueSample> = Vec::new();
        let mut decode_steps = 0u64;
        let mut preemptions = 0u64;
        // The only request a pick can preempt.
        let mut cc_resumable: Option<usize> = None;

        loop {
            // Earliest pending event across the three sources.
            let mut next: Option<Cycles> = None;
            let mut consider = |t: Cycles| next = Some(next.map_or(t, |n: Cycles| n.min(t)));
            if next_arrival < order.len() {
                consider(states[order[next_arrival]].arrival_cycle);
            }
            if let Some((end, _)) = cc_busy {
                consider(end);
            }
            if let Some(end) = step_end {
                consider(end);
            }
            let Some(now) = next else { break };

            // Drain everything due: arrivals, then the chunk, then the step.
            while next_arrival < order.len() && states[order[next_arrival]].arrival_cycle <= now {
                cc_queue.push(order[next_arrival]);
                next_arrival += 1;
            }
            if let Some((end, idx)) = cc_busy {
                if end <= now {
                    let done = states[idx].chunks_done;
                    let chunk = states[idx].chunk_cycles[done];
                    states[idx].remaining_prefill_cycles -= chunk;
                    states[idx].chunks_done = done + 1;
                    if states[idx].prefill_finished() {
                        // TTFT freezes at the first prefill completion.
                        if !states[idx].has_first_token {
                            states[idx].prefill_end = now;
                            states[idx].has_first_token = true;
                        }
                        ready.push(idx);
                    } else {
                        // Back to the queue: the next pick may preempt it.
                        cc_queue.push(idx);
                        cc_resumable = Some(idx);
                    }
                    cc_busy = None;
                }
            }
            if let Some(end) = step_end {
                if end <= now {
                    for &idx in &batch {
                        states[idx].remaining_tokens -= 1;
                        states[idx].generated += 1;
                    }
                    batch.retain(|&idx| {
                        let finished = states[idx].remaining_tokens == 0;
                        if finished {
                            states[idx].finish = now;
                            match paged.as_mut() {
                                Some(pool) => pool.release(&mut states[idx].table),
                                None => kv.release(states[idx].kv_bytes),
                            }
                            completed_order.push(idx);
                        }
                        !finished
                    });
                    step_end = None;
                }
            }

            // CC stage: admission control, then the policy's chunk pick.
            if cc_busy.is_none() && !cc_queue.is_empty() {
                if self.config.admission == AdmissionControl::Reject {
                    let mut i = 0;
                    while i < cc_queue.len() {
                        let idx = cc_queue[i];
                        if states[idx].ttft_feasible_at(now) {
                            i += 1;
                        } else {
                            cc_queue.swap_remove(i);
                            // Return held blocks; settle a spilled image (unpriced).
                            if let Some(pool) = paged.as_mut() {
                                if let Some(ticket) = states[idx].spill.take() {
                                    pool.try_restore(&mut states[idx].table, &ticket, true);
                                }
                                pool.release(&mut states[idx].table);
                            }
                            rejected_order.push((idx, now));
                        }
                    }
                }
                // Candidates: all, or the feasible subset under deferral.
                let pool: Vec<usize> = if self.config.admission == AdmissionControl::Defer {
                    let feasible: Vec<usize> = (0..cc_queue.len())
                        .filter(|&pos| states[cc_queue[pos]].ttft_feasible_at(now))
                        .collect();
                    if feasible.is_empty() {
                        (0..cc_queue.len()).collect()
                    } else {
                        feasible
                    }
                } else {
                    (0..cc_queue.len()).collect()
                };
                if !pool.is_empty() {
                    // The second pass forces the pick when gating would deadlock.
                    'dispatch: for force in [false, true] {
                        if force && !(cc_gated && batch.is_empty() && ready.is_empty()) {
                            break;
                        }
                        let mut candidates = pool.clone();
                        let mut snapshot: Vec<QueuedRequest> = candidates
                            .iter()
                            .map(|&pos| states[cc_queue[pos]].as_queued())
                            .collect();
                        while !candidates.is_empty() {
                            let pick = policy.choose(&snapshot);
                            assert!(
                                pick < candidates.len(),
                                "policy {} returned index {pick} for a queue of {}",
                                policy.name(),
                                candidates.len()
                            );
                            let idx = cc_queue[candidates[pick]];
                            // A refused candidate is skipped; the policy re-picks.
                            if cc_gated {
                                // lint:allow(no-unwrap): cc gating implies paged mode
                                let kv_pool = paged.as_mut().expect("gating needs a pool");
                                if force {
                                    // Park every other queued prefill's eager KV first.
                                    for &other in cc_queue.iter() {
                                        if other == idx
                                            || states[other].spill.is_some()
                                            || states[other].table.is_empty()
                                        {
                                            continue;
                                        }
                                        if let Some(ticket) =
                                            kv_pool.try_spill(&mut states[other].table)
                                        {
                                            states[idx].pending_copy_bytes += ticket.bytes();
                                            states[other].spill = Some(ticket);
                                        }
                                    }
                                }
                                if !self.cc_chunk_gate(&mut states[idx], kv_pool, force) {
                                    candidates.swap_remove(pick);
                                    snapshot.swap_remove(pick);
                                    continue;
                                }
                            }
                            cc_queue.swap_remove(candidates[pick]);
                            // A preemption displaces the request whose chunk just ran.
                            if cc_resumable
                                .is_some_and(|prev| idx != prev && cc_queue.contains(&prev))
                            {
                                preemptions += 1;
                            }
                            cc_resumable = None;
                            if states[idx].chunks_done == 0 {
                                states[idx].prefill_start = now;
                            }
                            // Copy-on-write bytes extend this chunk.
                            let copied =
                                std::mem::replace(&mut states[idx].pending_copy_bytes, Bytes::ZERO);
                            let copy_cycles = Self::dma_transfer_cycles(&mut dma, copied, now);
                            let chunk = states[idx].chunk_cycles[states[idx].chunks_done];
                            cc_busy = Some((now + chunk + copy_cycles, idx));
                            break 'dispatch;
                        }
                    }
                }
            }

            // MC stage: top-up in join order, (paged) growth, the step.
            if step_end.is_none() {
                let has_slot =
                    |batch_len: usize| self.config.batch_cap.map_or(true, |cap| batch_len < cap);
                match paged.as_mut() {
                    None => {
                        if has_slot(batch.len()) && !ready.is_empty() {
                            // `swap_remove` in lockstep keeps the snapshot aligned.
                            let mut snapshot: Vec<QueuedRequest> =
                                ready.iter().map(|&idx| states[idx].as_queued()).collect();
                            while has_slot(batch.len()) && !ready.is_empty() {
                                let pick = policy.choose_join(&snapshot);
                                assert!(
                                    pick < ready.len(),
                                    "policy {} returned join index {pick} for a ready set of {}",
                                    policy.name(),
                                    ready.len()
                                );
                                if !kv.try_reserve(states[ready[pick]].kv_bytes) {
                                    break;
                                }
                                snapshot.swap_remove(pick);
                                let idx = ready.swap_remove(pick);
                                states[idx].decode_start = now;
                                batch.push(idx);
                            }
                        }
                        if !batch.is_empty() {
                            let factor = kv.kv_traffic_factor();
                            step_end = Some(
                                now + self.reference_step_cycles(
                                    &states,
                                    &batch,
                                    factor,
                                    &mut op_streams,
                                ),
                            );
                            decode_steps += 1;
                        }
                    }
                    Some(pool) => {
                        // DMA cycles this dispatch owes extend the step.
                        let mut dma_cycles = Cycles::ZERO;
                        // The least-urgent member by (priority, arrival, id).
                        let worst_of = |states: &[InFlight], batch: &[usize]| -> Option<usize> {
                            batch
                                .iter()
                                .enumerate()
                                .max_by_key(|&(_, &v)| {
                                    let s = &states[v];
                                    (s.request.slo.priority, s.arrival_cycle, s.request.id)
                                })
                                .map(|(pos, _)| pos)
                        };
                        if !ready.is_empty() {
                            let mut snapshot: Vec<QueuedRequest> =
                                ready.iter().map(|&idx| states[idx].as_queued()).collect();
                            'topup: while !ready.is_empty() {
                                let pick = policy.choose_join(&snapshot);
                                assert!(
                                    pick < ready.len(),
                                    "policy {} returned join index {pick} for a ready set of {}",
                                    policy.name(),
                                    ready.len()
                                );
                                let idx = ready[pick];
                                let admit = |states: &mut Vec<InFlight>,
                                             batch: &mut Vec<usize>,
                                             pool: &mut PagedKvPool,
                                             dma: &mut Option<DmaEngine>,
                                             dma_cycles: &mut Cycles|
                                 -> bool {
                                    has_slot(batch.len()) && {
                                        if let Some(ticket) = states[idx].spill {
                                            // Restore a spilled image (forced into an empty batch).
                                            let force = batch.is_empty();
                                            if pool.try_restore(
                                                &mut states[idx].table,
                                                &ticket,
                                                force,
                                            ) {
                                                states[idx].spill = None;
                                                *dma_cycles += Self::dma_transfer_cycles(
                                                    dma,
                                                    ticket.bytes(),
                                                    now,
                                                );
                                                true
                                            } else {
                                                false
                                            }
                                        } else {
                                            let context = Tokens::new(states[idx].context_tokens());
                                            if pool.try_grow_to(&mut states[idx].table, context) {
                                                true
                                            } else if accounted && batch.is_empty() {
                                                // Queued streams hold blocks: force the join.
                                                pool.grow_to_forced(
                                                    &mut states[idx].table,
                                                    context,
                                                );
                                                true
                                            } else {
                                                false
                                            }
                                        }
                                    }
                                };
                                if !admit(&mut states, &mut batch, pool, &mut dma, &mut dma_cycles)
                                {
                                    // Revoke less-urgent slots only if that admits the pick.
                                    let evictable: Vec<usize> = batch
                                        .iter()
                                        .filter(|&&v| {
                                            states[v].request.slo.priority
                                                > states[idx].request.slo.priority
                                        })
                                        .copied()
                                        .collect();
                                    let freed: u64 = evictable
                                        .iter()
                                        .map(|&v| pool.reclaimable_blocks(&states[v].table))
                                        .sum();
                                    let needed = match states[idx].spill {
                                        // A spilled pick restores its whole image.
                                        Some(ticket) => ticket.blocks(),
                                        None => pool
                                            .blocks_for(Tokens::new(states[idx].context_tokens()))
                                            .saturating_sub(states[idx].table.blocks()),
                                    };
                                    let occupied = pool.occupied_blocks();
                                    // Evicting the whole batch always admits the pick.
                                    let kv_feasible = evictable.len() == batch.len()
                                        || pool
                                            .block_bytes()
                                            .checked_mul(occupied - freed + needed)
                                            .unwrap_or(Bytes::MAX)
                                            <= pool.budget_bytes();
                                    let slot_feasible = has_slot(batch.len() - evictable.len());
                                    if !(kv_feasible && slot_feasible) {
                                        break 'topup;
                                    }
                                    loop {
                                        let pos = worst_of(&states, &batch)
                                            .filter(|&pos| {
                                                states[batch[pos]].request.slo.priority
                                                    > states[idx].request.slo.priority
                                            })
                                            // lint:allow(no-unwrap): kv_feasible checked above
                                            .expect("feasibility guaranteed a victim");
                                        let victim = batch.remove(pos);
                                        // Spill when the area has room, else evict and re-prefill.
                                        match pool.try_spill(&mut states[victim].table) {
                                            Some(ticket) => {
                                                dma_cycles += Self::dma_transfer_cycles(
                                                    &mut dma,
                                                    ticket.bytes(),
                                                    now,
                                                );
                                                states[victim].spill = Some(ticket);
                                                ready.push(victim);
                                                snapshot.push(states[victim].as_queued());
                                            }
                                            None => {
                                                pool.evict(&mut states[victim].table);
                                                restarted_prefill_tokens +=
                                                    Tokens::new(states[victim].context_tokens());
                                                self.requeue_for_reprefill(&mut states[victim]);
                                                cc_queue.push(victim);
                                            }
                                        }
                                        if admit(
                                            &mut states,
                                            &mut batch,
                                            pool,
                                            &mut dma,
                                            &mut dma_cycles,
                                        ) {
                                            break;
                                        }
                                    }
                                }
                                snapshot.swap_remove(pick);
                                ready.swap_remove(pick);
                                if states[idx].decode_start == 0 {
                                    states[idx].decode_start = now;
                                }
                                batch.push(idx);
                            }
                        }
                        // Growth for this step's token; pressure evicts the least urgent.
                        let mut i = 0;
                        while i < batch.len() {
                            let idx = batch[i];
                            let target = Tokens::new(states[idx].context_tokens() + 1);
                            if pool.try_grow_to(&mut states[idx].table, target) {
                                i += 1;
                                continue;
                            }
                            if accounted && batch.len() == 1 {
                                // Sole member, blocks held elsewhere: force the growth.
                                pool.grow_to_forced(&mut states[idx].table, target);
                                i += 1;
                                continue;
                            }
                            // lint:allow(no-unwrap): loop guard keeps batch non-empty
                            let pos = worst_of(&states, &batch).expect("non-empty batch");
                            let victim = batch.remove(pos);
                            match pool.try_spill(&mut states[victim].table) {
                                Some(ticket) => {
                                    dma_cycles +=
                                        Self::dma_transfer_cycles(&mut dma, ticket.bytes(), now);
                                    states[victim].spill = Some(ticket);
                                    ready.push(victim);
                                }
                                None => {
                                    pool.evict(&mut states[victim].table);
                                    restarted_prefill_tokens +=
                                        Tokens::new(states[victim].context_tokens());
                                    self.requeue_for_reprefill(&mut states[victim]);
                                    cc_queue.push(victim);
                                }
                            }
                            if pos < i {
                                i -= 1;
                            }
                        }
                        if !batch.is_empty() {
                            // DMA serialises with the step that triggered it.
                            step_end = Some(
                                now + self.reference_step_cycles(
                                    &states,
                                    &batch,
                                    pool.kv_traffic_factor(),
                                    &mut op_streams,
                                ) + dma_cycles,
                            );
                            decode_steps += 1;
                        }
                    }
                }
            }

            queue_samples.push(QueueSample {
                time_s: now.seconds_at(clock_hz),
                waiting: cc_queue.len() + ready.len(),
                active: batch.len(),
                kv_bytes: paged
                    .as_ref()
                    .map_or(kv.reserved_bytes(), |pool| pool.occupied_bytes()),
            });
        }

        self.assemble_report(
            &states,
            &completed_order,
            &rejected_order,
            queue_samples,
            decode_steps,
            preemptions,
            restarted_prefill_tokens,
            &kv,
            paged.as_ref(),
        )
    }

    /// Assemble the [`ServeReport`] from the engine's final state. Shared by
    /// [`ServeEngine`] and the reference engine, so the two can only ever
    /// differ in the state they hand over — never in how it is summarised.
    #[allow(clippy::too_many_arguments)]
    fn assemble_report(
        &self,
        states: &[InFlight],
        completed_order: &[usize],
        rejected_order: &[(usize, Cycles)],
        queue_samples: Vec<QueueSample>,
        decode_steps: u64,
        preemptions: u64,
        restarted_prefill_tokens: Tokens,
        kv: &KvPool,
        paged: Option<&PagedKvPool>,
    ) -> ServeReport {
        let clock_hz = self.clock_hz();
        debug_assert_eq!(completed_order.len() + rejected_order.len(), states.len());
        let completed: Vec<CompletedRequest> = completed_order
            .iter()
            .map(|&idx| {
                let s = &states[idx];
                CompletedRequest {
                    id: s.request.id,
                    arrival_s: s.arrival_cycle.seconds_at(clock_hz),
                    prefill_start_s: s.prefill_start.seconds_at(clock_hz),
                    prefill_end_s: s.prefill_end.seconds_at(clock_hz),
                    decode_start_s: s.decode_start.seconds_at(clock_hz),
                    finish_s: s.finish.seconds_at(clock_hz),
                    output_tokens: s.request.output_tokens,
                    slo: s.request.slo,
                }
            })
            .collect();
        let rejected: Vec<RejectedRequest> = rejected_order
            .iter()
            .map(|&(idx, cycle)| {
                let s = &states[idx];
                RejectedRequest {
                    id: s.request.id,
                    arrival_s: s.arrival_cycle.seconds_at(clock_hz),
                    reject_s: cycle.seconds_at(clock_hz),
                    slo: s.request.slo,
                }
            })
            .collect();
        let first_arrival = states
            .iter()
            .map(|s| s.arrival_cycle)
            .min()
            .unwrap_or(Cycles::ZERO);
        // First arrival to *last completion* — a straggler that arrives
        // after the machine drained and is promptly rejected consumed no
        // resources and must not dilute the throughput metrics.
        let makespan_s = completed_order.last().map_or(0.0, |&idx| {
            (states[idx].finish - first_arrival).seconds_at(clock_hz)
        });
        ServeReport {
            total_output_tokens: completed.iter().map(|r| Tokens::new(r.output_tokens)).sum(),
            completed,
            rejected,
            queue_samples,
            decode_steps,
            preemptions,
            evictions: paged.as_ref().map_or(0, |pool| pool.evictions()),
            restarted_prefill_tokens,
            spilled_kv_bytes: paged
                .as_ref()
                .map_or(Bytes::ZERO, |pool| pool.spilled_bytes()),
            restored_kv_bytes: paged
                .as_ref()
                .map_or(Bytes::ZERO, |pool| pool.restored_bytes()),
            peak_kv_bytes: paged
                .as_ref()
                .map_or(kv.peak_bytes(), |pool| pool.peak_bytes()),
            makespan_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{EarliestDeadlineFirst, Fcfs, PolicyKind, ShortestPromptFirst, Unkeyed};
    use crate::slo::SloClass;
    use crate::trace::TraceConfig;
    use edgemm_mllm::zoo;
    use edgemm_sim::SimConfig;

    fn machine() -> Machine {
        Machine::new(SimConfig::paper_default())
    }

    fn simulator(machine: &Machine, batch_cap: usize) -> ServeSimulator<'_> {
        ServeSimulator::new(
            machine,
            zoo::sphinx_tiny(),
            ServeConfig::with_batch_cap(batch_cap),
        )
    }

    #[test]
    fn single_request_matches_solo_cost() {
        // Under the unchunked, unbounded configuration a lone request costs
        // exactly its single-request `Machine::run_request` latency, in
        // integer cycles, dense and pruned; serving it alone takes exactly
        // that long.
        let m = machine();
        let clock_hz = m.config().chip.clock_mhz as f64 * 1.0e6;
        for pruning in [
            PruningEffect::disabled(),
            PruningEffect::with_keep_ratio(0.3),
        ] {
            let config = ServeConfig {
                pruning,
                ..ServeConfig::with_batch_cap(4)
            };
            let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
            for (text, output) in [(20, 8), (0, 1), (96, 33), (300, 64)] {
                let request = ServeRequest::new(0, 0.0, text, output);
                let workload = ModelWorkload::new(zoo::sphinx_tiny(), text, output);
                let single = m.run_request(&workload, DecodeOptions { pruning, batch: 1 });
                let solo = sim.solo_cycles(&request);
                assert_eq!(
                    solo,
                    single.total_cycles(),
                    "{text}/{output} tokens at keep {}",
                    pruning.keep_ratio
                );
                let report = sim.run(&[request], &Fcfs);
                assert_eq!(report.completed.len(), 1);
                let expected_s = solo.seconds_at(clock_hz);
                let got = report.completed[0].latency_s();
                assert!(
                    (got - expected_s).abs() / expected_s < 1e-12,
                    "solo latency {got} vs expected {expected_s}"
                );
            }
        }
    }

    #[test]
    fn all_requests_complete_exactly_once() {
        let m = machine();
        let sim = simulator(&m, 3);
        let trace = TraceConfig::interactive(12, 50.0, 9).generate();
        let report = sim.run(&trace, &ShortestPromptFirst);
        assert_eq!(report.completed.len(), 12);
        let mut ids: Vec<u64> = report.completed.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<u64>>());
        assert_eq!(
            report.total_output_tokens,
            trace.iter().map(|r| r.output_tokens).sum::<usize>()
        );
    }

    #[test]
    fn timelines_are_ordered() {
        let m = machine();
        let sim = simulator(&m, 2);
        let trace = TraceConfig::interactive(8, 200.0, 3).generate();
        let report = sim.run(&trace, &Fcfs);
        for r in &report.completed {
            assert!(r.prefill_start_s >= r.arrival_s - 1e-12, "{r:?}");
            assert!(r.prefill_end_s > r.prefill_start_s, "{r:?}");
            assert!(r.decode_start_s >= r.prefill_end_s - 1e-12, "{r:?}");
            assert!(r.finish_s > r.decode_start_s, "{r:?}");
        }
    }

    #[test]
    fn batching_shares_weight_fetches() {
        // A saturated trace decoded with a large cap must finish in far less
        // time than with cap 1: the memory-bound decode steps share the
        // weight stream across the batch.
        let m = machine();
        let trace = TraceConfig::saturated(6, 20, 24).generate();
        let serial = simulator(&m, 1).run(&trace, &Fcfs);
        let batched = simulator(&m, 6).run(&trace, &Fcfs);
        assert!(
            batched.makespan_s < 0.6 * serial.makespan_s,
            "batched {} vs serial {}",
            batched.makespan_s,
            serial.makespan_s
        );
        assert!(batched.mean_batch_occupancy() > 2.0);
        assert!(serial.mean_batch_occupancy() <= 1.0 + 1e-12);
    }

    #[test]
    fn factored_step_pricing_matches_the_per_op_sum_at_any_batch() {
        // The serving differentials never batch enough streams to make a
        // weight-facing op compute-bound (25 on SPHINX-Tiny), so price such
        // batches here against the reference's per-op sum, in both modes
        // and at neutral, on-chip and spilled KV factors.
        let m = machine();
        for config in [ServeConfig::new(), ServeConfig::new().with_block_tokens(16)] {
            let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
            let paged = config.block_tokens.is_some();
            let mut memo = DecodeMemo::default();
            let mut states: Vec<InFlight> = (0..64)
                .map(|i| ServeRequest::new(i, 0.0, 7 * i as usize, 1 + 3 * i as usize))
                .map(|request| sim.admit(&request, &mut memo))
                .collect();
            for (i, state) in states.iter_mut().enumerate() {
                state.generated = i % 5;
            }
            let shape = sim.step_shape();
            assert!(shape.weight_ops.iter().any(|&(c, d)| c * 64usize > d));
            let mut op_streams = HashMap::new();
            for streams in [1, 8, 25, 40, 64] {
                let batch: Vec<usize> = (0..streams).collect();
                for kv_factor in [1.0, 0.0, 0.6, 1.25] {
                    let contexts = batch.iter().map(|&idx| states[idx].step_context(paged));
                    assert_eq!(
                        sim.decode_step_cycles(contexts, kv_factor, &mut memo),
                        sim.reference_step_cycles(&states, &batch, kv_factor, &mut op_streams),
                        "{streams} streams at KV factor {kv_factor}, paged: {paged}"
                    );
                }
            }
        }
    }

    /// The CC stage's chunk list for `workload` from the full operator
    /// stream: `Machine::prefill_chunk_costs` (no budget is one chunk),
    /// `setup` folded into chunk 0, every chunk clamped to one cycle.
    fn oracle_chunks(
        m: &Machine,
        workload: &ModelWorkload,
        budget: Option<usize>,
        setup: Cycles,
    ) -> Vec<Cycles> {
        let kind = ClusterKind::ComputeCentric;
        let chunks = m.prefill_chunk_costs(workload, kind, budget.unwrap_or(usize::MAX));
        chunks
            .iter()
            .enumerate()
            .map(|(i, chunk)| {
                let setup = if i == 0 { setup } else { Cycles::ZERO };
                (setup + chunk.cycles).max(Cycles::new(1))
            })
            .collect()
    }

    #[test]
    fn chunk_pricing_matches_the_full_stream_oracle() {
        // The engine prices a chunk from one decoder layer; the oracle
        // walks every layer's operators. The reference engine shares
        // `admit`, so only this test would catch a wrong layer multiplier.
        let m = machine();
        let options = DecodeOptions::baseline();
        for model in zoo::table1_models() {
            let setup: Cycles = [Phase::VisionEncode, Phase::Projector]
                .iter()
                .map(|&phase| {
                    let workload = ModelWorkload::new(model.clone(), 0, 1);
                    m.run_phase_on(&workload, phase, ClusterKind::ComputeCentric, options)
                        .cycles
                })
                .sum();
            for budget in [Some(1), Some(7), Some(64), None] {
                let mut config = ServeConfig::new();
                config.chunk_tokens = budget;
                let sim = ServeSimulator::new(&m, model.clone(), config);
                let mut memo = DecodeMemo::default();
                let label = format!("{} at budget {budget:?}", model.name);
                // Cold, then warm: the second admission of each prompt
                // reads every chunk from the memo.
                for pass in ["cold", "warm"] {
                    for (text, output) in [(0, 1), (13, 9), (40, 4)] {
                        let request = ServeRequest::new(0, 0.0, text, output);
                        let state = sim.admit(&request, &mut memo);
                        let workload = ModelWorkload::new(model.clone(), text, output);
                        let expected = oracle_chunks(&m, &workload, budget, setup);
                        assert_eq!(state.chunk_cycles, expected, "{label}, {pass}, {text}");
                        let total: Cycles = expected.iter().copied().sum();
                        assert_eq!(state.prefill_cycles, total, "{label}, {pass}, {text}");
                    }
                }
                // An eviction re-prefills the prompt and the generated
                // tokens, without the setup.
                let request = ServeRequest::new(0, 0.0, 13, 9);
                let mut state = sim.admit(&request, &mut memo);
                state.generated = 5;
                state.remaining_tokens = 4;
                sim.requeue_for_reprefill(&mut state);
                let workload = ModelWorkload::new(model.clone(), 13 + 5, 4);
                let expected = oracle_chunks(&m, &workload, budget, Cycles::ZERO);
                assert_eq!(state.chunk_cycles, expected, "{label}, re-prefill");
                assert_eq!(
                    state.remaining_prefill_cycles,
                    expected.iter().copied().sum::<Cycles>(),
                    "{label}, re-prefill"
                );
            }
        }
    }

    #[test]
    fn a_clone_shares_the_pricing_memo_and_a_new_simulator_does_not() {
        let m = machine();
        let config = ServeConfig::with_batch_cap(4).with_chunk_tokens(64);
        let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
        let clone = sim.clone();
        let trace = TraceConfig::interactive(8, 40.0, 3).generate();
        let served = clone.run(&trace, &Fcfs);
        let entries = |sim: &ServeSimulator<'_>| {
            // lint:allow(no-unwrap): poisoning only follows a prior panic
            let cache = sim.memo.chunk_cache.lock().expect("chunk cache poisoned");
            cache.len()
        };
        let priced = entries(&sim);
        assert!(priced > 0, "the clone priced nothing into the shared memo");
        assert!(sim.memo.setup_cycles.get().is_some());
        assert!(sim.memo.step_shape.get().is_some());
        assert_eq!(sim.run(&trace, &Fcfs), served);
        assert_eq!(entries(&sim), priced, "the original re-priced a chunk");
        let fresh = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
        assert_eq!(entries(&fresh), 0);
        assert_eq!(fresh.run(&trace, &Fcfs), served);
    }

    #[test]
    fn continuous_batching_backfills_the_batch() {
        // With more requests than the cap, finished streams must be replaced
        // without draining: the number of decode steps stays well below the
        // serial step count.
        let m = machine();
        let sim = simulator(&m, 4);
        let trace = TraceConfig::saturated(8, 16, 16).generate();
        let report = sim.run(&trace, &Fcfs);
        let serial_steps: usize = trace.iter().map(|r| r.output_tokens).sum();
        assert!(
            report.decode_steps < serial_steps as u64 / 2,
            "steps = {} vs serial {serial_steps}",
            report.decode_steps
        );
        assert_eq!(report.total_output_tokens, serial_steps);
    }

    #[test]
    fn queue_depth_rises_under_burst_and_drains() {
        let m = machine();
        let sim = simulator(&m, 4);
        let trace = TraceConfig::saturated(10, 16, 8).generate();
        let report = sim.run(&trace, &Fcfs);
        assert!(report.max_queue_depth() >= 8);
        assert_eq!(report.queue_samples.last().unwrap().waiting, 0);
        assert_eq!(report.queue_samples.last().unwrap().active, 0);
    }

    #[test]
    fn policies_reorder_but_serve_everyone() {
        let m = machine();
        let sim = simulator(&m, 4);
        let trace = TraceConfig::saturated(9, 8, 12)
            .generate()
            .into_iter()
            .enumerate()
            .map(|(i, mut r)| {
                // Heterogeneous prompts so the policies actually differ.
                r.text_tokens = 8 + 40 * (i % 3);
                r
            })
            .collect::<Vec<_>>();
        for kind in PolicyKind::ALL {
            let report = sim.run(&trace, kind.policy());
            assert_eq!(report.completed.len(), trace.len(), "{kind:?}");
            assert!(report.rejected.is_empty(), "{kind:?}");
        }
    }

    #[test]
    fn reject_admission_drops_hopeless_requests() {
        // A saturated burst with a TTFT budget only a few prefills deep:
        // the head of the queue completes, the tail is rejected, and
        // completed + rejected account for every submission.
        let m = machine();
        let slo = SloClass::interactive().with_ttft(0.15);
        let trace: Vec<ServeRequest> = TraceConfig::saturated(12, 24, 8)
            .generate()
            .into_iter()
            .map(|r| r.with_slo(slo))
            .collect();
        let config = ServeConfig::with_batch_cap(4).with_admission(AdmissionControl::Reject);
        let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
        let report = sim.run(&trace, &EarliestDeadlineFirst);
        assert!(!report.rejected.is_empty(), "nothing was rejected");
        assert!(!report.completed.is_empty(), "everything was rejected");
        assert_eq!(report.completed.len() + report.rejected.len(), trace.len());
        // No id in both lists.
        for r in &report.rejected {
            assert!(report.completed.iter().all(|c| c.id != r.id));
            assert!(r.reject_s >= r.arrival_s);
        }
        // Load shedding pays off: every survivor met its TTFT deadline.
        assert!(report.completed.iter().all(|c| c.meets_ttft()));
    }

    #[test]
    fn defer_admission_serves_everyone_but_protects_the_feasible() {
        let m = machine();
        let slo = SloClass::interactive().with_ttft(0.15);
        let trace: Vec<ServeRequest> = TraceConfig::saturated(12, 24, 8)
            .generate()
            .into_iter()
            .map(|r| r.with_slo(slo))
            .collect();
        let defer = ServeConfig::with_batch_cap(4).with_admission(AdmissionControl::Defer);
        let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), defer);
        let report = sim.run(&trace, &EarliestDeadlineFirst);
        assert_eq!(report.completed.len(), trace.len());
        assert!(report.rejected.is_empty());
        // Deferral cannot drop anyone, so some requests miss...
        assert!(report.deadline_misses() > 0);
        // ...but at least as many meet TTFT as under admit-all FCFS.
        let baseline = ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::with_batch_cap(4))
            .run(&trace, &Fcfs);
        let met = |r: &ServeReport| r.completed.iter().filter(|c| c.meets_ttft()).count();
        assert!(met(&report) >= met(&baseline));
    }

    #[test]
    fn join_order_follows_the_policy() {
        // Cap 1 and a simultaneous burst (so the CC stage sees all three
        // before choosing): under EDF the interactive stream must take the
        // decode slot before lower-id batch work; under FCFS id order wins.
        let m = machine();
        let requests = [
            ServeRequest::new(0, 0.0, 16, 24).with_slo(SloClass::batch()),
            ServeRequest::new(1, 0.0, 16, 24).with_slo(SloClass::batch()),
            ServeRequest::new(2, 0.0, 16, 24).with_slo(SloClass::interactive().with_tpot(10.0)),
        ];
        let sim = simulator(&m, 1);
        let edf = sim.run(&requests, &EarliestDeadlineFirst);
        let fcfs = sim.run(&requests, &Fcfs);
        let decode_rank = |report: &ServeReport, id: u64| {
            let mut starts: Vec<(f64, u64)> = report
                .completed
                .iter()
                .map(|c| (c.decode_start_s, c.id))
                .collect();
            starts.sort_by(|a, b| edgemm_core::float::total_cmp(a.0, b.0).then(a.1.cmp(&b.1)));
            starts.iter().position(|&(_, i)| i == id).expect("served")
        };
        // EDF prefills the interactive request first (earliest deadline) and
        // its join ordering keeps priority; FCFS leaves it last.
        assert_eq!(decode_rank(&edf, 2), 0);
        assert_eq!(decode_rank(&fcfs, 2), 2);
    }

    #[test]
    fn chunked_single_chunk_reproduces_the_unchunked_run() {
        // chunk_tokens >= the prompt and an unbounded pool: the chunked code
        // path must be byte-for-byte the legacy simulator.
        let m = machine();
        let trace = TraceConfig::interactive(10, 40.0, 17).generate();
        let legacy = simulator(&m, 4).run(&trace, &EarliestDeadlineFirst);
        let chunked = ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::with_batch_cap(4).with_chunk_tokens(usize::MAX),
        )
        .run(&trace, &EarliestDeadlineFirst);
        assert_eq!(legacy, chunked);
    }

    #[test]
    fn chunking_preempts_a_long_prefill_for_an_urgent_arrival() {
        // A long batch-class prefill is underway when an interactive request
        // arrives. Unchunked, the arrival waits out the whole block; chunked,
        // EDF grabs the CC stage at the next chunk boundary and the
        // interactive TTFT collapses.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 768, 8).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.001, 8, 8).with_slo(SloClass::interactive());
        let run = |config: ServeConfig| {
            ServeSimulator::new(&m, zoo::sphinx_tiny(), config)
                .run(&[long, urgent], &EarliestDeadlineFirst)
        };
        let unchunked = run(ServeConfig::with_batch_cap(4));
        let chunked = run(ServeConfig::with_batch_cap(4).with_chunk_tokens(160));
        let ttft = |report: &ServeReport| {
            report
                .completed
                .iter()
                .find(|c| c.id == 1)
                .expect("served")
                .time_to_first_token_s()
        };
        assert_eq!(unchunked.preemptions, 0);
        assert!(chunked.preemptions > 0, "no chunk-boundary preemption");
        // The urgent request escapes the long block early enough to beat
        // both the unchunked TTFT (by a wide margin — its own prefill now
        // carries chunk overhead, so the win must be structural) and its
        // 250 ms interactive deadline, which the unchunked run misses.
        assert!(
            ttft(&chunked) < 0.8 * ttft(&unchunked),
            "chunked TTFT {} vs unchunked {}",
            ttft(&chunked),
            ttft(&unchunked)
        );
        assert!(chunked.completed.iter().all(|c| c.meets_ttft()));
        assert_eq!(unchunked.deadline_misses(), 1);
    }

    #[test]
    fn fcfs_never_preempts_even_when_chunked() {
        // FCFS picks by arrival, so the in-progress (earliest) prefill wins
        // every chunk boundary: chunking must not change the order.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 256, 8);
        let late = ServeRequest::new(1, 0.001, 8, 8);
        let report = ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::with_batch_cap(4).with_chunk_tokens(64),
        )
        .run(&[long, late], &Fcfs);
        assert_eq!(report.preemptions, 0);
        let first_end = report.completed.iter().find(|c| c.id == 0).unwrap();
        let second_start = report.completed.iter().find(|c| c.id == 1).unwrap();
        assert!(second_start.prefill_start_s >= first_end.prefill_end_s - 1e-12);
    }

    #[test]
    fn kv_pool_bounds_the_batch_by_bytes() {
        // Identical requests; a pool sized for ~2 streams must cap the batch
        // at 2 even though no hard cap is set, and peak KV stays in budget.
        let m = machine();
        let trace = TraceConfig::saturated(6, 20, 16).generate();
        let per_stream = zoo::sphinx_tiny().llm.kv_cache_bytes(
            zoo::sphinx_tiny().prompt_tokens(20) + 16,
            m.config().mc_weight_bytes,
        );
        let config =
            ServeConfig::new().with_kv_pool(KvPool::with_budget(Bytes::new(2 * per_stream + 1)));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&trace, &Fcfs);
        assert_eq!(report.completed.len(), 6);
        assert!(report.peak_kv_bytes <= 2 * per_stream + 1);
        assert!(report.queue_samples.iter().all(|s| s.active <= 2));
        assert!(report.queue_samples.iter().any(|s| s.active == 2));
    }

    #[test]
    fn unbounded_pool_with_no_cap_batches_everything() {
        let m = machine();
        // Long enough generations that the first stream is still decoding
        // when the last prefill lands: all five must overlap.
        let trace = TraceConfig::saturated(5, 20, 64).generate();
        let report =
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::new()).run(&trace, &Fcfs);
        assert!(report.queue_samples.iter().any(|s| s.active == 5));
        assert_eq!(report.completed.len(), 5);
    }

    #[test]
    fn oversized_request_runs_solo_instead_of_deadlocking() {
        let m = machine();
        let trace = TraceConfig::saturated(3, 20, 16).generate();
        // Budget below a single stream's footprint: the escape hatch admits
        // one stream at a time and the run still drains.
        let config = ServeConfig::new().with_kv_pool(KvPool::with_budget(Bytes::new(1024)));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&trace, &Fcfs);
        assert_eq!(report.completed.len(), 3);
        assert!(report.queue_samples.iter().all(|s| s.active <= 1));
    }

    #[test]
    fn onchip_kv_tier_speeds_up_decode_steps() {
        // Same trace, same admission; a pool whose on-chip tier swallows the
        // whole batch's KV drops the KV DRAM traffic and finishes sooner
        // than the all-spill baseline.
        let m = machine();
        let trace = TraceConfig::saturated(4, 20, 32).generate();
        let run = |kv: KvPool| {
            ServeSimulator::new(
                &m,
                zoo::sphinx_tiny(),
                ServeConfig::with_batch_cap(4).with_kv_pool(kv),
            )
            .run(&trace, &Fcfs)
        };
        let spilled = run(KvPool::with_budget(Bytes::new(1 << 40)));
        let onchip = run(KvPool::with_budget(Bytes::new(1 << 40)).with_onchip(Bytes::new(1 << 40)));
        assert_eq!(spilled.completed.len(), onchip.completed.len());
        assert!(
            onchip.makespan_s < spilled.makespan_s,
            "on-chip KV did not help: {} vs {}",
            onchip.makespan_s,
            spilled.makespan_s
        );
    }

    #[test]
    fn spill_penalty_slows_decode_steps() {
        let m = machine();
        let trace = TraceConfig::saturated(4, 20, 32).generate();
        let run = |kv: KvPool| {
            ServeSimulator::new(
                &m,
                zoo::sphinx_tiny(),
                ServeConfig::with_batch_cap(4).with_kv_pool(kv),
            )
            .run(&trace, &Fcfs)
        };
        let neutral = run(KvPool::unbounded());
        let penalised = run(KvPool::with_budget(Bytes::new(1 << 40)).with_spill_penalty(2.0));
        assert!(
            penalised.makespan_s > neutral.makespan_s,
            "spill penalty had no effect"
        );
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let m = machine();
        let report = simulator(&m, 4).run(&[], &Fcfs);
        assert!(report.completed.is_empty());
        assert!(report.rejected.is_empty());
        assert_eq!(report.makespan_s, 0.0);
        assert_eq!(report.decode_steps, 0);
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.restarted_prefill_tokens, 0);
        assert_eq!(report.spilled_kv_bytes, Bytes::ZERO);
        assert_eq!(report.restored_kv_bytes, Bytes::ZERO);
        assert_eq!(report.peak_kv_bytes, 0);
    }

    fn paged_sim(machine: &Machine, kv: KvPool, block_tokens: usize) -> ServeSimulator<'_> {
        ServeSimulator::new(
            machine,
            zoo::sphinx_tiny(),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_block_tokens(block_tokens),
        )
    }

    #[test]
    fn paged_single_request_matches_its_solo_cost() {
        let m = machine();
        let sim = paged_sim(&m, KvPool::unbounded(), 16);
        let request = ServeRequest::new(0, 0.0, 20, 8);
        let report = sim.run(&[request], &Fcfs);
        assert_eq!(report.completed.len(), 1);
        let clock_hz = m.config().chip.clock_mhz as f64 * 1.0e6;
        let expected_s = sim.solo_cycles(&request).seconds_at(clock_hz);
        let got = report.completed[0].latency_s();
        assert!(
            (got - expected_s).abs() / expected_s < 1e-12,
            "paged solo latency {got} vs expected {expected_s}"
        );
    }

    #[test]
    fn paged_solo_steps_price_the_actual_context_per_step() {
        // With an unbounded (factor-neutral) pool, a paged solo run must
        // cost exactly prefill + the sum over steps of the cycle-level
        // decode step priced at that step's true context length.
        let m = machine();
        let sim = paged_sim(&m, KvPool::unbounded(), 16);
        let request = ServeRequest::new(0, 0.0, 20, 11);
        let workload = ModelWorkload::new(zoo::sphinx_tiny(), 20, 11);
        let prefill: Cycles = [Phase::VisionEncode, Phase::Projector, Phase::Prefill]
            .iter()
            .map(|&phase| {
                m.run_phase_on(
                    &workload,
                    phase,
                    ClusterKind::ComputeCentric,
                    DecodeOptions::baseline(),
                )
                .cycles
            })
            .sum();
        let decode: Cycles = (0..11)
            .map(|step| {
                m.decode_step_costs_at(
                    &workload,
                    ClusterKind::MemoryCentric,
                    PruningEffect::disabled(),
                    workload.prompt_tokens() + step,
                )
                .iter()
                .map(OpCost::latency_cycles)
                .sum::<Cycles>()
                .max(Cycles::new(1))
            })
            .sum();
        assert_eq!(sim.solo_cycles(&request), prefill + decode);
    }

    #[test]
    fn paged_allocation_fits_more_streams_than_peak_reservation() {
        // A budget sized for ~2 whole-request peak footprints of long
        // generations: peak reservation caps the batch at 2, while lazy
        // block allocation fits more streams (their early contexts are far
        // below peak — the prompt is ~55% of it here).
        let m = machine();
        let trace = TraceConfig::saturated(6, 20, 256).generate();
        let per_stream = zoo::sphinx_tiny().llm.kv_cache_bytes(
            zoo::sphinx_tiny().prompt_tokens(20) + 256,
            m.config().mc_weight_bytes,
        );
        let kv = KvPool::with_budget(Bytes::new(2 * per_stream + 1));
        let reserved =
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::new().with_kv_pool(kv))
                .run(&trace, &Fcfs);
        let paged = paged_sim(&m, kv, 16).run(&trace, &Fcfs);
        let max_active = |r: &ServeReport| r.queue_samples.iter().map(|s| s.active).max().unwrap();
        assert_eq!(reserved.completed.len(), 6);
        assert_eq!(paged.completed.len(), 6);
        assert!(max_active(&reserved) <= 2);
        assert!(
            max_active(&paged) > max_active(&reserved),
            "paged batched {} streams vs reserved {}",
            max_active(&paged),
            max_active(&reserved)
        );
        assert!(paged.peak_kv_bytes <= 2 * per_stream + 1);
    }

    #[test]
    fn paged_join_revokes_a_lower_priority_decode_slot() {
        // A batch-class stream with a long generation owns the pool when an
        // interactive request shows up. Under peak reservation the arrival
        // waits for the full drain; with paged eviction it revokes the
        // batch stream's slot, which re-queues for re-prefill and still
        // completes.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 64, 200).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.05, 8, 16).with_slo(SloClass::interactive());
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        // Room for the long stream's prefix plus a little growth, not for
        // both streams at once.
        let kv = KvPool::with_budget(Bytes::new(500 * per_token));
        let reserved =
            ServeSimulator::new(&m, zoo::sphinx_tiny(), ServeConfig::new().with_kv_pool(kv))
                .run(&[long, urgent], &EarliestDeadlineFirst);
        let paged = paged_sim(&m, kv, 16).run(&[long, urgent], &EarliestDeadlineFirst);
        assert_eq!(reserved.evictions, 0);
        assert!(paged.evictions >= 1, "no decode-slot revocation");
        assert!(paged.restarted_prefill_tokens > 0);
        assert_eq!(paged.completed.len(), 2, "an evicted request was lost");
        let decode_wait = |r: &ServeReport, id: u64| {
            let c = r.completed.iter().find(|c| c.id == id).expect("served");
            c.decode_start_s - c.prefill_end_s
        };
        // The revocation is what gets the interactive stream its slot
        // early; under peak reservation it waits out the long drain.
        assert!(
            decode_wait(&paged, 1) < 0.25 * decode_wait(&reserved, 1),
            "paged wait {} vs reserved wait {}",
            decode_wait(&paged, 1),
            decode_wait(&reserved, 1)
        );
    }

    #[test]
    fn futile_revocation_is_skipped_entirely() {
        // An interactive pick that would not fit even after revoking every
        // strictly-lower-priority stream must not evict anyone: the victim
        // would pay the full re-prefill recompute for zero admission
        // benefit. Here the batch-class stream's blocks are far fewer than
        // the pick still lacks, so the pick waits instead.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        // 68 blocks of 16 tokens: holds the two running streams at full
        // growth (43 + 24 blocks) but not the 31-block pick even with the
        // batch stream gone (43 + 31 > 68).
        let kv = KvPool::with_budget(Bytes::new(68 * 16 * per_token));
        let a = ServeRequest::new(0, 0.0, 312, 80).with_slo(SloClass::interactive());
        let b = ServeRequest::new(1, 0.001, 8, 80).with_slo(SloClass::batch());
        let c = ServeRequest::new(2, 0.3, 200, 8).with_slo(SloClass::interactive());
        let report = paged_sim(&m, kv, 16).run(&[a, b, c], &EarliestDeadlineFirst);
        assert_eq!(report.evictions, 0, "futile revocation evicted a stream");
        assert_eq!(report.restarted_prefill_tokens, 0);
        assert_eq!(report.completed.len(), 3);
        assert!(report.peak_kv_bytes <= kv.budget_bytes());
    }

    #[test]
    fn paged_growth_pressure_evicts_the_least_urgent_stream() {
        // Equal-priority saturated streams against a budget that cannot
        // hold both full contexts: growth pressure must evict (the later
        // id, by the deterministic tie-break) and everyone still finishes.
        let m = machine();
        let trace = TraceConfig::saturated(2, 20, 96).generate();
        let model = zoo::sphinx_tiny();
        let prompt = model.prompt_tokens(20);
        let per_token = model.llm.kv_bytes_per_token(m.config().mc_weight_bytes);
        // Both prompts fit; both full contexts (prompt + 96) do not.
        let kv = KvPool::with_budget(Bytes::new((2 * prompt + 96) as u64 * per_token));
        let report = paged_sim(&m, kv, 16).run(&trace, &Fcfs);
        assert!(report.evictions >= 1, "growth pressure never evicted");
        assert_eq!(report.completed.len(), 2);
        // The earlier-id stream survives the tie-break and finishes first.
        let finish = |id: u64| {
            report
                .completed
                .iter()
                .find(|c| c.id == id)
                .expect("served")
                .finish_s
        };
        assert!(finish(0) < finish(1));
        assert!(report.peak_kv_bytes <= kv.budget_bytes());
    }

    #[test]
    fn paged_oversized_request_runs_solo_instead_of_deadlocking() {
        let m = machine();
        let trace = TraceConfig::saturated(3, 20, 16).generate();
        let kv = KvPool::with_budget(Bytes::new(1024));
        let report = paged_sim(&m, kv, 16).run(&trace, &Fcfs);
        assert_eq!(report.completed.len(), 3);
        assert!(report.queue_samples.iter().all(|s| s.active <= 1));
    }

    #[test]
    fn paged_without_pressure_never_evicts() {
        let m = machine();
        let trace = TraceConfig::saturated(5, 20, 32).generate();
        let report = paged_sim(&m, KvPool::unbounded(), 16).run(&trace, &Fcfs);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.restarted_prefill_tokens, 0);
        assert_eq!(report.completed.len(), 5);
        assert!(report.queue_samples.iter().any(|s| s.active == 5));
    }

    #[test]
    fn shared_prefix_metadata_alone_changes_nothing() {
        // With every PR 7 feature off, a trace that merely *declares*
        // shared prefixes must reproduce the stripped trace byte for byte:
        // the metadata is inert until the simulator opts in.
        let m = machine();
        let trace = TraceConfig::multi_tenant(3, 16, 10.0, 5).generate();
        let stripped: Vec<ServeRequest> = trace
            .iter()
            .map(|r| ServeRequest {
                shared_prefix: None,
                ..*r
            })
            .collect();
        let sim = paged_sim(&m, KvPool::unbounded(), 16);
        assert_eq!(sim.run(&trace, &Fcfs), sim.run(&stripped, &Fcfs));
    }

    #[test]
    fn prefix_sharing_deduplicates_tenant_prompts() {
        // Three tenants, one physical copy of each system prompt: sharing
        // lowers the peak KV footprint, and skipping fully-reused prefill
        // chunks lowers the mean TTFT. Everyone still completes.
        let m = machine();
        let trace = TraceConfig::multi_tenant(3, 24, 10.0, 9).generate();
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::unbounded())
            .with_block_tokens(16)
            .with_chunk_tokens(64);
        let base = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&trace, &Fcfs);
        let shared = ServeSimulator::new(&m, zoo::sphinx_tiny(), config.with_prefix_sharing())
            .run(&trace, &Fcfs);
        assert_eq!(base.completed.len(), 24);
        assert_eq!(shared.completed.len(), 24);
        assert!(
            shared.peak_kv_bytes < base.peak_kv_bytes,
            "sharing did not shrink peak KV: {} vs {}",
            shared.peak_kv_bytes,
            base.peak_kv_bytes
        );
        let mean_ttft = |r: &ServeReport| {
            r.completed
                .iter()
                .map(CompletedRequest::time_to_first_token_s)
                .sum::<f64>()
                / r.completed.len() as f64
        };
        assert!(
            mean_ttft(&shared) < mean_ttft(&base),
            "reused prefix chunks did not speed up TTFT: {} vs {}",
            mean_ttft(&shared),
            mean_ttft(&base)
        );
    }

    #[test]
    fn spill_and_restore_replaces_recompute() {
        // The paged_join_revokes scenario with a spill area: the revoked
        // batch stream's KV image swaps out over DMA and back in instead of
        // being recomputed, so restarted prefill collapses to zero while
        // the spilled and restored byte counters balance.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 64, 200).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.05, 8, 16).with_slo(SloClass::interactive());
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(500 * per_token));
        let config = ServeConfig::new()
            .with_kv_pool(kv)
            .with_block_tokens(16)
            .with_spill_capacity(Bytes::new(1 << 30));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config)
            .run(&[long, urgent], &EarliestDeadlineFirst);
        assert!(report.evictions >= 1, "no decode-slot revocation");
        assert_eq!(
            report.restarted_prefill_tokens, 0,
            "spill-and-restore still recomputed"
        );
        assert!(report.spilled_kv_bytes > Bytes::ZERO);
        assert_eq!(report.spilled_kv_bytes, report.restored_kv_bytes);
        assert_eq!(report.completed.len(), 2, "a spilled request was lost");
    }

    #[test]
    fn exhausted_spill_area_falls_back_to_recompute() {
        // A spill area too small for a single KV image never admits a
        // spill: eviction degrades to the PR 5 recompute path and the run
        // still drains.
        let m = machine();
        let long = ServeRequest::new(0, 0.0, 64, 200).with_slo(SloClass::batch());
        let urgent = ServeRequest::new(1, 0.05, 8, 16).with_slo(SloClass::interactive());
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(500 * per_token));
        let config = ServeConfig::new()
            .with_kv_pool(kv)
            .with_block_tokens(16)
            .with_spill_capacity(Bytes::new(1));
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config)
            .run(&[long, urgent], &EarliestDeadlineFirst);
        assert!(report.restarted_prefill_tokens > 0, "never recomputed");
        assert_eq!(report.spilled_kv_bytes, Bytes::ZERO);
        assert_eq!(report.restored_kv_bytes, Bytes::ZERO);
        assert_eq!(report.completed.len(), 2);
    }

    #[test]
    fn eager_accounting_charges_kv_before_the_decode_slot() {
        // With eager accounting, KV written by finished prefill chunks
        // shows up in the pool's account while the stream is still waiting
        // for a decode slot: some sample reports KV bytes with zero active
        // decode streams.
        let m = machine();
        let request = ServeRequest::new(0, 0.0, 64, 8);
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::unbounded())
            .with_block_tokens(16)
            .with_chunk_tokens(32)
            .with_eager_kv_accounting();
        let report = ServeSimulator::new(&m, zoo::sphinx_tiny(), config).run(&[request], &Fcfs);
        assert_eq!(report.completed.len(), 1);
        assert!(
            report
                .queue_samples
                .iter()
                .any(|s| s.active == 0 && !s.kv_bytes.is_zero()),
            "no sample charged queued-prefill KV"
        );
    }

    #[test]
    #[should_panic(expected = "prefix sharing requires paged allocation")]
    fn prefix_sharing_without_paging_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_prefix_sharing(),
        );
    }

    #[test]
    #[should_panic(expected = "spill-and-restore requires paged allocation")]
    fn spill_capacity_without_paging_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_spill_capacity(Bytes::new(1 << 20)),
        );
    }

    #[test]
    #[should_panic(expected = "eager KV accounting requires paged allocation")]
    fn eager_accounting_without_paging_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_eager_kv_accounting(),
        );
    }

    #[test]
    #[should_panic(expected = "KV block size must be at least one token")]
    fn zero_block_tokens_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_block_tokens(0),
        );
    }

    #[test]
    #[should_panic(expected = "request ids must be unique")]
    fn duplicate_ids_rejected() {
        let m = machine();
        let sim = simulator(&m, 2);
        let requests = [
            ServeRequest::new(5, 0.0, 8, 4),
            ServeRequest::new(5, 0.1, 8, 4),
        ];
        sim.run(&requests, &Fcfs);
    }

    #[test]
    fn a_duplicated_id_panics_before_any_event_is_processed() {
        let m = machine();
        let sim = simulator(&m, 2);
        let mut trace = TraceConfig::interactive(6, 40.0, 3).generate();
        trace[4].id = trace[1].id;
        let mut scratch = ServeScratch::new();
        let served = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_with_scratch(&trace, &Fcfs, &mut scratch)
        }));
        let Err(panic) = served else {
            panic!("a duplicated id was served");
        };
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("request ids must be unique"), "{message}");
        assert_eq!(scratch.counters().events, 0);
    }

    #[test]
    #[should_panic(expected = "batch capacity must be at least 1")]
    fn zero_batch_cap_rejected() {
        let m = machine();
        simulator(&m, 0);
    }

    #[test]
    #[should_panic(expected = "chunk budget must be at least one token")]
    fn zero_chunk_budget_rejected() {
        let m = machine();
        ServeSimulator::new(
            &m,
            zoo::sphinx_tiny(),
            ServeConfig::new().with_chunk_tokens(0),
        );
    }

    #[test]
    fn heap_engine_matches_the_reference_engine() {
        // The in-crate differential check: the heap-scheduled `run` and the
        // reference advance-and-scan `run_reference` must produce
        // byte-identical reports across every configuration family, under
        // every built-in policy both keyed and behind `Unkeyed` (which
        // makes the heap engine scan). The workspace-level
        // `tests/properties.rs` widens this over proptest-randomized traces.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(900 * per_token));
        let gated = ServeConfig::new()
            .with_kv_pool(kv)
            .with_chunk_tokens(64)
            .with_block_tokens(16)
            .with_prefix_sharing()
            .with_eager_kv_accounting();
        let configs = [
            ServeConfig::with_batch_cap(4),
            ServeConfig::with_batch_cap(4)
                .with_chunk_tokens(64)
                .with_admission(AdmissionControl::Defer),
            ServeConfig::with_batch_cap(4)
                .with_chunk_tokens(64)
                .with_admission(AdmissionControl::Reject),
            ServeConfig::new().with_kv_pool(kv).with_chunk_tokens(64),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_chunk_tokens(64)
                .with_block_tokens(16),
            gated.with_spill_capacity(Bytes::new(64 << 20)),
            gated
                .with_spill_capacity(Bytes::new(64 << 20))
                .with_admission(AdmissionControl::Reject),
            // No spill area: the forced pick's growth past the budget.
            gated.with_admission(AdmissionControl::Defer),
        ];
        let traces = [
            TraceConfig::interactive(10, 40.0, 17).generate(),
            crate::trace::merge(&[
                TraceConfig::multi_tenant(3, 12, 10.0, 5).generate(),
                TraceConfig::background(3, 4.0, 11).generate(),
            ]),
        ];
        // The config × trace × policy combinations are independent
        // simulations; fan them out across the host pool. A divergence
        // panics inside its worker and `par_map` re-raises the smallest
        // combo index, so the reported failure is the same one the old
        // nested loops hit first.
        let combos: Vec<(usize, usize, PolicyKind)> = (0..configs.len())
            .flat_map(|ci| {
                (0..traces.len())
                    .flat_map(move |ti| PolicyKind::ALL.into_iter().map(move |kind| (ci, ti, kind)))
            })
            .collect();
        edgemm_exec::Pool::from_env().par_map(&combos, |_, &(ci, ti, kind)| {
            let config = configs[ci];
            let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
            let heap = sim.run(&traces[ti], kind.policy());
            let reference = sim.run_reference(&traces[ti], kind.policy());
            assert_eq!(heap, reference, "engines diverged: {config:?} {kind:?}");
            let scanned = sim.run(&traces[ti], &Unkeyed(kind.policy()));
            assert_eq!(
                heap, scanned,
                "keyed and scan diverged: {config:?} {kind:?}"
            );
        });
    }

    #[test]
    fn eager_accounting_without_a_spill_area_reaches_the_forced_pick() {
        // Both branches of the CC dispatch run on this named config: gate
        // refusals (eager accounting on a 600-token pool), and forced picks
        // (queued prefills hold every block while nothing decodes, and
        // there is no spill area to park them in). Keyed, scanned and
        // reference runs agree, and so does the work they count.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::with_budget(Bytes::new(600 * per_token)))
            .with_chunk_tokens(64)
            .with_block_tokens(16)
            .with_prefix_sharing()
            .with_eager_kv_accounting();
        let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
        let trace = TraceConfig::multi_tenant(3, 24, 40.0, 5).generate();
        let edf = PolicyKind::EarliestDeadlineFirst.policy();
        let mut scratch = ServeScratch::new();
        let keyed = sim.run_with_scratch(&trace, edf, &mut scratch);
        let keyed_counters = scratch.counters();
        assert!(keyed_counters.forced_picks > 0, "{keyed_counters:?}");
        assert!(keyed_counters.gate_refusals > 0, "{keyed_counters:?}");
        assert_eq!(keyed_counters.cc_candidates, keyed_counters.cc_picks);
        let scanned = sim.run_with_scratch(&trace, &Unkeyed(edf), &mut scratch);
        let scan_counters = scratch.counters();
        assert_eq!(scanned, keyed);
        assert_eq!(sim.run_reference(&trace, edf), keyed);
        assert!(scan_counters.cc_candidates > scan_counters.cc_picks);
        assert_eq!(
            ServeCounters {
                cc_candidates: 0,
                ..scan_counters
            },
            ServeCounters {
                cc_candidates: 0,
                ..keyed_counters
            }
        );
    }

    /// Picks the most recently queued candidate: a policy whose choice
    /// depends on queue order, so the order same-cycle arrivals enter the
    /// CC queue in shows in the report.
    #[derive(Debug)]
    struct NewestQueued;

    impl SchedulePolicy for NewestQueued {
        fn name(&self) -> &'static str {
            "newest-queued"
        }

        fn choose(&self, queued: &[QueuedRequest]) -> usize {
            queued.len() - 1
        }
    }

    #[test]
    fn same_cycle_arrivals_queue_in_id_order_whatever_the_push_order() {
        // A burst of same-instant arrivals plus Poisson traffic, served in
        // submission order and reversed: the engines queue same-cycle
        // arrivals by id, so an order-sensitive policy sees one queue. So
        // does an engine that advances between the trace's two halves and
        // then gets the second half reversed: every advance re-sorts the
        // requests still pending.
        let m = machine();
        let sim = simulator(&m, 2);
        let trace = crate::trace::merge(&[
            TraceConfig::saturated(5, 16, 8).generate(),
            TraceConfig::interactive(6, 40.0, 5).generate(),
        ]);
        let reversed: Vec<ServeRequest> = trace.iter().rev().copied().collect();
        let forward = sim.run(&trace, &NewestQueued);
        assert_eq!(sim.run(&reversed, &NewestQueued), forward);
        assert_eq!(sim.run_reference(&reversed, &NewestQueued), forward);
        let mut scratch = ServeScratch::new();
        let mut engine = sim.engine(&NewestQueued, &mut scratch);
        for request in &reversed {
            engine.push(request);
        }
        assert_eq!(engine.finish(), forward);
        let (first, rest) = trace.split_at(trace.len() / 2);
        let (last_first, first_rest) = (first[first.len() - 1].arrival_s, rest[0].arrival_s);
        let between = (last_first + first_rest) / 2.0;
        assert!(last_first < between && between < first_rest);
        let mut engine = sim.engine(&NewestQueued, &mut scratch);
        for request in first {
            engine.push(request);
        }
        engine.advance_until(between);
        for request in rest.iter().rev() {
            engine.push(request);
        }
        assert_eq!(engine.replays(), 0);
        assert_eq!(engine.finish(), forward);
    }

    #[test]
    fn a_reused_scratch_is_byte_identical_to_a_fresh_one() {
        // One scratch threaded through different simulators, traces and
        // policies — the worst case for stale carried state — must
        // reproduce every fresh-scratch report exactly.
        let m = machine();
        let per_token = zoo::sphinx_tiny()
            .llm
            .kv_bytes_per_token(m.config().mc_weight_bytes);
        let kv = KvPool::with_budget(Bytes::new(900 * per_token));
        let configs = [
            ServeConfig::with_batch_cap(4).with_chunk_tokens(64),
            ServeConfig::new()
                .with_kv_pool(kv)
                .with_chunk_tokens(64)
                .with_block_tokens(16),
        ];
        let traces = [
            TraceConfig::interactive(8, 40.0, 3).generate(),
            TraceConfig::multi_tenant(2, 8, 10.0, 9).generate(),
        ];
        let mut scratch = ServeScratch::new();
        for _ in 0..2 {
            for config in configs {
                let sim = ServeSimulator::new(&m, zoo::sphinx_tiny(), config);
                for trace in &traces {
                    for kind in [PolicyKind::Fcfs, PolicyKind::EarliestDeadlineFirst] {
                        let reused = sim.run_with_scratch(trace, kind.policy(), &mut scratch);
                        let fresh = sim.run(trace, kind.policy());
                        assert_eq!(reused, fresh, "scratch leaked state: {config:?} {kind:?}");
                    }
                }
            }
        }
    }
}
