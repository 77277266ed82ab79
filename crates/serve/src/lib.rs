//! Multi-request serving for the EdgeMM simulator: continuous batching,
//! pluggable scheduling, and SLO-aware (deadline/priority) admission.
//!
//! The single-request simulator (`edgemm-sim`) answers "how fast is one
//! request on this chip"; this crate answers the serving questions the
//! ROADMAP's north star asks: what latency distribution does EdgeMM sustain
//! under a *stream* of concurrent requests, and does it meet the deadlines
//! interactive users actually feel?
//!
//! # Pipeline
//!
//! The model is an event-driven two-stage pipeline over the chip's two
//! cluster flavours:
//!
//! ```text
//!             arrivals (TraceConfig: Poisson / saturated, SloClass per request)
//!                 │
//!                 ▼
//!  ┌─ CC queue ───────────────┐   AdmissionControl: TTFT slack test on the
//!  │ r7 r4 r9 … (waiting,     │──► *remaining* prefill; hopeless requests
//!  │  some mid-prefill)       │    served anyway / deferred / rejected
//!  └──────────┬───────────────┘
//!             │ SchedulePolicy::choose (fcfs | shortest-prompt |
//!             ▼                      pruning-aware | edf)
//!  ┌─ CC stage (serial) ──────┐
//!  │ vision encode → projector│   one prefill *chunk* at a time; the policy
//!  │ → prefill chunks         │   re-picks at every chunk boundary, so an
//!  └──────────┬───────────────┘   urgent arrival can preempt a long prefill
//!             │ prefilled ("ready")    (TTFT ends with the last chunk)
//!             ▼ SchedulePolicy::choose_join (same discipline, both stages)
//!  ┌─ MC stage (stream batch) ┐   continuous batching at step granularity:
//!  │ step: one token for every│   join admitted by KvPool byte headroom
//!  │ stream in the batch      │   (+ optional batch_cap override); blocked
//!  └──────────┬───────────────┘   joins wait for a stream to release KV
//!             ▼
//!        completions → ServeReport (TTFT/TPOT percentiles, SLO attainment,
//!                      per-class ClassStats, preemptions, peak KV bytes)
//! ```
//!
//! * the **CC stage** (vision encode + projector + prefill) is serial but
//!   *chunk-preemptible*: prefills run in token-budget chunks
//!   ([`ServeConfig::chunk_tokens`]) and the pluggable [`SchedulePolicy`]
//!   ([`Fcfs`], [`ShortestPromptFirst`], [`PruningAware`],
//!   [`EarliestDeadlineFirst`]) picks again at every chunk boundary; an
//!   [`AdmissionControl`] mode decides what happens to requests whose
//!   [TTFT](CompletedRequest::time_to_first_token_s) deadline is already
//!   unreachable given their remaining chunks. A policy that ranks by a
//!   fixed sort key exposes it as [`SchedulePolicy::cc_key`]: a
//!   [`PolicyKey`] computed from the [`QueuedRequest`] alone, ending in
//!   the request id, whose minimum over any queue is exactly the entry
//!   `choose` returns. All four built-ins do. The engine then keeps the
//!   CC queue ordered by key (split by TTFT feasibility) and walks it in
//!   order, so a dispatch visits only the candidates it gates instead of
//!   re-scanning the queue after every refused pick; unkeyed policies
//!   keep the scan, with the same results ([`ServeScratch::counters`]
//!   counts the work);
//! * the **MC stage** decodes with *continuous batching*: every step
//!   generates one token for each stream in the batch, finished requests
//!   leave at step boundaries and prefilled requests join as long as the
//!   [`KvPool`] has headroom for their peak KV footprint (join order picked
//!   by [`SchedulePolicy::choose_join`]); [`ServeConfig::batch_cap`] remains
//!   as an optional hard override on top of the memory model. With
//!   [`ServeConfig::block_tokens`] the pool is *paged* ([`PagedKvPool`]):
//!   KV is allocated in fixed token blocks lazily as each context grows,
//!   steps are priced at each stream's actual context length, and under
//!   pressure a strictly-less-urgent running stream is **evicted** — by DMA
//!   spill-and-restore when [`ServeConfig::spill_capacity_bytes`] provides
//!   an area ([`ServeReport::spilled_kv_bytes`] /
//!   [`ServeReport::restored_kv_bytes`]), by recompute otherwise
//!   ([`ServeReport::restarted_prefill_tokens`]) — so an urgent arrival
//!   takes its decode slot instead of waiting for a full drain. Requests
//!   declaring a [`SharedPrefix`] share one refcounted, copy-on-write
//!   physical copy of their prompt-prefix blocks under
//!   [`ServeConfig::prefix_sharing`], and
//!   [`ServeConfig::eager_kv_accounting`] charges finished prefill chunks
//!   to the pool while the stream still waits for a decode slot (see
//!   `docs/memory.md`).
//!
//! # Step cost model
//!
//! Per-request costs are taken from the cycle-level machine model
//! ([`edgemm_sim::Machine::prefill_chunk_costs`] /
//! [`edgemm_sim::Machine::decode_step_costs_at`]), so serving results stay
//! consistent with the single-request evaluation: a request served alone
//! under the unchunked, unbounded configuration costs exactly its
//! [`edgemm_sim::Machine::run_request`] latency, in integer cycles (pinned,
//! dense and pruned, by the simulator's `single_request_matches_solo_cost`
//! test). One stream-batched decode step costs, per operator,
//!
//! ```text
//! step_cycles = Σ_ops max( Σ_streams compute,
//!                          shared weight DRAM + kv_factor · Σ_streams KV DRAM )
//!
//! kv_factor   = max(resident_kv − onchip_sram, 0) / resident_kv · spill_penalty
//! ```
//!
//! — the weight fetch is issued once and shared by the whole batch (the
//! paper's Fig. 9c stream-batch weight reuse) while compute and KV-cache
//! traffic repeat per stream, each stream owning its cache. The `kv_factor`
//! is the [`KvPool`]'s spill model: KV resident in the MC clusters' SRAM
//! tier is read back without touching DRAM, KV spilled past it re-streams
//! every step at a penalty (scattered per-stream blocks, not one bulk
//! burst). With the unbounded default pool the factor is exactly 1.0.
//!
//! The engine evaluates the same sum factored. A weight-facing operator
//! carries no KV traffic and costs the same for every stream, and each
//! layer's two KV-facing operators (score, then context aggregation) have
//! the same shapes in every layer. For a batch of `B` streams over `L`
//! layers that gives
//!
//! ```text
//! step_cycles = Σ_weight_ops max(B · compute, DRAM)
//!             + L · max( Σ_streams score compute, kv_factor · Σ_streams score DRAM )
//!             + L · max( Σ_streams aggregation compute, kv_factor · Σ_streams aggregation DRAM )
//! ```
//!
//! where each stream's KV operators are priced at its actual context when
//! paged and at its request-average context otherwise. The first term
//! depends on `B` alone and is priced once per batch size. The reference
//! engine (`run_reference`, behind the `reference` feature) keeps the
//! per-operator sum itself, `reference_step_cycles`, over
//! [`edgemm_sim::Machine::decode_step_costs_at`]; cycles are integers, so
//! the two agree bit for bit and the differential suite holds them to it.
//!
//! Chunked prefill prices each chunk with causal attention against the
//! actually-cached prefix (chunk `i` reads `i` chunks' worth of KV, not the
//! whole prompt) and re-streams the layer weights once per chunk — the real
//! DRAM price of preemptibility, which is why the chunk budget is a knob
//! and not simply "as small as possible".
//!
//! # Known simplifications
//!
//! One remains open: while the CC and MC stages overlap, each is priced
//! with the whole DRAM interface rather than a split of it. The single
//! source of truth for the memory model's gaps — the open one, what each
//! retired gap was, which configuration retires it, and the opt-in
//! defaults that keep earlier results reproducing byte for byte — is
//! `docs/memory.md` (see its "Remaining simplifications" section).
//!
//! # Example
//!
//! ```
//! use edgemm_serve::{EarliestDeadlineFirst, ServeConfig, ServeSimulator, TraceConfig};
//! use edgemm_serve::AdmissionControl;
//! use edgemm_sim::{Machine, SimConfig};
//!
//! let machine = Machine::new(SimConfig::paper_default());
//! let sim = ServeSimulator::new(
//!     &machine,
//!     edgemm_mllm::zoo::sphinx_tiny(),
//!     ServeConfig::with_batch_cap(8).with_admission(AdmissionControl::Defer),
//! );
//! // 16 interactive requests (250 ms TTFT / 30 ms TPOT targets) at ~20/s.
//! let trace = TraceConfig::interactive(16, 20.0, 7).generate();
//! let report = sim.run(&trace, &EarliestDeadlineFirst);
//! assert_eq!(report.completed.len(), 16);
//! assert!(report.p99_latency_s() >= report.p50_latency_s());
//! assert!(report.slo_attainment() > 0.0);
//! for class in report.class_stats() {
//!     println!("{}: p95 TTFT {:.0} ms, attainment {:.0}%",
//!              class.priority.name(), class.p95_ttft_s * 1e3,
//!              class.attainment * 100.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod policy;
mod request;
mod simulator;
mod slo;
mod trace;

pub use edgemm_mem::{prefix_key, BlockTable, KvPool, PagedKvPool, PrefixAttach, SpillTicket};
pub use metrics::{ClassStats, QueueSample, ServeReport};
#[cfg(feature = "reference")]
pub use policy::Unkeyed;
pub use policy::{
    EarliestDeadlineFirst, Fcfs, PolicyKey, PolicyKind, PruningAware, QueuedRequest,
    SchedulePolicy, ShortestPromptFirst,
};
pub use request::{CompletedRequest, RejectedRequest, ServeRequest, SharedPrefix};
pub use simulator::{
    ServeConfig, ServeCounters, ServeEngine, ServeScratch, ServeSession, ServeSimulator,
};
pub use slo::{AdmissionControl, Priority, SloClass};
pub use trace::{merge, TraceConfig};
