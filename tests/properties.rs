//! Workspace-level property-based tests: invariants that must hold across
//! crate boundaries for any reasonable configuration or workload.

use edgemm::arch::{ChipConfig, CimGeometry, SystolicGeometry};
use edgemm::serve::{
    AdmissionControl, BlockTable, KvPool, PagedKvPool, PolicyKind, ServeConfig, ServeRequest,
    ServeScratch, ServeSimulator, SloClass, TraceConfig,
};
use edgemm::sim::{DecodeOptions, Machine, PruningEffect, SimConfig};
use edgemm::units::{Bytes, Tokens};
use edgemm::{EdgeMm, RequestOptions, RoutingKind, ServeOptions};
use edgemm_mllm::{
    zoo, LlmConfig, MllmConfig, ModelWorkload, ProjectorConfig, ProjectorKind, VisionEncoderConfig,
};
use proptest::prelude::*;

/// A deliberately small MLLM for the serving properties: the default
/// (strengthened) proptest case count runs each property hundreds of times,
/// so per-case simulation cost must stay tiny while exercising every layer
/// of the serving stack.
fn tiny_model() -> MllmConfig {
    MllmConfig {
        name: "prop-tiny".to_string(),
        vision: VisionEncoderConfig {
            name: "vit-prop".to_string(),
            layers: 2,
            d_model: 256,
            d_ffn: 512,
            patch_tokens: 16,
        },
        projector: ProjectorConfig {
            kind: ProjectorKind::Mlp,
            d_in: 256,
            d_out: 256,
            output_tokens: 8,
        },
        llm: LlmConfig {
            name: "llm-prop".to_string(),
            layers: 3,
            d_model: 256,
            d_ffn: 512,
            heads: 8,
            kv_heads: 4,
            vocab: 1000,
        },
        weight_bytes: 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Decode latency is monotonically non-increasing in the pruning keep
    /// ratio: keeping fewer channels never makes decoding slower.
    #[test]
    fn pruning_is_monotone_in_keep_ratio(keep_a in 0.05f64..1.0, keep_b in 0.05f64..1.0) {
        let (lo, hi) = if keep_a < keep_b { (keep_a, keep_b) } else { (keep_b, keep_a) };
        let machine = Machine::new(SimConfig::paper_default());
        let workload = ModelWorkload::new(zoo::sphinx_tiny(), 20, 4);
        let kind = edgemm::arch::ClusterKind::MemoryCentric;
        let aggressive = machine.run_decode_on(&workload, kind, DecodeOptions {
            pruning: PruningEffect::with_keep_ratio(lo),
            batch: 1,
        });
        let mild = machine.run_decode_on(&workload, kind, DecodeOptions {
            pruning: PruningEffect::with_keep_ratio(hi),
            batch: 1,
        });
        prop_assert!(aggressive.cycles <= mild.cycles);
    }

    /// Adding groups never slows a request down (more clusters, same DRAM).
    #[test]
    fn more_groups_never_hurt(groups in 1usize..6) {
        let workload = ModelWorkload::new(zoo::karmavlm(), 16, 8);
        let small = ChipConfig::builder().groups(groups).build().expect("valid");
        let large = ChipConfig::builder().groups(groups + 1).build().expect("valid");
        let run = |chip: ChipConfig| {
            Machine::new(SimConfig { chip, ..SimConfig::paper_default() })
                .run_request(&workload, DecodeOptions::baseline())
                .total_cycles()
        };
        prop_assert!(run(large) <= run(small));
    }

    /// Generating more tokens always takes longer and moves more DRAM bytes.
    #[test]
    fn longer_outputs_cost_more(tokens in 1usize..64) {
        let machine = Machine::new(SimConfig::paper_default());
        let short = machine.run_request(
            &ModelWorkload::new(zoo::karmavlm(), 16, tokens),
            DecodeOptions::baseline(),
        );
        let long = machine.run_request(
            &ModelWorkload::new(zoo::karmavlm(), 16, tokens + 8),
            DecodeOptions::baseline(),
        );
        prop_assert!(long.total_cycles() > short.total_cycles());
        prop_assert!(long.total_dram_bytes() > short.total_dram_bytes());
    }

    /// Any valid chip configuration yields a finite, positive peak-TFLOPS
    /// figure and a non-empty topology.
    #[test]
    fn valid_configs_are_simulable(
        groups in 1usize..5,
        cc in 0usize..4,
        mc in 0usize..4,
        sa_dim_log in 2u32..6,
        act_bits_sel in 0usize..3,
    ) {
        prop_assume!(cc + mc > 0);
        let dim = 1usize << sa_dim_log;
        let act_bits = [4u8, 8, 16][act_bits_sel];
        let config = ChipConfig::builder()
            .groups(groups)
            .cc_clusters_per_group(cc)
            .mc_clusters_per_group(mc)
            .systolic(SystolicGeometry { rows: dim, cols: dim, matrix_registers: 4 })
            .cim(CimGeometry { activation_bits: act_bits, ..CimGeometry::paper_default() })
            .build();
        prop_assume!(config.is_ok());
        let config = config.unwrap();
        prop_assert!(config.peak_tflops() > 0.0);
        let topo = edgemm::arch::Topology::new(&config);
        prop_assert_eq!(
            topo.cores().len(),
            config.total_cores(edgemm::arch::ClusterKind::ComputeCentric)
                + config.total_cores(edgemm::arch::ClusterKind::MemoryCentric)
        );
    }
}

// Serving properties run at the full (env-tunable, 256 by default) case
// count, so they use `tiny_model` to keep each simulated trace cheap.
proptest! {
    /// Continuous batching never loses or duplicates a request: every
    /// submitted request completes exactly once, with its full token count,
    /// under any trace shape, batch capacity and scheduling policy.
    #[test]
    fn serving_conserves_requests(
        requests in 1usize..8,
        rate in 1.0f64..200.0,
        cap in 1usize..6,
        policy_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 10),
            seed,
            slo: SloClass::best_effort(),
            tenants: None,
        };
        let system = EdgeMm::paper_default();
        let report = system.serve_trace(&tiny_model(), &trace, ServeOptions {
            batch_cap: Some(cap),
            policy: PolicyKind::ALL[policy_sel],
            ..ServeOptions::default()
        });
        prop_assert_eq!(report.completed.len(), requests);
        let mut ids: Vec<u64> = report.completed.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), requests);
        let submitted: Tokens = trace.generate().iter().map(|r| Tokens::new(r.output_tokens)).sum();
        prop_assert_eq!(report.total_output_tokens, submitted);
    }

    /// Sharing the machine can only slow a request down: every per-request
    /// serving latency is at least the single-request latency the facade
    /// reports for the same workload and options.
    #[test]
    fn serving_latency_never_beats_a_solo_run(
        requests in 1usize..6,
        rate in 1.0f64..100.0,
        cap in 1usize..5,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 10),
            seed,
            slo: SloClass::best_effort(),
            tenants: None,
        };
        let model = tiny_model();
        let system = EdgeMm::paper_default();
        let generated = trace.generate();
        let report = system.serve_trace(&model, &trace, ServeOptions {
            batch_cap: Some(cap),
            ..ServeOptions::default()
        });
        for done in &report.completed {
            let submitted = &generated[done.id as usize];
            let workload = ModelWorkload::new(
                model.clone(),
                submitted.text_tokens,
                submitted.output_tokens,
            );
            let solo = system.run(&workload, RequestOptions::default());
            prop_assert!(
                done.latency_s() >= solo.latency_s * (1.0 - 1e-12),
                "request {} served in {} s but runs solo in {} s",
                done.id, done.latency_s(), solo.latency_s
            );
        }
    }

    /// The SLO-aware stack (earliest-deadline-first admission with hopeless
    /// requests deferred) never misses more TTFT deadlines than admit-all
    /// FCFS on the same trace. Prompts are equal-length so every prefill
    /// costs the same — the regime where reordering equal jobs by deadline
    /// is provably never worse — while deadlines and arrivals vary freely.
    #[test]
    fn edf_defer_never_misses_more_deadlines_than_fcfs(
        requests in 2usize..10,
        rate in 500.0f64..8000.0,
        seed in 0u64..1000,
    ) {
        // Equal prompts; TTFT budgets cycle through tight-to-loose multiples
        // of the tiny model's ~0.11 ms prefill so some but not all bind.
        let budgets = [0.0002f64, 0.0005, 0.001, 0.004];
        let trace: Vec<ServeRequest> = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (8, 8),
            output_tokens: (1, 6),
            seed,
            slo: SloClass::best_effort(),
            tenants: None,
        }
        .generate()
        .into_iter()
        .map(|r| {
            let budget = budgets[((r.id + seed) % budgets.len() as u64) as usize];
            r.with_slo(SloClass::interactive().with_ttft(budget).with_tpot(1.0))
        })
        .collect();
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let misses = |policy, admission| {
            let report = system.serve(&model, &trace, ServeOptions {
                policy,
                admission,
                batch_cap: Some(4),
                ..ServeOptions::default()
            });
            prop_assert_eq!(report.submitted(), requests);
            Ok(report.completed.iter().filter(|c| !c.meets_ttft()).count()
                + report.rejected.len())
        };
        let fcfs = misses(PolicyKind::Fcfs, AdmissionControl::Serve)?;
        let edf = misses(PolicyKind::EarliestDeadlineFirst, AdmissionControl::Defer)?;
        prop_assert!(
            edf <= fcfs,
            "EDF+defer missed {edf} TTFT deadlines vs FCFS {fcfs}"
        );
    }

    /// A rejected request never leaks into completion metrics: ids are
    /// disjoint, only completed requests generate tokens, and per-class
    /// accounting covers every submission exactly once.
    #[test]
    fn rejected_requests_never_appear_in_completions(
        requests in 1usize..10,
        rate in 500.0f64..8000.0,
        cap in 1usize..5,
        policy_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        // Budgets tight enough that overload rejects a prefix of the queue.
        let trace: Vec<ServeRequest> = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 8),
            seed,
            slo: SloClass::interactive().with_ttft(0.0004),
            tenants: None,
        }
        .generate();
        let system = EdgeMm::paper_default();
        let report = system.serve(&tiny_model(), &trace, ServeOptions {
            batch_cap: Some(cap),
            policy: PolicyKind::ALL[policy_sel],
            admission: AdmissionControl::Reject,
            ..ServeOptions::default()
        });
        prop_assert_eq!(report.submitted(), requests);
        for rejected in &report.rejected {
            prop_assert!(report.completed.iter().all(|c| c.id != rejected.id));
            prop_assert!(rejected.reject_s >= rejected.arrival_s - 1e-12);
        }
        let generated: Tokens = report.completed.iter().map(|c| Tokens::new(c.output_tokens)).sum();
        prop_assert_eq!(report.total_output_tokens, generated);
        let class_total: usize = report
            .class_stats()
            .iter()
            .map(|c| c.completed + c.rejected)
            .sum();
        prop_assert_eq!(class_total, requests);
        // Every survivor was judged feasible when admitted and the CC stage
        // is work-conserving, so it met the TTFT deadline it was kept for.
        prop_assert!(report.completed.iter().all(|c| c.meets_ttft()));
    }

    /// Backward-compatibility pin for the memory-aware refactor: the
    /// chunked/KV-pooled code path with `chunk_tokens = ∞` and
    /// `kv_budget = ∞` (a budget that never binds, no on-chip tier, unit
    /// spill penalty) reproduces the unchunked, capacity-only simulator
    /// byte for byte — every timeline, sample and counter is identical.
    #[test]
    fn infinite_chunk_and_kv_budget_reproduce_the_unchunked_simulator(
        requests in 1usize..8,
        rate in 1.0f64..200.0,
        cap in 1usize..6,
        policy_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 10),
            seed,
            slo: SloClass::interactive(),
            tenants: None,
        }
        .generate();
        let machine = Machine::new(SimConfig::paper_default());
        let model = tiny_model();
        let policy = PolicyKind::ALL[policy_sel].policy();
        let legacy = ServeSimulator::new(&machine, model.clone(), ServeConfig::with_batch_cap(cap))
            .run(&trace, policy);
        let memory_aware = ServeSimulator::new(
            &machine,
            model,
            ServeConfig::with_batch_cap(cap)
                .with_chunk_tokens(usize::MAX)
                .with_kv_pool(KvPool::with_budget(Bytes::new(u64::MAX - 1))),
        )
        .run(&trace, policy);
        prop_assert_eq!(legacy, memory_aware);
    }

    /// KV-pool admission never lets resident KV exceed the budget: for any
    /// trace and any budget large enough to hold the biggest single
    /// request (smaller budgets fall back to documented solo admission),
    /// the reported peak stays within the budget while every request still
    /// completes.
    #[test]
    fn kv_pool_admission_keeps_peak_within_budget(
        requests in 1usize..8,
        rate in 1.0f64..500.0,
        budget_kib in 1u64..64,
        chunked in 0usize..2,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 10),
            seed,
            slo: SloClass::best_effort(),
            tenants: None,
        }
        .generate();
        let model = tiny_model();
        let machine = Machine::new(SimConfig::paper_default());
        // Clamp the sampled budget up to the largest single-request
        // footprint so no request needs the oversized-solo escape hatch.
        let per_token = model.llm.kv_cache_bytes(1, machine.config().mc_weight_bytes);
        let max_footprint = trace
            .iter()
            .map(|r| per_token * (model.prompt_tokens(r.text_tokens) + r.output_tokens) as u64)
            .max()
            .unwrap_or(0);
        let budget = Bytes::new((budget_kib * 1024).max(max_footprint));
        let mut config = ServeConfig::new().with_kv_pool(KvPool::with_budget(budget));
        if chunked == 1 {
            config = config.with_chunk_tokens(16);
        }
        let report = ServeSimulator::new(&machine, model, config)
            .run(&trace, PolicyKind::EarliestDeadlineFirst.policy());
        prop_assert_eq!(report.completed.len(), requests);
        prop_assert!(
            report.peak_kv_bytes <= budget,
            "peak KV {} exceeded the budget {}",
            report.peak_kv_bytes, budget
        );
    }

    /// Paged KV allocation never lets resident KV exceed the budget at
    /// *any* event-loop instant — not just at the peak: every queue sample
    /// reports in-budget occupancy for any trace, block size and budget at
    /// least one stream's full paged footprint (smaller budgets fall back
    /// to the documented oversized-solo admission), while every request
    /// still completes.
    #[test]
    fn paged_pool_stays_within_budget_at_every_sample(
        requests in 1usize..8,
        rate in 1.0f64..500.0,
        budget_kib in 1u64..64,
        block in 1usize..33,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 10),
            seed,
            slo: SloClass::best_effort(),
            tenants: None,
        }
        .generate();
        let model = tiny_model();
        let machine = Machine::new(SimConfig::paper_default());
        // Clamp the sampled budget up to the largest single-stream *paged*
        // footprint (whole blocks, including the generation) so no stream
        // needs the sole-owner escape hatch.
        let per_token = model.llm.kv_bytes_per_token(machine.config().mc_weight_bytes);
        let block_bytes = block as u64 * per_token;
        let max_footprint = trace
            .iter()
            .map(|r| {
                let tokens = model.prompt_tokens(r.text_tokens) + r.output_tokens;
                tokens.div_ceil(block) as u64 * block_bytes
            })
            .max()
            .unwrap_or(0);
        let budget = Bytes::new((budget_kib * 1024).max(max_footprint));
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::with_budget(budget))
            .with_block_tokens(block);
        let report = ServeSimulator::new(&machine, model, config)
            .run(&trace, PolicyKind::EarliestDeadlineFirst.policy());
        prop_assert_eq!(report.completed.len(), requests);
        prop_assert!(
            report.peak_kv_bytes <= budget,
            "peak KV {} exceeded the budget {}",
            report.peak_kv_bytes, budget
        );
        for sample in &report.queue_samples {
            prop_assert!(
                sample.kv_bytes <= budget,
                "sample at {} s held {} KV bytes over the {} budget",
                sample.time_s, sample.kv_bytes, budget
            );
        }
    }

    /// Mid-decode eviction never drops a request: under any KV pressure
    /// (tight budgets, mixed priorities, slot revocation and growth
    /// evictions) every submitted request still completes exactly once with
    /// its full token count — conservation: completed + rejected =
    /// submitted, and admit-all admission rejects nobody.
    #[test]
    fn paged_eviction_never_drops_a_request(
        interactive in 1usize..5,
        background in 1usize..5,
        rate in 10.0f64..2000.0,
        budget_kib in 1u64..16,
        block in 1usize..17,
        seed in 0u64..1000,
    ) {
        let trace = edgemm::serve::merge(&[
            TraceConfig {
                requests: interactive,
                arrival_rate_per_s: rate,
                text_tokens: (2, 8),
                output_tokens: (1, 6),
                seed,
                slo: SloClass::interactive(),
                tenants: None,
            }
            .generate(),
            TraceConfig {
                requests: background,
                arrival_rate_per_s: rate,
                text_tokens: (8, 32),
                output_tokens: (4, 12),
                seed: seed + 1,
                slo: SloClass::batch(),
                tenants: None,
            }
            .generate(),
        ]);
        let machine = Machine::new(SimConfig::paper_default());
        let config = ServeConfig::new()
            .with_kv_pool(KvPool::with_budget(Bytes::new(budget_kib * 1024)))
            .with_block_tokens(block)
            .with_chunk_tokens(16);
        let report = ServeSimulator::new(&machine, tiny_model(), config)
            .run(&trace, PolicyKind::EarliestDeadlineFirst.policy());
        prop_assert_eq!(report.completed.len(), trace.len());
        prop_assert!(report.rejected.is_empty());
        let mut ids: Vec<u64> = report.completed.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), trace.len());
        let submitted: Tokens = trace.iter().map(|r| Tokens::new(r.output_tokens)).sum();
        prop_assert_eq!(report.total_output_tokens, submitted);
        // Evictions and their re-prefill accounting travel together.
        prop_assert_eq!(report.evictions == 0, report.restarted_prefill_tokens == 0);
    }

    /// The unpaged configuration is the PR 4 simulator, byte for byte: with
    /// `block_tokens = None` nothing in the paged machinery may run (no
    /// evictions, no restarted prefill tokens) and the run is identical to
    /// one configured through the legacy constructor.
    #[test]
    fn unpaged_config_is_byte_for_byte_the_reserving_simulator(
        requests in 1usize..8,
        rate in 1.0f64..200.0,
        cap in 1usize..6,
        policy_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig {
            requests,
            arrival_rate_per_s: rate,
            text_tokens: (2, 24),
            output_tokens: (1, 10),
            seed,
            slo: SloClass::interactive(),
            tenants: None,
        }
        .generate();
        let machine = Machine::new(SimConfig::paper_default());
        let model = tiny_model();
        let policy = PolicyKind::ALL[policy_sel].policy();
        let legacy = ServeSimulator::new(&machine, model.clone(), ServeConfig::with_batch_cap(cap))
            .run(&trace, policy);
        let unpaged = ServeSimulator::new(
            &machine,
            model,
            ServeConfig::new()
                .with_batch_cap_override(cap)
                .with_kv_pool(KvPool::unbounded()),
        )
        .run(&trace, policy);
        prop_assert_eq!(&legacy, &unpaged);
        prop_assert_eq!(legacy.evictions, 0);
        prop_assert_eq!(legacy.restarted_prefill_tokens, 0);
    }

    /// For saturated arrivals of identical requests, serving throughput is
    /// monotone non-decreasing in the decode batch capacity: a bigger
    /// stream batch can only amortise the weight fetch further.
    #[test]
    fn serving_throughput_monotone_in_batch_cap(
        requests in 2usize..7,
        text in 2usize..16,
        tokens in 2usize..10,
    ) {
        let trace = TraceConfig::saturated(requests, text, tokens);
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let mut last = 0.0f64;
        for cap in [1usize, 2, 4, 8] {
            let report = system.serve_trace(&model, &trace, ServeOptions {
                batch_cap: Some(cap),
                ..ServeOptions::default()
            });
            let tps = report.tokens_per_second();
            prop_assert!(
                tps >= last * (1.0 - 1e-9),
                "tokens/s dropped from {last} to {tps} when the cap grew to {cap}"
            );
            last = tps;
        }
    }

    /// Refcounted prefix sharing conserves physical blocks: the pool's
    /// occupied count always equals the shared prefix counted once plus
    /// every stream's private blocks, the registry entry survives until the
    /// last holder detaches (blocks mapped by a live stream are never
    /// freed), and releasing the last holder reclaims everything.
    #[test]
    fn shared_prefix_blocks_survive_until_the_last_holder_detaches(
        streams in 2usize..6,
        prefix_blocks in 1usize..5,
        extra in 0usize..24,
        seed in 1u64..1000,
    ) {
        let block_tokens = 4usize;
        let mut pool = PagedKvPool::new(KvPool::unbounded(), block_tokens, Bytes::per_token(8));
        let key = seed; // any non-zero value is a valid registry key
        let prefix_tokens = Tokens::new(prefix_blocks * block_tokens); // block-aligned
        let mut tables: Vec<BlockTable> = Vec::new();
        for i in 0..streams {
            let mut t = BlockTable::empty();
            let attach = pool.try_attach_prefix(&mut t, key, prefix_tokens);
            prop_assert!(attach.is_some(), "unbounded attach refused");
            let attach = attach.expect("checked above");
            prop_assert_eq!(attach.hit, i > 0); // first attach misses, the rest hit
            let context = prefix_tokens.get() + 1 + (extra + i * 3) % 17;
            prop_assert!(pool.try_grow_to(&mut t, Tokens::new(context)));
            prop_assert_eq!(t.shared_blocks(), prefix_blocks as u64);
            tables.push(t);
        }
        let unique = |tables: &[BlockTable]| {
            prefix_blocks as u64 + tables.iter().map(BlockTable::private_blocks).sum::<u64>()
        };
        prop_assert_eq!(pool.occupied_blocks(), unique(&tables));
        prop_assert_eq!(pool.prefix_refs(key), streams as u64);
        while tables.len() > 1 {
            let mut t = tables.pop().expect("non-empty");
            pool.release(&mut t);
            prop_assert!(
                pool.prefix_resident(key),
                "prefix freed while {} streams still map it",
                tables.len()
            );
            prop_assert_eq!(pool.prefix_refs(key), tables.len() as u64);
            prop_assert_eq!(pool.occupied_blocks(), unique(&tables));
        }
        let mut last = tables.pop().expect("non-empty");
        pool.release(&mut last);
        prop_assert!(!pool.prefix_resident(key), "last detach drops the registry entry");
        prop_assert_eq!(pool.occupied_blocks(), 0);
        prop_assert_eq!(pool.occupied_bytes(), Bytes::ZERO);
    }

    /// Spill-and-restore conserves bytes end to end: on a run where every
    /// request completes, each KV image written to the DRAM spill area is
    /// read back exactly once, so the lifetime spilled and restored totals
    /// match and nothing stays parked.
    #[test]
    fn spill_and_restore_conserves_bytes(
        tenants in 1usize..4,
        requests in 2usize..8,
        rate in 1.0f64..50.0,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig::multi_tenant(tenants, requests, rate, seed).generate();
        let system = EdgeMm::paper_default();
        // A KV budget far below the per-request footprint forces parking
        // and spill traffic; the spill area is ample, so the recompute
        // fallback never hides an unmatched spill.
        let report = system.serve(
            &tiny_model(),
            &trace,
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32)
                .paged(16)
                .shared_prefixes(Bytes::new(64 << 20)),
        );
        prop_assert_eq!(report.completed.len(), trace.len());
        prop_assert!(report.rejected.is_empty());
        prop_assert_eq!(report.spilled_kv_bytes, report.restored_kv_bytes);
    }

    /// The heap-scheduled event engine is the reference engine, byte for
    /// byte: across every serving preset family (plain batching, SLO-aware
    /// deferral, chunked memory-aware admission, paged KV with eviction,
    /// the full shared-prefix/spill stack) and every trace shape (uniform
    /// interactive, interactive+background merge, multi-tenant), `run` and
    /// the retired advance-and-scan `run_reference` produce equal
    /// [`edgemm::serve::ServeReport`]s — every timeline, sample and counter.
    /// This is the workspace-level widening of the serve crate's in-crate
    /// differential test over proptest-randomized traces and budgets.
    #[test]
    fn heap_engine_is_byte_identical_to_the_reference_engine(
        preset_sel in 0usize..5,
        trace_sel in 0usize..3,
        requests in 1usize..8,
        rate in 1.0f64..500.0,
        capacity_tokens in 128u64..1024,
        block in 1usize..33,
        seed in 0u64..1000,
    ) {
        let machine = Machine::new(SimConfig::paper_default());
        let model = tiny_model();
        let trace = match trace_sel {
            0 => TraceConfig::interactive(requests, rate, seed).generate(),
            1 => edgemm::serve::merge(&[
                TraceConfig::interactive(requests, rate, seed).generate(),
                TraceConfig::background(requests, rate / 4.0, seed + 1).generate(),
            ]),
            _ => TraceConfig::multi_tenant(2, requests + 1, rate, seed).generate(),
        };
        // Mirror the facade's `ServeOptions -> ServeConfig` mapping: the
        // memory-aware presets get an on-chip tier and the spill penalty,
        // with the budget sized in tokens so pressure (and eviction) varies
        // with the sampled capacity rather than the model.
        let per_token = model.llm.kv_bytes_per_token(machine.config().mc_weight_bytes);
        let pool = || {
            KvPool::with_budget(Bytes::new(capacity_tokens * per_token))
                .with_onchip(Bytes::new(64 * per_token))
                .with_spill_penalty(1.25)
        };
        let (config, policy) = match preset_sel {
            0 => (ServeConfig::with_batch_cap(4), PolicyKind::Fcfs),
            1 => (
                ServeConfig::with_batch_cap(4).with_admission(AdmissionControl::Defer),
                PolicyKind::EarliestDeadlineFirst,
            ),
            2 => (
                ServeConfig::new().with_kv_pool(pool()).with_chunk_tokens(16),
                PolicyKind::EarliestDeadlineFirst,
            ),
            3 => (
                ServeConfig::new()
                    .with_kv_pool(pool())
                    .with_chunk_tokens(16)
                    .with_block_tokens(block),
                PolicyKind::EarliestDeadlineFirst,
            ),
            _ => (
                ServeConfig::new()
                    .with_kv_pool(pool())
                    .with_chunk_tokens(16)
                    .with_block_tokens(block)
                    .with_prefix_sharing()
                    .with_eager_kv_accounting()
                    .with_spill_capacity(Bytes::new(16 << 20)),
                PolicyKind::EarliestDeadlineFirst,
            ),
        };
        let sim = ServeSimulator::new(&machine, model, config);
        let heap = sim.run(&trace, policy.policy());
        let reference = sim.run_reference(&trace, policy.policy());
        prop_assert_eq!(heap, reference);
    }

    /// With sharing, spill and eager accounting all disabled, the paged
    /// simulator is the PR 5 simulator byte for byte — even on traces whose
    /// requests carry `shared_prefix` metadata, which the PR 5 path must
    /// ignore entirely (stripping it changes nothing).
    #[test]
    fn sharing_and_spill_disabled_reproduce_the_paged_simulator(
        tenants in 1usize..4,
        requests in 1usize..8,
        rate in 1.0f64..100.0,
        seed in 0u64..1000,
    ) {
        let trace = TraceConfig::multi_tenant(tenants, requests, rate, seed).generate();
        prop_assert!(trace.iter().all(|r| r.shared_prefix.is_some()));
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let base = ServeOptions::memory_aware(Bytes::new(512 << 10), 32).paged(16);
        let paged = system.serve(&model, &trace, base);
        let features_off = system.serve(&model, &trace, ServeOptions {
            prefix_sharing: false,
            spill_capacity_bytes: None,
            eager_kv_accounting: false,
            ..base
        });
        prop_assert_eq!(&paged, &features_off);
        let mut stripped = trace.clone();
        for r in &mut stripped {
            r.shared_prefix = None;
        }
        let plain = system.serve(&model, &stripped, base);
        prop_assert_eq!(&paged, &plain);
        prop_assert_eq!(paged.spilled_kv_bytes, Bytes::ZERO);
        prop_assert_eq!(paged.restored_kv_bytes, Bytes::ZERO);
    }

    /// Fanning a sweep of serving points over the `edgemm-exec` pool is
    /// byte-identical to running them serially: same [`ServeReport`]s in
    /// the same (input) order, and the rendered JSON bytes match exactly —
    /// the determinism contract the parallel `serving_sweep` bench and the
    /// `raw-thread` lint rule rest on.
    #[test]
    fn parallel_sweep_is_byte_identical_to_serial(
        requests in 1usize..6,
        rate in 1.0f64..100.0,
        seed in 0u64..1000,
        threads in 2usize..9,
    ) {
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let trace = TraceConfig::multi_tenant(2, requests, rate, seed).generate();
        // One point per serving-preset family, so the parallel workers
        // exercise every code path the bench sweeps.
        let points = [
            ServeOptions { batch_cap: Some(2), ..ServeOptions::default() },
            ServeOptions::with_pruning(),
            ServeOptions::slo_aware(),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32).paged(16),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32)
                .paged(16)
                .shared_prefixes(Bytes::new(8 << 20)),
        ];
        let serve = |_: usize, options: &ServeOptions| system.serve(&model, &trace, *options);
        let serial = edgemm_exec::Pool::serial().par_map(&points, serve);
        let parallel = edgemm_exec::Pool::with_threads(threads).par_map(&points, serve);
        prop_assert_eq!(&serial, &parallel);
        let serial_json: String = serial.iter().map(report_json).collect();
        let parallel_json: String = parallel.iter().map(report_json).collect();
        prop_assert_eq!(serial_json.into_bytes(), parallel_json.into_bytes());
        // The full Debug rendering covers every field the JSON summary
        // doesn't — timelines, samples, per-class stats.
        prop_assert_eq!(format!("{serial:?}").into_bytes(), format!("{parallel:?}").into_bytes());
    }

    /// A reused [`edgemm::ServeSession`] is byte-identical to one-shot
    /// [`EdgeMm::serve`] calls: the session's persistent caches and scratch
    /// carry *capacity* across traces, never state.
    #[test]
    fn session_reuse_is_byte_identical_to_one_shot_serves(
        requests in 1usize..6,
        rate in 1.0f64..100.0,
        seed in 0u64..1000,
    ) {
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let traces = [
            TraceConfig::interactive(requests, rate, seed).generate(),
            TraceConfig::multi_tenant(2, requests, rate, seed + 1).generate(),
            TraceConfig::interactive(requests + 2, rate / 2.0, seed + 2).generate(),
        ];
        for options in [
            ServeOptions::with_pruning(),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32)
                .paged(16)
                .shared_prefixes(Bytes::new(8 << 20)),
        ] {
            let mut session = system.serve_session(&model, options);
            for trace in &traces {
                let reused = session.serve(trace);
                let fresh = system.serve(&model, trace, options);
                prop_assert_eq!(reused, fresh);
            }
        }
    }

    /// A fleet of one replica degenerates to the single-machine engine
    /// byte for byte: under every routing policy and every serving preset
    /// family, the sole per-replica [`edgemm::serve::ServeReport`] inside
    /// the `FleetReport` is Debug-byte identical to [`EdgeMm::serve`] on
    /// the same trace and options. This is the fleet tier's differential
    /// anchor, in the style of the heap-vs-reference engine pin above.
    #[test]
    fn fleet_of_one_is_byte_identical_to_serve(
        requests in 1usize..4,
        rate in 1.0f64..100.0,
        seed in 0u64..1000,
    ) {
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let trace = TraceConfig::multi_tenant(2, requests, rate, seed).generate();
        // One point per serving preset family (plain batching, pruning,
        // SLO-aware, memory-aware, paged, paged + shared prefixes).
        let points = [
            ServeOptions { batch_cap: Some(2), ..ServeOptions::default() },
            ServeOptions::with_pruning(),
            ServeOptions::slo_aware(),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32).paged(16),
            ServeOptions::memory_aware(Bytes::new(256 << 10), 32)
                .paged(16)
                .shared_prefixes(Bytes::new(8 << 20)),
        ];
        for options in points {
            let direct = system.serve(&model, &trace, options);
            for kind in RoutingKind::ALL {
                let fleet = system.serve_fleet(&model, &trace, 1, kind, options);
                prop_assert_eq!(fleet.replicas.len(), 1);
                prop_assert_eq!(fleet.dispatched(), trace.len());
                prop_assert_eq!(
                    format!("{:?}", &fleet.replicas[0]).into_bytes(),
                    format!("{direct:?}").into_bytes()
                );
            }
        }
    }

    /// Fleet-wide request conservation: every submitted request is routed
    /// to exactly one replica, each replica's report accounts for exactly
    /// the requests assigned to it, and no request is lost or duplicated —
    /// dispatched == Σ per-replica (completed + rejected), with the id
    /// multiset preserved.
    #[test]
    fn fleet_conserves_requests_across_replicas(
        requests in 1usize..5,
        replicas in 1usize..6,
        rate in 1.0f64..200.0,
        seed in 0u64..1000,
        kind_sel in 0usize..4,
    ) {
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let kind = RoutingKind::ALL[kind_sel];
        let trace = TraceConfig::multi_tenant(3, requests, rate, seed).generate();
        let options = ServeOptions::memory_aware(Bytes::new(256 << 10), 32)
            .paged(16)
            .shared_prefixes(Bytes::new(8 << 20));
        let report = system.serve_fleet(&model, &trace, replicas, kind, options);
        prop_assert_eq!(report.assignments.len(), trace.len());
        prop_assert!(report.assignments.iter().all(|&r| r < replicas));
        prop_assert_eq!(report.completed() + report.rejected(), trace.len());
        // The retired event counters keep fixed meanings: replicas that
        // served at least one request, and no stale events.
        let busy = report.replicas.iter().filter(|r| r.submitted() > 0).count();
        prop_assert_eq!(report.completion_events, busy as u64);
        prop_assert_eq!(report.stale_completions, 0);
        // Each replica reports exactly the requests routed to it …
        for (r, replica) in report.replicas.iter().enumerate() {
            let assigned = report.assignments.iter().filter(|&&a| a == r).count();
            prop_assert_eq!(replica.submitted(), assigned);
        }
        // … and the fleet-wide id multiset is the trace's, exactly once.
        let mut served: Vec<u64> = report
            .replicas
            .iter()
            .flat_map(|r| {
                r.completed
                    .iter()
                    .map(|c| c.id)
                    .chain(r.rejected.iter().map(|j| j.id))
            })
            .collect();
        served.sort_unstable();
        let mut submitted: Vec<u64> = trace.iter().map(|r| r.id).collect();
        submitted.sort_unstable();
        prop_assert_eq!(served, submitted);
    }

    /// Fleet routing is bit-deterministic: re-running the same fleet point
    /// reproduces the identical `FleetReport` (Debug bytes), and fanning
    /// the points over the `edgemm-exec` pool changes nothing — the
    /// determinism contract behind the fleet sweep section, and the
    /// in-process counterpart of CI's `EDGEMM_THREADS=1` vs `=4` runs.
    /// Power-of-two-choices holds because its sampler is seeded from the
    /// serve options, never from host entropy (sim-determinism lint).
    #[test]
    fn fleet_routing_is_deterministic_across_runs_and_pools(
        requests in 1usize..4,
        rate in 1.0f64..100.0,
        seed in 0u64..1000,
        threads in 2usize..9,
    ) {
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let trace = TraceConfig::multi_tenant(2, requests, rate, seed).generate();
        let options = ServeOptions::slo_aware();
        let points: Vec<(RoutingKind, usize)> = RoutingKind::ALL
            .iter()
            .flat_map(|&kind| [(kind, 2), (kind, 5)])
            .collect();
        let serve = |_: usize, &(kind, replicas): &(RoutingKind, usize)| {
            format!("{:?}", system.serve_fleet(&model, &trace, replicas, kind, options))
        };
        let first = edgemm_exec::Pool::serial().par_map(&points, serve);
        let second = edgemm_exec::Pool::serial().par_map(&points, serve);
        let pooled = edgemm_exec::Pool::with_threads(threads).par_map(&points, serve);
        prop_assert_eq!(&first, &second);
        prop_assert_eq!(
            first.concat().into_bytes(),
            pooled.concat().into_bytes()
        );
    }

    /// The resumable engine is the one-shot engine: pushing a trace one
    /// request at a time, with an advance to a random instant between the
    /// previous arrival and this one before each push (at times this
    /// arrival's exact instant, so same-instant pushes replay), finishes
    /// with the Debug bytes of [`ServeSimulator::run`] — under every
    /// serving preset family of `fleet_of_one_is_byte_identical_to_serve`,
    /// on a same-instant burst merged with Poisson traffic.
    #[test]
    fn resumable_engine_is_byte_identical_to_run(
        burst in 1usize..5,
        requests in 1usize..6,
        rate in 1.0f64..200.0,
        seed in 0u64..1000,
        cuts in proptest::collection::vec(0.0f64..1.25, 12..13),
    ) {
        let machine = Machine::new(SimConfig::paper_default());
        let model = tiny_model();
        let trace = edgemm::serve::merge(&[
            TraceConfig::multi_tenant(2, burst, f64::INFINITY, seed).generate(),
            TraceConfig::interactive(requests, rate, seed + 1).generate(),
        ]);
        for (config, policy) in preset_configs(&machine) {
            let sim = ServeSimulator::new(&machine, model.clone(), config);
            let mut scratch = ServeScratch::new();
            let mut engine = sim.engine(policy.policy(), &mut scratch);
            let mut previous = 0.0;
            for (i, request) in trace.iter().enumerate() {
                let cut = cuts[i % cuts.len()];
                let instant = if cut >= 1.0 {
                    request.arrival_s
                } else {
                    previous + cut * (request.arrival_s - previous)
                };
                engine.advance_until(instant);
                engine.push(request);
                prop_assert_eq!(engine.pushed(), i + 1);
                previous = request.arrival_s;
            }
            let resumed = engine.finish();
            let one_shot = sim.run(&trace, policy.policy());
            prop_assert_eq!(
                format!("{resumed:?}").into_bytes(),
                format!("{one_shot:?}").into_bytes()
            );
        }
    }

    /// Every replica of a fleet reports exactly what a one-shot
    /// [`EdgeMm::serve`] of its sub-trace (in submission order) reports,
    /// for 2–5 replicas under every routing policy, on same-instant bursts
    /// merged with Poisson traffic — the gateway routes against live
    /// engines, so this pins that their incremental runs replay nothing
    /// differently.
    #[test]
    fn fleet_replicas_equal_one_shot_serves_of_their_subtraces(
        burst in 1usize..6,
        requests in 1usize..6,
        replicas in 2usize..6,
        rate in 1.0f64..200.0,
        seed in 0u64..1000,
    ) {
        let system = EdgeMm::paper_default();
        let model = tiny_model();
        let trace = edgemm::serve::merge(&[
            TraceConfig::multi_tenant(3, burst, f64::INFINITY, seed).generate(),
            TraceConfig::interactive(requests, rate, seed + 1).generate(),
        ]);
        let options = ServeOptions::memory_aware(Bytes::new(256 << 10), 32)
            .paged(16)
            .shared_prefixes(Bytes::new(8 << 20));
        let mut session = system.serve_session(&model, options);
        for kind in RoutingKind::ALL {
            let fleet = system.serve_fleet(&model, &trace, replicas, kind, options);
            for (replica, report) in fleet.replicas.iter().enumerate() {
                let subtrace: Vec<ServeRequest> = trace
                    .iter()
                    .zip(&fleet.assignments)
                    .filter(|&(_, &target)| target == replica)
                    .map(|(request, _)| *request)
                    .collect();
                prop_assert_eq!(
                    format!("{report:?}").into_bytes(),
                    format!("{:?}", session.serve(&subtrace)).into_bytes()
                );
            }
        }
    }
}

/// The six serving preset families of `fleet_of_one_is_byte_identical_to_serve`
/// (plain batching, pruning, SLO-aware, memory-aware, paged, paged + shared
/// prefixes), lowered onto engine configurations the way the facade lowers
/// [`ServeOptions`] — with a fixed pruning keep ratio instead of a measured
/// one.
fn preset_configs(machine: &Machine) -> [(ServeConfig, PolicyKind); 6] {
    let onchip = machine
        .config()
        .chip
        .total_data_memory(edgemm::arch::ClusterKind::MemoryCentric);
    let pool = KvPool::with_budget(Bytes::new(256 << 10))
        .with_onchip(Bytes::new(onchip))
        .with_spill_penalty(edgemm::DEFAULT_SPILL_PENALTY);
    let pruned = |config: ServeConfig| ServeConfig {
        pruning: PruningEffect::with_keep_ratio(0.3),
        ..config
    };
    let slo_aware = pruned(ServeConfig::with_batch_cap(8)).with_admission(AdmissionControl::Defer);
    let memory_aware = pruned(ServeConfig::new())
        .with_admission(AdmissionControl::Defer)
        .with_kv_pool(pool)
        .with_chunk_tokens(32);
    let paged = memory_aware.with_block_tokens(16);
    let shared = paged
        .with_prefix_sharing()
        .with_eager_kv_accounting()
        .with_spill_capacity(Bytes::new(8 << 20));
    let edf = PolicyKind::EarliestDeadlineFirst;
    [
        (ServeConfig::with_batch_cap(2), PolicyKind::Fcfs),
        (pruned(ServeConfig::with_batch_cap(8)), PolicyKind::Fcfs),
        (slo_aware, edf),
        (memory_aware, edf),
        (paged, edf),
        (shared, edf),
    ]
}

/// Hand-rendered JSON summary of a [`edgemm::serve::ServeReport`] (the
/// workspace has no serialiser, so byte-level JSON comparison needs a
/// renderer of its own). `{:?}` on the floats round-trips full precision,
/// which is what makes byte equality equivalent to value equality.
fn report_json(report: &edgemm::serve::ServeReport) -> String {
    format!(
        "{{\"completed\": {}, \"rejected\": {}, \"p50_latency_s\": {:?}, \
         \"p99_latency_s\": {:?}, \"tokens_per_second\": {:?}, \
         \"peak_kv_bytes\": {:?}, \"preemptions\": {}, \"evictions\": {}, \
         \"spilled_kv_bytes\": {:?}, \"restored_kv_bytes\": {:?}, \
         \"restarted_prefill_tokens\": {:?}}}",
        report.completed.len(),
        report.rejected.len(),
        report.p50_latency_s(),
        report.p99_latency_s(),
        report.tokens_per_second(),
        report.peak_kv_bytes,
        report.preemptions,
        report.evictions,
        report.spilled_kv_bytes,
        report.restored_kv_bytes,
        report.restarted_prefill_tokens,
    )
}

/// Everything the parallel sweep shares across worker threads must be
/// `Send + Sync` — pinned here so a future `Rc`/`RefCell`/raw-pointer
/// addition fails this test instead of breaking `Pool::par_map` callers.
#[test]
fn parallel_serving_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EdgeMm>();
    assert_send_sync::<Machine>();
    assert_send_sync::<ServeOptions>();
    assert_send_sync::<ServeConfig>();
    assert_send_sync::<ServeSimulator<'static>>();
    assert_send_sync::<edgemm::ServeSession<'static>>();
    assert_send_sync::<TraceConfig>();
    assert_send_sync::<ServeRequest>();
    assert_send_sync::<edgemm::serve::ServeReport>();
    assert_send_sync::<RoutingKind>();
    assert_send_sync::<edgemm::FleetReport>();
    assert_send_sync::<edgemm::fleet::ReplicaView>();
    assert_send_sync::<edgemm::fleet::FleetGateway<'static>>();
    assert_send_sync::<edgemm::fleet::FleetReplica<'static>>();
}
