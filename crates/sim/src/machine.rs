//! The EdgeMM machine model: maps operator streams onto the chip.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use edgemm_arch::{ChipConfig, ClusterKind};
use edgemm_core::units::{Bytes, Cycles};
use edgemm_mem::{BandwidthAllocation, DramModel};
use edgemm_mllm::{MatmulOp, ModelWorkload, OpKind, Phase, TrafficClass};

use crate::kernel::{pruned_k, pruned_weight_bytes, OpCost, PruningEffect};
use crate::mapping::MappingExplorer;
use crate::report::{PhaseResult, RunReport};

/// Static configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The chip being simulated.
    pub chip: ChipConfig,
    /// External DRAM model.
    pub dram: DramModel,
    /// Bandwidth split between CC and MC clusters.
    pub allocation: BandwidthAllocation,
    /// Bytes per weight read by CC clusters (BF16 weights for the systolic array).
    pub cc_weight_bytes: usize,
    /// Bytes per weight read by MC clusters (INT8 weights resident in the CIM).
    pub mc_weight_bytes: usize,
}

impl SimConfig {
    /// The paper-default design point: full chip, LPDDR5X-class DRAM,
    /// exclusive bandwidth use by the active cluster kind (sequential,
    /// unpipelined execution), BF16 weights on the compute-centric side and
    /// INT8 weights inside the CIM macros. The pipelined scheduler in
    /// `edgemm-sched` replaces the allocation with a real CC/MC split.
    pub fn paper_default() -> Self {
        SimConfig {
            chip: ChipConfig::paper_default(),
            dram: DramModel::paper_default(),
            allocation: BandwidthAllocation::exclusive(),
            cc_weight_bytes: 2,
            mc_weight_bytes: 1,
        }
    }

    /// The homo-CC ablation design (Fig. 11).
    pub fn homo_cc() -> Self {
        SimConfig {
            chip: ChipConfig::homo_cc(),
            allocation: BandwidthAllocation::all_cc(),
            ..Self::paper_default()
        }
    }

    /// The homo-MC ablation design (Fig. 11).
    pub fn homo_mc() -> Self {
        SimConfig {
            chip: ChipConfig::homo_mc(),
            allocation: BandwidthAllocation::all_mc(),
            ..Self::paper_default()
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Everything [`Machine::op_cost`] reads from an operator, minus its name
/// and phase (labels that never enter the cost formulas). Two ops with the
/// same key — e.g. the identical FFN GEMV repeated in every decoder layer —
/// price identically, which is what makes the cost cache collapse a
/// 22-layer stream into a handful of mapping searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CostKey {
    op_kind: OpKind,
    m: usize,
    k: usize,
    n: usize,
    weight_class: TrafficClass,
    weights_from_dram: bool,
    prunable: bool,
    cluster: ClusterKind,
    // f64 keyed by bit pattern: the cache must only ever hit on *exactly*
    // the same keep ratio, so bitwise identity is the right equivalence.
    keep_ratio_bits: u64,
    pruner_overhead: Cycles,
}

impl CostKey {
    fn new(op: &MatmulOp, cluster: ClusterKind, pruning: PruningEffect) -> Self {
        CostKey {
            op_kind: op.kind,
            m: op.m,
            k: op.k,
            n: op.n,
            weight_class: op.weight_class,
            weights_from_dram: op.weights_from_dram,
            prunable: op.prunable,
            cluster,
            keep_ratio_bits: pruning.keep_ratio.to_bits(),
            pruner_overhead: pruning.pruner_overhead_cycles,
        }
    }
}

/// The machine model: chip + DRAM + mapping explorer.
#[derive(Debug)]
pub struct Machine {
    config: SimConfig,
    explorer: MappingExplorer,
    // Memoised op costs. `op_cost` is a pure function of the [`CostKey`]
    // and the machine configuration, which is fixed at construction, so a
    // cached value is byte-identical to a recomputed one. A `Mutex` (not
    // `RefCell`) keeps `Machine: Sync` for callers that share one machine
    // across threads.
    cost_cache: Mutex<HashMap<CostKey, OpCost>>,
}

impl Clone for Machine {
    fn clone(&self) -> Self {
        Machine {
            config: self.config.clone(),
            explorer: self.explorer.clone(),
            // A fresh (empty) cache: cheaper than cloning under the lock and
            // semantically identical, since entries are pure recomputations.
            cost_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl Machine {
    /// Build a machine from a simulation configuration.
    pub fn new(config: SimConfig) -> Self {
        let explorer = MappingExplorer::new(&config.chip);
        Machine {
            config,
            explorer,
            cost_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    fn cores_of(&self, kind: ClusterKind) -> usize {
        self.config.chip.total_cores(kind)
    }

    fn share_of(&self, kind: ClusterKind) -> f64 {
        match kind {
            ClusterKind::ComputeCentric => self.config.allocation.cc_share,
            ClusterKind::MemoryCentric => self.config.allocation.mc_share,
        }
    }

    fn weight_bytes_of(&self, kind: ClusterKind) -> usize {
        match kind {
            ClusterKind::ComputeCentric => self.config.cc_weight_bytes,
            ClusterKind::MemoryCentric => self.config.mc_weight_bytes,
        }
    }

    fn block_bytes_of(&self, kind: ClusterKind) -> Bytes {
        let mem = match kind {
            ClusterKind::ComputeCentric => self.config.chip.cc_cluster.memory.data_memory,
            ClusterKind::MemoryCentric => self.config.chip.mc_cluster.memory.data_memory,
        };
        // Double buffering: half the data memory is the DMA block size.
        Bytes::new(Bytes::from_usize(mem).get() / 2).max(Bytes::new(1))
    }

    /// Cost of one operator executed cooperatively by every core of `kind`.
    ///
    /// Memoised on everything the formulas read (shape, routing flags,
    /// cluster kind, pruning): repeated layers and repeated pricing passes
    /// hit the cache and return the exact `OpCost` the first call computed.
    pub fn op_cost(&self, op: &MatmulOp, kind: ClusterKind, pruning: PruningEffect) -> OpCost {
        let key = CostKey::new(op, kind, pruning);
        if let Some(cost) = self
            .cost_cache
            .lock()
            // lint:allow(no-unwrap): poisoning only follows a prior panic
            .expect("cost cache poisoned")
            .get(&key)
        {
            return *cost;
        }
        let cost = self.op_cost_uncached(op, kind, pruning);
        self.cost_cache
            .lock()
            // lint:allow(no-unwrap): poisoning only follows a prior panic
            .expect("cost cache poisoned")
            .insert(key, cost);
        cost
    }

    fn op_cost_uncached(&self, op: &MatmulOp, kind: ClusterKind, pruning: PruningEffect) -> OpCost {
        let cores = self.cores_of(kind);
        let share = self.share_of(kind);
        // A configuration without this cluster kind cannot execute the op;
        // model it as a single very slow software core would be misleading,
        // so callers should route ops to kinds that exist. We still return a
        // cost using one core and a minimal bandwidth share for robustness.
        let share = if share > 0.0 { share } else { 0.01 };
        let k_eff = pruned_k(op, pruning);
        let pruned_op = MatmulOp {
            k: k_eff,
            ..op.clone()
        };
        let mapping = self.explorer.best_mapping(&pruned_op, kind, cores.max(1));
        let mut compute = Cycles::new(mapping.compute_cycles);
        if op.prunable && pruning.keep_ratio < 1.0 {
            compute += pruning.pruner_overhead_cycles;
        }
        let bytes = pruned_weight_bytes(op, self.weight_bytes_of(kind), pruning)
            + Bytes::new(op.activation_bytes() / 16); // most activations stay on chip
        let dram_cycles = self
            .config
            .dram
            .transfer_cycles(bytes, self.block_bytes_of(kind), share);
        OpCost {
            kind,
            compute_cycles: compute,
            dram_bytes: bytes,
            dram_cycles,
            traffic_class: op.weight_class,
        }
    }

    /// Execute an operator stream on the given cluster kind and aggregate the
    /// phase result. Operators execute back to back; compute and the next
    /// operator's DMA overlap (double buffering), so each op contributes
    /// `max(compute, dram)` to the critical path.
    pub fn run_ops(
        &self,
        phase: Phase,
        ops: &[MatmulOp],
        kind: ClusterKind,
        pruning: PruningEffect,
    ) -> PhaseResult {
        let mut cycles = Cycles::ZERO;
        let mut compute = Cycles::ZERO;
        let mut dram = Cycles::ZERO;
        let mut bytes = Bytes::ZERO;
        let mut traffic: BTreeMap<edgemm_mllm::TrafficClass, Bytes> = BTreeMap::new();
        for op in ops {
            let cost = self.op_cost(op, kind, pruning);
            cycles += cost.latency_cycles();
            compute += cost.compute_cycles;
            dram += cost.dram_cycles;
            bytes += cost.dram_bytes;
            *traffic.entry(cost.traffic_class).or_insert(Bytes::ZERO) += cost.dram_bytes;
        }
        PhaseResult {
            phase,
            cycles,
            compute_cycles: compute,
            dram_cycles: dram,
            dram_bytes: bytes,
            traffic,
            ops: ops.len(),
        }
    }

    /// Simulate one phase of a workload on `kind`: the cluster kind EdgeMM's
    /// scheduler assigns it to (encoder/projector/prefill on CC, decode on
    /// MC), or another for the ablations.
    ///
    /// The decode phase covers every output token: one average step (cached
    /// context = prompt plus half the output, [`ModelWorkload::phase_ops`])
    /// priced by [`Self::run_ops`] and repeated `output_tokens` times.
    /// `pruning` applies to the decode phase only; the GEMM phases always
    /// run dense.
    pub fn run_phase_on(
        &self,
        workload: &ModelWorkload,
        phase: Phase,
        kind: ClusterKind,
        pruning: PruningEffect,
    ) -> PhaseResult {
        let ops = workload.phase_ops(phase);
        if phase != Phase::Decode {
            return self.run_ops(phase, &ops, kind, PruningEffect::disabled());
        }
        let step = self.run_ops(phase, &ops, kind, pruning);
        let tokens = workload.output_tokens();
        PhaseResult {
            phase,
            cycles: step.cycles * tokens,
            compute_cycles: step.compute_cycles * tokens,
            dram_cycles: step.dram_cycles * tokens,
            dram_bytes: step.dram_bytes * tokens,
            traffic: step
                .traffic
                .into_iter()
                .map(|(c, b)| (c, b * tokens))
                .collect(),
            ops: step.ops * tokens,
        }
    }

    /// Price a prefill in token-budget chunks of at most `chunk_tokens`
    /// prompt tokens each (Sarathi/vLLM-style chunked prefill), returning
    /// one [`PhaseResult`] per chunk in prompt order.
    ///
    /// Chunk `i` covers tokens `[i*chunk_tokens, ...)` of the prompt and its
    /// causal attention reads the prefix cached by the chunks before it, so
    /// per-chunk KV traffic grows with the prefix instead of charging the
    /// whole prompt at once. Weight-facing operators are re-streamed once
    /// per chunk — the summed chunked cost is therefore at least the
    /// unchunked cost, which is the real DRAM price of chunking and the
    /// reason a serving scheduler picks the chunk budget instead of always
    /// chunking maximally.
    ///
    /// With `chunk_tokens >= prompt_tokens` this returns exactly one chunk
    /// identical to [`Self::run_phase_on`] for [`Phase::Prefill`]: the
    /// existing whole-phase path is the one-chunk special case.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens` is zero.
    pub fn prefill_chunk_costs(
        &self,
        workload: &ModelWorkload,
        kind: ClusterKind,
        chunk_tokens: usize,
    ) -> Vec<PhaseResult> {
        assert!(chunk_tokens >= 1, "chunk budget must be at least one token");
        let prompt = workload.prompt_tokens();
        let mut chunks = Vec::with_capacity(prompt.div_ceil(chunk_tokens.max(1)).max(1));
        let mut cached = 0;
        while cached < prompt {
            let len = chunk_tokens.min(prompt - cached);
            chunks.push(self.run_ops(
                Phase::Prefill,
                &workload.prefill_chunk_ops(cached, len),
                kind,
                PruningEffect::disabled(),
            ));
            cached += len;
        }
        if chunks.is_empty() {
            // A zero-token prompt still produces one (empty) chunk so the
            // caller always has a prefill completion event to schedule.
            chunks.push(PhaseResult::empty(Phase::Prefill));
        }
        chunks
    }

    /// Per-operator costs of one decode step on `kind` with exactly
    /// `context_tokens` tokens cached, in operator-stream order.
    ///
    /// Only the KV-facing attention operators (scores and context
    /// aggregation) depend on the context; the weight-facing operators cost
    /// the same at any context length. At the workload's average context
    /// these are the costs [`Self::run_phase_on`] sums into its decode step;
    /// paged serving instead prices every step of every stream at that
    /// stream's *actual* context length, retiring the averaging
    /// simplification. The per-op breakdown keeps each operator's traffic
    /// class, so the serving simulator can share the weight fetches across
    /// a stream batch while charging KV-cache traffic and compute per
    /// stream.
    pub fn decode_step_costs_at(
        &self,
        workload: &ModelWorkload,
        kind: ClusterKind,
        pruning: PruningEffect,
        context_tokens: usize,
    ) -> Vec<OpCost> {
        workload
            .decode_step_ops(context_tokens)
            .iter()
            .map(|op| self.op_cost(op, kind, pruning))
            .collect()
    }

    /// Simulate a full request on the heterogeneous schedule: vision encoder,
    /// projector and prefill on the CC clusters, decode on the MC clusters.
    pub fn run_request(&self, workload: &ModelWorkload, pruning: PruningEffect) -> RunReport {
        self.run_request_with_assignment(
            workload,
            pruning,
            ClusterKind::ComputeCentric,
            ClusterKind::MemoryCentric,
        )
    }

    /// Simulate a full request with explicit phase-to-cluster-kind assignment
    /// (used for the homo-CC / homo-MC ablations of Fig. 11).
    pub fn run_request_with_assignment(
        &self,
        workload: &ModelWorkload,
        pruning: PruningEffect,
        gemm_kind: ClusterKind,
        gemv_kind: ClusterKind,
    ) -> RunReport {
        let phases = vec![
            self.run_phase_on(workload, Phase::VisionEncode, gemm_kind, pruning),
            self.run_phase_on(workload, Phase::Projector, gemm_kind, pruning),
            self.run_phase_on(workload, Phase::Prefill, gemm_kind, pruning),
            self.run_phase_on(workload, Phase::Decode, gemv_kind, pruning),
        ];
        RunReport {
            phases,
            output_tokens: workload.output_tokens(),
            clock_mhz: self.config.chip.clock_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgemm_mllm::zoo;

    fn workload(output_tokens: usize) -> ModelWorkload {
        ModelWorkload::new(zoo::sphinx_tiny(), 20, output_tokens)
    }

    fn hetero() -> Machine {
        Machine::new(SimConfig::paper_default())
    }

    #[test]
    fn decode_is_memory_bound_on_mc_clusters() {
        let m = hetero();
        let result = m.run_phase_on(
            &workload(8),
            Phase::Decode,
            ClusterKind::MemoryCentric,
            PruningEffect::disabled(),
        );
        assert!(
            result.memory_bound_fraction() > 0.5,
            "fraction = {}",
            result.memory_bound_fraction()
        );
    }

    #[test]
    fn prefill_is_compute_bound_on_cc_clusters() {
        let m = hetero();
        let w = workload(8);
        let result = m.run_ops(
            Phase::Prefill,
            &w.prefill_ops(),
            ClusterKind::ComputeCentric,
            PruningEffect::disabled(),
        );
        assert!(
            result.memory_bound_fraction() < 0.5,
            "fraction = {}",
            result.memory_bound_fraction()
        );
    }

    #[test]
    fn cc_clusters_run_gemm_phases_faster_than_mc() {
        // Fig. 11: a CC cluster shows ~4.3x better GEMM performance than an
        // MC cluster. Check the whole-chip GEMM-phase ratio is in the 2x-8x band.
        let m = hetero();
        let w = workload(8);
        let ops = w.prefill_ops();
        let cc = m.run_ops(
            Phase::Prefill,
            &ops,
            ClusterKind::ComputeCentric,
            PruningEffect::disabled(),
        );
        let mc = m.run_ops(
            Phase::Prefill,
            &ops,
            ClusterKind::MemoryCentric,
            PruningEffect::disabled(),
        );
        let ratio = mc.cycles.ratio(cc.cycles);
        assert!(ratio > 2.0 && ratio < 10.0, "GEMM CC advantage = {ratio}");
    }

    #[test]
    fn mc_clusters_run_decode_faster_than_cc() {
        // Fig. 11: an MC cluster is ~2.42x faster in GEMV.
        let m = hetero();
        let w = workload(8);
        let decode = |kind| m.run_phase_on(&w, Phase::Decode, kind, PruningEffect::disabled());
        let mc = decode(ClusterKind::MemoryCentric);
        let cc = decode(ClusterKind::ComputeCentric);
        let ratio = cc.cycles.ratio(mc.cycles);
        assert!(ratio > 1.5 && ratio < 4.0, "GEMV MC advantage = {ratio}");
    }

    #[test]
    fn pruning_cuts_decode_latency_substantially() {
        // The paper reports a 42% average decode-latency reduction.
        let m = hetero();
        let w = workload(16);
        let decode =
            |pruning| m.run_phase_on(&w, Phase::Decode, ClusterKind::MemoryCentric, pruning);
        let dense = decode(PruningEffect::disabled());
        let pruned = decode(PruningEffect::with_keep_ratio(0.5));
        let reduction = 1.0 - pruned.cycles.ratio(dense.cycles);
        assert!(
            reduction > 0.25 && reduction < 0.6,
            "reduction = {reduction}"
        );
    }

    #[test]
    fn giving_mc_more_bandwidth_speeds_decode() {
        let w = workload(16);
        let decode = |allocation| {
            Machine::new(SimConfig {
                allocation,
                ..SimConfig::paper_default()
            })
            .run_phase_on(
                &w,
                Phase::Decode,
                ClusterKind::MemoryCentric,
                PruningEffect::disabled(),
            )
        };
        let equal = decode(BandwidthAllocation::equal());
        let skewed = decode(BandwidthAllocation::from_ratio(1.0, 7.0));
        assert!(skewed.cycles < equal.cycles);
    }

    #[test]
    fn full_request_report_contains_all_phases() {
        let m = hetero();
        let report = m.run_request(&workload(16), PruningEffect::disabled());
        assert_eq!(report.phases.len(), 4);
        assert!(report.total_cycles() > 0);
        assert!(report.tokens_per_second() > 0.0);
        assert!(report.phase(Phase::Decode).unwrap().cycles > 0);
    }

    #[test]
    fn decode_dominates_latency_for_long_outputs() {
        // Fig. 2a: the decode share of latency grows with the output length.
        let m = hetero();
        let short = m.run_request(&workload(8), PruningEffect::disabled());
        let long = m.run_request(&workload(256), PruningEffect::disabled());
        let share = |r: &RunReport| {
            r.phase(Phase::Decode)
                .unwrap()
                .cycles
                .ratio(r.total_cycles())
        };
        assert!(share(&long) > share(&short));
        assert!(share(&long) > 0.7);
    }

    #[test]
    fn decode_cycles_scale_linearly_with_output_tokens() {
        let m = hetero();
        let decode = |tokens| {
            m.run_phase_on(
                &workload(tokens),
                Phase::Decode,
                ClusterKind::MemoryCentric,
                PruningEffect::disabled(),
            )
        };
        let (eight, sixteen) = (decode(8), decode(16));
        let ratio = sixteen.cycles.ratio(eight.cycles);
        assert!((ratio - 2.0).abs() < 0.15, "ratio = {ratio}");
    }

    #[test]
    fn decode_phase_is_step_cost_times_tokens() {
        let m = hetero();
        let w = workload(16);
        let kind = ClusterKind::MemoryCentric;
        let pruning = PruningEffect::with_keep_ratio(0.6);
        let step = m.run_ops(Phase::Decode, &w.phase_ops(Phase::Decode), kind, pruning);
        let full = m.run_phase_on(&w, Phase::Decode, kind, pruning);
        assert_eq!(full.cycles, step.cycles * 16usize);
        assert_eq!(full.compute_cycles, step.compute_cycles * 16usize);
        assert_eq!(full.dram_cycles, step.dram_cycles * 16usize);
        assert_eq!(full.dram_bytes, step.dram_bytes * 16usize);
        assert_eq!(full.ops, step.ops * 16);
        for (class, bytes) in &step.traffic {
            assert_eq!(full.traffic[class], *bytes * 16usize, "{class:?}");
        }
        // The step is the per-op costs at the average context, in order.
        let costs = m.decode_step_costs_at(&w, kind, pruning, w.average_context_tokens());
        assert_eq!(costs.len(), step.ops);
        let cycles: Cycles = costs.iter().map(OpCost::latency_cycles).sum();
        assert_eq!(cycles, step.cycles);
    }

    #[test]
    fn pruning_applies_to_the_decode_phase_only() {
        let m = hetero();
        let w = workload(16);
        let pruning = PruningEffect::with_keep_ratio(0.3);
        for phase in Phase::ALL {
            let kind = ClusterKind::ComputeCentric;
            let dense = m.run_phase_on(&w, phase, kind, PruningEffect::disabled());
            let pruned = m.run_phase_on(&w, phase, kind, pruning);
            if phase == Phase::Decode {
                assert!(pruned.cycles < dense.cycles, "decode ignored pruning");
            } else {
                assert_eq!(pruned, dense, "{phase:?} was pruned");
            }
        }
    }

    #[test]
    fn one_chunk_prefill_matches_the_whole_phase() {
        let m = hetero();
        let w = workload(8);
        let whole = m.run_phase_on(
            &w,
            Phase::Prefill,
            ClusterKind::ComputeCentric,
            PruningEffect::disabled(),
        );
        for budget in [w.prompt_tokens(), w.prompt_tokens() + 1, usize::MAX] {
            let chunks = m.prefill_chunk_costs(&w, ClusterKind::ComputeCentric, budget);
            assert_eq!(chunks.len(), 1);
            assert_eq!(chunks[0], whole);
        }
    }

    #[test]
    fn chunked_prefill_splits_the_prompt_and_costs_at_least_the_whole() {
        let m = hetero();
        let w = workload(8);
        let s = w.prompt_tokens();
        let whole = m.run_phase_on(
            &w,
            Phase::Prefill,
            ClusterKind::ComputeCentric,
            PruningEffect::disabled(),
        );
        let chunk = 128;
        let chunks = m.prefill_chunk_costs(&w, ClusterKind::ComputeCentric, chunk);
        assert_eq!(chunks.len(), s.div_ceil(chunk));
        let total_cycles: Cycles = chunks.iter().map(|c| c.cycles).sum();
        // Chunking re-streams the layer weights once per chunk, so the
        // summed cost can only grow. Small-m chunks stop hiding the weight
        // stream under compute, so the overhead is substantial — but it must
        // stay within the chunk-count factor (each chunk costs at most one
        // full weight pass).
        assert!(total_cycles >= whole.cycles, "chunking got cheaper");
        assert!(
            total_cycles.as_f64() < chunks.len() as f64 * whole.cycles.as_f64(),
            "chunk overhead exploded: {total_cycles} vs {}",
            whole.cycles
        );
        // Weight traffic scales with the chunk count; KV traffic does not.
        let total_bytes: Bytes = chunks.iter().map(|c| c.dram_bytes).sum();
        assert!(total_bytes > whole.dram_bytes);
    }

    #[test]
    fn finer_chunks_monotonically_increase_prefill_cost() {
        let m = hetero();
        let w = workload(8);
        let mut last = Cycles::MAX;
        for budget in [32usize, 64, 128, 512] {
            let total: Cycles = m
                .prefill_chunk_costs(&w, ClusterKind::ComputeCentric, budget)
                .iter()
                .map(|c| c.cycles)
                .sum();
            assert!(
                total <= last,
                "coarser budget {budget} cost more ({total} > {last})"
            );
            last = total;
        }
    }

    #[test]
    #[should_panic(expected = "chunk budget must be at least one token")]
    fn zero_chunk_budget_rejected() {
        let m = hetero();
        m.prefill_chunk_costs(&workload(4), ClusterKind::ComputeCentric, 0);
    }

    #[test]
    fn only_kv_ops_vary_with_the_context_length() {
        let m = hetero();
        let w = workload(16);
        let pruning = PruningEffect::disabled();
        let short = m.decode_step_costs_at(&w, ClusterKind::MemoryCentric, pruning, 300);
        let long = m.decode_step_costs_at(&w, ClusterKind::MemoryCentric, pruning, 900);
        assert_eq!(short.len(), long.len());
        for (a, b) in short.iter().zip(&long) {
            if a.traffic_class == edgemm_mllm::TrafficClass::KvCache {
                assert!(
                    b.dram_bytes > a.dram_bytes,
                    "KV bytes must grow: {a:?} {b:?}"
                );
            } else {
                assert_eq!(a, b, "weight-facing op changed with the context");
            }
        }
        let cycles = |costs: &[OpCost]| costs.iter().map(OpCost::latency_cycles).sum::<Cycles>();
        assert!(cycles(&long) > cycles(&short));
    }
}
