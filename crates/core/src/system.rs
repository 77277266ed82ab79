//! The assembled EdgeMM system: simulator + power model + pruning loop.

use std::collections::HashMap;
use std::sync::Mutex;

use edgemm_arch::PowerModel;
use edgemm_core::units::Bytes;
use edgemm_fleet::{FleetGateway, FleetReport, RoutingKind};
use edgemm_mllm::{ActivationGenerator, ActivationProfile, MllmConfig, ModelWorkload, Phase};
use edgemm_pruning::{DynamicTopK, Pruner};
use edgemm_sched::{Pipeline, RooflineStage};
use edgemm_serve::{
    AdmissionControl, PolicyKind, ServeConfig, ServeReport, ServeRequest, ServeSession,
    ServeSimulator, TraceConfig,
};
use edgemm_sim::{Machine, PruningEffect, RunReport, SimConfig};

/// How one request should be executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestOptions {
    /// Enable activation-aware dynamic Top-k weight pruning for the decode FFN.
    pub pruning: bool,
    /// Seed for the synthetic activation generator used to measure the
    /// pruning keep ratio.
    pub seed: u64,
}

impl Default for RequestOptions {
    fn default() -> Self {
        RequestOptions {
            pruning: false,
            seed: 7,
        }
    }
}

impl RequestOptions {
    /// Options with pruning enabled.
    pub fn with_pruning() -> Self {
        RequestOptions {
            pruning: true,
            ..Self::default()
        }
    }
}

/// How a multi-request serving run should be executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeOptions {
    /// Optional hard cap on concurrent decode streams, layered on top of
    /// the KV pool (`None` leaves batch membership entirely to
    /// [`Self::kv_budget_bytes`]). The default keeps the legacy constant
    /// cap of 8 so unconfigured runs reproduce earlier results.
    pub batch_cap: Option<usize>,
    /// Prefill chunk budget in prompt tokens: `Some(n)` lets the scheduler
    /// preempt a running prefill every `n` tokens (at the price of
    /// re-streaming layer weights once per chunk), `None` runs each prefill
    /// as one unpreemptible block.
    pub chunk_tokens: Option<usize>,
    /// Total KV-cache byte budget governing decode-batch admission. `None`
    /// is unbounded (the pre-pool behaviour). `Some(budget)` builds a
    /// [`edgemm_serve::KvPool`] whose on-chip tier is the chip's aggregate
    /// MC-cluster data memory (KV resident there generates no DRAM traffic
    /// per step) and whose spill traffic pays
    /// [`DEFAULT_SPILL_PENALTY`].
    pub kv_budget_bytes: Option<Bytes>,
    /// KV block size in tokens for *paged* allocation. `None` (default)
    /// keeps whole-request peak reservations; `Some(n)` allocates KV in
    /// `n`-token blocks lazily as decode progresses, prices every decode
    /// step at each stream's actual context length, and enables
    /// priority-aware mid-decode eviction (a strictly-less-urgent stream
    /// can lose its decode slot to a waiting arrival and re-queue for
    /// re-prefill). See `docs/memory.md` and [`ServeOptions::paged`].
    pub block_tokens: Option<usize>,
    /// Share KV blocks of identical declared prompt prefixes across
    /// requests (refcounted, copy-on-write). Requires [`Self::block_tokens`];
    /// see [`ServeOptions::shared_prefixes`] and `docs/memory.md`.
    pub prefix_sharing: bool,
    /// DRAM spill area for mid-decode eviction: `Some(capacity)` swaps a
    /// revoked stream's KV image out (and later back in) over DMA instead
    /// of recomputing its prefill; `None` keeps the recompute path.
    /// Requires [`Self::block_tokens`].
    pub spill_capacity_bytes: Option<Bytes>,
    /// Account KV written by finished prefill chunks while the stream still
    /// waits for a decode slot, so admission sees the true footprint.
    /// Requires [`Self::block_tokens`].
    pub eager_kv_accounting: bool,
    /// Scheduling policy governing CC admission and decode-batch join order.
    pub policy: PolicyKind,
    /// What happens to requests whose TTFT deadline is already unreachable
    /// when the CC stage looks for work: serve anyway (default, pre-SLO
    /// behaviour), defer behind feasible requests, or reject outright.
    pub admission: AdmissionControl,
    /// Enable activation-aware dynamic Top-k pruning for every request's
    /// decode FFN GEMVs (keep ratio measured on synthetic activations, as in
    /// single-request runs).
    pub pruning: bool,
    /// Seed for the keep-ratio measurement.
    pub seed: u64,
}

/// DRAM-cycle multiplier applied to KV traffic spilled past the on-chip
/// tier when a KV budget is set via [`ServeOptions::kv_budget_bytes`]:
/// spilled caches move in scattered per-stream blocks rather than one bulk
/// burst, so they run ~25% below the bulk effective bandwidth.
pub const DEFAULT_SPILL_PENALTY: f64 = 1.25;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            batch_cap: Some(8),
            chunk_tokens: None,
            kv_budget_bytes: None,
            block_tokens: None,
            prefix_sharing: false,
            spill_capacity_bytes: None,
            eager_kv_accounting: false,
            policy: PolicyKind::Fcfs,
            admission: AdmissionControl::Serve,
            pruning: false,
            seed: 7,
        }
    }
}

impl ServeOptions {
    /// Options with pruning enabled.
    pub fn with_pruning() -> Self {
        ServeOptions {
            pruning: true,
            ..Self::default()
        }
    }

    /// The SLO-aware serving stack: earliest-deadline-first admission with
    /// hopeless requests deferred behind salvageable ones, pruning on.
    pub fn slo_aware() -> Self {
        ServeOptions {
            policy: PolicyKind::EarliestDeadlineFirst,
            admission: AdmissionControl::Defer,
            ..Self::with_pruning()
        }
    }

    /// The memory-aware serving stack: the SLO-aware scheduler on top of
    /// chunked prefill and KV-budget batch admission, with no hard batch
    /// cap — batch membership follows from context lengths and the byte
    /// budget.
    pub fn memory_aware(kv_budget_bytes: Bytes, chunk_tokens: usize) -> Self {
        ServeOptions {
            batch_cap: None,
            chunk_tokens: Some(chunk_tokens),
            kv_budget_bytes: Some(kv_budget_bytes),
            ..Self::slo_aware()
        }
    }

    /// The same options with the KV budget *paged* at `block_tokens` tokens
    /// per block: KV is allocated lazily as decode progresses, decode steps
    /// are priced at each stream's actual context length, and mid-decode
    /// eviction with priority-aware decode-slot revocation is enabled —
    /// under pressure a less-urgent stream loses its slot (and re-queues
    /// for re-prefill) instead of making an urgent arrival wait for a full
    /// drain. Layer it on [`Self::memory_aware`] for the full stack.
    pub fn paged(self, block_tokens: usize) -> Self {
        ServeOptions {
            block_tokens: Some(block_tokens),
            ..self
        }
    }

    /// The full multi-tenant memory stack on top of paged options: prefix
    /// sharing, eager KV accounting for queued prefill chunks, and DMA
    /// spill-and-restore eviction with a `spill_capacity_bytes` DRAM area.
    /// Layer it on [`Self::paged`].
    pub fn shared_prefixes(self, spill_capacity_bytes: Bytes) -> Self {
        ServeOptions {
            prefix_sharing: true,
            spill_capacity_bytes: Some(spill_capacity_bytes),
            eager_kv_accounting: true,
            ..self
        }
    }
}

/// Measured behaviour of the dynamic Top-k scheme on synthetic activations.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningMeasurement {
    /// Average fraction of FFN channels kept across layers and tokens.
    pub average_keep_ratio: f64,
    /// Per-layer pruning ratio (1 - keep), averaged over tokens (Fig. 12a).
    pub layer_pruning_ratio: Vec<f64>,
    /// Per-layer kurtosis of the activation vectors (Fig. 12a).
    pub layer_kurtosis: Vec<f64>,
}

/// The outcome of executing one request on EdgeMM.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Per-phase simulation report.
    pub run: RunReport,
    /// End-to-end request latency in seconds (sequential phases).
    pub latency_s: f64,
    /// Output tokens per second over the request.
    pub tokens_per_second: f64,
    /// Tokens per joule, counting chip power and DRAM access energy.
    pub tokens_per_joule: f64,
    /// Measured pruning behaviour, when pruning was enabled.
    pub pruning: Option<PruningMeasurement>,
}

/// Cache key for [`EdgeMm::measure_pruning`]: everything the synthetic
/// measurement reads — the activation profile shape and the RNG seed.
type PruningKey = (usize, usize, u64, usize);

/// The assembled EdgeMM system.
#[derive(Debug)]
pub struct EdgeMm {
    machine: Machine,
    power: PowerModel,
    // Memoised pruning measurements: the synthetic activation sweep is a
    // pure function of (layers, d_model, seed, tokens), yet `serve` needs
    // its result on every call. Caching returns the exact struct the first
    // run produced; a `Mutex` keeps `EdgeMm: Sync`.
    pruning_cache: Mutex<HashMap<PruningKey, PruningMeasurement>>,
}

impl Clone for EdgeMm {
    fn clone(&self) -> Self {
        EdgeMm {
            machine: self.machine.clone(),
            power: self.power,
            // Fresh cache: entries are pure recomputations, so an empty
            // cache on the clone is semantically identical.
            pruning_cache: Mutex::new(HashMap::new()),
        }
    }
}

impl EdgeMm {
    /// Build a system from a simulator configuration.
    pub fn new(config: SimConfig) -> Self {
        EdgeMm {
            machine: Machine::new(config),
            power: PowerModel::calibrated_22nm(),
            pruning_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The paper's design point.
    pub fn paper_default() -> Self {
        Self::new(SimConfig::paper_default())
    }

    /// The homogeneous compute-centric ablation (Fig. 11).
    pub fn homo_cc() -> Self {
        Self::new(SimConfig::homo_cc())
    }

    /// The homogeneous memory-centric ablation (Fig. 11).
    pub fn homo_mc() -> Self {
        Self::new(SimConfig::homo_mc())
    }

    /// The underlying machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Measure the dynamic Top-k pruning behaviour on synthetic activations
    /// with the Fig. 3 channel statistics, for `tokens` generated tokens.
    ///
    /// The measurement is deterministic in the model shape and seed, so it
    /// is memoised: repeated calls (every `serve` invocation makes one)
    /// return the exact result of the first.
    pub fn measure_pruning(
        &self,
        workload: &ModelWorkload,
        seed: u64,
        tokens: usize,
    ) -> PruningMeasurement {
        let llm = &workload.config().llm;
        let key = (llm.layers, llm.d_model, seed, tokens.max(1));
        if let Some(measurement) = self
            .pruning_cache
            .lock()
            // lint:allow(no-unwrap): poisoning only follows a prior panic
            .expect("pruning cache poisoned")
            .get(&key)
        {
            return measurement.clone();
        }
        let measurement = self.measure_pruning_uncached(workload, seed, tokens);
        self.pruning_cache
            .lock()
            // lint:allow(no-unwrap): poisoning only follows a prior panic
            .expect("pruning cache poisoned")
            .insert(key, measurement.clone());
        measurement
    }

    fn measure_pruning_uncached(
        &self,
        workload: &ModelWorkload,
        seed: u64,
        tokens: usize,
    ) -> PruningMeasurement {
        let llm = &workload.config().llm;
        let profile = ActivationProfile::sphinx_tiny_like(llm.layers, llm.d_model);
        let generator = ActivationGenerator::new(profile, seed);
        let mut pruner = DynamicTopK::paper_default(llm.d_model);
        let mut layer_keep = vec![0.0f64; llm.layers];
        let mut layer_kurt = vec![0.0f64; llm.layers];
        let tokens = tokens.max(1);
        for token in 0..tokens {
            pruner.reset();
            for layer in 0..llm.layers {
                let activations = generator.generate(layer, token);
                let selection = pruner.select(layer, &activations);
                layer_keep[layer] += selection.keep_ratio();
                layer_kurt[layer] += edgemm_pruning::metrics::kurtosis(&activations);
            }
        }
        for v in layer_keep.iter_mut().chain(layer_kurt.iter_mut()) {
            *v /= tokens as f64;
        }
        let average_keep_ratio = layer_keep.iter().sum::<f64>() / layer_keep.len().max(1) as f64;
        PruningMeasurement {
            average_keep_ratio,
            layer_pruning_ratio: layer_keep.iter().map(|k| 1.0 - k).collect(),
            layer_kurtosis: layer_kurt,
        }
    }

    /// The decode pruning effect of the keep ratio measured over 4 tokens
    /// of `workload`'s model, and the measurement behind it: the one place
    /// single requests and serving runs turn a measurement into an effect.
    fn measured_pruning(
        &self,
        workload: &ModelWorkload,
        seed: u64,
    ) -> (PruningEffect, PruningMeasurement) {
        let measurement = self.measure_pruning(workload, seed, 4);
        let keep_ratio = measurement.average_keep_ratio.clamp(0.01, 1.0);
        (PruningEffect::with_keep_ratio(keep_ratio), measurement)
    }

    /// The decode pruning effect of one request under `options`, and the
    /// measurement behind it when pruning is on.
    fn decode_pruning(
        &self,
        workload: &ModelWorkload,
        options: RequestOptions,
    ) -> (PruningEffect, Option<PruningMeasurement>) {
        if options.pruning {
            let (effect, measurement) = self.measured_pruning(workload, options.seed);
            (effect, Some(measurement))
        } else {
            (PruningEffect::disabled(), None)
        }
    }

    /// Execute one request end to end (sequential phases, heterogeneous
    /// schedule: GEMM phases on CC clusters, decode on MC clusters).
    pub fn run(&self, workload: &ModelWorkload, options: RequestOptions) -> SystemReport {
        let (pruning, measurement) = self.decode_pruning(workload, options);
        let run = self.machine.run_request(workload, pruning);
        self.report(workload, run, measurement)
    }

    fn report(
        &self,
        workload: &ModelWorkload,
        run: RunReport,
        pruning: Option<PruningMeasurement>,
    ) -> SystemReport {
        let latency_s = run.total_seconds();
        let generated = workload.output_tokens() as f64;
        let tokens_per_second = if latency_s > 0.0 {
            generated / latency_s
        } else {
            0.0
        };
        let dram = &self.machine.config().dram;
        let bytes_per_token = run.total_dram_bytes().as_f64() / generated.max(1.0);
        let tokens_per_joule = self.power.tokens_per_joule(
            &self.machine.config().chip,
            tokens_per_second.max(1e-9),
            bytes_per_token,
            dram.energy_pj_per_byte,
        );
        SystemReport {
            run,
            latency_s,
            tokens_per_second,
            tokens_per_joule,
            pruning,
        }
    }

    /// The pruning effect a serving run should apply, measured the same way
    /// single-request runs measure it.
    fn serving_pruning(&self, model: &MllmConfig, options: ServeOptions) -> PruningEffect {
        if options.pruning {
            let reference = ModelWorkload::new(model.clone(), 20, 32);
            self.measured_pruning(&reference, options.seed).0
        } else {
            PruningEffect::disabled()
        }
    }

    /// Serve a stream of concurrent requests with continuous batching: the
    /// CC clusters encode + prefill one request at a time — in token-budget
    /// chunks when `options.chunk_tokens` is set, so urgent arrivals can
    /// preempt a long prefill at a chunk boundary — and the MC clusters
    /// decode all admitted streams as one stream batch that requests join
    /// (by KV-pool headroom and/or the hard cap) and leave on the fly.
    ///
    /// The report carries per-request timelines, latency/TTFT/TPOT
    /// percentiles (p50/p95/p99), per-class SLO attainment, rejected-request
    /// accounting, chunk-preemption and peak-KV-byte counters, steady-state
    /// tokens/s and the queue-depth timeline.
    ///
    /// # Panics
    ///
    /// Panics if a request arrives at a negative or non-finite time or two
    /// requests share an id.
    pub fn serve(
        &self,
        model: &MllmConfig,
        requests: &[ServeRequest],
        options: ServeOptions,
    ) -> ServeReport {
        self.serve_session(model, options).serve(requests)
    }

    /// Open a reusable serving session: the simulator (with its persistent
    /// pricing caches), the scratch allocations and the measured pruning
    /// effect are built once and reused by every [`ServeSession::serve`]
    /// call, instead of per trace as [`Self::serve`] does.
    ///
    /// Each `serve` call on the session is byte-identical to calling
    /// [`Self::serve`] with the same trace and options — the session only
    /// removes rebuild overhead, never state isolation (pinned by the
    /// `session_reuse_is_byte_identical_to_one_shot_serves` property).
    pub fn serve_session(&self, model: &MllmConfig, options: ServeOptions) -> ServeSession<'_> {
        let config = self.serving_config(model, options);
        let simulator = ServeSimulator::new(&self.machine, model.clone(), config);
        ServeSession::new(simulator, options.policy)
    }

    /// The engine-level [`ServeConfig`] a serving run under `options` uses:
    /// the one place [`ServeOptions`] is lowered onto this system's machine
    /// (KV on-chip tier sizing, spill penalty, measured pruning effect) —
    /// shared by sessions and fleet replicas so both tiers serve under
    /// exactly the same configuration.
    fn serving_config(&self, model: &MllmConfig, options: ServeOptions) -> ServeConfig {
        let kv = match options.kv_budget_bytes {
            None => edgemm_serve::KvPool::unbounded(),
            Some(budget) => {
                // The on-chip tier is the CIM-fused data memory of the MC
                // clusters that run decode (paper default: 8 x 512 KiB);
                // everything above it spills to DRAM at the penalty rate.
                let onchip = self
                    .machine
                    .config()
                    .chip
                    .total_data_memory(edgemm_arch::ClusterKind::MemoryCentric);
                edgemm_serve::KvPool::with_budget(budget)
                    .with_onchip(Bytes::new(onchip))
                    .with_spill_penalty(DEFAULT_SPILL_PENALTY)
            }
        };
        ServeConfig {
            batch_cap: options.batch_cap,
            chunk_tokens: options.chunk_tokens,
            kv,
            block_tokens: options.block_tokens,
            prefix_sharing: options.prefix_sharing,
            spill_capacity_bytes: options.spill_capacity_bytes,
            eager_kv_accounting: options.eager_kv_accounting,
            pruning: self.serving_pruning(model, options),
            admission: options.admission,
        }
    }

    /// Serve `requests` across a homogeneous fleet of `replicas` copies of
    /// this system behind a routed gateway (see `edgemm_fleet`): every
    /// replica's engine advances on one fleet clock, and `routing` picks
    /// each request's replica from the replicas' live load at its arrival
    /// instant. Every replica serves under these
    /// same `options` (policy, admission, memory model).
    ///
    /// A fleet of one replica is byte-identical to [`Self::serve`] under
    /// every routing policy (property-pinned). The power-of-two-choices
    /// router draws from a generator seeded with `options.seed`, so fleet
    /// runs are as deterministic as single-machine ones.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero, a request arrives at a negative or
    /// non-finite time, or two requests share an id.
    pub fn serve_fleet(
        &self,
        model: &MllmConfig,
        requests: &[ServeRequest],
        replicas: usize,
        routing: RoutingKind,
        options: ServeOptions,
    ) -> FleetReport {
        let systems: Vec<&EdgeMm> = std::iter::repeat(self).take(replicas).collect();
        Self::serve_fleet_on(&systems, model, requests, routing, options)
    }

    /// Serve `requests` across a heterogeneous fleet — one replica per
    /// system in `systems`, each priced on its own machine (the Fig.
    /// 11-style mixed-configuration tier: e.g. a pool of `paper_default`
    /// chips fronted by a few `homo_mc` decode specialists). Semantics
    /// otherwise match [`Self::serve_fleet`].
    ///
    /// Replicas on the same system (the same `&EdgeMm`) serve through
    /// clones of one simulator, so they share one pricing memo: a prefill
    /// chunk, the vision setup and the decode step's shape are priced once
    /// per system, not once per replica.
    ///
    /// # Panics
    ///
    /// Panics if `systems` is empty, a request arrives at a negative or
    /// non-finite time, or two requests share an id.
    pub fn serve_fleet_on(
        systems: &[&EdgeMm],
        model: &MllmConfig,
        requests: &[ServeRequest],
        routing: RoutingKind,
        options: ServeOptions,
    ) -> FleetReport {
        let mut simulators: Vec<(&EdgeMm, ServeSimulator<'_>)> = Vec::new();
        let replicas: Vec<ServeSession<'_>> = systems
            .iter()
            .map(|&system| {
                let shared = simulators
                    .iter()
                    .find(|(built, _)| std::ptr::eq(*built, system));
                let simulator = match shared {
                    Some((_, simulator)) => simulator.clone(),
                    None => {
                        let config = system.serving_config(model, options);
                        let simulator = ServeSimulator::new(&system.machine, model.clone(), config);
                        simulators.push((system, simulator.clone()));
                        simulator
                    }
                };
                ServeSession::new(simulator, options.policy)
            })
            .collect();
        let mut routing = routing.policy(options.seed);
        FleetGateway::new(replicas).serve(requests, routing.as_mut())
    }

    /// Generate a synthetic trace and serve it (see [`Self::serve`]).
    pub fn serve_trace(
        &self,
        model: &MllmConfig,
        trace: &TraceConfig,
        options: ServeOptions,
    ) -> ServeReport {
        self.serve(model, &trace.generate(), options)
    }

    /// Summarise a workload as a two-stage pipeline (CC: encode + prefill,
    /// MC: decode per token) for the token-length-driven bandwidth manager.
    pub fn pipeline_for(&self, workload: &ModelWorkload, options: RequestOptions) -> Pipeline {
        let clock_hz = self.machine.config().chip.clock_mhz as f64 * 1.0e6;
        let bw = self.machine.config().dram.peak_gib_s;
        let (pruning, _) = self.decode_pruning(workload, options);
        let cc_phases = [Phase::VisionEncode, Phase::Projector, Phase::Prefill];
        let mut cc_compute = 0.0;
        let mut cc_bytes = 0.0;
        for &phase in &cc_phases {
            let r = self.machine.run_phase_on(
                workload,
                phase,
                edgemm_arch::ClusterKind::ComputeCentric,
                pruning,
            );
            cc_compute += r.compute_cycles.seconds_at(clock_hz);
            cc_bytes += r.dram_bytes.as_f64();
        }
        let decode_all = self.machine.run_phase_on(
            workload,
            Phase::Decode,
            edgemm_arch::ClusterKind::MemoryCentric,
            pruning,
        );
        let tokens = workload.output_tokens() as f64;
        Pipeline::new(
            RooflineStage::new(cc_compute, cc_bytes, bw),
            RooflineStage::new(
                decode_all.compute_cycles.seconds_at(clock_hz) / tokens,
                decode_all.dram_bytes.as_f64() / tokens,
                bw,
            ),
        )
    }
}

impl Default for EdgeMm {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgemm_mllm::zoo;

    fn workload(tokens: usize) -> ModelWorkload {
        ModelWorkload::new(zoo::sphinx_tiny(), 20, tokens)
    }

    #[test]
    fn run_produces_consistent_report() {
        let system = EdgeMm::paper_default();
        let report = system.run(&workload(32), RequestOptions::default());
        assert!(report.latency_s > 0.0);
        assert!(report.tokens_per_second > 1.0);
        assert!(report.tokens_per_joule > 0.0);
        assert!(report.pruning.is_none());
        assert_eq!(report.run.output_tokens, 32);
    }

    #[test]
    fn pruning_improves_performance_and_reports_measurement() {
        let system = EdgeMm::paper_default();
        let dense = system.run(&workload(64), RequestOptions::default());
        let pruned = system.run(&workload(64), RequestOptions::with_pruning());
        assert!(pruned.tokens_per_second > dense.tokens_per_second);
        let m = pruned.pruning.expect("measurement present");
        assert!(m.average_keep_ratio > 0.0 && m.average_keep_ratio < 1.0);
        assert_eq!(m.layer_pruning_ratio.len(), 22);
    }

    #[test]
    fn pruning_measurement_matches_paper_shape() {
        // Fig. 12a: pruning ratio grows with depth; the first layer is never pruned.
        let system = EdgeMm::paper_default();
        let m = system.measure_pruning(&workload(16), 7, 3);
        assert!(m.layer_pruning_ratio[0] < 1e-9);
        let early: f64 = m.layer_pruning_ratio[1..5].iter().sum::<f64>() / 4.0;
        let late: f64 = m.layer_pruning_ratio[18..22].iter().sum::<f64>() / 4.0;
        assert!(late >= early, "late {late} < early {early}");
        // Deep layers should prune away most channels.
        assert!(late > 0.5, "late pruning ratio = {late}");
        // Kurtosis grows with depth.
        assert!(m.layer_kurtosis[21] > m.layer_kurtosis[1]);
    }

    #[test]
    fn hetero_outperforms_both_homogeneous_designs() {
        // Fig. 11 headline: heterogeneous EdgeMM beats homo-CC and homo-MC
        // on the full MLLM.
        let w = workload(64);
        let hetero = EdgeMm::paper_default().run(&w, RequestOptions::default());
        let homo_cc = {
            let system = EdgeMm::homo_cc();
            let run = system.machine().run_request_with_assignment(
                &w,
                PruningEffect::disabled(),
                edgemm_arch::ClusterKind::ComputeCentric,
                edgemm_arch::ClusterKind::ComputeCentric,
            );
            run.total_seconds()
        };
        let homo_mc = {
            let system = EdgeMm::homo_mc();
            let run = system.machine().run_request_with_assignment(
                &w,
                PruningEffect::disabled(),
                edgemm_arch::ClusterKind::MemoryCentric,
                edgemm_arch::ClusterKind::MemoryCentric,
            );
            run.total_seconds()
        };
        assert!(
            hetero.latency_s < homo_cc,
            "hetero {} vs homo-CC {homo_cc}",
            hetero.latency_s
        );
        assert!(
            hetero.latency_s < homo_mc,
            "hetero {} vs homo-MC {homo_mc}",
            hetero.latency_s
        );
    }

    #[test]
    fn pipeline_summary_is_positive_and_cc_heavy_for_short_outputs() {
        let system = EdgeMm::paper_default();
        let pipeline = system.pipeline_for(&workload(8), RequestOptions::with_pruning());
        assert!(pipeline.cc_stage.compute_s > 0.0);
        assert!(pipeline.mc_stage_per_token.dram_bytes > 0.0);
        let le = pipeline.expected_token_length();
        assert!(le >= 1, "l_e = {le}");
    }

    #[test]
    fn serving_reports_percentiles_and_throughput() {
        let system = EdgeMm::paper_default();
        let trace = edgemm_serve::TraceConfig::interactive(10, 30.0, 5);
        let report = system.serve_trace(&zoo::sphinx_tiny(), &trace, ServeOptions::default());
        assert_eq!(report.completed.len(), 10);
        assert!(report.p50_latency_s() > 0.0);
        assert!(report.p95_latency_s() >= report.p50_latency_s());
        assert!(report.p99_latency_s() >= report.p95_latency_s());
        assert!(report.tokens_per_second() > 0.0);
    }

    #[test]
    fn serving_reports_slo_metrics_per_class() {
        let system = EdgeMm::paper_default();
        let mixed = edgemm_serve::merge(&[
            edgemm_serve::TraceConfig::interactive(8, 20.0, 5).generate(),
            edgemm_serve::TraceConfig::background(4, 4.0, 6).generate(),
        ]);
        let report = system.serve(&zoo::sphinx_tiny(), &mixed, ServeOptions::slo_aware());
        assert_eq!(report.submitted(), 12);
        let stats = report.class_stats();
        assert_eq!(stats.len(), 2, "both classes must be represented");
        assert_eq!(stats[0].priority, edgemm_serve::Priority::Interactive);
        assert!(stats[0].p95_ttft_s > 0.0);
        assert!(stats[0].p99_tpot_s >= stats[0].p95_tpot_s);
        assert!(report.slo_attainment() > 0.0 && report.slo_attainment() <= 1.0);
    }

    #[test]
    fn reject_admission_surfaces_through_the_facade() {
        let system = EdgeMm::paper_default();
        // A burst far beyond the CC stage's capacity with tight deadlines.
        let trace = edgemm_serve::TraceConfig::saturated(10, 24, 8)
            .with_slo(edgemm_serve::SloClass::interactive().with_ttft(0.12));
        let report = system.serve_trace(
            &zoo::sphinx_tiny(),
            &trace,
            ServeOptions {
                admission: edgemm_serve::AdmissionControl::Reject,
                policy: PolicyKind::EarliestDeadlineFirst,
                ..ServeOptions::default()
            },
        );
        assert!(!report.rejected.is_empty());
        assert_eq!(report.submitted(), 10);
        assert!(report.completed.iter().all(|c| c.meets_ttft()));
    }

    #[test]
    fn serving_with_pruning_outpaces_dense_serving() {
        let system = EdgeMm::paper_default();
        let trace = edgemm_serve::TraceConfig::saturated(6, 20, 32);
        let dense = system.serve_trace(&zoo::sphinx_tiny(), &trace, ServeOptions::default());
        let pruned = system.serve_trace(&zoo::sphinx_tiny(), &trace, ServeOptions::with_pruning());
        assert!(
            pruned.tokens_per_second() > dense.tokens_per_second(),
            "pruned {} vs dense {}",
            pruned.tokens_per_second(),
            dense.tokens_per_second()
        );
    }
}
