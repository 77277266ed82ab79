//! The workloads: their seeded traces, serving stacks, per-op output checks
//! and the modeled (simulated) metrics read from each op's report.

use std::fmt::{self, Write as _};

use edgemm::arch::ClusterKind;
use edgemm::figures::{
    fig11_hetero, fig12_pruning, fig13_bandwidth, table2_gpu_comparison, Fig11Report, Fig12Report,
    Fig13Report, Table2Report,
};
use edgemm::mllm::{zoo, MllmConfig, ModelWorkload};
use edgemm::serve::{merge, KvPool, ServeConfig, ServeReport, ServeRequest, TraceConfig};
use edgemm::sim::PruningEffect;
use edgemm::units::{Bytes, Tokens};
use edgemm::{EdgeMm, FleetReport, RoutingKind, ServeOptions, DEFAULT_SPILL_PENALTY};

use crate::spans::Recorder;

/// One benchmark workload. Every op of a workload is a closed loop with one
/// client: the next op starts when the previous one returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One replica serves `T(1600, 2/s, seed)`: sub-saturation serving.
    ServeLight,
    /// The same stack and trace shape at 48/s: deep queues.
    ServeOverload,
    /// 16 least-KV-routed replicas serve `T(400, 48/s, seed)`.
    FleetRoute,
    /// Regenerates Table II and Figs. 11, 12 and 13 for SPHINX-Tiny.
    PaperEval,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ServeLight,
        Workload::ServeOverload,
        Workload::FleetRoute,
        Workload::PaperEval,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLight => "serve_light",
            Workload::ServeOverload => "serve_overload",
            Workload::FleetRoute => "fleet_route",
            Workload::PaperEval => "paper_eval",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Replicas behind the `fleet_route` gateway.
pub const FLEET_REPLICAS: usize = 16;
/// Routing policy of the `fleet_route` gateway.
pub const FLEET_ROUTING: RoutingKind = RoutingKind::LeastKvLoaded;

/// `T(N, rate, seed)`: six tenants' multi-tenant interactive trace merged
/// with a long-prompt background trace of `N/12` requests at `rate/4`,
/// seeded `seed + 100`. `T(96, 48, 23)` is the `golden_fleet_routing_point`
/// trace.
pub fn trace(requests: usize, rate: f64, seed: u64) -> Vec<ServeRequest> {
    merge(&[
        TraceConfig::multi_tenant(6, requests, rate, seed).generate(),
        TraceConfig {
            text_tokens: (512, 768),
            ..TraceConfig::background(requests / 12, rate / 4.0, seed.wrapping_add(100))
        }
        .generate(),
    ])
}

/// Traces a request workload's run cycles through, op after op.
const TRACES_PER_RUN: u64 = 16;

/// The traces of one run: `T(N, rate, seed + 1000·j)` for `j` below
/// [`TRACES_PER_RUN`], the run's own seed first. Under overload the host
/// cost of one trace swings up to 2× with its seed (the candidates a policy
/// call scans range from ~58 to ~305 on average), so a run takes the median
/// op over several traces rather than over one.
pub fn run_traces(requests: usize, rate: f64, seed: u64) -> Vec<Vec<ServeRequest>> {
    (0..TRACES_PER_RUN)
        .map(|j| trace(requests, rate, seed.wrapping_add(1000 * j)))
        .collect()
}

/// The served model of every workload.
pub fn model() -> MllmConfig {
    zoo::sphinx_tiny()
}

/// The golden multi-tenant stack the `serve_*` workloads run: EDF with
/// deferred admission, chunk 64, an 8 MiB KV budget paged in 16-token
/// blocks, prefix sharing and a 128 MiB spill area.
pub fn serve_options() -> ServeOptions {
    ServeOptions::memory_aware(Bytes::new(8 << 20), 64)
        .paged(16)
        .shared_prefixes(Bytes::new(128 << 20))
}

/// The golden fleet stack: the same paged 8 MiB budget with prefix sharing
/// but no spill area, so evictions recompute.
pub fn fleet_options() -> ServeOptions {
    ServeOptions {
        prefix_sharing: true,
        ..ServeOptions::memory_aware(Bytes::new(8 << 20), 64).paged(16)
    }
}

/// The pruning effect a serving run under `options` applies, measured the
/// way the facade measures it.
fn serving_pruning(system: &EdgeMm, model: &MllmConfig, options: ServeOptions) -> PruningEffect {
    if !options.pruning {
        return PruningEffect::disabled();
    }
    let reference = ModelWorkload::new(model.clone(), 20, 32);
    let measurement = system.measure_pruning(&reference, options.seed, 4);
    PruningEffect::with_keep_ratio(measurement.average_keep_ratio.clamp(0.01, 1.0))
}

/// The benchmark's own lowering of [`ServeOptions`] onto an engine
/// [`ServeConfig`] (the facade's is private). The traced runs feed their
/// decorated policies through it and assert that their reports equal the
/// facade's byte for byte, which pins this copy to the facade's.
pub fn lower(system: &EdgeMm, model: &MllmConfig, options: ServeOptions) -> ServeConfig {
    let kv = match options.kv_budget_bytes {
        None => KvPool::unbounded(),
        Some(budget) => {
            let onchip = system
                .machine()
                .config()
                .chip
                .total_data_memory(ClusterKind::MemoryCentric);
            KvPool::with_budget(budget)
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
        pruning: serving_pruning(system, model, options),
        admission: options.admission,
    }
}

/// Every request is accounted for and every spilled byte was restored.
pub fn check_serve(report: &ServeReport, submitted: usize) -> Result<(), String> {
    if report.submitted() != submitted {
        return Err(format!(
            "{} completed + {} rejected != {submitted} submitted",
            report.completed.len(),
            report.rejected.len()
        ));
    }
    if report.spilled_kv_bytes != report.restored_kv_bytes {
        return Err(format!(
            "spilled {} != restored {}",
            report.spilled_kv_bytes, report.restored_kv_bytes
        ));
    }
    Ok(())
}

/// Every request was dispatched once and accounted for on its replica.
pub fn check_fleet(report: &FleetReport, submitted: usize) -> Result<(), String> {
    if report.dispatched() != submitted || report.submitted() != submitted {
        return Err(format!(
            "dispatched {} / accounted {} != {submitted} submitted",
            report.dispatched(),
            report.submitted()
        ));
    }
    for replica in &report.replicas {
        check_serve(replica, replica.submitted())?;
    }
    Ok(())
}

/// Streams `Debug` output through FNV-1a-64 without materialising it: the
/// same digest [`edgemm::mem::fnv1a_64`] gives over the formatted bytes.
struct Fnv1a(u64);

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a-64 of `value`'s `Debug` bytes.
pub fn debug_hash(value: &impl fmt::Debug) -> u64 {
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(hasher, "{value:?}").expect("hashing never fails");
    hasher.0
}

/// All requests of a fleet run folded into one report, so fleet and
/// single-replica runs share the percentile code. Queue samples are left
/// out: they are per-replica timelines.
pub fn fleet_as_serve(report: &FleetReport) -> ServeReport {
    let replicas = &report.replicas;
    ServeReport {
        completed: replicas
            .iter()
            .flat_map(|r| r.completed.iter().copied())
            .collect(),
        rejected: replicas
            .iter()
            .flat_map(|r| r.rejected.iter().copied())
            .collect(),
        queue_samples: Vec::new(),
        decode_steps: replicas.iter().map(|r| r.decode_steps).sum(),
        preemptions: replicas.iter().map(|r| r.preemptions).sum(),
        evictions: replicas.iter().map(|r| r.evictions).sum(),
        restarted_prefill_tokens: replicas.iter().map(|r| r.restarted_prefill_tokens).sum(),
        spilled_kv_bytes: replicas.iter().map(|r| r.spilled_kv_bytes).sum(),
        restored_kv_bytes: replicas.iter().map(|r| r.restored_kv_bytes).sum(),
        peak_kv_bytes: report.peak_kv_bytes(),
        total_output_tokens: report.total_output_tokens(),
        makespan_s: report.makespan_s,
    }
}

/// Prompt tokens (vision plus text) the trace asks the CC stage to prefill
/// once.
pub fn prompt_tokens(model: &MllmConfig, requests: &[ServeRequest]) -> Tokens {
    requests
        .iter()
        .map(|r| Tokens::new(ModelWorkload::new(model.clone(), r.text_tokens, 1).prompt_tokens()))
        .sum()
}

/// The modeled request-level metrics of one run, by metric name.
pub fn request_metrics(report: &ServeReport) -> Vec<(&'static str, f64)> {
    vec![
        ("sim_ttft_p50_s", report.ttft_percentile_s(50.0)),
        ("sim_ttft_p95_s", report.ttft_percentile_s(95.0)),
        ("sim_tpot_p50_s", report.tpot_percentile_s(50.0)),
        ("sim_tpot_p95_s", report.tpot_percentile_s(95.0)),
        ("slo_attainment", report.slo_attainment()),
        ("sim_tokens_per_s", report.tokens_per_second()),
    ]
}

/// The modeled memory-layer counts of one run.
pub fn mem_counts(report: &ServeReport, prompt_tokens: Tokens) -> Vec<(&'static str, f64)> {
    const MIB: f64 = (1u64 << 20) as f64;
    let restarted = report.restarted_prefill_tokens.as_f64();
    vec![
        ("mem.peak_kv_mib", report.peak_kv_bytes.as_f64() / MIB),
        ("mem.evictions", report.evictions as f64),
        ("mem.spilled_mib", report.spilled_kv_bytes.as_f64() / MIB),
        ("mem.restored_mib", report.restored_kv_bytes.as_f64() / MIB),
        ("mem.restarted_prefill_tokens", restarted),
        (
            "mem.recompute_ratio",
            restarted / prompt_tokens.as_f64().max(1.0),
        ),
    ]
}

/// The paper figures `paper_eval` regenerates.
#[derive(Debug)]
pub struct Figures {
    pub table2: Table2Report,
    pub fig11: Fig11Report,
    pub fig12: Fig12Report,
    pub fig13: Fig13Report,
}

/// Fig. 13's output-length sweep, as the report binary runs it.
const FIG13_LENGTHS: [usize; 8] = [8, 16, 36, 64, 128, 256, 512, 1024];
/// Output tokens of the Table II and Fig. 11 request.
pub const PAPER_OUTPUT_TOKENS: usize = 64;

/// One regeneration of Table II and Figs. 11–13 at the report binaries'
/// shapes, Fig. 12 at the full FFN with its activation generator seeded
/// `seed`. Each figure builds fresh systems, so pricing is cold every time.
/// With a recorder, each figure call is one `core.*` span.
pub fn regenerate(seed: u64, recorder: Option<&Recorder>) -> Figures {
    fn figure<T>(recorder: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match recorder {
            Some(r) => r.in_span(name, 1, f),
            None => f(),
        }
    }
    let model = model();
    let (channels, ffn) = (model.llm.d_model, model.llm.d_ffn);
    Figures {
        table2: figure(recorder, "core.table2", || {
            table2_gpu_comparison(&model, PAPER_OUTPUT_TOKENS)
        }),
        fig11: figure(recorder, "core.fig11", || {
            fig11_hetero(&model, PAPER_OUTPUT_TOKENS)
        }),
        fig12: figure(recorder, "core.fig12", || {
            fig12_pruning(&model, channels, ffn, seed)
        }),
        fig13: figure(recorder, "core.fig13", || {
            fig13_bandwidth(&model, &FIG13_LENGTHS)
        }),
    }
}

/// The paper values this repository records, each with the regenerated
/// value it is compared to.
pub fn paper_pairs(figures: &Figures) -> [(&'static str, f64, f64); 3] {
    [
        (
            "Table II EdgeMM speedup over RTX 3060 Laptop",
            2.15,
            figures.table2.edgemm_speedup,
        ),
        (
            "Table II EdgeMM + pruning speedup over RTX 3060 Laptop",
            2.84,
            figures.table2.edgemm_pruned_speedup,
        ),
        (
            "Fig. 12 decode-latency reduction from pruning",
            0.42,
            figures.fig12.decode_latency_reduction,
        ),
    ]
}

/// Mean relative error of the regenerated values against the paper's.
pub fn paper_rel_error(figures: &Figures) -> f64 {
    let pairs = paper_pairs(figures);
    pairs
        .iter()
        .map(|(_, paper, model)| ((model - paper) / paper).abs())
        .sum::<f64>()
        / pairs.len() as f64
}

/// Every regenerated headline is a finite positive number.
pub fn check_figures(figures: &Figures) -> Result<(), String> {
    let headlines = [
        figures.table2.edgemm_speedup,
        figures.table2.edgemm_pruned_speedup,
        figures.fig11.hetero_vs_homo_cc,
        figures.fig11.hetero_vs_homo_mc,
        figures.fig12.decode_latency_reduction,
    ];
    if headlines.iter().all(|v| v.is_finite() && *v > 0.0) && !figures.fig13.rows.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "non-positive or non-finite headline in {headlines:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_hash_matches_the_library_digest() {
        let value = trace(24, 8.0, 3);
        assert_eq!(
            debug_hash(&value),
            edgemm::mem::fnv1a_64(format!("{value:?}").as_bytes())
        );
    }

    #[test]
    fn seed_23_at_96_requests_is_the_golden_fleet_trace() {
        let golden = merge(&[
            TraceConfig::multi_tenant(6, 96, 48.0, 23).generate(),
            TraceConfig {
                text_tokens: (512, 768),
                ..TraceConfig::background(8, 12.0, 123)
            }
            .generate(),
        ]);
        assert_eq!(trace(96, 48.0, 23), golden);
    }
}
