//! Data generators for every table and figure of the paper's evaluation.
//!
//! Each function returns plain data that the `edgemm-bench` report binaries
//! print as the corresponding table/series. EXPERIMENTS.md records the
//! paper-reported values next to the values these generators produce.

use edgemm_arch::{AreaModel, ChipConfig, ClusterKind, PowerModel};
use edgemm_baseline::{GpuModel, RooflineDevice, SnitchBaseline};
use edgemm_core::units::Bytes;
use edgemm_mem::DramModel;
use edgemm_mllm::{
    gemm_from_fn, ActivationGenerator, ActivationProfile, Matrix, MllmConfig, ModelWorkload, Phase,
};
use edgemm_pruning::{metrics, DynamicTopK, FixedRatioPruning, Pruner};
use edgemm_sched::{BandwidthPolicy, TokenLengthManager};
use edgemm_sim::PruningEffect;

use crate::system::{EdgeMm, RequestOptions};

/// Fig. 2: workload analysis of one MLLM.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Output token length of this row.
    pub output_tokens: usize,
    /// Per-phase latency on the GPU reference, in seconds (Fig. 2a).
    pub gpu_phase_seconds: Vec<(Phase, f64)>,
    /// Per-phase FLOPs (Fig. 2b).
    pub phase_flops: Vec<(Phase, u64)>,
    /// Per-phase DRAM weight bytes (Fig. 2b/2c).
    pub phase_weight_bytes: Vec<(Phase, u64)>,
}

/// Generate the Fig. 2 workload analysis for one model over several output lengths.
pub fn fig2_workload(model: &MllmConfig, output_lengths: &[usize]) -> Vec<Fig2Row> {
    let gpu = GpuModel::rtx3060_laptop();
    output_lengths
        .iter()
        .map(|&l| {
            let workload = ModelWorkload::new(model.clone(), 20, l);
            Fig2Row {
                output_tokens: l,
                gpu_phase_seconds: Phase::ALL
                    .iter()
                    .map(|&p| (p, gpu.phase_seconds(&workload, p)))
                    .collect(),
                phase_flops: Phase::ALL
                    .iter()
                    .map(|&p| (p, workload.phase_flops(p)))
                    .collect(),
                phase_weight_bytes: Phase::ALL
                    .iter()
                    .map(|&p| (p, workload.phase_weight_bytes(p)))
                    .collect(),
            }
        })
        .collect()
}

/// Fig. 3: per-layer activation channel statistics.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Decoder layer index.
    pub layer: usize,
    /// Maximum absolute channel magnitude.
    pub max_abs: f32,
    /// Mean absolute channel magnitude.
    pub mean_abs: f32,
    /// Fraction of channels below `max/16` (the "negligible" channels of Alg. 1).
    pub negligible_fraction: f64,
    /// Kurtosis of the channel distribution.
    pub kurtosis: f64,
}

/// Generate the Fig. 3 activation-sparsity profile for a model.
pub fn fig3_sparsity(model: &MllmConfig, seed: u64) -> Vec<Fig3Row> {
    let profile = ActivationProfile::sphinx_tiny_like(model.llm.layers, model.llm.d_model);
    let generator = ActivationGenerator::new(profile, seed);
    (0..model.llm.layers)
        .map(|layer| {
            let v = generator.generate(layer, 0);
            let max_abs = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let mean_abs = v.iter().map(|x| x.abs()).sum::<f32>() / v.len() as f32;
            let negligible = v.iter().filter(|x| x.abs() < max_abs / 16.0).count();
            Fig3Row {
                layer,
                max_abs,
                mean_abs,
                negligible_fraction: negligible as f64 / v.len() as f64,
                kurtosis: metrics::kurtosis(&v),
            }
        })
        .collect()
}

/// Fig. 6b: effective DMA bandwidth vs transfer block size.
pub fn fig6_effective_bandwidth(block_sizes: &[u64]) -> Vec<(u64, f64)> {
    let dram = DramModel::paper_default();
    block_sizes
        .iter()
        .map(|&b| (b, dram.effective_bandwidth_gib_s(Bytes::new(b))))
        .collect()
}

/// Fig. 10: design configuration, area and power summary.
#[derive(Debug, Clone)]
pub struct Fig10Report {
    /// Number of CC cores on the chip.
    pub cc_cores: usize,
    /// Number of MC cores on the chip.
    pub mc_cores: usize,
    /// Fraction of a CC core occupied by the systolic-array coprocessor.
    pub sa_area_fraction: f64,
    /// Fraction of an MC core occupied by the CIM macro.
    pub cim_area_fraction: f64,
    /// Estimated chip area in mm^2.
    pub chip_area_mm2: f64,
    /// Estimated chip power in mW at 1 GHz.
    pub chip_power_mw: f64,
    /// Peak BF16 throughput in TFLOP/s.
    pub peak_tflops: f64,
}

/// Generate the Fig. 10 configuration summary.
pub fn fig10_config() -> Fig10Report {
    let chip = ChipConfig::paper_default();
    let area = AreaModel::calibrated_22nm();
    let power = PowerModel::calibrated_22nm();
    Fig10Report {
        cc_cores: chip.total_cores(ClusterKind::ComputeCentric),
        mc_cores: chip.total_cores(ClusterKind::MemoryCentric),
        sa_area_fraction: area.cc_core(&chip).coprocessor_fraction(),
        cim_area_fraction: area.mc_core(&chip).coprocessor_fraction(),
        chip_area_mm2: area.chip_mm2(&chip),
        chip_power_mw: power.chip_power(&chip).total_mw(),
        peak_tflops: chip.peak_tflops(),
    }
}

/// Fig. 11: speedups of the extended designs over the Snitch SIMD baseline.
#[derive(Debug, Clone)]
pub struct Fig11Report {
    /// Per-phase speedups of the homo-CC design over the baseline.
    pub homo_cc: Vec<(Phase, f64)>,
    /// Per-phase speedups of the homo-MC design over the baseline.
    pub homo_mc: Vec<(Phase, f64)>,
    /// Per-phase speedups of heterogeneous EdgeMM over the baseline.
    pub hetero: Vec<(Phase, f64)>,
    /// Whole-MLLM speedup of hetero over homo-CC.
    pub hetero_vs_homo_cc: f64,
    /// Whole-MLLM speedup of hetero over homo-MC.
    pub hetero_vs_homo_mc: f64,
}

fn request_seconds(
    system: &EdgeMm,
    workload: &ModelWorkload,
    gemm: ClusterKind,
    gemv: ClusterKind,
) -> (Vec<(Phase, f64)>, f64) {
    let run = system.machine().run_request_with_assignment(
        workload,
        PruningEffect::disabled(),
        gemm,
        gemv,
    );
    let clock = system.machine().config().chip.clock_mhz;
    let per_phase = run
        .phases
        .iter()
        .map(|p| (p.phase, p.seconds(clock)))
        .collect();
    (per_phase, run.total_seconds())
}

/// Generate the Fig. 11 homogeneous-vs-heterogeneous comparison.
pub fn fig11_hetero(model: &MllmConfig, output_tokens: usize) -> Fig11Report {
    let workload = ModelWorkload::new(model.clone(), 20, output_tokens);
    let baseline = SnitchBaseline::paper_default();
    let base_per_phase: Vec<(Phase, f64)> = Phase::ALL
        .iter()
        .map(|&p| (p, baseline.phase_seconds(&workload, p)))
        .collect();

    let speedups = |per_phase: &[(Phase, f64)]| -> Vec<(Phase, f64)> {
        per_phase
            .iter()
            .zip(&base_per_phase)
            .map(|((p, s), (_, b))| (*p, if *s > 0.0 { b / s } else { 0.0 }))
            .collect()
    };

    let (cc_phases, cc_total) = request_seconds(
        &EdgeMm::homo_cc(),
        &workload,
        ClusterKind::ComputeCentric,
        ClusterKind::ComputeCentric,
    );
    let (mc_phases, mc_total) = request_seconds(
        &EdgeMm::homo_mc(),
        &workload,
        ClusterKind::MemoryCentric,
        ClusterKind::MemoryCentric,
    );
    let (hetero_phases, hetero_total) = request_seconds(
        &EdgeMm::paper_default(),
        &workload,
        ClusterKind::ComputeCentric,
        ClusterKind::MemoryCentric,
    );
    Fig11Report {
        homo_cc: speedups(&cc_phases),
        homo_mc: speedups(&mc_phases),
        hetero: speedups(&hetero_phases),
        hetero_vs_homo_cc: cc_total / hetero_total,
        hetero_vs_homo_mc: mc_total / hetero_total,
    }
}

/// Fig. 12: pruning evaluation.
#[derive(Debug, Clone)]
pub struct Fig12Report {
    /// Per-layer kurtosis (Fig. 12a).
    pub layer_kurtosis: Vec<f64>,
    /// Per-layer dynamic pruning ratio (Fig. 12a).
    pub layer_pruning_ratio: Vec<f64>,
    /// Per-layer cosine similarity of the dynamic scheme (Fig. 12b).
    pub cosine_dynamic: Vec<f64>,
    /// Per-layer cosine similarity at a fixed 0.1 pruning ratio.
    pub cosine_fixed_mild: Vec<f64>,
    /// Per-layer cosine similarity at a fixed 0.7 pruning ratio.
    pub cosine_fixed_aggressive: Vec<f64>,
    /// Relative decode-latency reduction from pruning (paper: 42 %).
    pub decode_latency_reduction: f64,
}

/// Generate the Fig. 12 pruning evaluation.
///
/// `channels` and `ffn_dim` control the size of the synthetic FFN used for
/// the cosine-similarity experiment (defaults in the report binary match the
/// SPHINX-Tiny geometry; tests use smaller dimensions).
pub fn fig12_pruning(
    model: &MllmConfig,
    channels: usize,
    ffn_dim: usize,
    seed: u64,
) -> Fig12Report {
    let layers = model.llm.layers;
    let profile = ActivationProfile::sphinx_tiny_like(layers, channels);
    let generator = ActivationGenerator::new(profile, seed);
    let mut dynamic = DynamicTopK::paper_default(channels);
    let mut fixed_mild = FixedRatioPruning::new(0.1);
    let mut fixed_aggressive = FixedRatioPruning::new(0.7);

    let mut layer_kurtosis = Vec::with_capacity(layers);
    let mut layer_ratio = Vec::with_capacity(layers);
    // Four input rows per layer: the dense activation, then its dynamic,
    // mild and aggressive masks.
    let mut inputs = Vec::with_capacity(4 * layers * channels);

    dynamic.reset();
    for layer in 0..layers {
        let x = generator.generate(layer, 0);
        let sel_dyn = dynamic.select(layer, &x);
        layer_ratio.push(sel_dyn.pruning_ratio());
        layer_kurtosis.push(metrics::kurtosis(&x));
        let selections = [
            sel_dyn,
            fixed_mild.select(layer, &x),
            fixed_aggressive.select(layer, &x),
        ];
        inputs.extend_from_slice(&x);
        for selection in selections {
            inputs.extend(selection.mask(&x));
        }
    }
    // A fixed synthetic up-projection weight matrix shared by all schemes,
    // generated block by block and streamed once through every input.
    let inputs = Matrix::from_vec(4 * layers, channels, inputs);
    let outputs = gemm_from_fn(&inputs, ffn_dim, |r, c| {
        let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 1000;
        (h as f32 / 1000.0 - 0.5) * 0.1
    });
    let cosines = |scheme: usize| -> Vec<f64> {
        let cosine =
            |l: usize| metrics::cosine_similarity(outputs.row(4 * l), outputs.row(4 * l + scheme));
        (0..layers).map(cosine).collect()
    };

    // Decode-latency reduction measured by the simulator at the keep ratio
    // the dynamic scheme actually achieved.
    let system = EdgeMm::paper_default();
    let workload = ModelWorkload::new(model.clone(), 20, 32);
    let keep = 1.0 - layer_ratio.iter().sum::<f64>() / layers as f64;
    let decode = |pruning| {
        system.machine().run_phase_on(
            &workload,
            Phase::Decode,
            ClusterKind::MemoryCentric,
            pruning,
        )
    };
    let dense = decode(PruningEffect::disabled());
    let pruned = decode(PruningEffect::with_keep_ratio(keep.clamp(0.01, 1.0)));
    Fig12Report {
        layer_kurtosis,
        layer_pruning_ratio: layer_ratio,
        cosine_dynamic: cosines(1),
        cosine_fixed_mild: cosines(2),
        cosine_fixed_aggressive: cosines(3),
        decode_latency_reduction: 1.0 - pruned.cycles.ratio(dense.cycles),
    }
}

/// Fig. 13: latency and throughput gains from bandwidth management.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Output token length.
    pub output_tokens: usize,
    /// Chosen `Bm / Bc` ratio (None when the CC share is zero).
    pub ratio_bm_per_bc: Option<f64>,
    /// Chosen stream-batch size.
    pub batch: usize,
    /// Pipeline period without management (seconds).
    pub unmanaged_period_s: f64,
    /// Pipeline period with management (seconds).
    pub managed_period_s: f64,
    /// Latency reduction from management.
    pub latency_reduction: f64,
    /// Throughput gain from management.
    pub throughput_gain: f64,
}

/// Fig. 13 report: the sweep plus the two thresholds.
#[derive(Debug, Clone)]
pub struct Fig13Report {
    /// One row per output token length.
    pub rows: Vec<Fig13Row>,
    /// Expected token length `l_e` (balanced under equal sharing).
    pub expected_token_length: usize,
    /// Batching threshold `l_b`.
    pub batching_threshold: usize,
}

/// Generate the Fig. 13 bandwidth-management sweep.
pub fn fig13_bandwidth(model: &MllmConfig, output_lengths: &[usize]) -> Fig13Report {
    let system = EdgeMm::paper_default();
    let reference = ModelWorkload::new(model.clone(), 20, 64);
    let pipeline = system.pipeline_for(&reference, RequestOptions::with_pruning());
    let manager = TokenLengthManager::new(pipeline, BandwidthPolicy::paper_default());
    let rows = output_lengths
        .iter()
        .map(|&l| {
            let plan = manager.plan(l);
            Fig13Row {
                output_tokens: l,
                ratio_bm_per_bc: plan.point.allocation.ratio_bm_per_bc(),
                batch: plan.point.batch,
                unmanaged_period_s: plan.unmanaged.period_s(),
                managed_period_s: plan.point.period_s(),
                latency_reduction: plan.latency_reduction(),
                throughput_gain: plan.throughput_gain(),
            }
        })
        .collect();
    Fig13Report {
        rows,
        expected_token_length: pipeline.expected_token_length(),
        batching_threshold: pipeline.batching_threshold(),
    }
}

/// Table I: the representative MLLM inventory.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Model name.
    pub name: String,
    /// Vision encoder name.
    pub encoder: String,
    /// Projector kind.
    pub projector: String,
    /// Language model name.
    pub llm: String,
    /// Total parameters of the full MLLM.
    pub total_params: u64,
}

/// Generate Table I.
pub fn table1_models() -> Vec<Table1Row> {
    edgemm_mllm::zoo::table1_models()
        .into_iter()
        .map(|m| Table1Row {
            name: m.name.clone(),
            encoder: m.vision.name.clone(),
            projector: format!("{:?}", m.projector.kind),
            llm: m.llm.name.clone(),
            total_params: m.total_params(),
        })
        .collect()
}

/// Table II: EdgeMM vs the mobile GPU.
#[derive(Debug, Clone)]
pub struct Table2Report {
    /// GPU tokens/s on the workload (the 1x reference).
    pub gpu_tokens_per_second: f64,
    /// EdgeMM tokens/s without pruning.
    pub edgemm_tokens_per_second: f64,
    /// EdgeMM tokens/s with activation-aware pruning.
    pub edgemm_pruned_tokens_per_second: f64,
    /// Speedup of EdgeMM over the GPU (paper: 2.15x).
    pub edgemm_speedup: f64,
    /// Speedup of EdgeMM + pruning over the GPU (paper: 2.84x).
    pub edgemm_pruned_speedup: f64,
    /// EdgeMM + pruning efficiency in tokens per joule.
    pub edgemm_tokens_per_joule: f64,
}

/// Generate the Table II comparison for a model and output length.
pub fn table2_gpu_comparison(model: &MllmConfig, output_tokens: usize) -> Table2Report {
    let workload = ModelWorkload::new(model.clone(), 20, output_tokens);
    let gpu = GpuModel::rtx3060_laptop();
    let gpu_tps = gpu.tokens_per_second(&workload);
    let system = EdgeMm::paper_default();
    let plain = system.run(&workload, RequestOptions::default());
    let pruned = system.run(&workload, RequestOptions::with_pruning());
    Table2Report {
        gpu_tokens_per_second: gpu_tps,
        edgemm_tokens_per_second: plain.tokens_per_second,
        edgemm_pruned_tokens_per_second: pruned.tokens_per_second,
        edgemm_speedup: plain.tokens_per_second / gpu_tps,
        edgemm_pruned_speedup: pruned.tokens_per_second / gpu_tps,
        edgemm_tokens_per_joule: pruned.tokens_per_joule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgemm_mllm::zoo;

    #[test]
    fn fig2_decode_share_grows_with_output_length() {
        let rows = fig2_workload(&zoo::sphinx_tiny(), &[16, 256]);
        let decode_share = |row: &Fig2Row| {
            let total: f64 = row.gpu_phase_seconds.iter().map(|(_, s)| s).sum();
            row.gpu_phase_seconds
                .iter()
                .find(|(p, _)| *p == Phase::Decode)
                .map(|(_, s)| s / total)
                .unwrap()
        };
        assert!(decode_share(&rows[1]) > decode_share(&rows[0]));
    }

    #[test]
    fn fig3_outliers_sharpen_with_depth() {
        let rows = fig3_sparsity(&zoo::sphinx_tiny(), 7);
        assert_eq!(rows.len(), 22);
        assert!(rows.last().unwrap().kurtosis > rows[1].kurtosis);
        // Sparsity (channels negligible relative to the max) grows with depth
        // and is overwhelming in the deep layers.
        assert!(rows.last().unwrap().negligible_fraction > 0.8);
        assert!(rows.last().unwrap().negligible_fraction > rows[0].negligible_fraction);
    }

    #[test]
    fn fig6_bandwidth_rises_with_block_size() {
        let curve = fig6_effective_bandwidth(&[1 << 10, 1 << 14, 1 << 18, 1 << 22]);
        assert!(curve.windows(2).all(|w| w[1].1 >= w[0].1));
        assert!(curve.last().unwrap().1 > 0.9 * 68.0);
    }

    #[test]
    fn fig10_matches_published_configuration() {
        let report = fig10_config();
        assert_eq!(report.cc_cores, 32);
        assert_eq!(report.mc_cores, 16);
        assert!((report.sa_area_fraction - 0.62).abs() < 0.08);
        assert!((report.cim_area_fraction - 0.81).abs() < 0.08);
        assert!((report.chip_power_mw - 112.0).abs() / 112.0 < 0.15);
    }

    #[test]
    fn fig11_hetero_wins_overall() {
        let report = fig11_hetero(&zoo::sphinx_tiny(), 64);
        assert!(report.hetero_vs_homo_cc > 1.0);
        assert!(report.hetero_vs_homo_mc > 1.0);
        // Every extended design beats the Snitch baseline on every phase
        // with meaningful work.
        for (_, speedup) in report.hetero.iter().filter(|(p, _)| *p != Phase::Projector) {
            assert!(*speedup > 1.0, "hetero slower than baseline: {report:?}");
        }
    }

    #[test]
    fn fig12_dynamic_tracks_mild_fixed_pruning() {
        let report = fig12_pruning(&zoo::sphinx_tiny(), 256, 512, 7);
        assert_eq!(report.cosine_dynamic.len(), 22);
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let min = |v: &[f64]| v.iter().cloned().fold(f64::INFINITY, f64::min);
        // Dynamic pruning keeps high accuracy on every layer...
        assert!(avg(&report.cosine_dynamic) > 0.9);
        // ...its worst layer is better than the aggressive baseline's worst
        // layer (Fig. 12b: fixed 0.7 loses accuracy in the shallow layers)...
        assert!(min(&report.cosine_dynamic) > min(&report.cosine_fixed_aggressive));
        assert!(report.cosine_fixed_aggressive[1] < report.cosine_dynamic[1]);
        // ...while cutting decode latency substantially.
        assert!(report.decode_latency_reduction > 0.2);
    }

    /// Fig. 12 by the direct route: the whole weight matrix built up front,
    /// then one `gemv` per input (dense, then each scheme's mask). The
    /// oracle of `fig12_pruning`'s weight-once block fold.
    fn fig12_per_input_gemv(
        model: &MllmConfig,
        channels: usize,
        ffn_dim: usize,
        seed: u64,
    ) -> Fig12Report {
        let layers = model.llm.layers;
        let profile = ActivationProfile::sphinx_tiny_like(layers, channels);
        let generator = ActivationGenerator::new(profile, seed);
        let weights = Matrix::from_fn(channels, ffn_dim, |r, c| {
            let h = (r.wrapping_mul(31).wrapping_add(c.wrapping_mul(17))) % 1000;
            (h as f32 / 1000.0 - 0.5) * 0.1
        });
        let mut dynamic = DynamicTopK::paper_default(channels);
        let mut fixed_mild = FixedRatioPruning::new(0.1);
        let mut fixed_aggressive = FixedRatioPruning::new(0.7);
        let (mut kurtosis, mut ratio) = (Vec::new(), Vec::new());
        let (mut cos_dyn, mut cos_mild, mut cos_aggr) = (Vec::new(), Vec::new(), Vec::new());
        dynamic.reset();
        for layer in 0..layers {
            let x = generator.generate(layer, 0);
            let reference = edgemm_mllm::gemv(&x, &weights);
            let eval = |selection: edgemm_pruning::PruneSelection| {
                let pruned = edgemm_mllm::gemv(&selection.mask(&x), &weights);
                metrics::cosine_similarity(&reference, &pruned)
            };
            let sel_dyn = dynamic.select(layer, &x);
            ratio.push(sel_dyn.pruning_ratio());
            cos_dyn.push(eval(sel_dyn));
            cos_mild.push(eval(fixed_mild.select(layer, &x)));
            cos_aggr.push(eval(fixed_aggressive.select(layer, &x)));
            kurtosis.push(metrics::kurtosis(&x));
        }
        let system = EdgeMm::paper_default();
        let workload = ModelWorkload::new(model.clone(), 20, 32);
        let keep = 1.0 - ratio.iter().sum::<f64>() / layers as f64;
        let decode = |pruning| {
            let machine = system.machine();
            machine
                .run_phase_on(
                    &workload,
                    Phase::Decode,
                    ClusterKind::MemoryCentric,
                    pruning,
                )
                .cycles
        };
        let dense = decode(PruningEffect::disabled());
        let pruned = decode(PruningEffect::with_keep_ratio(keep.clamp(0.01, 1.0)));
        Fig12Report {
            layer_kurtosis: kurtosis,
            layer_pruning_ratio: ratio,
            cosine_dynamic: cos_dyn,
            cosine_fixed_mild: cos_mild,
            cosine_fixed_aggressive: cos_aggr,
            decode_latency_reduction: 1.0 - pruned.ratio(dense),
        }
    }

    #[test]
    fn fig12_weight_once_fold_matches_per_input_gemv() {
        // Channel counts off every group of 4 and block of 32 weight rows
        // (37), or a whole number of groups with a partial block (100), and
        // output widths off and on a multiple of 32.
        let model = zoo::sphinx_tiny();
        for (channels, ffn_dim) in [(37, 29), (37, 96), (100, 29), (100, 96)] {
            for seed in [0, 7, 23, 101] {
                let folded = fig12_pruning(&model, channels, ffn_dim, seed);
                let oracle = fig12_per_input_gemv(&model, channels, ffn_dim, seed);
                assert_eq!(
                    format!("{folded:?}"),
                    format!("{oracle:?}"),
                    "channels {channels}, ffn {ffn_dim}, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn fig13_management_helps_long_outputs() {
        let report = fig13_bandwidth(&zoo::sphinx_tiny(), &[8, 128, 1024]);
        assert_eq!(report.rows.len(), 3);
        assert!(report.expected_token_length >= 1);
        assert!(report.batching_threshold >= report.expected_token_length);
        let last = report.rows.last().unwrap();
        assert!(last.throughput_gain > 1.0);
        assert!(report.rows[0].throughput_gain <= last.throughput_gain);
    }

    #[test]
    fn table1_lists_six_models() {
        let rows = table1_models();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.name == "SPHINX-Tiny"));
    }

    #[test]
    fn table2_edgemm_beats_gpu_and_pruning_extends_the_lead() {
        let report = table2_gpu_comparison(&zoo::sphinx_tiny(), 64);
        assert!(
            report.edgemm_speedup > 1.0,
            "speedup = {}",
            report.edgemm_speedup
        );
        assert!(report.edgemm_pruned_speedup > report.edgemm_speedup);
        assert!(report.edgemm_tokens_per_joule > 0.0);
    }
}
