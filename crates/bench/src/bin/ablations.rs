//! Ablation sweeps over four design choices the paper fixes: systolic
//! tile shape, CIM activation bit-width, dynamic-k threshold, and the
//! CC:MC cluster mix.

use edgemm::arch::{ChipConfig, CimGeometry, ClusterKind, SystolicGeometry};
use edgemm::pruning::{DynamicTopK, DynamicTopKConfig, Pruner};
use edgemm::sim::{Machine, PruningEffect, SimConfig};
use edgemm_mllm::{zoo, ModelWorkload};
use edgemm_mllm::{ActivationGenerator, ActivationProfile};

fn main() {
    let workload = ModelWorkload::new(zoo::sphinx_tiny(), 20, 64);

    println!("== Ablation: systolic-array tile shape (prefill latency) ==");
    for (r, c) in [(8, 8), (16, 16), (32, 32), (16, 32)] {
        let chip = ChipConfig::builder()
            .systolic(SystolicGeometry {
                rows: r,
                cols: c,
                matrix_registers: 4,
            })
            .build()
            .expect("valid config");
        let machine = Machine::new(SimConfig {
            chip,
            ..SimConfig::paper_default()
        });
        let result = machine.run_phase_on(
            &workload,
            edgemm_mllm::Phase::Prefill,
            ClusterKind::ComputeCentric,
            PruningEffect::disabled(),
        );
        println!("  {r:>2} x {c:<2}: {:>10.3} ms", result.seconds(1000) * 1e3);
    }

    println!("== Ablation: CIM activation bit-width (decode latency per 64 tokens) ==");
    for bits in [4u8, 8, 16] {
        let chip = ChipConfig::builder()
            .cim(CimGeometry {
                activation_bits: bits,
                ..CimGeometry::paper_default()
            })
            .build()
            .expect("valid config");
        let machine = Machine::new(SimConfig {
            chip,
            ..SimConfig::paper_default()
        });
        let result = machine.run_phase_on(
            &workload,
            edgemm_mllm::Phase::Decode,
            ClusterKind::MemoryCentric,
            PruningEffect::disabled(),
        );
        println!("  W = {bits:>2}: {:>10.3} ms", result.seconds(1000) * 1e3);
    }

    println!("== Ablation: dynamic-k threshold t (average keep ratio) ==");
    let profile = ActivationProfile::sphinx_tiny_like(22, 2048);
    let generator = ActivationGenerator::new(profile, 7);
    for t in [4u32, 8, 16, 32, 64] {
        let mut pruner = DynamicTopK::new(DynamicTopKConfig {
            dim: 2048,
            threshold: t,
            min_keep: 64,
        });
        let mut keep = 0.0;
        for layer in 0..22 {
            let x = generator.generate(layer, 0);
            keep += pruner.select(layer, &x).keep_ratio();
        }
        println!("  t = {t:>2}: average keep ratio {:.3}", keep / 22.0);
    }

    println!("== Ablation: CC:MC cluster mix per group (request latency) ==");
    for (cc, mc) in [(3, 1), (2, 2), (1, 3)] {
        let chip = ChipConfig::builder()
            .cc_clusters_per_group(cc)
            .mc_clusters_per_group(mc)
            .build()
            .expect("valid config");
        let machine = Machine::new(SimConfig {
            chip,
            ..SimConfig::paper_default()
        });
        let report = machine.run_request(&workload, PruningEffect::disabled());
        println!(
            "  {cc} CC : {mc} MC -> {:>10.3} ms",
            report.total_seconds() * 1e3
        );
    }
}
