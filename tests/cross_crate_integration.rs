//! Cross-crate integration tests: exercise the full stack (architecture ->
//! coprocessors -> memory -> simulator -> scheduler -> figures) the way the
//! paper's evaluation does, checking the qualitative claims end to end.

use edgemm::figures;
use edgemm::{EdgeMm, RequestOptions};
use edgemm_arch::ClusterKind;
use edgemm_baseline::{GpuModel, RooflineDevice, SnitchBaseline};
use edgemm_mllm::{zoo, ModelWorkload, Phase};
use edgemm_sim::PruningEffect;

fn sphinx(output_tokens: usize) -> ModelWorkload {
    ModelWorkload::new(zoo::sphinx_tiny(), 20, output_tokens)
}

#[test]
fn extended_designs_beat_the_snitch_baseline_on_every_phase() {
    // Fig. 11: all extended designs have significant boosts over the
    // unextended Snitch cluster.
    let workload = sphinx(64);
    let baseline = SnitchBaseline::paper_default();
    let system = EdgeMm::paper_default();
    let report = system.run(&workload, RequestOptions::default());
    for phase in [Phase::VisionEncode, Phase::Prefill, Phase::Decode] {
        let base = baseline.phase_seconds(&workload, phase);
        let ours = report
            .run
            .phase(phase)
            .expect("phase simulated")
            .seconds(1000);
        assert!(
            ours < base,
            "{phase}: EdgeMM {ours} s should beat baseline {base} s"
        );
    }
}

#[test]
fn heterogeneous_beats_homogeneous_designs_end_to_end() {
    let workload = sphinx(64);
    let hetero = EdgeMm::paper_default()
        .run(&workload, RequestOptions::default())
        .latency_s;
    let homo_cc = EdgeMm::homo_cc()
        .machine()
        .run_request_with_assignment(
            &workload,
            PruningEffect::disabled(),
            ClusterKind::ComputeCentric,
            ClusterKind::ComputeCentric,
        )
        .total_seconds();
    let homo_mc = EdgeMm::homo_mc()
        .machine()
        .run_request_with_assignment(
            &workload,
            PruningEffect::disabled(),
            ClusterKind::MemoryCentric,
            ClusterKind::MemoryCentric,
        )
        .total_seconds();
    assert!(hetero < homo_cc);
    assert!(hetero < homo_mc);
}

#[test]
fn pruning_speeds_up_decode_without_breaking_the_report() {
    let workload = sphinx(64);
    let system = EdgeMm::paper_default();
    let plain = system.run(&workload, RequestOptions::default());
    let pruned = system.run(&workload, RequestOptions::with_pruning());
    let plain_decode = plain.run.phase(Phase::Decode).unwrap().cycles;
    let pruned_decode = pruned.run.phase(Phase::Decode).unwrap().cycles;
    let reduction = 1.0 - pruned_decode.ratio(plain_decode);
    // The paper reports a 42% average decode-latency reduction; accept a
    // broad band around it for the synthetic-activation reproduction.
    assert!(
        reduction > 0.25 && reduction < 0.8,
        "decode latency reduction = {reduction}"
    );
    // Non-decode phases are untouched by pruning.
    assert_eq!(
        plain.run.phase(Phase::Prefill).unwrap().cycles,
        pruned.run.phase(Phase::Prefill).unwrap().cycles
    );
}

#[test]
fn edgemm_outperforms_the_mobile_gpu_reference() {
    // Table II shape: EdgeMM > GPU, and pruning extends the lead.
    let report = figures::table2_gpu_comparison(&zoo::sphinx_tiny(), 64);
    assert!(report.edgemm_speedup > 1.0);
    assert!(report.edgemm_pruned_speedup > report.edgemm_speedup);
}

#[test]
fn gpu_model_and_workload_agree_on_decode_dominance() {
    // Fig. 2a: on the GPU, decode dominates for long outputs.
    let gpu = GpuModel::rtx3060_laptop();
    let long = sphinx(256);
    let decode = gpu.phase_seconds(&long, Phase::Decode);
    assert!(decode / gpu.request_seconds(&long) > 0.7);
}

#[test]
fn bandwidth_management_improves_long_output_throughput() {
    // Fig. 13 shape, driven end to end from the simulator's pipeline summary.
    let report = figures::fig13_bandwidth(&zoo::sphinx_tiny(), &[16, 128, 1024]);
    let short = &report.rows[0];
    let long = &report.rows[2];
    assert!(long.throughput_gain > short.throughput_gain);
    assert!(
        long.throughput_gain > 1.5,
        "gain = {}",
        long.throughput_gain
    );
    assert!(long.batch >= 1);
    assert!(report.batching_threshold >= report.expected_token_length);
}

#[test]
fn karmavlm_runs_faster_than_sphinx_tiny_on_edgemm() {
    // A 0.5B-parameter MLLM must decode faster than a 1.1B one on the same chip.
    let system = EdgeMm::paper_default();
    let sphinx = system.run(&sphinx(64), RequestOptions::default());
    let karma = system.run(
        &ModelWorkload::new(zoo::karmavlm(), 20, 64),
        RequestOptions::default(),
    );
    assert!(karma.latency_s < sphinx.latency_s);
}

#[test]
fn facade_bandwidth_allocation_partitions_the_paper_dram() {
    // `edgemm::mem::BandwidthAllocation` through the facade: however the
    // B_C : B_M split is chosen, the CC and MC shares of the paper's DRAM
    // interface add up to the whole of it, and the same transfer takes
    // longer on the side with the smaller share.
    use edgemm::mem::{BandwidthAllocation, DramModel};
    use edgemm::units::Bytes;
    let dram = DramModel::paper_default();
    let bytes = Bytes::new(1 << 20);
    for allocation in [
        BandwidthAllocation::equal(),
        BandwidthAllocation::from_ratio(1.0, 3.0),
        BandwidthAllocation::from_ratio(1.0, 7.0),
    ] {
        assert!(
            (allocation.cc_share + allocation.mc_share - 1.0).abs() < 1e-12,
            "allocation {allocation:?} leaks bandwidth"
        );
        let cc = dram.transfer_cycles(bytes, bytes, allocation.cc_share);
        let mc = dram.transfer_cycles(bytes, bytes, allocation.mc_share);
        assert!(mc <= cc, "allocation {allocation:?}: MC {mc} vs CC {cc}");
    }
    // The 1:3 point really skews the shares 3:1 towards the MC side.
    assert_eq!(
        BandwidthAllocation::from_ratio(1.0, 3.0).ratio_bm_per_bc(),
        Some(3.0)
    );
    // `exclusive()` is the sequential-execution special case: each side gets
    // the whole interface while the other is idle, so both shares are full.
    let exclusive = BandwidthAllocation::exclusive();
    assert_eq!((exclusive.cc_share, exclusive.mc_share), (1.0, 1.0));
}
