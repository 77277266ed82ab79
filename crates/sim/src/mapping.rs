//! Tensor partitioning across clusters and cores (the "mapping explorer").
//!
//! EdgeMM's programming model distributes a GEMM/GEMV across cores by tensor
//! partitioning: every core reads its index CSRs and works on its shard.
//! For the operator shapes of MLLMs the natural partition is along the
//! output-channel dimension `n` (weight columns), which keeps the reduction
//! local to a core and requires no cross-core accumulation. The mapping
//! explorer additionally considers splitting the token dimension `m` for
//! multi-token GEMMs and picks whichever finishes first under the coprocessor
//! cycle model.

use edgemm_arch::{ChipConfig, ClusterKind};
use edgemm_coproc::{CimMacro, SystolicArray};
use edgemm_mllm::MatmulOp;

/// How one operator is split across the executing cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Number of cores co-operating on the operator.
    pub cores: usize,
    /// Rows (token vectors) each core processes.
    pub m_per_core: usize,
    /// Output columns each core produces.
    pub n_per_core: usize,
}

/// A chosen mapping: the partition plus the per-core compute cycles it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mapping {
    /// The partition.
    pub partition: Partition,
    /// Compute cycles of the slowest core under this partition.
    pub compute_cycles: u64,
}

/// Explores candidate partitions of an operator over a cluster kind.
#[derive(Debug, Clone)]
pub struct MappingExplorer {
    systolic: SystolicArray,
    cim: CimMacro,
}

impl MappingExplorer {
    /// Create an explorer for the coprocessor geometries of `chip`.
    pub fn new(chip: &ChipConfig) -> Self {
        MappingExplorer {
            systolic: SystolicArray::new(chip.cc_cluster.core.systolic),
            cim: CimMacro::new(chip.mc_cluster.core.cim),
        }
    }

    /// Compute cycles for one core of `kind` executing an `m x k x n` shard.
    pub fn core_cycles(&self, kind: ClusterKind, m: usize, k: usize, n: usize) -> u64 {
        match kind {
            ClusterKind::ComputeCentric => self.systolic.gemm_cycles(m, k, n).get(),
            ClusterKind::MemoryCentric => self.cim.gemm_cycles(m, k, n).get(),
        }
    }

    /// Pick the best partition of `op` across `cores` cores of `kind`.
    ///
    /// Candidates split the output dimension `n`, the token dimension `m`, or
    /// both (balanced 2-D grid); the one minimising the slowest core's cycles
    /// wins. Returns a single-core mapping when `cores` is zero so callers
    /// can still report a cost for configurations lacking that cluster kind.
    pub fn best_mapping(&self, op: &MatmulOp, kind: ClusterKind, cores: usize) -> Mapping {
        let cores = cores.max(1);
        let mut best: Option<Mapping> = None;
        // Candidate core-grid factorisations (m_split x n_split).
        for m_split in 1..=cores {
            if cores % m_split != 0 {
                continue;
            }
            let n_split = cores / m_split;
            if m_split > op.m || n_split > op.n {
                continue;
            }
            let m_per = op.m.div_ceil(m_split);
            let n_per = op.n.div_ceil(n_split);
            let cycles = self.core_cycles(kind, m_per, op.k, n_per);
            let candidate = Mapping {
                partition: Partition {
                    cores,
                    m_per_core: m_per,
                    n_per_core: n_per,
                },
                compute_cycles: cycles,
            };
            if best.map_or(true, |b| candidate.compute_cycles < b.compute_cycles) {
                best = Some(candidate);
            }
        }
        best.unwrap_or(Mapping {
            partition: Partition {
                cores,
                m_per_core: op.m,
                n_per_core: op.n,
            },
            compute_cycles: self.core_cycles(kind, op.m, op.k, op.n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgemm_mllm::{OpKind, Phase, TrafficClass};

    fn op(m: usize, k: usize, n: usize) -> MatmulOp {
        MatmulOp {
            name: "test".to_string(),
            phase: Phase::Prefill,
            kind: if m == 1 { OpKind::Gemv } else { OpKind::Gemm },
            m,
            k,
            n,
            weight_class: TrafficClass::FfnWeights,
            weights_from_dram: true,
            prunable: false,
        }
    }

    fn explorer() -> MappingExplorer {
        MappingExplorer::new(&ChipConfig::paper_default())
    }

    #[test]
    fn more_cores_never_slow_an_op_down() {
        let e = explorer();
        let big = op(288, 2048, 2048);
        let one = e.best_mapping(&big, ClusterKind::ComputeCentric, 1);
        let four = e.best_mapping(&big, ClusterKind::ComputeCentric, 4);
        let thirty_two = e.best_mapping(&big, ClusterKind::ComputeCentric, 32);
        assert!(four.compute_cycles <= one.compute_cycles);
        assert!(thirty_two.compute_cycles <= four.compute_cycles);
    }

    #[test]
    fn gemv_splits_along_output_channels() {
        let e = explorer();
        let gemv = op(1, 2048, 5632);
        let mapping = e.best_mapping(&gemv, ClusterKind::MemoryCentric, 16);
        // m cannot be split below 1, so the explorer must split n.
        assert_eq!(mapping.partition.m_per_core, 1);
        assert!(mapping.partition.n_per_core <= 5632_usize.div_ceil(16));
    }

    #[test]
    fn parallel_efficiency_is_reasonable_for_large_gemm() {
        let e = explorer();
        let big = op(576, 1088, 4352);
        let one = e.best_mapping(&big, ClusterKind::ComputeCentric, 1);
        let sixteen = e.best_mapping(&big, ClusterKind::ComputeCentric, 16);
        let speedup = one.compute_cycles as f64 / sixteen.compute_cycles as f64;
        assert!(speedup > 10.0, "16-core speedup = {speedup}");
    }

    #[test]
    fn cc_cores_beat_mc_cores_on_gemm_compute() {
        let e = explorer();
        let gemm = op(288, 2048, 2048);
        let cc = e.best_mapping(&gemm, ClusterKind::ComputeCentric, 4);
        let mc = e.best_mapping(&gemm, ClusterKind::MemoryCentric, 4);
        assert!(cc.compute_cycles < mc.compute_cycles);
    }

    #[test]
    fn mc_cores_beat_cc_cores_on_gemv_compute() {
        let e = explorer();
        let gemv = op(1, 2048, 5632);
        let cc = e.best_mapping(&gemv, ClusterKind::ComputeCentric, 4);
        let mc = e.best_mapping(&gemv, ClusterKind::MemoryCentric, 4);
        assert!(mc.compute_cycles < cc.compute_cycles);
    }

    #[test]
    fn zero_cores_falls_back_to_one() {
        let e = explorer();
        let mapping = e.best_mapping(&op(8, 64, 64), ClusterKind::ComputeCentric, 0);
        assert_eq!(mapping.partition.cores, 1);
        assert!(mapping.compute_cycles > 0);
    }

    #[test]
    fn tiny_ops_do_not_over_split() {
        let e = explorer();
        let tiny = op(2, 16, 3);
        let mapping = e.best_mapping(&tiny, ClusterKind::ComputeCentric, 32);
        // n = 3 cannot be split across 32 cores; the mapping must stay valid.
        assert!(mapping.partition.n_per_core >= 1);
        assert!(mapping.compute_cycles > 0);
    }
}
