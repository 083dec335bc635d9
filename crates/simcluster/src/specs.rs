//! Hardware model of the evaluation cluster (NVIDIA EOS: DGX H100 nodes
//! on InfiniBand NDR400, paper §5) and the calibrated kernel-efficiency
//! model.
//!
//! Every calibrated constant lives here, with its provenance. Absolute
//! numbers produced by the simulator are approximations by design; the
//! *shape* of the paper's results (orderings, crossovers, ratios) is what
//! the benchmarks check.

use crate::collective::LinkSpec;

/// One GPU's compute and memory capability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Peak dense BF16 throughput in FLOP/s (H100 SXM: 989 TFLOPS).
    pub peak_flops: f64,
    /// Device memory in bytes (H100: 80 GB).
    pub memory_bytes: f64,
    /// Device-memory bandwidth in bytes/s (H100 SXM5 HBM3: 3.35 TB/s,
    /// NVIDIA's datasheet figure). Prices the memory-bound optimizer
    /// pass over the resident training state.
    pub hbm_bandwidth: f64,
}

impl GpuSpec {
    /// NVIDIA H100 SXM5 (the paper's GPUs).
    pub fn h100() -> GpuSpec {
        GpuSpec {
            peak_flops: 989e12,
            memory_bytes: 80e9,
            hbm_bandwidth: 3.35e12,
        }
    }
}

/// Kernel-efficiency model: the fraction of peak FLOP/s achieved by the
/// dense kernels of one SPMD task, as a function of microbatch size and
/// tensor-parallel degree.
///
/// Matches the paper's observations (§5.1.1): small microbatches lose
/// kernel-level utilization; higher TP shrinks per-GPU GEMMs. The
/// constants are calibrated so the full simulator reproduces Table 1's
/// JaxPP row (462 TFLOPS at PP=8, TP=8, mbs=4) and Figure 6's ordering
/// of microbatch sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyModel {
    /// Efficiency at asymptotically large per-GPU work.
    pub base: f64,
    /// Microbatch half-saturation constant: `f(m) = m / (m + m50)`.
    pub mb_half: f64,
    /// Per-unit TP degradation: `g(t) = 1 / (1 + slope · (t - 1))`.
    pub tp_slope: f64,
    /// Multiplier applied on top (1.0 for JaxPP/JAX; >1 models NeMo's
    /// fused kernels, which the paper credits for NeMo's edge in §5.2).
    pub fused_kernel_bonus: f64,
}

impl EfficiencyModel {
    /// Calibrated default for XLA-generated kernels.
    pub fn xla() -> EfficiencyModel {
        EfficiencyModel {
            base: 0.66,
            mb_half: 0.32,
            tp_slope: 0.016,
            fused_kernel_bonus: 1.0,
        }
    }

    /// NeMo/Transformer-Engine-style fused kernels: same shape, higher
    /// ceiling (paper §5.2: "NeMo leverages several high-performance
    /// kernels").
    pub fn fused() -> EfficiencyModel {
        EfficiencyModel {
            fused_kernel_bonus: 1.13,
            ..EfficiencyModel::xla()
        }
    }

    /// Achieved fraction of peak for microbatch size `mb` at TP degree
    /// `tp`.
    pub fn efficiency(&self, mb: usize, tp: usize) -> f64 {
        let m = mb as f64;
        let f_mb = m / (m + self.mb_half);
        let f_tp = 1.0 / (1.0 + self.tp_slope * (tp as f64 - 1.0));
        (self.base * f_mb * f_tp * self.fused_kernel_bonus).min(0.95)
    }
}

/// The full cluster model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Per-GPU capability.
    pub gpu: GpuSpec,
    /// GPUs per node sharing the high-bandwidth domain.
    pub gpus_per_node: usize,
    /// Intra-node interconnect (NVLink/NVSwitch).
    pub intra_link: LinkSpec,
    /// Inter-node interconnect (InfiniBand NDR400).
    pub inter_link: LinkSpec,
    /// Per-task dispatch overhead in seconds: the XLA asynchronous
    /// dispatch of one stage task's kernel sequence plus P2P launch
    /// setup — the cost the paper measures when stages become too small
    /// (§5.1.1, Figure 6's falling tail). A stage task launches dozens
    /// of kernels, so this is a few hundred microseconds.
    pub dispatch_overhead: f64,
    /// Kernel-efficiency model.
    pub efficiency: EfficiencyModel,
    /// Fraction of tensor-parallel collective time *not* hidden behind
    /// compute (XLA overlaps async collectives with independent GEMMs;
    /// calibrated against Table 1).
    pub tp_comm_exposed: f64,
    /// Straggler/network-contention slowdown per doubling of the node
    /// count (the effect that bounds weak scaling in Figure 8 to ≈93%).
    pub jitter_per_doubling: f64,
}

impl ClusterSpec {
    /// The EOS-like default: DGX H100 nodes (8 GPUs, NVSwitch) over
    /// NDR400 InfiniBand.
    pub fn eos() -> ClusterSpec {
        ClusterSpec {
            gpu: GpuSpec::h100(),
            gpus_per_node: 8,
            intra_link: LinkSpec::nvlink(),
            inter_link: LinkSpec::infiniband(),
            dispatch_overhead: 400e-6,
            efficiency: EfficiencyModel::xla(),
            tp_comm_exposed: 0.4,
            jitter_per_doubling: 0.015,
        }
    }

    /// The same cluster running NeMo/Transformer-Engine-style fused
    /// kernels ([`EfficiencyModel::fused`]) — the NeMo baseline's
    /// machine.
    pub fn fused(self) -> ClusterSpec {
        ClusterSpec {
            efficiency: EfficiencyModel::fused(),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_increases_with_microbatch() {
        let e = EfficiencyModel::xla();
        assert!(e.efficiency(1, 8) < e.efficiency(2, 8));
        assert!(e.efficiency(2, 8) < e.efficiency(4, 8));
    }

    #[test]
    fn efficiency_decreases_with_tp() {
        let e = EfficiencyModel::xla();
        assert!(e.efficiency(4, 8) < e.efficiency(4, 4));
        assert!(e.efficiency(4, 4) < e.efficiency(4, 1));
    }

    #[test]
    fn fused_kernels_are_faster() {
        assert!(
            EfficiencyModel::fused().efficiency(1, 4) > EfficiencyModel::xla().efficiency(1, 4)
        );
    }

    #[test]
    fn efficiency_is_bounded() {
        let e = EfficiencyModel {
            base: 2.0,
            ..EfficiencyModel::xla()
        };
        assert!(e.efficiency(64, 1) <= 0.95);
    }

    #[test]
    fn eos_has_h100s() {
        let c = ClusterSpec::eos();
        assert_eq!(c.gpus_per_node, 8);
        assert_eq!(c.gpu.peak_flops, 989e12);
        assert!(c.intra_link.bandwidth > c.inter_link.bandwidth);
    }
}
