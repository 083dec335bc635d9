//! The JAX SPMD pipeline-parallelism baseline (paper §2.2.2, §5.3):
//! GSPMD's stacked-weights encoding of GPipe.
//!
//! Its three structural handicaps, all imposed by staying inside the
//! SPMD paradigm, are `simulate_pipeline` options and a configuration:
//!
//! 1. **GPipe schedule only** ([`ParallelConfig::spmd_pp_gpt3`]) — the
//!    encoding cannot express 1F1B or interleaving, so activation memory
//!    scales with the microbatch count and forces **full
//!    rematerialization**;
//! 2. **synchronous stepping** — every loop iteration is a lockstep
//!    shift of the state buffer, so sends block (no async overlap);
//! 3. no per-stage specialization (homogeneous stages), captured by the
//!    forced global remat policy.

use crate::config::{ParallelConfig, ScheduleKind};
use crate::memory::RematPolicy;
use crate::sim::SimOptions;

impl SimOptions {
    /// SPMD PP: full rematerialization, synchronous sends.
    pub fn spmd_pp() -> SimOptions {
        SimOptions {
            async_p2p: false,
            force_remat: Some(RematPolicy::Full),
            ..SimOptions::default()
        }
    }
}

impl ParallelConfig {
    /// The paper's JAX SPMD PP configuration for GPT-3 (Table 1):
    /// GBS 256, GA 128, PP=16, TP=4, DP=2 on 128 GPUs, GPipe.
    pub fn spmd_pp_gpt3() -> ParallelConfig {
        ParallelConfig {
            pp: 16,
            tp: 4,
            dp: 2,
            microbatch: 1,
            n_microbatches: 128,
            circular_repeat: 1,
            schedule: ScheduleKind::GPipe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::sim::{simulate_pipeline, SimError, StepReport};
    use crate::specs::ClusterSpec;

    fn simulate_spmd_pp(
        model: &ModelConfig,
        par: ParallelConfig,
        cluster: &ClusterSpec,
    ) -> Result<StepReport, SimError> {
        simulate_pipeline(model, par, cluster, &SimOptions::spmd_pp())
    }

    #[test]
    fn spmd_pp_matches_table1() {
        // Table 1: JAX SPMD PP, GBS 256, 128 GPUs: 13.96 s, 316 TFLOPS.
        let r = simulate_spmd_pp(
            &ModelConfig::gpt3_175b(),
            ParallelConfig::spmd_pp_gpt3(),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert!(
            (r.step_time - 13.96).abs() / 13.96 < 0.12,
            "step {:.2}s vs paper 13.96s",
            r.step_time
        );
        assert!(
            (r.tflops_per_gpu - 316.0).abs() / 316.0 < 0.12,
            "tflops {:.0} vs paper 316",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn spmd_pp_is_pinned_to_full_remat() {
        let r = simulate_spmd_pp(
            &ModelConfig::gpt3_175b(),
            ParallelConfig::spmd_pp_gpt3(),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert_eq!(r.remat_policy, RematPolicy::Full);
        assert!(r.breakdown.remat > 0.0);
        assert!(r.breakdown.sync_send_block > 0.0);
    }
}
