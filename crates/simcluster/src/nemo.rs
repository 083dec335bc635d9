//! The NeMo/Megatron baseline (paper §5.2): interleaved 1F1B pipeline
//! parallelism with hand-fused high-performance kernels.
//!
//! NeMo runs the same schedules JaxPP does; the paper attributes its
//! remaining edge entirely to custom kernels ("NeMo leverages several
//! high-performance kernels that greatly improve end-to-end
//! performance" — §5.2). It is therefore `simulate_pipeline` itself on
//! [`ClusterSpec::fused`](crate::ClusterSpec::fused) with
//! [`SimOptions::nemo`].

use crate::config::{ParallelConfig, ScheduleKind};
use crate::sim::SimOptions;

impl SimOptions {
    /// NeMo runs with Megatron's distributed optimizer (ZeRO-1), without
    /// which its PP=8/TP=4 configuration would not fit 80 GB.
    pub fn nemo() -> SimOptions {
        SimOptions {
            zero1_optimizer: true,
            ..SimOptions::default()
        }
    }
}

impl ParallelConfig {
    /// The paper's NeMo configuration for GPT-3 (Table 1): GBS 256,
    /// GA 64, PP=8, TP=4, DP=4 on 128 GPUs.
    pub fn nemo_gpt3() -> ParallelConfig {
        ParallelConfig {
            pp: 8,
            tp: 4,
            dp: 4,
            microbatch: 1,
            n_microbatches: 64,
            circular_repeat: 6,
            schedule: ScheduleKind::Interleaved1F1B,
        }
    }

    /// The paper's NeMo configuration for Llama2 70B (Table 1): GBS 128,
    /// GA 32, PP=4, TP=4, DP=4 on 64 GPUs.
    pub fn nemo_llama2() -> ParallelConfig {
        ParallelConfig {
            pp: 4,
            tp: 4,
            dp: 4,
            microbatch: 1,
            n_microbatches: 32,
            circular_repeat: 4,
            schedule: ScheduleKind::Interleaved1F1B,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::sim::{simulate_pipeline, SimError, StepReport};
    use crate::specs::ClusterSpec;

    fn simulate_nemo(
        model: &ModelConfig,
        par: ParallelConfig,
        cluster: &ClusterSpec,
    ) -> Result<StepReport, SimError> {
        simulate_pipeline(model, par, &cluster.fused(), &SimOptions::nemo())
    }

    #[test]
    fn nemo_gpt3_matches_table1() {
        // Table 1: NeMo GPT-3, GBS 256 on 128 GPUs: 9.78 s, 500 TFLOPS.
        let r = simulate_nemo(
            &ModelConfig::gpt3_175b(),
            ParallelConfig::nemo_gpt3(),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert!(
            (r.step_time - 9.78).abs() / 9.78 < 0.12,
            "step {:.2}s vs paper 9.78s",
            r.step_time
        );
        assert!(
            (r.tflops_per_gpu - 500.0).abs() / 500.0 < 0.12,
            "tflops {:.0} vs paper 500",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn nemo_llama2_matches_table1() {
        // Table 1: NeMo Llama2 70B, GBS 128 on 64 GPUs: 7.02 s, 519 TFLOPS.
        let r = simulate_nemo(
            &ModelConfig::llama2_70b(),
            ParallelConfig::nemo_llama2(),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert!(
            (r.step_time - 7.02).abs() / 7.02 < 0.15,
            "step {:.2}s vs paper 7.02s",
            r.step_time
        );
    }
}
