//! What is trained and how it is split: [`ModelConfig`] describes the
//! paper's transformer workloads with their analytic parameter and
//! FLOPs formulas; [`ParallelConfig`] holds the parallelism knobs of
//! Table 1 and Figures 6-9.

use std::fmt;

use raxpp_sched::{gpipe, interleaved_1f1b, one_f1b, zero_bubble_h1, Schedule, ScheduleError};

/// Architecture of a decoder-only transformer language model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Hidden (embedding) dimension.
    pub hidden: usize,
    /// Feed-forward inner dimension.
    pub ffn_hidden: usize,
    /// Number of attention heads.
    pub n_heads: usize,
    /// Number of key/value heads (`n_heads` for MHA, fewer for GQA).
    pub n_kv_heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Training sequence length.
    pub seq_len: usize,
    /// Whether the MLP is gated (SwiGLU, 3 weight matrices) as in Llama.
    pub gated_mlp: bool,
}

impl ModelConfig {
    /// GPT-3 175B (Brown et al., 2020) as evaluated in the paper:
    /// 96 layers, hidden 12288, sequence length 2048, BF16.
    pub fn gpt3_175b() -> ModelConfig {
        ModelConfig {
            name: "GPT-3 175B".into(),
            n_layers: 96,
            hidden: 12288,
            ffn_hidden: 4 * 12288,
            n_heads: 96,
            n_kv_heads: 96,
            vocab: 51200,
            seq_len: 2048,
            gated_mlp: false,
        }
    }

    /// Llama2 70B (Touvron et al., 2023) as evaluated in the paper:
    /// 80 layers, hidden 8192, GQA with 8 KV heads, SwiGLU MLP,
    /// sequence length 4096, BF16.
    pub fn llama2_70b() -> ModelConfig {
        ModelConfig {
            name: "Llama2 70B".into(),
            n_layers: 80,
            hidden: 8192,
            ffn_hidden: 28672,
            n_heads: 64,
            n_kv_heads: 8,
            vocab: 32000,
            seq_len: 4096,
            gated_mlp: true,
        }
    }

    /// GPT-3 6.7B (Brown et al., 2020, Table 2.1): 32 layers, hidden
    /// 4096, 32 heads.
    pub fn gpt3_6_7b() -> ModelConfig {
        ModelConfig {
            name: "GPT-3 6.7B".into(),
            n_layers: 32,
            hidden: 4096,
            ffn_hidden: 4 * 4096,
            n_heads: 32,
            n_kv_heads: 32,
            vocab: 51200,
            seq_len: 2048,
            gated_mlp: false,
        }
    }

    /// GPT-3 13B (Brown et al., 2020, Table 2.1): 40 layers, hidden
    /// 5140 in the paper; 5120 here (the commonly used power-of-two
    /// variant, e.g. Megatron's).
    pub fn gpt3_13b() -> ModelConfig {
        ModelConfig {
            name: "GPT-3 13B".into(),
            n_layers: 40,
            hidden: 5120,
            ffn_hidden: 4 * 5120,
            n_heads: 40,
            n_kv_heads: 40,
            vocab: 51200,
            seq_len: 2048,
            gated_mlp: false,
        }
    }

    /// Llama2 7B (Touvron et al., 2023): 32 layers, hidden 4096, MHA,
    /// SwiGLU with inner dim 11008.
    pub fn llama2_7b() -> ModelConfig {
        ModelConfig {
            name: "Llama2 7B".into(),
            n_layers: 32,
            hidden: 4096,
            ffn_hidden: 11008,
            n_heads: 32,
            n_kv_heads: 32,
            vocab: 32000,
            seq_len: 4096,
            gated_mlp: true,
        }
    }

    /// A small config for tests and examples (not a paper workload).
    pub fn tiny() -> ModelConfig {
        ModelConfig {
            name: "tiny".into(),
            n_layers: 4,
            hidden: 64,
            ffn_hidden: 256,
            n_heads: 4,
            n_kv_heads: 4,
            vocab: 128,
            seq_len: 32,
            gated_mlp: false,
        }
    }

    /// Head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.n_heads
    }

    /// Parameters of one transformer layer.
    pub fn params_per_layer(&self) -> u64 {
        let h = self.hidden as u64;
        let f = self.ffn_hidden as u64;
        let kv = (self.n_kv_heads * self.head_dim()) as u64;
        // Attention: Q and O are h×h; K and V are h×kv (GQA-aware).
        let attn = h * h * 2 + h * kv * 2;
        // MLP: two matrices (up/down), plus the gate for SwiGLU.
        let mlp = if self.gated_mlp { 3 * h * f } else { 2 * h * f };
        // LayerNorm gains/biases are negligible but counted.
        let norms = 4 * h;
        attn + mlp + norms
    }

    /// Total parameter count (embeddings + layers + final norm).
    /// The LM head is tied to the embedding table.
    pub fn n_params(&self) -> u64 {
        let h = self.hidden as u64;
        let emb = self.vocab as u64 * h + self.seq_len as u64 * h;
        emb + self.n_layers as u64 * self.params_per_layer() + 2 * h
    }

    /// Forward-pass model FLOPs for `tokens` tokens: `2·N` per token for
    /// the weight matmuls plus the attention score/context matmuls
    /// (`4·L·s·h` per token).
    pub fn fwd_flops(&self, tokens: u64) -> f64 {
        let weight = 2.0 * self.n_params() as f64 * tokens as f64;
        let attn =
            4.0 * self.n_layers as f64 * tokens as f64 * self.seq_len as f64 * self.hidden as f64;
        weight + attn
    }

    /// Training-step model FLOPs (forward + 2× backward — the standard
    /// "model FLOPs" convention used for the paper's TFLOPS/device
    /// numbers; rematerialization is *not* counted).
    pub fn train_flops(&self, global_batch: u64) -> f64 {
        3.0 * self.fwd_flops(global_batch * self.seq_len as u64)
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (L={}, h={}, heads={}, seq={}, N={:.1}B)",
            self.name,
            self.n_layers,
            self.hidden,
            self.n_heads,
            self.seq_len,
            self.n_params() as f64 / 1e9
        )
    }
}

/// Which pipeline schedule a configuration runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// GPipe: all-forward then all-backward (the SPMD-PP baseline's only
    /// option, §2.2.2).
    GPipe,
    /// 1F1B (Narayanan et al., 2019).
    OneF1B,
    /// Interleaved 1F1B with the configured circular repeat (JaxPP's
    /// evaluation schedule).
    Interleaved1F1B,
    /// Zero-bubble (ZB-H1-style) schedule with split backward passes —
    /// the schedule family the paper's related work cites as enabled by
    /// MPMD runtimes. Extension beyond the paper's own evaluation.
    ZeroBubbleH1,
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScheduleKind::GPipe => "gpipe",
            ScheduleKind::OneF1B => "1f1b",
            ScheduleKind::Interleaved1F1B => "interleaved-1f1b",
            ScheduleKind::ZeroBubbleH1 => "zero-bubble-h1",
        };
        write!(f, "{s}")
    }
}

/// A complete parallelism configuration for one training run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParallelConfig {
    /// Pipeline-parallel degree (number of actors).
    pub pp: usize,
    /// Tensor-parallel degree within each actor.
    pub tp: usize,
    /// Data-parallel degree (replica pipelines).
    pub dp: usize,
    /// Microbatch size in sequences.
    pub microbatch: usize,
    /// Number of microbatches per step (gradient accumulation).
    pub n_microbatches: usize,
    /// Circular repeat: stages per actor (§2.2.1).
    pub circular_repeat: usize,
    /// The pipeline schedule.
    pub schedule: ScheduleKind,
}

impl ParallelConfig {
    /// Total GPUs used.
    pub fn gpus(&self) -> usize {
        self.pp * self.tp * self.dp
    }

    /// Global batch size in sequences.
    pub fn global_batch(&self) -> usize {
        self.microbatch * self.n_microbatches * self.dp
    }

    /// Total pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.pp * self.circular_repeat
    }

    /// Builds the configured schedule.
    ///
    /// # Errors
    ///
    /// Propagates [`ScheduleError`] from the schedule builders.
    pub fn build_schedule(&self) -> Result<Schedule, ScheduleError> {
        match self.schedule {
            ScheduleKind::GPipe => {
                if self.circular_repeat != 1 {
                    return Err(ScheduleError::Invalid(
                        "gpipe does not support circular repeat".into(),
                    ));
                }
                gpipe(self.pp, self.n_microbatches)
            }
            ScheduleKind::OneF1B => {
                if self.circular_repeat != 1 {
                    return Err(ScheduleError::Invalid(
                        "1f1b requires circular repeat 1 (use interleaved)".into(),
                    ));
                }
                one_f1b(self.pp, self.n_microbatches)
            }
            ScheduleKind::Interleaved1F1B => {
                interleaved_1f1b(self.pp, self.n_microbatches, self.circular_repeat)
            }
            ScheduleKind::ZeroBubbleH1 => {
                if self.circular_repeat != 1 {
                    return Err(ScheduleError::Invalid(
                        "zero-bubble-h1 requires circular repeat 1".into(),
                    ));
                }
                zero_bubble_h1(self.pp, self.n_microbatches)
            }
        }
    }

    /// The paper's flagship JaxPP configuration (Table 1): PP=8, TP=8,
    /// interleaved 1F1B with circular repeat 6, GA=32, microbatch 4,
    /// scaled by `dp` data-parallel replicas.
    pub fn jaxpp_gpt3(dp: usize) -> ParallelConfig {
        ParallelConfig {
            pp: 8,
            tp: 8,
            dp,
            microbatch: 4,
            n_microbatches: 32,
            circular_repeat: 6,
            schedule: ScheduleKind::Interleaved1F1B,
        }
    }

    /// The paper's JaxPP configuration for Llama2 70B (Table 1): PP=4,
    /// TP=8, DP=2, GA=16, microbatch 4, circular repeat 5.
    pub fn jaxpp_llama2() -> ParallelConfig {
        ParallelConfig {
            pp: 4,
            tp: 8,
            dp: 2,
            microbatch: 4,
            n_microbatches: 16,
            circular_repeat: 5,
            schedule: ScheduleKind::Interleaved1F1B,
        }
    }
}

impl fmt::Display for ParallelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pp={} tp={} dp={} mbs={} ga={} repeat={} {}",
            self.pp,
            self.tp,
            self.dp,
            self.microbatch,
            self.n_microbatches,
            self.circular_repeat,
            self.schedule
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt3_parameter_count() {
        let n = ModelConfig::gpt3_175b().n_params();
        assert!(
            (n as f64 - 175e9).abs() / 175e9 < 0.02,
            "GPT-3 params {:.1}B should be ≈175B",
            n as f64 / 1e9
        );
    }

    #[test]
    fn llama2_parameter_count() {
        let n = ModelConfig::llama2_70b().n_params();
        assert!(
            (n as f64 - 69e9).abs() / 69e9 < 0.03,
            "Llama2 params {:.1}B should be ≈69B",
            n as f64 / 1e9
        );
    }

    #[test]
    fn gpt3_step_flops_consistent_with_table1() {
        // Table 1, row 1: GBS 128 on 64 GPUs at 462 TFLOPS/device takes
        // 9.53 s. Our formula must reproduce that triple within a few %.
        let cfg = ModelConfig::gpt3_175b();
        let flops = cfg.train_flops(128);
        let implied_step = flops / (64.0 * 462e12);
        assert!(
            (implied_step - 9.53).abs() / 9.53 < 0.05,
            "implied step time {implied_step:.2}s vs paper 9.53s"
        );
    }

    #[test]
    fn llama2_step_flops_consistent_with_table1() {
        // Table 1: Llama2 70B, GBS 128, 64 GPUs, 432 TFLOPS → 8.42 s.
        let cfg = ModelConfig::llama2_70b();
        let flops = cfg.train_flops(128);
        let implied_step = flops / (64.0 * 432e12);
        assert!(
            (implied_step - 8.42).abs() / 8.42 < 0.05,
            "implied step time {implied_step:.2}s vs paper 8.42s"
        );
    }

    #[test]
    fn family_parameter_counts() {
        for (cfg, expect) in [
            (ModelConfig::gpt3_6_7b(), 6.7e9),
            (ModelConfig::gpt3_13b(), 13e9),
            (ModelConfig::llama2_7b(), 6.74e9),
        ] {
            let n = cfg.n_params() as f64;
            assert!(
                (n - expect).abs() / expect < 0.05,
                "{}: {:.2}B vs expected {:.2}B",
                cfg.name,
                n / 1e9,
                expect / 1e9
            );
        }
    }

    #[test]
    fn gqa_reduces_params() {
        let mut mha = ModelConfig::llama2_70b();
        mha.n_kv_heads = mha.n_heads;
        assert!(mha.n_params() > ModelConfig::llama2_70b().n_params());
    }

    #[test]
    fn display_mentions_scale() {
        let s = ModelConfig::gpt3_175b().to_string();
        assert!(s.contains("GPT-3"));
        assert!(s.contains('B'));
    }

    #[test]
    fn jaxpp_flagship_matches_table1() {
        let c = ParallelConfig::jaxpp_gpt3(1);
        assert_eq!(c.gpus(), 64);
        assert_eq!(c.global_batch(), 128);
        assert_eq!(c.n_stages(), 48);
        c.build_schedule().unwrap();
    }

    #[test]
    fn gpipe_rejects_repeat() {
        let c = ParallelConfig {
            circular_repeat: 2,
            schedule: ScheduleKind::GPipe,
            ..ParallelConfig::jaxpp_gpt3(1)
        };
        assert!(c.build_schedule().is_err());
    }

    #[test]
    fn scaling_dp_scales_batch() {
        assert_eq!(ParallelConfig::jaxpp_gpt3(4).global_batch(), 512);
        assert_eq!(ParallelConfig::jaxpp_gpt3(16).gpus(), 1024);
    }
}
