//! Device-memory accounting: static training state and per-microbatch
//! activation footprints, following the Megatron-LM analysis
//! (Korthikanti et al., 2022). Used by the cluster simulator to decide
//! when a configuration must rematerialize (paper §5.3: the GPipe-style
//! SPMD pipeline is memory-bound and pays ≈20% step time in recompute).

use crate::config::ModelConfig;

/// How activations are retained between forward and backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RematPolicy {
    /// Keep every intermediate (fastest, most memory).
    None,
    /// Keep only the matmul operands; attention internals are free thanks
    /// to flash attention (the cuDNN attention path the paper uses),
    /// matching Megatron's "selective" recomputation.
    Selective,
    /// Keep only layer inputs; recompute the layer in backward
    /// (GPipe-style full recomputation, costing ≈ one extra forward).
    Full,
}

/// Bytes of resident training state per device: BF16 weights and
/// gradients plus FP32 Adam moments and master weights
/// (2 + 2 + 4 + 4 + 4 = 16 bytes/parameter), for `params` local
/// parameters.
pub fn static_state_bytes(params: f64) -> f64 {
    16.0 * params
}

/// Per-layer activation bytes for one microbatch of `mb` sequences under
/// `policy`, with tensor parallelism degree `tp` sharding the main terms.
///
/// Follows the Megatron-LM BF16 estimates: `s·b·h·(34 + 5·a·s/h)` per
/// layer when every intermediate (including attention score matrices) is
/// kept, `24·s·b·h` with selective recomputation on a flash-attention
/// stack, and `2·s·b·h` (the layer input only — see the note on
/// [`RematPolicy::Full`] in the simulator, which does not multiply this
/// by the layer count) with full recomputation.
pub fn activation_bytes_per_layer(
    cfg: &ModelConfig,
    mb: usize,
    tp: usize,
    policy: RematPolicy,
) -> f64 {
    let s = cfg.seq_len as f64;
    let b = mb as f64;
    let h = cfg.hidden as f64;
    let a = cfg.n_heads as f64;
    let t = tp as f64;
    match policy {
        RematPolicy::None => s * b * h * (34.0 + 5.0 * a * s / h) / t,
        RematPolicy::Selective => 24.0 * s * b * h / t,
        RematPolicy::Full => 2.0 * s * b * h,
    }
}

/// Extra compute factor of a backward pass under `policy`, as a multiple
/// of the forward cost: full recomputation re-runs the forward
/// (paper §5.3's dominant overhead); selective recomputation only redoes
/// the cheap attention internals.
pub fn remat_compute_factor(policy: RematPolicy) -> f64 {
    match policy {
        RematPolicy::None => 0.0,
        RematPolicy::Selective => 0.05,
        RematPolicy::Full => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_state_matches_rule_of_thumb() {
        // GPT-3 fully resident would need 175e9 * 16 = 2.8 TB.
        let b = static_state_bytes(175e9);
        assert!((b - 2.8e12).abs() / 2.8e12 < 0.01);
    }

    #[test]
    fn remat_policies_order_memory() {
        let cfg = ModelConfig::gpt3_175b();
        let none = activation_bytes_per_layer(&cfg, 2, 8, RematPolicy::None);
        let sel = activation_bytes_per_layer(&cfg, 2, 8, RematPolicy::Selective);
        let full = activation_bytes_per_layer(&cfg, 2, 8, RematPolicy::Full);
        assert!(none > sel && sel > full);
    }

    #[test]
    fn tp_shards_activations() {
        let cfg = ModelConfig::gpt3_175b();
        let t1 = activation_bytes_per_layer(&cfg, 2, 1, RematPolicy::None);
        let t8 = activation_bytes_per_layer(&cfg, 2, 8, RematPolicy::None);
        assert!((t1 / t8 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn full_remat_costs_one_forward() {
        assert_eq!(remat_compute_factor(RematPolicy::Full), 1.0);
        assert_eq!(remat_compute_factor(RematPolicy::None), 0.0);
    }

    #[test]
    fn gpt3_activations_dominate_without_remat() {
        // A GPipe pipeline holding all 32 microbatches of activations for
        // 12 layers/GPU without remat must blow the 80 GB budget —
        // this is exactly why the SPMD-PP baseline rematerializes.
        // The paper's SPMD-PP configuration (Table 1): PP=16, TP=4,
        // GA=128 — GPipe keeps all 128 microbatches alive.
        let cfg = ModelConfig::gpt3_175b();
        let per_layer = activation_bytes_per_layer(&cfg, 1, 4, RematPolicy::Selective);
        let layers_per_gpu = cfg.n_layers / 16;
        let worst = per_layer * layers_per_gpu as f64 * 128.0;
        assert!(worst > 80e9, "GPipe without remat fits?! {worst:.2e}");
    }
}
