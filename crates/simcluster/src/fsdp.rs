//! The JAX FSDP baseline (Table 1, Figures 8-9): fully-sharded data
//! parallelism in the style of ZeRO-3 / `jax.experimental` FSDP.
//!
//! Every parameter is sharded across the FSDP domain; each layer's
//! weights are all-gathered before use (forward and backward) and
//! gradients are reduce-scattered — three full-model passes over the
//! network per step, partially overlapped with compute. Collectives use
//! a hierarchical (NVLink intra-node + InfiniBand inter-node) cost
//! model, which is what makes FSDP viable at all at this scale.

use crate::cluster_ext::hierarchical_gather_time;
use crate::collective::{collective_time, Collective};
use crate::config::ModelConfig;
use crate::memory::{activation_bytes_per_layer, static_state_bytes, RematPolicy};
use crate::specs::ClusterSpec;

/// FSDP run configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsdpConfig {
    /// Total GPUs.
    pub gpus: usize,
    /// Size of the parameter-sharding domain (the paper caps it at 128;
    /// beyond that, plain data parallelism multiplies domains).
    pub shard_domain: usize,
    /// Global batch in sequences.
    pub global_batch: usize,
    /// Fraction of collective time hidden behind compute.
    pub overlap: f64,
}

impl FsdpConfig {
    /// The paper's JAX FSDP setting for `gpus` GPUs: shard domain
    /// `min(gpus, 128)`, global batch 2 sequences per GPU, modest
    /// overlap.
    pub fn paper(gpus: usize) -> FsdpConfig {
        FsdpConfig {
            gpus,
            shard_domain: gpus.min(128),
            global_batch: 2 * gpus,
            overlap: 0.1,
        }
    }

    /// Data-parallel replica count on top of the shard domain.
    pub fn dp_replicas(&self) -> usize {
        self.gpus / self.shard_domain
    }
}

/// Result of one simulated FSDP step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsdpReport {
    /// End-to-end step time in seconds.
    pub step_time: f64,
    /// Achieved model TFLOPS per GPU.
    pub tflops_per_gpu: f64,
    /// Pure compute time per GPU (excluding recomputation).
    pub compute: f64,
    /// Exposed collective/recompute time (they overlap each other).
    pub exposed_comm: f64,
    /// Peak memory per device in bytes.
    pub peak_mem_bytes: f64,
}

/// Simulates one FSDP training step.
///
/// # Errors
///
/// Returns a message when the configuration is inconsistent (GPU count
/// not divisible by the shard domain, batch not divisible by GPUs).
pub fn simulate_fsdp(
    model: &ModelConfig,
    cfg: FsdpConfig,
    cluster: &ClusterSpec,
) -> Result<FsdpReport, String> {
    if !cfg.gpus.is_multiple_of(cfg.shard_domain) {
        return Err(format!(
            "gpus {} not divisible by shard domain {}",
            cfg.gpus, cfg.shard_domain
        ));
    }
    if !cfg.global_batch.is_multiple_of(cfg.gpus) {
        return Err(format!(
            "global batch {} not divisible by gpus {}",
            cfg.global_batch, cfg.gpus
        ));
    }
    let seqs_per_gpu = cfg.global_batch / cfg.gpus;

    // Compute: no TP, decent per-GPU GEMMs.
    let eff = cluster.efficiency.efficiency(seqs_per_gpu, 1);
    let flops = model.train_flops(cfg.global_batch as u64);
    let compute = flops / (cfg.gpus as f64 * cluster.gpu.peak_flops * eff);

    // Communication: three full-model passes (all-gather fwd, all-gather
    // bwd, reduce-scatter grads) in BF16 across the shard domain.
    let model_bytes = model.n_params() as f64 * 2.0;
    let nodes = (cfg.shard_domain as f64 / cluster.gpus_per_node as f64).max(1.0);
    let per_pass = hierarchical_gather_time(
        model_bytes,
        nodes as usize,
        cluster.gpus_per_node.min(cfg.shard_domain),
        cluster.intra_link,
        cluster.inter_link,
    );
    let mut comm = 3.0 * per_pass;
    // Extra DP all-reduce across replica domains of the sharded grads.
    if cfg.dp_replicas() > 1 {
        let grad_shard = 2.0 * model.n_params() as f64 / cfg.shard_domain as f64;
        comm += collective_time(
            Collective::AllReduce,
            grad_shard,
            cfg.dp_replicas(),
            cluster.inter_link,
        );
    }
    // FSDP checkpoints activations every layer and recomputes the layer
    // in backward *while waiting for the next weight all-gather*, so the
    // exposed cost is whichever of the two is longer.
    let remat = compute / 3.0;
    let exposed_comm = (comm * (1.0 - cfg.overlap)).max(remat);

    // Optimizer pass over the sharded state.
    let params_per_gpu = model.n_params() as f64 / cfg.shard_domain as f64;
    let static_bytes = static_state_bytes(params_per_gpu);
    let opt = 2.0 * static_bytes / cluster.gpu.hbm_bandwidth;

    let jitter = 1.0
        + cluster.jitter_per_doubling
            * ((cfg.gpus as f64 / cluster.gpus_per_node as f64) / 8.0)
                .log2()
                .max(0.0);
    let step_time = (compute + exposed_comm + opt) * jitter;
    let tflops_per_gpu = flops / (step_time * cfg.gpus as f64) / 1e12;

    // Memory: sharded state + double-buffered gathered layer weights +
    // per-layer input checkpoints + one layer's live working set.
    let checkpoints = activation_bytes_per_layer(model, seqs_per_gpu, 1, RematPolicy::Full)
        * model.n_layers as f64;
    let working_set = activation_bytes_per_layer(model, seqs_per_gpu, 1, RematPolicy::Selective);
    let gathered_layer = 2.0 * model.n_params() as f64 / model.n_layers as f64 * 2.0; // double-buffered
    let peak_mem_bytes = static_bytes + checkpoints + working_set + gathered_layer;

    Ok(FsdpReport {
        step_time,
        tflops_per_gpu,
        compute,
        exposed_comm,
        peak_mem_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsdp_64_matches_table1() {
        // Table 1: JAX FSDP, GBS 128 on 64 GPUs: 10.63 s, 415 TFLOPS.
        let r = simulate_fsdp(
            &ModelConfig::gpt3_175b(),
            FsdpConfig::paper(64),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert!(
            (r.step_time - 10.63).abs() / 10.63 < 0.12,
            "step {:.2}s vs paper 10.63s",
            r.step_time
        );
        assert!(
            (r.tflops_per_gpu - 415.0).abs() / 415.0 < 0.12,
            "tflops {:.0} vs paper 415",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn fsdp_weak_scaling_matches_figure8() {
        // Paper: 93.97% efficiency from 64 to 1024 GPUs.
        let base = simulate_fsdp(
            &ModelConfig::gpt3_175b(),
            FsdpConfig::paper(64),
            &ClusterSpec::eos(),
        )
        .unwrap();
        let big = simulate_fsdp(
            &ModelConfig::gpt3_175b(),
            FsdpConfig::paper(1024),
            &ClusterSpec::eos(),
        )
        .unwrap();
        let eff = base.step_time / big.step_time;
        assert!(eff > 0.88 && eff < 1.0, "FSDP weak scaling {eff:.3}");
    }

    #[test]
    fn fsdp_llama2_matches_table1() {
        // Table 1: Llama2 70B FSDP on 64 GPUs: 8.44 s, 431 TFLOPS.
        let r = simulate_fsdp(
            &ModelConfig::llama2_70b(),
            FsdpConfig::paper(64),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert!(
            (r.step_time - 8.44).abs() / 8.44 < 0.15,
            "step {:.2}s vs paper 8.44s",
            r.step_time
        );
    }

    #[test]
    fn fsdp_memory_fits() {
        let r = simulate_fsdp(
            &ModelConfig::gpt3_175b(),
            FsdpConfig::paper(64),
            &ClusterSpec::eos(),
        )
        .unwrap();
        assert!(r.peak_mem_bytes < 80e9, "{:.1} GB", r.peak_mem_bytes / 1e9);
    }

    #[test]
    fn bad_configs_rejected() {
        let m = ModelConfig::gpt3_175b();
        let c = ClusterSpec::eos();
        assert!(simulate_fsdp(
            &m,
            FsdpConfig {
                gpus: 96,
                shard_domain: 64,
                global_batch: 192,
                overlap: 0.1
            },
            &c
        )
        .is_err());
        assert!(simulate_fsdp(
            &m,
            FsdpConfig {
                gpus: 64,
                shard_domain: 64,
                global_batch: 100,
                overlap: 0.1
            },
            &c
        )
        .is_err());
    }
}
