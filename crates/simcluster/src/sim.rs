//! The discrete-event performance simulator: executes a pipeline
//! schedule against the cluster model and reports step time, achieved
//! TFLOPS/device, memory, and a time breakdown (compute, bubble, exposed
//! communication, rematerialization, dispatch) — the quantities behind
//! Table 1 and Figures 6-10.

use std::collections::HashMap;
use std::fmt;

use raxpp_sched::{
    simulate as sched_simulate, time_schedule, CostModel, Dir, ScheduleError, Task, TimelineEntry,
    Transfer, UniformCost,
};

use crate::collective::{collective_time, Collective};
use crate::config::{ModelConfig, ParallelConfig};
use crate::memory::{
    activation_bytes_per_layer, remat_compute_factor, static_state_bytes, RematPolicy,
};
use crate::specs::ClusterSpec;

/// Error raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration does not fit in device memory under any
    /// rematerialization policy.
    Oom {
        /// Bytes required (best policy).
        required: f64,
        /// Device capacity in bytes.
        capacity: f64,
    },
    /// Schedule construction failed.
    Schedule(ScheduleError),
    /// Inconsistent configuration.
    Invalid(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Oom { required, capacity } => write!(
                f,
                "out of memory: needs {:.1} GB of {:.1} GB",
                required / 1e9,
                capacity / 1e9
            ),
            SimError::Schedule(e) => write!(f, "{e}"),
            SimError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        SimError::Schedule(e)
    }
}

/// Simulation options distinguishing JaxPP from the baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Asynchronous P2P send/receive overlapping compute (JaxPP, §4.2).
    /// When false, the sender blocks until delivery (the synchronous
    /// behaviour Figure 10 charges the SPMD baseline for).
    pub async_p2p: bool,
    /// Force a rematerialization policy instead of choosing the cheapest
    /// one that fits (the SPMD-PP baseline is pinned to
    /// [`RematPolicy::Full`], §5.3).
    pub force_remat: Option<RematPolicy>,
    /// Fraction of the data-parallel gradient all-reduce hidden behind
    /// the pipeline cool-down.
    pub dp_overlap: f64,
    /// Dispatch every task as its own driver RPC instead of one fused
    /// stream per actor (ablation of §4.4; adds a controller round trip
    /// per task).
    pub per_task_rpc: bool,
    /// Controller round-trip time charged per RPC in `per_task_rpc` mode.
    pub rpc_rtt: f64,
    /// Shard the FP32 optimizer state across the data-parallel replicas
    /// (ZeRO-1 / Megatron's distributed optimizer). NeMo enables this by
    /// default at these scales; JaxPP's Table 1 runs do not need it.
    pub zero1_optimizer: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            async_p2p: true,
            force_remat: None,
            dp_overlap: 0.5,
            per_task_rpc: false,
            rpc_rtt: 150e-6,
            zero1_optimizer: false,
        }
    }
}

/// Where one step's time went, averaged per GPU (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    /// Useful forward/backward math.
    pub compute: f64,
    /// Extra forward recomputation due to rematerialization.
    pub remat: f64,
    /// Tensor-parallel collectives inside tasks.
    pub tp_comm: f64,
    /// Pipeline P2P time not hidden behind compute.
    pub p2p_exposed: f64,
    /// Sender-side blocking of synchronous sends.
    pub sync_send_block: f64,
    /// Task dispatch overhead (XLA dispatch + optional per-task RPC).
    pub dispatch: f64,
    /// Remaining idle time (the pipeline bubble).
    pub bubble: f64,
    /// Data-parallel gradient all-reduce (exposed part) + optimizer.
    pub dp_and_opt: f64,
}

/// The cluster's pricing of the pipeline walk: every task pays the
/// dispatch overhead before it runs, every `(from, to)` link carries one
/// transfer at a time, and a synchronous send holds its sender until
/// delivery.
struct ClusterCost {
    dispatch: f64,
    p2p_time: f64,
    async_p2p: bool,
    link_free: HashMap<(usize, usize), f64>,
}

impl CostModel for ClusterCost {
    fn task(&mut self, _actor: usize, start: f64, dur: f64) -> f64 {
        start + self.dispatch + dur
    }

    fn transfer(&mut self, from: usize, to: usize, ready: f64) -> Transfer {
        let free = self.link_free.entry((from, to)).or_insert(0.0);
        *free = ready.max(*free) + self.p2p_time;
        Transfer {
            arrival: *free,
            blocks_sender: !self.async_p2p,
        }
    }
}

/// Result of simulating one training step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// End-to-end step time in seconds.
    pub step_time: f64,
    /// Achieved model TFLOPS per GPU.
    pub tflops_per_gpu: f64,
    /// Model FLOPs utilization (fraction of peak).
    pub mfu: f64,
    /// Per-GPU time breakdown.
    pub breakdown: Breakdown,
    /// The rematerialization policy chosen (or forced).
    pub remat_policy: RematPolicy,
    /// Peak device memory in bytes.
    pub peak_mem_bytes: f64,
    /// The simulated configuration.
    pub config: ParallelConfig,
    /// Executed tasks per actor (pipeline rank), in execution order.
    pub timeline: Vec<Vec<TimelineEntry>>,
}

/// Simulates one training step of `model` under `par` on `cluster`.
///
/// # Errors
///
/// Returns [`SimError::Oom`] when no rematerialization policy fits
/// device memory, or configuration/schedule errors.
pub fn simulate_pipeline(
    model: &ModelConfig,
    par: ParallelConfig,
    cluster: &ClusterSpec,
    opts: &SimOptions,
) -> Result<StepReport, SimError> {
    if par.tp > cluster.gpus_per_node {
        return Err(SimError::Invalid(format!(
            "tp={} exceeds the {}-GPU high-bandwidth domain",
            par.tp, cluster.gpus_per_node
        )));
    }
    if !model.n_layers.is_multiple_of(par.n_stages()) {
        return Err(SimError::Invalid(format!(
            "{} layers do not divide into {} stages",
            model.n_layers,
            par.n_stages()
        )));
    }
    let schedule = par.build_schedule()?;
    let n_stages = par.n_stages();
    let layers_per_stage = model.n_layers as f64 / n_stages as f64;

    // ---- Memory model & remat decision -------------------------------
    let params_per_gpu = model.n_params() as f64 / (par.tp * par.pp) as f64;
    let static_bytes = if opts.zero1_optimizer {
        // BF16 weights+grads resident; FP32 master/Adam state sharded
        // across DP replicas.
        params_per_gpu * (4.0 + 12.0 / par.dp as f64)
    } else {
        static_state_bytes(params_per_gpu)
    };
    // Structural peak of live microbatch activations per actor.
    let structure = sched_simulate(&schedule, UniformCost::default())?;
    let peak_live = structure
        .peak_live_activations
        .iter()
        .copied()
        .max()
        .unwrap_or(0) as f64;
    let act_chunk = |policy: RematPolicy| {
        match policy {
            // Full recomputation stores only the stage-chunk input, not
            // per-layer state.
            RematPolicy::Full => activation_bytes_per_layer(model, par.microbatch, par.tp, policy),
            _ => {
                activation_bytes_per_layer(model, par.microbatch, par.tp, policy) * layers_per_stage
            }
        }
    };
    let candidate_policies = match opts.force_remat {
        Some(p) => vec![p],
        None => vec![RematPolicy::None, RematPolicy::Selective, RematPolicy::Full],
    };
    let mut chosen = None;
    let mut tightest = f64::INFINITY;
    for p in candidate_policies {
        let total = static_bytes + peak_live * act_chunk(p);
        tightest = tightest.min(total);
        if total <= cluster.gpu.memory_bytes {
            chosen = Some((p, total));
            break;
        }
    }
    let Some((policy, peak_mem)) = chosen else {
        return Err(SimError::Oom {
            required: tightest,
            capacity: cluster.gpu.memory_bytes,
        });
    };

    // ---- Per-task costs ----------------------------------------------
    let tokens_per_mb = (par.microbatch * model.seq_len) as u64;
    let eff = cluster.efficiency.efficiency(par.microbatch, par.tp);
    let stage_fwd_flops = model.fwd_flops(tokens_per_mb) * layers_per_stage / model.n_layers as f64;
    let stage_fwd_compute = stage_fwd_flops / (par.tp as f64 * cluster.gpu.peak_flops * eff);
    // Megatron TP: 2 activation all-reduces per layer forward, 2 backward.
    let act_bytes = (par.microbatch * model.seq_len * model.hidden) as f64 * 2.0;
    // Megatron TP inserts 2 activation all-reduces per layer and
    // direction; XLA hides part of them behind independent GEMMs, so
    // only the calibrated exposed fraction costs wall-clock time.
    let tp_comm_fwd = layers_per_stage
        * 2.0
        * collective_time(Collective::AllReduce, act_bytes, par.tp, cluster.intra_link)
        * cluster.tp_comm_exposed;
    let remat_extra = remat_compute_factor(policy) * stage_fwd_compute;
    let dispatch = cluster.dispatch_overhead + if opts.per_task_rpc { opts.rpc_rtt } else { 0.0 };
    // Activation shard crossing pipeline stages (per TP rank, over IB).
    let p2p_bytes = act_bytes / par.tp as f64;
    let p2p_time = cluster.inter_link.p2p_time(p2p_bytes);

    // ---- Timed walk of the schedule (the one engine) ------------------
    // Split-backward schedules split the 2x-forward backward into two
    // ~1x halves: B (activation gradients, critical path, pays the
    // rematerialization) and W (weight gradients, deferrable).
    let split = schedule.split_backward();
    // (compute, remat, tp) of one task; it runs for their sum.
    let parts = |t: &Task| match t.dir {
        Dir::Fwd | Dir::BwdW => (stage_fwd_compute, 0.0, tp_comm_fwd),
        Dir::Bwd if split => (stage_fwd_compute, remat_extra, tp_comm_fwd),
        Dir::Bwd => (2.0 * stage_fwd_compute, remat_extra, 2.0 * tp_comm_fwd),
    };
    let dur = |t: &Task| {
        let (compute, remat, tp) = parts(t);
        compute + tp + remat
    };
    let mut cost = ClusterCost {
        dispatch,
        p2p_time,
        async_p2p: opts.async_p2p,
        link_free: HashMap::new(),
    };
    let walk = time_schedule(&schedule, dur, &mut cost)?;
    let makespan = walk.makespan;
    // Per-GPU averages: a per-task quantity is summed per actor in task
    // order, then averaged over the actors.
    let n = par.pp as f64;
    let avg = |v: &[f64]| v.iter().sum::<f64>() / n;
    let busy = |part: &dyn Fn(&Task) -> f64| {
        let per_actor: Vec<f64> = schedule
            .actors()
            .iter()
            .map(|tasks| tasks.iter().map(part).sum())
            .collect();
        avg(&per_actor)
    };
    let busy_compute = busy(&|t| parts(t).0);
    let busy_remat = busy(&|t| parts(t).1);
    let busy_tp = busy(&|t| parts(t).2);
    let busy_dispatch = busy(&|_| dispatch);
    let sync_block = avg(&walk.send_blocked);
    let exposed_p2p = avg(&walk.exposed_recv);

    // ---- Post-loop costs ----------------------------------------------
    // DP gradient all-reduce (bf16 grads of the per-GPU shard) over IB.
    let dp_allreduce = collective_time(
        Collective::AllReduce,
        2.0 * params_per_gpu,
        par.dp,
        cluster.inter_link,
    ) * (1.0 - opts.dp_overlap);
    // Optimizer: memory-bound pass over the training state.
    let opt_time = 2.0 * static_bytes / cluster.gpu.hbm_bandwidth;
    // Straggler/contention growth beyond the 8-node rail-optimized
    // domain: the effect that keeps weak scaling at ≈93% (Figure 8).
    let nodes = (par.gpus() as f64 / cluster.gpus_per_node as f64).max(1.0);
    let jitter = 1.0 + cluster.jitter_per_doubling * (nodes / 8.0).log2().max(0.0);
    let step_time = (makespan + dp_allreduce + opt_time) * jitter;

    let idle =
        makespan - busy_compute - busy_remat - busy_tp - busy_dispatch - sync_block - exposed_p2p;
    let breakdown = Breakdown {
        compute: busy_compute,
        remat: busy_remat,
        tp_comm: busy_tp,
        p2p_exposed: exposed_p2p,
        sync_send_block: sync_block,
        dispatch: busy_dispatch,
        bubble: idle.max(0.0),
        dp_and_opt: dp_allreduce + opt_time,
    };

    let gpus = par.gpus() as f64;
    let flops = model.train_flops(par.global_batch() as u64);
    let tflops_per_gpu = flops / (step_time * gpus) / 1e12;
    let mfu = tflops_per_gpu * 1e12 / cluster.gpu.peak_flops;

    Ok(StepReport {
        step_time,
        tflops_per_gpu,
        mfu,
        breakdown,
        remat_policy: policy,
        peak_mem_bytes: peak_mem,
        config: par,
        timeline: walk.tasks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScheduleKind;

    fn gpt3() -> ModelConfig {
        ModelConfig::gpt3_175b()
    }

    #[test]
    fn flagship_config_is_in_table1_ballpark() {
        // Table 1 row 1: 9.53 s, 462 TFLOPS/device on 64 GPUs.
        let r = simulate_pipeline(
            &gpt3(),
            ParallelConfig::jaxpp_gpt3(1),
            &ClusterSpec::eos(),
            &SimOptions::default(),
        )
        .unwrap();
        assert!(
            (r.step_time - 9.53).abs() / 9.53 < 0.15,
            "step time {:.2}s vs paper 9.53s",
            r.step_time
        );
        assert!(
            (r.tflops_per_gpu - 462.0).abs() / 462.0 < 0.15,
            "tflops {:.0} vs paper 462",
            r.tflops_per_gpu
        );
    }

    #[test]
    fn flagship_fits_memory_without_full_remat() {
        let r = simulate_pipeline(
            &gpt3(),
            ParallelConfig::jaxpp_gpt3(1),
            &ClusterSpec::eos(),
            &SimOptions::default(),
        )
        .unwrap();
        assert_ne!(r.remat_policy, RematPolicy::Full);
        assert!(r.peak_mem_bytes < 80e9);
    }

    #[test]
    fn sync_p2p_is_slower() {
        let par = ParallelConfig::jaxpp_gpt3(1);
        let fast =
            simulate_pipeline(&gpt3(), par, &ClusterSpec::eos(), &SimOptions::default()).unwrap();
        let slow = simulate_pipeline(
            &gpt3(),
            par,
            &ClusterSpec::eos(),
            &SimOptions {
                async_p2p: false,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert!(slow.step_time > fast.step_time);
        assert!(slow.breakdown.sync_send_block > 0.0);
    }

    #[test]
    fn forced_full_remat_costs_about_a_forward() {
        let par = ParallelConfig::jaxpp_gpt3(1);
        let base =
            simulate_pipeline(&gpt3(), par, &ClusterSpec::eos(), &SimOptions::default()).unwrap();
        let remat = simulate_pipeline(
            &gpt3(),
            par,
            &ClusterSpec::eos(),
            &SimOptions {
                force_remat: Some(RematPolicy::Full),
                ..SimOptions::default()
            },
        )
        .unwrap();
        let slowdown = remat.step_time / base.step_time;
        // Paper §5.3: rematerialization accounts for ≈20% of step time.
        assert!(
            slowdown > 1.10 && slowdown < 1.45,
            "full remat slowdown {slowdown:.2} out of expected range"
        );
    }

    #[test]
    fn more_microbatches_improve_utilization() {
        let base = ParallelConfig::jaxpp_gpt3(1);
        let mut last = 0.0;
        for ga in [8, 16, 32] {
            let par = ParallelConfig {
                n_microbatches: ga,
                ..base
            };
            let r = simulate_pipeline(&gpt3(), par, &ClusterSpec::eos(), &SimOptions::default())
                .unwrap();
            assert!(r.tflops_per_gpu > last, "ga={ga}");
            last = r.tflops_per_gpu;
        }
    }

    #[test]
    fn per_task_rpc_hurts() {
        let par = ParallelConfig::jaxpp_gpt3(1);
        let fused =
            simulate_pipeline(&gpt3(), par, &ClusterSpec::eos(), &SimOptions::default()).unwrap();
        let unfused = simulate_pipeline(
            &gpt3(),
            par,
            &ClusterSpec::eos(),
            &SimOptions {
                per_task_rpc: true,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert!(unfused.step_time > fused.step_time);
        assert!(unfused.breakdown.dispatch > fused.breakdown.dispatch);
    }

    #[test]
    fn oom_reported_for_impossible_configs() {
        // PP=1, TP=1 puts all 175B params on one GPU: hopeless.
        let par = ParallelConfig {
            pp: 1,
            tp: 1,
            dp: 1,
            microbatch: 1,
            n_microbatches: 4,
            circular_repeat: 1,
            schedule: ScheduleKind::OneF1B,
        };
        let err = simulate_pipeline(&gpt3(), par, &ClusterSpec::eos(), &SimOptions::default());
        assert!(matches!(err, Err(SimError::Oom { .. })));
    }

    #[test]
    fn invalid_tp_rejected() {
        let par = ParallelConfig {
            tp: 16,
            ..ParallelConfig::jaxpp_gpt3(1)
        };
        assert!(matches!(
            simulate_pipeline(&gpt3(), par, &ClusterSpec::eos(), &SimOptions::default()),
            Err(SimError::Invalid(_))
        ));
    }

    #[test]
    fn weak_scaling_efficiency_is_high() {
        // Figure 8: 64 → 1024 GPUs at ≈93% weak-scaling efficiency.
        let base = simulate_pipeline(
            &gpt3(),
            ParallelConfig::jaxpp_gpt3(1),
            &ClusterSpec::eos(),
            &SimOptions::default(),
        )
        .unwrap();
        let big = simulate_pipeline(
            &gpt3(),
            ParallelConfig::jaxpp_gpt3(16),
            &ClusterSpec::eos(),
            &SimOptions::default(),
        )
        .unwrap();
        let eff = base.step_time / big.step_time;
        assert!(eff > 0.85 && eff <= 1.0, "weak scaling efficiency {eff:.3}");
    }
}
