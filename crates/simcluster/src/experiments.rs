//! Drivers that regenerate every table and figure of the paper's
//! evaluation (§5). Each function returns structured rows; the
//! `paper_tables` example prints them next to the paper's reported
//! numbers (also recorded here, in [`paper`]).

use crate::config::{ModelConfig, ParallelConfig, ScheduleKind};
use crate::fsdp::{simulate_fsdp, FsdpConfig, FsdpReport};
use crate::sim::{simulate_pipeline, SimError, SimOptions, StepReport};
use crate::specs::ClusterSpec;

/// The paper's reported numbers, for paper-vs-measured printing.
pub mod paper {
    /// Table 1, JaxPP GPT-3 rows: (GPUs, step seconds, TFLOPS/device).
    pub const JAXPP_GPT3: [(usize, f64, f64); 5] = [
        (64, 9.53, 462.0),
        (128, 9.64, 457.0),
        (256, 9.74, 452.0),
        (512, 9.71, 454.0),
        (1024, 10.26, 430.0),
    ];
    /// Table 1, JAX FSDP GPT-3 rows.
    pub const FSDP_GPT3: [(usize, f64, f64); 5] = [
        (64, 10.63, 415.0),
        (128, 10.70, 412.0),
        (256, 10.91, 404.0),
        (512, 11.01, 400.0),
        (1024, 11.30, 390.0),
    ];
    /// Table 1, JAX SPMD PP GPT-3 row (128 GPUs).
    pub const SPMD_PP_GPT3: (usize, f64, f64) = (128, 13.96, 316.0);
    /// Table 1, NeMo GPT-3 row (128 GPUs).
    pub const NEMO_GPT3: (usize, f64, f64) = (128, 9.78, 500.0);
    /// Table 1, Llama2 70B rows: JaxPP, FSDP, NeMo (all 64 GPUs).
    pub const JAXPP_LLAMA2: (usize, f64, f64) = (64, 8.42, 432.0);
    /// JAX FSDP Llama2 70B row.
    pub const FSDP_LLAMA2: (usize, f64, f64) = (64, 8.44, 431.0);
    /// NeMo Llama2 70B row.
    pub const NEMO_LLAMA2: (usize, f64, f64) = (64, 7.02, 519.0);
    /// Figure 8 weak-scaling efficiencies 64 → 1024 GPUs.
    pub const WEAK_SCALING_JAXPP: f64 = 0.9287;
    /// FSDP weak-scaling efficiency.
    pub const WEAK_SCALING_FSDP: f64 = 0.9397;
    /// §5.2: JaxPP speedup over SPMD PP.
    pub const SPEEDUP_OVER_SPMD_PP: f64 = 1.446;
    /// §5.2/abstract: JaxPP speedup over JAX FSDP.
    pub const SPEEDUP_OVER_FSDP: f64 = 1.11;
    /// §5.2: JaxPP fraction of NeMo's throughput on GPT-3.
    pub const FRACTION_OF_NEMO: f64 = 0.914;
    /// §5.3 / Figure 10: rematerialization's share of SPMD PP step time.
    pub const REMAT_SHARE: f64 = 0.20;
}

/// One point of the Figure 6 / Figure 7 sweeps: GPT-3 175B on 64 GPUs
/// (PP=8, TP=8) under interleaved 1F1B.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Circular repeat degree.
    pub circular_repeat: usize,
    /// Microbatch size.
    pub microbatch: usize,
    /// Number of microbatches (gradient accumulation).
    pub n_microbatches: usize,
    /// Simulated step (or the reason the configuration is infeasible).
    pub report: Result<StepReport, SimError>,
}

fn sweep_point(
    cluster: &ClusterSpec,
    circular_repeat: usize,
    microbatch: usize,
    n_microbatches: usize,
) -> SweepPoint {
    let par = ParallelConfig {
        microbatch,
        n_microbatches,
        circular_repeat,
        ..ParallelConfig::jaxpp_gpt3(1)
    };
    let gpt3 = ModelConfig::gpt3_175b();
    SweepPoint {
        circular_repeat,
        microbatch,
        n_microbatches,
        report: simulate_pipeline(&gpt3, par, cluster, &SimOptions::default()),
    }
}

/// Regenerates Figure 6 on `cluster`: GBS 128, sweeping circular repeat
/// and microbatch size.
pub fn figure6(cluster: &ClusterSpec) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &microbatch in &[1usize, 2, 4] {
        for &repeat in &[1usize, 2, 3, 4, 6, 12] {
            out.push(sweep_point(cluster, repeat, microbatch, 128 / microbatch));
        }
    }
    out
}

/// Regenerates Figure 7 on `cluster`: repeat 6, sweeping gradient
/// accumulation and microbatch size.
pub fn figure7(cluster: &ClusterSpec) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &microbatch in &[1usize, 2, 4] {
        for &ga in &[8usize, 16, 32, 64, 128] {
            out.push(sweep_point(cluster, 6, microbatch, ga));
        }
    }
    out
}

/// One row of Figure 8: weak scaling of JaxPP vs JAX FSDP.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Total GPUs.
    pub gpus: usize,
    /// JaxPP step report.
    pub jaxpp: StepReport,
    /// FSDP step report.
    pub fsdp: FsdpReport,
}

/// Regenerates Figure 8 on `cluster` (64 → 1024 GPUs, GBS 128 → 2048).
///
/// # Errors
///
/// Propagates simulator errors (none occur for the paper's
/// configurations).
pub fn figure8(cluster: &ClusterSpec) -> Result<Vec<Fig8Row>, SimError> {
    let gpt3 = ModelConfig::gpt3_175b();
    let mut rows = Vec::new();
    for dp in [1usize, 2, 4, 8, 16] {
        let par = ParallelConfig::jaxpp_gpt3(dp);
        let jaxpp = simulate_pipeline(&gpt3, par, cluster, &SimOptions::default())?;
        let fsdp = simulate_fsdp(&gpt3, FsdpConfig::paper(par.gpus()), cluster)
            .map_err(SimError::Invalid)?;
        rows.push(Fig8Row {
            gpus: par.gpus(),
            jaxpp,
            fsdp,
        });
    }
    Ok(rows)
}

/// One row of Table 1 / Figure 9.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// System name as in the paper.
    pub system: &'static str,
    /// Workload name.
    pub model: String,
    /// Global batch size in sequences.
    pub gbs: usize,
    /// Total GPUs.
    pub gpus: usize,
    /// Measured step time (seconds).
    pub step_time: f64,
    /// Measured TFLOPS/device.
    pub tflops: f64,
    /// The paper's step time.
    pub paper_step: f64,
    /// The paper's TFLOPS/device.
    pub paper_tflops: f64,
}

/// `(gbs, step seconds, TFLOPS/device)` as simulated.
type Measured = (usize, f64, f64);

fn pipeline(
    model: &ModelConfig,
    par: ParallelConfig,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<Measured, SimError> {
    let r = simulate_pipeline(model, par, cluster, &opts)?;
    Ok((par.global_batch(), r.step_time, r.tflops_per_gpu))
}

fn fsdp(model: &ModelConfig, gpus: usize, cluster: &ClusterSpec) -> Result<Measured, SimError> {
    let cfg = FsdpConfig::paper(gpus);
    let r = simulate_fsdp(model, cfg, cluster).map_err(SimError::Invalid)?;
    Ok((cfg.global_batch, r.step_time, r.tflops_per_gpu))
}

/// Regenerates every row of Table 1 (and therefore Figure 9) on
/// `cluster`.
///
/// # Errors
///
/// Propagates simulator errors (none occur for the paper's
/// configurations).
pub fn table1(cluster: &ClusterSpec) -> Result<Vec<Table1Row>, SimError> {
    let gpt3 = ModelConfig::gpt3_175b();
    let llama2 = ModelConfig::llama2_70b();
    let fused = cluster.fused();
    let (jaxpp, spmd, nemo) = (
        SimOptions::default(),
        SimOptions::spmd_pp(),
        SimOptions::nemo(),
    );
    let mut rows = Vec::new();
    // `paper` is the paper's (GPUs, step seconds, TFLOPS/device).
    let mut push = |system, model: &ModelConfig, measured: Measured, paper: (usize, f64, f64)| {
        rows.push(Table1Row {
            system,
            model: model.name.clone(),
            gbs: measured.0,
            gpus: paper.0,
            step_time: measured.1,
            tflops: measured.2,
            paper_step: paper.1,
            paper_tflops: paper.2,
        })
    };
    for (i, &paper) in paper::JAXPP_GPT3.iter().enumerate() {
        let par = ParallelConfig::jaxpp_gpt3(1 << i);
        debug_assert_eq!(par.gpus(), paper.0);
        push(
            "RaxPP (JaxPP)",
            &gpt3,
            pipeline(&gpt3, par, cluster, jaxpp)?,
            paper,
        );
    }
    for &paper in &paper::FSDP_GPT3 {
        push("JAX FSDP", &gpt3, fsdp(&gpt3, paper.0, cluster)?, paper);
    }
    let par = ParallelConfig::spmd_pp_gpt3();
    let measured = pipeline(&gpt3, par, cluster, spmd)?;
    push("JAX SPMD PP", &gpt3, measured, paper::SPMD_PP_GPT3);
    let measured = pipeline(&gpt3, ParallelConfig::nemo_gpt3(), &fused, nemo)?;
    push("NeMo", &gpt3, measured, paper::NEMO_GPT3);
    let measured = pipeline(&llama2, ParallelConfig::jaxpp_llama2(), cluster, jaxpp)?;
    push("RaxPP (JaxPP)", &llama2, measured, paper::JAXPP_LLAMA2);
    let paper = paper::FSDP_LLAMA2;
    push("JAX FSDP", &llama2, fsdp(&llama2, paper.0, cluster)?, paper);
    let measured = pipeline(&llama2, ParallelConfig::nemo_llama2(), &fused, nemo)?;
    push("NeMo", &llama2, measured, paper::NEMO_LLAMA2);
    Ok(rows)
}

/// Figure 10: the overheads separating SPMD PP from JaxPP, obtained by
/// toggling one mechanism at a time on the SPMD configuration.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// The SPMD PP baseline as-is (GPipe + full remat + sync P2P).
    pub spmd_pp: StepReport,
    /// SPMD PP with asynchronous P2P (isolates the send/recv overlap
    /// win).
    pub spmd_async_p2p: StepReport,
    /// Same configuration but scheduled as 1F1B: the schedule bounds live
    /// activations by the stage count, device memory fits without full
    /// recomputation, and the ≈20% remat cost disappears (§5.3 — this is
    /// the schedule flexibility the SPMD encoding cannot express).
    pub one_f1b: StepReport,
    /// JaxPP proper (interleaved 1F1B) at the same scale.
    pub jaxpp: StepReport,
}

/// Regenerates Figure 10 on `cluster`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn figure10(cluster: &ClusterSpec) -> Result<Fig10, SimError> {
    let gpt3 = ModelConfig::gpt3_175b();
    let spmd_cfg = ParallelConfig::spmd_pp_gpt3();
    let spmd_pp = simulate_pipeline(&gpt3, spmd_cfg, cluster, &SimOptions::spmd_pp())?;
    let spmd_async_p2p = simulate_pipeline(
        &gpt3,
        spmd_cfg,
        cluster,
        &SimOptions {
            async_p2p: true,
            ..SimOptions::spmd_pp()
        },
    )?;
    let f1b_cfg = ParallelConfig {
        schedule: ScheduleKind::OneF1B,
        ..spmd_cfg
    };
    let one_f1b = simulate_pipeline(&gpt3, f1b_cfg, cluster, &SimOptions::default())?;
    let jaxpp = simulate_pipeline(
        &gpt3,
        ParallelConfig::jaxpp_gpt3(2),
        cluster,
        &SimOptions::default(),
    )?;
    Ok(Fig10 {
        spmd_pp,
        spmd_async_p2p,
        one_f1b,
        jaxpp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_covers_grid() {
        let pts = figure6(&ClusterSpec::eos());
        assert_eq!(pts.len(), 18);
        assert!(pts.iter().all(|p| p.report.is_ok()));
    }

    #[test]
    fn figure6_best_repeat_is_interior() {
        // §5.1.1: increasing repeat improves up to the point where
        // dispatch overheads emerge — the optimum is neither 1 nor the
        // maximum.
        let pts = figure6(&ClusterSpec::eos());
        let best = pts
            .iter()
            .filter(|p| p.microbatch == 4)
            .min_by(|a, b| {
                let ta = a.report.as_ref().unwrap().step_time;
                let tb = b.report.as_ref().unwrap().step_time;
                ta.partial_cmp(&tb).unwrap()
            })
            .unwrap();
        assert!(
            best.circular_repeat > 1,
            "repeat=1 should not be optimal (got {})",
            best.circular_repeat
        );
    }

    #[test]
    fn figure7_more_accumulation_helps() {
        let pts = figure7(&ClusterSpec::eos());
        for mbs in [1usize, 2, 4] {
            let series: Vec<&SweepPoint> = pts.iter().filter(|p| p.microbatch == mbs).collect();
            let first = series
                .first()
                .unwrap()
                .report
                .as_ref()
                .unwrap()
                .tflops_per_gpu;
            let last = series
                .last()
                .unwrap()
                .report
                .as_ref()
                .unwrap()
                .tflops_per_gpu;
            assert!(last > first, "mbs={mbs}: utilization should rise with GA");
        }
    }

    #[test]
    fn figure8_matches_paper_efficiencies() {
        let rows = figure8(&ClusterSpec::eos()).unwrap();
        let jaxpp_eff = rows[0].jaxpp.step_time / rows.last().unwrap().jaxpp.step_time;
        let fsdp_eff = rows[0].fsdp.step_time / rows.last().unwrap().fsdp.step_time;
        assert!(
            (jaxpp_eff - paper::WEAK_SCALING_JAXPP).abs() < 0.05,
            "jaxpp {jaxpp_eff:.3}"
        );
        assert!(
            (fsdp_eff - paper::WEAK_SCALING_FSDP).abs() < 0.05,
            "fsdp {fsdp_eff:.3}"
        );
        // JaxPP delivers higher absolute throughput at every scale.
        for row in &rows {
            assert!(
                row.jaxpp.tflops_per_gpu > row.fsdp.tflops_per_gpu,
                "at {}",
                row.gpus
            );
        }
    }

    #[test]
    fn table1_within_tolerance() {
        for row in table1(&ClusterSpec::eos()).unwrap() {
            let err = (row.step_time - row.paper_step).abs() / row.paper_step;
            assert!(
                err < 0.15,
                "{} {} at {} GPUs: {:.2}s vs paper {:.2}s ({:.0}% off)",
                row.system,
                row.model,
                row.gpus,
                row.step_time,
                row.paper_step,
                err * 100.0
            );
        }
    }

    #[test]
    fn headline_ratios_hold() {
        let rows = table1(&ClusterSpec::eos()).unwrap();
        let get = |sys: &str, model: &str, gpus: usize| {
            rows.iter()
                .find(|r| r.system == sys && r.model == model && r.gpus == gpus)
                .unwrap()
                .step_time
        };
        // 1.446x over SPMD PP at 128 GPUs, same global batch.
        let speedup =
            get("JAX SPMD PP", "GPT-3 175B", 128) / get("RaxPP (JaxPP)", "GPT-3 175B", 128);
        assert!(
            (speedup - paper::SPEEDUP_OVER_SPMD_PP).abs() < 0.12,
            "speedup over SPMD PP: {speedup:.3}"
        );
        // ≈1.11x over FSDP at 64 GPUs.
        let over_fsdp = get("JAX FSDP", "GPT-3 175B", 64) / get("RaxPP (JaxPP)", "GPT-3 175B", 64);
        assert!(
            (over_fsdp - paper::SPEEDUP_OVER_FSDP).abs() < 0.08,
            "speedup over FSDP: {over_fsdp:.3}"
        );
        // ≈91.4% of NeMo on GPT-3 (NeMo remains faster).
        let vs_nemo = get("NeMo", "GPT-3 175B", 128) / get("RaxPP (JaxPP)", "GPT-3 175B", 128);
        assert!(
            (vs_nemo - paper::FRACTION_OF_NEMO).abs() < 0.08,
            "fraction of NeMo: {vs_nemo:.3}"
        );
    }

    #[test]
    fn figure10_decomposition() {
        let f = figure10(&ClusterSpec::eos()).unwrap();
        // Remat is the dominant overhead (§5.3): the 1F1B schedule frees
        // enough memory to drop it, saving around 20% of the step.
        use crate::memory::RematPolicy as RP;
        assert_eq!(f.spmd_pp.remat_policy, RP::Full);
        assert_ne!(f.one_f1b.remat_policy, RP::Full);
        let remat_share = (f.spmd_async_p2p.step_time - f.one_f1b.step_time) / f.spmd_pp.step_time;
        assert!(
            remat_share > 0.10 && remat_share < 0.30,
            "remat share {remat_share:.2} (paper ≈ {})",
            paper::REMAT_SHARE
        );
        // Async P2P helps too, but less.
        assert!(f.spmd_async_p2p.step_time < f.spmd_pp.step_time);
        // JaxPP (interleaved) beats every ablated variant.
        assert!(f.jaxpp.step_time < f.one_f1b.step_time);
    }

    /// `paper_tables --ablations`, ablation 4 (rematerialization policy,
    /// GPT-3 175B @ 64 GPUs): auto picks selective, and forcing full
    /// remat buys memory with time. The other four ablations' directions
    /// are pinned by `raxpp-taskgraph`'s
    /// `stats::tests::loop_commuting_reduces_gradient_bytes` (1),
    /// `sim::tests::per_task_rpc_hurts` (2), `sim::tests::sync_p2p_is_slower`
    /// (3) and `tests/zero_bubble.rs`'s
    /// `zero_bubble_beats_1f1b_at_paper_scale` (5).
    #[test]
    fn ablation4_full_remat_trades_time_for_memory() {
        use crate::memory::RematPolicy as RP;
        let run = |force_remat| {
            let opts = SimOptions {
                force_remat,
                ..SimOptions::default()
            };
            let (model, par) = (ModelConfig::gpt3_175b(), ParallelConfig::jaxpp_gpt3(1));
            simulate_pipeline(&model, par, &ClusterSpec::eos(), &opts).unwrap()
        };
        let (auto, selective, full) = (run(None), run(Some(RP::Selective)), run(Some(RP::Full)));
        assert_eq!(auto.remat_policy, RP::Selective);
        assert_eq!(auto.step_time, selective.step_time);
        assert_eq!(auto.peak_mem_bytes, selective.peak_mem_bytes);
        assert!(full.step_time > auto.step_time);
        assert!(full.breakdown.remat > auto.breakdown.remat);
        assert!(full.peak_mem_bytes < auto.peak_mem_bytes);
    }
}
