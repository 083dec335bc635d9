//! Configuration auto-tuning: exhaustive search over parallelism
//! configurations on the performance model.
//!
//! The paper positions JaxPP against Alpa's *automated* parallelism
//! search (§6): JaxPP gives the user control instead. This module shows
//! the two compose — with a calibrated cost model, the user-controlled
//! configuration space (pp, tp, dp, microbatch size, accumulation,
//! circular repeat, schedule) can simply be enumerated, and the tuner's
//! winner doubles as a validation of the calibration: the paper's
//! hand-chosen flagship configuration should rank at or near the top.

use crate::config::{ModelConfig, ParallelConfig, ScheduleKind};
use crate::sim::{simulate_pipeline, SimOptions, StepReport};
use crate::specs::ClusterSpec;

/// Limits of the tuning sweep.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    /// Schedule kinds to consider.
    pub schedules: Vec<ScheduleKind>,
    /// Microbatch sizes to consider.
    pub microbatches: Vec<usize>,
    /// Maximum circular repeat for interleaved schedules.
    pub max_repeat: usize,
    /// Simulation options applied to every candidate.
    pub sim: SimOptions,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            schedules: vec![
                ScheduleKind::OneF1B,
                ScheduleKind::Interleaved1F1B,
                ScheduleKind::ZeroBubbleH1,
            ],
            microbatches: vec![1, 2, 4, 8],
            max_repeat: 12,
            sim: SimOptions::default(),
        }
    }
}

/// One feasible configuration with its simulated performance.
#[derive(Debug, Clone)]
pub struct TunedConfig {
    /// The configuration.
    pub config: ParallelConfig,
    /// Its simulated step.
    pub report: StepReport,
}

/// Enumerates every feasible configuration of `model` on `gpus` GPUs at
/// `global_batch` sequences and returns them sorted by step time
/// (fastest first). Infeasible candidates (out of memory, indivisible
/// layer/batch splits) are silently skipped.
pub fn tune(
    model: &ModelConfig,
    gpus: usize,
    global_batch: usize,
    cluster: &ClusterSpec,
    opts: &TunerOptions,
) -> Vec<TunedConfig> {
    let mut out = Vec::new();
    let mut pp = 1;
    while pp <= gpus {
        for tp_exp in 0.. {
            let tp = 1 << tp_exp;
            if tp > cluster.gpus_per_node || pp * tp > gpus {
                break;
            }
            if !gpus.is_multiple_of(pp * tp) {
                continue;
            }
            let dp = gpus / (pp * tp);
            if !global_batch.is_multiple_of(dp) {
                continue;
            }
            let per_pipeline = global_batch / dp;
            for &mbs in &opts.microbatches {
                if !per_pipeline.is_multiple_of(mbs) {
                    continue;
                }
                let ga = per_pipeline / mbs;
                for &schedule in &opts.schedules {
                    let repeats: Vec<usize> = match schedule {
                        ScheduleKind::Interleaved1F1B => (2..=opts.max_repeat).collect(),
                        _ => vec![1],
                    };
                    for repeat in repeats {
                        let par = ParallelConfig {
                            pp,
                            tp,
                            dp,
                            microbatch: mbs,
                            n_microbatches: ga,
                            circular_repeat: repeat,
                            schedule,
                        };
                        if !model.n_layers.is_multiple_of(par.n_stages()) {
                            continue;
                        }
                        if let Ok(report) = simulate_pipeline(model, par, cluster, &opts.sim) {
                            out.push(TunedConfig {
                                config: par,
                                report,
                            });
                        }
                    }
                }
            }
        }
        pp *= 2;
    }
    out.sort_by(|a, b| a.report.step_time.partial_cmp(&b.report.step_time).unwrap());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuner_finds_feasible_configs_for_gpt3() {
        // A narrowed sweep keeps the debug-mode test fast; the bench
        // harness runs the full default sweep.
        let opts = TunerOptions {
            microbatches: vec![4],
            max_repeat: 6,
            ..TunerOptions::default()
        };
        let results = tune(
            &ModelConfig::gpt3_175b(),
            64,
            128,
            &ClusterSpec::eos(),
            &opts,
        );
        assert!(!results.is_empty());
        // Sorted fastest-first.
        for w in results.windows(2) {
            assert!(w[0].report.step_time <= w[1].report.step_time);
        }
    }

    #[test]
    fn paper_flagship_is_near_optimal() {
        // The calibration check: the paper's hand-tuned configuration
        // (PP=8, TP=8, mbs=4, repeat=6) must be within a few percent of
        // the tuner's best *interleaved* configuration.
        let opts = TunerOptions {
            schedules: vec![ScheduleKind::OneF1B, ScheduleKind::Interleaved1F1B],
            microbatches: vec![2, 4],
            max_repeat: 6,
            ..TunerOptions::default()
        };
        let results = tune(
            &ModelConfig::gpt3_175b(),
            64,
            128,
            &ClusterSpec::eos(),
            &opts,
        );
        let best = &results[0];
        let flagship = results
            .iter()
            .find(|c| {
                c.config.pp == 8
                    && c.config.tp == 8
                    && c.config.microbatch == 4
                    && c.config.circular_repeat == 6
            })
            .expect("flagship config must be feasible");
        let gap = flagship.report.step_time / best.report.step_time;
        assert!(
            gap < 1.08,
            "flagship {:.2}s is {:.1}% off the tuner's best {:.2}s ({})",
            flagship.report.step_time,
            (gap - 1.0) * 100.0,
            best.report.step_time,
            best.config
        );
    }

    #[test]
    fn single_gpu_gpt3_is_infeasible_everywhere() {
        let results = tune(
            &ModelConfig::gpt3_175b(),
            1,
            8,
            &ClusterSpec::eos(),
            &TunerOptions::default(),
        );
        assert!(results.is_empty(), "175B parameters cannot fit one GPU");
    }

    #[test]
    fn tuner_respects_schedule_filter() {
        let opts = TunerOptions {
            schedules: vec![ScheduleKind::GPipe],
            microbatches: vec![1, 4],
            ..TunerOptions::default()
        };
        let results = tune(
            &ModelConfig::gpt3_175b(),
            64,
            128,
            &ClusterSpec::eos(),
            &opts,
        );
        assert!(results
            .iter()
            .all(|c| c.config.schedule == ScheduleKind::GPipe));
    }
}
