//! Property-style tests over the performance model: for every feasible
//! sampled configuration, the simulator's invariants hold. Cases are
//! drawn from a deterministic in-file PRNG (the crate depends on
//! `raxpp-sched` alone).

use std::ops::Range;

use raxpp_simcluster::{
    simulate_pipeline, ClusterSpec, ModelConfig, ParallelConfig, ScheduleKind, SimError, SimOptions,
};

/// SplitMix64 (Steele, Lea & Flood 2014).
struct StdRng(u64);

impl StdRng {
    fn seed_from_u64(seed: u64) -> StdRng {
        StdRng(seed)
    }

    fn gen_range(&mut self, range: Range<usize>) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        range.start + ((z ^ (z >> 31)) % range.len() as u64) as usize
    }
}

const CASES: u64 = 48;

fn pick<T: Copy>(rng: &mut StdRng, options: &[T]) -> T {
    options[rng.gen_range(0usize..options.len())]
}

fn random_config(rng: &mut StdRng) -> ParallelConfig {
    let pp = pick(rng, &[1usize, 2, 4, 8, 16]);
    let tp = pick(rng, &[1usize, 2, 4, 8]);
    let dp = pick(rng, &[1usize, 2, 4]);
    let microbatch = pick(rng, &[1usize, 2, 4]);
    let ga_mult = rng.gen_range(1usize..9);
    let repeat = pick(rng, &[1usize, 2, 3, 6]);
    let schedule = pick(
        rng,
        &[
            ScheduleKind::GPipe,
            ScheduleKind::OneF1B,
            ScheduleKind::Interleaved1F1B,
            ScheduleKind::ZeroBubbleH1,
        ],
    );
    ParallelConfig {
        pp,
        tp,
        dp,
        microbatch,
        n_microbatches: pp * ga_mult,
        circular_repeat: match schedule {
            ScheduleKind::Interleaved1F1B => repeat,
            _ => 1,
        },
        schedule,
    }
}

/// Feasible configurations produce internally consistent reports;
/// infeasible ones produce typed errors, never panics.
#[test]
fn reports_are_internally_consistent() {
    let gpt3 = ModelConfig::gpt3_175b();
    let eos = ClusterSpec::eos();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + case);
        let par = random_config(&mut rng);
        match simulate_pipeline(&gpt3, par, &eos, &SimOptions::default()) {
            Ok(r) => {
                assert!(r.step_time > 0.0, "{par:?}");
                assert!(r.tflops_per_gpu > 0.0, "{par:?}");
                assert!(r.mfu > 0.0 && r.mfu < 1.0, "{par:?}: mfu {}", r.mfu);
                assert!(r.peak_mem_bytes <= eos.gpu.memory_bytes, "{par:?}");
                let b = r.breakdown;
                for part in [
                    b.compute,
                    b.remat,
                    b.tp_comm,
                    b.p2p_exposed,
                    b.sync_send_block,
                    b.dispatch,
                    b.bubble,
                    b.dp_and_opt,
                ] {
                    assert!(part >= 0.0, "{par:?}: negative breakdown component");
                }
                // TFLOPS is definitionally flops/(time·gpus).
                let implied = gpt3.train_flops(par.global_batch() as u64)
                    / (r.step_time * par.gpus() as f64)
                    / 1e12;
                assert!((implied - r.tflops_per_gpu).abs() < 1.0, "{par:?}");
                // The per-GPU breakdown cannot exceed the step time by
                // more than numeric noise.
                let accounted = b.compute
                    + b.remat
                    + b.tp_comm
                    + b.p2p_exposed
                    + b.sync_send_block
                    + b.dispatch
                    + b.bubble
                    + b.dp_and_opt;
                assert!(
                    accounted <= r.step_time * 1.001 + 1e-6,
                    "{par:?}: accounted {accounted} vs step {}",
                    r.step_time
                );
            }
            Err(SimError::Oom { required, capacity }) => {
                assert!(required > capacity, "{par:?}");
            }
            Err(SimError::Invalid(_)) | Err(SimError::Schedule(_)) => {}
        }
    }
}

/// Synchronous P2P is never faster than asynchronous P2P for the
/// same configuration.
#[test]
fn async_p2p_never_loses() {
    let gpt3 = ModelConfig::gpt3_175b();
    let eos = ClusterSpec::eos();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let par = random_config(&mut rng);
        let a = simulate_pipeline(&gpt3, par, &eos, &SimOptions::default());
        let s = simulate_pipeline(
            &gpt3,
            par,
            &eos,
            &SimOptions {
                async_p2p: false,
                ..SimOptions::default()
            },
        );
        if let (Ok(a), Ok(s)) = (a, s) {
            assert!(a.step_time <= s.step_time + 1e-9, "{par:?}");
        }
    }
}

/// Fused dispatch is never slower than per-task RPCs.
#[test]
fn fusion_never_loses() {
    let gpt3 = ModelConfig::gpt3_175b();
    let eos = ClusterSpec::eos();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(300 + case);
        let par = random_config(&mut rng);
        let fused = simulate_pipeline(&gpt3, par, &eos, &SimOptions::default());
        let unfused = simulate_pipeline(
            &gpt3,
            par,
            &eos,
            &SimOptions {
                per_task_rpc: true,
                ..SimOptions::default()
            },
        );
        if let (Ok(f), Ok(u)) = (fused, unfused) {
            assert!(f.step_time <= u.step_time + 1e-9, "{par:?}");
        }
    }
}
