//! Determinism guard: pipelined training on the MPMD runtime must be
//! **bit-identical** — not just allclose — to single-device whole-graph
//! training, at any kernel thread count. This pins the contract that
//! the blocked/parallel kernels and the buffer-reuse interpreter never
//! change a single reduction order.

#![allow(clippy::needless_range_loop)]

use std::time::Duration;

use raxpp_core::{compile_train_step, CompileOptions, Optimizer, RetryPolicy, TpConfig, Trainer};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{eval, set_num_threads, value_and_grad, Tensor};
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::Fault;
use raxpp_sched::{gpipe, one_f1b, Schedule};

/// Single-device trainer: whole-graph autodiff, microbatch gradients
/// accumulated in the schedule's backward-task order (GPipe runs
/// backwards LIFO, 1F1B ascending — f32 addition order matters for
/// bit-identity), SGD applied per parameter.
struct Reference {
    grad_graph: raxpp_ir::Jaxpr,
    params: Vec<Tensor>,
    optimizer: Optimizer,
    n_params: usize,
    bwd_order: Vec<usize>,
}

impl Reference {
    fn new(model: &BuiltModel, optimizer: Optimizer, schedule: &Schedule) -> Reference {
        let wrt: Vec<usize> = (0..model.n_params).collect();
        // Microbatch order of actor 0's backward tasks; every built-in
        // schedule uses the same backward order on every actor.
        let bwd_order: Vec<usize> = schedule.actors()[0]
            .iter()
            .filter(|t| t.dir == raxpp_sched::Dir::Bwd)
            .map(|t| t.mubatch)
            .collect();
        Reference {
            grad_graph: value_and_grad(&model.jaxpr, &wrt).unwrap(),
            params: model.init.clone(),
            optimizer,
            n_params: model.n_params,
            bwd_order,
        }
    }

    /// One step over all microbatches; returns per-microbatch losses.
    fn step(&mut self, data: &[Vec<Tensor>]) -> Vec<f32> {
        let n_mb = data[0].len();
        let mut per_mb: Vec<Vec<Tensor>> = Vec::new();
        let mut losses = Vec::new();
        for mb in 0..n_mb {
            let mut args = self.params.clone();
            for d in data {
                args.push(d[mb].clone());
            }
            let outs = eval(&self.grad_graph, &args).unwrap();
            losses.push(outs[0].item().unwrap());
            per_mb.push(outs[1..1 + self.n_params].to_vec());
        }
        let mut grads: Vec<Option<Tensor>> = vec![None; self.n_params];
        for &mb in &self.bwd_order {
            for p in 0..self.n_params {
                let g = per_mb[mb][p].clone();
                grads[p] = Some(match grads[p].take() {
                    None => g,
                    Some(acc) => acc.zip(&g, |a, b| a + b).unwrap(),
                });
            }
        }
        for p in 0..self.n_params {
            let update = self.optimizer.update_jaxpr(self.params[p].shape()).unwrap();
            let args = vec![self.params[p].clone(), grads[p].take().unwrap()];
            let outs = eval(&update, &args).unwrap();
            self.params[p] = outs[0].clone();
        }
        losses
    }
}

fn run_guard(schedule: &Schedule, seed: u64, tp: usize) {
    let model = mlp_chain(6, 3, 4, schedule.n_stages(), seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let data: Vec<Vec<Tensor>> = vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
        .collect()];
    let optimizer = Optimizer::Sgd { lr: 0.05 };

    for threads in [1usize, 4] {
        set_num_threads(threads);
        let trainer = compile_train_step(
            &model.jaxpr,
            model.n_params,
            schedule,
            optimizer,
            CompileOptions {
                tp: Some(TpConfig::model_parallel(tp)),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        trainer.init(&model.init).unwrap();
        // Tracing only observes execution (timestamps and byte counts),
        // so it must not perturb a single bit; run half the matrix with
        // span recording on to pin that.
        trainer.runtime().set_tracing(threads == 4);
        let mut reference = Reference::new(&model, optimizer, schedule);

        for step in 0..3 {
            let got = trainer.step(&data).unwrap();
            let want = reference.step(&data);
            assert_eq!(
                got.losses,
                want,
                "step {step}: pipelined losses not bit-identical \
                 ({} @ {threads} threads)",
                schedule.name()
            );
            let got_params = trainer.params().unwrap();
            for (p, (gp, rp)) in got_params.iter().zip(&reference.params).enumerate() {
                assert_eq!(gp.shape(), rp.shape());
                assert_eq!(
                    gp.data(),
                    rp.data(),
                    "step {step}: param {p} not bit-identical \
                     ({} @ {threads} threads)",
                    schedule.name()
                );
            }
        }
    }
    set_num_threads(1);
}

#[test]
fn gpipe_training_is_bit_identical_to_single_device() {
    run_guard(&gpipe(2, 4).unwrap(), 51, 1);
}

#[test]
fn one_f1b_training_is_bit_identical_to_single_device() {
    run_guard(&one_f1b(2, 4).unwrap(), 52, 1);
}

#[test]
fn four_stage_one_f1b_is_bit_identical_to_single_device() {
    run_guard(&one_f1b(4, 8).unwrap(), 53, 1);
}

/// PP×TP composition is inside the determinism contract: sharding every
/// stage over a 2-way model axis (real collectives between shard
/// actors) must still be bit-identical to single-device training.
#[test]
fn tensor_parallel_one_f1b_is_bit_identical_to_single_device() {
    run_guard(&one_f1b(2, 4).unwrap(), 55, 2);
}

/// Recovery is part of the determinism contract too: a run that loses an
/// actor mid-training, respawns it via `Runtime::recover`, restores the
/// driver-held snapshot, and retries the step must be **bit-identical**
/// to a run that was never interrupted — same losses, same parameters.
#[test]
fn recovered_training_is_bit_identical_to_uninterrupted() {
    let schedule = gpipe(4, 4).unwrap();
    let seed = 54;
    let model = mlp_chain(6, 3, 4, schedule.n_stages(), seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let data: Vec<Vec<Tensor>> = vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
        .collect()];
    let optimizer = Optimizer::Sgd { lr: 0.05 };
    let build = || -> Trainer {
        let t = compile_train_step(
            &model.jaxpr,
            model.n_params,
            &schedule,
            optimizer,
            CompileOptions::default(),
        )
        .unwrap();
        t.init(&model.init).unwrap();
        t
    };
    let smooth = build();
    let bumpy = build();
    // The interrupted run records spans too: traced recovery must stay
    // bit-identical to an untraced uninterrupted run.
    bumpy.runtime().set_tracing(true);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };

    for step in 0..4 {
        if step == 2 {
            // Kill stage 1 mid-stream; `step_with_recovery` must absorb
            // the death, respawn, restore, and retry transparently.
            bumpy
                .runtime()
                .inject_fault(1, Fault::DieAtInstr(2))
                .unwrap();
        }
        let a = smooth.step_with_recovery(&data, policy).unwrap();
        let b = bumpy.step_with_recovery(&data, policy).unwrap();
        assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
    }
    let pa = smooth.params().unwrap();
    let pb = bumpy.params().unwrap();
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
    }
}
