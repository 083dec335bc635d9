//! Elastic degraded-mode rebalancing: a run that **permanently** loses
//! an actor mid-step must fold that actor's stages onto the survivors
//! (via `Trainer::rebalance` / `Runtime::rebalance`) and keep training
//! **bit-identically** to an uninterrupted full-fleet run — the `Run`
//! instructions survive re-placement byte-for-byte, so only where they
//! execute changes, never what they compute.

use std::time::Duration;

use raxpp_core::{compile_train_step, CompileOptions, Optimizer, RetryPolicy, Trainer};
use raxpp_integration::{trace, with_watchdog, RandomModel};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{set_num_threads, Tensor};
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::Fault;
use raxpp_sched::{gpipe, one_f1b, Schedule};

fn elastic_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: Some(1),
    }
}

fn smooth_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    }
}

fn build(model: &BuiltModel, schedule: &Schedule) -> Trainer {
    let t = compile_train_step(
        &model.jaxpr,
        model.n_params,
        schedule,
        Optimizer::Sgd { lr: 0.05 },
        CompileOptions::default(),
    )
    .unwrap();
    t.init(&model.init).unwrap();
    t
}

/// One `[rows, 6]` microbatch per schedule slot.
fn make_data(schedule: &Schedule, rows: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed + 1);
    vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([rows, 6], 1.0, &mut rng))
        .collect()]
}

/// Twin runs — one smooth on the full fleet, one that permanently loses
/// actor 1 at step 2 and rebalances onto the survivors — must produce
/// bit-identical losses and parameters at every kernel thread count.
fn run_elastic(schedule: &Schedule, seed: u64) {
    let model = mlp_chain(6, 3, 4, schedule.n_stages(), seed).unwrap();
    run_elastic_on(&model, schedule, make_data(schedule, 3, seed));
}

fn run_elastic_on(model: &BuiltModel, schedule: &Schedule, data: Vec<Vec<Tensor>>) {
    let n = schedule.n_actors();

    for threads in [1usize, 4] {
        set_num_threads(threads);
        let smooth = build(model, schedule);
        let elastic = build(model, schedule);

        for step in 0..4 {
            if step == 2 {
                // With `rebalance_after: Some(1)` a single death is
                // already a permanent loss: no respawn, fold instead.
                elastic
                    .runtime()
                    .inject_fault(1, Fault::DieAtInstr(2))
                    .unwrap();
            }
            let a = smooth.step_with_recovery(&data, smooth_policy()).unwrap();
            let b = elastic.step_with_recovery(&data, elastic_policy()).unwrap();
            assert_eq!(
                a.losses,
                b.losses,
                "step {step}: losses diverged after rebalance \
                 ({} @ {threads} threads)",
                schedule.name()
            );
        }

        // The fleet genuinely shrank — and stayed shrunk.
        assert_eq!(elastic.runtime().alive_actors(), n - 1);
        assert_eq!(elastic.runtime().retired_actors(), vec![1]);
        assert_eq!(elastic.metrics().counter("rebalances_total"), 1);
        assert_eq!(
            elastic.metrics().gauge("actors_alive"),
            Some((n - 1) as f64)
        );
        assert_eq!(elastic.metrics().gauge("stages_per_actor_max"), Some(2.0));
        assert_eq!(smooth.runtime().alive_actors(), n);

        let pa = smooth.params().unwrap();
        let pb = elastic.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(
                a.data(),
                b.data(),
                "param {p} not bit-identical after rebalance \
                 ({} @ {threads} threads)",
                schedule.name()
            );
        }
    }
    set_num_threads(1);
}

#[test]
fn gpipe_survives_permanent_actor_loss_bitwise() {
    with_watchdog("gpipe_survives_permanent_actor_loss_bitwise", || {
        run_elastic(&gpipe(4, 4).unwrap(), 61);
    });
}

#[test]
fn one_f1b_survives_permanent_actor_loss_bitwise() {
    with_watchdog("one_f1b_survives_permanent_actor_loss_bitwise", || {
        run_elastic(&one_f1b(4, 8).unwrap(), 62);
    });
}

/// A skip connection crossing two stage boundaries (stage 0 feeds the
/// loss in stage 2): losing the middle actor merges a channel the
/// two-pass re-placement could not order (`RuntimeError::Rebalance`
/// before PR 24); the fold must now succeed and stay bitwise.
#[test]
fn skip_connection_pipeline_survives_losing_the_middle_actor_bitwise() {
    with_watchdog(
        "skip_connection_pipeline_survives_losing_the_middle_actor",
        || {
            let shape = RandomModel {
                layers: 5,
                n_stages: 3,
                share_first_last: false,
                skip_from_first: true,
            };
            let (jaxpr, n_params) = trace(&shape, 6);
            let mut rng = StdRng::seed_from_u64(65);
            let model = BuiltModel {
                jaxpr,
                n_params,
                init: (0..n_params)
                    .map(|_| Tensor::randn([6, 6], 0.4, &mut rng))
                    .collect(),
            };
            for (schedule, seed) in [(gpipe(3, 4), 65), (one_f1b(3, 4), 66)] {
                let schedule = schedule.unwrap();
                // `trace` fixes two rows per microbatch.
                run_elastic_on(&model, &schedule, make_data(&schedule, 2, seed));
            }
        },
    );
}

/// The traced recovery path must record the `"rebalanced"` step event
/// (schema v2) and stay bit-identical too.
#[test]
fn rebalance_is_traced_and_bitwise() {
    with_watchdog("rebalance_is_traced_and_bitwise", || {
        let schedule = gpipe(4, 4).unwrap();
        let model = mlp_chain(6, 3, 4, schedule.n_stages(), 63).unwrap();
        let data = make_data(&schedule, 3, 63);
        let smooth = build(&model, &schedule);
        let elastic = build(&model, &schedule);

        elastic
            .runtime()
            .inject_fault(2, Fault::DieAtInstr(1))
            .unwrap();
        let a = smooth.step_with_recovery(&data, smooth_policy()).unwrap();
        let (b, trace) = elastic
            .step_traced_with_recovery(&data, elastic_policy())
            .unwrap();
        assert_eq!(a.losses, b.losses);
        assert!(trace.has_event("retry"));
        assert!(
            trace.has_event("rebalanced"),
            "traced elastic recovery must record the rebalanced event; got {:?}",
            trace.events
        );
        assert_eq!(elastic.runtime().retired_actors(), vec![2]);
        // Another step on the shrunken fleet still matches.
        let a2 = smooth.step_with_recovery(&data, smooth_policy()).unwrap();
        let b2 = elastic.step_with_recovery(&data, elastic_policy()).unwrap();
        assert_eq!(a2.losses, b2.losses);
    });
}

/// Losing two actors across separate incidents folds both away; the
/// remaining half-size fleet still trains bit-identically.
#[test]
fn successive_losses_fold_down_to_half_the_fleet() {
    with_watchdog("successive_losses_fold_down_to_half_the_fleet", || {
        let schedule = gpipe(4, 4).unwrap();
        let model = mlp_chain(6, 3, 4, schedule.n_stages(), 64).unwrap();
        let data = make_data(&schedule, 3, 64);
        let smooth = build(&model, &schedule);
        let elastic = build(&model, &schedule);

        for step in 0..4 {
            if step == 1 {
                elastic
                    .runtime()
                    .inject_fault(3, Fault::DieAtInstr(0))
                    .unwrap();
            }
            if step == 3 {
                elastic
                    .runtime()
                    .inject_fault(0, Fault::DieAtInstr(0))
                    .unwrap();
            }
            let a = smooth.step_with_recovery(&data, smooth_policy()).unwrap();
            let b = elastic.step_with_recovery(&data, elastic_policy()).unwrap();
            assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
        }
        assert_eq!(elastic.runtime().alive_actors(), 2);
        assert_eq!(elastic.runtime().retired_actors(), vec![0, 3]);
        assert_eq!(elastic.metrics().counter("rebalances_total"), 2);
        let pa = smooth.params().unwrap();
        let pb = elastic.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
        }
    });
}
