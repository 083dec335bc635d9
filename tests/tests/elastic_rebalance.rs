//! Elastic degraded-mode rebalancing: a run that **permanently** loses
//! an actor mid-step must fold that actor's stages onto the survivors
//! (via `Trainer::rebalance` / `Runtime::rebalance`) and keep training
//! **bit-identically** to an uninterrupted full-fleet run — the fleet
//! compiles the folded schedule, which keeps every stage's task order,
//! so only where the tasks execute changes, never what they compute.

use std::time::Duration;

use raxpp_core::{
    bubble_report, compile_train_step, CompileOptions, DpConfig, Optimizer, RetryPolicy, TpConfig,
    Trainer,
};
use raxpp_integration::{adjacent_fold, schedules_for, trace, with_watchdog, RandomModel};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
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
/// bit-identical losses and parameters.
fn run_elastic(schedule: &Schedule, seed: u64) {
    let model = mlp_chain(6, 3, 4, schedule.n_stages(), seed).unwrap();
    run_elastic_on(&model, schedule, make_data(schedule, 3, seed));
}

fn run_elastic_on(model: &BuiltModel, schedule: &Schedule, data: Vec<Vec<Tensor>>) {
    let n = schedule.n_actors();

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
            "step {step}: losses diverged after rebalance ({})",
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
            "param {p} not bit-identical after rebalance ({})",
            schedule.name()
        );
    }
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

/// After a fold the trainer runs, reports and accounts for the folded
/// schedule: `Trainer::schedule` is `S.fold(assign)`, and the bubble
/// report and gauge predict from it, over the actors that have tasks.
#[test]
fn bubble_accounting_follows_the_fold() {
    with_watchdog("bubble_accounting_follows_the_fold", || {
        let schedule = gpipe(4, 4).unwrap();
        let model = mlp_chain(6, 3, 4, schedule.n_stages(), 67).unwrap();
        let data = make_data(&schedule, 3, 67);
        let trainer = build(&model, &schedule);
        // Host 1 folds onto the nearer survivor of lower index, host 0.
        assert_eq!(trainer.rebalance(&[1]).unwrap().assign, vec![0, 0, 2, 3]);
        let folded = schedule.fold(&[0, 0, 2, 3]).unwrap();
        assert_eq!(trainer.schedule(), folded);

        let (_, trace) = trainer.step_traced(&data).unwrap();
        let report = trainer.bubble_report(&trace);
        let expected = bubble_report(&trace, &folded);
        assert_eq!(report.predicted_bubble, expected.predicted_bubble);
        let ranks: Vec<usize> = report.stages.iter().map(|s| s.actor).collect();
        assert_eq!(ranks, vec![0, 2, 3]);
        assert_eq!(
            trainer.metrics().gauge("bubble_fraction_measured"),
            Some(report.measured_bubble)
        );
    });
}

/// Three Adam steps of `schedule` on a fresh trainer: every step's
/// per-microbatch losses, then the final parameters.
fn train(
    model: &BuiltModel,
    schedule: &Schedule,
    opts: &CompileOptions,
    data: &[Vec<Tensor>],
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let t = compile_train_step(
        &model.jaxpr,
        model.n_params,
        schedule,
        Optimizer::adam(1e-2),
        opts.clone(),
    )
    .unwrap();
    t.init(&model.init).unwrap();
    let losses = (0..3).map(|_| t.step(data).unwrap().losses).collect();
    let params = t
        .params()
        .unwrap()
        .iter()
        .map(|p| p.data().to_vec())
        .collect();
    (losses, params)
}

/// Every adjacent fold of a schedule, compiled as a rebalance compiles
/// it, trains bit for bit like the schedule itself (tier 1 of
/// `docs/determinism.md`): tied and skip models × every builder ×
/// {plain, tp2·dp2}, and a 4-stage MLP under GPipe and 1F1B at plain,
/// tp2·dp2 and tp2·ZeRO-1.
#[test]
fn compiled_folds_train_bitwise() {
    with_watchdog("compiled_folds_train_bitwise", || {
        let tp2 = |dp| CompileOptions {
            tp: Some(TpConfig::model_parallel(2)),
            dp: Some(dp),
            ..CompileOptions::default()
        };
        let mut cases = Vec::new();
        let models = [(6, 4, true, true), (5, 3, false, true), (4, 2, true, false)];
        let models = models
            .into_iter()
            .chain([(4, 4, false, false), (6, 3, true, true)]);
        for (layers, n_stages, share_first_last, skip_from_first) in models {
            let shape = RandomModel {
                layers,
                n_stages,
                share_first_last,
                skip_from_first,
            };
            let (jaxpr, n_params) = trace(&shape, 4);
            let mut rng = StdRng::seed_from_u64(68 + layers as u64);
            let init = (0..n_params)
                .map(|_| Tensor::randn([4, 4], 0.4, &mut rng))
                .collect();
            let model = BuiltModel {
                jaxpr,
                n_params,
                init,
            };
            for schedule in schedules_for(n_stages, 4) {
                for opts in [CompileOptions::default(), tp2(DpConfig::replicas(2))] {
                    cases.push((format!("{shape:?}"), model.clone(), schedule.clone(), opts));
                }
            }
        }
        let random_cases = cases.len();
        let mlp = mlp_chain(8, 2, 4, 4, 69).unwrap();
        for schedule in [gpipe(4, 4).unwrap(), one_f1b(4, 4).unwrap()] {
            for opts in [
                CompileOptions::default(),
                tp2(DpConfig::replicas(2)),
                tp2(DpConfig::zero1(2)),
            ] {
                cases.push(("mlp_chain".into(), mlp.clone(), schedule.clone(), opts));
            }
        }

        let mut folds = [0, 0];
        for (i, (name, model, schedule, opts)) in cases.iter().enumerate() {
            let width = model.init[0].shape().dims()[1];
            let replicas = opts.dp.map_or(1, |d| d.replicas);
            let mut rng = StdRng::seed_from_u64(70 + i as u64);
            let data = vec![(0..replicas * schedule.n_mubatches())
                .map(|_| Tensor::randn([2, width], 1.0, &mut rng))
                .collect()];
            let whole = train(model, schedule, opts, &data);
            let n = schedule.n_actors();
            for k in 0..n - 1 {
                let folded = schedule.fold(&adjacent_fold(n, k)).unwrap();
                let cell = format!(
                    "{name} | {} | {opts:?} | fold {} -> {k}",
                    schedule.name(),
                    k + 1
                );
                assert!(train(model, &folded, opts, &data) == whole, "{cell}");
                folds[usize::from(i >= random_cases)] += 1;
            }
        }
        assert_eq!(folds, [72, 18]);
    });
}
