//! Property-style integration tests: randomly structured pipelines
//! (layer counts, stage splits, schedules, shared weights, skip
//! connections) must always compile into deadlock-free programs whose
//! gradients match whole-graph autodiff. Cases come from the in-tree
//! deterministic PRNG and exhaustive grids instead of proptest.

#![allow(clippy::needless_range_loop)]

use raxpp_core::{
    compile_train_step, compile_worker_program, CompileOptions, DpConfig, Optimizer, TpConfig,
};
use raxpp_integration::{adjacent_fold, random_schedule, schedules_for, trace, RandomModel};
use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{eval, value_and_grad, Tensor};
use raxpp_sched::{one_f1b, simulate, Schedule, ScheduleError, Task, UniformCost};
use raxpp_taskgraph::{
    check_send_recv_order, insert_frees, pipeline_model, replace_program, replay, unroll_loop,
    verify_program, MpmdProgram, ReplaceError, UnrollOptions,
};

fn random_model(rng: &mut StdRng) -> RandomModel {
    let layers = rng.gen_range(2usize..7);
    RandomModel {
        layers,
        n_stages: rng.gen_range(2usize..layers + 1),
        share_first_last: rng.next_u64().is_multiple_of(2),
        skip_from_first: rng.next_u64().is_multiple_of(2),
    }
}

/// Every (layers, n_stages, share, skip) combination in the sampled space.
fn all_models() -> Vec<RandomModel> {
    let mut out = Vec::new();
    for layers in 2usize..=6 {
        for n_stages in 2..=layers {
            for share_first_last in [false, true] {
                for skip_from_first in [false, true] {
                    out.push(RandomModel {
                        layers,
                        n_stages,
                        share_first_last,
                        skip_from_first,
                    });
                }
            }
        }
    }
    out
}

/// Any random model under any built-in schedule compiles into a
/// program with matched send/recv order, and its fetched gradients
/// equal whole-graph autodiff.
#[test]
fn random_pipelines_match_reference() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let model = random_model(&mut rng);
        let width = 3;
        let n_mb = 4;
        let (jaxpr, n_params) = trace(&model, width);

        let params: Vec<Tensor> = (0..n_params)
            .map(|_| Tensor::randn([width, width], 0.4, &mut rng))
            .collect();
        let data: Vec<Vec<Tensor>> = vec![(0..n_mb)
            .map(|_| Tensor::randn([2, width], 1.0, &mut rng))
            .collect()];

        // Reference gradients.
        let wrt: Vec<usize> = (0..n_params).collect();
        let g = value_and_grad(&jaxpr, &wrt).unwrap();
        let mut expect: Vec<Option<Tensor>> = vec![None; n_params];
        for mb in 0..n_mb {
            let mut args = params.clone();
            args.push(data[0][mb].clone());
            let outs = eval(&g, &args).unwrap();
            for p in 0..n_params {
                let gp = outs[1 + p].clone();
                expect[p] = Some(match expect[p].take() {
                    None => gp,
                    Some(acc) => acc.zip(&gp, |a, b| a + b).unwrap(),
                });
            }
        }

        for schedule in schedules_for(model.n_stages, n_mb) {
            let trainer = compile_train_step(
                &jaxpr,
                n_params,
                &schedule,
                Optimizer::Sgd { lr: 0.0 }, // lr 0: params unchanged, grads still fetched
                CompileOptions {
                    fetch_grads: true,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            trainer.init(&params).unwrap();
            let out = trainer.step(&data).unwrap();
            let grads = out.grads.unwrap();
            for (p, (got, want)) in grads.iter().zip(&expect).enumerate() {
                let want = want.as_ref().unwrap();
                assert!(
                    got.allclose(want, 1e-3),
                    "model {model:?} schedule {} grad {p} mismatch",
                    schedule.name()
                );
            }
        }
    }
}

/// The compiled loop always satisfies the §4.2 matching-order
/// property and fuses into exactly one stream per actor — and stays
/// well formed when crossed with both expansion axes.
#[test]
fn compiled_programs_are_well_formed() {
    for model in all_models() {
        // Width 4: the TP cells below need a weight dim that halves.
        let (jaxpr, n_params) = trace(&model, 4);
        let pmodel = pipeline_model(&jaxpr, n_params).unwrap();
        for schedule in schedules_for(model.n_stages, 4) {
            for commuting in [true, false] {
                let mut compiled = unroll_loop(
                    &pmodel,
                    &schedule,
                    UnrollOptions {
                        loop_commuting: commuting,
                    },
                )
                .unwrap();
                assert!(
                    check_send_recv_order(&compiled.program).is_ok(),
                    "{model:?} {}",
                    schedule.name()
                );
                insert_frees(&mut compiled.program);
                assert!(
                    check_send_recv_order(&compiled.program).is_ok(),
                    "{model:?} {} after frees",
                    schedule.name()
                );
                assert!(compiled.program.num_rpcs() <= schedule.n_actors());
                // Placement adds no idle time to the schedule's own. The
                // one exception, by name: `loop_commuting: false` with a
                // weight shared across actors. Not per-pair FIFO (a forced
                // early receive was sent earlier by the same sender, so it
                // never waits longer than the one that forced it): the
                // naive scheme pushes the owner's per-microbatch
                // `AccumGrad` add while the *producing* actor is walked,
                // so it — and the receive it reads — lands wherever the
                // owner's stream happens to end, ahead of owner tasks that
                // do not need it. That cost is what the ablation measures.
                let cost = UniformCost::default();
                let got = replay(&compiled.program, cost).unwrap().makespan;
                let want = simulate(&schedule, cost).unwrap().makespan;
                if !commuting && model.share_first_last {
                    assert!(got >= want, "{model:?} {}", schedule.name());
                } else {
                    assert_eq!(got, want, "{model:?} {} stream replay", schedule.name());
                }
                // The same loop through the whole compile tail (optimizer
                // updates appended, then shard → replicate → insert_frees
                // → bucket_collectives) on every tp × dp cell: matched
                // order, and a verifier pass that includes the
                // index-alignment of rank and replica streams.
                for (tp, dp) in [(2, 1), (1, 2), (2, 2)] {
                    let cell = format!("{model:?} {} tp={tp} dp={dp}", schedule.name());
                    let program = compile_worker_program(
                        &jaxpr,
                        n_params,
                        &schedule,
                        Optimizer::Sgd { lr: 0.1 },
                        CompileOptions {
                            loop_commuting: commuting,
                            tp: Some(TpConfig::model_parallel(tp)),
                            dp: Some(DpConfig::replicas(dp)),
                            ..CompileOptions::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_eq!(program.n_actors(), schedule.n_actors() * tp * dp, "{cell}");
                    assert!(check_send_recv_order(&program).is_ok(), "{cell}");
                    verify_program(&program).unwrap_or_else(|e| panic!("{cell}: {e}"));
                }
            }
        }
    }
}

/// Hand-written (user-defined) schedules: any topological interleave
/// of a valid per-actor order validates and executes. We generate
/// them by rotating the steady-state phase of 1F1B.
#[test]
fn rotated_user_schedules_still_work() {
    for rotate in 1usize..4 {
        let n_mb = 4;
        let base = one_f1b(2, n_mb).unwrap();
        // Rebuild actor 0's list with the backward tail rotated to the
        // extreme GPipe-like order (all fwd then all bwd) — still valid.
        let mut actors: Vec<Vec<Task>> = base.actors().to_vec();
        let fwd: Vec<Task> = actors[0]
            .iter()
            .copied()
            .filter(|t| t.dir == raxpp_sched::Dir::Fwd)
            .collect();
        let bwd: Vec<Task> = actors[0]
            .iter()
            .copied()
            .filter(|t| t.dir == raxpp_sched::Dir::Bwd)
            .collect();
        let mut merged = fwd;
        let at = rotate.min(bwd.len());
        merged.extend(bwd[..at].iter().rev());
        merged.extend(&bwd[at..]);
        // `merged` may reorder backward microbatches; only keep it if the
        // schedule validator accepts it (the public API contract).
        actors[0] = merged;
        match Schedule::new("user", 2, n_mb, actors) {
            Ok(schedule) => {
                let (jaxpr, n_params) = trace(
                    &RandomModel {
                        layers: 2,
                        n_stages: 2,
                        share_first_last: false,
                        skip_from_first: false,
                    },
                    3,
                );
                let pmodel = pipeline_model(&jaxpr, n_params).unwrap();
                let compiled = unroll_loop(&pmodel, &schedule, UnrollOptions::default()).unwrap();
                assert!(check_send_recv_order(&compiled.program).is_ok());
            }
            Err(_) => {
                // Rejected orders are fine; the validator's job.
            }
        }
    }
}

/// Schedules nobody wrote: a random linear extension of the dependency
/// order per actor validates (the generator constructs it through
/// `Schedule::new`), and the same lists with one dependent pair swapped
/// on one actor are a typed `Deadlock` naming the task now stuck in
/// front of its own dependency — never a panic.
#[test]
fn random_legal_schedules_validate_and_a_swapped_pair_deadlocks() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(7100 + case);
        let schedule = random_schedule(&mut rng);
        let n_stages = schedule.n_stages();
        // Every (actor, i, j) with task i a direct dependency of task j.
        let mut pairs = Vec::new();
        for (a, tasks) in schedule.actors().iter().enumerate() {
            for (j, t) in tasks.iter().enumerate() {
                let deps = t.deps(n_stages);
                pairs.extend(
                    (0..j)
                        .filter(|&i| deps.contains(&tasks[i]))
                        .map(|i| (a, i, j)),
                );
            }
        }
        let (a, i, j) = pairs[rng.gen_range(0..pairs.len())];
        let mut actors = schedule.actors().to_vec();
        actors[a].swap(i, j);
        let stuck = actors[a][i];
        match Schedule::new("swapped", n_stages, schedule.n_mubatches(), actors) {
            Err(ScheduleError::Deadlock { blocked }) => {
                assert!(blocked.contains(&stuck), "case {case}: {blocked:?}");
            }
            other => panic!("case {case}: expected a deadlock, got {other:?}"),
        }
    }
}

/// Folds actor `k + 1` of `program` onto actor `k`: the result verifies
/// or the refusal is a typed `ReplaceError`.
fn fold_verified(program: &MpmdProgram, k: usize) -> Result<MpmdProgram, ReplaceError> {
    let folded = replace_program(program, &adjacent_fold(program.n_actors(), k))?;
    verify_program(&folded).unwrap_or_else(|e| panic!("fold {} -> {k}: {e}", k + 1));
    Ok(folded)
}

/// Each sampled schedule × a random model (tied weights, skip from the
/// first stage) compiles into a verified program that replays to the
/// schedule's own makespan, and every adjacent fold of it either
/// re-places into a verified program or is refused with a typed error.
#[test]
fn random_schedules_compile_replay_and_fold() {
    let (mut folds, mut refused) = (0, 0);
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(7400 + case);
        let schedule = random_schedule(&mut rng);
        let n_stages = schedule.n_stages();
        let model = RandomModel {
            layers: n_stages + rng.gen_range(0usize..3),
            n_stages,
            share_first_last: rng.next_u64().is_multiple_of(2),
            skip_from_first: rng.next_u64().is_multiple_of(2),
        };
        let cell = format!("case {case}: {model:?}\n{schedule}");
        let (jaxpr, n_params) = trace(&model, 3);
        let pmodel = pipeline_model(&jaxpr, n_params).unwrap();
        let mut program = unroll_loop(&pmodel, &schedule, UnrollOptions::default())
            .unwrap_or_else(|e| panic!("{cell}: {e}"))
            .program;
        insert_frees(&mut program);
        verify_program(&program).unwrap_or_else(|e| panic!("{cell}: {e}"));
        let cost = UniformCost::default();
        assert_eq!(
            replay(&program, cost).unwrap().makespan,
            simulate(&schedule, cost).unwrap().makespan,
            "{cell}"
        );
        for k in 0..schedule.n_actors() - 1 {
            folds += 1;
            match fold_verified(&program, k) {
                Ok(_) => {}
                Err(ReplaceError::Stuck(_)) => refused += 1,
                Err(e) => panic!("{cell} fold {} -> {k}: {e}", k + 1),
            }
        }
    }
    // The refusals are all `Stuck`, and all of one kind: random stage
    // placement lets a receiver's in-order stream take the merged
    // host's values in an order its (now co-located, in-order) senders
    // cannot produce, and re-placement moves no receive. Pinned, so a
    // change in either direction is seen.
    assert_eq!((folds, refused), (125, 13));
}

/// The skip connection crossing two stage boundaries (stage 0 feeds the
/// loss in stage 2) folds under every three-actor builder, both ways.
#[test]
fn skip_connection_pipelines_fold() {
    let (jaxpr, n_params) = trace(
        &RandomModel {
            layers: 5,
            n_stages: 3,
            share_first_last: false,
            skip_from_first: true,
        },
        3,
    );
    let pmodel = pipeline_model(&jaxpr, n_params).unwrap();
    for schedule in schedules_for(3, 4) {
        for loop_commuting in [true, false] {
            let mut program = unroll_loop(&pmodel, &schedule, UnrollOptions { loop_commuting })
                .unwrap()
                .program;
            insert_frees(&mut program);
            for k in 0..2 {
                fold_verified(&program, k)
                    .unwrap_or_else(|e| panic!("{} fold {} -> {k}: {e}", schedule.name(), k + 1));
            }
        }
    }
}
