//! The serving tier's contracts (`docs/serving.md`):
//!
//! * the forward-only program is the forward *half* of the training
//!   step — same jaxprs, same buffers — so serving outputs are
//!   bitwise-identical to a training step's pre-update outputs, across
//!   schedules and tensor-parallel degrees;
//! * a served request is bitwise-identical to running it alone through
//!   an unbatched (`n_mubatches = 1`) forward program — padding and
//!   slot packing never leak into results;
//! * a mid-request rank kill errors the carried requests in bounded
//!   time and the next request succeeds (degraded-mode serving);
//! * weight generations swap between dispatches and are never mixed
//!   within one request;
//! * serving resumes from the newest valid training checkpoint
//!   generation;
//! * traced dispatches carry `"serve"` request spans (trace schema v7);
//! * the rebalance rung folds only an actor known to be dead: a task
//!   error is recovered in place however often it repeats.

use std::path::PathBuf;
use std::time::Duration;

use raxpp_core::{
    compile_train_step, CheckpointPolicy, CompileOptions, Optimizer, RetryPolicy, TpConfig, Trainer,
};
use raxpp_integration::with_watchdog;
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{Jaxpr, Tensor, TraceCtx};
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::Fault;
use raxpp_sched::{gpipe, one_f1b, Schedule};
use raxpp_serve::{
    compile_forward_step, ForwardOptions, ForwardStep, ServeConfig, ServeError, Server,
};
use raxpp_taskgraph::TaskLabel;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raxpp-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two linear stages: y = (x @ w1) @ w2, loss = 0.5 Σ y². With
/// w = s·I the prediction is exactly s₁·s₂·x (bitwise: scaling by a
/// power of two and adding zeros are exact), which makes mixed weight
/// generations detectable from a single output.
fn linear_model() -> Jaxpr {
    let ctx = TraceCtx::new();
    let w1 = ctx.input([4, 4]);
    let w2 = ctx.input([4, 4]);
    let x = ctx.input([2, 4]);
    let h = ctx.pipeline_yield(&x.matmul(&w1).unwrap());
    let y = h.matmul(&w2).unwrap();
    let loss = y.mul(&y).unwrap().sum().scale(0.5);
    ctx.finish(&[loss, y]).unwrap()
}

fn scaled_eye(s: f32) -> Vec<Tensor> {
    let eye = Tensor::eye(4);
    let scaled = Tensor::from_vec([4, 4], eye.data().iter().map(|v| s * v).collect()).unwrap();
    vec![scaled.clone(), scaled]
}

fn mb_data(model: &BuiltModel, schedule: &Schedule, width: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let _ = model;
    let mut rng = StdRng::seed_from_u64(seed);
    vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([2, width], 1.0, &mut rng))
        .collect()]
}

/// The headline parity contract: for every (schedule × tp) cell, the
/// forward-only program's outputs are bitwise-identical to the
/// training step's pre-update outputs on the same data, and the
/// projected program carries no backward/optimizer work at all.
#[test]
fn forward_projection_matches_training_forward_bitwise() {
    with_watchdog(
        "forward_projection_matches_training_forward_bitwise",
        || {
            for (schedule, seed) in [(gpipe(2, 4).unwrap(), 31), (one_f1b(2, 4).unwrap(), 32)] {
                let model = mlp_chain(8, 2, 4, schedule.n_stages(), seed).unwrap();
                let data = mb_data(&model, &schedule, 8, seed + 1);
                for tp in [1usize, 2] {
                    let tp_cfg = (tp > 1).then(|| TpConfig::model_parallel(tp));
                    let trainer: Trainer = compile_train_step(
                        &model.jaxpr,
                        model.n_params,
                        &schedule,
                        Optimizer::Sgd { lr: 0.05 },
                        CompileOptions {
                            tp: tp_cfg.clone(),
                            ..CompileOptions::default()
                        },
                    )
                    .unwrap();
                    trainer.init(&model.init).unwrap();
                    // A step's outputs are computed before its update.
                    let train_out = trainer.step(&data).unwrap().outputs;

                    let step = compile_forward_step(
                        &model.jaxpr,
                        model.n_params,
                        &schedule,
                        ForwardOptions {
                            tp: tp_cfg,
                            ..ForwardOptions::default()
                        },
                    )
                    .unwrap();
                    let program = step.runtime().program();
                    assert_eq!(
                        program.count_runs(|l| !matches!(l, TaskLabel::Fwd { .. })),
                        0,
                        "{} tp={tp}: projected program is forward-only",
                        schedule.name()
                    );
                    step.load_params(&model.init).unwrap();
                    let fwd_out = step.forward(&data).unwrap();

                    assert_eq!(train_out.len(), fwd_out.len());
                    for (o, (a, b)) in train_out.iter().zip(&fwd_out).enumerate() {
                        for (mb, (ta, tb)) in a.iter().zip(b).enumerate() {
                            assert_eq!(
                                ta.data(),
                                tb.data(),
                                "{} tp={tp}: output {o} microbatch {mb} must be bitwise equal",
                                schedule.name()
                            );
                        }
                    }
                }
            }
        },
    );
}

/// The acceptance gate: at every slot count, a request served through
/// the batching engine — alone in its dispatch, every other slot padded
/// — is bitwise-identical to running it alone through an unbatched
/// (one-slot) forward program.
#[test]
fn served_request_matches_the_unbatched_forward_program() {
    with_watchdog(
        "served_request_matches_the_unbatched_forward_program",
        || {
            let jaxpr = linear_model();
            let params = scaled_eye(1.0);
            let mut rng = StdRng::seed_from_u64(7);
            let req = Tensor::randn([2, 4], 1.0, &mut rng);

            // The unbatched reference: one pipeline slot, the request alone.
            let single =
                compile_forward_step(&jaxpr, 2, &gpipe(2, 1).unwrap(), ForwardOptions::default())
                    .unwrap();
            single.load_params(&params).unwrap();
            let want = single.forward(&[vec![req.clone()]]).unwrap();

            for n_slots in [1, 2, 4, 8] {
                let step = compile_forward_step(
                    &jaxpr,
                    2,
                    &gpipe(2, n_slots).unwrap(),
                    ForwardOptions::default(),
                )
                .unwrap();
                step.load_params(&params).unwrap();
                let server = Server::start(
                    step,
                    ServeConfig {
                        max_wait: Duration::from_millis(2),
                        ..ServeConfig::default()
                    },
                );
                let got = server.infer(vec![req.clone()]).unwrap();
                assert_eq!(got.len(), want.len());
                for (o, t) in got.iter().enumerate() {
                    assert_eq!(
                        t.data(),
                        want[o][0].data(),
                        "n_slots={n_slots} output {o}: batched+padded serving must equal \
                         the unbatched forward"
                    );
                }
                server.shutdown();
            }
        },
    );
}

/// A rank killed mid-request errors the carried requests in bounded
/// time (no ticket waits forever) and the engine repairs the fleet:
/// the next request succeeds with correct outputs.
#[test]
fn rank_kill_mid_request_is_bounded_and_service_resumes() {
    with_watchdog(
        "rank_kill_mid_request_is_bounded_and_service_resumes",
        || {
            let jaxpr = linear_model();
            let step =
                compile_forward_step(&jaxpr, 2, &gpipe(2, 2).unwrap(), ForwardOptions::default())
                    .unwrap();
            step.load_params(&scaled_eye(1.0)).unwrap();
            // The next dispatch will lose actor 1 mid-stream.
            step.runtime()
                .inject_fault(1, Fault::DieAtInstr(1))
                .unwrap();
            let server = Server::start(step, ServeConfig::default());

            let x = Tensor::full([2, 4], 0.5);
            let t0 = server.submit(vec![x.clone()]).unwrap();
            let t1 = server.submit(vec![x.clone()]).unwrap();
            for t in [t0, t1] {
                match t.wait() {
                    Err(ServeError::Dispatch(m)) => {
                        assert!(!m.is_empty(), "dispatch error carries a reason")
                    }
                    other => panic!("expected a bounded Dispatch error, got {other:?}"),
                }
            }
            assert_eq!(server.metrics().counter("serve_failed_batches_total"), 1);

            // The engine recovered the fleet; service resumes with exact
            // results (identity weights: y == x).
            let out = server.infer(vec![x.clone()]).unwrap();
            assert_eq!(out[1].data(), x.data());
            assert_eq!(server.metrics().counter("serve_batches_total"), 1);
            assert_eq!(server.queue_depth(), 0);
            server.shutdown();
        },
    );
}

/// Weight generations are swapped only between dispatches: while one
/// client hammers the server and another thread flips generations,
/// every reply is *entirely* from one generation (y == x or y == 4x,
/// never the mixed 2x).
#[test]
fn weight_generations_never_mix_within_a_request() {
    with_watchdog("weight_generations_never_mix_within_a_request", || {
        let jaxpr = linear_model();
        let step =
            compile_forward_step(&jaxpr, 2, &gpipe(2, 2).unwrap(), ForwardOptions::default())
                .unwrap();
        step.load_params(&scaled_eye(1.0)).unwrap();
        let server = Server::start(
            step,
            ServeConfig {
                max_wait: Duration::from_micros(200),
                ..ServeConfig::default()
            },
        );

        let x = Tensor::from_vec([2, 4], (1..=8).map(|i| i as f32 * 0.25).collect()).unwrap();
        let gen_a: Vec<f32> = x.data().to_vec(); //  I ·  I -> y = x
        let gen_b: Vec<f32> = x.data().iter().map(|v| 4.0 * v).collect(); // 2I · 2I -> y = 4x

        std::thread::scope(|s| {
            let client = s.spawn(|| {
                let mut seen = [0usize; 2];
                for _ in 0..40 {
                    let out = server.infer(vec![x.clone()]).unwrap();
                    let y = out[1].data();
                    if y == gen_a.as_slice() {
                        seen[0] += 1;
                    } else if y == gen_b.as_slice() {
                        seen[1] += 1;
                    } else {
                        panic!("reply mixes weight generations: {y:?}");
                    }
                }
                seen
            });
            for _ in 0..12 {
                server.swap_weights(scaled_eye(2.0)).unwrap();
                std::thread::sleep(Duration::from_micros(300));
                server.swap_weights(scaled_eye(1.0)).unwrap();
                std::thread::sleep(Duration::from_micros(300));
            }
            let seen = client.join().unwrap();
            assert_eq!(seen[0] + seen[1], 40, "every reply is a pure generation");
        });

        // Deterministic coda: after a final swap, the new generation
        // answers.
        server.swap_weights(scaled_eye(2.0)).unwrap();
        let out = server.infer(vec![x.clone()]).unwrap();
        assert_eq!(out[1].data(), gen_b.as_slice());

        // The same contract behind a standing backlog: bursts submitted
        // faster than they are served (so the engine drains many queued
        // requests per loop turn) with a swap released into the middle
        // of each. In admission order the replies are a run of the old
        // generation, then a run of the new one — never interleaved,
        // never mixed. (`crates/serve/src/engine/tests.rs` pins the exact
        // interleaving against a scripted mailbox.)
        let (mut old, mut new) = (&gen_b, &gen_a);
        for round in 0..6 {
            let scale = if round % 2 == 0 { 1.0 } else { 2.0 };
            let release = std::sync::Barrier::new(2);
            let tickets = std::thread::scope(|s| {
                let swapper = s.spawn(|| {
                    release.wait();
                    server.swap_weights(scaled_eye(scale)).unwrap();
                });
                let tickets: Vec<_> = (0..48)
                    .map(|i| {
                        if i == 8 {
                            release.wait();
                        }
                        server.submit(vec![x.clone()]).unwrap()
                    })
                    .collect();
                swapper.join().unwrap();
                tickets
            });
            let mut switched = false;
            for (i, t) in tickets.into_iter().enumerate() {
                let out = t.wait().unwrap();
                let y = out[1].data();
                if y == new.as_slice() {
                    switched = true;
                } else {
                    assert_eq!(
                        y,
                        old.as_slice(),
                        "round {round}, reply {i} mixes generations"
                    );
                    assert!(!switched, "round {round}: reply {i} left admission order");
                }
            }
            std::mem::swap(&mut old, &mut new);
        }
        server.shutdown();
    });
}

/// Serving picks up the newest valid checkpoint generation written by
/// training (parameters only — optimizer moments are ignored) and then
/// answers bitwise-identically to a forward step fed the trainer's
/// live parameters.
#[test]
fn serving_resumes_from_the_latest_checkpoint_generation() {
    with_watchdog(
        "serving_resumes_from_the_latest_checkpoint_generation",
        || {
            let dir = temp_dir("ckpt");
            let schedule = gpipe(2, 2).unwrap();
            let model = mlp_chain(8, 2, 4, 2, 91).unwrap();
            let trainer = compile_train_step(
                &model.jaxpr,
                model.n_params,
                &schedule,
                Optimizer::adam(5e-3),
                CompileOptions::default(),
            )
            .unwrap();
            trainer.init(&model.init).unwrap();
            trainer.set_checkpoint_policy(Some(CheckpointPolicy::new(&dir, 1, 3)));
            let data = mb_data(&model, &schedule, 8, 92);
            for _ in 0..3 {
                // Checkpoints are written on the recovered-step path.
                trainer
                    .step_with_recovery(&data, RetryPolicy::default())
                    .unwrap();
            }
            let live = trainer.params().unwrap();

            // Reference: the trainer's live parameters, loaded directly.
            let reference: ForwardStep = compile_forward_step(
                &model.jaxpr,
                model.n_params,
                &schedule,
                ForwardOptions::default(),
            )
            .unwrap();
            reference.load_params(&live).unwrap();
            let want = reference.forward(&data).unwrap();

            // Serving: the same generation, restored from disk.
            let step = compile_forward_step(
                &model.jaxpr,
                model.n_params,
                &schedule,
                ForwardOptions::default(),
            )
            .unwrap();
            let server = Server::start(step, ServeConfig::default());
            let generation = server.load_latest_checkpoint(&dir).unwrap();
            assert_eq!(generation, Some(3), "newest valid generation is step 3");
            let t0 = server.submit(vec![data[0][0].clone()]).unwrap();
            let t1 = server.submit(vec![data[0][1].clone()]).unwrap();
            let o0 = t0.wait().unwrap();
            let o1 = t1.wait().unwrap();
            for (o, t) in o0.iter().enumerate() {
                assert_eq!(t.data(), want[o][0].data(), "slot 0 output {o}");
            }
            for (o, t) in o1.iter().enumerate() {
                assert_eq!(t.data(), want[o][1].data(), "slot 1 output {o}");
            }
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
}

/// Traced dispatches carry the serving tier's pseudo-actor track:
/// one `"serve"` span per carried request, named `request <id>
/// (slot <s>)`, on actor index `n_actors` (trace schema v7).
#[test]
fn traced_dispatches_carry_serve_spans() {
    with_watchdog("traced_dispatches_carry_serve_spans", || {
        let jaxpr = linear_model();
        let step =
            compile_forward_step(&jaxpr, 2, &gpipe(2, 2).unwrap(), ForwardOptions::default())
                .unwrap();
        step.load_params(&scaled_eye(1.0)).unwrap();
        let n_actors = step.runtime().program().n_actors();
        step.runtime().set_tracing(true);
        let server = Server::start(step, ServeConfig::default());

        let x = Tensor::full([2, 4], 0.25);
        let t0 = server.submit(vec![x.clone()]).unwrap();
        let t1 = server.submit(vec![x.clone()]).unwrap();
        t0.wait().unwrap();
        t1.wait().unwrap();

        let trace = server.take_step_trace().expect("a traced dispatch");
        let serve_track = trace
            .actors
            .iter()
            .find(|a| a.actor == n_actors)
            .expect("pseudo-actor track appended after the real actors");
        assert_eq!(serve_track.spans.len(), 2, "one span per carried request");
        for (slot, span) in serve_track.spans.iter().enumerate() {
            assert_eq!(span.kind, "serve");
            assert!(
                span.name.contains(&format!("(slot {slot})")),
                "span name {:?} carries its slot",
                span.name
            );
            assert!(span.dur_ns > 0, "admission-to-reply duration");
        }
        // Real pipeline spans are present too (the dispatch itself).
        assert!(trace
            .actors
            .iter()
            .any(|a| a.spans.iter().any(|s| s.kind == "fwd")));
        // And the whole thing exports to Chrome JSON with the serve cat.
        assert!(trace.chrome_trace_json().contains("\"cat\": \"serve\""));
        server.shutdown();
    });
}

/// A `ForwardStep` is a projection of the same fleet handle a `Trainer`
/// is: folding an actor away moves the fleet-shape gauges on the serving
/// registry too, the shrunken fleet answers with the same bits from the
/// same weights, and a forward dispatch is counted as a runtime step.
#[test]
fn forward_rebalance_moves_fleet_gauges_and_replies_stay_bitwise() {
    with_watchdog("forward_rebalance_moves_fleet_gauges", || {
        let schedule = gpipe(2, 2).unwrap();
        let model = mlp_chain(8, 2, 4, 2, 41).unwrap();
        let data = mb_data(&model, &schedule, 8, 42);
        let opts = ForwardOptions::default();
        let step = compile_forward_step(&model.jaxpr, model.n_params, &schedule, opts).unwrap();
        step.load_params(&model.init).unwrap();
        let m = step.metrics();
        let shape = || (m.gauge("actors_alive"), m.gauge("stages_per_actor_max"));
        assert_eq!(shape(), (Some(2.0), Some(1.0)));
        let want = step.forward(&data).unwrap();

        assert_eq!(step.rebalance(&[1]).unwrap().retired, vec![1]);
        assert_eq!(shape(), (Some(1.0), Some(2.0)));
        assert_eq!(m.counter("rebalances_total"), 1);

        let got = step.forward(&data).unwrap();
        for (a, b) in want.iter().flatten().zip(got.iter().flatten()) {
            assert_eq!(a.data(), b.data(), "an output changed after the fold");
        }
        assert_eq!(m.counter("steps_total"), 2);
        assert_eq!(m.counter("step_failures_total"), 0);
    });
}

/// A two-stage server over random weights with `rebalance_after:
/// Some(1)`, `faults` armed on actor 1 before it starts, and the
/// unbatched (one-slot) forward of `x` its replies must equal.
fn server_with_faults(faults: &[Fault], x: &Tensor) -> (Server, Vec<Vec<Tensor>>) {
    let jaxpr = linear_model();
    let mut rng = StdRng::seed_from_u64(43);
    let params: Vec<Tensor> = (0..2)
        .map(|_| Tensor::randn([4, 4], 1.0, &mut rng))
        .collect();
    let single =
        compile_forward_step(&jaxpr, 2, &gpipe(2, 1).unwrap(), ForwardOptions::default()).unwrap();
    single.load_params(&params).unwrap();
    let want = single.forward(&[vec![x.clone()]]).unwrap();
    let step =
        compile_forward_step(&jaxpr, 2, &gpipe(2, 2).unwrap(), ForwardOptions::default()).unwrap();
    step.load_params(&params).unwrap();
    for fault in faults {
        step.runtime().inject_fault(1, fault.clone()).unwrap();
    }
    let config = ServeConfig {
        rebalance_after: Some(1),
        ..ServeConfig::default()
    };
    (Server::start(step, config), want)
}

/// Serves `x` and asserts the reply equals the unbatched forward.
fn assert_serves(server: &Server, x: &Tensor, want: &[Vec<Tensor>]) {
    let got = server.infer(vec![x.clone()]).unwrap();
    for (o, t) in got.iter().enumerate() {
        assert_eq!(t.data(), want[o][0].data(), "output {o}");
    }
}

/// Serves `x` alone in a dispatch that fails: its ticket gets a
/// bounded `Dispatch` error.
fn assert_dispatch_fails(server: &Server, x: &Tensor) {
    let ticket = server.submit(vec![x.clone()]).unwrap();
    assert!(
        matches!(ticket.wait(), Err(ServeError::Dispatch(_))),
        "a failed dispatch answers Dispatch"
    );
}

/// The rebalance rung: with `rebalance_after: Some(1)`, a dispatch
/// that loses actor 1 errors its tickets, the engine folds actor 1's
/// stage onto actor 0, and the shrunken fleet answers bit for bit.
#[test]
fn dead_actor_is_folded_after_rebalance_after_failures() {
    with_watchdog(
        "dead_actor_is_folded_after_rebalance_after_failures",
        || {
            let x = Tensor::full([2, 4], 0.5);
            let (server, want) = server_with_faults(&[Fault::DieAtInstr(1)], &x);
            assert_dispatch_fails(&server, &x);
            assert_serves(&server, &x, &want);
            assert_serves(&server, &x, &want);
            assert_eq!(server.metrics().counter("rebalances_total"), 1);
            let step = server.shutdown();
            assert_eq!(step.runtime().retired_actors(), vec![1]);
        },
    );
}

/// A task error names an actor that is still alive: two consecutive
/// failed dispatches under `rebalance_after: Some(1)` are each
/// recovered in place, no actor is retired, and service resumes bit
/// for bit on the whole fleet.
#[test]
fn task_errors_are_recovered_never_folded() {
    with_watchdog("task_errors_are_recovered_never_folded", || {
        let x = Tensor::full([2, 4], 0.5);
        let faults = [Fault::ErrorAtInstr(1), Fault::ErrorAtInstr(1)];
        let (server, want) = server_with_faults(&faults, &x);
        for recoveries in 1..=2 {
            assert_dispatch_fails(&server, &x);
            assert_eq!(server.metrics().counter("recoveries_total"), recoveries);
        }
        assert_serves(&server, &x, &want);
        assert_eq!(server.metrics().counter("rebalances_total"), 0);
        let step = server.shutdown();
        assert_eq!(step.runtime().retired_actors(), Vec::<usize>::new());
    });
}
