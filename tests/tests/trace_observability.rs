//! End-to-end step-trace observability: a recovered step's trace
//! carries the failure forensics (abort/death events plus a retry
//! marker per failed attempt), tracing survives actor respawn, and the
//! trainer-level metrics registry reflects what actually happened.

use std::time::Duration;

use raxpp_core::{
    compile_train_step, CompileOptions, DpConfig, Optimizer, RetryPolicy, StepResult, TpConfig,
    Trainer,
};
use raxpp_integration::with_watchdog;
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_runtime::{Fault, Kind, MetricValue, StepTrace, TransportKind};
use raxpp_sched::{gpipe, one_f1b};

const N_STAGES: usize = 4;

fn build_trainer(seed: u64) -> (Trainer, Vec<Vec<Tensor>>) {
    let schedule = gpipe(N_STAGES, 4).unwrap();
    let model = mlp_chain(6, 3, 4, N_STAGES, seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let data: Vec<Vec<Tensor>> = vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
        .collect()];
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 0.05 },
        CompileOptions::default(),
    )
    .unwrap();
    trainer.init(&model.init).unwrap();
    (trainer, data)
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    }
}

#[test]
fn recovered_step_trace_carries_retry_and_failure_events() {
    with_watchdog("recovered_step_trace", || {
        let (trainer, data) = build_trainer(91);
        let baseline = {
            let (twin, twin_data) = build_trainer(91);
            twin.step(&twin_data).unwrap().losses
        };
        // Kill stage 1 mid-stream on the next execute; the traced retry
        // loop must absorb the death, respawn, and still hand back a
        // trace that remembers the failed attempt.
        trainer
            .runtime()
            .inject_fault(1, Fault::DieAtInstr(2))
            .unwrap();
        let (result, trace) = trainer
            .step_traced_with_recovery(&data, fast_retry())
            .unwrap();
        assert_eq!(result.losses, baseline, "recovery must not change math");

        assert!(
            trace.has_event("retry"),
            "no retry marker in {:?}",
            trace.events
        );
        assert!(
            trace.has_event("actor_died") || trace.has_event("timeout"),
            "no death record in {:?}",
            trace.events
        );
        let retry = trace.events.iter().find(|e| e.kind == "retry").unwrap();
        assert!(
            retry.detail.starts_with("attempt "),
            "retry detail: {}",
            retry.detail
        );
        // Events are ordered on the shared timeline: the failure records
        // precede the retry marker, which precedes nothing older.
        let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ns).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted, "step events out of timeline order");
        // The successful attempt's spans are all there: 4 stages, each
        // with 4 forward and 4 backward tasks.
        assert_eq!(trace.actors.len(), N_STAGES);
        for at in &trace.actors {
            assert_eq!(at.spans.iter().filter(|s| s.kind == "fwd").count(), 4);
            assert_eq!(at.spans.iter().filter(|s| s.kind == "bwd").count(), 4);
        }

        // The metrics registry saw the whole story.
        let m = trainer.metrics();
        assert_eq!(m.counter("retries_total"), 1);
        assert_eq!(m.counter("recoveries_total"), 1);
        assert_eq!(m.counter("respawned_actors_total"), 1);
        assert_eq!(m.counter("steps_total"), 1);
        match m.gauge("bubble_fraction_measured") {
            Some(b) => assert!((0.0..=1.0).contains(&b), "bubble fraction {b}"),
            None => panic!("traced step must set bubble_fraction_measured"),
        }
        assert!(matches!(
            m.snapshot().get("step_time_s"),
            Some(MetricValue::Histogram(h)) if h.count == 1
        ));
    });
}

/// The regression signal of ROADMAP item 1 needs no trace and no
/// benchmark: every step publishes where the actors' time went.
#[test]
fn every_step_publishes_recv_wait_share_and_bubble_excess() {
    with_watchdog("recv_wait_gauges", || {
        let (trainer, data) = build_trainer(95);
        // A plain step: the gauges come from `StepStats`, not a trace.
        trainer.step(&data).unwrap();
        let m = trainer.metrics();
        let wait = m.gauge("recv_wait_share").expect("recv_wait_share set");
        let excess = m.gauge("bubble_excess").expect("bubble_excess set");
        assert!((0.0..=1.0).contains(&wait), "recv_wait_share {wait}");
        assert!((-1.0..=1.0).contains(&excess), "bubble_excess {excess}");
        // The schedule's own bubble is what separates the two.
        assert!(excess <= wait, "excess {excess} > wait {wait}");
    });
}

#[test]
fn trace_timeline_is_consistent_after_respawn() {
    with_watchdog("trace_timeline_after_respawn", || {
        let (trainer, data) = build_trainer(92);
        let (_, before) = trainer.step_traced(&data).unwrap();
        trainer.runtime().inject_fault(2, Fault::DieNow).unwrap();
        let (_, after) = trainer
            .step_traced_with_recovery(&data, fast_retry())
            .unwrap();
        // The respawned actor's spans share the runtime's original
        // monotonic origin: everything in the recovered step starts
        // after everything in the step that preceded it.
        let max_before = before
            .actors
            .iter()
            .flat_map(|a| a.spans.iter())
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap();
        let min_after = after
            .actors
            .iter()
            .flat_map(|a| a.spans.iter())
            .map(|s| s.start_ns)
            .min()
            .unwrap();
        assert!(
            min_after > max_before,
            "respawned actor's clock regressed: {min_after} <= {max_before}"
        );
    });
}

/// One ladder behind both recovered-step entry points: the same fault
/// sequence — a task error (respawn rung), a death under an elastic
/// policy (rebalance rung), a clean step — through `step_with_recovery`
/// and `step_traced_with_recovery` computes the same bits and moves the
/// same counters. The traced twin also hands back what the ladder saw,
/// in timeline order.
#[test]
fn traced_and_untraced_recovery_share_one_ladder() {
    with_watchdog("traced_and_untraced_share_one_ladder", || {
        let (plain, data) = build_trainer(93);
        let (traced, _) = build_trainer(93);
        let policy = RetryPolicy {
            rebalance_after: Some(1),
            ..fast_retry()
        };
        // [retries, recoveries, rebalances, steps, failed attempts]
        let counters = |t: &Trainer| {
            let names = [
                "retries",
                "recoveries",
                "rebalances",
                "steps",
                "step_failures",
            ];
            names.map(|c| t.metrics().counter(&format!("{c}_total")))
        };
        let faults = [
            Some((0, Fault::ErrorAtInstr(0))),
            Some((2, Fault::DieAtInstr(1))),
            None,
        ];
        for (step, fault) in faults.into_iter().enumerate() {
            if let Some((actor, fault)) = fault {
                plain.runtime().inject_fault(actor, fault.clone()).unwrap();
                traced.runtime().inject_fault(actor, fault).unwrap();
            }
            let a = plain.step_with_recovery(&data, policy).unwrap();
            let (b, trace) = traced.step_traced_with_recovery(&data, policy).unwrap();
            assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            for (ta, tb) in a.outputs.iter().flatten().zip(b.outputs.iter().flatten()) {
                assert_eq!(ta.data(), tb.data(), "step {step}: outputs diverged");
            }
            assert_eq!(counters(&plain), counters(&traced), "step {step}");

            let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind.as_str()).collect();
            assert!(
                trace.events.iter().map(|e| e.ts_ns).is_sorted(),
                "{kinds:?}"
            );
            match step {
                // The failure records, then the retry marker.
                0 => assert!(
                    kinds.contains(&"abort") && kinds.ends_with(&["retry"]),
                    "{kinds:?}"
                ),
                // Death records, the retry marker, then the fold — whose
                // detail is the retired-actor list alone.
                1 => {
                    assert!(kinds.ends_with(&["retry", "rebalanced"]), "{kinds:?}");
                    assert_eq!(trace.events.last().unwrap().detail, "retired [2]");
                }
                _ => assert!(kinds.is_empty(), "clean step carries events: {kinds:?}"),
            }
        }
        // One respawn round, one fold (which is not a respawn round),
        // three steps that survived two failed attempts between them.
        assert_eq!(counters(&traced), [1, 1, 1, 3, 2]);
        for (a, b) in plain
            .params()
            .unwrap()
            .iter()
            .zip(&traced.params().unwrap())
        {
            assert_eq!(a.data(), b.data(), "a parameter diverged");
        }
    });
}

/// One traced `one_f1b(2, 4)` step on each of the four fleets the
/// recorder's paths differ on: pure PP, tp = 2 and dp = 2 (collective
/// exchanges, the nested `*_wait` kinds), and the tp = 2 program over Unix
/// sockets (`wire` sub-spans, profile and trace both crossing the
/// codec).
fn traced_fleets() -> Vec<(&'static str, StepResult, StepTrace)> {
    let schedule = one_f1b(2, 4).unwrap();
    let model = mlp_chain(8, 2, 4, 2, 95).unwrap();
    let mut rng = StdRng::seed_from_u64(96);
    // Each replica runs the schedule on its own share of the batch.
    let mut batch = |replicas: usize| -> Vec<Vec<Tensor>> {
        vec![(0..replicas * schedule.n_mubatches())
            .map(|_| Tensor::randn([2, 8], 1.0, &mut rng))
            .collect()]
    };
    let fleets = [
        ("pp", 1, 1, TransportKind::Mpsc),
        ("tp2", 2, 1, TransportKind::Mpsc),
        ("dp2", 1, 2, TransportKind::Mpsc),
        ("tp2 over uds", 2, 1, TransportKind::UnixSocket),
    ];
    let traced = fleets.map(|(name, tp, dp, transport)| {
        let trainer = compile_train_step(
            &model.jaxpr,
            model.n_params,
            &schedule,
            Optimizer::Sgd { lr: 0.05 },
            CompileOptions {
                tp: Some(TpConfig::model_parallel(tp)),
                dp: Some(DpConfig::replicas(dp)),
                transport: Some(transport),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        trainer.init(&model.init).unwrap();
        let (result, trace) = trainer.step_traced(&batch(dp)).unwrap();
        assert_eq!(trace.actors.len(), 2 * tp * dp, "{name}");
        (name, result, trace)
    });
    traced.into()
}

/// The books reconcile because there is one: the profile an actor
/// reports and the fold of the spans it recorded were written by the
/// same call from the same duration.
#[test]
fn profile_is_the_fold_of_the_trace() {
    with_watchdog("profile_is_the_fold_of_the_trace", || {
        for (name, result, trace) in traced_fleets() {
            for at in &trace.actors {
                assert_eq!(at.dropped, 0, "{name}");
                let folded = at.profile();
                let reported = &result.stats.profiles[at.actor];
                for kind in Kind::ALL {
                    assert_eq!(
                        folded.get(kind),
                        reported.get(kind),
                        "{name}: actor {} kind {}",
                        at.actor,
                        kind.as_str()
                    );
                }
                assert_eq!(folded.alloc_stats(), reported.alloc_stats(), "{name}");
            }
            let kinds = |k: Kind| {
                trace
                    .actors
                    .iter()
                    .flat_map(|a| &a.spans)
                    .any(|s| s.kind == k.as_str())
            };
            assert_eq!(
                kinds(Kind::CollectiveWait),
                name.starts_with("tp2"),
                "{name}"
            );
            assert_eq!(kinds(Kind::DpCollectiveWait), name == "dp2", "{name}");
            assert_eq!(kinds(Kind::Wire), name == "tp2 over uds", "{name}");
        }
    });
}

/// An instruction's span starts where its predecessor's ended, so an
/// actor's top-level spans account for its whole stream: their
/// durations sum exactly to last end − first start.
#[test]
fn top_level_spans_tile_each_actors_stream() {
    with_watchdog("top_level_spans_tile_each_actors_stream", || {
        for (name, _, trace) in traced_fleets() {
            let nested = Kind::ALL.map(|k| k.is_nested().then_some(k.as_str()));
            for at in &trace.actors {
                let top = at.spans.iter().filter(|s| !nested.contains(&Some(s.kind)));
                let top: Vec<_> = top.collect();
                let (first, last) = (top[0], top[top.len() - 1]);
                assert_eq!(
                    top.iter().map(|s| s.dur_ns).sum::<u64>(),
                    last.start_ns + last.dur_ns - first.start_ns,
                    "{name}: actor {}",
                    at.actor
                );
            }
        }
    });
}
