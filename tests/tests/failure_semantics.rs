//! Failure semantics of the MPMD runtime: any task error or actor death
//! at any stage of a pipelined step surfaces as a bounded-time
//! `RuntimeError` (never a hang), the same runtime stays usable for the
//! next step (no stale replies, no stale data messages), and the
//! recovery path restores training exactly.
//!
//! The sweeping tests run on **both** kinds of fabric — the in-process
//! mpsc fabric and the socket wire (Unix-domain sockets, or TCP
//! loopback under `RAXPP_TRANSPORT=tcp`) — and always compare against
//! an mpsc baseline, so every recovery is also a cross-transport
//! bitwise-parity proof. Wire-only failure modes (kill -9 while the
//! driver waits on a reply, one-way partitions) get dedicated tests
//! with explicit detection-time bounds.
//!
//! Every test runs under the watchdog helper, so a reintroduced
//! deadlock fails fast instead of hanging the suite.

use std::time::{Duration, Instant};

use raxpp_core::{compile_train_step, CompileOptions, CoreError, Optimizer, RetryPolicy, Trainer};
use raxpp_integration::with_watchdog;
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_runtime::{Fault, RuntimeError, TransportKind, DRIVER_PEER};
use raxpp_sched::gpipe;

const N_STAGES: usize = 4;

/// The socket fabric the wire tests run on: `RAXPP_TRANSPORT`'s when it
/// names one, Unix-domain sockets otherwise.
fn wire() -> TransportKind {
    match TransportKind::from_env() {
        TransportKind::Mpsc => TransportKind::UnixSocket,
        socket => socket,
    }
}

/// Both fabrics the failure contract must hold on.
fn transports() -> [TransportKind; 2] {
    [TransportKind::Mpsc, wire()]
}

/// Bound on how long any single failure may take to surface. Generous
/// for loaded CI, but far below the watchdog and the point of the
/// contract: detection is *bounded*, never a hang.
const DETECT_BUDGET: Duration = Duration::from_secs(30);

fn build_trainer_on(seed: u64, kind: TransportKind) -> (Trainer, Vec<Vec<Tensor>>) {
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
        CompileOptions {
            transport: Some(kind),
            ..CompileOptions::default()
        },
    )
    .unwrap();
    trainer.init(&model.init).unwrap();
    (trainer, data)
}

fn build_trainer(seed: u64) -> (Trainer, Vec<Vec<Tensor>>) {
    build_trainer_on(seed, TransportKind::Mpsc)
}

/// The losses of one uninterrupted step on the in-process transport —
/// the oracle every faulted/recovered run must match bitwise.
fn mpsc_baseline(seed: u64) -> Vec<f32> {
    let (twin, twin_data) = build_trainer(seed);
    twin.step(&twin_data).unwrap().losses
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    }
}

#[test]
fn actor_death_at_any_stage_is_bounded_error_then_recoverable() {
    with_watchdog("actor_death_at_any_stage", || {
        for kind in transports() {
            for stage in 0..N_STAGES {
                let seed = 70 + stage as u64;
                let (trainer, data) = build_trainer_on(seed, kind);
                let baseline = mpsc_baseline(seed);
                trainer
                    .runtime()
                    .inject_fault(stage, Fault::DieAtInstr(2))
                    .unwrap();
                // The death must surface as an error in bounded time —
                // stage `stage`'s peers are blocked in `Recv` and must be
                // woken by the abort broadcast, not wait forever.
                match trainer.step(&data) {
                    Err(CoreError::Runtime(RuntimeError::ActorDied { .. })) => {}
                    other => panic!("{kind}/stage {stage}: expected ActorDied, got {other:?}"),
                }
                // Recovery respawns the dead actor, restores the snapshot,
                // and the retried step matches an uninterrupted mpsc run
                // bitwise — on either transport.
                let recovered = trainer.step_with_recovery(&data, fast_retry()).unwrap();
                assert_eq!(
                    recovered.losses, baseline,
                    "{kind}/stage {stage}: recovered step is not bitwise identical"
                );
            }
        }
    });
}

#[test]
fn task_error_at_any_stage_drains_and_next_step_succeeds() {
    with_watchdog("task_error_at_any_stage", || {
        for kind in transports() {
            for stage in 0..N_STAGES {
                let seed = 80 + stage as u64;
                let (trainer, data) = build_trainer_on(seed, kind);
                let baseline = mpsc_baseline(seed);
                trainer
                    .runtime()
                    .inject_fault(stage, Fault::ErrorAtInstr(0))
                    .unwrap();
                // A task error on one actor: every other actor drains (no
                // hang), and the root cause — not a cascade abort — is
                // reported.
                match trainer.step(&data) {
                    Err(CoreError::Runtime(RuntimeError::Exec { actor, message })) => {
                        assert_eq!(actor, stage, "root cause must name the failing actor");
                        assert!(
                            message.contains("injected fault"),
                            "unexpected message: {message}"
                        );
                    }
                    other => panic!("{kind}/stage {stage}: expected Exec error, got {other:?}"),
                }
                // All actors are still alive: memory accounting still answers.
                let peaks = trainer.runtime().peak_store_bytes().unwrap();
                assert_eq!(peaks.len(), N_STAGES);
                // The error fired at instruction 0, so no parameter was
                // updated anywhere: the next step must succeed on the same
                // runtime (stale-reply and stale-message drain) and
                // reproduce the uninterrupted first step bitwise.
                let after = trainer.step(&data).unwrap();
                assert_eq!(
                    after.losses, baseline,
                    "{kind}/stage {stage}: step after failed step diverged"
                );
            }
        }
    });
}

#[test]
fn failing_step_then_succeeding_step_regression() {
    // Regression for the reply-channel desync: `step` used to return on
    // the first `Executed(Err)` while other actors' replies were still
    // in flight, so the next `place`/`step` consumed stale replies and
    // mismatched variants. With epoch tagging the same runtime now runs
    // an arbitrary error→success sequence — on either fabric.
    with_watchdog("failing_then_succeeding", || {
        for kind in transports() {
            let (trainer, data) = build_trainer_on(90, kind);
            for round in 0..3 {
                trainer
                    .runtime()
                    .inject_fault(2, Fault::ErrorAtTask("fwd".into()))
                    .unwrap();
                assert!(
                    matches!(trainer.step(&data), Err(CoreError::Runtime(_))),
                    "{kind}/round {round}: injected fault did not surface"
                );
                trainer
                    .step(&data)
                    .unwrap_or_else(|e| panic!("{kind}/round {round}: step after failure: {e}"));
            }
        }
    });
}

/// A manual recovery puts back the *trained* state, not the weights the
/// run started from: after one committed step, a death, and
/// `Trainer::recover`, a plain `step` matches an uninterrupted twin
/// bitwise — on either transport. (The runtime alone only respawns; the
/// replacement's store comes back empty.)
#[test]
fn recover_respawns_dead_actors_and_restores_the_trained_state() {
    with_watchdog("recover_respawns", || {
        let (twin, twin_data) = build_trainer(91);
        let want1 = twin.step(&twin_data).unwrap().losses;
        let want2 = twin.step(&twin_data).unwrap().losses;
        for kind in transports() {
            let (trainer, data) = build_trainer_on(91, kind);
            // A successful recovered step commits the post-step state
            // as the restore point.
            let first = trainer.step_with_recovery(&data, fast_retry()).unwrap();
            assert_eq!(first.losses, want1, "{kind}: first step diverged");
            trainer.runtime().inject_fault(1, Fault::DieNow).unwrap();
            match trainer.step(&data) {
                Err(CoreError::Runtime(RuntimeError::ActorDied { .. })) => {}
                other => panic!("{kind}: expected ActorDied, got {other:?}"),
            }
            let report = trainer.recover().unwrap();
            assert_eq!(report.respawned, vec![1], "exactly actor 1 respawned");
            // A second recover finds nobody to respawn.
            let again = trainer.recover().unwrap();
            assert!(again.respawned.is_empty());
            assert_eq!(trainer.metrics().counter("recoveries_total"), 2);
            assert_eq!(trainer.metrics().counter("respawned_actors_total"), 1);
            // The respawned actor holds the post-step-1 weights like
            // everyone else: step 2 is the twin's step 2.
            let second = trainer.step(&data).unwrap();
            assert_eq!(
                second.losses, want2,
                "{kind}: step after a manual recover is not bitwise identical"
            );
            let peaks = trainer.runtime().peak_store_bytes().unwrap();
            assert_eq!(peaks.len(), N_STAGES);
        }
    });
}

/// A step's data inputs ride its `Execute` and are in the stores when
/// the stream fails. Whether the failing actor reports the error itself
/// or dies, `recover()` plus a plain retry is bitwise the uninterrupted
/// step, and the resident set is back at its pre-fault size: the aborted
/// attempt's copies of the inputs were overwritten by the retry's and
/// freed by its stream, not parked beside them.
#[test]
fn fault_on_a_step_fed_through_execute_leaves_no_ghost_inputs() {
    with_watchdog("fault_on_a_step_fed_through_execute", || {
        let (twin, twin_data) = build_trainer(95);
        let want1 = twin.step(&twin_data).unwrap().losses;
        let want2 = twin.step(&twin_data).unwrap().losses;
        for kind in transports() {
            // Actor 0's `Execute` carries the data inputs; the last
            // actor's carries none and its reply the fetched losses.
            for actor in [0, N_STAGES - 1] {
                for fault in [Fault::ErrorAtInstr(1), Fault::DieAtInstr(1)] {
                    let what = format!("{kind}/actor {actor}/{fault:?}");
                    let (trainer, data) = build_trainer_on(95, kind);
                    let first = trainer.step_with_recovery(&data, fast_retry()).unwrap();
                    assert_eq!(first.losses, want1, "{what}: first step diverged");
                    let baseline = trainer.runtime().live_store_bytes().unwrap();

                    trainer.runtime().inject_fault(actor, fault).unwrap();
                    assert!(
                        matches!(trainer.step(&data), Err(CoreError::Runtime(_))),
                        "{what}: injected fault did not surface"
                    );
                    trainer.recover().unwrap();
                    let retried = trainer.step(&data).unwrap();
                    assert_eq!(retried.losses, want2, "{what}: retry is not bitwise");
                    assert_eq!(
                        trainer.runtime().live_store_bytes().unwrap(),
                        baseline,
                        "{what}: resident bytes did not return to the pre-fault set"
                    );
                    // One exchange per actor in service, inputs included.
                    assert_eq!(retried.stats.rpcs, N_STAGES, "{what}");
                }
            }
        }
    });
}

#[test]
fn retry_exhaustion_reports_last_error() {
    with_watchdog("retry_exhaustion", || {
        let (trainer, data) = build_trainer(92);
        // Arm one fault per allowed attempt (initial + 1 retry), so the
        // policy runs out while faults keep firing.
        let policy = RetryPolicy {
            max_retries: 1,
            backoff: Duration::ZERO,
            rebalance_after: None,
        };
        trainer
            .runtime()
            .inject_fault(0, Fault::ErrorAtInstr(0))
            .unwrap();
        // Faults queue: the actor consumes one per execution, so the
        // retry trips over the second injection too.
        trainer
            .runtime()
            .inject_fault(0, Fault::ErrorAtInstr(0))
            .unwrap();
        match trainer.step_with_recovery(&data, policy) {
            Err(CoreError::Runtime(RuntimeError::Exec { actor: 0, .. })) => {}
            other => panic!("expected exhaustion with Exec on actor 0, got {other:?}"),
        }
        // And with faults cleared, the same trainer still trains.
        trainer.step_with_recovery(&data, fast_retry()).unwrap();
    });
}

/// The incarnation rule: twenty rounds of one death each on one
/// runtime — dying or killed, mid-step or between steps, every actor in
/// turn — and every round is `ActorDied`, a `recover` that respawns
/// exactly the dead actor, and a step bitwise equal to the
/// uninterrupted one. The departure of a replaced incarnation can reach
/// the driver after its replacement is up; it must never report the
/// replacement dead.
#[test]
fn twenty_deaths_never_report_a_replacement_dead() {
    with_watchdog("twenty_deaths", || {
        let seed = 98;
        let baseline = mpsc_baseline(seed);
        let faults = [
            Fault::DieAtInstr(1),
            Fault::KillAtInstr(1),
            Fault::DieNow,
            Fault::KillNow,
        ];
        for kind in transports() {
            let (trainer, data) = build_trainer_on(seed, kind);
            for round in 0..20 {
                let actor = round % N_STAGES;
                let fault = faults[(round / N_STAGES) % faults.len()].clone();
                let what = format!("{kind}/round {round}/actor {actor}/{fault:?}");
                trainer.runtime().inject_fault(actor, fault).unwrap();
                match trainer.step(&data) {
                    Err(CoreError::Runtime(RuntimeError::ActorDied { .. })) => {}
                    other => panic!("{what}: expected ActorDied, got {other:?}"),
                }
                let report = trainer.recover().unwrap();
                assert_eq!(report.respawned, vec![actor], "{what}");
                // `recover` put the initial state back fleet-wide, so
                // every round's step is the uninterrupted first step.
                let step = trainer
                    .step(&data)
                    .unwrap_or_else(|e| panic!("{what}: step after recover: {e}"));
                assert_eq!(step.losses, baseline, "{what}: not bitwise");
            }
        }
    });
}

/// Satellite regression for the step-timeout backstop: a worker that
/// vanishes with kill -9 semantics *while the driver is blocked waiting
/// for its reply* must surface as `ActorDied` or `Timeout` in bounded
/// time — no abort broadcast ever comes from a SIGKILLed process, so
/// detection rests on control-link EOF and heartbeat silence alone. Runs
/// on both socket fabrics (UDS and TCP loopback).
#[test]
fn kill9_while_driver_awaits_reply_is_bounded_then_recoverable() {
    with_watchdog("kill9_while_driver_awaits_reply", || {
        for kind in [TransportKind::UnixSocket, TransportKind::Tcp] {
            let seed = 93;
            let (trainer, data) = build_trainer_on(seed, kind);
            let baseline = mpsc_baseline(seed);
            // Kill mid-stream: the driver has already dispatched the
            // fused Execute and is waiting on actor 1's reply.
            trainer
                .runtime()
                .inject_fault(1, Fault::KillAtInstr(2))
                .unwrap();
            let t0 = Instant::now();
            match trainer.step(&data) {
                Err(CoreError::Runtime(
                    RuntimeError::ActorDied { .. } | RuntimeError::Timeout { .. },
                )) => {}
                other => panic!("{kind}: expected ActorDied/Timeout, got {other:?}"),
            }
            assert!(
                t0.elapsed() < DETECT_BUDGET,
                "{kind}: kill -9 took {:?} to surface (budget {DETECT_BUDGET:?})",
                t0.elapsed()
            );
            // recover() respawns the severed endpoint and the retry is
            // bitwise identical to the uninterrupted mpsc run.
            let recovered = trainer.step_with_recovery(&data, fast_retry()).unwrap();
            assert_eq!(
                recovered.losses, baseline,
                "{kind}: post-kill recovery is not bitwise identical"
            );
        }
    });
}

/// One-way partition on the reply path: the actor keeps *receiving*
/// commands but all its outbound frames toward the driver — replies and
/// heartbeats — are silently discarded. The driver must notice via
/// heartbeat silence and surface `Timeout` naming the partitioned
/// actor; `recover()` heals the wire and the retry is bitwise clean.
#[test]
fn one_way_partition_toward_driver_is_bounded_timeout_then_heals() {
    with_watchdog("partition_toward_driver", || {
        let seed = 94;
        let (trainer, data) = build_trainer_on(seed, wire());
        let baseline = mpsc_baseline(seed);
        trainer
            .runtime()
            .inject_fault(2, Fault::Partition { to: DRIVER_PEER })
            .unwrap();
        let t0 = Instant::now();
        match trainer.step(&data) {
            Err(CoreError::Runtime(RuntimeError::Timeout { actor })) => {
                assert_eq!(actor, 2, "timeout must name the partitioned actor");
            }
            // The abort that tears the step down can also reveal the
            // partitioned actor as hung-up to a peer first.
            Err(CoreError::Runtime(RuntimeError::ActorDied { .. })) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(
            t0.elapsed() < DETECT_BUDGET,
            "partition took {:?} to surface (budget {DETECT_BUDGET:?})",
            t0.elapsed()
        );
        // Recovery heals the partition (chaos state is wire state, not
        // actor state) and the retried step matches the oracle bitwise.
        let recovered = trainer.step_with_recovery(&data, fast_retry()).unwrap();
        assert_eq!(
            recovered.losses, baseline,
            "post-partition recovery is not bitwise identical"
        );
    });
}

/// Every driver exchange is bounded by the heartbeat, not only
/// `Execute`: a store query toward a worker whose replies and
/// heartbeats are partitioned away must give up at the heartbeat
/// threshold (0.5 s), far inside the step timeout it used to wait out,
/// and `recover()` must leave a clean fleet. On mpsc the partition is a
/// no-op and the query simply answers.
#[test]
fn store_query_toward_partitioned_worker_is_bounded_by_the_heartbeat() {
    with_watchdog("store_query_partition", || {
        let seed = 97;
        let baseline = mpsc_baseline(seed);
        for kind in transports() {
            let (trainer, data) = build_trainer_on(seed, kind);
            let step_timeout = Duration::from_secs(6);
            trainer.runtime().set_step_timeout(step_timeout);
            trainer
                .runtime()
                .inject_fault(2, Fault::Partition { to: DRIVER_PEER })
                .unwrap();
            let t0 = Instant::now();
            let answer = trainer.runtime().live_store_bytes();
            if kind == TransportKind::Mpsc {
                answer.unwrap();
            } else {
                assert_eq!(answer, Err(RuntimeError::Timeout { actor: 2 }), "{kind}");
                assert!(
                    t0.elapsed() < step_timeout / 2,
                    "{kind}: query waited {:?}, the step timeout is {step_timeout:?}",
                    t0.elapsed()
                );
                trainer.recover().unwrap();
            }
            assert_eq!(
                trainer.runtime().live_store_bytes().unwrap().len(),
                N_STAGES
            );
            assert_eq!(trainer.step(&data).unwrap().losses, baseline, "{kind}");
        }
    });
}

/// One-way partition between two *workers*: stage 0's activations
/// toward stage 1 vanish, both keep heartbeating, so the only backstop
/// is the step timeout (here shrunk via `set_step_timeout`). The step must fail in bounded time — not hang —
/// and recovery must heal the link and retry to bitwise parity.
#[test]
fn one_way_partition_between_workers_hits_step_timeout_then_heals() {
    with_watchdog("partition_between_workers", || {
        let seed = 95;
        let (trainer, data) = build_trainer_on(seed, wire());
        let baseline = mpsc_baseline(seed);
        trainer.runtime().set_step_timeout(Duration::from_secs(3));
        trainer
            .runtime()
            .inject_fault(0, Fault::Partition { to: 1 })
            .unwrap();
        let t0 = Instant::now();
        match trainer.step(&data) {
            Err(CoreError::Runtime(RuntimeError::Timeout { .. } | RuntimeError::Exec { .. })) => {}
            other => panic!("expected step-timeout failure, got {other:?}"),
        }
        assert!(
            t0.elapsed() < DETECT_BUDGET,
            "worker partition took {:?} to surface (budget {DETECT_BUDGET:?})",
            t0.elapsed()
        );
        // Keep the short timeout: the first attempt inside
        // `step_with_recovery` still runs against the active partition
        // (only `recover()` heals chaos state) and must fail fast too.
        let recovered = trainer.step_with_recovery(&data, fast_retry()).unwrap();
        assert_eq!(
            recovered.losses, baseline,
            "post-partition recovery is not bitwise identical"
        );
    });
}

/// Wire faults are *transparent* where they can be: a dropped
/// connection re-dials, a delayed frame arrives late but identical, and
/// on the in-process transport all three kinds are documented no-ops —
/// so one seeded chaos schedule can drive both fabrics and stay
/// bitwise-equal.
#[test]
fn drop_and_delay_are_bitwise_transparent_and_noops_on_mpsc() {
    with_watchdog("drop_delay_transparent", || {
        let seed = 96;
        let (twin, twin_data) = build_trainer(seed);
        let base1 = twin.step(&twin_data).unwrap().losses;
        let base2 = twin.step(&twin_data).unwrap().losses;
        for kind in transports() {
            let (trainer, data) = build_trainer_on(seed, kind);
            // A clean first step establishes every data link, so the
            // injected drop below severs a *live* connection.
            assert_eq!(trainer.step(&data).unwrap().losses, base1);
            trainer
                .runtime()
                .inject_fault(0, Fault::DropLink { peer: 1 })
                .unwrap();
            trainer
                .runtime()
                .inject_fault(1, Fault::DelayLink { peer: 2, ms: 40 })
                .unwrap();
            trainer
                .runtime()
                .inject_fault(2, Fault::DropLink { peer: 3 })
                .unwrap();
            let out = trainer.step(&data).unwrap_or_else(|e| {
                panic!("{kind}: drop/delay must be transparent, step failed: {e}")
            });
            assert_eq!(
                out.losses, base2,
                "{kind}: wire chaos changed training bits"
            );
            // On the wire, the forced drop really reconnected.
            if kind != TransportKind::Mpsc {
                assert!(
                    trainer.runtime().transport_stats().reconnects >= 1,
                    "{kind}: DropLink did not force a re-dial"
                );
            }
        }
    });
}
