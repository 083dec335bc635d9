//! Seeded chaos soak: many training steps under a deterministic,
//! PRNG-driven fault schedule — injected deaths (which permanently fold
//! actors via elastic rebalancing), task errors (which recover by
//! respawn), periodic on-disk checkpoints — must end **bit-identical**
//! to a fault-free twin run, with the object stores back at their
//! quiescent baseline (no leaked buffers across aborted epochs,
//! rebalances, or restores).

use std::fs;
use std::time::Duration;

use raxpp_core::{
    compile_train_step, CheckpointPolicy, CompileOptions, DpConfig, Optimizer, RetryPolicy,
    TpConfig, Trainer,
};
use raxpp_integration::with_watchdog;
use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_runtime::{Fault, TransportKind, DRIVER_PEER};
use raxpp_sched::gpipe;

const STEPS: usize = 10;

fn build(model: &raxpp_models::BuiltModel, schedule: &raxpp_sched::Schedule) -> Trainer {
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

#[test]
fn chaotic_run_matches_fault_free_run_bitwise() {
    with_watchdog("chaotic_run_matches_fault_free_run_bitwise", || {
        let schedule = gpipe(4, 4).unwrap();
        let model = mlp_chain(6, 3, 4, schedule.n_stages(), 71).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let data: Vec<Vec<Tensor>> = vec![(0..schedule.n_mubatches())
            .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
            .collect()];

        let ckpt_dir = std::env::temp_dir().join(format!("raxpp-chaos-{}", std::process::id()));
        let _ = fs::remove_dir_all(&ckpt_dir);

        let smooth = build(&model, &schedule);
        let chaotic = build(&model, &schedule);
        chaotic.set_checkpoint_policy(Some(CheckpointPolicy::new(&ckpt_dir, 3, 2)));
        let policy = RetryPolicy {
            max_retries: 3,
            backoff: Duration::ZERO,
            // One death = permanent loss: fold, don't respawn.
            rebalance_after: Some(1),
        };

        // Deterministic fault schedule: the PRNG picks, per step, no
        // fault (~1/2), a death (permanent: triggers a fold while >1
        // actor survives), or a task error (transient: recover+retry).
        let mut faults = StdRng::seed_from_u64(73);
        for step in 0..STEPS {
            let retired = chaotic.runtime().retired_actors();
            let alive: Vec<usize> = (0..schedule.n_actors())
                .filter(|a| !retired.contains(a))
                .collect();
            let target = alive[faults.gen_range(0..alive.len())];
            match faults.gen_range(0..4u32) {
                0 => {
                    let at = faults.gen_range(0..3usize);
                    chaotic
                        .runtime()
                        .inject_fault(target, Fault::DieAtInstr(at))
                        .unwrap();
                }
                1 => {
                    chaotic
                        .runtime()
                        .inject_fault(target, Fault::ErrorAtTask("bwd".into()))
                        .unwrap();
                }
                _ => {}
            }
            let a = smooth.step_with_recovery(&data, policy).unwrap();
            let b = chaotic.step_with_recovery(&data, policy).unwrap();
            assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
        }

        // The soak must have actually exercised the machinery.
        assert!(
            chaotic.metrics().counter("rebalances_total") >= 1,
            "fault schedule never triggered a rebalance — seed went stale"
        );
        assert!(chaotic.metrics().counter("recoveries_total") >= 1);
        assert!(chaotic.metrics().counter("checkpoints_total") >= 2);
        assert!(!chaotic.runtime().retired_actors().is_empty());

        // Final state is bit-identical to the fault-free twin.
        let pa = smooth.params().unwrap();
        let pb = chaotic.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
        }

        // Store hygiene: after a quiescent step the live bytes must be
        // exactly reproducible step-over-step — nothing leaked by the
        // aborted epochs, folds, or snapshot restores the soak caused.
        chaotic.step_with_recovery(&data, policy).unwrap();
        let baseline = chaotic.runtime().live_store_bytes().unwrap();
        chaotic.step_with_recovery(&data, policy).unwrap();
        let after = chaotic.runtime().live_store_bytes().unwrap();
        assert_eq!(baseline, after, "live store bytes drifted across steps");
        let retired = chaotic.runtime().retired_actors();
        for &a in &retired {
            assert_eq!(after[a], 0, "retired actor {a} still holds bytes");
        }

        let _ = fs::remove_dir_all(&ckpt_dir);
    });
}

/// The wire soak: the same pipeline on the Unix-socket transport under
/// the **extended** fault palette — the thread-mode kinds (deaths, task
/// errors) *plus* the wire-only kinds (kill -9 severs, forced
/// connection drops, frame delays, one-way partitions toward a peer or
/// toward the driver) — all drawn from one seeded PRNG. Every step and
/// the final parameters must stay bit-identical to a fault-free
/// **mpsc** twin: the wire, its failures, and its recovery are
/// transparent to training.
#[test]
fn wire_chaotic_run_matches_mpsc_fault_free_run_bitwise() {
    with_watchdog(
        "wire_chaotic_run_matches_mpsc_fault_free_run_bitwise",
        || {
            let schedule = gpipe(4, 4).unwrap();
            let model = mlp_chain(6, 3, 4, schedule.n_stages(), 81).unwrap();
            let mut rng = StdRng::seed_from_u64(82);
            let data: Vec<Vec<Tensor>> = vec![(0..schedule.n_mubatches())
                .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
                .collect()];

            let smooth = build(&model, &schedule); // resolves to mpsc by default
            let chaotic = {
                let t = compile_train_step(
                    &model.jaxpr,
                    model.n_params,
                    &schedule,
                    Optimizer::Sgd { lr: 0.05 },
                    CompileOptions {
                        transport: Some(TransportKind::UnixSocket),
                        ..CompileOptions::default()
                    },
                )
                .unwrap();
                t.init(&model.init).unwrap();
                t
            };
            // Partitions are only caught by the step-timeout backstop when
            // they cut a worker↔worker edge; shrink it so each such fault
            // costs seconds, not the 60 s default.
            chaotic.runtime().set_step_timeout(Duration::from_secs(3));
            let policy = RetryPolicy {
                max_retries: 3,
                backoff: Duration::ZERO,
                // Respawn, don't fold: the wire respawn path (sever →
                // re-bind → re-dial) is exactly what this soak targets.
                rebalance_after: None,
            };

            let n = schedule.n_actors();
            let mut faults = StdRng::seed_from_u64(83);
            for step in 0..STEPS {
                let target = faults.gen_range(0..n);
                match faults.gen_range(0..8u32) {
                    0 => {
                        let at = faults.gen_range(0..3usize);
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::DieAtInstr(at))
                            .unwrap();
                    }
                    1 => {
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::ErrorAtTask("bwd".into()))
                            .unwrap();
                    }
                    2 => {
                        let at = faults.gen_range(0..3usize);
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::KillAtInstr(at))
                            .unwrap();
                    }
                    3 => {
                        let peer = (target + 1) % n;
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::DropLink { peer })
                            .unwrap();
                    }
                    4 => {
                        let peer = (target + 1) % n;
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::DelayLink { peer, ms: 30 })
                            .unwrap();
                    }
                    5 => {
                        // One-way partition: half toward a neighbour (step
                        // timeout catches it), half toward the driver
                        // (heartbeat silence catches it).
                        let to = if faults.gen_range(0..2u32) == 0 {
                            (target + 1) % n
                        } else {
                            DRIVER_PEER
                        };
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::Partition { to })
                            .unwrap();
                    }
                    _ => {}
                }
                let a = smooth.step_with_recovery(&data, policy).unwrap();
                let b = chaotic.step_with_recovery(&data, policy).unwrap();
                assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
            }

            // The soak must have actually exercised the wire machinery.
            assert!(
                chaotic.metrics().counter("recoveries_total") >= 1,
                "fault schedule never triggered a recovery — seed went stale"
            );
            let stats = chaotic.runtime().transport_stats();
            assert!(stats.bytes_tx > 0 && stats.bytes_rx > 0);

            // Final state is bit-identical to the fault-free mpsc twin.
            let pa = smooth.params().unwrap();
            let pb = chaotic.params().unwrap();
            for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
                assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
            }
        },
    );
}

/// The tensor-parallel soak: a 2-way-sharded pipeline (8 shard actors)
/// under PRNG-driven deaths and task errors, **with elastic rebalance
/// enabled**: a death permanently folds the dead shard's whole host
/// group (both ranks) onto a survivor, collective groups remapping
/// rank-preservingly. The shrunken fleet must end bit-identical to an
/// *unsharded* fault-free twin — chaining the TP-vs-PP,
/// faulty-vs-smooth, and fold determinism contracts in one run — and
/// the survivors' stores must end holding exactly the bytes the fleet
/// held before the first fault (nothing an aborted epoch or a fold
/// touched is stranded).
#[test]
fn tp_chaotic_run_matches_unsharded_fault_free_run_bitwise() {
    with_watchdog(
        "tp_chaotic_run_matches_unsharded_fault_free_run_bitwise",
        || {
            let schedule = gpipe(4, 4).unwrap();
            let model = mlp_chain(6, 3, 4, schedule.n_stages(), 74).unwrap();
            let mut rng = StdRng::seed_from_u64(75);
            let data: Vec<Vec<Tensor>> = vec![(0..schedule.n_mubatches())
                .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
                .collect()];

            let smooth = build(&model, &schedule);
            let chaotic = {
                let t = compile_train_step(
                    &model.jaxpr,
                    model.n_params,
                    &schedule,
                    Optimizer::Sgd { lr: 0.05 },
                    CompileOptions {
                        tp: Some(TpConfig::model_parallel(2)),
                        ..CompileOptions::default()
                    },
                )
                .unwrap();
                t.init(&model.init).unwrap();
                t
            };
            let n_shard_actors = chaotic.runtime().program().actors.len();
            assert_eq!(n_shard_actors, 2 * schedule.n_actors());
            let policy = RetryPolicy {
                max_retries: 3,
                backoff: Duration::ZERO,
                // One death = permanent loss: fold the host group.
                rebalance_after: Some(1),
            };

            // One fault-free step fixes the resident set the soak must
            // return to.
            let warm = smooth.step(&data).unwrap().losses;
            assert_eq!(chaotic.step(&data).unwrap().losses, warm);
            let baseline: usize = chaotic.runtime().live_store_bytes().unwrap().iter().sum();

            let mut faults = StdRng::seed_from_u64(76);
            for step in 0..STEPS {
                let retired = chaotic.runtime().retired_actors();
                let alive: Vec<usize> = (0..n_shard_actors)
                    .filter(|a| !retired.contains(a))
                    .collect();
                let target = alive[faults.gen_range(0..alive.len())];
                match faults.gen_range(0..4u32) {
                    0 => {
                        let at = faults.gen_range(0..3usize);
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::DieAtInstr(at))
                            .unwrap();
                    }
                    1 => {
                        chaotic
                            .runtime()
                            .inject_fault(target, Fault::ErrorAtTask("bwd".into()))
                            .unwrap();
                    }
                    _ => {}
                }
                let a = smooth.step_with_recovery(&data, policy).unwrap();
                let b = chaotic.step_with_recovery(&data, policy).unwrap();
                assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
            }

            assert!(
                chaotic.metrics().counter("recoveries_total") >= 1,
                "fault schedule never triggered a recovery — seed went stale"
            );
            assert!(
                chaotic.metrics().counter("rebalances_total") >= 1,
                "fault schedule never triggered a TP fold — seed went stale"
            );
            assert!(chaotic.metrics().counter("tp_collectives_total") > 0);
            // Folds retire whole host groups: every retired actor's
            // rank partner is retired with it.
            let retired = chaotic.runtime().retired_actors();
            assert!(!retired.is_empty());
            for &a in &retired {
                assert!(
                    retired.contains(&(a ^ 1)),
                    "actor {a} folded without its rank partner"
                );
            }
            let after = chaotic.runtime().live_store_bytes().unwrap();
            assert!(retired.iter().all(|&a| after[a] == 0));
            assert_eq!(
                after.iter().sum::<usize>(),
                baseline,
                "live store bytes drifted across aborts/folds"
            );

            let pa = smooth.params().unwrap();
            let pb = chaotic.params().unwrap();
            for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
                assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
            }
        },
    );
}

/// The data-parallel soak: a dp=2-replicated, batch-sharded pipeline
/// (8 raw actors, each replica consuming half the global batch) under
/// the same PRNG-driven chaos, with elastic rebalance enabled — a death
/// folds the dead actor's pipeline host in **both** replicas, keeping
/// the replica streams aligned and the DP collective groups intact.
/// Must end bit-identical to a fault-free twin of the **same degree**
/// (tier 1 of `docs/determinism.md`) with the live store bytes back at
/// their pre-fault total.
#[test]
fn dp_chaotic_run_matches_fault_free_run_bitwise() {
    with_watchdog("dp_chaotic_run_matches_fault_free_run_bitwise", || {
        let schedule = gpipe(4, 4).unwrap();
        let model = mlp_chain(6, 3, 4, schedule.n_stages(), 77).unwrap();
        let mut rng = StdRng::seed_from_u64(78);
        // dp=2 doubles the global batch: 2 × n_mubatches() tensors.
        let data: Vec<Vec<Tensor>> = vec![(0..2 * schedule.n_mubatches())
            .map(|_| Tensor::randn([3, 6], 1.0, &mut rng))
            .collect()];

        let build_dp = || {
            let t = compile_train_step(
                &model.jaxpr,
                model.n_params,
                &schedule,
                Optimizer::Sgd { lr: 0.05 },
                CompileOptions {
                    dp: Some(DpConfig::replicas(2)),
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            t.init(&model.init).unwrap();
            t
        };
        let smooth = build_dp();
        let chaotic = build_dp();
        let n_raw = chaotic.runtime().program().actors.len();
        assert_eq!(n_raw, 2 * schedule.n_actors());
        let base = schedule.n_actors();
        let policy = RetryPolicy {
            max_retries: 3,
            backoff: Duration::ZERO,
            rebalance_after: Some(1),
        };

        // One fault-free step fixes the resident set the soak must
        // return to.
        let warm = smooth.step(&data).unwrap().losses;
        assert_eq!(chaotic.step(&data).unwrap().losses, warm);
        let baseline: usize = chaotic.runtime().live_store_bytes().unwrap().iter().sum();

        let mut faults = StdRng::seed_from_u64(79);
        for step in 0..STEPS {
            let retired = chaotic.runtime().retired_actors();
            let alive: Vec<usize> = (0..n_raw).filter(|a| !retired.contains(a)).collect();
            let target = alive[faults.gen_range(0..alive.len())];
            match faults.gen_range(0..4u32) {
                0 => {
                    let at = faults.gen_range(0..3usize);
                    chaotic
                        .runtime()
                        .inject_fault(target, Fault::DieAtInstr(at))
                        .unwrap();
                }
                1 => {
                    chaotic
                        .runtime()
                        .inject_fault(target, Fault::ErrorAtTask("bwd".into()))
                        .unwrap();
                }
                _ => {}
            }
            let a = smooth.step_with_recovery(&data, policy).unwrap();
            let b = chaotic.step_with_recovery(&data, policy).unwrap();
            assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
        }

        assert!(
            chaotic.metrics().counter("recoveries_total") >= 1,
            "fault schedule never triggered a recovery — seed went stale"
        );
        assert!(
            chaotic.metrics().counter("rebalances_total") >= 1,
            "fault schedule never triggered a DP fold — seed went stale"
        );
        assert!(chaotic.metrics().counter("dp_collectives_total") > 0);
        // Folds act replica-uniformly: actor a retired ⇔ its copy in
        // the other replica retired.
        let retired = chaotic.runtime().retired_actors();
        assert!(!retired.is_empty());
        for &a in &retired {
            let twin = (a + base) % (2 * base);
            assert!(
                retired.contains(&twin),
                "actor {a} folded without its replica twin {twin}"
            );
        }
        let after = chaotic.runtime().live_store_bytes().unwrap();
        assert!(retired.iter().all(|&a| after[a] == 0));
        assert_eq!(
            after.iter().sum::<usize>(),
            baseline,
            "live store bytes drifted across aborts/folds"
        );

        let pa = smooth.params().unwrap();
        let pb = chaotic.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
        }
    });
}
