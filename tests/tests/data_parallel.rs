//! Executable data parallelism (PP×TP×DP composition) under **batch
//! sharding**: each replica consumes a disjoint `1/d` slice of the
//! global batch and the DP all-reduce is a true gradient sum. The
//! determinism contract is two-tier (`docs/determinism.md`):
//!
//! * **Tier 1 — fixed degree, bitwise.** At any fixed `d`, runs are
//!   bitwise-reproducible through faults, recovery, elastic rebalance,
//!   checkpoint save/resume, and across transports (the collective
//!   exchange rides in-process mpsc and Unix sockets alike).
//! * **Tier 2 — across degrees, bounded.** Step-0 (pre-update)
//!   per-microbatch losses are bitwise equal for every `d` over the
//!   same global batch; after updates, losses and parameters agree
//!   within fp32-summation bounds (the gradient fold associates
//!   differently for different `d`).

use std::time::Duration;

use raxpp_core::{
    compile_train_step, CompileOptions, DpConfig, Optimizer, RetryPolicy, TpConfig, Trainer,
};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::{Fault, Kind, TransportKind};
use raxpp_sched::{gpipe, one_f1b, DpMap, Schedule, TpMap};
use raxpp_taskgraph::{CollectiveAxis, Instr};

/// A trainer on the environment's default transport (`RAXPP_TRANSPORT`).
fn build(
    model: &BuiltModel,
    schedule: &Schedule,
    tp: usize,
    dp: Option<DpConfig>,
    optimizer: Optimizer,
) -> Trainer {
    build_on(model, schedule, tp, dp, optimizer, None)
}

/// A trainer on an explicit transport.
fn build_on(
    model: &BuiltModel,
    schedule: &Schedule,
    tp: usize,
    dp: Option<DpConfig>,
    optimizer: Optimizer,
    transport: Option<TransportKind>,
) -> Trainer {
    let t = compile_train_step(
        &model.jaxpr,
        model.n_params,
        schedule,
        optimizer,
        CompileOptions {
            tp: (tp > 1).then(|| TpConfig::model_parallel(tp)),
            dp,
            transport,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    t.init(&model.init).unwrap();
    t
}

/// One global batch of `n_mubatches` microbatches — the same tensors
/// whatever DP degree consumes them.
fn mb_data(n_mubatches: usize, width: usize, batch: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![(0..n_mubatches)
        .map(|_| Tensor::randn([batch, width], 1.0, &mut rng))
        .collect()]
}

fn count_dp_collectives(t: &Trainer) -> usize {
    t.runtime()
        .program()
        .actors
        .iter()
        .flatten()
        .filter(|i| {
            matches!(
                i,
                Instr::Collective {
                    axis: CollectiveAxis::Dp,
                    ..
                }
            )
        })
        .count()
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * x.abs().max(1.0),
            "{what}[{i}]: {x} vs {y} beyond tolerance {tol}"
        );
    }
}

/// Tier 2: sharding the same global batch over `d` replicas reproduces
/// the dp=1 step-0 losses bitwise (pre-update forwards are independent
/// per microbatch), tracks the dp=1 trajectory within fp32-summation
/// bounds afterwards, and executes exactly `N/d` microbatches per
/// replica through real DP-axis gradient-sum collectives.
#[test]
fn dp_shards_the_batch_and_tracks_dp1_within_bounds() {
    const GLOBAL_MB: usize = 8;
    let optimizer = Optimizer::Momentum {
        lr: 0.05,
        momentum: 0.9,
    };
    for (use_gpipe, seed) in [(true, 181u64), (false, 182)] {
        let sched = |n: usize| {
            if use_gpipe {
                gpipe(2, n).unwrap()
            } else {
                one_f1b(2, n).unwrap()
            }
        };
        let model = mlp_chain(8, 2, 2, 2, seed).unwrap();
        let data = mb_data(GLOBAL_MB, 8, 2, seed + 1);

        let base_schedule: Schedule = sched(GLOBAL_MB);
        let baseline = build(&model, &base_schedule, 1, None, optimizer);
        let mut base_losses = Vec::new();
        for _ in 0..3 {
            base_losses.push(baseline.step(&data).unwrap().losses);
        }
        let base_params = baseline.params().unwrap();

        for (dp, tp) in [(2usize, 1usize), (4, 1), (2, 2)] {
            // The schedule describes one replica: N/d local microbatches.
            let schedule: Schedule = sched(GLOBAL_MB / dp);
            let trainer = build(
                &model,
                &schedule,
                tp,
                Some(DpConfig::replicas(dp)),
                optimizer,
            );
            assert_eq!(trainer.dp_degree(), dp);
            assert_eq!(
                trainer.n_mubatches(),
                GLOBAL_MB,
                "dp={dp}: global batch must be d × the per-replica schedule"
            );
            let program = trainer.runtime().program();
            let base = TpMap::new(tp).n_shard_actors(schedule.n_actors());
            assert_eq!(
                program.actors.len(),
                DpMap::new(dp, base).n_actors(),
                "{} dp={dp} tp={tp}: one stream per (replica, actor, rank)",
                schedule.name()
            );
            assert!(
                count_dp_collectives(&trainer) > 0,
                "dp={dp} tp={tp}: no DP collectives lowered"
            );

            // Step 0: pre-update forwards — bitwise across degrees.
            let got = trainer.step(&data).unwrap();
            assert_eq!(
                got.losses,
                base_losses[0],
                "{} dp={dp} tp={tp}: step-0 losses not bit-identical",
                schedule.name()
            );
            // Later steps: the gradient sum associates differently, so
            // the trajectory agrees within bounds, not bitwise.
            for (step, want) in base_losses.iter().enumerate().skip(1) {
                let got = trainer.step(&data).unwrap();
                assert_close(
                    &got.losses,
                    want,
                    1e-4,
                    &format!("{} dp={dp} tp={tp} step {step} losses", schedule.name()),
                );
                // Executed, not just compiled: every actor of every
                // replica ran its replica's N/d forward tasks, no more.
                for (a, profile) in got.stats.profiles.iter().enumerate() {
                    assert_eq!(
                        profile.get(Kind::Fwd).map(|(_, count)| count as usize),
                        Some(GLOBAL_MB / dp),
                        "{} dp={dp} tp={tp} step {step}: actor {a} forward tasks != N/d",
                        schedule.name()
                    );
                }
            }
            assert!(
                trainer.metrics().counter("dp_collectives_total") > 0,
                "dp={dp} tp={tp}: no DP collectives executed"
            );
            assert!(
                trainer.metrics().counter("dp_bytes_wire") > 0,
                "dp={dp} tp={tp}: no DP wire bytes recorded"
            );
            assert_eq!(
                trainer.metrics().gauge("dp_microbatches_per_replica"),
                Some((GLOBAL_MB / dp) as f64),
                "dp={dp} tp={tp}: wrong per-replica microbatch accounting"
            );
            let params = trainer.params().unwrap();
            for (p, (a, b)) in params.iter().zip(&base_params).enumerate() {
                assert_close(
                    a.data(),
                    b.data(),
                    1e-4,
                    &format!("{} dp={dp} tp={tp} param {p}", schedule.name()),
                );
            }
        }
    }
}

/// Tier 1: at a fixed degree, two identical runs — one on mpsc, one
/// over Unix sockets — are bitwise equal, losses and parameters, step
/// after step.
#[test]
fn dp_runs_are_bitwise_reproducible_at_fixed_degree() {
    const GLOBAL_MB: usize = 4;
    let optimizer = Optimizer::Momentum {
        lr: 0.05,
        momentum: 0.9,
    };
    let schedule = gpipe(2, GLOBAL_MB / 2).unwrap();
    let model = mlp_chain(8, 2, 2, 2, 241).unwrap();
    let data = mb_data(GLOBAL_MB, 8, 2, 242);

    let on = |transport| {
        let dp = Some(DpConfig::replicas(2));
        build_on(&model, &schedule, 2, dp, optimizer, Some(transport))
    };
    let mpsc = on(TransportKind::Mpsc);
    let uds = on(TransportKind::UnixSocket);
    for step in 0..3 {
        let a = mpsc.step(&data).unwrap();
        let b = uds.step(&data).unwrap();
        assert_eq!(a.losses, b.losses, "step {step}: mpsc vs uds diverged");
    }
    let pa = mpsc.params().unwrap();
    let pb = uds.params().unwrap();
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "param {p}: mpsc vs uds diverged");
    }
}

/// ZeRO-1 is a pure re-layout of the same-degree update:
/// reduce-scattering the gradient on its first dim, updating the
/// replica's block, and all-gathering the parameter blocks is bitwise
/// equal to the plain-DP full update — at the same degree, with twice
/// the DP collectives, and composed with tensor parallelism.
#[test]
fn zero1_matches_plain_dp_bitwise_and_composes_with_tp() {
    const GLOBAL_MB: usize = 8;
    let optimizer = Optimizer::adam(0.01);
    let model = mlp_chain(8, 2, 2, 2, 191).unwrap();
    let data = mb_data(GLOBAL_MB, 8, 2, 192);

    for (dp, tp) in [(2usize, 1usize), (4, 1), (2, 2)] {
        let schedule = gpipe(2, GLOBAL_MB / dp).unwrap();
        let plain = build(
            &model,
            &schedule,
            tp,
            Some(DpConfig::replicas(dp)),
            optimizer,
        );
        let sharded = build(&model, &schedule, tp, Some(DpConfig::zero1(dp)), optimizer);
        assert!(sharded.zero1());
        assert_eq!(sharded.tp_degree(), tp);
        assert_eq!(
            count_dp_collectives(&sharded),
            2 * count_dp_collectives(&plain),
            "dp={dp} tp={tp}: ZeRO-1 must add a parameter-fold collective per update"
        );
        for step in 0..3 {
            let a = plain.step(&data).unwrap();
            let b = sharded.step(&data).unwrap();
            assert_eq!(
                a.losses, b.losses,
                "zero1 dp={dp} tp={tp} step {step}: losses not bit-identical"
            );
        }
        let pa = plain.params().unwrap();
        let pb = sharded.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(
                a.data(),
                b.data(),
                "zero1 dp={dp} tp={tp}: param {p} not bit-identical"
            );
        }
    }
}

/// ZeRO-1 moves the bytes ZeRO defines. Per step the fleet sends
/// `(d−1)·|P|` in the gradient reduce-scatter (each replica sends every
/// peer that peer's block) and `(d−1)·|P|` in the parameter all-gather
/// (each replica sends its block to every peer): `2(d−1)·|P|` in all,
/// uneven blocks included — where the plain-DP all-reduce sends
/// `d(d−1)·|P|`.
#[test]
fn zero1_dp_bytes_are_one_reduce_scatter_and_one_all_gather() {
    let optimizer = Optimizer::adam(0.01);
    // Width 6 over 4 replicas: blocks of 2, 2, 1 and 1 rows.
    for (width, dp) in [(8usize, 2u64), (8, 4), (6, 4)] {
        let model = mlp_chain(width, 2, 2, 2, 261).unwrap();
        let data = mb_data(2 * dp as usize, width, 2, 262);
        let param_bytes: u64 = model.init.iter().map(|t| 4 * t.numel() as u64).sum();
        for (cfg, want) in [
            (DpConfig::zero1(dp as usize), 2 * (dp - 1) * param_bytes),
            (DpConfig::replicas(dp as usize), dp * (dp - 1) * param_bytes),
        ] {
            let trainer = build(&model, &gpipe(2, 2).unwrap(), 1, Some(cfg), optimizer);
            trainer.step(&data).unwrap();
            assert_eq!(
                trainer.metrics().counter("dp_bytes_wire"),
                want,
                "width={width} {cfg:?}: DP bytes per step"
            );
        }
    }
}

/// `fetch_grads` under ZeRO-1 reads each replica's block of the summed
/// gradient and concatenates them replica-ascending: bitwise the
/// gradient plain DP fetches whole.
#[test]
fn zero1_fetched_grads_match_plain_dp_bitwise() {
    let optimizer = Optimizer::adam(0.01);
    let model = mlp_chain(6, 2, 2, 2, 271).unwrap();
    for dp in [2usize, 4] {
        let data = mb_data(2 * dp, 6, 2, 272);
        let grads = |cfg| {
            let opts = CompileOptions {
                dp: Some(cfg),
                fetch_grads: true,
                ..CompileOptions::default()
            };
            let schedule = gpipe(2, 2).unwrap();
            let t = compile_train_step(&model.jaxpr, model.n_params, &schedule, optimizer, opts)
                .unwrap();
            t.init(&model.init).unwrap();
            (0..2)
                .map(|_| t.step(&data).unwrap().grads.expect("grads fetched"))
                .collect::<Vec<_>>()
        };
        let (plain, zero1) = (grads(DpConfig::replicas(dp)), grads(DpConfig::zero1(dp)));
        for (step, (a, b)) in plain.iter().zip(&zero1).enumerate() {
            for (p, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(x.shape(), y.shape(), "dp={dp} step {step}: grad {p} shape");
                assert_eq!(x.data(), y.data(), "dp={dp} step {step}: grad {p} differs");
            }
        }
    }
}

/// Checkpoints are DP-layout-invariant at a fixed trajectory: captured
/// state is always full-shape (ZeRO-1 first-dim moment slices are
/// reassembled replica-ascending), so the same-degree ZeRO-1 and
/// plain-DP checkpoints are byte-identical, and a dp=2 checkpoint
/// restores at dp=1 and dp=4 — optimizer state re-slices per replica —
/// with the resumed trajectories agreeing within tier-2 bounds.
#[test]
fn dp_checkpoints_are_portable_across_degrees() {
    const GLOBAL_MB: usize = 4;
    let optimizer = Optimizer::adam(0.01);
    let model = mlp_chain(8, 2, 2, 2, 201).unwrap();
    let data = mb_data(GLOBAL_MB, 8, 2, 202);

    let plain = build(
        &model,
        &gpipe(2, 2).unwrap(),
        1,
        Some(DpConfig::replicas(2)),
        optimizer,
    );
    let sharded = build(
        &model,
        &gpipe(2, 2).unwrap(),
        1,
        Some(DpConfig::zero1(2)),
        optimizer,
    );
    for _ in 0..2 {
        plain.step(&data).unwrap();
        sharded.step(&data).unwrap();
    }
    let mut ck_plain = Vec::new();
    let mut ck = Vec::new();
    plain.save_checkpoint(&mut ck_plain).unwrap();
    sharded.save_checkpoint(&mut ck).unwrap();
    assert_eq!(
        ck_plain, ck,
        "same-degree ZeRO-1 checkpoint differs from plain DP"
    );
    let ck_params = sharded.params().unwrap();

    // Same-degree resume continues bitwise (tier 1).
    let resumed = build(
        &model,
        &gpipe(2, 2).unwrap(),
        1,
        Some(DpConfig::zero1(2)),
        optimizer,
    );
    resumed.restore_checkpoint(&ck[..]).unwrap();
    let want = sharded.step(&data).unwrap();
    let got = resumed.step(&data).unwrap();
    assert_eq!(got.losses, want.losses, "same-degree resume diverged");

    // Cross-degree resume: dp=2 state adopted at dp=1 and dp=4 (the
    // full-shape moments re-slice into 1 and 4 first-dim shards), then
    // one more step over the same global batch lands within bounds.
    for dp in [1usize, 4] {
        let schedule = gpipe(2, GLOBAL_MB / dp).unwrap();
        let other = build(
            &model,
            &schedule,
            1,
            (dp > 1).then(|| DpConfig::zero1(dp)),
            optimizer,
        );
        other.restore_checkpoint(&ck[..]).unwrap();
        // Restored parameters are the checkpointed ones, bit for bit.
        for (p, (a, b)) in other.params().unwrap().iter().zip(&ck_params).enumerate() {
            assert_eq!(a.data(), b.data(), "dp={dp}: restored param {p} differs");
        }
        let got = other.step(&data).unwrap();
        assert_close(
            &got.losses,
            &want.losses,
            1e-4,
            &format!("dp={dp} post-resume losses"),
        );
    }
}

/// Tier 1 through faults: killing a replica actor mid-stream — aimed at
/// its first DP collective, so its group peers are blocked in the
/// exchange — must cascade-abort, respawn, restore, and stay
/// bit-identical to an uninterrupted run of the same degree, within a
/// bounded wall-clock.
#[test]
fn dp_replica_death_mid_all_reduce_recovers_bitwise() {
    let optimizer = Optimizer::Momentum {
        lr: 0.05,
        momentum: 0.9,
    };
    let schedule = gpipe(2, 2).unwrap();
    let model = mlp_chain(8, 2, 2, 2, 211).unwrap();
    let data = mb_data(4, 8, 2, 212);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };

    let smooth = build(&model, &schedule, 1, Some(DpConfig::replicas(2)), optimizer);
    let bumpy = build(&model, &schedule, 1, Some(DpConfig::replicas(2)), optimizer);
    // Replica 1's copy of the update owner: find a raw actor in the
    // second replica block whose stream has a DP collective, and aim
    // the fault at that instruction.
    let program = bumpy.runtime().program();
    let base = program.actors.len() / 2;
    let (victim, coll_at) = (base..2 * base)
        .find_map(|a| {
            program.actors[a]
                .iter()
                .position(|i| {
                    matches!(
                        i,
                        Instr::Collective {
                            axis: CollectiveAxis::Dp,
                            ..
                        }
                    )
                })
                .map(|idx| (a, idx))
        })
        .expect("replica 1 has a DP collective");

    let t0 = std::time::Instant::now();
    let mut baseline = Vec::new();
    for step in 0..3 {
        if step == 1 {
            baseline = bumpy.runtime().live_store_bytes().unwrap();
            bumpy
                .runtime()
                .inject_fault(victim, Fault::DieAtInstr(coll_at))
                .unwrap();
        }
        let a = smooth.step_with_recovery(&data, policy).unwrap();
        let b = bumpy.step_with_recovery(&data, policy).unwrap();
        assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
    }
    assert!(
        bumpy.metrics().counter("recoveries_total") >= 1,
        "fault was never recovered"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "DP fault recovery was not bounded: {:?}",
        t0.elapsed()
    );
    let pa = smooth.params().unwrap();
    let pb = bumpy.params().unwrap();
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
    }
    // Nothing the aborted epoch staged outlives recovery.
    assert_eq!(
        bumpy.runtime().live_store_bytes().unwrap(),
        baseline,
        "live store bytes not back at the pre-fault baseline"
    );
}

/// Tier 1 through elastic rebalance: folding a dead host away retires
/// its actors in **every** replica uniformly, DP groups remap onto the
/// survivors, and training continues bit-identical to an unfolded run
/// of the same degree.
#[test]
fn dp_rebalance_folds_bitwise() {
    let optimizer = Optimizer::Sgd { lr: 0.05 };
    let schedule = gpipe(2, 2).unwrap();
    let model = mlp_chain(8, 2, 2, 2, 221).unwrap();
    let data = mb_data(4, 8, 2, 222);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };

    let smooth = build(&model, &schedule, 2, Some(DpConfig::replicas(2)), optimizer);
    let bumpy = build(&model, &schedule, 2, Some(DpConfig::replicas(2)), optimizer);
    let a = smooth.step_with_recovery(&data, policy).unwrap();
    let b = bumpy.step_with_recovery(&data, policy).unwrap();
    assert_eq!(a.losses, b.losses, "pre-fold step diverged");

    // dp=2 × tp=2 × 2 hosts = 8 raw actors; killing raw actor 2 (host
    // 1, rank 0, replica 0) must fold host 1 in BOTH replicas: retired
    // = {2, 3, 6, 7}.
    let baseline = bumpy.runtime().live_store_bytes().unwrap();
    let report = bumpy.rebalance(&[2]).unwrap();
    assert_eq!(
        report.retired,
        vec![2, 3, 6, 7],
        "fold must retire the host group in every replica"
    );
    for step in 1..3 {
        let a = smooth.step_with_recovery(&data, policy).unwrap();
        let b = bumpy.step_with_recovery(&data, policy).unwrap();
        assert_eq!(
            a.losses, b.losses,
            "step {step}: losses diverged after fold"
        );
    }
    let pa = smooth.params().unwrap();
    let pb = bumpy.params().unwrap();
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "param {p} not bit-identical after fold");
    }
    for i in bumpy.runtime().program().actors.iter().flatten() {
        if let Instr::Collective { group, .. } = i {
            assert!(
                group.iter().all(|m| ![2, 3, 6, 7].contains(m)),
                "collective group references a retired actor: {group:?}"
            );
        }
    }
    // The fold moves the resident set, it neither leaks nor loses any.
    let after = bumpy.runtime().live_store_bytes().unwrap();
    assert!(report.retired.iter().all(|&a| after[a] == 0));
    assert_eq!(
        after.iter().sum::<usize>(),
        baseline.iter().sum::<usize>(),
        "live store bytes not back at the pre-fold baseline"
    );
}

/// The full tier-1 sweep in one trajectory: a dp=2 × tp=2 ZeRO-1 run
/// that survives an injected death and an elastic fold stays bitwise
/// equal — losses every step, parameters at the end — to an undisturbed
/// mpsc run of the same degree, whichever fabric its collective
/// exchanges ride (mpsc, Unix sockets).
#[test]
fn dp_fixed_degree_determinism_sweep() {
    let optimizer = Optimizer::adam(0.01);
    let schedule = gpipe(2, 2).unwrap();
    let model = mlp_chain(8, 2, 2, 2, 251).unwrap();
    let data = mb_data(4, 8, 2, 252);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };

    for transport in [TransportKind::Mpsc, TransportKind::UnixSocket] {
        let zero1 = || Some(DpConfig::zero1(2));
        let smooth = build_on(
            &model,
            &schedule,
            2,
            zero1(),
            optimizer,
            Some(TransportKind::Mpsc),
        );
        let chaos = build_on(&model, &schedule, 2, zero1(), optimizer, Some(transport));

        let mut baseline = 0;
        for step in 0..4 {
            match step {
                // Step 1: kill a replica-1 actor mid-step, recover bitwise.
                1 => {
                    baseline = chaos.runtime().live_store_bytes().unwrap().iter().sum();
                    chaos
                        .runtime()
                        .inject_fault(4, Fault::DieAtInstr(1))
                        .unwrap()
                }
                // Step 2: fold host 1 away in both replicas.
                2 => {
                    chaos.rebalance(&[2]).unwrap();
                }
                _ => {}
            }
            let a = smooth.step_with_recovery(&data, policy).unwrap();
            let b = chaos.step_with_recovery(&data, policy).unwrap();
            assert_eq!(
                a.losses, b.losses,
                "{transport} step {step}: losses diverged"
            );
        }
        let pa = smooth.params().unwrap();
        let pb = chaos.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(
                a.data(),
                b.data(),
                "{transport}: param {p} diverged after the sweep"
            );
        }
        // Neither the aborted epoch nor the fold leaked or lost a byte.
        assert_eq!(
            chaos
                .runtime()
                .live_store_bytes()
                .unwrap()
                .iter()
                .sum::<usize>(),
            baseline,
            "{transport}: live store bytes not back at the pre-fault baseline"
        );
    }
}
