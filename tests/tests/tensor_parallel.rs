//! Executable tensor parallelism (PP×TP composition): a pipeline whose
//! stages are sharded to a tensor-parallel degree must train end-to-end
//! **bit-identical** to the unsharded pipeline — same losses, same
//! parameters, same checkpoints — while actually exchanging data through
//! real collectives, and the whole composition must survive fault
//! injection and recovery. A collective is one exchange of ordinary
//! messages on whatever fabric the fleet runs; the twins below pin that the
//! transports are interchangeable bit for bit.

use std::time::Duration;

use raxpp_core::{compile_train_step, CompileOptions, Optimizer, RetryPolicy, TpConfig, Trainer};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{Prim, Tensor};
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::{ActorProfile, Fault, Kind, StepTrace, TransportKind};
use raxpp_sched::{gpipe, interleaved_1f1b, one_f1b, zero_bubble_h1, Schedule, TpMap};
use raxpp_taskgraph::{CollectiveAxis, CollectiveKind, Instr};

/// The in-process fabric and a socket one: every collective rides the
/// same message exchange on both.
const TRANSPORTS: [TransportKind; 2] = [TransportKind::Mpsc, TransportKind::UnixSocket];

/// A trainer on the environment's default transport (`RAXPP_TRANSPORT`,
/// so the socket gate of `scripts/verify.sh` runs this whole suite
/// over Unix sockets).
fn build(model: &BuiltModel, schedule: &Schedule, tp: usize) -> Trainer {
    build_on(model, schedule, tp, None)
}

fn build_on(
    model: &BuiltModel,
    schedule: &Schedule,
    tp: usize,
    transport: Option<TransportKind>,
) -> Trainer {
    let t = compile_train_step(
        &model.jaxpr,
        model.n_params,
        schedule,
        Optimizer::Sgd { lr: 0.05 },
        CompileOptions {
            tp: Some(TpConfig::model_parallel(tp)),
            transport,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    assert_eq!(t.tp_degree(), tp);
    t.init(&model.init).unwrap();
    t
}

fn count_spans(trace: &StepTrace, kind: &str) -> usize {
    let spans = trace.actors.iter().flat_map(|a| &a.spans);
    spans.filter(|s| s.kind == kind).count()
}

fn mb_data(schedule: &Schedule, width: usize, batch: usize, seed: u64) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([batch, width], 1.0, &mut rng))
        .collect()]
}

/// The headline contract: for every (schedule × tp degree) cell, losses
/// and updated parameters are bit-for-bit equal to the tp=1 run of the
/// same model, and the sharded program really contains per-rank
/// collective instructions.
#[test]
fn tp_training_is_bitwise_identical_across_degrees() {
    for (schedule, seed) in [
        (gpipe(4, 4).unwrap(), 81),
        (one_f1b(4, 4).unwrap(), 82),
        (interleaved_1f1b(2, 4, 2).unwrap(), 83),
        (zero_bubble_h1(4, 4).unwrap(), 84),
    ] {
        let model = mlp_chain(8, 2, 4, schedule.n_stages(), seed).unwrap();
        let data = mb_data(&schedule, 8, 2, seed + 1);

        let baseline = build(&model, &schedule, 1);
        let mut base_losses = Vec::new();
        for _ in 0..3 {
            base_losses.push(baseline.step(&data).unwrap().losses);
        }
        let base_params = baseline.params().unwrap();

        for tp in [2usize, 4] {
            let trainer = build(&model, &schedule, tp);
            let program = trainer.runtime().program();
            assert_eq!(
                program.actors.len(),
                TpMap::new(tp).n_shard_actors(schedule.n_actors()),
                "{} tp={tp}: one stream per (actor, rank)",
                schedule.name()
            );
            let n_tp_allreduce = program
                .actors
                .iter()
                .flatten()
                .filter(|i| {
                    matches!(
                        i,
                        Instr::Collective {
                            kind: CollectiveKind::AllReduce,
                            axis: CollectiveAxis::Tp,
                            ..
                        }
                    )
                })
                .count();
            let n_pad = program
                .jaxprs
                .iter()
                .flat_map(|j| j.eqns())
                .filter(|e| matches!(e.prim, Prim::PadLast { .. }))
                .count();
            let n_allgather = program
                .actors
                .iter()
                .flatten()
                .filter(|i| {
                    matches!(
                        i,
                        Instr::Collective {
                            kind: CollectiveKind::AllGather,
                            ..
                        }
                    )
                })
                .count();
            assert_eq!(
                n_tp_allreduce, 0,
                "tp={tp}: all-gather is the only reassembly"
            );
            assert_eq!(n_pad, 0, "tp={tp}: a sharded output is its own block");
            assert!(n_allgather > 0, "tp={tp}: no all-gather lowered");

            for (step, want) in base_losses.iter().enumerate() {
                let got = trainer.step(&data).unwrap();
                assert_eq!(
                    &got.losses,
                    want,
                    "{} tp={tp} step {step}: losses not bit-identical",
                    schedule.name()
                );
            }
            assert!(
                trainer.metrics().counter("tp_collectives_total") > 0,
                "tp={tp}: no collectives executed"
            );
            assert!(trainer.metrics().counter("tp_bytes_wire") > 0);
            let params = trainer.params().unwrap();
            for (p, (a, b)) in params.iter().zip(&base_params).enumerate() {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{} tp={tp}: param {p} not bit-identical",
                    schedule.name()
                );
            }
        }
    }
}

/// Every microbatch's stage hand-off reassembles a full activation, so a
/// traced TP step must record at least one `collective` span per
/// microbatch per rank — every one of them an all-gather — and tracing
/// must not perturb a single bit.
#[test]
fn tp_step_records_collective_spans() {
    let schedule = one_f1b(2, 4).unwrap();
    let model = mlp_chain(8, 2, 2, schedule.n_stages(), 83).unwrap();
    let data = mb_data(&schedule, 8, 2, 84);

    let plain = build(&model, &schedule, 2);
    let want = plain.step(&data).unwrap().losses;

    let traced = build(&model, &schedule, 2);
    let (result, trace) = traced.step_traced(&data).unwrap();
    assert_eq!(result.losses, want, "tracing perturbed a TP step");

    let spans: Vec<&str> = trace
        .actors
        .iter()
        .flat_map(|a| &a.spans)
        .filter(|s| s.kind == "collective")
        .map(|s| s.name.as_str())
        .collect();
    assert!(
        spans.len() >= schedule.n_mubatches(),
        "want ≥{} collective spans, got {}",
        schedule.n_mubatches(),
        spans.len()
    );
    assert!(
        spans.iter().all(|n| n.starts_with("all_gather")),
        "a TP collective that is not an all_gather in {spans:?}"
    );
}

/// Failure recovery composes with TP: killing one shard actor
/// mid-stream must be absorbed by respawn + snapshot restore, and the
/// recovered run stays bit-identical to an uninterrupted tp=1 run.
#[test]
fn tp_step_survives_fault_and_recovery() {
    let schedule = gpipe(2, 4).unwrap();
    let model = mlp_chain(8, 2, 2, schedule.n_stages(), 85).unwrap();
    let data = mb_data(&schedule, 8, 2, 86);

    let smooth = build(&model, &schedule, 1);
    let bumpy = build(&model, &schedule, 2);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };
    for step in 0..3 {
        if step == 1 {
            // Shard actor 1 = (pipeline actor 0, tp rank 1): its death
            // must cascade-abort its collective peers, then respawn.
            bumpy
                .runtime()
                .inject_fault(1, Fault::DieAtInstr(2))
                .unwrap();
        }
        let a = smooth.step_with_recovery(&data, policy).unwrap();
        let b = bumpy.step_with_recovery(&data, policy).unwrap();
        assert_eq!(a.losses, b.losses, "step {step}: losses diverged");
    }
    assert!(bumpy.metrics().counter("recoveries_total") >= 1);
    let pa = smooth.params().unwrap();
    let pb = bumpy.params().unwrap();
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
    }
}

/// Checkpoints are TP-invariant: a tp=2 trainer's checkpoint stream is
/// byte-identical to the tp=1 trainer's, and restores cleanly across
/// degrees (the replicated-buffer invariant makes rank 0 authoritative).
#[test]
fn tp_checkpoints_are_byte_identical_across_degrees() {
    let schedule = gpipe(2, 2).unwrap();
    let model = mlp_chain(8, 2, 2, schedule.n_stages(), 87).unwrap();
    let data = mb_data(&schedule, 8, 2, 88);

    let t1 = build(&model, &schedule, 1);
    let t2 = build(&model, &schedule, 2);
    t1.step(&data).unwrap();
    t2.step(&data).unwrap();
    let mut ck1 = Vec::new();
    let mut ck2 = Vec::new();
    t1.save_checkpoint(&mut ck1).unwrap();
    t2.save_checkpoint(&mut ck2).unwrap();
    assert_eq!(ck1, ck2, "tp=2 checkpoint differs from tp=1");

    // Cross-restore: the tp=2 fleet adopts the tp=1 checkpoint and
    // continues bit-identically.
    t2.restore_checkpoint(&ck1[..]).unwrap();
    let a = t1.step(&data).unwrap();
    let b = t2.step(&data).unwrap();
    assert_eq!(a.losses, b.losses);
}

/// The transport twins: in-process mpsc and Unix sockets must be
/// bit-for-bit interchangeable — step by step, across schedules, tp
/// degrees, and traced/untraced execution — and every cell must match
/// the tp=1 baseline. Traced steps must additionally surface the
/// `collective_wait` spans the observability layer documents, on both.
#[test]
fn tp_is_bitwise_identical_across_transports() {
    for (schedule, seed) in [(gpipe(2, 4).unwrap(), 91), (one_f1b(2, 4).unwrap(), 92)] {
        let model = mlp_chain(8, 2, 4, schedule.n_stages(), seed).unwrap();
        let data = mb_data(&schedule, 8, 2, seed + 1);

        let baseline = build(&model, &schedule, 1);
        let mut base_losses = Vec::new();
        for _ in 0..4 {
            base_losses.push(baseline.step(&data).unwrap().losses);
        }
        let base_params = baseline.params().unwrap();

        for tp in [2usize, 4] {
            let mut wire_bytes = Vec::new();
            for transport in TRANSPORTS {
                let cell = format!("{} tp={tp} on {transport}", schedule.name());
                let trainer = build_on(&model, &schedule, tp, Some(transport));
                // Untraced, untraced, traced, traced: every step must
                // continue the exact tp=1 trajectory on either fabric.
                for (step, want) in base_losses.iter().enumerate() {
                    let losses = if step >= 2 {
                        let (result, trace) = trainer.step_traced(&data).unwrap();
                        assert!(
                            count_spans(&trace, "collective_wait") > 0,
                            "{cell}: traced step has no collective_wait spans"
                        );
                        result.losses
                    } else {
                        trainer.step(&data).unwrap().losses
                    };
                    assert_eq!(
                        &losses, want,
                        "{cell} step {step}: losses not bit-identical"
                    );
                }
                let params = trainer.params().unwrap();
                for (p, (a, b)) in params.iter().zip(&base_params).enumerate() {
                    assert_eq!(a.data(), b.data(), "{cell}: param {p} not bit-identical");
                }
                wire_bytes.push(trainer.metrics().counter("tp_bytes_wire"));
            }
            // Wire accounting covers every collective on both fabrics.
            assert!(wire_bytes[0] > 0, "tp={tp}: no wire bytes recorded");
            assert_eq!(
                wire_bytes[0], wire_bytes[1],
                "tp={tp}: transports count wire bytes alike"
            );
        }
    }
}

/// There is one way a collective travels: on mpsc and on Unix sockets
/// the same TP program moves the same non-zero wire volume, and every
/// rank that executes a collective accounts the time it spent blocked
/// on its peers.
#[test]
fn collectives_ride_the_message_fabric() {
    let schedule = gpipe(2, 2).unwrap();
    let model = mlp_chain(8, 2, 2, schedule.n_stages(), 97).unwrap();
    let data = mb_data(&schedule, 8, 2, 98);
    let wire = TRANSPORTS.map(|transport| {
        let trainer = build_on(&model, &schedule, 2, Some(transport));
        assert_eq!(trainer.runtime().transport_kind(), transport);
        let profiles = trainer.step(&data).unwrap().stats.profiles;
        for (a, p) in profiles.iter().enumerate() {
            assert_eq!(
                p.get(Kind::Collective).is_some(),
                p.get(Kind::CollectiveWait).is_some(),
                "{transport}: actor {a} ran a collective without accounting its wait"
            );
        }
        profiles.iter().map(ActorProfile::bytes_wire).sum::<u64>()
    });
    assert!(wire[0] > 0, "the TP program moved no collective bytes");
    assert_eq!(wire[0], wire[1], "transports account the same wire volume");
}

/// An odd group: at tp = 3 every rank exchanges with two peers at once
/// and the width splits into non-power-of-two blocks, and it must still
/// train bit-identical to tp=1.
#[test]
fn tp3_odd_ring_is_bitwise_identical_to_tp1() {
    let schedule = one_f1b(2, 4).unwrap();
    let model = mlp_chain(12, 2, 2, schedule.n_stages(), 99).unwrap();
    let data = mb_data(&schedule, 12, 2, 100);
    let baseline = build_on(&model, &schedule, 1, Some(TransportKind::Mpsc));
    let trainer = build_on(&model, &schedule, 3, Some(TransportKind::Mpsc));
    for step in 0..3 {
        let want = baseline.step(&data).unwrap().losses;
        let got = trainer.step(&data).unwrap().losses;
        assert_eq!(got, want, "tp=3 step {step}: losses not bit-identical");
    }
    assert!(trainer.metrics().counter("tp_bytes_wire") > 0);
    let (pa, pb) = (baseline.params().unwrap(), trainer.params().unwrap());
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "tp=3: param {p} not bit-identical");
    }
}

/// An actor lost *inside* a collective (at the collective instruction)
/// must wake its peers on either fabric, cascade into a bounded abort,
/// and recover to a bit-identical trajectory: the death's abort
/// broadcast ends the exchange receives its peers are blocked in. kill -9 on
/// the wire is the hard case: the endpoint is severed with no abort
/// broadcast and no goodbye, so detection rests on closed connections,
/// control-link EOF and heartbeat silence alone, and recovery must
/// respawn the severed endpoint. ("Carriers" in the name are the two
/// transports; the name is older than the single carrier and is kept
/// because the tier-1 floor list pins it.)
#[test]
fn tp_fault_inside_collective_recovers_bounded_on_both_carriers() {
    let schedule = gpipe(2, 4).unwrap();
    let model = mlp_chain(8, 2, 2, schedule.n_stages(), 93).unwrap();
    let data = mb_data(&schedule, 8, 2, 94);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };
    type FaultAt = fn(usize) -> Fault;
    let cases: [(TransportKind, FaultAt, u64); 3] = [
        (TransportKind::Mpsc, Fault::DieAtInstr, 20),
        (TransportKind::UnixSocket, Fault::DieAtInstr, 20),
        (TransportKind::UnixSocket, Fault::KillAtInstr, 30),
    ];
    for (transport, fault_at, bound_secs) in cases {
        let smooth = build_on(&model, &schedule, 1, Some(TransportKind::Mpsc));
        let bumpy = build_on(&model, &schedule, 2, Some(transport));
        // Aim the fault at shard actor 1's first collective so it lands
        // while rank 0 is waiting inside it.
        let coll_at = bumpy.runtime().program().actors[1]
            .iter()
            .position(|i| matches!(i, Instr::Collective { .. }))
            .expect("shard stream has a collective");
        let cell = format!("{transport} {:?}", fault_at(coll_at));
        let t0 = std::time::Instant::now();
        let mut baseline = Vec::new();
        for step in 0..3 {
            if step == 1 {
                baseline = bumpy.runtime().live_store_bytes().unwrap();
                bumpy.runtime().inject_fault(1, fault_at(coll_at)).unwrap();
            }
            let a = smooth.step_with_recovery(&data, policy).unwrap();
            let b = bumpy.step_with_recovery(&data, policy).unwrap();
            assert_eq!(a.losses, b.losses, "{cell} step {step}: losses diverged");
        }
        assert!(
            bumpy.metrics().counter("recoveries_total") >= 1,
            "{cell}: fault was never recovered"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(bound_secs),
            "{cell}: recovery was not bounded: {:?}",
            t0.elapsed()
        );
        let pa = smooth.params().unwrap();
        let pb = bumpy.params().unwrap();
        for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert_eq!(a.data(), b.data(), "{cell}: param {p} not bit-identical");
        }
        // Nothing the aborted epoch staged outlives recovery.
        assert_eq!(
            bumpy.runtime().live_store_bytes().unwrap(),
            baseline,
            "{cell}: live store bytes not back at the pre-fault baseline"
        );
    }
}

/// Regression for the lifted "rebalance refused under TP" restriction:
/// folding a dead shard host away retires **all** of its rank actors
/// uniformly, remaps its collective groups rank-preservingly onto the
/// survivors' groups, and the shrunken fleet continues training
/// bit-identical to the tp=1 baseline.
#[test]
fn tp_rebalance_folds_bitwise() {
    let schedule = gpipe(2, 2).unwrap();
    let model = mlp_chain(8, 2, 2, schedule.n_stages(), 89).unwrap();
    let data = mb_data(&schedule, 8, 2, 90);
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };

    let smooth = build(&model, &schedule, 1);
    let bumpy = build(&model, &schedule, 2);
    let a = smooth.step_with_recovery(&data, policy).unwrap();
    let b = bumpy.step_with_recovery(&data, policy).unwrap();
    assert_eq!(a.losses, b.losses, "pre-fold step diverged");

    // Fold pipeline host 1 away: both of its shard ranks (raw actors 2
    // and 3) must retire together, landing host 1's stages on host 0's
    // rank actors.
    let baseline = bumpy.runtime().live_store_bytes().unwrap();
    let report = bumpy.rebalance(&[2]).unwrap();
    assert_eq!(
        report.retired,
        vec![2, 3],
        "fold must retire the whole host group"
    );
    for step in 1..3 {
        let a = smooth.step_with_recovery(&data, policy).unwrap();
        let b = bumpy.step_with_recovery(&data, policy).unwrap();
        assert_eq!(
            a.losses, b.losses,
            "step {step}: losses diverged after TP fold"
        );
    }
    let pa = smooth.params().unwrap();
    let pb = bumpy.params().unwrap();
    for (p, (x, y)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(
            x.data(),
            y.data(),
            "param {p} not bit-identical after TP fold"
        );
    }
    // The folded program's collective groups live entirely on survivors
    // and stay rank-ascending.
    for i in bumpy.runtime().program().actors.iter().flatten() {
        if let Instr::Collective { group, .. } = i {
            assert!(group.windows(2).all(|w| w[0] < w[1]), "group not ascending");
            assert!(
                !group.contains(&2) && !group.contains(&3),
                "collective group still references a retired actor"
            );
        }
    }
    // The fold moves the resident set, it neither leaks nor loses any:
    // the survivors hold exactly what the fleet held before.
    let after = bumpy.runtime().live_store_bytes().unwrap();
    assert_eq!((after[2], after[3]), (0, 0), "retired actors hold bytes");
    assert_eq!(
        after.iter().sum::<usize>(),
        baseline.iter().sum::<usize>(),
        "live store bytes not back at the pre-fold baseline"
    );
}
