//! Failure-mode benchmark for the fail-fast MPMD runtime.
//!
//! For an injected actor death at each stage of a 4-stage GPipe
//! pipeline, measures:
//!
//! * **time-to-error** — how long `Trainer::step` takes to surface
//!   `ActorDied` once the stage dies mid-stream (the abort broadcast
//!   must wake every peer blocked in `Recv`; before the fail-fast
//!   protocol this hung forever);
//! * **recover time** — `Trainer::recover`: respawn the dead thread,
//!   rewire peers (`Runtime::recover`), then re-place the trainer's
//!   restore point — parameters and optimizer moments — fleet-wide;
//! * **retry time** — `Trainer::step_with_recovery` after the manual
//!   recover: the full retried step on the already-restored fleet.
//!
//! Also measures time-to-error for a pure task error (no death, no
//! respawn needed) at each stage, and asserts after every recovery that
//! the retried step's losses are **bitwise identical** to an
//! uninterrupted twin run — the determinism contract of recovery.
//!
//! One degraded-mode figure rides along: **rebalance latency**
//! (`Trainer::rebalance` folding a dead actor's stages onto the
//! survivors, bitwise parity asserted afterwards). Checkpoint size and
//! save/load times are the benchmark's `core.ckpt_*` metrics
//! (`crates/bench/src/bin/benchmark/README.md`).
//!
//! A **wire** section repeats the drills on the Unix-socket transport:
//! kill -9 detection latency (`kill9_detect_us` — the actor's endpoint
//! is severed with no abort broadcast, detection rests on closed
//! connections and heartbeat silence), endpoint respawn
//! (`reconnect_us` — sever → re-bind → re-dial inside
//! `Trainer::recover`, state restore included), the retried step, and the marginal cost of a
//! forced connection drop mid-step (`drop_redial_us`).
//!
//! Writes `BENCH_failure.json` at the workspace root.
//!
//! Knob: `RAXPP_BENCH_FAILURE_TRIALS` (trials per stage, default 3).

use std::time::{Duration, Instant};

use raxpp_bench::{median, rule, workspace_root, write_json, Json};
use raxpp_core::{compile_train_step, CompileOptions, CoreError, Optimizer, RetryPolicy, Trainer};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_runtime::{Fault, RuntimeError, TransportKind};
use raxpp_sched::gpipe;

const WIDTH: usize = 64;
const BATCH: usize = 16;
const LAYERS: usize = 4;
const STAGES: usize = 4;
const N_MB: usize = 4;

fn trials() -> usize {
    std::env::var("RAXPP_BENCH_FAILURE_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

fn build_on(seed: u64, kind: TransportKind) -> (Trainer, Vec<Vec<Tensor>>) {
    let schedule = gpipe(STAGES, N_MB).unwrap();
    let model = mlp_chain(WIDTH, BATCH, LAYERS, STAGES, seed).unwrap();
    let mut rng = StdRng::seed_from_u64(seed + 1);
    let data = vec![(0..N_MB)
        .map(|_| Tensor::randn([BATCH, WIDTH], 1.0, &mut rng))
        .collect()];
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 1e-3 },
        CompileOptions {
            transport: Some(kind),
            ..CompileOptions::default()
        },
    )
    .unwrap();
    trainer.init(&model.init).unwrap();
    (trainer, data)
}

fn build(seed: u64) -> (Trainer, Vec<Vec<Tensor>>) {
    build_on(seed, TransportKind::Mpsc)
}

struct StageResult {
    stage: usize,
    death_tte: Duration,
    recover: Duration,
    retry: Duration,
    error_tte: Duration,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() {
    let trials = trials();
    let policy = RetryPolicy {
        max_retries: 2,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };
    println!(
        "failure: {STAGES}-stage MLP {LAYERS}x[{WIDTH},{WIDTH}], batch [{BATCH},{WIDTH}], \
         {N_MB} microbatches, gpipe, {trials} trials/stage"
    );
    rule(76);

    let mut results = Vec::new();
    for stage in 0..STAGES {
        let mut death_tte = Vec::new();
        let mut recover = Vec::new();
        let mut retry = Vec::new();
        let mut error_tte = Vec::new();
        for trial in 0..trials {
            let seed = 1000 + (stage * trials + trial) as u64;
            // Uninterrupted twin: the parity oracle for this trial.
            let (twin, twin_data) = build(seed);
            let baseline = twin.step(&twin_data).unwrap().losses;

            // Injected death mid-stream: time-to-error, recover, retry.
            let (trainer, data) = build(seed);
            trainer
                .runtime()
                .inject_fault(stage, Fault::DieAtInstr(2))
                .unwrap();
            let t0 = Instant::now();
            match trainer.step(&data) {
                Err(CoreError::Runtime(RuntimeError::ActorDied { .. })) => {}
                other => panic!("stage {stage}: expected ActorDied, got {other:?}"),
            }
            death_tte.push(t0.elapsed());
            let t0 = Instant::now();
            let report = trainer.recover().unwrap();
            recover.push(t0.elapsed());
            assert_eq!(report.respawned, vec![stage]);
            let t0 = Instant::now();
            let out = trainer.step_with_recovery(&data, policy).unwrap();
            retry.push(t0.elapsed());
            assert_eq!(
                out.losses, baseline,
                "stage {stage} trial {trial}: post-recovery losses not bitwise identical"
            );

            // Pure task error: no respawn, the runtime drains in place.
            let (trainer, data) = build(seed);
            trainer
                .runtime()
                .inject_fault(stage, Fault::ErrorAtInstr(0))
                .unwrap();
            let t0 = Instant::now();
            match trainer.step(&data) {
                Err(CoreError::Runtime(RuntimeError::Exec { actor, .. })) => {
                    assert_eq!(actor, stage)
                }
                other => panic!("stage {stage}: expected Exec error, got {other:?}"),
            }
            error_tte.push(t0.elapsed());
            let out = trainer.step(&data).unwrap();
            assert_eq!(
                out.losses, baseline,
                "stage {stage} trial {trial}: step after task error not bitwise identical"
            );
        }
        let r = StageResult {
            stage,
            death_tte: median(&death_tte),
            recover: median(&recover),
            retry: median(&retry),
            error_tte: median(&error_tte),
        };
        println!(
            "stage {}: death time-to-error {:>9.2?}  recover {:>9.2?}  retry {:>9.2?}  \
             task-error time-to-error {:>9.2?}",
            r.stage, r.death_tte, r.recover, r.retry, r.error_tte,
        );
        results.push(r);
    }
    rule(76);
    println!("bitwise post-recovery loss parity: OK ({STAGES} stages x {trials} trials)");

    // Elastic degraded mode: latency of folding a dead actor's stages
    // onto the survivors, with bitwise parity asserted on the shrunken
    // fleet.
    let mut rebalance_times = Vec::new();
    for trial in 0..trials {
        let seed = 2000 + trial as u64;
        let (twin, twin_data) = build(seed);
        let baseline = twin.step(&twin_data).unwrap().losses;
        let (trainer, data) = build(seed);
        trainer
            .runtime()
            .inject_fault(1, Fault::DieAtInstr(2))
            .unwrap();
        match trainer.step(&data) {
            Err(CoreError::Runtime(RuntimeError::ActorDied { .. })) => {}
            other => panic!("rebalance trial {trial}: expected ActorDied, got {other:?}"),
        }
        let t0 = Instant::now();
        trainer.rebalance(&[1]).unwrap();
        rebalance_times.push(t0.elapsed());
        let out = trainer.step_with_recovery(&data, policy).unwrap();
        assert_eq!(
            out.losses, baseline,
            "rebalance trial {trial}: degraded-mode losses not bitwise identical"
        );
    }
    let rebalance = median(&rebalance_times);
    println!("rebalance (fold 1 of {STAGES} actors): {rebalance:>9.2?}");
    rule(76);

    // Wire resilience: the same drills over the Unix-socket transport.
    // kill -9 severs actor 1's endpoint mid-stream with no abort
    // broadcast — detection rests on closed connections, control-link
    // EOF and heartbeat silence; recovery re-binds the endpoint and every
    // peer transparently re-dials.
    let mut kill9_detect = Vec::new();
    let mut wire_recover = Vec::new();
    let mut wire_retry = Vec::new();
    let mut clean_steps = Vec::new();
    let mut drop_steps = Vec::new();
    for trial in 0..trials {
        let seed = 4000 + trial as u64;
        let (twin, twin_data) = build(seed);
        let base1 = twin.step(&twin_data).unwrap().losses;
        let base2 = twin.step(&twin_data).unwrap().losses;
        let base3 = twin.step(&twin_data).unwrap().losses;

        let (trainer, data) = build_on(seed, TransportKind::UnixSocket);
        trainer
            .runtime()
            .inject_fault(1, Fault::KillAtInstr(2))
            .unwrap();
        let t0 = Instant::now();
        match trainer.step(&data) {
            Err(CoreError::Runtime(
                RuntimeError::ActorDied { .. } | RuntimeError::Timeout { .. },
            )) => {}
            other => panic!("wire trial {trial}: expected ActorDied/Timeout, got {other:?}"),
        }
        kill9_detect.push(t0.elapsed());
        let t0 = Instant::now();
        let report = trainer.recover().unwrap();
        wire_recover.push(t0.elapsed());
        assert_eq!(report.respawned, vec![1]);
        let t0 = Instant::now();
        let out = trainer.step_with_recovery(&data, policy).unwrap();
        wire_retry.push(t0.elapsed());
        assert_eq!(
            out.losses, base1,
            "wire trial {trial}: post-kill losses not bitwise identical to mpsc twin"
        );

        // Marginal cost of a forced connection drop: clean step vs a
        // step whose first frame to a live peer must re-dial.
        let t0 = Instant::now();
        let out = trainer.step(&data).unwrap();
        clean_steps.push(t0.elapsed());
        assert_eq!(out.losses, base2);
        trainer
            .runtime()
            .inject_fault(0, Fault::DropLink { peer: 1 })
            .unwrap();
        let t0 = Instant::now();
        let out = trainer.step(&data).unwrap();
        drop_steps.push(t0.elapsed());
        assert_eq!(
            out.losses, base3,
            "wire trial {trial}: forced drop changed training bits"
        );
    }
    let kill9_detect = median(&kill9_detect);
    let wire_recover = median(&wire_recover);
    let wire_retry = median(&wire_retry);
    let drop_redial = median(&drop_steps).saturating_sub(median(&clean_steps));
    println!(
        "wire (uds): kill -9 detect {:>9.2?}  respawn+redial {:>9.2?}  retry {:>9.2?}  \
         drop re-dial {:>9.2?}",
        kill9_detect, wire_recover, wire_retry, drop_redial,
    );
    rule(76);

    let json = Json::obj(vec![
        (
            "workload",
            Json::Str(format!(
                "{STAGES}-stage MLP {LAYERS}x[{WIDTH},{WIDTH}], batch [{BATCH},{WIDTH}], \
                 {N_MB} microbatches, gpipe"
            )),
        ),
        ("trials_per_stage", Json::Num(trials as f64)),
        (
            "available_cores",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        (
            "stages",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("stage", Json::Num(r.stage as f64)),
                            ("death_time_to_error_s", Json::Num(secs(r.death_tte))),
                            ("recover_s", Json::Num(secs(r.recover))),
                            ("retry_step_s", Json::Num(secs(r.retry))),
                            ("task_error_time_to_error_s", Json::Num(secs(r.error_tte))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rebalance_us", Json::Num(secs(rebalance) * 1e6)),
        (
            "wire",
            Json::obj(vec![
                ("transport", Json::Str("uds".into())),
                ("kill9_detect_us", Json::Num(secs(kill9_detect) * 1e6)),
                ("reconnect_us", Json::Num(secs(wire_recover) * 1e6)),
                ("retry_step_s", Json::Num(secs(wire_retry))),
                ("drop_redial_us", Json::Num(secs(drop_redial) * 1e6)),
            ]),
        ),
        ("bitwise_recovery_parity", Json::Bool(true)),
    ]);
    let path = workspace_root().join("BENCH_failure.json");
    write_json(&path, &json);
    println!("wrote {}", path.display());
}
