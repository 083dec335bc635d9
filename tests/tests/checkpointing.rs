//! Integration: checkpoint/restore reproduces training exactly —
//! parameters *and* optimizer moments round-trip through the MPMD
//! runtime's distributed state, both in-memory and through
//! crash-consistent on-disk generations (`CheckpointManager` /
//! `CheckpointPolicy`, see `docs/resilience.md`).

use std::fs;
use std::path::PathBuf;

use raxpp_core::{compile_train_step, CheckpointPolicy, CompileOptions, Optimizer, RetryPolicy};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_sched::one_f1b;

fn data(n_mb: usize, seed: u64) -> Vec<Vec<Tensor>> {
    use raxpp_ir::rng::SeedableRng;
    let mut rng = raxpp_ir::rng::StdRng::seed_from_u64(seed);
    vec![(0..n_mb)
        .map(|_| Tensor::randn([2, 6], 1.0, &mut rng))
        .collect()]
}

#[test]
fn resume_from_checkpoint_is_bit_identical() {
    let model = mlp_chain(6, 2, 4, 2, 81).unwrap();
    let schedule = one_f1b(2, 4).unwrap();
    // Adam has optimizer moments — the part a params-only checkpoint
    // would get wrong.
    let optimizer = Optimizer::adam(5e-3);

    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        optimizer,
        CompileOptions::default(),
    )
    .unwrap();
    trainer.init(&model.init).unwrap();
    let d = data(4, 82);

    // Train 3 steps, checkpoint, train 3 more, recording losses.
    for _ in 0..3 {
        trainer.step(&d).unwrap();
    }
    let mut ckpt = Vec::new();
    trainer.save_checkpoint(&mut ckpt).unwrap();
    let continued: Vec<f32> = (0..3)
        .map(|_| trainer.step(&d).unwrap().mean_loss)
        .collect();

    // Fresh trainer restored from the checkpoint must replay the same 3
    // steps exactly.
    let trainer2 = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        optimizer,
        CompileOptions::default(),
    )
    .unwrap();
    trainer2.init(&model.init).unwrap();
    trainer2.restore_checkpoint(ckpt.as_slice()).unwrap();
    let replayed: Vec<f32> = (0..3)
        .map(|_| trainer2.step(&d).unwrap().mean_loss)
        .collect();

    assert_eq!(continued, replayed, "resumed training diverged");
}

#[test]
fn restore_rejects_mismatched_checkpoints() {
    let model = mlp_chain(6, 2, 4, 2, 83).unwrap();
    let schedule = one_f1b(2, 4).unwrap();
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::adam(1e-3),
        CompileOptions::default(),
    )
    .unwrap();
    trainer.init(&model.init).unwrap();

    // SGD trainer's checkpoint (no moments) cannot restore an Adam one.
    let sgd_trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    )
    .unwrap();
    sgd_trainer.init(&model.init).unwrap();
    let mut short = Vec::new();
    sgd_trainer.save_checkpoint(&mut short).unwrap();
    assert!(trainer.restore_checkpoint(short.as_slice()).is_err());

    // Garbage bytes are rejected outright.
    assert!(trainer.restore_checkpoint(&b"garbage"[..]).is_err());
}

fn temp_ckpt_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raxpp-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn build_trainer(model: &raxpp_models::BuiltModel) -> raxpp_core::Trainer {
    let schedule = one_f1b(2, 4).unwrap();
    let t = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::adam(5e-3),
        CompileOptions::default(),
    )
    .unwrap();
    t.init(&model.init).unwrap();
    t
}

/// Kill/restart between steps: a fresh process (here, a fresh trainer)
/// resuming from the newest on-disk generation must continue training
/// bit-identically to the run that never stopped.
#[test]
fn periodic_checkpoints_resume_bitwise_after_restart() {
    let dir = temp_ckpt_dir("resume");
    let model = mlp_chain(6, 2, 4, 2, 91).unwrap();
    let d = data(4, 92);
    let policy = RetryPolicy::default();

    let original = build_trainer(&model);
    original.set_checkpoint_policy(Some(CheckpointPolicy::new(&dir, 1, 3)));
    for _ in 0..3 {
        original.step_with_recovery(&d, policy).unwrap();
    }
    // "Kill" the process after step 3; the reference tail below belongs
    // to the uninterrupted timeline, so it must not overwrite the
    // generations the restarted trainer resumes from.
    original.set_checkpoint_policy(None);
    let continued: Vec<Vec<f32>> = (0..2)
        .map(|_| original.step_with_recovery(&d, policy).unwrap().losses)
        .collect();

    let restarted = build_trainer(&model);
    let resumed_step = restarted.resume_from_dir(&dir).unwrap();
    assert_eq!(
        resumed_step,
        Some(3),
        "must resume from the newest generation"
    );
    assert_eq!(restarted.steps_done(), 3);
    let replayed: Vec<Vec<f32>> = (0..2)
        .map(|_| restarted.step_with_recovery(&d, policy).unwrap().losses)
        .collect();
    assert_eq!(
        continued, replayed,
        "restart diverged from uninterrupted run"
    );

    let pa = original.params().unwrap();
    let pb = restarted.params().unwrap();
    for (p, (a, b)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(a.data(), b.data(), "param {p} not bit-identical");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupted newest generation is detected by its checksums and the
/// resume falls back to the previous one.
#[test]
fn corrupt_newest_generation_falls_back_to_previous() {
    let dir = temp_ckpt_dir("corrupt");
    let model = mlp_chain(6, 2, 4, 2, 93).unwrap();
    let d = data(4, 94);
    let policy = RetryPolicy::default();

    let original = build_trainer(&model);
    original.set_checkpoint_policy(Some(CheckpointPolicy::new(&dir, 1, 3)));
    for _ in 0..2 {
        original.step_with_recovery(&d, policy).unwrap();
    }
    // Flip a data bit in the newest generation.
    let newest = dir.join("ckpt-2/state.bin");
    let mut bytes = fs::read(&newest).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    fs::write(&newest, bytes).unwrap();

    let restarted = build_trainer(&model);
    assert_eq!(restarted.resume_from_dir(&dir).unwrap(), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

/// A crash mid-save (staging directory written, rename never reached)
/// must leave the previous generation loadable and be ignored on
/// resume.
#[test]
fn aborted_save_leaves_previous_generation_loadable() {
    let dir = temp_ckpt_dir("aborted");
    let model = mlp_chain(6, 2, 4, 2, 95).unwrap();
    let d = data(4, 96);
    let policy = RetryPolicy::default();

    let original = build_trainer(&model);
    original.set_checkpoint_policy(Some(CheckpointPolicy::new(&dir, 1, 3)));
    original.step_with_recovery(&d, policy).unwrap();
    // Simulate the crash: a half-written staging dir for step 2.
    let tmp = dir.join(".tmp-ckpt-2");
    fs::create_dir_all(&tmp).unwrap();
    fs::write(tmp.join("state.bin"), b"partial write, no footer").unwrap();

    let restarted = build_trainer(&model);
    assert_eq!(restarted.resume_from_dir(&dir).unwrap(), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

/// `CheckpointPolicy::every` cadence: with `every: 2` only even steps hit
/// disk, and rotation keeps the newest `keep` generations.
#[test]
fn cadence_and_rotation_follow_the_policy() {
    let dir = temp_ckpt_dir("cadence");
    let model = mlp_chain(6, 2, 4, 2, 97).unwrap();
    let d = data(4, 98);
    let policy = RetryPolicy::default();

    let trainer = build_trainer(&model);
    trainer.set_checkpoint_policy(Some(CheckpointPolicy::new(&dir, 2, 2)));
    for _ in 0..6 {
        trainer.step_with_recovery(&d, policy).unwrap();
    }
    assert_eq!(trainer.metrics().counter("checkpoints_total"), 3); // steps 2, 4, 6
    let steps: Vec<u64> = raxpp_core::CheckpointManager::new(&dir, 2)
        .generations()
        .unwrap()
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    assert_eq!(steps, vec![4, 6], "keep-2 rotation must drop ckpt-2");
    let _ = fs::remove_dir_all(&dir);
}
