//! Integration: the public API fails loudly and precisely — no hangs, no
//! silent misbehaviour.

use raxpp_core::{
    compile_forward_step, compile_train_step, CompileOptions, CoreError, ForwardOptions, Optimizer,
    RemoteMesh,
};
use raxpp_ir::{Tensor, TraceCtx};
use raxpp_models::mlp_chain;
use raxpp_sched::{gpipe, one_f1b};

#[test]
fn schedule_stage_count_must_match_model() {
    let model = mlp_chain(4, 2, 4, 2, 91).unwrap(); // 2 stages
    let err = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &one_f1b(4, 8).unwrap(), // 4 stages
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    );
    assert!(matches!(err, Err(CoreError::Compile(_))));
}

#[test]
fn mesh_actor_count_must_match_schedule() {
    let model = mlp_chain(4, 2, 4, 2, 92).unwrap();
    let mesh = RemoteMesh::new(3, (1, 1));
    let err = mesh.distributed(
        &model.jaxpr,
        model.n_params,
        &gpipe(2, 4).unwrap(),
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    );
    assert!(matches!(err, Err(CoreError::BadInput(_))));
}

#[test]
fn step_before_init_fails_cleanly() {
    let model = mlp_chain(4, 2, 4, 2, 93).unwrap();
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &gpipe(2, 2).unwrap(),
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    )
    .unwrap();
    let data = vec![vec![Tensor::zeros([2, 4]); 2]];
    // Parameters were never placed: actors fail the step, the driver
    // reports it (and does not hang).
    match trainer.step(&data) {
        Err(CoreError::Runtime(_)) => {}
        other => panic!("expected a runtime error, got {other:?}"),
    }
}

#[test]
fn wrong_parameter_count_rejected_at_init() {
    let model = mlp_chain(4, 2, 4, 2, 94).unwrap();
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &gpipe(2, 2).unwrap(),
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    )
    .unwrap();
    assert!(matches!(
        trainer.init(&model.init[..1]),
        Err(CoreError::BadInput(_))
    ));
}

/// A wrong input count or microbatch count — too few *and* too many (a
/// surplus used to train on a prefix and report success) — is rejected
/// before anything runs, and the forward-only step of the same model
/// rejects it in the same words.
#[test]
fn wrong_data_arity_rejected_at_step_and_forward() {
    let model = mlp_chain(4, 2, 4, 2, 95).unwrap();
    let schedule = gpipe(2, 2).unwrap();
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    )
    .unwrap();
    trainer.init(&model.init).unwrap();
    let opts = ForwardOptions::default();
    let step = compile_forward_step(&model.jaxpr, model.n_params, &schedule, opts).unwrap();
    step.load_params(&model.init).unwrap();
    let message = |r: Result<(), CoreError>| match r {
        Err(CoreError::BadInput(m)) => m,
        other => panic!("expected BadInput, got {other:?}"),
    };
    for (data, want) in [
        (vec![], "expected 1 data inputs, got 0"),
        (vec![vec![Tensor::zeros([2, 4]); 1]], "has 1 microbatches"),
        (vec![vec![Tensor::zeros([2, 4]); 3]], "has 3 microbatches"),
    ] {
        let train = message(trainer.step(&data).map(drop));
        assert!(train.contains(want), "{train}");
        assert_eq!(train, message(step.forward(&data).map(drop)));
    }
    assert_eq!(trainer.metrics().counter("step_failures_total"), 0);
    trainer.step(&[vec![Tensor::zeros([2, 4]); 2]]).unwrap();
}

#[test]
fn non_scalar_loss_rejected_at_compile() {
    let ctx = TraceCtx::new();
    let w = ctx.input([2, 2]);
    let x = ctx.input([2, 2]);
    let y = x.matmul(&w).unwrap(); // not a scalar
    let jaxpr = ctx.finish(&[y]).unwrap();
    assert!(compile_train_step(
        &jaxpr,
        1,
        &gpipe(1, 2).unwrap(),
        Optimizer::Sgd { lr: 0.1 },
        CompileOptions::default(),
    )
    .is_err());
}
