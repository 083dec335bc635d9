//! Integration: the zero-bubble (split-backward) extension — correct
//! gradients through the executable MPMD runtime, and the expected
//! performance shape on the cluster simulator.

use raxpp_core::{compile_train_step, CompileOptions, Optimizer};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_sched::{one_f1b, zero_bubble_h1, Dir};
use raxpp_simcluster::{
    simulate_pipeline, ClusterSpec, ModelConfig, ParallelConfig, ScheduleKind, SimOptions,
};

#[test]
fn split_backward_training_matches_combined() {
    // Same model, same data: ZB-H1 (split backward) and 1F1B (combined)
    // are different factorizations of the same gradient computation.
    let model = mlp_chain(6, 2, 4, 4, 71).unwrap();
    use raxpp_ir::rng::SeedableRng;
    let mut rng = raxpp_ir::rng::StdRng::seed_from_u64(72);
    let data: Vec<Vec<Tensor>> = vec![(0..8)
        .map(|_| Tensor::randn([2, 6], 1.0, &mut rng))
        .collect()];

    let mut all = Vec::new();
    for schedule in [one_f1b(4, 8).unwrap(), zero_bubble_h1(4, 8).unwrap()] {
        let trainer = compile_train_step(
            &model.jaxpr,
            model.n_params,
            &schedule,
            Optimizer::Sgd { lr: 0.03 },
            CompileOptions {
                fetch_grads: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        trainer.init(&model.init).unwrap();
        let mut losses = Vec::new();
        let mut grads = None;
        for step in 0..4 {
            let r = trainer.step(&data).unwrap();
            losses.push(r.mean_loss);
            if step == 0 {
                grads = r.grads;
            }
        }
        all.push((losses, grads.unwrap(), trainer.params().unwrap()));
    }
    let (l0, g0, p0) = &all[0];
    let (l1, g1, p1) = &all[1];
    for (a, b) in l0.iter().zip(l1) {
        assert!(
            (a - b).abs() <= 1e-4 * a.abs().max(1.0),
            "losses diverge: {a} vs {b}"
        );
    }
    for (p, (a, b)) in g0.iter().zip(g1).enumerate() {
        assert!(
            a.allclose(b, 1e-4),
            "grad {p} differs between combined and split"
        );
    }
    for (p, (a, b)) in p0.iter().zip(p1).enumerate() {
        assert!(a.allclose(b, 1e-3), "param {p} diverged after 4 steps");
    }
}

#[test]
fn split_backward_schedules_issue_wgrad_tasks() {
    let s = zero_bubble_h1(2, 4).unwrap();
    assert!(s.split_backward());
    let w = s
        .actors()
        .iter()
        .flatten()
        .filter(|t| t.dir == Dir::BwdW)
        .count();
    assert_eq!(w, 2 * 4);
}

#[test]
fn zero_bubble_beats_1f1b_at_paper_scale() {
    // Extension experiment: GPT-3 at PP=8/TP=8, GA=32 — splitting the
    // backward shortens the drain and fills bubbles with W work.
    let gpt3 = ModelConfig::gpt3_175b();
    let eos = ClusterSpec::eos();
    let base = ParallelConfig {
        pp: 8,
        tp: 8,
        dp: 1,
        microbatch: 4,
        n_microbatches: 32,
        circular_repeat: 1,
        schedule: ScheduleKind::OneF1B,
    };
    let f1b = simulate_pipeline(&gpt3, base, &eos, &SimOptions::default()).unwrap();
    let zb = simulate_pipeline(
        &gpt3,
        ParallelConfig {
            schedule: ScheduleKind::ZeroBubbleH1,
            ..base
        },
        &eos,
        &SimOptions::default(),
    )
    .unwrap();
    assert!(
        zb.step_time < f1b.step_time,
        "zero-bubble {:.2}s should beat 1F1B {:.2}s",
        zb.step_time,
        f1b.step_time
    );
    assert!(zb.breakdown.bubble < f1b.breakdown.bubble);
}
