//! Threaded end-to-end tests: compile pipelines, execute them on the
//! multi-threaded MPMD runtime, and validate gradients/losses against
//! single-device autodiff — plus failure injection.

use raxpp_ir::{eval, value_and_grad, Jaxpr, Tensor, TraceCtx};
use raxpp_runtime::{Fault, Kind, Runtime, RuntimeError};
use raxpp_sched::{gpipe, interleaved_1f1b, one_f1b, Schedule};
use raxpp_taskgraph::{
    check_send_recv_order, insert_frees, pipeline_model, unroll_loop, FetchRole, MpmdProgram,
    UnrollOptions,
};

fn chain(emb: usize, n_stages: usize) -> (Jaxpr, usize) {
    let ctx = TraceCtx::new();
    let ws: Vec<_> = (0..n_stages).map(|_| ctx.input([emb, emb])).collect();
    let x = ctx.input([2, emb]);
    let mut h = x;
    for (i, w) in ws.iter().enumerate() {
        h = h.matmul(w).unwrap().tanh();
        if i + 1 < n_stages {
            h = ctx.pipeline_yield(&h);
        }
    }
    let loss = h.mul(&h).unwrap().sum().scale(0.5);
    (ctx.finish(&[loss]).unwrap(), n_stages)
}

fn compile(jaxpr: &Jaxpr, n_params: usize, schedule: &Schedule) -> MpmdProgram {
    let model = pipeline_model(jaxpr, n_params).unwrap();
    let mut compiled = unroll_loop(&model, schedule, UnrollOptions::default()).unwrap();
    check_send_recv_order(&compiled.program).unwrap();
    insert_frees(&mut compiled.program);
    compiled.program
}

fn rand_inputs(
    jaxpr: &Jaxpr,
    n_params: usize,
    n_mb: usize,
    seed: u64,
) -> (Vec<Tensor>, Vec<Vec<Tensor>>) {
    use raxpp_ir::rng::SeedableRng;
    let mut rng = raxpp_ir::rng::StdRng::seed_from_u64(seed);
    let shapes = jaxpr.in_shapes();
    let params = shapes[..n_params]
        .iter()
        .map(|s| Tensor::randn(s.clone(), 0.4, &mut rng))
        .collect();
    let data = shapes[n_params..]
        .iter()
        .map(|s| {
            (0..n_mb)
                .map(|_| Tensor::randn(s.clone(), 1.0, &mut rng))
                .collect()
        })
        .collect();
    (params, data)
}

fn reference_grads(
    jaxpr: &Jaxpr,
    n_params: usize,
    params: &[Tensor],
    data: &[Vec<Tensor>],
) -> Vec<Tensor> {
    let wrt: Vec<usize> = (0..n_params).collect();
    let g = value_and_grad(jaxpr, &wrt).unwrap();
    let mut grads: Vec<Option<Tensor>> = vec![None; n_params];
    for mb in 0..data[0].len() {
        let mut args = params.to_vec();
        for d in data {
            args.push(d[mb].clone());
        }
        let outs = eval(&g, &args).unwrap();
        for p in 0..n_params {
            let gp = outs[1 + p].clone();
            grads[p] = Some(match grads[p].take() {
                None => gp,
                Some(acc) => acc.zip(&gp, |a, b| a + b).unwrap(),
            });
        }
    }
    grads.into_iter().map(Option::unwrap).collect()
}

fn run_and_check(schedule: &Schedule, n_stages: usize, seed: u64) {
    let (jaxpr, n_params) = chain(4, n_stages);
    let program = compile(&jaxpr, n_params, schedule);
    let (params, data) = rand_inputs(&jaxpr, n_params, schedule.n_mubatches(), seed);

    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    let out = rt.step(&data).unwrap();

    let reference = reference_grads(&jaxpr, n_params, &params, &data);
    for (f, t) in &out.fetched {
        if let FetchRole::Grad(p) = f.role {
            assert!(
                t.allclose(&reference[p], 1e-4),
                "grad {p} mismatch under {}",
                schedule.name()
            );
        }
    }
    assert_eq!(out.stats.rpcs, schedule.n_actors());
}

#[test]
fn threaded_gpipe_two_actors() {
    run_and_check(&gpipe(2, 4).unwrap(), 2, 21);
}

#[test]
fn threaded_1f1b_four_actors() {
    run_and_check(&one_f1b(4, 8).unwrap(), 4, 22);
}

#[test]
fn threaded_interleaved_two_actors_repeat_three() {
    run_and_check(&interleaved_1f1b(2, 4, 3).unwrap(), 6, 23);
}

#[test]
fn threaded_interleaved_four_actors_repeat_two() {
    run_and_check(&interleaved_1f1b(4, 8, 2).unwrap(), 8, 24);
}

#[test]
fn repeated_steps_are_deterministic() {
    let (jaxpr, n_params) = chain(4, 2);
    let schedule = one_f1b(2, 4).unwrap();
    let program = compile(&jaxpr, n_params, &schedule);
    let (params, data) = rand_inputs(&jaxpr, n_params, 4, 25);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    let a = rt.step(&data).unwrap();
    let b = rt.step(&data).unwrap();
    for ((_, ta), (_, tb)) in a.fetched.iter().zip(&b.fetched) {
        assert_eq!(ta.data(), tb.data(), "steps are not deterministic");
    }
}

#[test]
fn losses_match_per_microbatch() {
    let (jaxpr, n_params) = chain(4, 2);
    let schedule = gpipe(2, 3).unwrap();
    let program = compile(&jaxpr, n_params, &schedule);
    let (params, data) = rand_inputs(&jaxpr, n_params, 3, 26);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    let out = rt.step(&data).unwrap();
    for (f, t) in &out.fetched {
        if let FetchRole::Output { output: 0, mubatch } = f.role {
            let mut args = params.clone();
            for d in &data {
                args.push(d[mubatch].clone());
            }
            let expect = eval(&jaxpr, &args).unwrap()[0].item().unwrap();
            let got = t.item().unwrap();
            assert!(
                (got - expect).abs() <= 1e-5 * expect.abs().max(1.0),
                "mb {mubatch}: {got} vs {expect}"
            );
        }
    }
}

#[test]
fn bad_param_shape_is_rejected() {
    let (jaxpr, n_params) = chain(4, 2);
    let program = compile(&jaxpr, n_params, &gpipe(2, 2).unwrap());
    let rt = Runtime::new(program);
    let bad = vec![Tensor::zeros([1, 1]), Tensor::zeros([4, 4])];
    assert!(matches!(
        rt.place_params(&bad),
        Err(RuntimeError::BadInput(_))
    ));
}

#[test]
fn missing_data_is_rejected() {
    let (jaxpr, n_params) = chain(4, 2);
    let program = compile(&jaxpr, n_params, &gpipe(2, 4).unwrap());
    let (params, _) = rand_inputs(&jaxpr, n_params, 4, 27);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    // Only 2 microbatches provided; program wants 4.
    let short: Vec<Vec<Tensor>> = vec![vec![Tensor::zeros([2, 4]); 2]];
    assert!(matches!(rt.step(&short), Err(RuntimeError::BadInput(_))));
}

#[test]
fn actor_failure_surfaces_as_error_not_hang() {
    let (jaxpr, n_params) = chain(4, 2);
    let program = compile(&jaxpr, n_params, &gpipe(2, 2).unwrap());
    let (params, data) = rand_inputs(&jaxpr, n_params, 2, 28);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    rt.inject_fault(1, Fault::DieNow).unwrap();
    // Either the dispatch send or the reply fails, never a hang.
    match rt.step(&data) {
        Err(RuntimeError::ActorDied { .. }) | Err(RuntimeError::Exec { .. }) => {}
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn step_stats_profile_accounts_for_work() {
    let (jaxpr, n_params) = chain(4, 2);
    let program = compile(&jaxpr, n_params, &one_f1b(2, 4).unwrap());
    let (params, data) = rand_inputs(&jaxpr, n_params, 4, 30);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    let out = rt.step(&data).unwrap();
    assert_eq!(out.stats.profiles.len(), 2);
    for (a, p) in out.stats.profiles.iter().enumerate() {
        let (_, fwd_count) = p
            .get(Kind::Fwd)
            .unwrap_or_else(|| panic!("actor {a} ran no fwd"));
        assert_eq!(fwd_count, 4, "actor {a} forward count");
        let (_, bwd_count) = p.get(Kind::Bwd).unwrap();
        assert_eq!(bwd_count, 4);
        assert!(p.get(Kind::Free).is_some(), "liveness pass emitted frees");
    }
    // Actor 1 receives activations; actor 0 receives cotangents.
    assert!(out.stats.profiles[1].get(Kind::Recv).is_some());
    assert!(out.stats.profiles[0].get(Kind::Recv).is_some());
}

#[test]
fn read_buffer_returns_resident_params() {
    let (jaxpr, n_params) = chain(4, 2);
    let model = pipeline_model(&jaxpr, n_params).unwrap();
    let schedule = gpipe(2, 2).unwrap();
    let mut compiled = unroll_loop(&model, &schedule, UnrollOptions::default()).unwrap();
    insert_frees(&mut compiled.program);
    let (params, data) = rand_inputs(&jaxpr, n_params, 2, 29);
    let rt = Runtime::new(compiled.program.clone());
    rt.place_params(&params).unwrap();
    rt.step(&data).unwrap();
    // Parameters stay resident after the step.
    for ((p, actor), buf) in &compiled.param_buffers {
        let t = rt.read_buffer(*actor, *buf).unwrap();
        assert_eq!(t.data(), params[*p].data());
    }
}
