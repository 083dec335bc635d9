//! End-to-end tests of the compiler: unroll pipelines under several
//! schedules, execute the resulting MPMD program with a sequential
//! reference executor, and compare gradients and losses against
//! whole-graph autodiff.

use std::collections::{HashMap, VecDeque};

use raxpp_ir::{eval, value_and_grad, GraphBuilder, Jaxpr, Prim, Shape, Tensor, TraceCtx};
use raxpp_sched::{gpipe, interleaved_1f1b, one_f1b, Schedule};
use raxpp_taskgraph::{
    dp_split, insert_frees, pipeline_model, replicate_program, shard_program, unroll_loop,
    verify_program, CollectiveKind, CompiledLoop, FetchRole, InputSource, Instr, MpmdProgram,
    TaskLabel, UnrollOptions,
};

/// Sequential reference executor for MPMD programs: runs each actor's
/// stream in order, delivering sends through per-pair FIFO queues. Panics
/// on deadlock, shape errors, or out-of-order receives.
struct SeqExec {
    stores: Vec<HashMap<u32, Tensor>>,
    queues: HashMap<(usize, usize), VecDeque<(u32, Tensor)>>,
    /// Collective contributions by `(actor, wire id)` (data-parallel
    /// replicas share wire ids, actors do not).
    contribs: HashMap<(usize, u32), Tensor>,
}

impl SeqExec {
    fn run(program: &MpmdProgram, params: &[Tensor], data: &[Vec<Tensor>]) -> SeqExec {
        let mut exec = SeqExec {
            stores: vec![HashMap::new(); program.n_actors()],
            queues: HashMap::new(),
            contribs: HashMap::new(),
        };
        for p in &program.placements {
            let t = match p.source {
                InputSource::Param(i) => params[i].clone(),
                InputSource::Data { input, mubatch } => data[input][mubatch].clone(),
                InputSource::State { .. } => unreachable!("loop programs have no state"),
            };
            assert_eq!(t.shape(), &p.shape, "placement shape mismatch");
            exec.stores[p.actor].insert(p.buf.0, t);
        }
        let mut cursor = vec![0usize; program.n_actors()];
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for (a, stream) in program.actors.iter().enumerate() {
                while cursor[a] < stream.len() {
                    if !exec.step(program, a, &stream[cursor[a]]) {
                        break;
                    }
                    cursor[a] += 1;
                    progressed = true;
                }
                if cursor[a] < stream.len() {
                    all_done = false;
                }
            }
            if all_done {
                return exec;
            }
            assert!(progressed, "sequential executor deadlocked");
        }
    }

    fn step(&mut self, program: &MpmdProgram, actor: usize, instr: &Instr) -> bool {
        match instr {
            Instr::Run {
                jaxpr,
                inputs,
                outputs,
                label,
            } => {
                let args: Vec<Tensor> = inputs
                    .iter()
                    .map(|b| {
                        self.stores[actor]
                            .get(&b.0)
                            .unwrap_or_else(|| panic!("missing input {b} for {label}"))
                            .clone()
                    })
                    .collect();
                let outs = eval(&program.jaxprs[jaxpr.0 as usize], &args)
                    .unwrap_or_else(|e| panic!("{label} failed: {e}"));
                for (b, t) in outputs.iter().zip(outs) {
                    self.stores[actor].insert(b.0, t);
                }
                true
            }
            Instr::Send { buf, to } => {
                let t = self.stores[actor]
                    .get(&buf.0)
                    .expect("send of missing buffer");
                self.queues
                    .entry((actor, *to))
                    .or_default()
                    .push_back((buf.0, t.clone()));
                true
            }
            Instr::Recv {
                buf,
                src,
                from,
                shape,
            } => {
                let Some(q) = self.queues.get_mut(&(*from, actor)) else {
                    return false;
                };
                let Some((id, t)) = q.pop_front() else {
                    return false;
                };
                assert_eq!(id, src.0, "out-of-order receive");
                let _ = buf;
                assert_eq!(t.shape(), shape, "receive shape mismatch");
                self.stores[actor].insert(buf.0, t);
                true
            }
            Instr::Free { buf } => {
                assert!(
                    self.stores[actor].remove(&buf.0).is_some(),
                    "free of missing buffer {buf}"
                );
                true
            }
            Instr::Collective {
                kind,
                dst,
                src,
                group,
                wires,
                dim,
                ..
            } => {
                // Phase 1: publish our own contribution (idempotent —
                // the step may be retried while peers catch up).
                if !self.contribs.contains_key(&(actor, src.0)) {
                    let t = self.stores[actor]
                        .get(&src.0)
                        .expect("collective of missing buffer")
                        .clone();
                    self.contribs.insert((actor, src.0), t);
                }
                // Phase 2: wait for every rank, then combine in
                // rank-ascending order exactly like the runtime.
                let keys: Vec<(usize, u32)> =
                    group.iter().zip(wires).map(|(&m, w)| (m, w.0)).collect();
                if !keys.iter().all(|k| self.contribs.contains_key(k)) {
                    return false;
                }
                let parts: Vec<&Tensor> = keys.iter().map(|k| &self.contribs[k]).collect();
                let fold = |parts: Vec<Tensor>| {
                    let mut acc = parts[0].clone();
                    for p in &parts[1..] {
                        acc = acc.zip(p, |a, b| a + b).unwrap();
                    }
                    acc
                };
                let combined = match kind {
                    CollectiveKind::AllGather => Tensor::concat(&parts, *dim).unwrap(),
                    CollectiveKind::AllReduce => fold(parts.into_iter().cloned().collect()),
                    CollectiveKind::ReduceScatter => {
                        // This rank's block of every contribution.
                        let rank = group.iter().position(|&m| m == actor).unwrap();
                        let (start, len) = dp_split(parts[0].shape().dim(*dim), group.len(), rank);
                        let blocks = parts.iter().map(|p| p.slice_dim(*dim, start, len).unwrap());
                        fold(blocks.collect())
                    }
                };
                self.stores[actor].insert(dst.0, combined);
                true
            }
        }
    }

    /// The fetched gradients (a gradient fetched from several replicas
    /// is their first-dim blocks, concatenated replica-ascending) and
    /// outputs.
    fn fetch(&self, program: &MpmdProgram) -> (Vec<Tensor>, HashMap<(usize, usize), Tensor>) {
        let mut grads: HashMap<usize, Tensor> = HashMap::new();
        let mut outputs = HashMap::new();
        for f in &program.fetches {
            let t = self.stores[f.actor]
                .get(&f.buf.0)
                .unwrap_or_else(|| panic!("fetch of missing buffer {}", f.buf))
                .clone();
            match f.role {
                FetchRole::Grad(p) => {
                    let t = match grads.remove(&p) {
                        Some(head) => Tensor::concat(&[&head, &t], 0).unwrap(),
                        None => t,
                    };
                    grads.insert(p, t);
                }
                FetchRole::Output { output, mubatch } => {
                    outputs.insert((output, mubatch), t);
                }
            }
        }
        let n = grads.len();
        let grads = (0..n).map(|p| grads.remove(&p).unwrap()).collect();
        (grads, outputs)
    }
}

/// Traced 2-stage MLP with params first: loss = sum((relu(x@w1)@w2)^2).
fn mlp2(emb: usize) -> (Jaxpr, usize) {
    let ctx = TraceCtx::new();
    let w1 = ctx.input([emb, 2 * emb]);
    let w2 = ctx.input([2 * emb, emb]);
    let x = ctx.input([2, emb]);
    let h = x.matmul(&w1).unwrap().relu();
    let h = ctx.pipeline_yield(&h);
    let y = h.matmul(&w2).unwrap();
    let loss = y.mul(&y).unwrap().sum().scale(0.5);
    (ctx.finish(&[loss]).unwrap(), 2)
}

/// A 4-stage chain of matmul+gelu blocks.
fn chain4(emb: usize) -> (Jaxpr, usize) {
    let ctx = TraceCtx::new();
    let ws: Vec<_> = (0..4).map(|_| ctx.input([emb, emb])).collect();
    let x = ctx.input([2, emb]);
    let mut h = x;
    for (i, w) in ws.iter().enumerate() {
        h = h.matmul(w).unwrap().gelu();
        if i < 3 {
            h = ctx.pipeline_yield(&h);
        }
    }
    let loss = h.mul(&h).unwrap().sum().scale(0.5);
    (ctx.finish(&[loss]).unwrap(), 4)
}

/// Reference gradients: run value_and_grad per microbatch and sum.
fn reference(
    jaxpr: &Jaxpr,
    n_params: usize,
    params: &[Tensor],
    data: &[Vec<Tensor>],
) -> (Vec<Tensor>, Vec<f32>) {
    let wrt: Vec<usize> = (0..n_params).collect();
    let g = value_and_grad(jaxpr, &wrt).unwrap();
    let n_mb = data[0].len();
    let mut grads: Vec<Option<Tensor>> = vec![None; n_params];
    let mut losses = Vec::new();
    for mb in 0..n_mb {
        let mut args = params.to_vec();
        for d in data {
            args.push(d[mb].clone());
        }
        let outs = eval(&g, &args).unwrap();
        losses.push(outs[0].item().unwrap());
        for p in 0..n_params {
            let gp = outs[1 + p].clone();
            grads[p] = Some(match grads[p].take() {
                None => gp,
                Some(acc) => acc.zip(&gp, |a, b| a + b).unwrap(),
            });
        }
    }
    (grads.into_iter().map(Option::unwrap).collect(), losses)
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
    let params: Vec<Tensor> = shapes[..n_params]
        .iter()
        .map(|s| Tensor::randn(s.clone(), 0.4, &mut rng))
        .collect();
    let data: Vec<Vec<Tensor>> = shapes[n_params..]
        .iter()
        .map(|s| {
            (0..n_mb)
                .map(|_| Tensor::randn(s.clone(), 1.0, &mut rng))
                .collect()
        })
        .collect();
    (params, data)
}

fn compile(
    jaxpr: &Jaxpr,
    n_params: usize,
    schedule: &Schedule,
    opts: UnrollOptions,
) -> CompiledLoop {
    let model = pipeline_model(jaxpr, n_params).unwrap();
    let mut compiled = unroll_loop(&model, schedule, opts).unwrap();
    verify_program(&compiled.program).expect("send/recv order mismatch");
    insert_frees(&mut compiled.program);
    compiled
}

fn assert_matches_reference(jaxpr: &Jaxpr, n_params: usize, schedule: &Schedule, seed: u64) {
    let compiled = compile(jaxpr, n_params, schedule, UnrollOptions::default());
    let (params, data) = rand_inputs(jaxpr, n_params, schedule.n_mubatches(), seed);
    let exec = SeqExec::run(&compiled.program, &params, &data);
    let (grads, outputs) = exec.fetch(&compiled.program);
    let (ref_grads, ref_losses) = reference(jaxpr, n_params, &params, &data);
    for (p, (g, r)) in grads.iter().zip(&ref_grads).enumerate() {
        assert!(
            g.allclose(r, 1e-4),
            "grad {p} mismatch under {}",
            schedule.name()
        );
    }
    for (mb, &l) in ref_losses.iter().enumerate() {
        let got = outputs[&(0, mb)].item().unwrap();
        assert!(
            (got - l).abs() <= 1e-4 * l.abs().max(1.0),
            "loss mb={mb}: {got} vs {l}"
        );
    }
}

#[test]
fn gpipe_matches_reference() {
    let (jaxpr, n_params) = mlp2(4);
    assert_matches_reference(&jaxpr, n_params, &gpipe(2, 4).unwrap(), 1);
}

#[test]
fn one_f1b_matches_reference() {
    let (jaxpr, n_params) = mlp2(4);
    assert_matches_reference(&jaxpr, n_params, &one_f1b(2, 4).unwrap(), 2);
}

#[test]
fn four_stage_1f1b_matches_reference() {
    let (jaxpr, n_params) = chain4(4);
    assert_matches_reference(&jaxpr, n_params, &one_f1b(4, 8).unwrap(), 3);
}

#[test]
fn interleaved_matches_reference() {
    // 4 stages over 2 actors with circular repeat 2: actor 0 owns stages
    // {0, 2}, actor 1 owns {1, 3}.
    let (jaxpr, n_params) = chain4(4);
    assert_matches_reference(&jaxpr, n_params, &interleaved_1f1b(2, 4, 2).unwrap(), 4);
}

#[test]
fn single_actor_single_stage_matches_reference() {
    let ctx = TraceCtx::new();
    let w = ctx.input([3, 3]);
    let x = ctx.input([2, 3]);
    let y = x.matmul(&w).unwrap().tanh();
    let loss = y.mul(&y).unwrap().sum();
    let jaxpr = ctx.finish(&[loss]).unwrap();
    assert_matches_reference(&jaxpr, 1, &gpipe(1, 3).unwrap(), 5);
}

#[test]
fn skip_connection_crosses_nonadjacent_actors() {
    // Stage 0's activation feeds stage 2 directly — the comm inference
    // must route it across non-adjacent actors (paper contribution 1).
    let ctx = TraceCtx::new();
    let w1 = ctx.input([4, 4]);
    let w2 = ctx.input([4, 4]);
    let w3 = ctx.input([4, 4]);
    let x = ctx.input([2, 4]);
    let h0 = x.matmul(&w1).unwrap().tanh();
    let h0 = ctx.pipeline_yield(&h0);
    let h1 = h0.matmul(&w2).unwrap().tanh();
    let h1 = ctx.pipeline_yield(&h1);
    let h2 = h1.matmul(&w3).unwrap().add(&h0).unwrap(); // skip connection
    let loss = h2.mul(&h2).unwrap().sum().scale(0.5);
    let jaxpr = ctx.finish(&[loss]).unwrap();
    assert_matches_reference(&jaxpr, 3, &one_f1b(3, 4).unwrap(), 6);
}

#[test]
fn shared_weight_commuting_and_naive_agree() {
    // Tied weight used in stages 0 and 1 (paper §3.4).
    let ctx = TraceCtx::new();
    let w = ctx.input([4, 4]);
    let x = ctx.input([2, 4]);
    let h = x.matmul(&w).unwrap().tanh();
    let h = ctx.pipeline_yield(&h);
    let y = h.matmul(&w).unwrap();
    let loss = y.mul(&y).unwrap().sum().scale(0.5);
    let jaxpr = ctx.finish(&[loss]).unwrap();
    let schedule = one_f1b(2, 4).unwrap();

    let commuted = compile(
        &jaxpr,
        1,
        &schedule,
        UnrollOptions {
            loop_commuting: true,
        },
    );
    let naive = compile(
        &jaxpr,
        1,
        &schedule,
        UnrollOptions {
            loop_commuting: false,
        },
    );
    let (params, data) = rand_inputs(&jaxpr, 1, 4, 7);
    let (g1, _) = SeqExec::run(&commuted.program, &params, &data).fetch(&commuted.program);
    let (g2, _) = SeqExec::run(&naive.program, &params, &data).fetch(&naive.program);
    assert!(
        g1[0].allclose(&g2[0], 1e-4),
        "commuted and naive gradients differ"
    );

    let (ref_grads, _) = reference(&jaxpr, 1, &params, &data);
    assert!(g1[0].allclose(&ref_grads[0], 1e-4));

    // Loop commuting's entire point: fewer cross-actor gradient messages.
    let count_sends = |p: &MpmdProgram| {
        p.actors
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::Send { .. }))
            .count()
    };
    assert!(
        count_sends(&commuted.program) < count_sends(&naive.program),
        "commuting should reduce sends: {} vs {}",
        count_sends(&commuted.program),
        count_sends(&naive.program)
    );
}

#[test]
fn frees_leave_only_pinned_buffers() {
    let (jaxpr, n_params) = mlp2(4);
    let schedule = one_f1b(2, 4).unwrap();
    let compiled = compile(&jaxpr, n_params, &schedule, UnrollOptions::default());
    let (params, data) = rand_inputs(&jaxpr, n_params, 4, 8);
    let exec = SeqExec::run(&compiled.program, &params, &data);
    let mut pinned: std::collections::HashSet<u32> = std::collections::HashSet::new();
    pinned.extend(compiled.program.placements.iter().map(|p| p.buf.0));
    pinned.extend(compiled.program.fetches.iter().map(|f| f.buf.0));
    for (a, store) in exec.stores.iter().enumerate() {
        for b in store.keys() {
            assert!(pinned.contains(b), "actor {a} leaked buffer b{b}");
        }
    }
}

#[test]
fn fused_program_is_one_dispatch_per_actor() {
    let (jaxpr, n_params) = chain4(4);
    let schedule = one_f1b(4, 8).unwrap();
    let compiled = compile(&jaxpr, n_params, &schedule, UnrollOptions::default());
    // §4.4: all tasks fuse into a single dispatch per actor.
    assert_eq!(compiled.program.num_rpcs(), 4);
    assert!(compiled.program.num_instrs() > 4 * 2 * 8);
}

#[test]
fn tensor_parallel_shards_are_bitwise_identical() {
    // Shard the 4-stage chain over a model axis and check the sequential
    // executor produces byte-for-byte the same gradients and losses as
    // the unsharded program — the tp contract of docs/parallelism.md.
    let (jaxpr, n_params) = chain4(4);
    let schedule = one_f1b(4, 4).unwrap();
    let compiled = compile(&jaxpr, n_params, &schedule, UnrollOptions::default());
    let (params, data) = rand_inputs(&jaxpr, n_params, 4, 11);
    let (base_grads, base_outs) = {
        let e = SeqExec::run(&compiled.program, &params, &data);
        e.fetch(&compiled.program)
    };
    for t in [2, 4] {
        // Re-unroll without frees, shard, then free: mirrors the real
        // compile order (shard before liveness).
        let model = pipeline_model(&jaxpr, n_params).unwrap();
        let unfused = unroll_loop(&model, &schedule, UnrollOptions::default())
            .unwrap()
            .program;
        let mut sharded = shard_program(&unfused, t).unwrap();
        insert_frees(&mut sharded);
        let n_allgather = sharded
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
        let n_allreduce = sharded
            .actors
            .iter()
            .flatten()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Collective {
                        kind: CollectiveKind::AllReduce,
                        ..
                    }
                )
            })
            .count();
        assert!(n_allgather > 0, "tp={t}: no all-gathers emitted");
        assert_eq!(n_allreduce, 0, "tp={t}: all-gather is the only reassembly");
        let n_pad = sharded
            .jaxprs
            .iter()
            .flat_map(|j| j.eqns())
            .filter(|e| matches!(e.prim, Prim::PadLast { .. }))
            .count();
        assert_eq!(n_pad, 0, "tp={t}: a sharded output is its own block");
        let e = SeqExec::run(&sharded, &params, &data);
        let (grads, outs) = e.fetch(&sharded);
        for (p, (g, b)) in grads.iter().zip(&base_grads).enumerate() {
            assert_eq!(g.data(), b.data(), "tp={t}: grad {p} not bitwise equal");
        }
        for (k, v) in &base_outs {
            assert_eq!(outs[k].data(), v.data(), "tp={t}: output {k:?} differs");
        }
    }
}

#[test]
fn task_counts_match_schedule() {
    let (jaxpr, n_params) = chain4(4);
    let schedule = interleaved_1f1b(2, 4, 2).unwrap();
    let compiled = compile(&jaxpr, n_params, &schedule, UnrollOptions::default());
    let fwd = compiled
        .program
        .count_runs(|l| matches!(l, TaskLabel::Fwd { .. }));
    let bwd = compiled
        .program
        .count_runs(|l| matches!(l, TaskLabel::Bwd { .. }));
    assert_eq!(fwd, 4 * 4); // stages × microbatches
    assert_eq!(bwd, 4 * 4);
}

/// Appends a plain SGD update of every fetched gradient to the actor
/// that holds it, as the optimizer does after the loop.
fn with_sgd_updates(mut p: MpmdProgram) -> MpmdProgram {
    let grads: Vec<_> = p
        .fetches
        .iter()
        .filter_map(|f| match f.role {
            FetchRole::Grad(param) => Some((param, f.buf, f.actor)),
            FetchRole::Output { .. } => None,
        })
        .collect();
    for (param, grad, actor) in grads {
        let pl = p
            .placements
            .iter()
            .find(|pl| pl.source == InputSource::Param(param) && pl.actor == actor)
            .unwrap();
        let (pbuf, shape) = (pl.buf, pl.shape.clone());
        let mut b = GraphBuilder::new();
        let pv = b.input(shape.clone());
        let gv = b.input(shape);
        let step = b.emit(Prim::Scale(0.1), &[gv]).unwrap();
        let p2 = b.emit(Prim::Sub, &[pv, step]).unwrap();
        let jaxpr = p.add_jaxpr(b.finish(vec![p2]).unwrap());
        p.actors[actor].push(Instr::Run {
            jaxpr,
            inputs: vec![pbuf, grad],
            outputs: vec![pbuf],
            label: TaskLabel::Update { param },
        });
    }
    p
}

#[test]
fn zero1_reduce_scatter_is_the_all_reduce_restricted_to_a_block() {
    // Replicate a pipeline with SGD updates plainly and under ZeRO-1
    // (reduce-scatter, update on the block, all-gather): fetched
    // gradients and the parameters on every replica agree bit for bit,
    // uneven blocks included (width 5 over 2 and 4 replicas).
    let (jaxpr, n_params) = mlp2(5);
    let model = pipeline_model(&jaxpr, n_params).unwrap();
    let schedule = gpipe(2, 2).unwrap();
    let base = with_sgd_updates(
        unroll_loop(&model, &schedule, UnrollOptions::default())
            .unwrap()
            .program,
    );
    for replicas in [2, 4] {
        let (params, data) = rand_inputs(&jaxpr, n_params, 2 * replicas, 9);
        let mut sgd_block = |param: usize, start: usize, len: usize| {
            let shape = jaxpr.in_shapes()[param].clone();
            let mut b = GraphBuilder::new();
            let pv = b.input(shape.clone());
            let mut dims = shape.dims().to_vec();
            dims[0] = len;
            let gv = b.input(Shape::new(dims));
            let ps = b.emit(Prim::SliceFirst { start, len }, &[pv]).unwrap();
            let step = b.emit(Prim::Scale(0.1), &[gv]).unwrap();
            let p2 = b.emit(Prim::Sub, &[ps, step]).unwrap();
            b.finish(vec![p2]).map_err(|e| e.to_string())
        };
        let mut plain = replicate_program(&base, replicas, None).unwrap();
        let mut zero1 = replicate_program(&base, replicas, Some(&mut sgd_block)).unwrap();
        let n_rs = zero1
            .actors
            .iter()
            .flatten()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Collective {
                        kind: CollectiveKind::ReduceScatter,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(n_rs, n_params * replicas, "one reduce-scatter per update");
        for p in [&mut plain, &mut zero1] {
            insert_frees(p);
            verify_program(p).unwrap();
        }
        let (a, b) = (
            SeqExec::run(&plain, &params, &data),
            SeqExec::run(&zero1, &params, &data),
        );
        let (ga, _) = a.fetch(&plain);
        let (gb, _) = b.fetch(&zero1);
        for (p, (x, y)) in ga.iter().zip(&gb).enumerate() {
            assert_eq!(x.data(), y.data(), "dp={replicas}: grad {p} differs");
        }
        for pl in plain.placements.iter() {
            if let InputSource::Param(p) = pl.source {
                let (x, y) = (
                    &a.stores[pl.actor][&pl.buf.0],
                    &b.stores[pl.actor][&pl.buf.0],
                );
                assert_eq!(
                    x.data(),
                    y.data(),
                    "dp={replicas}: param {p} on actor {}",
                    pl.actor
                );
                assert_ne!(x.data(), params[p].data(), "param {p} was never updated");
            }
        }
    }
}
