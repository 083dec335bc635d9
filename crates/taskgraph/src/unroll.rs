//! Unrolling the gradient-accumulation loop into a fused MPMD program
//! (paper §4.2-§4.4).
//!
//! The unroller walks the schedule's tasks in a global topological order
//! that respects every actor's local order ([`Schedule::walk`], the same
//! traversal the paper's runtime uses). Communication follows one
//! placement rule: **send eagerly, wait at first use**. A `Send` is
//! emitted immediately
//! after its producing task; the matching `Recv` is emitted in the
//! consumer's stream directly before the first instruction that reads
//! the received buffer, preceded only by earlier still-pending receives
//! from the same sender. Sends and receives between any actor pair
//! therefore appear in the same order on both sides — the property that
//! prevents deadlock with NCCL-style P2P (paper §4.2, Figure 5) — and a
//! blocking `Recv` never sits in front of work that does not need its
//! data: the runtime's per-peer mailbox queues are the prefetch buffer,
//! an early arrival simply waits there.

#![allow(clippy::needless_range_loop)]

use std::collections::{HashMap, HashSet};
use std::fmt;

use raxpp_ir::{GraphBuilder, IrError, Prim, Shape};
use raxpp_sched::{Dir, Schedule, ScheduleError, Task};

use crate::model::{BwdOut, PipelinedModel};
use crate::program::{
    ActorId, BufferId, Fetch, FetchRole, InputPlacement, InputSource, Instr, JaxprId, MpmdProgram,
    TaskLabel,
};
use crate::stage::StageInput;

/// Error raised while compiling a pipeline program.
#[derive(Debug)]
pub enum CompileError {
    /// Graph-level failure.
    Ir(IrError),
    /// Schedule-level failure.
    Schedule(ScheduleError),
    /// Model and schedule disagree (stage counts, microbatch counts, …).
    Mismatch(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Ir(e) => write!(f, "{e}"),
            CompileError::Schedule(e) => write!(f, "{e}"),
            CompileError::Mismatch(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<IrError> for CompileError {
    fn from(e: IrError) -> Self {
        CompileError::Ir(e)
    }
}

impl From<ScheduleError> for CompileError {
    fn from(e: ScheduleError) -> Self {
        CompileError::Schedule(e)
    }
}

/// Options controlling loop compilation.
#[derive(Debug, Clone, Copy)]
pub struct UnrollOptions {
    /// Apply the loop-commuting rewrite of paper §3.4: shared-weight
    /// partial gradients accumulate *locally* per stage and cross actors
    /// once after the loop, instead of once per microbatch. Disable only
    /// for the ablation benchmark.
    pub loop_commuting: bool,
}

impl Default for UnrollOptions {
    fn default() -> Self {
        UnrollOptions {
            loop_commuting: true,
        }
    }
}

/// The compiled gradient-accumulation loop.
#[derive(Debug, Clone)]
pub struct CompiledLoop {
    /// The fused program (without optimizer updates or `Free`s; callers
    /// append updates and then run [`insert_frees`]).
    pub program: MpmdProgram,
    /// Final accumulated gradient of each parameter and the actor holding
    /// it.
    pub grads: Vec<(BufferId, ActorId)>,
    /// Actors holding a copy of each parameter (more than one = shared
    /// weight).
    pub param_actors: Vec<Vec<ActorId>>,
    /// The buffer each `(param, actor)` copy lives in.
    pub param_buffers: HashMap<(usize, ActorId), BufferId>,
}

struct Ctx<'m> {
    model: &'m PipelinedModel,
    opts: UnrollOptions,
    split: bool,
    stage_actor: Vec<usize>,
    prog: MpmdProgram,
    next_buf: u32,
    fwd_ids: Vec<JaxprId>,
    bwd_ids: Vec<JaxprId>,
    bwd_w_ids: Vec<JaxprId>,
    add_cache: HashMap<Shape, JaxprId>,
    fill_cache: HashMap<(Shape, u32), JaxprId>,
    param_buf: HashMap<(usize, ActorId), BufferId>,
    data_buf: HashMap<(usize, usize), BufferId>,
    act_buf: HashMap<(usize, usize, usize), BufferId>,
    res_buf: HashMap<(usize, usize), Vec<BufferId>>,
    ct_contrib: HashMap<(usize, usize, usize), Vec<BufferId>>,
    // Split-backward mode: cotangent inputs kept for the deferred
    // weight-gradient task.
    saved_ct: HashMap<(usize, usize), Vec<BufferId>>,
    acc: HashMap<(usize, usize), BufferId>,
    sent: HashSet<(BufferId, ActorId)>,
    /// Per receiving actor, the `(buffer, sender)` of every receive whose
    /// `Send` is emitted but whose first reader is not, in send order.
    pending: Vec<Vec<(BufferId, ActorId)>>,
    buf_shape: HashMap<BufferId, Shape>,
}

impl<'m> Ctx<'m> {
    fn alloc(&mut self, shape: Shape) -> BufferId {
        let b = BufferId(self.next_buf);
        self.next_buf += 1;
        self.buf_shape.insert(b, shape);
        b
    }

    fn add_jaxpr(&mut self, shape: &Shape) -> JaxprId {
        if let Some(&id) = self.add_cache.get(shape) {
            return id;
        }
        let mut b = GraphBuilder::new();
        let x = b.input(shape.clone());
        let y = b.input(shape.clone());
        let z = b.emit(Prim::Add, &[x, y]).expect("same-shape add");
        let j = b.finish(vec![z]).expect("add jaxpr");
        let id = self.prog.add_jaxpr(j);
        self.add_cache.insert(shape.clone(), id);
        id
    }

    fn fill_jaxpr(&mut self, shape: &Shape, value: f32) -> JaxprId {
        let key = (shape.clone(), value.to_bits());
        if let Some(&id) = self.fill_cache.get(&key) {
            return id;
        }
        let mut b = GraphBuilder::new();
        let v = b
            .emit(
                Prim::Fill {
                    value,
                    shape: shape.clone(),
                },
                &[],
            )
            .expect("fill");
        let j = b.finish(vec![v]).expect("fill jaxpr");
        let id = self.prog.add_jaxpr(j);
        self.fill_cache.insert(key, id);
        id
    }

    /// Appends `instr` to `actor`'s stream; a `Run` goes behind the
    /// pending receives of its inputs. (Outputs are always fresh buffers
    /// and a received buffer is never sent on, so inputs are the only way
    /// the loop touches one.)
    fn push(&mut self, actor: ActorId, instr: Instr) {
        if let Instr::Run { inputs, .. } = &instr {
            self.land(actor, inputs);
        }
        self.prog.actors[actor].push(instr);
    }

    /// Emits the pending receives of `touched` buffers into `actor`'s
    /// stream, each preceded by every earlier pending receive from the
    /// same sender: per pair, receive order stays send order (§4.2).
    fn land(&mut self, actor: ActorId, touched: &[BufferId]) {
        // Per sender, the last pending position that has to land.
        let mut upto: HashMap<ActorId, usize> = HashMap::new();
        for (i, (buf, from)) in self.pending[actor].iter().enumerate() {
            if touched.contains(buf) {
                upto.insert(*from, i);
            }
        }
        if upto.is_empty() {
            return;
        }
        let mut pos = 0;
        self.pending[actor].retain(|&(buf, from)| {
            let lands = upto.get(&from).is_some_and(|&last| pos <= last);
            pos += 1;
            if lands {
                self.prog.actors[actor].push(Instr::Recv {
                    buf,
                    src: buf,
                    from,
                    shape: self.buf_shape[&buf].clone(),
                });
            }
            !lands
        });
    }

    /// Sends `buf` from `from` to `to` right away; the matching receive
    /// stays pending until `to` first reads `buf` ([`Ctx::land`]) — the
    /// receiver's mailbox is the prefetch buffer. Deduplicates repeated
    /// sends of the same buffer to the same destination.
    fn send(&mut self, buf: BufferId, from: ActorId, to: ActorId) {
        if from == to || !self.sent.insert((buf, to)) {
            return;
        }
        self.push(from, Instr::Send { buf, to });
        self.pending[to].push((buf, from));
    }

    /// Emits `dst = a + b` on `actor`.
    fn emit_add(&mut self, actor: ActorId, a: BufferId, b: BufferId, label: TaskLabel) -> BufferId {
        let shape = self.buf_shape[&a].clone();
        let jaxpr = self.add_jaxpr(&shape);
        let dst = self.alloc(shape);
        self.push(
            actor,
            Instr::Run {
                jaxpr,
                inputs: vec![a, b],
                outputs: vec![dst],
                label,
            },
        );
        dst
    }

    fn emit_fill(
        &mut self,
        actor: ActorId,
        shape: &Shape,
        value: f32,
        label: TaskLabel,
    ) -> BufferId {
        let jaxpr = self.fill_jaxpr(shape, value);
        let dst = self.alloc(shape.clone());
        self.push(
            actor,
            Instr::Run {
                jaxpr,
                inputs: vec![],
                outputs: vec![dst],
                label,
            },
        );
        dst
    }

    /// The actor owning the final gradient of `param`: the actor of the
    /// lowest stage using it (or actor 0 for unused parameters).
    fn grad_owner(&self, param: usize) -> ActorId {
        self.model.staged.invar_stages[param]
            .first()
            .map(|&s| self.stage_actor[s])
            .unwrap_or(0)
    }

    fn run_fwd(&mut self, t: Task) {
        let s = t.stage;
        let mb = t.mubatch;
        let actor = self.stage_actor[s];
        let stage = &self.model.staged.stages[s];
        let mut inputs = Vec::with_capacity(stage.inputs.len());
        for input in &stage.inputs {
            let b = match *input {
                StageInput::Global(p) if p < self.model.n_params => self.param_buf[&(p, actor)],
                StageInput::Global(i) => self.data_buf[&(i - self.model.n_params, mb)],
                StageInput::CrossStage { stage: ps, index } => self.act_buf[&(ps, index, mb)],
            };
            inputs.push(b);
        }
        let fwd = &self.model.fwd[s];
        let out_shapes = fwd.out_shapes();
        let n_primal = self.model.n_primal[s];
        let mut outputs = Vec::with_capacity(out_shapes.len());
        for (o, shape) in out_shapes.iter().enumerate() {
            let b = self.alloc(shape.clone());
            if o < n_primal {
                self.act_buf.insert((s, o, mb), b);
            }
            outputs.push(b);
        }
        self.res_buf.insert((s, mb), outputs[n_primal..].to_vec());
        let jaxpr = self.fwd_ids[s];
        self.push(
            actor,
            Instr::Run {
                jaxpr,
                inputs,
                outputs,
                label: TaskLabel::Fwd {
                    mubatch: mb,
                    stage: s,
                },
            },
        );
        // Ship activations to remote consumers right away (§4.2); each
        // consumer receives them at its first use.
        for (o, meta) in stage.outputs.iter().enumerate() {
            let buf = self.act_buf[&(s, o, mb)];
            for &consumer in &meta.consumers {
                let dst = self.stage_actor[consumer];
                self.send(buf, actor, dst);
            }
        }
    }

    fn run_bwd(&mut self, t: Task) {
        let s = t.stage;
        let mb = t.mubatch;
        let actor = self.stage_actor[s];
        let stage = &self.model.staged.stages[s];
        let n_primal = self.model.n_primal[s];

        // Assemble one cotangent per primal output: consumer
        // contributions + the loss seed, summed on this actor.
        let mut ct_in = Vec::with_capacity(n_primal);
        for o in 0..n_primal {
            let mut contribs = self.ct_contrib.remove(&(s, o, mb)).unwrap_or_default();
            let shape = self.model.staged.stages[s].jaxpr.out_shapes()[o].clone();
            if stage.outputs[o].global_outputs.contains(&0) {
                let seed = self.emit_fill(actor, &shape, 1.0, TaskLabel::CotangentSum { stage: s });
                contribs.push(seed);
            }
            let ct = match contribs.len() {
                0 => self.emit_fill(actor, &shape, 0.0, TaskLabel::CotangentSum { stage: s }),
                1 => contribs[0],
                _ => {
                    let mut cur = contribs[0];
                    for &c in &contribs[1..] {
                        cur = self.emit_add(actor, cur, c, TaskLabel::CotangentSum { stage: s });
                    }
                    cur
                }
            };
            ct_in.push(ct);
        }

        let mut inputs = if self.split {
            // The deferred weight-gradient task reuses the residuals and
            // cotangents; keep them live until it runs.
            self.saved_ct.insert((s, mb), ct_in.clone());
            self.res_buf
                .get(&(s, mb))
                .expect("forward ran first")
                .clone()
        } else {
            self.res_buf.remove(&(s, mb)).expect("forward ran first")
        };
        inputs.extend(ct_in);

        let (bwd, jaxpr, metas) = if self.split {
            (
                &self.model.bwd_b[s],
                self.bwd_ids[s],
                self.model.bwd_b_outputs[s].clone(),
            )
        } else {
            (
                &self.model.bwd[s],
                self.bwd_ids[s],
                self.model.bwd_outputs[s].clone(),
            )
        };
        let out_shapes = bwd.out_shapes();
        let outputs: Vec<BufferId> = out_shapes.iter().map(|sh| self.alloc(sh.clone())).collect();
        self.push(
            actor,
            Instr::Run {
                jaxpr,
                inputs,
                outputs: outputs.clone(),
                label: TaskLabel::Bwd {
                    mubatch: mb,
                    stage: s,
                },
            },
        );

        // Route backward outputs, input cotangents first: another actor
        // waits for those, the gradient accumulation is local.
        let (cts, grads): (Vec<_>, Vec<_>) = outputs
            .into_iter()
            .zip(metas)
            .partition(|(_, meta)| matches!(meta, BwdOut::InputCotangent { .. }));
        for (buf, meta) in cts.into_iter().chain(grads) {
            match meta {
                BwdOut::ParamGrad { param } => {
                    if self.opts.loop_commuting {
                        // Accumulate per (param, stage) locally; cross-actor
                        // reduction happens once after the loop (§3.4).
                        self.accumulate(param, s, actor, buf);
                    } else {
                        // Naive scheme: every microbatch's partial crosses
                        // to the gradient owner immediately.
                        let owner = self.grad_owner(param);
                        self.send(buf, actor, owner);
                        self.accumulate(param, usize::MAX, owner, buf);
                    }
                }
                BwdOut::InputCotangent { stage: ps, index } => {
                    let dst = self.stage_actor[ps];
                    self.send(buf, actor, dst);
                    self.ct_contrib
                        .entry((ps, index, mb))
                        .or_default()
                        .push(buf);
                }
            }
        }
    }

    /// Deferred weight-gradient half of a split backward: consumes the
    /// residuals and saved cotangents, produces parameter gradients.
    fn run_bwd_w(&mut self, t: Task) {
        let s = t.stage;
        let mb = t.mubatch;
        let actor = self.stage_actor[s];
        let mut inputs = self.res_buf.remove(&(s, mb)).expect("forward ran first");
        inputs.extend(
            self.saved_ct
                .remove(&(s, mb))
                .expect("activation grad ran first"),
        );
        let out_shapes = self.model.bwd_w[s].out_shapes();
        let outputs: Vec<BufferId> = out_shapes.iter().map(|sh| self.alloc(sh.clone())).collect();
        self.push(
            actor,
            Instr::Run {
                jaxpr: self.bwd_w_ids[s],
                inputs,
                outputs: outputs.clone(),
                label: TaskLabel::BwdW {
                    mubatch: mb,
                    stage: s,
                },
            },
        );
        let metas = self.model.bwd_w_outputs[s].clone();
        for (buf, meta) in outputs.into_iter().zip(metas) {
            match meta {
                BwdOut::ParamGrad { param } => {
                    if self.opts.loop_commuting {
                        self.accumulate(param, s, actor, buf);
                    } else {
                        let owner = self.grad_owner(param);
                        self.send(buf, actor, owner);
                        self.accumulate(param, usize::MAX, owner, buf);
                    }
                }
                BwdOut::InputCotangent { .. } => {
                    unreachable!("weight-gradient halves produce only parameter gradients")
                }
            }
        }
    }

    fn accumulate(&mut self, param: usize, stage_key: usize, actor: ActorId, partial: BufferId) {
        match self.acc.get(&(param, stage_key)) {
            None => {
                self.acc.insert((param, stage_key), partial);
            }
            Some(&old) => {
                let new = self.emit_add(actor, old, partial, TaskLabel::AccumGrad { param });
                self.acc.insert((param, stage_key), new);
            }
        }
    }
}

/// Unrolls the gradient-accumulation loop of `model` according to
/// `schedule`, producing the fused MPMD program plus gradient/parameter
/// placement metadata.
///
/// # Errors
///
/// Returns [`CompileError::Mismatch`] when the schedule's stage count
/// differs from the model's, or propagates graph/schedule errors.
pub fn unroll_loop(
    model: &PipelinedModel,
    schedule: &Schedule,
    opts: UnrollOptions,
) -> Result<CompiledLoop, CompileError> {
    if model.n_stages() != schedule.n_stages() {
        return Err(CompileError::Mismatch(format!(
            "model has {} stages but schedule has {}",
            model.n_stages(),
            schedule.n_stages()
        )));
    }
    let n_actors = schedule.n_actors();
    let stage_actor = schedule.stage_actor();

    let mut prog = MpmdProgram {
        actors: vec![Vec::new(); n_actors],
        ..MpmdProgram::default()
    };
    let split = schedule.split_backward();
    let fwd_ids: Vec<JaxprId> = model
        .fwd
        .iter()
        .map(|j| prog.add_jaxpr(j.clone()))
        .collect();
    let bwd_ids: Vec<JaxprId> = if split {
        model
            .bwd_b
            .iter()
            .map(|j| prog.add_jaxpr(j.clone()))
            .collect()
    } else {
        model
            .bwd
            .iter()
            .map(|j| prog.add_jaxpr(j.clone()))
            .collect()
    };
    let bwd_w_ids: Vec<JaxprId> = if split {
        model
            .bwd_w
            .iter()
            .map(|j| prog.add_jaxpr(j.clone()))
            .collect()
    } else {
        Vec::new()
    };

    let mut ctx = Ctx {
        model,
        opts,
        split,
        stage_actor: stage_actor.clone(),
        prog,
        next_buf: 0,
        fwd_ids,
        bwd_ids,
        bwd_w_ids,
        add_cache: HashMap::new(),
        fill_cache: HashMap::new(),
        param_buf: HashMap::new(),
        data_buf: HashMap::new(),
        act_buf: HashMap::new(),
        res_buf: HashMap::new(),
        ct_contrib: HashMap::new(),
        saved_ct: HashMap::new(),
        acc: HashMap::new(),
        sent: HashSet::new(),
        pending: vec![Vec::new(); n_actors],
        buf_shape: HashMap::new(),
    };

    // Parameter placement: one copy per actor whose stages read it.
    let param_shapes = model.param_shapes();
    let mut param_actors: Vec<Vec<ActorId>> = Vec::with_capacity(model.n_params);
    for p in 0..model.n_params {
        let mut actors: Vec<ActorId> = model.staged.invar_stages[p]
            .iter()
            .map(|&s| stage_actor[s])
            .collect();
        actors.sort_unstable();
        actors.dedup();
        if actors.is_empty() {
            actors.push(0); // unused parameter: park it on actor 0
        }
        for &a in &actors {
            let b = ctx.alloc(param_shapes[p].clone());
            ctx.param_buf.insert((p, a), b);
            ctx.prog.placements.push(InputPlacement {
                buf: b,
                actor: a,
                shape: param_shapes[p].clone(),
                source: InputSource::Param(p),
            });
        }
        param_actors.push(actors);
    }
    // Data placement: one buffer per (input, microbatch), placed on every
    // actor whose stages read it (placement inference of §3.3: loop input
    // placement follows stage usage).
    let data_shapes = model.data_shapes();
    for (d, shape) in data_shapes.iter().enumerate() {
        let gi = model.n_params + d;
        let mut actors: Vec<ActorId> = model.staged.invar_stages[gi]
            .iter()
            .map(|&s| stage_actor[s])
            .collect();
        actors.sort_unstable();
        actors.dedup();
        for mb in 0..schedule.n_mubatches() {
            let b = ctx.alloc(shape.clone());
            ctx.data_buf.insert((d, mb), b);
            for &a in &actors {
                ctx.prog.placements.push(InputPlacement {
                    buf: b,
                    actor: a,
                    shape: shape.clone(),
                    source: InputSource::Data {
                        input: d,
                        mubatch: mb,
                    },
                });
            }
        }
    }

    // The §4.2 traversal: buffer ids and receive placement follow its
    // visiting order.
    schedule.walk(|_, t| match t.dir {
        Dir::Fwd => ctx.run_fwd(t),
        Dir::Bwd => ctx.run_bwd(t),
        Dir::BwdW => ctx.run_bwd_w(t),
    })?;

    // Final gradients. Commuted mode: one cross-actor reduction per shared
    // weight (§3.4); naive mode already reduced per microbatch.
    let mut grads: Vec<(BufferId, ActorId)> = Vec::with_capacity(model.n_params);
    for p in 0..model.n_params {
        let owner = ctx.grad_owner(p);
        let final_buf = if opts.loop_commuting {
            let mut stage_accs: Vec<(usize, BufferId)> = ctx
                .acc
                .iter()
                .filter(|((pp, _), _)| *pp == p)
                .map(|((_, s), &b)| (*s, b))
                .collect();
            stage_accs.sort_unstable();
            match stage_accs.len() {
                0 => ctx.emit_fill(
                    owner,
                    &param_shapes[p],
                    0.0,
                    TaskLabel::GradReduce { param: p },
                ),
                _ => {
                    let mut cur = stage_accs[0].1;
                    for &(s, b) in &stage_accs[1..] {
                        let src = stage_actor[s];
                        ctx.send(b, src, owner);
                        cur = ctx.emit_add(owner, cur, b, TaskLabel::GradReduce { param: p });
                    }
                    cur
                }
            }
        } else {
            match ctx.acc.get(&(p, usize::MAX)) {
                Some(&b) => b,
                None => ctx.emit_fill(
                    owner,
                    &param_shapes[p],
                    0.0,
                    TaskLabel::GradReduce { param: p },
                ),
            }
        };
        grads.push((final_buf, owner));
        ctx.prog.fetches.push(Fetch {
            buf: final_buf,
            actor: owner,
            role: FetchRole::Grad(p),
        });
    }

    // Receives no instruction of the loop reads (a naive-mode partial
    // that is itself the fetched gradient) land at the end, in send order.
    for a in 0..n_actors {
        let unread: Vec<BufferId> = ctx.pending[a].iter().map(|&(buf, _)| buf).collect();
        ctx.land(a, &unread);
    }

    // Per-microbatch global outputs (loss, metrics) are fetched from
    // their producing actor.
    for (s, stage) in model.staged.stages.iter().enumerate() {
        for (o, meta) in stage.outputs.iter().enumerate() {
            for &go in &meta.global_outputs {
                for mb in 0..schedule.n_mubatches() {
                    ctx.prog.fetches.push(Fetch {
                        buf: ctx.act_buf[&(s, o, mb)],
                        actor: stage_actor[s],
                        role: FetchRole::Output {
                            output: go,
                            mubatch: mb,
                        },
                    });
                }
            }
        }
    }

    let param_buffers = ctx.param_buf.clone();
    Ok(CompiledLoop {
        program: ctx.prog,
        grads,
        param_actors,
        param_buffers,
    })
}

/// Buffer-liveness pass (paper §4.3): inserts a [`Instr::Free`] after the
/// last use of every non-pinned buffer in each actor's stream. Buffers
/// named by placements (parameters, data) or fetches stay pinned; data
/// buffers are rewritten each step by the driver.
///
/// Runtime note: the runtime defers a `Free` of a buffer with an
/// in-flight asynchronous send via its pending-deletions queue, exactly
/// as described in the paper.
pub fn insert_frees(program: &mut MpmdProgram) {
    let mut pinned: HashSet<BufferId> = HashSet::new();
    pinned.extend(program.placements.iter().map(|p| p.buf));
    pinned.extend(program.fetches.iter().map(|f| f.buf));

    for stream in &mut program.actors {
        let mut last_use: HashMap<BufferId, usize> = HashMap::new();
        let mut defined: HashMap<BufferId, usize> = HashMap::new();
        for (i, instr) in stream.iter().enumerate() {
            match instr {
                Instr::Run {
                    inputs, outputs, ..
                } => {
                    for b in inputs {
                        last_use.insert(*b, i);
                    }
                    for b in outputs {
                        defined.entry(*b).or_insert(i);
                    }
                }
                Instr::Send { buf, .. } => {
                    last_use.insert(*buf, i);
                }
                Instr::Recv { buf, .. } => {
                    defined.entry(*buf).or_insert(i);
                }
                Instr::Copy { dst, src } => {
                    last_use.insert(*src, i);
                    defined.entry(*dst).or_insert(i);
                }
                // The wire buffers of remote ranks never materialize in
                // this actor's store — only the local contribution `src`
                // (consumed here) and the result `dst` (defined here).
                Instr::Collective { dst, src, .. } => {
                    last_use.insert(*src, i);
                    defined.entry(*dst).or_insert(i);
                }
                Instr::Free { .. } => {}
            }
        }
        // Free point per buffer: after its last use; or right after its
        // definition if never used here (and not pinned).
        let mut free_at: HashMap<usize, Vec<BufferId>> = HashMap::new();
        for (&b, &def_i) in &defined {
            if pinned.contains(&b) {
                continue;
            }
            let at = last_use.get(&b).copied().unwrap_or(def_i);
            free_at.entry(at).or_default().push(b);
        }
        let mut out = Vec::with_capacity(stream.len());
        for (i, instr) in stream.drain(..).enumerate() {
            out.push(instr);
            if let Some(mut bufs) = free_at.remove(&i) {
                bufs.sort_unstable();
                out.extend(bufs.into_iter().map(|buf| Instr::Free { buf }));
            }
        }
        *stream = out;
    }
}

/// Checks the matching-order property of §4.2 on a compiled program: for
/// every ordered actor pair `(a, b)`, the sequence of buffers `a` sends to
/// `b` equals the sequence of buffers `b` receives from `a`. Returns the
/// offending pair on failure. The order clause of
/// [`crate::verify_program`] on its own, for tests and hand-built
/// programs.
pub fn check_send_recv_order(program: &MpmdProgram) -> Result<(), (ActorId, ActorId)> {
    let n = program.n_actors();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let sends: Vec<BufferId> = program.actors[a]
                .iter()
                .filter_map(|i| match i {
                    Instr::Send { buf, to } if *to == b => Some(*buf),
                    _ => None,
                })
                .collect();
            let recvs: Vec<BufferId> = program.actors[b]
                .iter()
                .filter_map(|i| match i {
                    Instr::Recv { src, from, .. } if *from == a => Some(*src),
                    _ => None,
                })
                .collect();
            if sends != recvs {
                return Err((a, b));
            }
        }
    }
    Ok(())
}
