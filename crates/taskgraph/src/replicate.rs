//! Data-parallel replication: cloning a compiled (possibly
//! tensor-parallel) MPMD program into `R` replica pipelines that each
//! consume a *disjoint slice of the global batch*, with gradient paths
//! linked by [`Instr::Collective`]s over the DP axis — an all-reduce, or
//! under ZeRO-1 a reduce-scatter and an all-gather.
//!
//! # Batch sharding
//!
//! The input program describes *one replica's* pipeline over `N_local`
//! microbatches. Replication turns it into `R` pipelines over a global
//! batch of `R * N_local` microbatches: replica `rep`'s copy of data
//! placement `Data { input, mubatch: m }` is rewritten to the global
//! index `rep * N_local + m` ([`raxpp_sched::DpMap`] batch-range
//! arithmetic), so replicas own contiguous ascending ranges of the
//! global batch and each executes only `1/R` of the work — data
//! parallelism that buys throughput, not redundancy.
//!
//! Because replicas see different data, their gradients genuinely
//! differ, and the per-parameter DP all-reduce is a *true sum*: every
//! parameter with an [`TaskLabel::Update`] gets one gradient all-reduce
//! whose replica-ascending fold order is pinned by the runtime
//! (`g = g_0 + g_1 + … + g_{R-1}`, always in that association). That
//! pin is what makes the determinism contract two-tier: any run at
//! fixed `R` is bitwise-reproducible (through faults, recovery,
//! rebalance, checkpoint resume, and every transport), while
//! runs at *different* `R` agree only within fp32 summation-
//! reassociation bounds — see `docs/determinism.md`. Pre-update
//! (step-0) per-microbatch losses are still bitwise-equal across every
//! `R`, because the forward pass of a microbatch never depends on the
//! replica that runs it.
//!
//! # Actor and buffer spaces
//!
//! Replica `rep`'s copy of base actor `a` is `rep * base_actors + a`
//! ([`raxpp_sched::DpMap`] arithmetic; `base_actors` counts the *input*
//! program's actors, i.e. after any TP sharding). Buffer ids are shared
//! across replicas — stores are per-actor, so identical ids never
//! collide, and the id-keyed pin set of `insert_frees` then produces
//! identical `Free` positions in every replica, keeping the replica
//! streams index-aligned (so every member of a group meets its
//! collectives in the same order, see [`TpMeta`]). The gradient
//! collective reuses the gradient buffer id itself as every replica's
//! wire (`wires[rep] == src` on all ranks) and lands in a
//! freshly-allocated assembled-gradient buffer shared by all replicas.
//!
//! # ZeRO-1
//!
//! With ZeRO-1 enabled, replica `rep` owns one *first-dim* block
//! ([`dp_split`]) of every optimizer-state slot, and a parameter's
//! update is three instructions:
//!
//! 1. a DP reduce-scatter on dim 0 leaves replica `rep` holding block
//!    `rep` of the gradient sum — bitwise the all-reduce's fold
//!    restricted to that block;
//! 2. the sharded update consumes the full parameter, the gradient
//!    block and the state blocks and produces the parameter block and
//!    the new state blocks (the optimizer is elementwise, so this is
//!    the full update restricted to the block);
//! 3. a DP all-gather on dim 0 concatenates the parameter blocks,
//!    replica-ascending, into the parameter buffer in place.
//!
//! Blocks may be uneven; concatenation does not care. The first dim is
//! sharded because it is the one axis the column-parallel tensor
//! sharding never splits — parameters and optimizer state are
//! full-shape replicated across TP ranks, so first-dim blocks are
//! rank-uniform and ZeRO-1 composes with any `tp` degree. State
//! placements shrink to block shapes. Parameters whose first dimension
//! is smaller than `R` (and rank-0 scalars) keep replicated full-shape
//! state and the true-sum all-reduce.

use std::collections::HashMap;
use std::fmt;

use raxpp_ir::{IrError, Jaxpr, Shape};
use raxpp_sched::DpMap;

use crate::expand::{expand_axis, AxisRule, Fresh};
use crate::program::{
    ActorId, BufferId, CollectiveAxis, CollectiveKind, DpMeta, Fetch, FetchRole, InputPlacement,
    InputSource, Instr, JaxprId, MpmdProgram, TaskLabel,
};

/// Error raised by [`replicate_program`].
#[derive(Debug)]
pub enum ReplicateError {
    /// The input program already carries a DP axis (double replication).
    AlreadyReplicated,
    /// Inconsistent arguments (zero replicas, missing placements, …).
    BadInput(String),
    /// Replica codegen failed (a pass bug).
    Ir(IrError),
    /// The caller's ZeRO-1 update builder failed.
    Zero1(String),
}

impl fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicateError::AlreadyReplicated => {
                write!(f, "program already carries a data-parallel axis")
            }
            ReplicateError::BadInput(msg) => write!(f, "bad replication request: {msg}"),
            ReplicateError::Ir(e) => write!(f, "replica codegen failed: {e}"),
            ReplicateError::Zero1(msg) => write!(f, "ZeRO-1 update codegen failed: {msg}"),
        }
    }
}

impl std::error::Error for ReplicateError {}

impl From<IrError> for ReplicateError {
    fn from(e: IrError) -> Self {
        ReplicateError::Ir(e)
    }
}

/// Whether a parameter of `shape` receives ZeRO-1 state sharding when
/// replicated `replicas` ways: its optimizer state is split into
/// first-dim slices, one per replica. Scalars and parameters whose
/// first dimension is narrower than the replica count keep replicated
/// full-shape state instead; callers holding per-replica state (the
/// trainer's checkpoint/restore paths) must apply the same rule. The
/// gradient all-reduce is independent of this: under batch sharding
/// *every* updated parameter gets one, whatever its shape.
pub fn dp_treated(shape: &Shape, replicas: usize) -> bool {
    shape.rank() > 0 && shape.dim(0) >= replicas
}

/// Replica `rep`'s first-dim slice `(start, len)` of a dimension of
/// `full` elements split across `replicas`: the first `full % replicas`
/// replicas get one extra element, so slices tile the dimension exactly
/// even when it does not divide evenly.
pub fn dp_split(full: usize, replicas: usize, rep: usize) -> (usize, usize) {
    let base = full / replicas;
    let rem = full % replicas;
    let len = base + usize::from(rep < rem);
    let start = rep * base + rep.min(rem);
    (start, len)
}

/// Per-parameter DP lowering decisions and fresh ids.
struct DpParam {
    /// Full size of the first dimension (ZeRO-1's shard axis).
    full: usize,
    /// The all-reduce's `dim` metadata (the last axis; the fold
    /// ignores it).
    dim: usize,
    /// The summed gradient, or under ZeRO-1 the replica's block of it
    /// (same id in every replica's store).
    assembled: BufferId,
    /// ZeRO-1: per-replica sharded update jaxprs and the shared
    /// parameter-block wire all-gathered into the parameter buffer.
    zero1: Option<(Vec<JaxprId>, BufferId)>,
}

/// Replicates `program` into `replicas` data-parallel pipelines, each
/// consuming a disjoint `1/replicas` slice of the global batch (see the
/// module docs for the semantics). `replicas == 1` returns the program
/// unchanged.
///
/// `zero1`, when provided, enables ZeRO-1 optimizer-state sharding: for
/// each eligible parameter ([`dp_treated`]) it is called as
/// `(param, start, len)` and must return the sharded update jaxpr with
/// inputs `(param, grad-slice, state-slices…)` and outputs
/// `(param-slice, state-slices…)`, where slices are the `(start, len)`
/// *first-dim* block and the parameter is full-shape. The builder
/// lives with the caller because only it knows the optimizer;
/// `raxpp-core` supplies `Optimizer::sharded_update_jaxpr`. First-dim
/// sharding is what lets ZeRO-1 compose with tensor parallelism: params
/// and state are full-shape replicated across TP ranks, and TP never
/// splits dim 0.
///
/// # Errors
///
/// Returns [`ReplicateError::AlreadyReplicated`] for programs that
/// already carry a DP axis, and [`ReplicateError::BadInput`] for zero
/// replicas or an updated parameter without a placement.
pub fn replicate_program(
    program: &MpmdProgram,
    replicas: usize,
    mut zero1: Option<&mut dyn FnMut(usize, usize, usize) -> Result<Jaxpr, String>>,
) -> Result<MpmdProgram, ReplicateError> {
    if replicas == 0 {
        return Err(ReplicateError::BadInput(
            "data-parallel degree must be positive".into(),
        ));
    }
    if program.dp.is_some() {
        return Err(ReplicateError::AlreadyReplicated);
    }
    if replicas == 1 {
        return Ok(program.clone());
    }
    if program.actors.is_empty() {
        return Err(ReplicateError::BadInput("program has no actors".into()));
    }
    let map = DpMap::new(replicas, program.n_actors());
    let shapes: HashMap<BufferId, &Shape> = program
        .placements
        .iter()
        .map(|p| (p.buf, &p.shape))
        .collect();

    let mut out = MpmdProgram {
        jaxprs: program.jaxprs.clone(),
        ..MpmdProgram::default()
    };
    let mut fresh = Fresh::above(program);

    // Decide the DP lowering per parameter from its Update instruction
    // (one owner per parameter; TP rank copies are identical). Every
    // updated parameter gets a gradient sum — replicas hold genuinely
    // different gradients under batch sharding, so no shape is exempt.
    // ZeRO-1 additionally needs a first dim wide enough to slice
    // (`dp_treated`).
    let mut params: HashMap<usize, DpParam> = HashMap::new();
    for instr in program.actors.iter().flatten() {
        let Instr::Run {
            inputs,
            label: TaskLabel::Update { param },
            ..
        } = instr
        else {
            continue;
        };
        if params.contains_key(param) {
            continue;
        }
        let shape = *shapes.get(&inputs[0]).ok_or_else(|| {
            ReplicateError::BadInput(format!("parameter {param} has no placement"))
        })?;
        let full = if shape.rank() > 0 { shape.dim(0) } else { 1 };
        let z = match zero1.as_mut() {
            Some(build) if dp_treated(shape, replicas) => {
                let mut upds = Vec::with_capacity(replicas);
                for rep in 0..replicas {
                    let (start, len) = dp_split(full, replicas, rep);
                    let j = build(*param, start, len).map_err(ReplicateError::Zero1)?;
                    upds.push(out.add_jaxpr(j));
                }
                Some((upds, fresh.next()))
            }
            _ => None,
        };
        params.insert(
            *param,
            DpParam {
                full,
                dim: shape.rank().saturating_sub(1),
                assembled: fresh.next(),
                zero1: z,
            },
        );
    }

    // The input program's per-replica microbatch count: the global
    // batch this replicated program consumes is `replicas` times it.
    let n_mub = program
        .placements
        .iter()
        .filter_map(|p| match p.source {
            InputSource::Data { mubatch, .. } => Some(mubatch + 1),
            _ => None,
        })
        .chain(program.fetches.iter().filter_map(|f| match f.role {
            FetchRole::Output { mubatch, .. } => Some(mubatch + 1),
            _ => None,
        }))
        .max()
        .unwrap_or(0);

    let mut rule = DpRule { map, n_mub, params };
    expand_axis(program, &map, &mut rule, &mut out);

    out.tp = program.tp;
    out.dp = Some(DpMeta {
        replicas,
        base_actors: map.base_actors(),
        zero1: zero1.is_some(),
    });
    Ok(out)
}

/// The data-parallel rule set of [`expand_axis`].
struct DpRule {
    map: DpMap,
    /// Microbatches one replica consumes.
    n_mub: usize,
    /// Per updated parameter.
    params: HashMap<usize, DpParam>,
}

impl AxisRule for DpRule {
    /// An `Update` gains its gradient all-reduce or, under ZeRO-1, turns
    /// into reduce-scatter → sharded update → all-gather; every other
    /// `Run` is copied.
    fn run(&mut self, run: &Instr, group: &[ActorId], streams: &mut [Vec<Instr>]) {
        let Instr::Run {
            jaxpr,
            inputs,
            outputs,
            label,
        } = run
        else {
            unreachable!("expand_axis hands rules only Runs")
        };
        let dpp = match label {
            TaskLabel::Update { param } => self.params.get(param),
            _ => None,
        };
        let Some(dpp) = dpp else {
            for &actor in group {
                streams[actor].push(run.clone());
            }
            return;
        };
        // Every replica's wire is the source buffer itself (same id on
        // all ranks — stores are per-actor).
        let collective = |kind, dst, src, dim| Instr::Collective {
            kind,
            dst,
            src,
            group: group.to_vec(),
            wires: vec![src; group.len()],
            dim,
            axis: CollectiveAxis::Dp,
        };
        let mut new_inputs = inputs.clone();
        new_inputs[1] = dpp.assembled;
        for (rep, &actor) in group.iter().enumerate() {
            let s = &mut streams[actor];
            // Plain DP all-reduces the gradient and updates in place;
            // ZeRO-1 reduce-scatters it on dim 0, updates the replica's
            // block into `slice` and all-gathers the blocks.
            let (sum, dim, jaxpr, updated) = match &dpp.zero1 {
                None => (CollectiveKind::AllReduce, dpp.dim, *jaxpr, outputs[0]),
                Some((upds, slice)) => (CollectiveKind::ReduceScatter, 0, upds[rep], *slice),
            };
            s.push(collective(sum, dpp.assembled, inputs[1], dim));
            let mut new_outputs = outputs.clone();
            new_outputs[0] = updated;
            s.push(Instr::Run {
                jaxpr,
                inputs: new_inputs.clone(),
                outputs: new_outputs,
                label: *label,
            });
            if dpp.zero1.is_some() {
                s.push(collective(
                    CollectiveKind::AllGather,
                    outputs[0],
                    updated,
                    0,
                ));
            }
        }
    }

    /// Parameters and state are replicated; data placements are
    /// *sharded* — replica `rep`'s copy of local microbatch `m` is the
    /// global microbatch [`DpMap::global_mubatch`], so replicas consume
    /// disjoint contiguous slices of the global batch. Under ZeRO-1 the
    /// state slots of sharded parameters shrink to the replica's
    /// first-dim slice shape.
    fn placement(&self, p: &InputPlacement, rep: usize) -> InputPlacement {
        let mut q = p.clone();
        match p.source {
            InputSource::Data { input, mubatch } => {
                q.source = InputSource::Data {
                    input,
                    mubatch: self.map.global_mubatch(rep, mubatch, self.n_mub),
                };
            }
            InputSource::State { param, .. } => {
                if let Some(dpp) = self.params.get(&param).filter(|d| d.zero1.is_some()) {
                    let (_, len) = dp_split(dpp.full, self.map.replicas(), rep);
                    let mut dims = p.shape.dims().to_vec();
                    dims[0] = len;
                    q.shape = Shape::new(dims);
                }
            }
            InputSource::Param(_) => {}
        }
        q
    }

    /// Per-microbatch outputs live on the replica that consumed the
    /// microbatch, so `Output` fetches fan out to all replicas under
    /// their global indices; gradient fetches repoint to the assembled
    /// (summed) buffer, read once from replica 0 — every replica's copy
    /// is bitwise-identical after the pinned fold — or, under ZeRO-1,
    /// from every replica, each holding its block of the sum.
    fn fetch(&self, f: &Fetch, rep: usize) -> Option<Fetch> {
        let mut q = *f;
        match f.role {
            FetchRole::Output { output, mubatch } => {
                q.role = FetchRole::Output {
                    output,
                    mubatch: self.map.global_mubatch(rep, mubatch, self.n_mub),
                };
            }
            FetchRole::Grad(param) => {
                let dpp = self.params.get(&param);
                if rep > 0 && dpp.is_none_or(|d| d.zero1.is_none()) {
                    return None;
                }
                if let Some(dpp) = dpp {
                    q.buf = dpp.assembled;
                }
            }
        }
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pipeline_model;
    use crate::program::InputPlacement;
    use crate::unroll::{insert_frees, unroll_loop, UnrollOptions};
    use crate::verify::verify_program;
    use raxpp_ir::{GraphBuilder, Prim, TraceCtx};
    use raxpp_sched::gpipe;

    fn two_stage_program() -> MpmdProgram {
        let ctx = TraceCtx::new();
        let w1 = ctx.input([8, 8]);
        let w2 = ctx.input([8, 8]);
        let x = ctx.input([4, 8]);
        let h = ctx.pipeline_yield(&x.matmul(&w1).unwrap().tanh());
        let y = h.matmul(&w2).unwrap();
        let loss = y.mul(&y).unwrap().sum();
        let jaxpr = ctx.finish(&[loss]).unwrap();
        let model = pipeline_model(&jaxpr, 2).unwrap();
        unroll_loop(
            &model,
            &gpipe(2, 2).unwrap(),
            UnrollOptions {
                loop_commuting: true,
            },
        )
        .unwrap()
        .program
    }

    /// Appends a plain SGD update for parameter 0 so the pass has an
    /// Update instruction to rewrite.
    fn with_update(mut p: MpmdProgram) -> MpmdProgram {
        let (pbuf, owner, shape) = {
            let pl = p
                .placements
                .iter()
                .find(|pl| matches!(pl.source, InputSource::Param(0)))
                .unwrap();
            (pl.buf, pl.actor, pl.shape.clone())
        };
        let grad = p
            .fetches
            .iter()
            .find_map(|f| match f.role {
                crate::program::FetchRole::Grad(0) => Some(f.buf),
                _ => None,
            })
            .unwrap();
        let mut b = GraphBuilder::new();
        let pv = b.input(shape.clone());
        let gv = b.input(shape);
        let step = b.emit(Prim::Scale(0.1), &[gv]).unwrap();
        let p2 = b.emit(Prim::Sub, &[pv, step]).unwrap();
        let j = p.add_jaxpr(b.finish(vec![p2]).unwrap());
        p.actors[owner].push(Instr::Run {
            jaxpr: j,
            inputs: vec![pbuf, grad],
            outputs: vec![pbuf],
            label: TaskLabel::Update { param: 0 },
        });
        p
    }

    #[test]
    fn dp_split_tiles_exactly() {
        for (full, r) in [(8, 2), (8, 4), (7, 2), (9, 4), (4, 4)] {
            let mut covered = 0;
            for rep in 0..r {
                let (start, len) = dp_split(full, r, rep);
                assert_eq!(start, covered);
                covered += len;
            }
            assert_eq!(covered, full);
        }
    }

    #[test]
    fn single_replica_is_identity() {
        let p = two_stage_program();
        let r = replicate_program(&p, 1, None).unwrap();
        assert_eq!(r.n_actors(), p.n_actors());
        assert!(r.dp.is_none());
    }

    #[test]
    fn double_replication_rejected() {
        let p = two_stage_program();
        let r = replicate_program(&p, 2, None).unwrap();
        assert!(matches!(
            replicate_program(&r, 2, None),
            Err(ReplicateError::AlreadyReplicated)
        ));
    }

    #[test]
    fn replicated_program_verifies_with_dp_collectives() {
        let p = with_update(two_stage_program());
        for replicas in [2, 4] {
            let mut r = replicate_program(&p, replicas, None).unwrap();
            assert_eq!(r.n_actors(), p.n_actors() * replicas);
            insert_frees(&mut r);
            verify_program(&r).unwrap();
            let dp_colls = r
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
                .count();
            // One gradient all-reduce per replica of the one update,
            // wired as a true sum: the gradient buffer is every
            // replica's wire and the dst is a fresh assembled buffer.
            assert_eq!(dp_colls, replicas);
            for i in r.actors.iter().flatten() {
                if let Instr::Collective {
                    axis: CollectiveAxis::Dp,
                    src,
                    dst,
                    wires,
                    ..
                } = i
                {
                    assert_eq!(wires, &vec![*src; replicas]);
                    assert_ne!(dst, src);
                }
            }
            let meta = r.dp.unwrap();
            assert_eq!(meta.replicas, replicas);
            assert_eq!(meta.base_actors, p.n_actors());
            assert!(!meta.zero1);
        }
    }

    #[test]
    fn output_fetches_fan_out_grad_fetches_repoint() {
        let p = with_update(two_stage_program());
        let r = replicate_program(&p, 2, None).unwrap();
        assert_eq!(r.placements.len(), p.placements.len() * 2);
        let dp = DpMap::new(2, p.n_actors());
        // Per-microbatch outputs live on the replica that consumed the
        // microbatch: one fetch per replica, under global indices.
        let orig_outputs = p
            .fetches
            .iter()
            .filter(|f| matches!(f.role, FetchRole::Output { .. }))
            .count();
        let out_fetches: Vec<&Fetch> = r
            .fetches
            .iter()
            .filter(|f| matches!(f.role, FetchRole::Output { .. }))
            .collect();
        assert_eq!(out_fetches.len(), orig_outputs * 2);
        let n_mub = 2; // gpipe(2, 2)
        for f in &out_fetches {
            let FetchRole::Output { mubatch, .. } = f.role else {
                unreachable!()
            };
            let rep = dp.replica_of(f.actor);
            assert!(dp.mubatch_range(rep, n_mub).contains(&mubatch));
        }
        // Gradient fetches read the assembled sum, not the replica-local
        // partial gradient, from replica 0.
        let (old_grad, new_grad) = (
            p.fetches
                .iter()
                .find(|f| matches!(f.role, FetchRole::Grad(0)))
                .unwrap(),
            r.fetches
                .iter()
                .find(|f| matches!(f.role, FetchRole::Grad(0)))
                .unwrap(),
        );
        assert_ne!(new_grad.buf, old_grad.buf);
        assert_eq!(new_grad.actor, old_grad.actor);
    }

    #[test]
    fn data_placements_shard_the_global_batch() {
        let p = with_update(two_stage_program());
        let replicas = 2;
        let r = replicate_program(&p, replicas, None).unwrap();
        let dp = DpMap::new(replicas, p.n_actors());
        let n_mub = 2; // gpipe(2, 2)
        let mut seen = vec![false; replicas * n_mub];
        for q in &r.placements {
            if let InputSource::Data { mubatch, .. } = q.source {
                let rep = dp.replica_of(q.actor);
                assert!(
                    dp.mubatch_range(rep, n_mub).contains(&mubatch),
                    "replica {rep} placed out-of-range microbatch {mubatch}"
                );
                seen[mubatch] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every global microbatch must be placed exactly once"
        );
    }

    #[test]
    fn zero1_shards_state_placements_and_folds_params() {
        let mut p = with_update(two_stage_program());
        // Give the update a momentum slot so there is state to shard.
        let (pbuf, owner, shape) = {
            let pl = p
                .placements
                .iter()
                .find(|pl| matches!(pl.source, InputSource::Param(0)))
                .unwrap();
            (pl.buf, pl.actor, pl.shape.clone())
        };
        let state = BufferId(9000);
        p.placements.push(InputPlacement {
            buf: state,
            actor: owner,
            shape: shape.clone(),
            source: InputSource::State { param: 0, slot: 0 },
        });
        // Rewrite the appended SGD update into a momentum-style one that
        // also consumes/produces the state slot.
        let upd = p
            .actors
            .iter_mut()
            .flatten()
            .find(|i| {
                matches!(
                    i,
                    Instr::Run {
                        label: TaskLabel::Update { .. },
                        ..
                    }
                )
            })
            .unwrap();
        if let Instr::Run {
            jaxpr,
            inputs,
            outputs,
            ..
        } = upd
        {
            inputs.push(state);
            outputs.push(state);
            let mut b = GraphBuilder::new();
            let pv = b.input(shape.clone());
            let gv = b.input(shape.clone());
            let sv = b.input(shape.clone());
            let v2 = b.emit(Prim::Add, &[sv, gv]).unwrap();
            let step = b.emit(Prim::Scale(0.1), &[v2]).unwrap();
            let p2 = b.emit(Prim::Sub, &[pv, step]).unwrap();
            let njid = JaxprId(p.jaxprs.len() as u32);
            p.jaxprs.push(b.finish(vec![p2, v2]).unwrap());
            *jaxpr = njid;
        }
        let replicas = 2;
        let full = shape.dim(0);
        let mut build = |_param: usize, start: usize, len: usize| -> Result<Jaxpr, String> {
            let mut b = GraphBuilder::new();
            let slice_shape = Shape::new([len, shape.dim(1)]);
            let pv = b.input(shape.clone());
            let gs = b.input(slice_shape.clone());
            let sv = b.input(slice_shape);
            let ps = b.emit(Prim::SliceFirst { start, len }, &[pv]).unwrap();
            let v2 = b.emit(Prim::Add, &[sv, gs]).unwrap();
            let step = b.emit(Prim::Scale(0.1), &[v2]).unwrap();
            let p2 = b.emit(Prim::Sub, &[ps, step]).unwrap();
            b.finish(vec![p2, v2]).map_err(|e| e.to_string())
        };
        let mut r = replicate_program(&p, replicas, Some(&mut build)).unwrap();
        insert_frees(&mut r);
        verify_program(&r).unwrap();
        assert!(r.dp.unwrap().zero1);
        // Two DP collectives per replica now: the gradient's
        // reduce-scatter and the parameter's all-gather.
        let dp_colls = r
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
            .count();
        assert_eq!(dp_colls, 2 * replicas);
        // The all-gather writes the parameter buffer itself.
        assert!(r.actors.iter().flatten().any(|i| matches!(
            i,
            Instr::Collective {
                kind: CollectiveKind::AllGather,
                axis: CollectiveAxis::Dp,
                dst,
                ..
            } if *dst == pbuf
        )));
        // State placements shrank to first-dim slice shapes that tile
        // the full dim.
        let state_lens: Vec<usize> = r
            .placements
            .iter()
            .filter(|pl| matches!(pl.source, InputSource::State { .. }))
            .map(|pl| pl.shape.dim(0))
            .collect();
        assert_eq!(state_lens.iter().sum::<usize>(), full);
    }

    #[test]
    fn zero1_composes_with_tp() {
        // The lifted restriction: first-dim state sharding is uniform
        // across TP ranks (TP never splits dim 0), so ZeRO-1 now lowers
        // under tp > 1 and the program verifies.
        let p = with_update(two_stage_program());
        let shape = p
            .placements
            .iter()
            .find(|pl| matches!(pl.source, InputSource::Param(0)))
            .unwrap()
            .shape
            .clone();
        let sharded = crate::shard::shard_program(&p, 2).unwrap();
        let mut build = |_param: usize, start: usize, len: usize| -> Result<Jaxpr, String> {
            let mut b = GraphBuilder::new();
            let pv = b.input(shape.clone());
            let gs = b.input(Shape::new([len, shape.dim(1)]));
            let ps = b.emit(Prim::SliceFirst { start, len }, &[pv]).unwrap();
            let step = b.emit(Prim::Scale(0.1), &[gs]).unwrap();
            let p2 = b.emit(Prim::Sub, &[ps, step]).unwrap();
            b.finish(vec![p2]).map_err(|e| e.to_string())
        };
        let mut r = replicate_program(&sharded, 2, Some(&mut build)).unwrap();
        insert_frees(&mut r);
        verify_program(&r).unwrap();
        assert!(r.dp.unwrap().zero1);
        // Reduce-scatter + all-gather on every TP rank of every replica.
        let dp_colls = r
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
            .count();
        assert!(dp_colls > 0 && dp_colls % 2 == 0);
    }

    #[test]
    fn composes_with_tp_sharding() {
        let p = with_update(two_stage_program());
        let sharded = crate::shard::shard_program(&p, 2).unwrap();
        let mut r = replicate_program(&sharded, 2, None).unwrap();
        assert_eq!(r.n_actors(), p.n_actors() * 2 * 2);
        insert_frees(&mut r);
        verify_program(&r).unwrap();
        // Both axes present: TP collectives within replicas, DP
        // collectives across them.
        let (mut tp_colls, mut dp_colls) = (0, 0);
        let meta = r.dp.unwrap();
        let dp = DpMap::new(meta.replicas, meta.base_actors);
        for i in r.actors.iter().flatten() {
            if let Instr::Collective { axis, group, .. } = i {
                match axis {
                    CollectiveAxis::Tp => {
                        tp_colls += 1;
                        // TP groups stay within one replica block.
                        let rep = dp.replica_of(group[0]);
                        assert!(group.iter().all(|&m| dp.replica_of(m) == rep));
                    }
                    CollectiveAxis::Dp => {
                        dp_colls += 1;
                        // DP groups span replicas, one member each.
                        let reps: Vec<usize> = group.iter().map(|&m| dp.replica_of(m)).collect();
                        assert_eq!(reps, vec![0, 1]);
                    }
                }
            }
        }
        assert!(tp_colls > 0);
        assert!(dp_colls > 0);
    }

    #[test]
    fn replica_fold_through_replace_program_keeps_groups() {
        // The lifted-restriction path: fold host 1 onto host 0 in both
        // replicas of a dp=2 program and check the DP groups remap
        // rank-preservingly.
        let p = with_update(two_stage_program());
        let r = replicate_program(&p, 2, None).unwrap();
        let n = p.n_actors();
        // Hosts: {0,1} per replica; fold 1 -> 0 uniformly.
        let mut assign: Vec<usize> = (0..2 * n).collect();
        assign[1] = 0;
        assign[n + 1] = n;
        let folded = crate::replace::replace_program(&r, &assign).unwrap();
        verify_program(&folded).unwrap();
        for i in folded.actors.iter().flatten() {
            if let Instr::Collective { group, .. } = i {
                assert!(group.windows(2).all(|w| w[0] < w[1]));
            }
        }
        assert_eq!(p.count_runs(|_| true) * 2, folded.count_runs(|_| true));
    }

    #[test]
    fn non_uniform_fold_rejected() {
        // Folding only one replica's host breaks the DP group.
        let p = with_update(two_stage_program());
        let r = replicate_program(&p, 2, None).unwrap();
        let n = p.n_actors();
        let mut assign: Vec<usize> = (0..2 * n).collect();
        let owner = p
            .actors
            .iter()
            .position(|s| {
                s.iter().any(|i| {
                    matches!(
                        i,
                        Instr::Run {
                            label: TaskLabel::Update { .. },
                            ..
                        }
                    )
                })
            })
            .unwrap();
        // Fold replica 1's copy of the update owner onto replica 1's
        // other host, but leave replica 0 intact: the group folds
        // non-uniformly.
        let other = if owner == 0 { 1 } else { 0 };
        assign[n + owner] = n + other;
        assert!(matches!(
            crate::replace::replace_program(&r, &assign),
            Err(crate::replace::ReplaceError::Unsupported(_))
        ));
    }

    #[test]
    fn narrow_params_get_grad_sums_but_skip_zero1() {
        // Under batch sharding every updated parameter needs its
        // gradient summed — replicas hold different gradients whatever
        // the shape — but a parameter with first dim < replicas cannot
        // be state-sharded, so the ZeRO-1 builder is never invoked for
        // it and its update stays full-shape.
        let ctx = TraceCtx::new();
        let w = ctx.input([2, 4]); // dim 0 = 2 < 4 replicas
        let x = ctx.input([4, 2]);
        let y = x.matmul(&w).unwrap();
        let loss = y.mul(&y).unwrap().sum();
        let jaxpr = ctx.finish(&[loss]).unwrap();
        let model = pipeline_model(&jaxpr, 1).unwrap();
        let p = with_update(
            unroll_loop(
                &model,
                &gpipe(1, 2).unwrap(),
                UnrollOptions {
                    loop_commuting: true,
                },
            )
            .unwrap()
            .program,
        );
        let mut build = |_: usize, _: usize, _: usize| -> Result<Jaxpr, String> {
            Err("ZeRO-1 builder must not run for narrow params".into())
        };
        let r = replicate_program(&p, 4, Some(&mut build)).unwrap();
        let dp_colls = r
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
            .count();
        // One gradient all-reduce per replica, no all-gather.
        assert_eq!(dp_colls, 4);
        assert_eq!(r.count_runs(|l| matches!(l, TaskLabel::Update { .. })), 4);
    }

    #[test]
    fn fetch_and_placement_sources_survive() {
        let p = with_update(two_stage_program());
        let r = replicate_program(&p, 2, None).unwrap();
        let n_mub = 2; // gpipe(2, 2)
        let dp = DpMap::new(2, p.n_actors());
        for (q, rep) in r.placements.chunks(p.placements.len()).zip([0usize, 1]) {
            for (np, op) in q.iter().zip(&p.placements) {
                assert_eq!(np.buf, op.buf);
                assert_eq!(np.actor, dp.replica_actor(rep, op.actor));
                // Param/state sources survive verbatim; data sources are
                // shifted to the replica's global microbatch range.
                match (np.source, op.source) {
                    (
                        InputSource::Data { input, mubatch },
                        InputSource::Data {
                            input: oi,
                            mubatch: om,
                        },
                    ) => {
                        assert_eq!(input, oi);
                        assert_eq!(mubatch, dp.global_mubatch(rep, om, n_mub));
                    }
                    (ns, os) => assert_eq!(ns, os),
                }
            }
        }
    }
}
