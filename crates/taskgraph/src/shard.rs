//! Tensor-parallel shard lowering: expanding each host actor of a fused
//! MPMD program into `tp` rank actors whose streams are linked by
//! [`Instr::Collective`] instructions (paper §2.1 composed with §4).
//!
//! The pass keeps a strong *replicated-buffer invariant*: every buffer
//! visible at the program level (placements, sends, fetches, parameter
//! and optimizer-state buffers) holds bitwise-identical values on all
//! `tp` ranks of a host. Sharding exists only *inside* a `Run`'s jaxpr:
//! a mini-partitioner marks intermediate variables as block-sharded
//! along their last axis, per-rank jaxpr variants compute just their own
//! block, and every sharded jaxpr *output* — forward, backward or
//! weight-gradient alike — leaves its `Run` as the rank's own block and
//! is reassembled right after it by a last-dim
//! [`CollectiveKind::AllGather`]. The pass emits no other collective.
//!
//! Each output element is computed by exactly one rank with the same
//! scalar program as the unsharded run (full-contraction block matmuls),
//! and concatenation does no arithmetic, so `tp > 1` executions are
//! bitwise-identical to `tp = 1` — the contract `docs/parallelism.md`
//! documents and `tests/tensor_parallel.rs` enforces.

use std::collections::HashMap;

use raxpp_ir::{GraphBuilder, IrError, Jaxpr, Prim, VarId};
use raxpp_sched::TpMap;

use crate::expand::{expand_axis, AxisRule, Fresh};
use crate::program::{
    ActorId, BufferId, CollectiveAxis, CollectiveKind, Fetch, InputPlacement, Instr, JaxprId,
    MpmdProgram, TpMeta,
};

/// Error raised by [`shard_program`].
#[derive(Debug)]
pub enum ShardError {
    /// The input program already contains collectives (double sharding).
    AlreadySharded,
    /// Building a per-rank jaxpr variant failed (a partitioner bug).
    Ir(IrError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::AlreadySharded => {
                write!(
                    f,
                    "program already contains collectives; cannot shard twice"
                )
            }
            ShardError::Ir(e) => write!(f, "shard codegen failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<IrError> for ShardError {
    fn from(e: IrError) -> Self {
        ShardError::Ir(e)
    }
}

/// Per-variable partitioning decided by the mini-partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    /// Replicated: every rank holds the full tensor.
    Full,
    /// Block-sharded along the last axis into `tp` equal blocks; rank
    /// `r` holds block `r`.
    Sharded,
}

/// Reassembly required for one jaxpr outvar: `None` for replicated
/// outputs, otherwise the axis its blocks are all-gathered along.
type OutSpec = Option<usize>;

/// One jaxpr after sharding: either shared verbatim by all ranks (no
/// shardable computation found) or one variant per rank.
enum Lowered {
    Shared(JaxprId),
    PerRank {
        variants: Vec<JaxprId>,
        outs: Vec<OutSpec>,
    },
}

fn is_elementwise_unary(p: &Prim) -> bool {
    matches!(
        p,
        Prim::Neg
            | Prim::Scale(_)
            | Prim::AddScalar(_)
            | Prim::Relu
            | Prim::Gelu
            | Prim::Tanh
            | Prim::Exp
            | Prim::Log
            | Prim::Sqrt
            | Prim::Rsqrt
            | Prim::Step
            | Prim::GeluGrad
            | Prim::PipelineYield { .. }
    )
}

fn is_elementwise_binary(p: &Prim) -> bool {
    matches!(p, Prim::Add | Prim::Sub | Prim::Mul | Prim::Div)
}

/// Decides a last-axis block partitioning for every variable of `j`.
///
/// Sharding is introduced only by 2-D matmuls whose rhs last dimension
/// divides by `t` (the output element then depends on a *full*
/// contraction, so block results are bitwise-identical to the unsharded
/// ones) and propagated through elementwise primitives. Any variable
/// consumed by a primitive that cannot operate blockwise is *poisoned*
/// back to `Full` and the analysis re-runs to a fixed point — there are
/// never mid-graph gathers, so one fused `Run` stays one fused `Run`.
fn analyze(j: &Jaxpr, t: usize) -> Vec<Part> {
    let nv = j.num_vars();
    let mut forced = vec![false; nv];
    loop {
        let mut part = vec![Part::Full; nv];
        let mut poison: Vec<VarId> = Vec::new();
        for eqn in j.eqns() {
            let out_forced = forced[eqn.output.index()];
            let poison_sharded_inputs = |poison: &mut Vec<VarId>| {
                for &i in &eqn.inputs {
                    if part[i.index()] == Part::Sharded {
                        poison.push(i);
                    }
                }
            };
            let p = match &eqn.prim {
                Prim::MatMul => {
                    let a = eqn.inputs[0];
                    let b = eqn.inputs[1];
                    if part[a.index()] == Part::Sharded {
                        // A sharded lhs would shard the contraction
                        // dimension (partial sums — not exact).
                        poison.push(a);
                        if part[b.index()] == Part::Sharded && out_forced {
                            poison.push(b);
                        }
                        Part::Full
                    } else if part[b.index()] == Part::Sharded {
                        if out_forced {
                            poison.push(b);
                            Part::Full
                        } else {
                            Part::Sharded
                        }
                    } else if !out_forced && j.shape(b).dim(1).is_multiple_of(t) {
                        Part::Sharded
                    } else {
                        Part::Full
                    }
                }
                p if is_elementwise_binary(p) => {
                    let any = eqn.inputs.iter().any(|&i| part[i.index()] == Part::Sharded);
                    if any && out_forced {
                        poison_sharded_inputs(&mut poison);
                        Part::Full
                    } else if any {
                        Part::Sharded
                    } else {
                        Part::Full
                    }
                }
                p if is_elementwise_unary(p) => {
                    let sharded = part[eqn.inputs[0].index()] == Part::Sharded;
                    if sharded && out_forced {
                        poison.push(eqn.inputs[0]);
                        Part::Full
                    } else if sharded {
                        Part::Sharded
                    } else {
                        Part::Full
                    }
                }
                // Reductions, reshapes, transposes, broadcasts, batched
                // matmuls, … need the full tensor.
                _ => {
                    poison_sharded_inputs(&mut poison);
                    Part::Full
                }
            };
            part[eqn.output.index()] = p;
        }
        if poison.is_empty() {
            return part;
        }
        for v in poison {
            forced[v.index()] = true;
        }
    }
}

/// Generates rank `r`'s variant of `j` under `part`: a sharded outvar
/// is returned as the rank's own block.
fn shard_jaxpr(j: &Jaxpr, part: &[Part], t: usize, r: usize) -> Result<Jaxpr, ShardError> {
    let mut b = GraphBuilder::new();
    let mut map: HashMap<VarId, VarId> = HashMap::new();
    // Cache of block slices of replicated variables, per source var.
    let mut sliced: HashMap<VarId, VarId> = HashMap::new();
    for &v in j.invars() {
        map.insert(v, b.input(j.shape(v).clone()));
    }
    // Realizes `v` as rank `r`'s block, slicing replicated tensors.
    let slice_block = |b: &mut GraphBuilder,
                       map: &HashMap<VarId, VarId>,
                       sliced: &mut HashMap<VarId, VarId>,
                       v: VarId|
     -> Result<VarId, ShardError> {
        if part[v.index()] == Part::Sharded {
            return Ok(map[&v]);
        }
        if let Some(&s) = sliced.get(&v) {
            return Ok(s);
        }
        let shape = j.shape(v);
        let last = shape.dim(shape.rank() - 1);
        let blk = last / t;
        let s = b.emit(
            Prim::SliceLast {
                start: r * blk,
                len: blk,
            },
            &[map[&v]],
        )?;
        sliced.insert(v, s);
        Ok(s)
    };
    for eqn in j.eqns() {
        let out = match part[eqn.output.index()] {
            Part::Full => {
                let inputs: Vec<VarId> = eqn.inputs.iter().map(|v| map[v]).collect();
                b.emit(eqn.prim.clone(), &inputs)?
            }
            Part::Sharded => match &eqn.prim {
                Prim::MatMul => {
                    let lhs = map[&eqn.inputs[0]];
                    let rhs = slice_block(&mut b, &map, &mut sliced, eqn.inputs[1])?;
                    b.emit(Prim::MatMul, &[lhs, rhs])?
                }
                p => {
                    let inputs: Vec<VarId> = eqn
                        .inputs
                        .iter()
                        .map(|&v| slice_block(&mut b, &map, &mut sliced, v))
                        .collect::<Result<_, _>>()?;
                    b.emit(p.clone(), &inputs)?
                }
            },
        };
        map.insert(eqn.output, out);
    }
    Ok(b.finish(j.outvars().iter().map(|ov| map[ov]).collect())?)
}

/// The tensor-parallel rule set of [`expand_axis`]: a `Run` of a
/// sharded jaxpr becomes the rank's variant followed by the reassembly
/// collectives of its sharded outputs; everything program-visible stays
/// replicated, so placements are plain copies and fetches read rank 0.
struct TpRule {
    /// Per input [`JaxprId`].
    lowered: Vec<Lowered>,
    fresh: Fresh,
}

impl AxisRule for TpRule {
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
        match &self.lowered[jaxpr.0 as usize] {
            Lowered::Shared(nj) => {
                for &actor in group {
                    streams[actor].push(Instr::Run {
                        jaxpr: *nj,
                        inputs: inputs.clone(),
                        outputs: outputs.clone(),
                        label: *label,
                    });
                }
            }
            Lowered::PerRank { variants, outs } => {
                // One wire set per sharded output, shared by all
                // ranks of this instruction instance.
                let wire_sets: Vec<Option<Vec<BufferId>>> = outs
                    .iter()
                    .map(|s| {
                        s.as_ref()
                            .map(|_| group.iter().map(|_| self.fresh.next()).collect())
                    })
                    .collect();
                for (r, &actor) in group.iter().enumerate() {
                    let run_outs: Vec<BufferId> = outputs
                        .iter()
                        .zip(&wire_sets)
                        .map(|(orig, w)| match w {
                            Some(ws) => ws[r],
                            None => *orig,
                        })
                        .collect();
                    streams[actor].push(Instr::Run {
                        jaxpr: variants[r],
                        inputs: inputs.clone(),
                        outputs: run_outs,
                        label: *label,
                    });
                    for (o, (spec, wires)) in outs.iter().zip(&wire_sets).enumerate() {
                        if let (Some(dim), Some(wires)) = (spec, wires) {
                            streams[actor].push(Instr::Collective {
                                kind: CollectiveKind::AllGather,
                                dst: outputs[o],
                                src: wires[r],
                                group: group.to_vec(),
                                wires: wires.clone(),
                                dim: *dim,
                                axis: CollectiveAxis::Tp,
                            });
                        }
                    }
                }
            }
        }
    }

    fn placement(&self, p: &InputPlacement, _rank: usize) -> InputPlacement {
        p.clone()
    }

    fn fetch(&self, f: &Fetch, rank: usize) -> Option<Fetch> {
        // Rank 0's buffers are bitwise-identical to every other rank's
        // (and to the `tp = 1` run's).
        (rank == 0).then_some(*f)
    }
}

/// Lowers `program` onto a tensor-parallel axis of degree `t`: every
/// host actor `a` becomes the `t` rank actors of
/// [`TpMap::group_of`]`(a)`, each running a per-rank shard of `a`'s
/// stream linked by [`Instr::Collective`]s (each one direct exchange of
/// messages among the group's ranks). `t == 1` returns the program
/// unchanged.
///
/// Sends and receives are remapped rank-to-rank, which is sound because
/// of the replicated-buffer invariant documented at the module level.
/// Placements are duplicated onto every rank; fetches read rank 0.
///
/// # Errors
///
/// Returns [`ShardError::AlreadySharded`] if `program` already contains
/// collectives, and [`ShardError::Ir`] if per-rank codegen fails.
///
/// # Panics
///
/// Panics if `t` is zero.
pub fn shard_program(program: &MpmdProgram, t: usize) -> Result<MpmdProgram, ShardError> {
    let map = TpMap::new(t);
    if t == 1 {
        return Ok(program.clone());
    }
    if program
        .actors
        .iter()
        .flatten()
        .any(|i| matches!(i, Instr::Collective { .. }))
    {
        return Err(ShardError::AlreadySharded);
    }

    let mut out = MpmdProgram::default();
    let mut lowered: Vec<Lowered> = Vec::with_capacity(program.jaxprs.len());
    for j in &program.jaxprs {
        let part = analyze(j, t);
        if !part.contains(&Part::Sharded) {
            lowered.push(Lowered::Shared(out.add_jaxpr(j.clone())));
            continue;
        }
        let mut variants = Vec::with_capacity(t);
        for r in 0..t {
            variants.push(out.add_jaxpr(shard_jaxpr(j, &part, t, r)?));
        }
        let outs = j
            .outvars()
            .iter()
            .map(|&ov| (part[ov.index()] == Part::Sharded).then(|| j.shape(ov).rank() - 1))
            .collect();
        lowered.push(Lowered::PerRank { variants, outs });
    }
    let mut rule = TpRule {
        lowered,
        fresh: Fresh::above(program),
    };
    expand_axis(program, &map, &mut rule, &mut out);
    out.tp = Some(TpMeta { degree: t });
    Ok(out)
}

/// Coalesces back-to-back collectives into contiguous *buckets* by
/// sliding the `Free` instructions `insert_frees` interleaves *between
/// the collectives* of a `Run`'s reassembly (and of consecutive sharded
/// `Run`s) past the collective block they interrupt. Frees between a
/// `Run` and its first collective stay where they are.
///
/// After the pass the collectives of a bucket are adjacent in the
/// stream and the hoisted `Free`s follow the last of them. Delaying a
/// `Free` past a collective is always sound for liveness (the buffer
/// simply stays resident a few instructions longer); the pass still
/// refuses to move a `Free` across a collective that mentions the freed
/// id (a freed wire id could in principle be redefined as a collective
/// `dst`).
///
/// What the pass is kept for, measured when its deletion was tried
/// (`EXPERIMENTS.md` "PR 24"): with the `Free`s left between the
/// collectives, the fleet's peak store bytes sit one buffer higher in
/// the median — the fitting explanation, unverified, is that a `Free`
/// issued while a collective still sends the freed buffer is parked
/// until a later deletion point, where one issued after the bucket is
/// not.
///
/// Call after [`crate::unroll::insert_frees`]. Streams stay
/// index-aligned (the decision depends only on instruction kinds and
/// ids, which are symmetric across ranks), and no-op for programs
/// without collectives.
pub fn bucket_collectives(program: &mut MpmdProgram) {
    for stream in &mut program.actors {
        let mut i = 0;
        while i < stream.len() {
            if !matches!(stream[i], Instr::Collective { .. }) {
                i += 1;
                continue;
            }
            // Extend the bucket over [i, j), hoisting safe Frees out.
            let mut deferred: Vec<Instr> = Vec::new();
            let mut j = i;
            while j < stream.len() {
                match &stream[j] {
                    Instr::Collective { .. } => j += 1,
                    Instr::Free { buf } => {
                        // Safe to defer unless a later collective in the
                        // bucket mentions this id.
                        let mentioned = stream[j + 1..]
                            .iter()
                            .take_while(|n| {
                                matches!(n, Instr::Collective { .. } | Instr::Free { .. })
                            })
                            .any(|n| match n {
                                Instr::Collective {
                                    dst, src, wires, ..
                                } => dst == buf || src == buf || wires.contains(buf),
                                _ => false,
                            });
                        if mentioned {
                            break;
                        }
                        deferred.push(stream.remove(j));
                    }
                    _ => break,
                }
            }
            // Reinsert the deferred frees right after the bucket.
            for (k, f) in deferred.into_iter().enumerate() {
                stream.insert(j + k, f);
            }
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pipeline_model;
    use crate::unroll::{insert_frees, unroll_loop, UnrollOptions};
    use crate::verify::verify_program;
    use raxpp_ir::TraceCtx;
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

    #[test]
    fn degree_one_is_identity() {
        let p = two_stage_program();
        let s = shard_program(&p, 1).unwrap();
        assert_eq!(s.n_actors(), p.n_actors());
        assert_eq!(s.num_instrs(), p.num_instrs());
    }

    #[test]
    fn double_sharding_rejected() {
        let p = two_stage_program();
        let s = shard_program(&p, 2).unwrap();
        assert!(matches!(
            shard_program(&s, 2),
            Err(ShardError::AlreadySharded)
        ));
    }

    #[test]
    fn sharded_program_verifies_and_has_collectives() {
        let p = two_stage_program();
        for t in [2, 4] {
            let mut s = shard_program(&p, t).unwrap();
            assert_eq!(s.n_actors(), p.n_actors() * t);
            insert_frees(&mut s);
            verify_program(&s).unwrap();
            let n_coll = s
                .actors
                .iter()
                .flatten()
                .filter(|i| matches!(i, Instr::Collective { .. }))
                .count();
            // Every rank of every sharded run participates.
            assert!(n_coll > 0, "expected collectives in\n{}", s.dump());
            assert!(n_coll.is_multiple_of(t));
        }
    }

    #[test]
    fn fetches_on_rank_zero_placements_on_all() {
        let p = two_stage_program();
        let t = 2;
        let s = shard_program(&p, t).unwrap();
        assert_eq!(s.placements.len(), p.placements.len() * t);
        assert_eq!(s.fetches.len(), p.fetches.len());
        for (f, orig) in s.fetches.iter().zip(&p.fetches) {
            assert_eq!(f.actor, orig.actor * t);
        }
    }

    #[test]
    fn analysis_poisons_reductions() {
        // y = sum(x @ w): the reduce forces the matmul output full, so
        // nothing stays sharded.
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8]);
        let w = b.input([8, 8]);
        let h = b.emit(Prim::MatMul, &[x, w]).unwrap();
        let s = b
            .emit(
                Prim::ReduceSum {
                    axes: vec![0, 1],
                    keepdims: false,
                },
                &[h],
            )
            .unwrap();
        let j = b.finish(vec![s]).unwrap();
        let part = analyze(&j, 2);
        assert!(part.iter().all(|p| *p == Part::Full));
    }

    #[test]
    fn analysis_shards_matmul_chain() {
        // y = tanh(x @ w) stays sharded to the output.
        let mut b = GraphBuilder::new();
        let x = b.input([4, 8]);
        let w = b.input([8, 8]);
        let h = b.emit(Prim::MatMul, &[x, w]).unwrap();
        let y = b.emit(Prim::Tanh, &[h]).unwrap();
        let j = b.finish(vec![y]).unwrap();
        let part = analyze(&j, 2);
        assert_eq!(part[j.outvars()[0].index()], Part::Sharded);
    }
}
