//! Forward-only program projection — the serving-side lowering.
//!
//! Training compiles one fused instruction stream per actor containing
//! the whole step: forward tasks, backward tasks, gradient
//! accumulation, cross-actor gradient reduces, and (after the trainer
//! appends them) optimizer updates. Inference needs none of that: a
//! serving step is the *forward half* of the training step, run over
//! the same pipeline placement with the same parameters.
//!
//! [`forward_project`] extracts exactly that half. It is a strict
//! *projection* of the compiled program — it never builds new compute,
//! it only drops instructions — so the forward jaxprs, buffer ids, and
//! placement of the surviving tasks are byte-for-byte the ones the
//! training step would execute. That is what makes the serving parity
//! gate checkable: same parameters + same microbatch data ⇒ the served
//! outputs are bitwise-identical to the pre-update outputs of a
//! training step (`docs/serving.md`).
//!
//! What survives, per actor stream:
//!
//! * `Run` instructions labelled [`TaskLabel::Fwd`] — the per-stage,
//!   per-microbatch forward tasks. Backward halves, gradient
//!   accumulation (`AccumGrad`), cotangent seeds/sums (`CotangentSum`),
//!   shared-weight reduces (`GradReduce`), and optimizer `Update`s are
//!   dropped.
//! * `Send`/`Recv` pairs whose payload feeds a surviving forward task
//!   on the receiving actor — the §4.2 activation traffic. Cotangent
//!   and gradient traffic (payloads feeding only dropped tasks) and
//!   post-update shared-weight re-broadcasts (receives with no later
//!   forward use) are dropped *pairwise*: because the unroller
//!   deduplicates sends per `(buffer, destination)`, a wire id is
//!   unique within an actor pair, so filtering both sides by the same
//!   per-payload verdict preserves the matching-order discipline.
//! * Placements of parameters and microbatch data that a surviving
//!   task reads. Optimizer-state placements are dropped — a serving
//!   runtime never places moments.
//! * [`FetchRole::Output`] fetches (the model outputs). Gradient
//!   fetches are dropped.
//!
//! Existing `Free`s are discarded rather than kept: the caller re-runs
//! [`crate::insert_frees`] on the projected program, which frees every
//! residual at — or immediately after — its defining forward task,
//! because nothing downstream reads it any more. That is the
//! "activation retention stripped" property: serving memory is the
//! forward working set, not the training residual set.
//!
//! The projection runs on the *pipeline-shaped* program, before
//! [`crate::shard_program`] / [`crate::replicate_program`]: tensor
//! parallelism is applied to the projected forward program by the same
//! sharding pass training uses, so the sharded forward compute stays
//! identical too.

use std::collections::{HashMap, HashSet};

use crate::program::{BufferId, FetchRole, Instr, JaxprId, MpmdProgram, TaskLabel};
use crate::unroll::CompileError;

/// Projects a compiled training program onto its forward half.
///
/// See the module docs for the exact projection rules. The input must
/// be a pipeline-shaped compiler output: not yet sharded or replicated
/// (`tp`/`dp` meta absent) and not yet re-placed by a rebalance (no
/// `Copy`/`Collective` instructions). Programs that already carry
/// `Free`s (e.g. a fully-finished training step) are accepted; the
/// frees are discarded and the caller re-inserts forward-only ones.
///
/// # Errors
///
/// Returns [`CompileError::Mismatch`] when the program is already
/// sharded, replicated, or re-placed.
pub fn forward_project(program: &MpmdProgram) -> Result<MpmdProgram, CompileError> {
    if program.tp.is_some() || program.dp.is_some() {
        return Err(CompileError::Mismatch(
            "forward_project runs before shard_program/replicate_program: \
             project the pipeline program, then shard the projection"
                .into(),
        ));
    }
    if program
        .actors
        .iter()
        .flatten()
        .any(|i| matches!(i, Instr::Copy { .. } | Instr::Collective { .. }))
    {
        return Err(CompileError::Mismatch(
            "forward_project expects a compiler-output program \
             (no Copy/Collective instructions)"
                .into(),
        ));
    }

    let n = program.n_actors();

    // Pass 1 — per actor, the positions at which each buffer feeds a
    // surviving forward task (Run inputs only: the unroller never
    // relays a received activation onward, so forward uses are the
    // complete keep-criterion for received payloads).
    let mut fwd_use_at: Vec<HashMap<BufferId, Vec<usize>>> = vec![HashMap::new(); n];
    for (a, stream) in program.actors.iter().enumerate() {
        for (i, instr) in stream.iter().enumerate() {
            if let Instr::Run { inputs, label, .. } = instr {
                if matches!(label, TaskLabel::Fwd { .. }) {
                    for b in inputs {
                        fwd_use_at[a].entry(*b).or_default().push(i);
                    }
                }
            }
        }
    }

    // Pass 2 — per-payload verdicts for the wire traffic, decided on
    // the receiving side: a receive survives iff its local buffer feeds
    // a surviving forward task *later in the stream* (a post-update
    // re-broadcast writes a parameter buffer whose forward uses all
    // precede it — dropped). Keyed by (sender, receiver, wire id) so
    // the sending side applies the identical verdict.
    let mut keep_wire: HashSet<(usize, usize, BufferId)> = HashSet::new();
    for (b, stream) in program.actors.iter().enumerate() {
        for (i, instr) in stream.iter().enumerate() {
            if let Instr::Recv { buf, src, from, .. } = instr {
                let used_later = fwd_use_at[b]
                    .get(buf)
                    .is_some_and(|uses| uses.iter().any(|&u| u > i));
                if used_later {
                    keep_wire.insert((*from, b, *src));
                }
            }
        }
    }

    // Pass 3 — project the streams.
    let mut out = MpmdProgram {
        actors: vec![Vec::new(); n],
        ..MpmdProgram::default()
    };
    let mut jaxpr_map: HashMap<JaxprId, JaxprId> = HashMap::new();
    for (a, stream) in program.actors.iter().enumerate() {
        for instr in stream {
            match instr {
                Instr::Run {
                    jaxpr,
                    inputs,
                    outputs,
                    label,
                } if matches!(label, TaskLabel::Fwd { .. }) => {
                    // Compact the jaxpr table to the forward entries so
                    // downstream passes (sharding) never touch backward
                    // graphs.
                    let new_id = *jaxpr_map.entry(*jaxpr).or_insert_with(|| {
                        out.jaxprs.push(program.jaxprs[jaxpr.0 as usize].clone());
                        JaxprId(out.jaxprs.len() as u32 - 1)
                    });
                    out.actors[a].push(Instr::Run {
                        jaxpr: new_id,
                        inputs: inputs.clone(),
                        outputs: outputs.clone(),
                        label: *label,
                    });
                }
                Instr::Run { .. } => {}
                Instr::Send { buf, to } => {
                    if keep_wire.contains(&(a, *to, *buf)) {
                        out.actors[a].push(instr.clone());
                    }
                }
                Instr::Recv { src, from, .. } => {
                    if keep_wire.contains(&(*from, a, *src)) {
                        out.actors[a].push(instr.clone());
                    }
                }
                // The caller re-runs insert_frees on the projection.
                Instr::Free { .. } => {}
                Instr::Copy { .. } | Instr::Collective { .. } => unreachable!("checked above"),
            }
        }
    }

    // Placements: parameters and data a surviving task actually reads,
    // on the actor that reads them. Optimizer state never survives.
    out.placements = program
        .placements
        .iter()
        .filter(|p| {
            !matches!(p.source, crate::program::InputSource::State { .. })
                && fwd_use_at[p.actor].contains_key(&p.buf)
        })
        .cloned()
        .collect();

    // Fetches: model outputs only.
    out.fetches = program
        .fetches
        .iter()
        .filter(|f| matches!(f.role, FetchRole::Output { .. }))
        .cloned()
        .collect();

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pipeline_model;
    use crate::unroll::{check_send_recv_order, insert_frees, unroll_loop, UnrollOptions};
    use crate::verify::verify_program;
    use raxpp_ir::TraceCtx;
    use raxpp_sched::gpipe;

    /// 2-stage MLP chain traced over the IR, like the quickstart model.
    fn two_stage_loop() -> crate::unroll::CompiledLoop {
        let ctx = TraceCtx::new();
        let w1 = ctx.input([4, 8]);
        let w2 = ctx.input([8, 2]);
        let x = ctx.input([3, 4]);
        let h = ctx.pipeline_yield(&x.matmul(&w1).unwrap().tanh());
        let y = h.matmul(&w2).unwrap();
        let loss = y.mul(&y).unwrap().sum().scale(0.5);
        let jaxpr = ctx.finish(&[loss]).unwrap();
        let model = pipeline_model(&jaxpr, 2).unwrap();
        let schedule = gpipe(2, 3).unwrap();
        unroll_loop(&model, &schedule, UnrollOptions::default()).unwrap()
    }

    #[test]
    fn projection_keeps_only_forward_tasks() {
        let compiled = two_stage_loop();
        let fwd = forward_project(&compiled.program).unwrap();
        assert_eq!(
            fwd.count_runs(|l| matches!(l, TaskLabel::Fwd { .. })),
            compiled
                .program
                .count_runs(|l| matches!(l, TaskLabel::Fwd { .. })),
            "every forward task survives"
        );
        assert_eq!(
            fwd.count_runs(|l| !matches!(l, TaskLabel::Fwd { .. })),
            0,
            "no non-forward task survives"
        );
        assert!(
            fwd.fetches
                .iter()
                .all(|f| matches!(f.role, FetchRole::Output { .. })),
            "gradient fetches dropped"
        );
        assert!(
            !fwd.fetches.is_empty(),
            "model outputs still fetched: {fwd:?}"
        );
    }

    #[test]
    fn projection_preserves_matching_order_and_verifies() {
        let compiled = two_stage_loop();
        let mut fwd = forward_project(&compiled.program).unwrap();
        check_send_recv_order(&fwd).expect("projected wire traffic stays matched");
        insert_frees(&mut fwd);
        verify_program(&fwd).expect("projected program verifies");
    }

    #[test]
    fn projection_drops_backward_wire_traffic() {
        let compiled = two_stage_loop();
        let fwd = forward_project(&compiled.program).unwrap();
        let count = |p: &MpmdProgram, pred: fn(&Instr) -> bool| {
            p.actors.iter().flatten().filter(|i| pred(i)).count()
        };
        let sends_before = count(&compiled.program, |i| matches!(i, Instr::Send { .. }));
        let sends_after = count(&fwd, |i| matches!(i, Instr::Send { .. }));
        // 3 microbatches × 1 stage boundary forward, plus 3 cotangent
        // returns backward: the projection halves the wire traffic.
        assert_eq!(sends_after, 3, "one activation send per microbatch");
        assert!(sends_after < sends_before);
    }

    #[test]
    fn projection_rejects_sharded_programs() {
        let compiled = two_stage_loop();
        let mut p = compiled.program.clone();
        p.tp = Some(crate::program::TpMeta { degree: 2 });
        assert!(forward_project(&p).is_err());
    }

    #[test]
    fn frees_land_at_last_forward_use() {
        let compiled = two_stage_loop();
        let mut fwd = forward_project(&compiled.program).unwrap();
        insert_frees(&mut fwd);
        // Residual buffers (forward outputs nothing consumes any more)
        // are freed: every non-pinned defined buffer gets exactly one
        // Free in its actor stream.
        let pinned: HashSet<BufferId> = fwd
            .placements
            .iter()
            .map(|p| p.buf)
            .chain(fwd.fetches.iter().map(|f| f.buf))
            .collect();
        for stream in &fwd.actors {
            let mut defined = HashSet::new();
            let mut freed = HashSet::new();
            for instr in stream {
                match instr {
                    Instr::Run { outputs, .. } => defined.extend(outputs.iter().copied()),
                    Instr::Recv { buf, .. } => {
                        defined.insert(*buf);
                    }
                    Instr::Free { buf } => {
                        freed.insert(*buf);
                    }
                    _ => {}
                }
            }
            for b in defined {
                assert_eq!(
                    freed.contains(&b),
                    !pinned.contains(&b),
                    "buffer {b} free/pin mismatch"
                );
            }
        }
    }
}
