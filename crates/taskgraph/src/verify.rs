//! Static verification of compiled MPMD programs.
//!
//! Abstractly executes every actor's instruction stream (shapes only, no
//! tensor data) and checks the invariants the runtime relies on:
//!
//! * every buffer a `Run`/`Send` uses is live (defined by a placement,
//!   an earlier `Run` output, or a `Recv` — and not yet freed);
//! * `Run` operand/result counts and shapes match the jaxpr's signature;
//! * receives match sends in order and shape per actor pair (§4.2), and
//!   no message is left on a wire when the step ends;
//! * frees hit live buffers exactly once;
//! * every fetch target is live at the end of the step;
//! * the streams make progress to completion (no deadlock) under the
//!   §4.2 traversal, [`raxpp_sched::timeline::walk`];
//! * along every recorded axis ([`MpmdProgram::tp`], [`MpmdProgram::dp`])
//!   the copies of an actor are index-aligned — equal length, equal
//!   instruction kind at every index — so the members of a group meet
//!   their collectives in the same order.
//!
//! `raxpp-core` verifies every program it compiles, in every build
//! profile; the checker is also useful for anyone generating
//! [`MpmdProgram`]s by hand.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use raxpp_ir::Shape;
use raxpp_sched::timeline::{walk, Deadlock};
use raxpp_sched::{DpMap, TpMap};

use crate::expand::streams_aligned;
use crate::program::{BufferId, CollectiveAxis, Instr, MpmdProgram};

/// A violated program invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// A `Run` or `Send` referenced a buffer that is not live.
    UseOfDeadBuffer {
        /// Offending actor.
        actor: usize,
        /// Instruction index within the actor's stream.
        pos: usize,
        /// The buffer.
        buf: BufferId,
    },
    /// A `Run`'s operands do not match its jaxpr signature.
    SignatureMismatch {
        /// Offending actor.
        actor: usize,
        /// Instruction index.
        pos: usize,
        /// Explanation.
        detail: String,
    },
    /// A receive's source id or shape does not match the send stream.
    CommMismatch {
        /// Receiving actor.
        actor: usize,
        /// Instruction index.
        pos: usize,
        /// Explanation.
        detail: String,
    },
    /// A `Free` targeted a buffer that is not live.
    BadFree {
        /// Offending actor.
        actor: usize,
        /// Instruction index.
        pos: usize,
        /// The buffer.
        buf: BufferId,
    },
    /// A fetch names a buffer that is not live at the end of the step.
    MissingFetch {
        /// Actor the fetch targets.
        actor: usize,
        /// The buffer.
        buf: BufferId,
    },
    /// The streams cannot run to completion.
    Deadlock {
        /// Actors stuck mid-stream with their cursor positions.
        stuck: Vec<(usize, usize)>,
    },
    /// Two copies of one actor along a recorded axis differ in length or
    /// in instruction kind at `pos`.
    Misaligned {
        /// The axis the two actors are copies along.
        axis: CollectiveAxis,
        /// Copy 0 and the copy that departs from it.
        actors: (usize, usize),
        /// First index at which the streams differ (the shorter
        /// stream's length when one is a prefix of the other).
        pos: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UseOfDeadBuffer { actor, pos, buf } => {
                write!(f, "actor {actor} instr {pos}: use of dead buffer {buf}")
            }
            VerifyError::SignatureMismatch { actor, pos, detail } => {
                write!(f, "actor {actor} instr {pos}: {detail}")
            }
            VerifyError::CommMismatch { actor, pos, detail } => {
                write!(f, "actor {actor} instr {pos}: {detail}")
            }
            VerifyError::BadFree { actor, pos, buf } => {
                write!(f, "actor {actor} instr {pos}: free of dead buffer {buf}")
            }
            VerifyError::MissingFetch { actor, buf } => {
                write!(
                    f,
                    "fetch of {buf} on actor {actor}: buffer not live at step end"
                )
            }
            VerifyError::Deadlock { stuck } => {
                write!(f, "program cannot complete; stuck at {stuck:?}")
            }
            VerifyError::Misaligned {
                axis,
                actors: (a, b),
                pos,
            } => write!(
                f,
                "{axis} copies on actors {a} and {b} are not index-aligned at instr {pos}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<Deadlock> for VerifyError {
    fn from(d: Deadlock) -> Self {
        VerifyError::Deadlock { stuck: d.blocked }
    }
}

/// Verifies `program` (see the module docs for the invariant list).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn verify_program(program: &MpmdProgram) -> Result<(), VerifyError> {
    let n = program.n_actors();
    let misaligned = |axis| {
        move |(a, b, pos)| VerifyError::Misaligned {
            axis,
            actors: (a, b),
            pos,
        }
    };
    if let Some(tp) = &program.tp {
        // TP rank blocks are contiguous in every replica, so one map
        // over all `n / degree` hosts covers the whole actor space.
        let map = TpMap::new(tp.degree.max(1));
        streams_aligned(program, &map, n / map.degree()).map_err(misaligned(CollectiveAxis::Tp))?;
    }
    if let Some(dp) = &program.dp {
        let map = DpMap::new(dp.replicas.max(1), dp.base_actors.max(1));
        streams_aligned(program, &map, dp.base_actors).map_err(misaligned(CollectiveAxis::Dp))?;
    }
    let mut live: Vec<HashMap<BufferId, Shape>> = vec![HashMap::new(); n];
    for p in &program.placements {
        live[p.actor].insert(p.buf, p.shape.clone());
    }
    // §4.2 for collectives: every pair of actors sharing any
    // tensor-parallel group must observe the same sequence of collective
    // instances (identified by kind/group/wires/dim — identical across
    // the instance's ranks), else their ring exchanges would cross-match.
    for a in 0..n {
        for b in a + 1..n {
            let seq = |me: usize, peer: usize| {
                program.actors[me]
                    .iter()
                    .filter_map(|i| match i {
                        Instr::Collective {
                            kind,
                            group,
                            wires,
                            dim,
                            ..
                        } if group.contains(&peer) => Some((kind, group, wires, dim)),
                        _ => None,
                    })
                    .collect::<Vec<_>>()
            };
            if seq(a, b) != seq(b, a) {
                return Err(VerifyError::CommMismatch {
                    actor: b,
                    pos: 0,
                    detail: format!(
                        "actors {a} and {b} disagree on their shared collective sequence"
                    ),
                });
            }
        }
    }

    // In-flight messages per directed pair.
    let mut wires: HashMap<(usize, usize), VecDeque<(BufferId, Shape)>> = HashMap::new();
    let lens: Vec<usize> = program.actors.iter().map(Vec::len).collect();
    walk(&lens, |a, pos| {
        match &program.actors[a][pos] {
            Instr::Run {
                jaxpr,
                inputs,
                outputs,
                ..
            } => {
                let jx = &program.jaxprs[jaxpr.0 as usize];
                if inputs.len() != jx.invars().len() || outputs.len() != jx.outvars().len() {
                    return Err(VerifyError::SignatureMismatch {
                        actor: a,
                        pos,
                        detail: format!(
                            "arity mismatch: {}/{} operands, {}/{} results",
                            inputs.len(),
                            jx.invars().len(),
                            outputs.len(),
                            jx.outvars().len()
                        ),
                    });
                }
                for (b, &v) in inputs.iter().zip(jx.invars()) {
                    let Some(shape) = live[a].get(b) else {
                        return Err(VerifyError::UseOfDeadBuffer {
                            actor: a,
                            pos,
                            buf: *b,
                        });
                    };
                    if shape != jx.shape(v) {
                        return Err(VerifyError::SignatureMismatch {
                            actor: a,
                            pos,
                            detail: format!(
                                "operand {b} has shape {shape}, jaxpr wants {}",
                                jx.shape(v)
                            ),
                        });
                    }
                }
                for (b, &v) in outputs.iter().zip(jx.outvars()) {
                    live[a].insert(*b, jx.shape(v).clone());
                }
            }
            Instr::Send { buf, to } => {
                let Some(shape) = live[a].get(buf) else {
                    return Err(VerifyError::UseOfDeadBuffer {
                        actor: a,
                        pos,
                        buf: *buf,
                    });
                };
                wires
                    .entry((a, *to))
                    .or_default()
                    .push_back((*buf, shape.clone()));
            }
            Instr::Recv {
                buf,
                src,
                from,
                shape,
            } => {
                let queue = wires.entry((*from, a)).or_default();
                let Some((id, wire_shape)) = queue.front() else {
                    return Ok(false); // wait for the sender
                };
                if id != src {
                    return Err(VerifyError::CommMismatch {
                        actor: a,
                        pos,
                        detail: format!(
                            "expected {src} from actor {from}, wire has {id} \
                             (§4.2 order violated)"
                        ),
                    });
                }
                if wire_shape != shape {
                    return Err(VerifyError::CommMismatch {
                        actor: a,
                        pos,
                        detail: format!("shape mismatch on {src}: wire {wire_shape}, recv {shape}"),
                    });
                }
                queue.pop_front();
                live[a].insert(*buf, shape.clone());
            }
            Instr::Copy { dst, src } => {
                let Some(shape) = live[a].get(src).cloned() else {
                    return Err(VerifyError::UseOfDeadBuffer {
                        actor: a,
                        pos,
                        buf: *src,
                    });
                };
                live[a].insert(*dst, shape);
            }
            Instr::Free { buf } => {
                if live[a].remove(buf).is_none() {
                    return Err(VerifyError::BadFree {
                        actor: a,
                        pos,
                        buf: *buf,
                    });
                }
            }
            Instr::Collective {
                kind,
                dst,
                src,
                group,
                wires: coll_wires,
                dim,
                ..
            } => {
                if group.is_empty() || coll_wires.len() != group.len() {
                    return Err(VerifyError::SignatureMismatch {
                        actor: a,
                        pos,
                        detail: format!(
                            "collective group/wires size mismatch: {} vs {}",
                            group.len(),
                            coll_wires.len()
                        ),
                    });
                }
                if !group.windows(2).all(|w| w[0] < w[1]) {
                    return Err(VerifyError::SignatureMismatch {
                        actor: a,
                        pos,
                        detail: format!("collective group {group:?} not rank-ascending"),
                    });
                }
                let Some(rank) = group.iter().position(|&g| g == a) else {
                    return Err(VerifyError::SignatureMismatch {
                        actor: a,
                        pos,
                        detail: format!("actor {a} not in its collective group {group:?}"),
                    });
                };
                if coll_wires[rank] != *src {
                    return Err(VerifyError::SignatureMismatch {
                        actor: a,
                        pos,
                        detail: format!(
                            "collective src {src} is not this rank's wire {}",
                            coll_wires[rank]
                        ),
                    });
                }
                let Some(shape) = live[a].get(src) else {
                    return Err(VerifyError::UseOfDeadBuffer {
                        actor: a,
                        pos,
                        buf: *src,
                    });
                };
                let t = group.len();
                use crate::program::CollectiveKind;
                let out_shape = match kind {
                    CollectiveKind::AllReduce => shape.clone(),
                    CollectiveKind::AllGather => {
                        if *dim >= shape.rank() {
                            return Err(VerifyError::SignatureMismatch {
                                actor: a,
                                pos,
                                detail: format!("collective dim {dim} out of range for {shape}"),
                            });
                        }
                        let mut dims = shape.dims().to_vec();
                        dims[*dim] *= t;
                        Shape::new(dims)
                    }
                };
                live[a].insert(*dst, out_shape);
            }
        }
        Ok(true)
    })?;

    // Every message sent was received: a value left on a wire would sit
    // in the receiver's mailbox into the next step.
    if let Some((&(from, to), queue)) = wires
        .iter()
        .filter(|(_, queue)| !queue.is_empty())
        .min_by_key(|(&pair, _)| pair)
    {
        return Err(VerifyError::CommMismatch {
            actor: to,
            pos: lens[to],
            detail: format!(
                "{} sent by actor {from} is never received",
                queue.front().expect("non-empty").0
            ),
        });
    }
    for f in &program.fetches {
        if !live[f.actor].contains_key(&f.buf) {
            return Err(VerifyError::MissingFetch {
                actor: f.actor,
                buf: f.buf,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pipeline_model;
    use crate::program::{Fetch, FetchRole, JaxprId, TaskLabel};
    use crate::unroll::{insert_frees, unroll_loop, UnrollOptions};
    use raxpp_ir::{GraphBuilder, Prim, TraceCtx};
    use raxpp_sched::{one_f1b, zero_bubble_h1};

    fn compiled_program(split: bool) -> MpmdProgram {
        let ctx = TraceCtx::new();
        let w1 = ctx.input([4, 4]);
        let w2 = ctx.input([4, 4]);
        let x = ctx.input([2, 4]);
        let h = ctx.pipeline_yield(&x.matmul(&w1).unwrap().tanh());
        let y = h.matmul(&w2).unwrap();
        let loss = y.mul(&y).unwrap().sum();
        let jaxpr = ctx.finish(&[loss]).unwrap();
        let model = pipeline_model(&jaxpr, 2).unwrap();
        let schedule = if split {
            zero_bubble_h1(2, 4).unwrap()
        } else {
            one_f1b(2, 4).unwrap()
        };
        let mut compiled = unroll_loop(&model, &schedule, UnrollOptions::default()).unwrap();
        insert_frees(&mut compiled.program);
        compiled.program
    }

    #[test]
    fn compiled_programs_verify() {
        verify_program(&compiled_program(false)).unwrap();
        verify_program(&compiled_program(true)).unwrap();
    }

    #[test]
    fn detects_use_after_free() {
        let mut p = compiled_program(false);
        // Free a buffer right before its first use as a Run input.
        let (a, pos, buf) = p
            .actors
            .iter()
            .enumerate()
            .find_map(|(a, s)| {
                s.iter().enumerate().find_map(|(i, instr)| match instr {
                    Instr::Run { inputs, .. } if !inputs.is_empty() => Some((a, i, inputs[0])),
                    _ => None,
                })
            })
            .unwrap();
        p.actors[a].insert(pos, Instr::Free { buf });
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::UseOfDeadBuffer { .. }) | Err(VerifyError::BadFree { .. })
        ));
    }

    #[test]
    fn detects_double_free() {
        let mut p = compiled_program(false);
        let (a, pos) = p
            .actors
            .iter()
            .enumerate()
            .find_map(|(a, s)| {
                s.iter()
                    .position(|i| matches!(i, Instr::Free { .. }))
                    .map(|pos| (a, pos))
            })
            .expect("liveness pass emitted frees");
        let dup = p.actors[a][pos].clone();
        p.actors[a].insert(pos + 1, dup);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::BadFree { .. })
        ));
    }

    #[test]
    fn detects_reordered_receives() {
        let mut p = compiled_program(false);
        // Swap two receives from the same source on some actor.
        'outer: for stream in &mut p.actors {
            let recv_positions: Vec<usize> = stream
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Instr::Recv { .. }))
                .map(|(i, _)| i)
                .collect();
            for w in recv_positions.windows(2) {
                let (x, y) = (w[0], w[1]);
                let from_match = match (&stream[x], &stream[y]) {
                    (Instr::Recv { from: f1, .. }, Instr::Recv { from: f2, .. }) => f1 == f2,
                    _ => false,
                };
                if from_match {
                    stream.swap(x, y);
                    break 'outer;
                }
            }
        }
        match verify_program(&p) {
            Err(VerifyError::CommMismatch { .. }) | Err(VerifyError::Deadlock { .. }) => {}
            other => panic!("expected comm mismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_unreceived_send() {
        let mut p = compiled_program(false);
        // A parameter stays live all step: sending it on is a legal
        // instruction, but nobody receives it, so the value would sit
        // in actor 1's mailbox into the next step.
        let param = p.placements.iter().find(|pl| pl.actor == 0).unwrap().buf;
        p.actors[0].push(Instr::Send { buf: param, to: 1 });
        crate::unroll::check_send_recv_order(&p).unwrap_err();
        match verify_program(&p) {
            Err(VerifyError::CommMismatch { actor: 1, .. }) => {}
            other => panic!("expected an unreceived send, got {other:?}"),
        }
    }

    #[test]
    fn detects_misaligned_rank_streams() {
        let mut p = crate::shard::shard_program(&compiled_program(false), 2).unwrap();
        verify_program(&p).unwrap();
        // Swap two adjacent instructions of different kinds in rank 1 of
        // host 0 only: its ranks would no longer run the same
        // instruction at `pos`.
        let kind = std::mem::discriminant::<Instr>;
        let pos = p.actors[1]
            .windows(2)
            .position(|w| kind(&w[0]) != kind(&w[1]))
            .unwrap();
        p.actors[1].swap(pos, pos + 1);
        assert_eq!(
            verify_program(&p),
            Err(VerifyError::Misaligned {
                axis: CollectiveAxis::Tp,
                actors: (0, 1),
                pos,
            })
        );
    }

    #[test]
    fn detects_signature_mismatch() {
        let mut p = MpmdProgram::default();
        let mut b = GraphBuilder::new();
        let x = b.input([2, 2]);
        let y = b.emit(Prim::Neg, &[x]).unwrap();
        let j = b.finish(vec![y]).unwrap();
        p.add_jaxpr(j);
        p.actors.push(vec![Instr::Run {
            jaxpr: JaxprId(0),
            inputs: vec![],
            outputs: vec![BufferId(0)],
            label: TaskLabel::Update { param: 0 },
        }]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn detects_missing_fetch() {
        let mut p = compiled_program(false);
        p.fetches.push(Fetch {
            buf: BufferId(999_999),
            actor: 0,
            role: FetchRole::Grad(0),
        });
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::MissingFetch { .. })
        ));
    }
}
