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
//! * collectives are the messages the runtime exchanges: a member posts
//!   one piece to every peer on the same per-pair FIFOs as `Send`s, then
//!   waits until every peer's piece of the same collective is at the
//!   head of its queue — so a collective that would pop a point-to-point
//!   message, or a piece of another collective, is a
//!   [`VerifyError::CommMismatch`], and one that waits on a blocked
//!   peer is a [`VerifyError::Deadlock`];
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
use crate::program::{ActorId, BufferId, CollectiveAxis, CollectiveKind, Instr, MpmdProgram};
use crate::replicate::dp_split;

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

/// What identifies one collective instance on the wire: identical
/// across the instance's members.
type Coll<'p> = (CollectiveKind, &'p [ActorId], &'p [BufferId], usize);

/// A message in flight on one directed actor pair: its wire id, its
/// shape, and the collective it is a piece of (`None` for a `Send`).
type Message<'p> = (BufferId, Shape, Option<Coll<'p>>);

/// Checks the collective at `(actor, pos)` against its own operands and
/// returns the actor's rank with the shape of the piece it sends each
/// rank (its own included): the whole contribution, or that rank's
/// [`dp_split`] block along `dim` for a reduce-scatter.
fn collective_pieces(
    live: &HashMap<BufferId, Shape>,
    actor: usize,
    pos: usize,
    (kind, group, wires, dim): Coll<'_>,
    src: BufferId,
) -> Result<(usize, Vec<Shape>), VerifyError> {
    let bad = |detail: String| VerifyError::SignatureMismatch { actor, pos, detail };
    if group.is_empty() || wires.len() != group.len() {
        return Err(bad(format!(
            "collective group/wires size mismatch: {} vs {}",
            group.len(),
            wires.len()
        )));
    }
    if !group.windows(2).all(|w| w[0] < w[1]) {
        return Err(bad(format!(
            "collective group {group:?} not rank-ascending"
        )));
    }
    let Some(rank) = group.iter().position(|&g| g == actor) else {
        return Err(bad(format!(
            "actor {actor} not in its collective group {group:?}"
        )));
    };
    if wires[rank] != src {
        return Err(bad(format!(
            "collective src {src} is not this rank's wire {}",
            wires[rank]
        )));
    }
    let Some(shape) = live.get(&src) else {
        return Err(VerifyError::UseOfDeadBuffer {
            actor,
            pos,
            buf: src,
        });
    };
    if kind != CollectiveKind::AllReduce && dim >= shape.rank() {
        return Err(bad(format!(
            "collective dim {dim} out of range for {shape}"
        )));
    }
    let t = group.len();
    let piece = |j| match kind {
        CollectiveKind::AllGather | CollectiveKind::AllReduce => shape.clone(),
        CollectiveKind::ReduceScatter => {
            let mut dims = shape.dims().to_vec();
            dims[dim] = dp_split(dims[dim], t, j).1;
            Shape::new(dims)
        }
    };
    Ok((rank, (0..t).map(piece).collect()))
}

/// The shape a collective stores from its rank-ascending pieces: the
/// common shape for a fold, extents summed on `dim` for a concat.
fn combined_shape(kind: CollectiveKind, dim: usize, parts: &[Shape]) -> Result<Shape, String> {
    let concat = kind == CollectiveKind::AllGather;
    // A fold's pieces agree in shape, a concat's except on `dim`.
    let off_dim = |s: &Shape| {
        let mut dims = s.dims().to_vec();
        if let Some(d) = dims.get_mut(dim).filter(|_| concat) {
            *d = 0;
        }
        dims
    };
    let first = &parts[0];
    if let Some(p) = parts.iter().find(|p| off_dim(p) != off_dim(first)) {
        return Err(format!("{kind} pieces disagree in shape: {p} vs {first}"));
    }
    let mut dims = first.dims().to_vec();
    if concat {
        dims[dim] = parts.iter().map(|p| p.dim(dim)).sum();
    }
    Ok(Shape::new(dims))
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
    // In-flight messages per directed pair, and the position of the
    // collective each actor has posted its pieces for.
    let mut wires: HashMap<(usize, usize), VecDeque<Message>> = HashMap::new();
    let mut posted: Vec<Option<usize>> = vec![None; n];
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
                let message = (*buf, shape.clone(), None);
                wires.entry((a, *to)).or_default().push_back(message);
            }
            Instr::Recv {
                buf,
                src,
                from,
                shape,
            } => {
                let queue = wires.entry((*from, a)).or_default();
                let Some((id, wire_shape, coll)) = queue.front() else {
                    return Ok(false); // wait for the sender
                };
                if id != src || coll.is_some() {
                    let piece = if coll.is_some() {
                        "a collective piece "
                    } else {
                        ""
                    };
                    return Err(VerifyError::CommMismatch {
                        actor: a,
                        pos,
                        detail: format!(
                            "expected {src} from actor {from}, wire has {piece}{id} \
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
                let coll: Coll = (*kind, group, coll_wires, *dim);
                let (rank, pieces) = collective_pieces(&live[a], a, pos, coll, *src)?;
                if posted[a] != Some(pos) {
                    posted[a] = Some(pos);
                    for (j, piece) in pieces.iter().enumerate().filter(|&(j, _)| j != rank) {
                        let message = (*src, piece.clone(), Some(coll));
                        wires.entry((a, group[j])).or_default().push_back(message);
                    }
                }
                // Wait until every peer's piece of this collective heads
                // its queue to us; anything else there is a mismatch.
                let mismatch = |detail| VerifyError::CommMismatch {
                    actor: a,
                    pos,
                    detail,
                };
                for &peer in group.iter().filter(|&&peer| peer != a) {
                    let head = wires.get(&(peer, a)).and_then(VecDeque::front);
                    let Some((id, _, piece_of)) = head else {
                        return Ok(false);
                    };
                    if *piece_of != Some(coll) {
                        return Err(mismatch(format!(
                            "{kind} expects a piece from actor {peer}, wire has {id} \
                             (§4.2 order violated)"
                        )));
                    }
                }
                let parts: Vec<Shape> = group
                    .iter()
                    .zip(pieces)
                    .map(|(&peer, own)| {
                        if peer == a {
                            return own;
                        }
                        let queue = wires.get_mut(&(peer, a)).expect("checked above");
                        queue.pop_front().expect("checked above").1
                    })
                    .collect();
                let out_shape = combined_shape(*kind, *dim, &parts).map_err(mismatch)?;
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
    use crate::program::{Fetch, FetchRole, InputPlacement, InputSource, JaxprId, TaskLabel};
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

    /// `streams` over actors that each hold buffer 0 at `shape`.
    fn hand_program(shape: [usize; 2], streams: Vec<Vec<Instr>>) -> MpmdProgram {
        let placements = (0..streams.len()).map(|actor| InputPlacement {
            buf: BufferId(0),
            actor,
            shape: Shape::new(shape),
            source: InputSource::Param(0),
        });
        MpmdProgram {
            placements: placements.collect(),
            actors: streams,
            ..MpmdProgram::default()
        }
    }

    /// A dim-0 collective of buffer 0 over `group` into `dst`.
    fn collective(kind: CollectiveKind, group: &[usize], dst: u32) -> Instr {
        Instr::Collective {
            kind,
            dst: BufferId(dst),
            src: BufferId(0),
            group: group.to_vec(),
            wires: vec![BufferId(0); group.len()],
            dim: 0,
            axis: CollectiveAxis::Dp,
        }
    }

    fn send(to: usize) -> Instr {
        Instr::Send {
            buf: BufferId(0),
            to,
        }
    }

    fn recv(from: usize) -> Instr {
        Instr::Recv {
            buf: BufferId(9),
            src: BufferId(0),
            from,
            shape: Shape::new([2, 2]),
        }
    }

    /// Uneven blocks verify: a reduce-scatter of five rows over three
    /// members leaves blocks of 2, 2 and 1 rows, and the all-gather of
    /// those blocks is the five rows again.
    #[test]
    fn uneven_reduce_scatter_and_all_gather_verify() {
        let mut b = GraphBuilder::new();
        let x = b.input([5, 2]);
        let y = b.emit(Prim::Neg, &[x]).unwrap();
        let neg = b.finish(vec![y]).unwrap();
        let group = [0, 1, 2];
        let stream = |_| {
            vec![
                collective(CollectiveKind::ReduceScatter, &group, 1),
                Instr::Collective {
                    kind: CollectiveKind::AllGather,
                    dst: BufferId(2),
                    src: BufferId(1),
                    group: group.to_vec(),
                    wires: vec![BufferId(1); 3],
                    dim: 0,
                    axis: CollectiveAxis::Dp,
                },
                Instr::Run {
                    jaxpr: JaxprId(0),
                    inputs: vec![BufferId(2)],
                    outputs: vec![BufferId(3)],
                    label: TaskLabel::Update { param: 0 },
                },
            ]
        };
        let mut p = hand_program([5, 2], (0..3).map(stream).collect());
        p.add_jaxpr(neg);
        verify_program(&p).unwrap();
        // Pieces that disagree off `dim` are rejected.
        p.placements[2].shape = Shape::new([5, 3]);
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::CommMismatch {
                actor: 2,
                pos: 0,
                ..
            })
        ));
    }

    /// Member 1 sends to member 0 ahead of their shared collective and
    /// member 0 receives it after: at run time member 0's collective
    /// would pop the point-to-point message as member 1's piece.
    #[test]
    fn collective_behind_a_p2p_message_is_a_comm_mismatch() {
        let group = [0, 1];
        let p = hand_program(
            [2, 2],
            vec![
                vec![collective(CollectiveKind::AllReduce, &group, 1), recv(1)],
                vec![send(0), collective(CollectiveKind::AllReduce, &group, 1)],
            ],
        );
        match verify_program(&p) {
            Err(VerifyError::CommMismatch {
                actor: 0, pos: 0, ..
            }) => {}
            other => panic!("expected the collective to meet the p2p message, got {other:?}"),
        }
    }

    /// Member 0 waits in a collective on member 1, which waits on a
    /// `Recv` that actor 2 sends only after a collective with member 0
    /// — a cycle that would hang until the step timeout.
    #[test]
    fn collective_waiting_on_a_blocked_peer_is_a_deadlock() {
        let p = hand_program(
            [2, 2],
            vec![
                vec![
                    collective(CollectiveKind::AllReduce, &[0, 1], 1),
                    collective(CollectiveKind::AllReduce, &[0, 2], 2),
                ],
                vec![recv(2), collective(CollectiveKind::AllReduce, &[0, 1], 1)],
                vec![collective(CollectiveKind::AllReduce, &[0, 2], 2), send(1)],
            ],
        );
        assert_eq!(
            verify_program(&p),
            Err(VerifyError::Deadlock {
                stuck: vec![(0, 0), (1, 0), (2, 0)]
            })
        );
    }

    /// Two members that meet their shared collectives in different
    /// orders each find the other collective's piece at the head of
    /// the wire.
    #[test]
    fn collectives_in_different_orders_are_a_comm_mismatch() {
        let (first, second) = (
            collective(CollectiveKind::AllReduce, &[0, 1], 1),
            collective(CollectiveKind::AllGather, &[0, 1], 2),
        );
        let p = hand_program(
            [2, 2],
            vec![vec![first.clone(), second.clone()], vec![second, first]],
        );
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::CommMismatch { .. })
        ));
    }
}
