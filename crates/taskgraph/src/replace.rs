//! Program re-placement for elastic degraded-mode pipelines.
//!
//! [`replace_program`] takes a compiled [`MpmdProgram`] and a surjective
//! idempotent actor assignment and rebuilds the instruction streams so
//! every stage that lived on a folded-away actor now runs on its host
//! survivor. The transformation never touches a [`Instr::Run`]: compute
//! instructions are moved byte-for-byte, so the degraded program performs
//! exactly the same floating-point operations in exactly the same order
//! per buffer — bitwise identity with the original topology is
//! structural, not approximate.
//!
//! Only the transport changes:
//!
//! * sends/receives between two stages that land on the same actor
//!   disappear (the store is now shared) — a receive into a different
//!   buffer id becomes a local [`Instr::Copy`];
//! * cross-actor sends/receives are rewired to the hosts;
//! * all `Free`s are stripped and re-inserted by the liveness pass
//!   (merged streams share buffer ids that the old per-actor `Free`s
//!   would double-delete).
//!
//! The merged stream order is derived in one pass: the original program
//! is replayed to completion in the §4.2 order
//! ([`raxpp_sched::timeline::walk`]) and each old actor's instructions
//! are appended to its host's stream as they execute, so the result is
//! deadlock-free by construction. A receive that still crosses hosts
//! waits on the *merged* channel's own FIFO — the queue of its new actor
//! pair, which is what the runtime's mailbox is — so per pair the merged
//! receive order is the merged send order; and a send that still crosses
//! hosts waits until it is the next value its receiver's stream takes
//! from the sending host, the one order that stream can drain. A fold
//! whose streams admit no such order (the receiver would have to take
//! its receives in another order; re-placement moves none) is refused
//! with [`ReplaceError::Stuck`].

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

use raxpp_sched::timeline::{walk, Deadlock};
use raxpp_sched::DpMap;

use crate::program::{ActorId, BufferId, Instr, MpmdProgram};
use crate::unroll::insert_frees;

/// Why a program could not be re-placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplaceError {
    /// The actor assignment is malformed (wrong length, out of range, or
    /// not idempotent).
    BadAssign(String),
    /// The global replay stalled: some old actor's stream cannot make
    /// progress. `(old_actor, instruction_index)` pairs of the stuck
    /// cursors.
    Stuck(Vec<(usize, usize)>),
    /// A compute instruction would overwrite a buffer whose pre-overwrite
    /// value is still owed to a co-located receive.
    LocalOverwrite {
        /// The new actor on which the hazard occurs.
        actor: ActorId,
        /// The buffer.
        buf: BufferId,
    },
    /// The assignment would break a collective group. Collectives
    /// re-place cleanly only under *group-uniform* folds: every member
    /// of a group must map to a distinct actor and keep its rank
    /// position (host-level folds applied identically across all
    /// tensor-parallel ranks and data-parallel replicas have this
    /// property; folding two ranks of one group onto one actor does
    /// not).
    Unsupported(String),
}

impl fmt::Display for ReplaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplaceError::BadAssign(msg) => write!(f, "bad actor assignment: {msg}"),
            ReplaceError::Stuck(stuck) => {
                write!(f, "re-placement replay stalled at {stuck:?}")
            }
            ReplaceError::LocalOverwrite { actor, buf } => write!(
                f,
                "actor {actor}: {buf} overwritten while a co-located receive still owes its value"
            ),
            ReplaceError::Unsupported(msg) => write!(f, "cannot re-place program: {msg}"),
        }
    }
}

impl std::error::Error for ReplaceError {}

impl From<Deadlock> for ReplaceError {
    fn from(d: Deadlock) -> Self {
        ReplaceError::Stuck(d.blocked)
    }
}

/// Re-places `program` onto the actors named by `assign`.
///
/// `assign[a]` is the actor that takes over old actor `a`'s stream;
/// survivors map to themselves (`assign` must be idempotent and the same
/// length as the program's actor count). The returned program has the
/// same actor count — folded-away actors keep an empty stream, so buffer
/// ids, placements, and fetch roles stay stable for the driver.
///
/// # Errors
///
/// Returns a [`ReplaceError`] if the assignment is malformed or the
/// merged streams cannot preserve the §4.2 FIFO discipline.
pub fn replace_program(
    program: &MpmdProgram,
    assign: &[ActorId],
) -> Result<MpmdProgram, ReplaceError> {
    let n = program.n_actors();
    if assign.len() != n {
        return Err(ReplaceError::BadAssign(format!(
            "assign has {} entries for {} actors",
            assign.len(),
            n
        )));
    }
    for (a, &h) in assign.iter().enumerate() {
        if h >= n {
            return Err(ReplaceError::BadAssign(format!(
                "assign[{a}] = {h} out of range"
            )));
        }
        if assign[h] != h {
            return Err(ReplaceError::BadAssign(format!(
                "assign[{a}] = {h}, but {h} itself maps to {} (not idempotent)",
                assign[h]
            )));
        }
    }
    if let Some(dp) = &program.dp {
        // The members of a DP group must meet their collectives in the
        // same order, which stays true across replicas only when the
        // fold acts identically in every replica: each raw
        // actor must stay inside its replica block, and the base-actor
        // fold pattern must be the same in all blocks. Anything else
        // would leave isomorphic-looking groups whose members sit at
        // different stream offsets — a runtime deadlock, so reject it
        // here.
        let dp = DpMap::new(dp.replicas, dp.base_actors);
        for (a, &h) in assign.iter().enumerate() {
            if dp.replica_of(h) != dp.replica_of(a) {
                return Err(ReplaceError::Unsupported(format!(
                    "assignment moves actor {a} across data-parallel replicas (to {h}); \
                     folds must stay within a replica"
                )));
            }
            if dp.base_of(assign[dp.base_of(a)]) != dp.base_of(h) {
                return Err(ReplaceError::Unsupported(format!(
                    "assignment folds actor {a} differently from its replica-0 \
                     counterpart {}; folds must be replica-uniform (same base-actor \
                     pattern in all {} replicas)",
                    dp.base_of(a),
                    dp.replicas()
                )));
            }
        }
    }

    let streams = simulate(program, assign)?;

    let mut out = MpmdProgram {
        jaxprs: program.jaxprs.clone(),
        actors: streams,
        placements: Vec::new(),
        fetches: Vec::new(),
        tp: program.tp,
        dp: program.dp,
    };
    // Remap placements; folding can land the same data buffer (shared id
    // across consumer actors) on one store twice — keep one copy.
    let mut seen: HashSet<(BufferId, ActorId)> = HashSet::new();
    for p in &program.placements {
        let mut p = p.clone();
        p.actor = assign[p.actor];
        if seen.insert((p.buf, p.actor)) {
            out.placements.push(p);
        }
    }
    for f in &program.fetches {
        let mut f = *f;
        f.actor = assign[f.actor];
        out.fetches.push(f);
    }
    insert_frees(&mut out);
    Ok(out)
}

/// Globally replays `program` under `assign` in one pass, appending
/// each executed instruction (transport rewritten) to its host's output
/// stream.
///
/// A cross-host receive waits on the queue of its *new* actor pair — the
/// merged channel's own FIFO, which is what the runtime's mailbox is —
/// so merged receive order is merged send order by construction. A
/// co-located pair keeps its old-pair queue. A cross-host send goes out
/// only when it is the next value its (old) receiver's stream expects
/// from the sending host: the receiver takes that host's values in its
/// own stream order, so any other send order could never be drained.
fn simulate(program: &MpmdProgram, assign: &[ActorId]) -> Result<Vec<Vec<Instr>>, ReplaceError> {
    let n = program.n_actors();
    let mut out: Vec<Vec<Instr>> = vec![Vec::new(); n];
    // Buffers available per NEW actor (placements land pre-step).
    let mut avail: Vec<HashSet<BufferId>> = vec![HashSet::new(); n];
    for p in &program.placements {
        avail[assign[p.actor]].insert(p.buf);
    }
    // In-flight values: keyed by the OLD directed pair when co-located,
    // by the NEW pair when they cross hosts.
    let mut chan: HashMap<(usize, usize), VecDeque<BufferId>> = HashMap::new();
    // Per (old receiver, sending host): the wire ids the receiver's
    // stream takes from that host, in stream order.
    let mut expected: HashMap<(usize, usize), VecDeque<BufferId>> = HashMap::new();
    for (b, stream) in program.actors.iter().enumerate() {
        for instr in stream {
            if let Instr::Recv { src, from, .. } = instr {
                if assign[*from] != assign[b] {
                    expected
                        .entry((b, assign[*from]))
                        .or_default()
                        .push_back(*src);
                }
            }
        }
    }
    // Values a dropped (co-located) send still owes to its receive, per
    // new actor: overwriting such a buffer before the receive runs would
    // deliver the wrong value.
    let mut owed: Vec<HashMap<BufferId, usize>> = vec![HashMap::new(); n];

    let streams: Vec<Vec<&Instr>> = program
        .actors
        .iter()
        .map(|s| {
            s.iter()
                .filter(|i| !matches!(i, Instr::Free { .. }))
                .collect()
        })
        .collect();
    let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
    walk(&lens, |a, i| {
        let h = assign[a];
        let instr = streams[a][i];
        Ok(match instr {
            Instr::Run {
                inputs, outputs, ..
            } => {
                if !inputs.iter().all(|b| avail[h].contains(b)) {
                    false
                } else {
                    for b in outputs {
                        if owed[h].get(b).copied().unwrap_or(0) > 0 {
                            return Err(ReplaceError::LocalOverwrite { actor: h, buf: *b });
                        }
                        avail[h].insert(*b);
                    }
                    out[h].push(instr.clone());
                    true
                }
            }
            Instr::Send { buf, to } => {
                let h2 = assign[*to];
                if !avail[h].contains(buf) {
                    false
                } else if h2 == h {
                    // Local move: the value is owed to the matching
                    // receive, nothing on the wire.
                    chan.entry((a, *to)).or_default().push_back(*buf);
                    *owed[h].entry(*buf).or_insert(0) += 1;
                    true
                } else if expected.get(&(*to, h)).and_then(|q| q.front()) != Some(buf) {
                    false // not this send's turn in its receiver's stream
                } else {
                    expected
                        .get_mut(&(*to, h))
                        .expect("front checked")
                        .pop_front();
                    chan.entry((h, h2)).or_default().push_back(*buf);
                    out[h].push(instr.map_actors(|m| assign[m]));
                    true
                }
            }
            Instr::Recv { buf, src, from, .. } => {
                let f2 = assign[*from];
                let pair = if f2 == h { (*from, a) } else { (f2, h) };
                let queue = chan.entry(pair).or_default();
                if queue.front() != Some(src) {
                    false // wait for the matching send
                } else {
                    queue.pop_front();
                    if f2 == h {
                        *owed[h].get_mut(src).expect("owed entry for local recv") -= 1;
                        if buf != src {
                            out[h].push(Instr::Copy {
                                dst: *buf,
                                src: *src,
                            });
                        }
                    } else {
                        out[h].push(instr.map_actors(|m| assign[m]));
                    }
                    avail[h].insert(*buf);
                    true
                }
            }
            Instr::Copy { dst, src } => {
                if !avail[h].contains(src) {
                    false
                } else {
                    if owed[h].get(dst).copied().unwrap_or(0) > 0 {
                        return Err(ReplaceError::LocalOverwrite {
                            actor: h,
                            buf: *dst,
                        });
                    }
                    avail[h].insert(*dst);
                    out[h].push(instr.clone());
                    true
                }
            }
            Instr::Collective {
                dst, src, group, ..
            } => {
                if !avail[h].contains(src) {
                    false
                } else {
                    // In replay terms a collective is a local compute
                    // (contribute src, define dst): the runtime's
                    // exchange synchronizes members, and group-uniform
                    // folds keep the member streams isomorphic, so no
                    // cross-member ordering needs modeling here.
                    let moved = instr.map_actors(|m| assign[m]);
                    let Instr::Collective {
                        group: new_group, ..
                    } = &moved
                    else {
                        unreachable!("map_actors keeps the instruction kind")
                    };
                    let distinct = new_group.windows(2).all(|w| w[0] < w[1]);
                    let old_rank = group.iter().position(|&m| m == a);
                    let new_rank = new_group.iter().position(|&m| m == h);
                    if !distinct || old_rank != new_rank {
                        return Err(ReplaceError::Unsupported(format!(
                            "assignment folds collective group {group:?} \
                             non-uniformly; members must stay distinct and \
                             keep their rank positions"
                        )));
                    }
                    if owed[h].get(dst).copied().unwrap_or(0) > 0 {
                        return Err(ReplaceError::LocalOverwrite {
                            actor: h,
                            buf: *dst,
                        });
                    }
                    avail[h].insert(*dst);
                    out[h].push(moved);
                    true
                }
            }
            Instr::Free { .. } => unreachable!("frees are stripped before replay"),
        })
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::pipeline_model;
    use crate::program::TaskLabel;
    use crate::unroll::{check_send_recv_order, unroll_loop, UnrollOptions};
    use crate::verify::verify_program;
    use raxpp_ir::TraceCtx;
    use raxpp_sched::{gpipe, one_f1b};

    fn chain_program(n_stages: usize, n_mb: usize, schedule_1f1b: bool) -> MpmdProgram {
        let ctx = TraceCtx::new();
        let ws: Vec<_> = (0..n_stages).map(|_| ctx.input([4, 4])).collect();
        let x = ctx.input([2, 4]);
        let mut h = x;
        for (i, w) in ws.iter().enumerate() {
            h = h.matmul(w).unwrap().tanh();
            if i + 1 < n_stages {
                h = ctx.pipeline_yield(&h);
            }
        }
        let loss = h.mul(&h).unwrap().sum().scale(0.5);
        let jaxpr = ctx.finish(&[loss]).unwrap();
        let model = pipeline_model(&jaxpr, n_stages).unwrap();
        let schedule = if schedule_1f1b {
            one_f1b(n_stages, n_mb).unwrap()
        } else {
            gpipe(n_stages, n_mb).unwrap()
        };
        let mut compiled = unroll_loop(&model, &schedule, UnrollOptions::default()).unwrap();
        insert_frees(&mut compiled.program);
        compiled.program
    }

    #[test]
    fn identity_assign_preserves_semantics() {
        let p = chain_program(4, 4, false);
        let assign: Vec<usize> = (0..4).collect();
        let r = replace_program(&p, &assign).unwrap();
        verify_program(&r).unwrap();
        // Same compute, same comms (transport untouched).
        assert_eq!(p.count_runs(|_| true), r.count_runs(|_| true));
        for (a, b) in p.actors.iter().zip(&r.actors) {
            let runs = |s: &[Instr]| {
                s.iter()
                    .filter(|i| matches!(i, Instr::Run { .. }))
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(runs(a), runs(b));
        }
    }

    #[test]
    fn folding_one_actor_keeps_runs_and_verifies() {
        for schedule_1f1b in [false, true] {
            let p = chain_program(4, 4, schedule_1f1b);
            // Actor 1 dies; actor 0 hosts stages 0 and 1.
            let assign = vec![0, 0, 2, 3];
            let r = replace_program(&p, &assign).unwrap();
            verify_program(&r).unwrap();
            assert!(r.actors[1].is_empty(), "folded-away actor keeps no work");
            assert_eq!(p.count_runs(|_| true), r.count_runs(|_| true));
            // Run instructions are byte-identical — only moved.
            let runs = |prog: &MpmdProgram| {
                let mut v: Vec<Instr> = prog
                    .actors
                    .iter()
                    .flatten()
                    .filter(|i| matches!(i, Instr::Run { .. }))
                    .cloned()
                    .collect();
                v.sort_by_key(|i| format!("{i}"));
                v
            };
            assert_eq!(runs(&p), runs(&r));
            // No sends between co-located stages survive.
            for (a, stream) in r.actors.iter().enumerate() {
                for i in stream {
                    if let Instr::Send { to, .. } = i {
                        assert_ne!(*to, a, "self-send must have been elided");
                    }
                }
            }
            check_send_recv_order(&r).unwrap();
        }
    }

    #[test]
    fn folding_to_single_actor_drops_all_comms() {
        let p = chain_program(4, 2, false);
        let assign = vec![0, 0, 0, 0];
        let r = replace_program(&p, &assign).unwrap();
        verify_program(&r).unwrap();
        assert_eq!(p.count_runs(|_| true), r.count_runs(|_| true));
        for stream in &r.actors {
            for i in stream {
                assert!(
                    !matches!(i, Instr::Send { .. } | Instr::Recv { .. }),
                    "single-actor program must be comm-free, found {i}"
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_assignments() {
        let p = chain_program(2, 2, false);
        assert!(matches!(
            replace_program(&p, &[0]),
            Err(ReplaceError::BadAssign(_))
        ));
        assert!(matches!(
            replace_program(&p, &[0, 7]),
            Err(ReplaceError::BadAssign(_))
        ));
        // Not idempotent: 0 -> 1 but 1 -> 0.
        assert!(matches!(
            replace_program(&p, &[1, 0]),
            Err(ReplaceError::BadAssign(_))
        ));
    }

    #[test]
    fn recv_into_distinct_buffer_becomes_copy() {
        // Hand-built: actor 0 sends b0 to actor 1, which receives it into
        // b1. Folded together this must become `copy b0 -> b1`.
        use raxpp_ir::{GraphBuilder, Prim, Shape};
        let mut g = GraphBuilder::new();
        let x = g.input([2]);
        let y = g.emit(Prim::Neg, &[x]).unwrap();
        let jaxpr = g.finish(vec![y]).unwrap();
        let mut p = MpmdProgram::default();
        let jx = p.add_jaxpr(jaxpr);
        p.placements.push(crate::program::InputPlacement {
            buf: BufferId(0),
            actor: 0,
            shape: Shape::new([2]),
            source: crate::program::InputSource::Data {
                input: 0,
                mubatch: 0,
            },
        });
        p.actors.push(vec![Instr::Send {
            buf: BufferId(0),
            to: 1,
        }]);
        p.actors.push(vec![
            Instr::Recv {
                buf: BufferId(1),
                src: BufferId(0),
                from: 0,
                shape: Shape::new([2]),
            },
            Instr::Run {
                jaxpr: jx,
                inputs: vec![BufferId(1)],
                outputs: vec![BufferId(2)],
                label: TaskLabel::Fwd {
                    mubatch: 0,
                    stage: 1,
                },
            },
        ]);
        p.fetches.push(crate::program::Fetch {
            buf: BufferId(2),
            actor: 1,
            role: crate::program::FetchRole::Output {
                output: 0,
                mubatch: 0,
            },
        });
        let r = replace_program(&p, &[0, 0]).unwrap();
        verify_program(&r).unwrap();
        assert!(r.actors[0].iter().any(|i| matches!(
            i,
            Instr::Copy {
                dst: BufferId(1),
                src: BufferId(0)
            }
        )));
    }
}
