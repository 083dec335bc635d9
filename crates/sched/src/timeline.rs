//! The one in-order traversal ([`walk`], paper §4.2) and the one
//! timeline engine on top of it ([`run`]: the walk of per-actor
//! operation streams under a [`CostModel`]).
//!
//! [`walk`] is the only function in the workspace that owns per-actor
//! cursors: [`crate::Schedule::walk`] (behind `Schedule::validate`,
//! `Schedule::fold` and the unroller), [`run`], and the taskgraph
//! crate's `verify_program` are closures over it.
//!
//! Every question of the form "how long does this schedule / this
//! compiled program take on these actors" is a *lowering* into streams
//! of [`Op`]s followed by one call of [`run`]: [`crate::simulate`] and
//! [`crate::time_schedule`] lower a [`crate::Schedule`],
//! `raxpp_simcluster::simulate_pipeline` prices the same lowering with
//! the cluster model, and `raxpp_taskgraph::replay` lowers a compiled
//! `MpmdProgram`. The engine knows nothing about tasks, instructions or
//! machines; the cost model owns whatever link state it needs.

use std::collections::HashMap;

/// One operation of an actor's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Occupy the actor for a nominal `dur` (the cost model may add
    /// per-task overhead, see [`CostModel::task`]).
    Compute {
        /// Nominal duration.
        dur: f64,
    },
    /// Hand the value `key` to actor `to` and continue (unless the cost
    /// model makes sends blocking). A send to the actor itself is a
    /// local hand-off: it arrives at once and is never priced.
    Send {
        /// Destination actor.
        to: usize,
        /// Names the value; matched by the receiver's `Recv { key }`.
        key: u64,
    },
    /// Wait until the value `key` sent by actor `from` has arrived.
    Recv {
        /// Source actor.
        from: usize,
        /// The key of the matching [`Op::Send`].
        key: u64,
    },
}

/// What a cost model answers for one cross-actor transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// When the value is available at the receiver.
    pub arrival: f64,
    /// Whether the sender's clock advances to `arrival` (a synchronous
    /// send) instead of continuing at once.
    pub blocks_sender: bool,
}

/// Prices the two things a stream can spend time on. The model is
/// `&mut` because it owns its link state (e.g. when each link is next
/// free).
pub trait CostModel {
    /// When a compute op of nominal duration `dur` that starts at
    /// `start` on `actor` ends.
    fn task(&mut self, _actor: usize, start: f64, dur: f64) -> f64 {
        start + dur
    }

    /// Prices the transfer of one value handed to the `from → to` link
    /// at time `ready`. Called once per cross-actor send, in each
    /// sender's stream order.
    fn transfer(&mut self, from: usize, to: usize, ready: f64) -> Transfer;
}

/// Start and end of one executed [`Op`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The actor's clock when it reached the op.
    pub start: f64,
    /// The actor's clock when it left the op.
    pub end: f64,
}

/// The result of walking a set of streams to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per actor, one span per op of its stream, in stream order.
    pub spans: Vec<Vec<Span>>,
    /// Per actor, the time its `Recv`s spent waiting for arrivals
    /// (exposed communication, charged to the receiver only).
    pub exposed_recv: Vec<f64>,
    /// Per actor, the time its blocking sends held it until delivery.
    pub send_blocked: Vec<f64>,
    /// The latest actor clock.
    pub makespan: f64,
}

/// In-order execution cannot complete: every unfinished actor's next op
/// waits on something no other actor will ever do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// `(actor, index of the op at its cursor)` for each blocked actor.
    pub blocked: Vec<(usize, usize)>,
}

/// The §4.2 traversal: visits the ops of `lens.len()` in-order streams
/// (`lens[a]` ops on actor `a`) in a global order that respects every
/// actor's local order. Actors are swept in ascending order and each
/// runs as far as it can: `step(actor, index)` is asked to execute the
/// op at the actor's cursor and answers whether it ran (`false` = its
/// dependencies are not met yet; it is asked again next sweep).
///
/// The visiting order is a contract: the unroller numbers buffers in it
/// and every fold merges streams in it.
///
/// # Errors
///
/// Returns the first error of `step`, or [`Deadlock`] (converted into
/// `E`) naming each unfinished actor's cursor when a whole sweep
/// advances nobody.
pub fn walk<E: From<Deadlock>>(
    lens: &[usize],
    mut step: impl FnMut(usize, usize) -> Result<bool, E>,
) -> Result<(), E> {
    let mut cursor = vec![0usize; lens.len()];
    loop {
        let mut progressed = false;
        for (a, &len) in lens.iter().enumerate() {
            while cursor[a] < len && step(a, cursor[a])? {
                cursor[a] += 1;
                progressed = true;
            }
        }
        let blocked: Vec<(usize, usize)> = (0..lens.len())
            .filter(|&a| cursor[a] < lens[a])
            .map(|a| (a, cursor[a]))
            .collect();
        if blocked.is_empty() {
            return Ok(());
        }
        if !progressed {
            return Err(Deadlock { blocked }.into());
        }
    }
}

/// Walks `streams` (one per actor) in order under `cost`: each actor
/// executes its ops one after the other, a `Recv` blocks until the
/// matching `Send` has been walked and completes at the later of the
/// actor's clock and the arrival.
///
/// # Errors
///
/// Returns [`Deadlock`] naming each blocked actor's head op when no
/// actor can make progress.
pub fn run(streams: &[Vec<Op>], cost: &mut impl CostModel) -> Result<Timeline, Deadlock> {
    let n = streams.len();
    let mut clock = vec![0.0f64; n];
    let mut exposed_recv = vec![0.0f64; n];
    let mut send_blocked = vec![0.0f64; n];
    let mut spans: Vec<Vec<Span>> = streams
        .iter()
        .map(|s| Vec::with_capacity(s.len()))
        .collect();
    let n_sends = streams
        .iter()
        .flatten()
        .filter(|op| matches!(op, Op::Send { .. }))
        .count();
    let mut arrivals: HashMap<(usize, usize, u64), f64> = HashMap::with_capacity(n_sends);
    let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
    walk(&lens, |a, i| {
        let start = clock[a];
        match streams[a][i] {
            Op::Compute { dur } => clock[a] = cost.task(a, start, dur),
            Op::Send { to, key } => {
                let arrival = if to == a {
                    start
                } else {
                    let t = cost.transfer(a, to, start);
                    if t.blocks_sender {
                        send_blocked[a] += t.arrival - start;
                        clock[a] = start.max(t.arrival);
                    }
                    t.arrival
                };
                arrivals.insert((a, to, key), arrival);
            }
            Op::Recv { from, key } => {
                let Some(&arrival) = arrivals.get(&(from, a, key)) else {
                    return Ok(false);
                };
                exposed_recv[a] += (arrival - start).max(0.0);
                clock[a] = start.max(arrival);
            }
        }
        spans[a].push(Span {
            start,
            end: clock[a],
        });
        Ok::<bool, Deadlock>(true)
    })?;
    Ok(Timeline {
        spans,
        exposed_recv,
        send_blocked,
        makespan: clock.into_iter().fold(0.0, f64::max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every link serialises its transfers, each taking `wire`;
    /// optionally the sender blocks until delivery.
    struct Links {
        wire: f64,
        blocking: bool,
        free: HashMap<(usize, usize), f64>,
    }

    impl Links {
        fn new(wire: f64, blocking: bool) -> Links {
            Links {
                wire,
                blocking,
                free: HashMap::new(),
            }
        }
    }

    impl CostModel for Links {
        fn transfer(&mut self, from: usize, to: usize, ready: f64) -> Transfer {
            let free = self.free.entry((from, to)).or_insert(0.0);
            *free = ready.max(*free) + self.wire;
            Transfer {
                arrival: *free,
                blocks_sender: self.blocking,
            }
        }
    }

    fn ends(spans: &[Span]) -> Vec<f64> {
        spans.iter().map(|s| s.end).collect()
    }

    #[test]
    fn sends_on_one_link_serialise_and_on_different_links_do_not() {
        // Actor 0 computes 1, then sends twice to actor 1 and once to
        // actor 2; a transfer takes 2. The second value on the 0 → 1
        // link queues behind the first (arrives 5); the value on the
        // 0 → 2 link leaves at once (arrives 3).
        let streams = vec![
            vec![
                Op::Compute { dur: 1.0 },
                Op::Send { to: 1, key: 0 },
                Op::Send { to: 1, key: 1 },
                Op::Send { to: 2, key: 2 },
            ],
            vec![Op::Recv { from: 0, key: 0 }, Op::Recv { from: 0, key: 1 }],
            vec![Op::Recv { from: 0, key: 2 }],
        ];
        let t = run(&streams, &mut Links::new(2.0, false)).unwrap();
        assert_eq!(ends(&t.spans[0]), [1.0, 1.0, 1.0, 1.0]);
        assert_eq!(ends(&t.spans[1]), [3.0, 5.0]);
        assert_eq!(ends(&t.spans[2]), [3.0]);
        assert_eq!(t.makespan, 5.0);
        assert_eq!(t.send_blocked, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn a_blocking_send_holds_the_sender_until_delivery() {
        // Compute 1, blocking send of wire time 2, compute 1: the
        // sender's second compute starts at 3 and the 2 it lost is
        // reported as sender-blocked — on the sender only.
        let streams = vec![
            vec![
                Op::Compute { dur: 1.0 },
                Op::Send { to: 1, key: 0 },
                Op::Compute { dur: 1.0 },
            ],
            vec![Op::Recv { from: 0, key: 0 }],
            vec![],
        ];
        let t = run(&streams, &mut Links::new(2.0, true)).unwrap();
        assert_eq!(ends(&t.spans[0]), [1.0, 3.0, 4.0]);
        assert_eq!(t.spans[0][2].start, 3.0);
        assert_eq!(t.send_blocked, [2.0, 0.0, 0.0]);
        assert_eq!(t.exposed_recv, [0.0, 3.0, 0.0]);
    }

    #[test]
    fn a_waiting_recv_is_exposed_on_the_receiver_only() {
        // Actor 1 is busy until 2 and then waits until 4 for a value
        // that left actor 0 at 3: 2 exposed on actor 1. Actor 2 is busy
        // until 6, long after its value arrived: nothing exposed.
        let streams = vec![
            vec![
                Op::Compute { dur: 3.0 },
                Op::Send { to: 1, key: 0 },
                Op::Send { to: 2, key: 1 },
            ],
            vec![
                Op::Compute { dur: 2.0 },
                Op::Recv { from: 0, key: 0 },
                Op::Compute { dur: 1.0 },
            ],
            vec![Op::Compute { dur: 6.0 }, Op::Recv { from: 0, key: 1 }],
        ];
        let t = run(&streams, &mut Links::new(1.0, false)).unwrap();
        assert_eq!(t.exposed_recv, [0.0, 2.0, 0.0]);
        assert_eq!(
            t.spans[1][1],
            Span {
                start: 2.0,
                end: 4.0
            }
        );
        assert_eq!(ends(&t.spans[1]), [2.0, 4.0, 5.0]);
        assert_eq!(
            t.spans[2][1],
            Span {
                start: 6.0,
                end: 6.0
            }
        );
        assert_eq!(t.makespan, 6.0);
    }

    #[test]
    fn a_local_send_is_never_priced() {
        let streams = vec![vec![
            Op::Compute { dur: 1.0 },
            Op::Send { to: 0, key: 7 },
            Op::Recv { from: 0, key: 7 },
        ]];
        let t = run(&streams, &mut Links::new(5.0, true)).unwrap();
        assert_eq!(t.makespan, 1.0);
        assert_eq!(t.send_blocked, [0.0]);
    }

    #[test]
    fn walk_sweeps_actors_in_order_and_each_runs_as_far_as_it_can() {
        // Actor 0's second op waits for actor 1's first. The visiting
        // order is the contract: 0 runs until it blocks, 1 runs out,
        // the next sweep finishes 0.
        let mut seen = Vec::new();
        walk(&[3, 2], |a, i| {
            let ready = (a, i) != (0, 1) || seen.contains(&(1, 0));
            if ready {
                seen.push((a, i));
            }
            Ok::<bool, Deadlock>(ready)
        })
        .unwrap();
        assert_eq!(seen, [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2)]);
    }

    #[test]
    fn walk_returns_the_steps_own_error_at_once() {
        #[derive(Debug, PartialEq)]
        enum E {
            Blocked(Deadlock),
            At(usize, usize),
        }
        impl From<Deadlock> for E {
            fn from(d: Deadlock) -> E {
                E::Blocked(d)
            }
        }
        let err = walk(
            &[2, 2],
            |a, i| if a == 1 { Err(E::At(a, i)) } else { Ok(true) },
        );
        assert_eq!(err, Err(E::At(1, 0)));
        let err = walk(&[1, 1], |a, _| Ok::<bool, E>(a == 0));
        assert_eq!(
            err,
            Err(E::Blocked(Deadlock {
                blocked: vec![(1, 0)]
            }))
        );
    }

    #[test]
    fn a_cycle_of_recvs_is_a_typed_deadlock_naming_the_heads() {
        // 0 waits for 1 before sending what 1 waits for; actor 2
        // finishes and is not reported.
        let streams = vec![
            vec![
                Op::Compute { dur: 1.0 },
                Op::Recv { from: 1, key: 0 },
                Op::Send { to: 1, key: 1 },
            ],
            vec![Op::Recv { from: 0, key: 1 }, Op::Send { to: 0, key: 0 }],
            vec![Op::Compute { dur: 1.0 }],
        ];
        let err = run(&streams, &mut Links::new(1.0, false)).unwrap_err();
        assert_eq!(err.blocked, [(0, 1), (1, 0)]);
    }
}
