//! Replay of compiled streams on the timeline engine
//! (`raxpp_sched::timeline`): the lowering of an [`MpmdProgram`], to be
//! held against [`raxpp_sched::simulate`] on the schedule the program
//! was compiled from.

use raxpp_sched::timeline::{self, Deadlock, Op, Timeline};
use raxpp_sched::UniformCost;

use crate::program::{Instr, MpmdProgram, TaskLabel};

/// Walks every actor's stream in order under `cost` — what the step
/// would take if instruction placement were the only source of idle
/// time. One [`Op`] per instruction, so `spans[a][i]` times instruction
/// `i` of actor `a`: a `Run` costs `cost.fwd` / `bwd` / `wgrad` by its
/// [`TaskLabel`] and nothing otherwise; a `Send` arrives `cost.p2p`
/// after it was issued; a `Recv` waits for the `Send` of its `src`
/// buffer by its `from` actor; every other instruction is free.
/// Collectives are not modelled (they take no time and wait for nobody).
///
/// # Errors
///
/// Returns [`Deadlock`] with each blocked actor's `(actor, instruction
/// index)` when a `Recv`'s `Send` is never reached.
pub fn replay(program: &MpmdProgram, cost: UniformCost) -> Result<Timeline, Deadlock> {
    let lower = |instr: &Instr| match instr {
        Instr::Run { label, .. } => Op::Compute {
            dur: match label {
                TaskLabel::Fwd { .. } => cost.fwd,
                TaskLabel::Bwd { .. } => cost.bwd,
                TaskLabel::BwdW { .. } => cost.wgrad,
                _ => 0.0,
            },
        },
        Instr::Send { buf, to } => Op::Send {
            to: *to,
            key: buf.0.into(),
        },
        Instr::Recv { src, from, .. } => Op::Recv {
            from: *from,
            key: src.0.into(),
        },
        _ => Op::Compute { dur: 0.0 },
    };
    let streams: Vec<Vec<Op>> = program
        .actors
        .iter()
        .map(|stream| stream.iter().map(lower).collect())
        .collect();
    timeline::run(&streams, &mut { cost })
}
