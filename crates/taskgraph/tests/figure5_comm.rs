//! Reconstruction of the paper's Figure 5 / §4.2 communication-inference
//! properties on compiled programs:
//!
//! 1. a send is emitted immediately after the producing task, and its
//!    receive directly before the first instruction that reads the
//!    buffer — the actor waits at use, not at arrival, so a blocking
//!    receive never sits in front of work that does not need the data
//!    (the early arrival waits in the runtime's mailbox, which is the
//!    prefetch buffer: `f2(3)` runs while `b2(2)`'s operand is in flight);
//! 2. per actor pair, send order equals receive order (the property that
//!    avoids NCCL deadlock) — the one reason a receive may sit earlier
//!    than its own first reader: a later receive from the same sender is
//!    needed first.

use raxpp_ir::{Jaxpr, TraceCtx};
use raxpp_sched::one_f1b;
use raxpp_taskgraph::{
    insert_frees, pipeline_model, unroll_loop, verify_program, BufferId, Instr, MpmdProgram,
    UnrollOptions,
};

fn four_stage_model() -> (Jaxpr, usize) {
    let ctx = TraceCtx::new();
    let ws: Vec<_> = (0..4).map(|_| ctx.input([6, 6])).collect();
    let x = ctx.input([2, 6]);
    let mut h = x;
    for (i, w) in ws.iter().enumerate() {
        h = h.matmul(w).unwrap().tanh();
        if i < 3 {
            h = ctx.pipeline_yield(&h);
        }
    }
    let loss = h.mul(&h).unwrap().sum();
    (ctx.finish(&[loss]).unwrap(), 4)
}

fn compile() -> MpmdProgram {
    let (jaxpr, n_params) = four_stage_model();
    let model = pipeline_model(&jaxpr, n_params).unwrap();
    let schedule = one_f1b(4, 8).unwrap();
    let mut compiled = unroll_loop(&model, &schedule, UnrollOptions::default()).unwrap();
    insert_frees(&mut compiled.program);
    compiled.program
}

/// A receive is placed at its first reader: nothing the actor could
/// have done without the data (`Run`, `Send`, `Collective`) sits between
/// the two, unless per-pair FIFO forced the receive early — a later
/// receive from the same sender comes before that reader.
#[test]
fn receives_wait_at_first_use_not_at_arrival() {
    let program = compile();
    let mut checked = 0;
    for (a, stream) in program.actors.iter().enumerate() {
        for (i, instr) in stream.iter().enumerate() {
            let Instr::Recv { buf, from, .. } = instr else {
                continue;
            };
            let reader = stream[i + 1..]
                .iter()
                .position(|later| match later {
                    Instr::Run {
                        inputs, outputs, ..
                    } => inputs.contains(buf) || outputs.contains(buf),
                    Instr::Send { buf: sent, .. } => sent == buf,
                    _ => false,
                })
                .map(|p| i + 1 + p)
                .unwrap_or_else(|| panic!("actor {a}: receive of {buf} at {i} is never read"));
            let between = &stream[i + 1..reader];
            let fifo_forced = between
                .iter()
                .any(|x| matches!(x, Instr::Recv { from: f, .. } if f == from));
            let work = between.iter().position(|x| {
                matches!(
                    x,
                    Instr::Run { .. } | Instr::Send { .. } | Instr::Collective { .. }
                )
            });
            assert!(
                fifo_forced || work.is_none(),
                "actor {a}: receive of {buf} at {i} blocks in front of {:?}, \
                 which does not need it (first reader at {reader})",
                between[work.unwrap()]
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 2 * 3 * 8, "every receive of the program checked");
}

#[test]
fn send_and_receive_orders_match_per_pair() {
    let program = compile();
    verify_program(&program).expect("matching-order property (Figure 5) violated");
}

#[test]
fn every_send_has_exactly_one_receive() {
    let program = compile();
    let mut sends: Vec<(usize, usize, BufferId)> = Vec::new();
    let mut recvs: Vec<(usize, usize, BufferId)> = Vec::new();
    for (a, stream) in program.actors.iter().enumerate() {
        for instr in stream {
            match instr {
                Instr::Send { buf, to } => sends.push((a, *to, *buf)),
                Instr::Recv { src, from, .. } => recvs.push((*from, a, *src)),
                _ => {}
            }
        }
    }
    sends.sort();
    recvs.sort();
    assert_eq!(sends, recvs, "sends and receives must pair up exactly");
    // 1F1B over 4 stages, 8 microbatches: 3 boundary crossings each way
    // per microbatch (all actor pairs are adjacent here).
    assert_eq!(sends.len(), 2 * 3 * 8);
}
