//! Placement property of the unroller: with instruction placement as the
//! only source of idle time, the compiled streams take exactly as long as
//! the schedule they were compiled from. `raxpp_taskgraph::replay` lowers
//! the streams and `raxpp_sched::simulate` the schedule's tasks into the
//! same timeline engine under the same unit costs. A receive placed
//! ahead of work that does not need it shows up as replay > simulate.

use raxpp_models::mlp_chain;
use raxpp_sched::{
    gpipe, interleaved_1f1b, one_f1b, simulate, zero_bubble_h1, Schedule, UniformCost,
};
use raxpp_taskgraph::{
    forward_project, insert_frees, pipeline_model, replay, unroll_loop, Instr, MpmdProgram,
    UnrollOptions,
};

fn replay_makespan(program: &MpmdProgram, cost: UniformCost) -> f64 {
    replay(program, cost).unwrap().makespan
}

/// The four builders on `pp` actors (interleaved: two stages per actor).
fn builders(pp: usize, n_mb: usize) -> Vec<Schedule> {
    vec![
        gpipe(pp, n_mb).unwrap(),
        one_f1b(pp, n_mb).unwrap(),
        interleaved_1f1b(pp, n_mb, 2).unwrap(),
        zero_bubble_h1(pp, n_mb).unwrap(),
    ]
}

fn compile(schedule: &Schedule) -> MpmdProgram {
    let n_stages = schedule.n_stages();
    let model = mlp_chain(4, 2, n_stages, n_stages, 7).unwrap();
    let pmodel = pipeline_model(&model.jaxpr, model.n_params).unwrap();
    unroll_loop(&pmodel, schedule, UnrollOptions::default())
        .unwrap()
        .program
}

#[test]
fn compiled_streams_take_exactly_the_schedules_makespan() {
    for p2p in [0.0, 0.5] {
        let cost = UniformCost {
            p2p,
            ..UniformCost::default()
        };
        for pp in [2, 4] {
            for n_mb in [4, 8, 16] {
                for schedule in builders(pp, n_mb) {
                    let mut program = compile(&schedule);
                    let want = simulate(&schedule, cost).unwrap().makespan;
                    let name = schedule.name();
                    assert_eq!(
                        replay_makespan(&program, cost),
                        want,
                        "{name} pp={pp} mb={n_mb} p2p={p2p}"
                    );
                    // Frees move nothing that waits.
                    insert_frees(&mut program);
                    assert_eq!(
                        replay_makespan(&program, cost),
                        want,
                        "{name} pp={pp} mb={n_mb} p2p={p2p} after insert_frees"
                    );
                }
            }
        }
    }
}

/// A `Recv` whose `Send` is never reached is a typed error naming every
/// blocked actor's head instruction, not a panic: drop actor 0's first
/// send and actor 1 blocks in the receive of that buffer, actor 0 in
/// the receive of the first cotangent actor 1 never gets to send.
#[test]
fn missing_send_is_a_typed_deadlock_naming_the_blocked_instructions() {
    let mut program = compile(&gpipe(2, 4).unwrap());
    let is_send = |i: &Instr| matches!(i, Instr::Send { .. });
    let dropped = program.actors[0].iter().position(is_send).unwrap();
    let Instr::Send { buf: lost, .. } = program.actors[0].remove(dropped) else {
        unreachable!()
    };
    let err = replay(&program, UniformCost::default()).unwrap_err();
    let heads: Vec<&Instr> = err
        .blocked
        .iter()
        .map(|&(actor, at)| &program.actors[actor][at])
        .collect();
    assert_eq!(err.blocked.len(), 2, "{err:?}");
    assert!(
        matches!(heads[0], Instr::Recv { from: 1, .. }),
        "{:?}",
        heads[0]
    );
    assert!(
        matches!(heads[1], Instr::Recv { from: 0, src, .. } if *src == lost),
        "{:?}",
        heads[1]
    );
}

/// The forward projection keeps the placement: with the backward tasks
/// free, the projected streams take what the schedule's forward tasks
/// take. Held at `p2p = 0` only: with a latency, `simulate` still pays
/// it on the cotangent edges between the (free) backward tasks, which
/// the projection drops — the two walks then time different graphs
/// (`forward_project` at `p2p = 0.5` replays *shorter* on all four
/// builders; a modelling difference, not a placement one).
#[test]
fn forward_projected_streams_take_the_forward_makespan() {
    let cost = UniformCost {
        bwd: 0.0,
        wgrad: 0.0,
        ..UniformCost::default()
    };
    for pp in [2, 4] {
        for n_mb in [4, 8, 16] {
            for schedule in builders(pp, n_mb) {
                let fwd = forward_project(&compile(&schedule)).unwrap();
                let want = simulate(&schedule, cost).unwrap().makespan;
                assert_eq!(
                    replay_makespan(&fwd, cost),
                    want,
                    "{} pp={pp} mb={n_mb}",
                    schedule.name()
                );
            }
        }
    }
}
