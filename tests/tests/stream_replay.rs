//! Placement property of the unroller: with instruction placement as the
//! only source of idle time, the compiled streams take exactly as long as
//! the schedule they were compiled from. `replay_makespan` walks the
//! streams under unit costs (a `Recv` waits for its `Send`);
//! `raxpp_sched::simulate` walks the schedule's tasks under the same
//! costs. A receive placed ahead of work that does not need it shows up
//! as replay > simulate.

use raxpp_integration::replay_makespan;
use raxpp_models::mlp_chain;
use raxpp_sched::{
    gpipe, interleaved_1f1b, one_f1b, simulate, zero_bubble_h1, Schedule, UniformCost,
};
use raxpp_taskgraph::{
    forward_project, insert_frees, pipeline_model, unroll_loop, MpmdProgram, UnrollOptions,
};

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
    let cost = UniformCost::default();
    for pp in [2, 4] {
        for n_mb in [4, 8, 16] {
            for schedule in builders(pp, n_mb) {
                let mut program = compile(&schedule);
                let want = simulate(&schedule, cost).unwrap().makespan;
                let name = schedule.name();
                assert_eq!(
                    replay_makespan(&program, cost),
                    want,
                    "{name} pp={pp} mb={n_mb}"
                );
                // Frees move nothing that waits.
                insert_frees(&mut program);
                assert_eq!(
                    replay_makespan(&program, cost),
                    want,
                    "{name} pp={pp} mb={n_mb} after insert_frees"
                );
            }
        }
    }
}

/// The forward projection keeps the placement: with the backward tasks
/// free, the projected streams take what the schedule's forward tasks
/// take.
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
