//! Schedule analytics: idealized timing, bubble ratio, and activation
//! memory high-water marks.
//!
//! [`time_schedule`] lowers a schedule into the timeline engine
//! ([`crate::timeline`]) under any [`CostModel`]; [`simulate`] is its
//! front end for the *uniform* cost model (one duration per forward
//! task, one per backward, a flat P2P latency) — the tool used for
//! Figure 2-style reasoning, e.g. "1F1B bounds live activations by the
//! stage count". The full machine model with kernel efficiency,
//! bandwidth, and memory capacity is `raxpp-simcluster`'s cost model over
//! the same lowering.

use crate::schedule::{Schedule, ScheduleError};
use crate::task::{Dir, Task};
use crate::timeline::{self, CostModel, Op, Transfer};

/// Uniform task costs for idealized schedule analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformCost {
    /// Duration of one forward stage task.
    pub fwd: f64,
    /// Duration of one backward stage task (typically ≈2× forward for a
    /// combined backward, ≈1× when the schedule splits backward and this
    /// covers only the activation-gradient half).
    pub bwd: f64,
    /// Duration of a deferred weight-gradient task (split backward
    /// only; ≈1× forward).
    pub wgrad: f64,
    /// Latency added to a dependency crossing actors.
    pub p2p: f64,
}

impl Default for UniformCost {
    fn default() -> Self {
        UniformCost {
            fwd: 1.0,
            bwd: 2.0,
            wgrad: 1.0,
            p2p: 0.0,
        }
    }
}

/// One executed task in the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelineEntry {
    /// The task that ran.
    pub task: Task,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Result of simulating a schedule under a [`UniformCost`] model.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end time of the gradient-accumulation loop.
    pub makespan: f64,
    /// Executed tasks per actor, in execution order.
    pub timeline: Vec<Vec<TimelineEntry>>,
    /// Fraction of total actor-time spent idle (the pipeline *bubble*),
    /// over the actors that have tasks.
    pub bubble_ratio: f64,
    /// Peak number of live microbatch activations per actor (allocated at
    /// the end of a forward task, freed at the end of the matching
    /// backward task).
    pub peak_live_activations: Vec<usize>,
}

impl CostModel for UniformCost {
    /// `arrival = end + p2p`; links never serialise, sends never block.
    fn transfer(&mut self, _from: usize, _to: usize, ready: f64) -> Transfer {
        Transfer {
            arrival: ready + self.p2p,
            blocks_sender: false,
        }
    }
}

/// A schedule's tasks as timed by the engine ([`time_schedule`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskTimeline {
    /// Executed tasks per actor, in execution order.
    pub tasks: Vec<Vec<TimelineEntry>>,
    /// The latest actor clock.
    pub makespan: f64,
    /// Per actor, time spent waiting for remote dependencies to arrive.
    pub exposed_recv: Vec<f64>,
    /// Per actor, time blocking sends held it until delivery.
    pub send_blocked: Vec<f64>,
}

/// Lowers `schedule` into one [`Op`] stream per actor: each task
/// receives its dependencies ([`Task::deps`]), computes for
/// `dur(task)`, and sends its result to the actors of its consumers —
/// a local hand-off when the consumer runs on the same actor, so a
/// task placed ahead of its own local dependency blocks like any other
/// unmet receive. Also returns, per actor, the op index of each task's
/// compute.
fn lower(schedule: &Schedule, dur: impl Fn(&Task) -> f64) -> (Vec<Vec<Op>>, Vec<Vec<usize>>) {
    let n_stages = schedule.n_stages();
    let n_mb = schedule.n_mubatches();
    let owner = schedule.stage_actor();
    let split = schedule.split_backward();
    let key = |t: &Task| ((t.stage * n_mb + t.mubatch) * 3 + t.dir as usize) as u64;
    let mut streams = Vec::with_capacity(schedule.n_actors());
    let mut compute_at = Vec::with_capacity(schedule.n_actors());
    for (a, tasks) in schedule.actors().iter().enumerate() {
        let mut ops = Vec::with_capacity(4 * tasks.len());
        let mut computes = Vec::with_capacity(tasks.len());
        for t in tasks {
            for d in t.deps(n_stages) {
                ops.push(Op::Recv {
                    from: owner[d.stage],
                    key: key(&d),
                });
            }
            computes.push(ops.len());
            ops.push(Op::Compute { dur: dur(t) });
            // Consumers: the same stage's backward (of a forward) or
            // weight gradient (of a split backward), and the next stage
            // along the task's direction.
            let same_stage = match t.dir {
                Dir::Fwd => true,
                Dir::Bwd => split,
                Dir::BwdW => false,
            };
            let next_stage = match t.dir {
                Dir::Fwd if t.stage + 1 < n_stages => Some(owner[t.stage + 1]),
                Dir::Bwd if t.stage > 0 => Some(owner[t.stage - 1]),
                _ => None,
            };
            if same_stage {
                ops.push(Op::Send { to: a, key: key(t) });
            }
            if let Some(to) = next_stage.filter(|&to| to != a || !same_stage) {
                ops.push(Op::Send { to, key: key(t) });
            }
        }
        streams.push(ops);
        compute_at.push(computes);
    }
    (streams, compute_at)
}

/// Times in-order execution of `schedule` with the timeline engine
/// ([`crate::timeline::run`]): a task occupies its actor for
/// `dur(task)` as priced by `cost.task`, and every dependency crossing
/// actors is one transfer priced by `cost.transfer`.
///
/// # Errors
///
/// Returns [`ScheduleError::Deadlock`] naming the task at each blocked
/// actor's cursor if execution cannot complete — [`Schedule`]s
/// constructed through the public API never deadlock.
pub fn time_schedule(
    schedule: &Schedule,
    dur: impl Fn(&Task) -> f64,
    cost: &mut impl CostModel,
) -> Result<TaskTimeline, ScheduleError> {
    let (streams, compute_at) = lower(schedule, dur);
    let timeline = timeline::run(&streams, cost).map_err(|d| ScheduleError::Deadlock {
        // An actor only ever blocks in the receives in front of a task:
        // the first one whose compute is still ahead of the cursor.
        blocked: d
            .blocked
            .iter()
            .map(|&(a, op)| schedule.actor_tasks(a)[compute_at[a].partition_point(|&c| c < op)])
            .collect(),
    })?;
    let tasks = compute_at
        .iter()
        .enumerate()
        .map(|(a, computes)| {
            let entry = |(&task, &op): (&Task, &usize)| {
                let span = timeline.spans[a][op];
                TimelineEntry {
                    task,
                    start: span.start,
                    end: span.end,
                }
            };
            schedule
                .actor_tasks(a)
                .iter()
                .zip(computes)
                .map(entry)
                .collect()
        })
        .collect();
    Ok(TaskTimeline {
        tasks,
        makespan: timeline.makespan,
        exposed_recv: timeline.exposed_recv,
        send_blocked: timeline.send_blocked,
    })
}

/// Simulates in-order execution of `schedule` under `cost`.
///
/// Each actor executes its task list in order; a task starts when the
/// actor is free and all data dependencies have completed (plus `p2p`
/// latency for cross-actor edges).
///
/// # Errors
///
/// Returns [`ScheduleError::Deadlock`] if execution cannot complete —
/// [`Schedule`]s constructed through the public API never deadlock, so
/// this only fires for hand-crafted invalid inputs.
pub fn simulate(schedule: &Schedule, cost: UniformCost) -> Result<SimResult, ScheduleError> {
    let n_actors = schedule.n_actors();
    let dur = |t: &Task| match t.dir {
        Dir::Fwd => cost.fwd,
        Dir::Bwd => cost.bwd,
        Dir::BwdW => cost.wgrad,
    };
    let TaskTimeline {
        tasks: timeline,
        makespan,
        ..
    } = time_schedule(schedule, dur, &mut { cost })?;

    let busy: f64 = timeline
        .iter()
        .flat_map(|tl| tl.iter().map(|e| e.end - e.start))
        .sum();
    // A folded schedule keeps the actors it emptied; they are not
    // pipeline ranks, so only actors with tasks count.
    let ranks = timeline.iter().filter(|tl| !tl.is_empty()).count();
    let bubble_ratio = if makespan > 0.0 {
        1.0 - busy / (makespan * ranks as f64)
    } else {
        0.0
    };

    // Activation liveness per actor: interval from fwd end to the end of
    // the matching backward — the weight-gradient half when the schedule
    // splits backward (residuals stay live until W consumes them).
    let freeing = if schedule.split_backward() {
        Dir::BwdW
    } else {
        Dir::Bwd
    };
    let n_mb = schedule.n_mubatches();
    let mut freed_at = vec![makespan; schedule.n_stages() * n_mb];
    for e in timeline.iter().flatten().filter(|e| e.task.dir == freeing) {
        freed_at[e.task.stage * n_mb + e.task.mubatch] = e.end;
    }
    let mut peak = vec![0usize; n_actors];
    for a in 0..n_actors {
        let mut events: Vec<(f64, i32)> = Vec::new();
        for e in timeline[a].iter().filter(|e| e.task.dir == Dir::Fwd) {
            events.push((e.end, 1));
            events.push((freed_at[e.task.stage * n_mb + e.task.mubatch], -1));
        }
        events.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1)));
        let mut live = 0i32;
        let mut max_live = 0i32;
        for (_, delta) in events {
            live += delta;
            max_live = max_live.max(live);
        }
        peak[a] = max_live as usize;
    }

    Ok(SimResult {
        makespan,
        timeline,
        bubble_ratio,
        peak_live_activations: peak,
    })
}

/// Analytic bubble ratio of an ideal (non-interleaved) pipeline with `pp`
/// stages and `m` microbatches: `(pp - 1) / (m + pp - 1)`.
///
/// With interleaving degree `v` the warm-up shrinks:
/// `(pp - 1) / (v·m + pp - 1)` per Narayanan et al. (2021).
pub fn ideal_bubble_ratio(pp: usize, m: usize, v: usize) -> f64 {
    let pp = pp as f64;
    let m = m as f64;
    let v = v as f64;
    (pp - 1.0) / (v * m + pp - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{gpipe, interleaved_1f1b, one_f1b};

    /// A fold keeps the actors it empties, and they are not pipeline
    /// ranks: the bubble is the one of the same schedule without them.
    #[test]
    fn emptied_actors_are_not_idle_ranks() {
        let folded = gpipe(4, 4).unwrap().fold(&[0, 0, 2, 3]).unwrap();
        let busy: Vec<Vec<Task>> = folded
            .actors()
            .iter()
            .filter(|t| !t.is_empty())
            .cloned()
            .collect();
        let compact = Schedule::new("compact", 4, 4, busy).unwrap();
        let cost = UniformCost::default();
        let (a, b) = (
            simulate(&folded, cost).unwrap(),
            simulate(&compact, cost).unwrap(),
        );
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.bubble_ratio, b.bubble_ratio);
    }

    #[test]
    fn gpipe_memory_grows_with_microbatches() {
        let s = gpipe(4, 16).unwrap();
        let r = simulate(&s, UniformCost::default()).unwrap();
        // Stage 0 holds all 16 microbatch activations at once.
        assert_eq!(r.peak_live_activations[0], 16);
    }

    #[test]
    fn one_f1b_memory_bounded_by_stages() {
        // The paper's 2-3x activation-memory reduction (§2.2.1): live
        // activations on actor r are at most pp - r, independent of the
        // microbatch count.
        let pp = 4;
        let s = one_f1b(pp, 32).unwrap();
        let r = simulate(&s, UniformCost::default()).unwrap();
        for (rank, &peak) in r.peak_live_activations.iter().enumerate() {
            assert!(
                peak <= pp - rank,
                "actor {rank} peak {peak} exceeds bound {}",
                pp - rank
            );
        }
    }

    #[test]
    fn one_f1b_not_slower_than_gpipe() {
        for (pp, m) in [(2, 4), (4, 8), (4, 16), (8, 32)] {
            let g = simulate(&gpipe(pp, m).unwrap(), UniformCost::default()).unwrap();
            let f = simulate(&one_f1b(pp, m).unwrap(), UniformCost::default()).unwrap();
            assert!(
                f.makespan <= g.makespan + 1e-9,
                "pp={pp} m={m}: 1f1b {} vs gpipe {}",
                f.makespan,
                g.makespan
            );
        }
    }

    #[test]
    fn interleaving_reduces_bubble() {
        // With per-task durations scaled down by the repeat degree
        // (stages shrink as they are sliced finer), a higher circular
        // repeat must reduce the bubble ratio (paper §5.1.1, Figure 6's
        // rising segment).
        let pp = 4;
        let m = 8;
        let mut last = f64::INFINITY;
        for v in [1usize, 2, 4] {
            let s = interleaved_1f1b(pp, m, v).unwrap();
            let cost = UniformCost {
                fwd: 1.0 / v as f64,
                bwd: 2.0 / v as f64,
                wgrad: 0.0,
                p2p: 0.0,
            };
            let r = simulate(&s, cost).unwrap();
            assert!(
                r.bubble_ratio < last + 1e-9,
                "v={v}: bubble {} did not improve on {last}",
                r.bubble_ratio
            );
            last = r.bubble_ratio;
        }
    }

    #[test]
    fn bubble_matches_ideal_for_1f1b() {
        let pp = 4;
        let m = 16;
        let s = one_f1b(pp, m).unwrap();
        // With bwd = fwd the ideal formula is exact.
        let cost = UniformCost {
            fwd: 1.0,
            bwd: 1.0,
            wgrad: 0.0,
            p2p: 0.0,
        };
        let r = simulate(&s, cost).unwrap();
        let ideal = ideal_bubble_ratio(pp, m, 1);
        assert!(
            (r.bubble_ratio - ideal).abs() < 1e-9,
            "measured {} vs ideal {ideal}",
            r.bubble_ratio
        );
    }

    #[test]
    fn more_microbatches_shrink_bubble() {
        let pp = 4;
        let mut last = 1.0;
        for m in [4, 8, 16, 32] {
            let r = simulate(&one_f1b(pp, m).unwrap(), UniformCost::default()).unwrap();
            assert!(r.bubble_ratio < last);
            last = r.bubble_ratio;
        }
    }

    #[test]
    fn p2p_latency_extends_makespan() {
        let s = one_f1b(4, 8).unwrap();
        let base = simulate(&s, UniformCost::default()).unwrap();
        let lat = simulate(
            &s,
            UniformCost {
                p2p: 0.5,
                ..UniformCost::default()
            },
        )
        .unwrap();
        assert!(lat.makespan > base.makespan);
    }

    #[test]
    fn zero_bubble_beats_1f1b_makespan() {
        // Split backward: B and W are each ~1 forward; combined backward
        // is 2 forwards. Same total work, but ZB-H1's drain is shorter
        // and W fills the idle slots.
        use crate::builders::zero_bubble_h1;
        for (pp, m) in [(2, 8), (4, 8), (4, 16), (8, 32)] {
            let combined = simulate(&one_f1b(pp, m).unwrap(), UniformCost::default()).unwrap();
            let split_cost = UniformCost {
                fwd: 1.0,
                bwd: 1.0,
                wgrad: 1.0,
                p2p: 0.0,
            };
            let zb = simulate(&zero_bubble_h1(pp, m).unwrap(), split_cost).unwrap();
            assert!(
                zb.makespan < combined.makespan - 1e-9,
                "pp={pp} m={m}: zb {} vs 1f1b {}",
                zb.makespan,
                combined.makespan
            );
        }
    }

    #[test]
    fn zero_bubble_memory_bounded_by_stage_count() {
        // ZB-H1 keeps activation memory in the same O(pp) class as 1F1B
        // (vs GPipe's O(m)). Our liveness counter holds the *full*
        // residual set until W runs, so the per-rank bound is pp + 1
        // rather than 1F1B's pp - r (the real system retains only W's
        // smaller working set for the deferred half).
        use crate::builders::zero_bubble_h1;
        let pp = 4;
        let m = 16;
        let split_cost = UniformCost {
            fwd: 1.0,
            bwd: 1.0,
            wgrad: 1.0,
            p2p: 0.0,
        };
        let zb = simulate(&zero_bubble_h1(pp, m).unwrap(), split_cost).unwrap();
        for a in 0..pp {
            assert!(
                zb.peak_live_activations[a] <= pp + 1,
                "actor {a}: zb peak {} exceeds stage-count bound",
                zb.peak_live_activations[a]
            );
        }
        // Crucially it does NOT scale with the microbatch count.
        let zb_big = simulate(&zero_bubble_h1(pp, 32).unwrap(), split_cost).unwrap();
        assert_eq!(
            zb.peak_live_activations, zb_big.peak_live_activations,
            "ZB memory must be independent of the microbatch count"
        );
    }

    /// The deadlock of `schedule.rs::deadlocking_order_rejected`, past
    /// validation: both front ends report the task at each blocked
    /// actor's cursor.
    #[test]
    fn cyclic_schedule_is_a_typed_deadlock_naming_the_blocked_tasks() {
        let s = Schedule::unchecked(
            2,
            2,
            vec![
                vec![
                    Task::fwd(0, 0),
                    Task::bwd(0, 0),
                    Task::fwd(1, 0),
                    Task::bwd(1, 0),
                ],
                vec![
                    Task::fwd(1, 1),
                    Task::bwd(1, 1),
                    Task::fwd(0, 1),
                    Task::bwd(0, 1),
                ],
            ],
        );
        let want = ScheduleError::Deadlock {
            blocked: vec![Task::bwd(0, 0), Task::fwd(1, 1)],
        };
        assert_eq!(simulate(&s, UniformCost::default()), Err(want.clone()));
        let timed = time_schedule(&s, |_| 1.0, &mut UniformCost::default());
        assert_eq!(timed.unwrap_err(), want);
        // A task ahead of its own local dependency blocks too.
        let s = Schedule::unchecked(1, 1, vec![vec![Task::bwd(0, 0), Task::fwd(0, 0)]]);
        assert_eq!(
            simulate(&s, UniformCost::default()),
            Err(ScheduleError::Deadlock {
                blocked: vec![Task::bwd(0, 0)]
            })
        );
    }

    /// `simulate` is a lowering into the timeline engine; these are the
    /// FNV-1a hashes of everything the pre-engine walker (commit
    /// a6c3ead) returned — makespan, bubble ratio, every timeline entry
    /// and the activation peaks, bit for bit — over pp ∈ {2,4,8} ×
    /// mb ∈ {4,8,16,32}, per builder and cost row.
    #[test]
    fn simulate_is_bit_equal_to_the_pre_engine_walker() {
        use crate::builders::zero_bubble_h1;
        const GOLDEN: [[u64; 3]; 4] = [
            [0x9ab89d20094619db, 0xcad1aa2da3825af3, 0x038988e91367193d],
            [0x2024cbfd64b85281, 0x0986c3e684ff37f0, 0x15b365287cd1aa91],
            [0xb717c337e4bbc060, 0xda072c0df72962c5, 0x4048cd080f443c11],
            [0xc84b90078db9bd01, 0x3a7777d9781e10f8, 0xc4e5e63159ff5a0e],
        ];
        let costs = [
            UniformCost::default(),
            UniformCost {
                p2p: 0.5,
                ..UniformCost::default()
            },
            UniformCost {
                fwd: 0.3,
                bwd: 0.7,
                wgrad: 0.2,
                p2p: 0.1,
            },
        ];
        fn fnv(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        for (b, golden) in GOLDEN.iter().enumerate() {
            for (cost, want) in costs.iter().zip(golden) {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for pp in [2usize, 4, 8] {
                    for mb in [4usize, 8, 16, 32] {
                        let s = match b {
                            0 => gpipe(pp, mb),
                            1 => one_f1b(pp, mb),
                            2 => interleaved_1f1b(pp, mb, 2),
                            _ => zero_bubble_h1(pp, mb),
                        };
                        // interleaved_1f1b needs mb to be a multiple of pp.
                        let Ok(s) = s else { continue };
                        let r = simulate(&s, *cost).unwrap();
                        fnv(&mut h, r.makespan.to_bits());
                        fnv(&mut h, r.bubble_ratio.to_bits());
                        for e in r.timeline.iter().flatten() {
                            let task =
                                (e.task.stage * 64 + e.task.mubatch) * 3 + e.task.dir as usize;
                            fnv(&mut h, task as u64);
                            fnv(&mut h, e.start.to_bits());
                            fnv(&mut h, e.end.to_bits());
                        }
                        for &p in &r.peak_live_activations {
                            fnv(&mut h, p as u64);
                        }
                    }
                }
                assert_eq!(h, *want, "builder {b}, cost {cost:?}");
            }
        }
    }

    #[test]
    fn single_actor_has_no_bubble() {
        let s = one_f1b(1, 4).unwrap();
        let r = simulate(&s, UniformCost::default()).unwrap();
        assert!(r.bubble_ratio.abs() < 1e-9);
        assert_eq!(r.makespan, 4.0 * (1.0 + 2.0));
    }
}
