//! Built-in pipeline schedules: GPipe, 1F1B, and interleaved 1F1B.
//!
//! All builders produce validated [`Schedule`]s; anything they can build,
//! a user could also hand-write through [`Schedule::new`] — the paper's
//! point is precisely that schedules are user-level data (§4.2).

use crate::schedule::{Schedule, ScheduleError};
use crate::task::Task;

/// The GPipe schedule (Huang et al., 2019): every actor runs all forward
/// microbatches for its stage, then all backward microbatches in reverse
/// order. Simple, but activation memory grows with the number of
/// microbatches and the bubble is paid in full (paper §2.2.1, Figure 2
/// top).
///
/// # Errors
///
/// Returns [`ScheduleError::Invalid`] for zero `pp`/`n_mubatches`.
pub fn gpipe(pp: usize, n_mubatches: usize) -> Result<Schedule, ScheduleError> {
    if pp == 0 || n_mubatches == 0 {
        return Err(ScheduleError::Invalid(
            "gpipe requires pp > 0 and microbatches > 0".into(),
        ));
    }
    let actors = (0..pp)
        .map(|r| {
            let mut tasks = Vec::with_capacity(2 * n_mubatches);
            tasks.extend((0..n_mubatches).map(|mb| Task::fwd(mb, r)));
            tasks.extend((0..n_mubatches).rev().map(|mb| Task::bwd(mb, r)));
            tasks
        })
        .collect();
    Schedule::new(
        format!("gpipe(pp={pp}, mb={n_mubatches})"),
        pp,
        n_mubatches,
        actors,
    )
}

/// The 1F1B schedule (Narayanan et al., 2019): after a per-rank warm-up of
/// `pp - rank - 1` forwards, actors alternate one-forward-one-backward,
/// bounding live activations by the stage count instead of the microbatch
/// count (paper §2.2.1, Figure 2 bottom).
///
/// # Errors
///
/// Returns [`ScheduleError::Invalid`] for zero `pp`/`n_mubatches`.
pub fn one_f1b(pp: usize, n_mubatches: usize) -> Result<Schedule, ScheduleError> {
    if pp == 0 || n_mubatches == 0 {
        return Err(ScheduleError::Invalid(
            "1f1b requires pp > 0 and microbatches > 0".into(),
        ));
    }
    let actors = (0..pp)
        .map(|r| {
            let warmup = (pp - r - 1).min(n_mubatches);
            let mut tasks = Vec::with_capacity(2 * n_mubatches);
            tasks.extend((0..warmup).map(|mb| Task::fwd(mb, r)));
            for i in 0..(n_mubatches - warmup) {
                tasks.push(Task::fwd(warmup + i, r));
                tasks.push(Task::bwd(i, r));
            }
            tasks.extend((n_mubatches - warmup..n_mubatches).map(|mb| Task::bwd(mb, r)));
            tasks
        })
        .collect();
    Schedule::new(
        format!("1f1b(pp={pp}, mb={n_mubatches})"),
        pp,
        n_mubatches,
        actors,
    )
}

/// The interleaved 1F1B schedule (Narayanan et al., 2021): each actor owns
/// `circular_repeat` non-adjacent stage chunks (actor `r` owns stages
/// `r, r + pp, r + 2·pp, …`), shrinking the pipeline bubble at the cost of
/// more communication (paper §2.2.1 and §5.1.1).
///
/// Follows Megatron-LM's ordering: warm-up of
/// `2·(pp - r - 1) + (v - 1)·pp` forwards, a steady 1F1B phase, and a
/// backward cool-down. With `circular_repeat == 1` this degenerates to
/// plain [`one_f1b`].
///
/// # Errors
///
/// Returns [`ScheduleError::Invalid`] when `n_mubatches` is not a positive
/// multiple of `pp` (a Megatron requirement that the paper's experiments
/// also satisfy) or when any parameter is zero.
pub fn interleaved_1f1b(
    pp: usize,
    n_mubatches: usize,
    circular_repeat: usize,
) -> Result<Schedule, ScheduleError> {
    if pp == 0 || circular_repeat == 0 {
        return Err(ScheduleError::Invalid(
            "interleaved 1f1b requires pp, repeat > 0".into(),
        ));
    }
    if circular_repeat == 1 {
        return one_f1b(pp, n_mubatches);
    }
    if n_mubatches == 0 || !n_mubatches.is_multiple_of(pp) {
        return Err(ScheduleError::Invalid(format!(
            "interleaved 1f1b requires microbatches ({n_mubatches}) divisible by pp ({pp})"
        )));
    }
    let v = circular_repeat;
    let n_stages = pp * v;
    let total = n_mubatches * v; // fwd units per actor
    let group = pp * v;

    // Forward execution counter -> (microbatch, stage) on rank `r`.
    let fwd_task = |r: usize, k: usize| -> Task {
        let pos = k % group;
        let chunk = pos / pp;
        let mb = (k / group) * pp + pos % pp;
        Task::fwd(mb, chunk * pp + r)
    };
    // Backward execution counter -> (microbatch, stage): chunks descend.
    let bwd_task = |r: usize, k: usize| -> Task {
        let pos = k % group;
        let chunk = v - 1 - pos / pp;
        let mb = (k / group) * pp + pos % pp;
        Task::bwd(mb, chunk * pp + r)
    };

    let actors = (0..pp)
        .map(|r| {
            let warmup = if n_mubatches == pp {
                // Megatron special case: fully fill before draining.
                total
            } else {
                (2 * (pp - r - 1) + (v - 1) * pp).min(total)
            };
            let mut tasks = Vec::with_capacity(2 * total);
            tasks.extend((0..warmup).map(|k| fwd_task(r, k)));
            for i in 0..(total - warmup) {
                tasks.push(fwd_task(r, warmup + i));
                tasks.push(bwd_task(r, i));
            }
            tasks.extend((total - warmup..total).map(|k| bwd_task(r, k)));
            tasks
        })
        .collect();
    Schedule::new(
        format!("interleaved_1f1b(pp={pp}, mb={n_mubatches}, repeat={v})"),
        n_stages,
        n_mubatches,
        actors,
    )
}

/// A zero-bubble-style schedule in the spirit of ZB-H1 (Qi et al.,
/// 2024), the schedule family the paper's related work highlights as
/// enabled by MPMD runtimes: backward passes are split into an
/// activation-gradient half (`Bwd`, on the critical path) and a deferred
/// weight-gradient half (`BwdW`) that fills what would otherwise be
/// pipeline bubble — chiefly the cool-down tail on early ranks.
///
/// This builder uses 1F1B's forward/backward ordering and schedules each
/// rank's weight gradients greedily after the steady state, so live
/// activation memory matches 1F1B while the bubble shrinks (see
/// `raxpp-sched`'s analysis tests for the measured effect).
///
/// # Errors
///
/// Returns [`ScheduleError::Invalid`] for zero `pp`/`n_mubatches`.
pub fn zero_bubble_h1(pp: usize, n_mubatches: usize) -> Result<Schedule, ScheduleError> {
    if pp == 0 || n_mubatches == 0 {
        return Err(ScheduleError::Invalid(
            "zero-bubble requires pp > 0 and microbatches > 0".into(),
        ));
    }
    let actors = (0..pp)
        .map(|r| {
            let warmup = (pp - r - 1).min(n_mubatches);
            let mut tasks = Vec::with_capacity(3 * n_mubatches);
            tasks.extend((0..warmup).map(|mb| Task::fwd(mb, r)));
            // Steady state: one-forward-one-backward(B); weight
            // gradients start flowing once the rank would otherwise
            // stall — later ranks (small warmup) can afford to do W
            // early, early ranks defer W into their cool-down tail.
            let mut w_done = 0usize;
            for i in 0..(n_mubatches - warmup) {
                tasks.push(Task::fwd(warmup + i, r));
                tasks.push(Task::bwd(i, r));
                // Ranks near the end of the pipeline interleave W
                // immediately (they have no tail work); earlier ranks
                // defer r weight-gradients.
                if i >= r {
                    tasks.push(Task::bwd_w(w_done, r));
                    w_done += 1;
                }
            }
            for mb in n_mubatches - warmup..n_mubatches {
                tasks.push(Task::bwd(mb, r));
                if w_done < n_mubatches {
                    tasks.push(Task::bwd_w(w_done, r));
                    w_done += 1;
                }
            }
            tasks.extend((w_done..n_mubatches).map(|mb| Task::bwd_w(mb, r)));
            tasks
        })
        .collect();
    Schedule::new(
        format!("zero_bubble_h1(pp={pp}, mb={n_mubatches})"),
        pp,
        n_mubatches,
        actors,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Dir;

    #[test]
    fn gpipe_validates_across_sizes() {
        for pp in [1, 2, 4, 8] {
            for mb in [1, 2, 4, 16] {
                let s = gpipe(pp, mb).unwrap();
                assert_eq!(s.n_stages(), pp);
                assert_eq!(s.n_actors(), pp);
            }
        }
    }

    #[test]
    fn one_f1b_validates_across_sizes() {
        for pp in [1, 2, 4, 8] {
            for mb in [1, 2, 3, 8, 32] {
                one_f1b(pp, mb).unwrap();
            }
        }
    }

    #[test]
    fn one_f1b_interleaves_steady_state() {
        let s = one_f1b(4, 8).unwrap();
        // Last actor has no warmup: strictly alternating fwd/bwd.
        let tasks = s.actor_tasks(3);
        for (i, t) in tasks.iter().enumerate() {
            let expect = if i % 2 == 0 { Dir::Fwd } else { Dir::Bwd };
            assert_eq!(t.dir, expect, "position {i}");
        }
    }

    #[test]
    fn interleaved_validates_across_sizes() {
        for pp in [2, 4] {
            for v in [2, 3, 4] {
                for mult in [1, 2, 4] {
                    let mb = pp * mult;
                    let s = interleaved_1f1b(pp, mb, v)
                        .unwrap_or_else(|e| panic!("pp={pp} v={v} mb={mb}: {e}"));
                    assert_eq!(s.n_stages(), pp * v);
                    assert_eq!(s.stages_per_actor(), v);
                }
            }
        }
    }

    #[test]
    fn interleaved_stage_ownership_is_circular() {
        let s = interleaved_1f1b(4, 8, 2).unwrap();
        let owners = s.stage_actor();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_repeat_one_is_plain_1f1b() {
        let a = interleaved_1f1b(4, 8, 1).unwrap();
        let b = one_f1b(4, 8).unwrap();
        assert_eq!(a.actors(), b.actors());
    }

    #[test]
    fn interleaved_requires_divisible_microbatches() {
        assert!(interleaved_1f1b(4, 6, 2).is_err());
        assert!(interleaved_1f1b(4, 0, 2).is_err());
    }

    #[test]
    fn zero_bubble_validates_across_sizes() {
        for pp in [1, 2, 4, 8] {
            for mb in [1, 2, 4, 8, 32] {
                let s = zero_bubble_h1(pp, mb).unwrap();
                assert!(s.split_backward() || mb == 0);
            }
        }
    }

    #[test]
    fn zero_bubble_covers_weight_gradients_once() {
        let s = zero_bubble_h1(4, 8).unwrap();
        let w_count = s
            .actors()
            .iter()
            .flatten()
            .filter(|t| t.dir == Dir::BwdW)
            .count();
        assert_eq!(w_count, 4 * 8);
    }

    #[test]
    fn combined_schedules_are_not_split() {
        assert!(!one_f1b(4, 8).unwrap().split_backward());
        assert!(!gpipe(4, 8).unwrap().split_backward());
    }

    /// GPipe and 1F1B over stages × actors × microbatches, each folded
    /// onto `actors` actors by contiguous stage blocks: (original, folded,
    /// actors).
    fn folded_sweep() -> Vec<(Schedule, Schedule, usize)> {
        let mut out = Vec::new();
        for stages in [2usize, 4, 8] {
            for actors in 1..=stages {
                let assign: Vec<usize> = (0..stages).map(|s| s * actors / stages).collect();
                for mb in [1, 4, 8] {
                    for orig in [gpipe(stages, mb).unwrap(), one_f1b(stages, mb).unwrap()] {
                        let folded = orig.fold(&assign).unwrap();
                        out.push((orig, folded, actors));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn folded_builders_validate_across_sizes() {
        for (orig, folded, actors) in folded_sweep() {
            // The fold keeps every actor id; `actors` of them have tasks.
            assert_eq!(folded.n_actors(), orig.n_actors());
            let busy = folded.actors().iter().filter(|t| !t.is_empty()).count();
            assert_eq!(busy, actors);
            assert_eq!(folded.n_stages(), orig.n_stages());
            assert_eq!(folded.n_mubatches(), orig.n_mubatches());
            folded.validate().unwrap();
        }
        // An assignment naming an actor the schedule does not have, or
        // one of the wrong length, is refused.
        assert!(gpipe(2, 4).unwrap().fold(&[0, 2]).is_err());
        assert!(one_f1b(2, 4).unwrap().fold(&[]).is_err());
    }

    #[test]
    fn fold_preserves_per_stage_task_order() {
        // Each stage's (fwd, bwd) task subsequence must keep its relative
        // order through folding — the property that makes folded training
        // bitwise-identical for chain models.
        for (orig, folded, _) in folded_sweep() {
            assert_order_kept(&orig, &folded);
        }
        let orig = one_f1b(4, 8).unwrap();
        let folded = orig.fold(&[0, 0, 2, 3]).unwrap();
        assert_eq!(folded.n_actors(), 4);
        assert!(folded.actor_tasks(1).is_empty());
        assert_order_kept(&orig, &folded);
    }

    fn assert_order_kept(orig: &Schedule, folded: &Schedule) {
        for stage in 0..orig.n_stages() {
            let seq = |s: &Schedule| -> Vec<Task> {
                s.actors()
                    .iter()
                    .flatten()
                    .filter(|t| t.stage == stage)
                    .copied()
                    .collect::<Vec<_>>()
            };
            // Relative order within the owning actor's list.
            let old_owner = orig.stage_actor()[stage];
            let old_seq: Vec<Task> = orig
                .actor_tasks(old_owner)
                .iter()
                .filter(|t| t.stage == stage)
                .copied()
                .collect();
            let new_owner = folded.stage_actor()[stage];
            let new_seq: Vec<Task> = folded
                .actor_tasks(new_owner)
                .iter()
                .filter(|t| t.stage == stage)
                .copied()
                .collect();
            assert_eq!(old_seq, new_seq, "stage {stage} task order changed");
            assert_eq!(seq(orig).len(), seq(folded).len());
        }
    }

    #[test]
    fn fold_rejects_bad_assignments() {
        let s = gpipe(4, 4).unwrap();
        assert!(s.fold(&[0, 0, 1]).is_err()); // wrong length
        assert!(s.fold(&[0, 0, 1, 4]).is_err()); // names actor 4 of 4
    }

    #[test]
    fn gpipe_backward_is_reversed() {
        let s = gpipe(2, 3).unwrap();
        let tasks = s.actor_tasks(0);
        let bwd_mbs: Vec<usize> = tasks
            .iter()
            .filter(|t| t.dir == Dir::Bwd)
            .map(|t| t.mubatch)
            .collect();
        assert_eq!(bwd_mbs, vec![2, 1, 0]);
    }
}
