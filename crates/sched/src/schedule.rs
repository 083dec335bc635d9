//! Schedules: per-actor ordered task lists, and their validation.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::task::{Dir, Task};
use crate::timeline::{self, Deadlock};

/// Error raised when a schedule violates the pipeline execution model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A `(mubatch, stage, dir)` triple appears zero or multiple times.
    Coverage {
        /// The offending task.
        task: Task,
        /// How many times it appears.
        count: usize,
    },
    /// A stage's tasks are spread over more than one actor, or the
    /// backward of a stage is on a different actor than its forward
    /// (violating the colocation assumption of paper §3.3).
    StagePlacement {
        /// The offending stage.
        stage: usize,
    },
    /// In-order execution of the per-actor lists cannot make progress:
    /// every actor's next task waits on a task that never runs.
    Deadlock {
        /// The tasks at each blocked actor's cursor.
        blocked: Vec<Task>,
    },
    /// The schedule parameters are inconsistent (e.g. zero stages).
    Invalid(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Coverage { task, count } => {
                write!(
                    f,
                    "task {task} appears {count} times (expected exactly once)"
                )
            }
            ScheduleError::StagePlacement { stage } => {
                write!(f, "stage {stage} is not confined to a single actor")
            }
            ScheduleError::Deadlock { blocked } => {
                write!(f, "schedule deadlocks; blocked at: ")?;
                for (i, t) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                Ok(())
            }
            ScheduleError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A pipeline schedule: for each actor, the ordered list of stage
/// computations it executes during one gradient-accumulation loop
/// (paper §4.2).
///
/// Invariants (checked by [`Schedule::validate`], enforced at
/// construction):
///
/// * every `(mubatch, stage, dir)` pair for `mubatch < n_mubatches`,
///   `stage < n_stages` appears exactly once across all actors — with
///   `BwdW` tasks either absent everywhere (combined backward) or
///   present for every pair (split backward, zero-bubble style);
/// * each stage (forward *and* backward) lives on exactly one actor;
/// * executing each actor's list in order, always waiting for data
///   dependencies, terminates (no deadlock).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    name: String,
    n_stages: usize,
    n_mubatches: usize,
    actors: Vec<Vec<Task>>,
}

impl Schedule {
    /// Builds and validates a schedule from per-actor task lists.
    ///
    /// This is the user-defined-schedule entry point from the paper: any
    /// list of tasks per actor is accepted as long as it is a correct
    /// execution of the gradient-accumulation loop.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] describing the violated invariant.
    pub fn new(
        name: impl Into<String>,
        n_stages: usize,
        n_mubatches: usize,
        actors: Vec<Vec<Task>>,
    ) -> Result<Schedule, ScheduleError> {
        let s = Schedule {
            name: name.into(),
            n_stages,
            n_mubatches,
            actors,
        };
        s.validate()?;
        Ok(s)
    }

    /// A schedule that skipped validation, to exercise the error paths
    /// the public constructor makes unreachable.
    #[cfg(test)]
    pub(crate) fn unchecked(n_stages: usize, n_mubatches: usize, actors: Vec<Vec<Task>>) -> Self {
        Schedule {
            name: "unchecked".into(),
            n_stages,
            n_mubatches,
            actors,
        }
    }

    /// The schedule's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of logical pipeline stages.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Number of microbatches per training step (gradient accumulation).
    pub fn n_mubatches(&self) -> usize {
        self.n_mubatches
    }

    /// Number of actors (SPMD process groups).
    pub fn n_actors(&self) -> usize {
        self.actors.len()
    }

    /// The ordered task list of actor `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= n_actors()`.
    pub fn actor_tasks(&self, a: usize) -> &[Task] {
        &self.actors[a]
    }

    /// All per-actor task lists.
    pub fn actors(&self) -> &[Vec<Task>] {
        &self.actors
    }

    /// Which actor owns each stage (index = stage).
    pub fn stage_actor(&self) -> Vec<usize> {
        let mut map = vec![usize::MAX; self.n_stages];
        for (a, tasks) in self.actors.iter().enumerate() {
            for t in tasks {
                map[t.stage] = a;
            }
        }
        map
    }

    /// Number of stages per actor (the *circular repeat* degree when
    /// uniform, paper §2.2.1).
    pub fn stages_per_actor(&self) -> usize {
        self.n_stages / self.n_actors().max(1)
    }

    /// Whether this schedule splits backward passes into activation- and
    /// weight-gradient halves (zero-bubble style).
    pub fn split_backward(&self) -> bool {
        self.actors.iter().flatten().any(|t| t.dir == Dir::BwdW)
    }

    /// Checks all schedule invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        if self.n_stages == 0 || self.n_mubatches == 0 || self.actors.is_empty() {
            return Err(ScheduleError::Invalid(
                "schedule needs at least one stage, one microbatch, one actor".into(),
            ));
        }
        // Coverage: every (mb, stage, dir) exactly once. BwdW tasks are
        // all-or-nothing: a split-backward schedule defers every weight
        // gradient, a combined one defers none.
        let split = self.split_backward();
        let mut counts: HashMap<Task, usize> = HashMap::new();
        for tasks in &self.actors {
            for &t in tasks {
                *counts.entry(t).or_insert(0) += 1;
            }
        }
        let dirs: &[Dir] = if split {
            &[Dir::Fwd, Dir::Bwd, Dir::BwdW]
        } else {
            &[Dir::Fwd, Dir::Bwd]
        };
        for mb in 0..self.n_mubatches {
            for stage in 0..self.n_stages {
                for &dir in dirs {
                    let t = Task {
                        mubatch: mb,
                        stage,
                        dir,
                    };
                    let c = counts.remove(&t).unwrap_or(0);
                    if c != 1 {
                        return Err(ScheduleError::Coverage { task: t, count: c });
                    }
                }
            }
        }
        if let Some((&task, &count)) = counts.iter().next() {
            return Err(ScheduleError::Coverage { task, count });
        }
        // Stage placement: single actor per stage, fwd/bwd colocated.
        for stage in 0..self.n_stages {
            let mut owner: Option<usize> = None;
            for (a, tasks) in self.actors.iter().enumerate() {
                if tasks.iter().any(|t| t.stage == stage) {
                    match owner {
                        None => owner = Some(a),
                        Some(o) if o != a => return Err(ScheduleError::StagePlacement { stage }),
                        _ => {}
                    }
                }
            }
        }
        // Deadlock freedom under in-order execution.
        self.walk(|_, _| ())
    }

    /// Visits every task in the §4.2 order ([`timeline::walk`] over the
    /// per-actor lists): a task is visited, as `visit(actor, task)`,
    /// once all of its [`Task::deps`] have been.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::Deadlock`] naming the task at each
    /// blocked actor's cursor when in-order execution cannot complete.
    pub fn walk(&self, mut visit: impl FnMut(usize, Task)) -> Result<(), ScheduleError> {
        let lens: Vec<usize> = self.actors.iter().map(Vec::len).collect();
        let mut done: HashSet<Task> = HashSet::new();
        timeline::walk(&lens, |a, i| {
            let t = self.actors[a][i];
            let ready = t.deps(self.n_stages).iter().all(|d| done.contains(d));
            if ready {
                visit(a, t);
                done.insert(t);
            }
            Ok(ready)
        })
        .map_err(|Deadlock { blocked }| ScheduleError::Deadlock {
            blocked: blocked.iter().map(|&(a, i)| self.actors[a][i]).collect(),
        })
    }

    /// Folds this schedule onto fewer actors: `assign[a]` names the new
    /// actor that takes over old actor `a`'s tasks (the
    /// `actors < stages`-aware mode — one new actor may host several
    /// stages, GPipe-style).
    ///
    /// The merged order is derived by replaying the original schedule in
    /// dependency order and appending each executed task to its new
    /// actor's list, so each stage's task subsequence keeps its relative
    /// order — for chain models this preserves every gradient
    /// accumulation order, and training on the folded schedule stays
    /// bitwise-identical to the original topology.
    ///
    /// `assign` values must cover `0..k` for the new actor count `k`
    /// (surjective onto a compact range).
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] if `assign` is malformed or the folded
    /// schedule violates a schedule invariant.
    pub fn fold(&self, assign: &[usize]) -> Result<Schedule, ScheduleError> {
        if assign.len() != self.actors.len() {
            return Err(ScheduleError::Invalid(format!(
                "fold assignment has {} entries for {} actors",
                assign.len(),
                self.actors.len()
            )));
        }
        let k = assign.iter().copied().max().map_or(0, |m| m + 1);
        for target in 0..k {
            if !assign.contains(&target) {
                return Err(ScheduleError::Invalid(format!(
                    "fold assignment skips new actor {target} (must cover 0..{k})"
                )));
            }
        }
        let mut folded: Vec<Vec<Task>> = vec![Vec::new(); k];
        self.walk(|a, t| folded[assign[a]].push(t))?;
        Schedule::new(
            format!("{}/folded(actors={k})", self.name),
            self.n_stages,
            self.n_mubatches,
            folded,
        )
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (stages={}, microbatches={}, actors={})",
            self.name,
            self.n_stages,
            self.n_mubatches,
            self.actors.len()
        )?;
        for (a, tasks) in self.actors.iter().enumerate() {
            write!(f, "  actor {a}: ")?;
            for (i, t) in tasks.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid 2-stage, 2-microbatch GPipe-like schedule.
    fn tiny() -> Vec<Vec<Task>> {
        vec![
            vec![
                Task::fwd(0, 0),
                Task::fwd(1, 0),
                Task::bwd(1, 0),
                Task::bwd(0, 0),
            ],
            vec![
                Task::fwd(0, 1),
                Task::fwd(1, 1),
                Task::bwd(1, 1),
                Task::bwd(0, 1),
            ],
        ]
    }

    #[test]
    fn valid_schedule_passes() {
        let s = Schedule::new("tiny", 2, 2, tiny()).unwrap();
        assert_eq!(s.stage_actor(), vec![0, 1]);
        assert_eq!(s.stages_per_actor(), 1);
    }

    #[test]
    fn missing_task_rejected() {
        let mut actors = tiny();
        actors[0].pop();
        let err = Schedule::new("bad", 2, 2, actors).unwrap_err();
        assert!(matches!(err, ScheduleError::Coverage { count: 0, .. }));
    }

    #[test]
    fn duplicate_task_rejected() {
        let mut actors = tiny();
        let dup = actors[0][0];
        actors[0].push(dup);
        let err = Schedule::new("bad", 2, 2, actors).unwrap_err();
        assert!(matches!(err, ScheduleError::Coverage { count: 2, .. }));
    }

    #[test]
    fn split_stage_rejected() {
        // Move bwd of stage 0 to actor 1: violates colocation.
        let actors = vec![
            vec![Task::fwd(0, 0), Task::fwd(1, 0)],
            vec![
                Task::fwd(0, 1),
                Task::fwd(1, 1),
                Task::bwd(1, 1),
                Task::bwd(0, 1),
                Task::bwd(1, 0),
                Task::bwd(0, 0),
            ],
        ];
        let err = Schedule::new("bad", 2, 2, actors).unwrap_err();
        assert_eq!(err, ScheduleError::StagePlacement { stage: 0 });
    }

    #[test]
    fn deadlocking_order_rejected() {
        // Actor 0 waits for bwd before producing the fwd that enables it.
        let actors = vec![
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
        ];
        let err = Schedule::new("bad", 2, 2, actors).unwrap_err();
        assert!(matches!(err, ScheduleError::Deadlock { .. }));
    }

    #[test]
    fn extra_out_of_range_task_rejected() {
        let mut actors = tiny();
        actors[1].push(Task::fwd(2, 1)); // microbatch 2 does not exist
        let err = Schedule::new("bad", 2, 2, actors).unwrap_err();
        assert!(matches!(err, ScheduleError::Coverage { count: 1, .. }));
    }

    #[test]
    fn empty_schedule_rejected() {
        assert!(matches!(
            Schedule::new("bad", 0, 1, vec![vec![]]),
            Err(ScheduleError::Invalid(_))
        ));
    }
}
