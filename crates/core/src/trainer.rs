//! The end-to-end training facade: trace → partition → differentiate →
//! unroll → append optimizer → run on the MPMD runtime.
//!
//! This is the Rust analogue of the paper's Figure 4 workflow:
//! `RemoteMesh::distributed(train_step)` returns a compiled step
//! function whose every invocation dispatches one fused instruction
//! stream per actor.
//!
//! A [`Trainer`] is the training projection of the crate's fleet handle
//! (`fleet.rs`): running, measuring, recovering and rebalancing a step
//! are the handle's; what is the trainer's own is the loss-shaped
//! [`StepResult`], the step counter and periodic checkpoints.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use raxpp_ir::{Jaxpr, Shape, Tensor};
use raxpp_runtime::{
    Counter, Metrics, RebalanceReport, RecoveryReport, Runtime, StepEvent, StepStats, StepTrace,
    TransportKind,
};
use raxpp_sched::Schedule;
use raxpp_taskgraph::{pipeline_model, MpmdProgram};

use crate::compile::{compile_step, CompileOptions, CoreError};
use crate::fleet::Fleet;
use crate::optimizer::Optimizer;

/// Retry-with-backoff policy for [`Trainer::step_with_recovery`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum recovery attempts per step (0 = behave like
    /// [`Trainer::step`]).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
    /// Elastic degraded mode: after this many deaths of the *same*
    /// actor within one step's retry loop, stop respawning it and fold
    /// its stages onto the surviving actors ([`Trainer::rebalance`]).
    /// `None` disables rebalancing (every death is retried by respawn).
    pub rebalance_after: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            backoff: Duration::from_millis(10),
            rebalance_after: None,
        }
    }
}

/// Periodic on-disk checkpointing for
/// [`Trainer::step_with_recovery`]: every `every` successful steps the
/// full training state is saved as an atomic `ckpt-<step>` generation
/// under `dir` (see [`crate::checkpoint::CheckpointManager`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Directory checkpoint generations are written under.
    pub dir: PathBuf,
    /// Save every this many successful steps (minimum 1).
    pub every: u64,
    /// Newest generations to retain on disk (minimum 1).
    pub keep: usize,
}

impl CheckpointPolicy {
    /// A policy saving under `dir` every `every` steps, keeping the
    /// newest `keep` generations.
    pub fn new(dir: impl Into<PathBuf>, every: u64, keep: usize) -> CheckpointPolicy {
        CheckpointPolicy {
            dir: dir.into(),
            every: every.max(1),
            keep: keep.max(1),
        }
    }
}

/// A compiled, launched training step bound to a live MPMD runtime.
#[derive(Debug)]
pub struct Trainer {
    /// The launched program with its runtime, metrics and restore point.
    fleet: Fleet,
    /// Successful `step_with_recovery` steps so far — the step number
    /// stamped into periodic checkpoints.
    steps_done: AtomicU64,
    /// Periodic on-disk checkpointing; off until
    /// [`Trainer::set_checkpoint_policy`] installs a policy.
    ckpt: Mutex<Option<CheckpointPolicy>>,
}

/// One step's results.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Per-microbatch loss values (output 0 of the traced function) —
    /// the concatenation semantics of `accumulate_grads`.
    pub losses: Vec<f32>,
    /// Mean loss across microbatches.
    pub mean_loss: f32,
    /// All per-microbatch outputs: `outputs[output][mubatch]`.
    pub outputs: Vec<Vec<Tensor>>,
    /// Accumulated gradients, when compiled with `fetch_grads`.
    pub grads: Option<Vec<Tensor>>,
    /// Runtime statistics.
    pub stats: StepStats,
}

/// Compiles a traced training step into a launched [`Trainer`].
///
/// `jaxpr` is the yield-annotated microbatch function
/// `(params…, data…) → (loss, aux…)`; `n_params` its leading parameter
/// count. The gradient-accumulation loop follows `schedule`; `optimizer`
/// is applied on each parameter's owning actor after the loop, and
/// updated shared weights are re-broadcast to their replica actors.
///
/// # Errors
///
/// Returns [`CoreError`] for invalid models, schedules, or optimizer
/// graphs.
pub fn compile_train_step(
    jaxpr: &Jaxpr,
    n_params: usize,
    schedule: &Schedule,
    optimizer: Optimizer,
    opts: CompileOptions,
) -> Result<Trainer, CoreError> {
    let kind = opts.transport.unwrap_or_else(TransportKind::from_env);
    compile_train_step_on(jaxpr, n_params, schedule, optimizer, opts, |program| {
        Ok(Runtime::with_transport(program, kind))
    })
}

/// Compiles a training step and launches it on a caller-built runtime.
///
/// The `launch` closure receives the compiled program and returns the
/// [`Runtime`] to train on — e.g. [`Runtime::with_process_fleet`] for a
/// multi-process socket fleet (`raxpp-launch`). [`compile_train_step`]
/// is this with `Runtime::with_transport`.
///
/// # Errors
///
/// Returns [`CoreError`] on compile failure or when `launch` fails.
pub fn compile_train_step_on(
    jaxpr: &Jaxpr,
    n_params: usize,
    schedule: &Schedule,
    optimizer: Optimizer,
    opts: CompileOptions,
    launch: impl FnOnce(MpmdProgram) -> std::io::Result<Runtime>,
) -> Result<Trainer, CoreError> {
    let model = pipeline_model(jaxpr, n_params)?;
    let (program, meta, layout) = compile_step(&model, schedule, &optimizer, &opts)?;
    let runtime = launch(program)
        .map_err(|e| CoreError::BadInput(format!("launching the runtime fleet: {e}")))?;
    let recompile = Box::new(move |folded: &Schedule| {
        let (program, _, layout) = compile_step(&model, folded, &optimizer, &opts)?;
        Ok((program, layout))
    });
    Ok(Trainer {
        fleet: Fleet::new(runtime, meta, schedule, layout, recompile),
        steps_done: AtomicU64::new(0),
        ckpt: Mutex::new(None),
    })
}

impl Trainer {
    /// Places initial parameters and zeroed optimizer state on the
    /// actors. Must be called once before the first [`Trainer::step`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on shape mismatches or runtime failure.
    pub fn init(&self, params: &[Tensor]) -> Result<(), CoreError> {
        let zeros: Vec<Tensor> = (self.fleet.running().layout.state_init.iter())
            .map(|(_, _, s)| Tensor::zeros(s.clone()))
            .collect();
        self.fleet
            .install(params.iter().cloned().chain(zeros).collect())
    }

    /// Runs one training step over `data[input][mubatch]`, returning the
    /// per-microbatch losses (and optionally gradients).
    ///
    /// Under data parallelism `mubatch` indexes the **global** batch of
    /// [`Trainer::n_mubatches`] microbatches; replica `r` consumes the
    /// contiguous slice `r·N/d .. (r+1)·N/d`, and losses/outputs come
    /// back in global-microbatch order.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on bad inputs (every data input must carry
    /// exactly [`Trainer::n_mubatches`] microbatches) or runtime
    /// failure.
    pub fn step(&self, data: &[Vec<Tensor>]) -> Result<StepResult, CoreError> {
        self.fleet.run(data)
    }

    /// Runs one training step with automatic failure recovery: on an
    /// actor death, task error, or timeout, the runtime is recovered
    /// ([`Runtime::recover`]: dead actors respawned, channels rewired),
    /// the last-known-good state (captured after [`Trainer::init`] and
    /// after every successful recovered step) is restored on all actors,
    /// and the step is retried after an exponential backoff.
    ///
    /// Because the restore point is the exact post-previous-step state
    /// and the retried step re-places its data inputs, a recovered run
    /// is **bitwise identical** to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns the last [`CoreError`] once `policy.max_retries` is
    /// exhausted, and immediately for non-recoverable errors (bad
    /// inputs).
    pub fn step_with_recovery(
        &self,
        data: &[Vec<Tensor>],
        policy: RetryPolicy,
    ) -> Result<StepResult, CoreError> {
        Ok(self.recovered_step(data, policy)?.0)
    }

    /// One step through the fleet's retry ladder plus the trainer's own
    /// bookkeeping: bump the step counter and write a periodic
    /// checkpoint of the just-committed restore point when one is due.
    fn recovered_step(
        &self,
        data: &[Vec<Tensor>],
        policy: RetryPolicy,
    ) -> Result<(StepResult, Vec<StepEvent>), CoreError> {
        let (out, events) = self.fleet.run_with_recovery(data, policy)?;
        let step = self.steps_done.fetch_add(1, Ordering::SeqCst) + 1;
        let ckpt = self.ckpt.lock().unwrap();
        if let Some(p) = ckpt.as_ref().filter(|p| step.is_multiple_of(p.every)) {
            let state = self.fleet.restore_point().clone();
            let state = state.expect("a recovered step commits its state");
            crate::checkpoint::CheckpointManager::new(&p.dir, p.keep)
                .save(step, &state)
                .map_err(|e| CoreError::BadInput(format!("checkpoint save failed: {e}")))?;
            self.fleet.metrics.inc(Counter::CheckpointsTotal, 1);
        }
        Ok((out, events))
    }

    /// Respawns dead actors and restores the last-known-good training
    /// state on the whole fleet — one manual round of what
    /// [`Trainer::step_with_recovery`] does between attempts. The next
    /// step then computes exactly what it would have computed had the
    /// failure never happened.
    ///
    /// Always recover through here rather than through
    /// `runtime().recover()`: the runtime only respawns, and a respawned
    /// actor's store is empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when the fleet cannot be repaired
    /// or the state cannot be placed.
    pub fn recover(&self) -> Result<RecoveryReport, CoreError> {
        self.fleet.recover()
    }

    /// Permanently folds the given actors' stages onto the survivors
    /// and resumes from the last-known-good snapshot: the compiled
    /// schedule is folded the same way and compiled again, the runtime
    /// runs that program ([`raxpp_runtime::Runtime::rebalance`]), dead
    /// survivors are respawned, and the snapshot is restored fleet-wide
    /// — so the next step computes **bitwise-identical** results on
    /// fewer actors (a fold is tier 1 of `docs/determinism.md`).
    ///
    /// Usually invoked automatically by the recovery ladder of
    /// [`Trainer::step_with_recovery`] (see
    /// [`RetryPolicy::rebalance_after`]); callable directly for planned
    /// shrinks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when no survivor remains or the
    /// folded schedule does not compile (the fleet is left as it was).
    ///
    /// Under tensor and/or data parallelism a dead actor's **whole host
    /// group** folds away uniformly — all `t` ranks of its host, in
    /// every DP replica — so collective groups remap rank-preservingly
    /// onto the survivors' groups and the shrunken fleet still computes
    /// bitwise-identical results.
    pub fn rebalance(&self, dead: &[usize]) -> Result<RebalanceReport, CoreError> {
        self.fleet.rebalance(dead)
    }

    /// Resumes training state from the newest valid checkpoint
    /// generation under `dir` (corrupt generations are skipped via
    /// their checksums). Returns the resumed step number, or `None`
    /// when the directory holds no valid generation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for I/O failures or a checkpoint
    /// whose tensors do not match this trainer.
    pub fn resume_from_dir(&self, dir: impl AsRef<Path>) -> Result<Option<u64>, CoreError> {
        let mgr = crate::checkpoint::CheckpointManager::new(dir.as_ref(), usize::MAX);
        let Some((step, tensors)) = mgr
            .latest_valid()
            .map_err(|e| CoreError::BadInput(format!("checkpoint scan failed: {e}")))?
        else {
            return Ok(None);
        };
        self.fleet.install(tensors)?;
        self.steps_done.store(step, Ordering::SeqCst);
        Ok(Some(step))
    }

    /// Successful `step_with_recovery` steps so far (the step number
    /// stamped into periodic checkpoints).
    pub fn steps_done(&self) -> u64 {
        self.steps_done.load(Ordering::SeqCst)
    }

    /// Installs (or clears) the periodic checkpoint policy; a fresh
    /// trainer has none.
    pub fn set_checkpoint_policy(&self, policy: Option<CheckpointPolicy>) {
        *self.ckpt.lock().unwrap() = policy;
    }

    /// Runs one step with per-instruction tracing forced on, returning
    /// the results together with the step's [`StepTrace`] (the previous
    /// tracing setting is restored afterwards).
    ///
    /// Tracing only observes execution, so a traced step computes
    /// bitwise-identical results to an untraced one. Export the trace
    /// with [`StepTrace::chrome_trace_json`] or summarize it with
    /// [`Trainer::bubble_report`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on bad inputs or runtime failure; the
    /// failed step's partial trace stays retrievable via
    /// `runtime().take_step_trace()`.
    pub fn step_traced(&self, data: &[Vec<Tensor>]) -> Result<(StepResult, StepTrace), CoreError> {
        let r = self.fleet.traced(|| self.step(data))?;
        let trace = self
            .runtime()
            .take_step_trace()
            .ok_or_else(|| CoreError::BadInput("traced step recorded no trace".into()))?;
        Ok((r, trace))
    }

    /// [`Trainer::step_with_recovery`] with tracing forced on: the
    /// returned [`StepTrace`] is the *successful* attempt's timeline,
    /// with the abort/death events of every failed attempt and a
    /// `"retry"` marker per recovery round prepended to its event list —
    /// the full post-mortem of what the step survived.
    ///
    /// # Errors
    ///
    /// Returns the last [`CoreError`] once `policy.max_retries` is
    /// exhausted, and immediately for non-recoverable errors.
    pub fn step_traced_with_recovery(
        &self,
        data: &[Vec<Tensor>],
        policy: RetryPolicy,
    ) -> Result<(StepResult, StepTrace), CoreError> {
        let (r, mut events) = self.fleet.traced(|| self.recovered_step(data, policy))?;
        let mut trace = self.runtime().take_step_trace().unwrap_or_default();
        events.append(&mut trace.events);
        trace.events = events;
        Ok((r, trace))
    }

    /// Measured vs simulator-predicted bubble accounting for a trace
    /// produced by this trainer (see [`crate::bubble_report`]): per
    /// pipeline rank, compute vs send vs recv-wait time from the spans,
    /// diffed against [`raxpp_sched::simulate`] on the running schedule
    /// ([`Trainer::schedule`]) under a cost model derived from the same
    /// trace.
    pub fn bubble_report(&self, trace: &StepTrace) -> crate::BubbleReport {
        crate::observe::bubble_report(trace, &self.fleet.running().schedule)
    }

    /// The cross-step metrics registry: step timings, allocator
    /// counters, failure/retry counts, measured bubble fraction (see
    /// `docs/observability.md` for the catalog).
    pub fn metrics(&self) -> &Metrics {
        &self.fleet.metrics
    }

    /// The pipeline schedule the actors run: the one this trainer was
    /// compiled for, folded by every rebalance since.
    pub fn schedule(&self) -> Schedule {
        self.fleet.running().schedule.clone()
    }

    /// Reads the current (updated) parameter values back from the actors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] on runtime failure.
    pub fn params(&self) -> Result<Vec<Tensor>, CoreError> {
        self.fleet.params()
    }

    /// Number of microbatches per step — the **global** batch size in
    /// microbatches. Under data parallelism this is
    /// `dp_degree() × schedule.n_mubatches()`; each replica executes
    /// `schedule.n_mubatches()` of them.
    pub fn n_mubatches(&self) -> usize {
        self.fleet.meta.n_mubatches
    }

    /// The compiled tensor-parallel degree (1 for pure pipeline
    /// parallelism).
    pub fn tp_degree(&self) -> usize {
        self.fleet.meta.tp.degree()
    }

    /// The compiled data-parallel degree (1 for an unreplicated
    /// pipeline).
    pub fn dp_degree(&self) -> usize {
        self.fleet.meta.dp.replicas()
    }

    /// Whether optimizer state is ZeRO-1-sharded over the DP axis.
    pub fn zero1(&self) -> bool {
        self.fleet.meta.zero1
    }

    /// Shapes of the model parameters.
    pub fn param_shapes(&self) -> &[Shape] {
        &self.fleet.meta.param_shapes
    }

    /// The underlying runtime (for program inspection in tests).
    pub fn runtime(&self) -> &Runtime {
        &self.fleet.runtime
    }

    /// Saves the full training state (parameters, then optimizer
    /// moments) as a checkpoint stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] if state cannot be read back, or
    /// [`CoreError::BadInput`] wrapping I/O failures.
    pub fn save_checkpoint(&self, w: impl std::io::Write) -> Result<(), CoreError> {
        let tensors = self.fleet.capture_state()?;
        crate::checkpoint::save_tensors(w, &tensors)
            .map_err(|e| CoreError::BadInput(format!("checkpoint write failed: {e}")))
    }

    /// Restores training state from a checkpoint produced by
    /// [`Trainer::save_checkpoint`] and makes it the new recovery
    /// restore point. The checkpoint is logical state — full-shape
    /// parameters, then optimizer moments, in parameter order — so the
    /// saving trainer must have traced the same step with the same
    /// optimizer; its schedule, fold and parallel degrees may differ.
    /// Whether the run then continues bitwise is `docs/determinism.md`'s
    /// contract: across a fold of the same schedule or another tp
    /// degree it does (tier 1); across another builder or pp ("The
    /// schedule") or another dp degree (tier 2) it agrees within fp32
    /// summation bounds.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for malformed or mismatched
    /// checkpoints, or a runtime error.
    pub fn restore_checkpoint(&self, r: impl std::io::Read) -> Result<(), CoreError> {
        let tensors = crate::checkpoint::load_tensors(r)
            .map_err(|e| CoreError::BadInput(format!("checkpoint read failed: {e}")))?;
        self.fleet.install(tensors)
    }
}

/// The paper's `RemoteMesh` front door: a set of actors, each standing
/// for an SPMD group of devices.
///
/// **Substitution note:** on real hardware each actor is a Ray worker
/// driving `spmd_shape` GPUs through XLA; here each actor is a thread
/// executing the logical (unsharded) computation with the CPU
/// interpreter, while `raxpp-simcluster` models the intra-actor SPMD
/// behaviour (collectives, timing) analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMesh {
    n_actors: usize,
    spmd_shape: (usize, usize),
}

impl RemoteMesh {
    /// Allocates a mesh of `n_actors` actors, each notionally an SPMD
    /// mesh of `spmd_shape` devices.
    pub fn new(n_actors: usize, spmd_shape: (usize, usize)) -> RemoteMesh {
        RemoteMesh {
            n_actors,
            spmd_shape,
        }
    }

    /// Number of actors.
    pub fn n_actors(&self) -> usize {
        self.n_actors
    }

    /// SPMD devices per actor.
    pub fn spmd_shape(&self) -> (usize, usize) {
        self.spmd_shape
    }

    /// Compiles and launches a training step on this mesh —
    /// the `mesh.distributed(train_step)` of Figure 4.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] when the schedule needs a
    /// different actor count, plus any compilation error.
    pub fn distributed(
        &self,
        jaxpr: &Jaxpr,
        n_params: usize,
        schedule: &Schedule,
        optimizer: Optimizer,
        opts: CompileOptions,
    ) -> Result<Trainer, CoreError> {
        if schedule.n_actors() != self.n_actors {
            return Err(CoreError::BadInput(format!(
                "schedule wants {} actors but the mesh has {}",
                schedule.n_actors(),
                self.n_actors
            )));
        }
        compile_train_step(jaxpr, n_params, schedule, optimizer, opts)
    }
}
