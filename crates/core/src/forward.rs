//! The serving facade: compile a traced model into a **forward-only**
//! pipelined step and drive it on the MPMD runtime.
//!
//! [`compile_forward_step`] runs the same compiler front half as
//! [`crate::compile_train_step`] — stage partitioning, per-stage
//! differentiation, loop unrolling over the schedule — then projects
//! the unrolled program onto its forward half with
//! [`raxpp_taskgraph::forward_project`] instead of appending an
//! optimizer: backward tasks, gradient accumulation, and activation
//! retention are stripped, frees are re-inserted at last *forward*
//! use, and the surviving jaxprs/buffers are byte-for-byte the ones
//! the training step executes. Same parameters + same microbatch data
//! ⇒ the forward outputs are bitwise-identical to the pre-update
//! outputs of a training step (the serving parity gate —
//! `docs/serving.md`).
//!
//! The resulting [`ForwardStep`] is the substrate `raxpp-serve` builds
//! its continuous-batching engine on: one `forward()` call dispatches
//! one fused instruction stream per actor over
//! `schedule.n_mubatches()` pipeline slots; [`ForwardStep::load_params`]
//! is the between-steps weight-swap primitive; and
//! [`ForwardStep::recover`] / [`ForwardStep::rebalance`] reuse the
//! training fleet's elastic fold machinery for degraded-mode serving
//! (`docs/resilience.md`).

use std::path::Path;

use raxpp_ir::{Jaxpr, Shape, Tensor};
use raxpp_runtime::{Metrics, RebalanceReport, RecoveryReport, Runtime, TransportKind};
use raxpp_sched::Schedule;
use raxpp_taskgraph::{forward_project, pipeline_model, unroll_loop, UnrollOptions};

use crate::compile::{CompileOptions, CoreError, StepMeta, TpConfig};
use crate::fleet::Fleet;

/// Options for [`compile_forward_step`].
#[derive(Debug, Clone, Default)]
pub struct ForwardOptions {
    /// Intra-stage tensor parallelism: shard every pipeline stage to
    /// this degree, exactly as in training (PP×TP). The forward
    /// program is projected *first* and sharded *second*, so the
    /// sharded forward compute is the same the training step runs.
    pub tp: Option<TpConfig>,
    /// Actor fabric for the launched runtime (`None` resolves from
    /// `RAXPP_TRANSPORT`, mpsc when unset) — serving traffic rides the
    /// same `Transport` trait as training.
    pub transport: Option<TransportKind>,
}

impl ForwardOptions {
    /// Options matching a training [`CompileOptions`]: same tensor
    /// parallelism, same transport — for compiling the serving twin of
    /// an existing trainer.
    pub fn from_train(opts: &CompileOptions) -> ForwardOptions {
        ForwardOptions {
            tp: opts.tp.clone(),
            transport: opts.transport,
        }
    }
}

/// A compiled, launched forward-only step bound to a live MPMD runtime
/// — the serving analogue of [`crate::Trainer`], and a projection of the
/// same fleet handle: its restore point is the currently-loaded
/// parameter generation (no optimizer moments), re-placed fleet-wide
/// after a recovery or rebalance so degraded-mode serving keeps
/// answering from the same weights, and its metrics registry is the one
/// the serving tier layers its request-level metrics on.
#[derive(Debug)]
pub struct ForwardStep {
    fleet: Fleet,
}

/// Compiles a traced model into a launched [`ForwardStep`].
///
/// `jaxpr` is the same yield-annotated microbatch function training
/// uses — `(params…, data…) → (loss, aux…)`, first output a scalar
/// loss — with `n_params` leading parameters. The training form is
/// required because the compiler's front half differentiates the
/// stages before the projection strips the backward tasks; serve the
/// predictions as auxiliary outputs, exactly as traced for training. The forward tasks of one gradient-accumulation
/// unroll over `schedule` are extracted and fused into one
/// forward-only instruction stream per actor; each
/// [`ForwardStep::forward`] call then executes
/// `schedule.n_mubatches()` microbatches through the pipeline.
///
/// # Errors
///
/// Returns [`CoreError`] for invalid models, schedules, or
/// tensor-parallel configurations.
pub fn compile_forward_step(
    jaxpr: &Jaxpr,
    n_params: usize,
    schedule: &Schedule,
    opts: ForwardOptions,
) -> Result<ForwardStep, CoreError> {
    let model = pipeline_model(jaxpr, n_params)?;
    let compiled = unroll_loop(&model, schedule, UnrollOptions::default())?;
    let mut program = forward_project(&compiled.program)?;
    let (tp, dp) = Fleet::lower(&mut program, opts.tp.as_ref(), None)?;
    let meta = StepMeta {
        param_shapes: model.param_shapes(),
        data_shapes: model.data_shapes(),
        n_outputs: model.out_shapes().len(),
        n_mubatches: schedule.n_mubatches(),
        state_init: Vec::new(),
        param_read: Vec::new(),
        tp,
        dp,
        zero1: false,
    };
    let kind = opts.transport.unwrap_or_else(TransportKind::from_env);
    Ok(ForwardStep {
        fleet: Fleet::new(Runtime::with_transport(program, kind), meta, schedule),
    })
}

impl ForwardStep {
    /// Places (or replaces) the model parameters on the actors — the
    /// weight-swap primitive. The first call must precede the first
    /// [`ForwardStep::forward`]; later calls install a new weight
    /// generation between steps, which is what makes zero-downtime
    /// swaps possible: a forward dispatch that already started keeps
    /// its generation, the next one reads the new buffers.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] on count/shape mismatches, or a
    /// runtime placement failure.
    pub fn load_params(&self, params: &[Tensor]) -> Result<(), CoreError> {
        self.fleet.install(params.to_vec())
    }

    /// Loads the parameter tensors of the newest valid checkpoint
    /// generation under `dir` (a training checkpoint stores parameters
    /// first, then optimizer moments — the moments are ignored) and
    /// installs them via [`ForwardStep::load_params`]. Returns the
    /// generation's step number, or `None` when the directory holds no
    /// valid generation (weights unchanged).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for I/O failures or a
    /// checkpoint with too few / mis-shaped parameter tensors.
    pub fn load_latest_checkpoint(&self, dir: impl AsRef<Path>) -> Result<Option<u64>, CoreError> {
        let mgr = crate::checkpoint::CheckpointManager::new(dir.as_ref(), usize::MAX);
        let Some((step, mut tensors)) = mgr
            .latest_valid()
            .map_err(|e| CoreError::BadInput(format!("checkpoint scan failed: {e}")))?
        else {
            return Ok(None);
        };
        tensors.truncate(self.n_params());
        self.fleet.install(tensors)?;
        Ok(Some(step))
    }

    /// Runs one forward step over `data[input][mubatch]`, returning all
    /// per-microbatch outputs as `outputs[output][mubatch]`.
    ///
    /// Every call executes the full pipeline of
    /// [`ForwardStep::n_mubatches`] slots; the serving tier packs
    /// requests into those slots ([`raxpp_sched::SlotPlan`]) and pads
    /// the rest.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] on malformed data and
    /// [`CoreError::Runtime`] on a fleet failure (the caller decides
    /// between [`ForwardStep::recover`] and [`ForwardStep::rebalance`]).
    pub fn forward(&self, data: &[Vec<Tensor>]) -> Result<Vec<Vec<Tensor>>, CoreError> {
        if self.fleet.restore_point().is_none() {
            return Err(CoreError::BadInput(
                "no parameters loaded: call load_params first".into(),
            ));
        }
        Ok(self.fleet.run(data)?.outputs)
    }

    /// Respawns dead actors and re-places the current weight generation
    /// — the first rung of degraded-mode serving after a failed
    /// [`ForwardStep::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when the fleet cannot be
    /// repaired.
    pub fn recover(&self) -> Result<RecoveryReport, CoreError> {
        self.fleet.recover()
    }

    /// Permanently folds the given actors' stages onto survivors and
    /// re-places the current weight generation — the elastic rung:
    /// serving continues on fewer actors with identical outputs
    /// (`docs/resilience.md`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when no survivor remains or the
    /// program cannot be re-placed.
    pub fn rebalance(&self, dead: &[usize]) -> Result<RebalanceReport, CoreError> {
        self.fleet.rebalance(dead)
    }

    /// Pipeline slots per forward step (`schedule.n_mubatches()`).
    pub fn n_mubatches(&self) -> usize {
        self.fleet.meta.n_mubatches
    }

    /// Number of model outputs per microbatch.
    pub fn n_outputs(&self) -> usize {
        self.fleet.meta.n_outputs
    }

    /// Number of data inputs of the traced function.
    pub fn n_data_inputs(&self) -> usize {
        self.fleet.meta.data_shapes.len()
    }

    /// Number of model parameters.
    pub fn n_params(&self) -> usize {
        self.fleet.meta.param_shapes.len()
    }

    /// Shapes of the model parameters.
    pub fn param_shapes(&self) -> &[Shape] {
        &self.fleet.meta.param_shapes
    }

    /// Per-microbatch shapes of the data inputs — what one pipeline
    /// slot consumes (the serving tier pads empty slots with zeros of
    /// these shapes).
    pub fn data_shapes(&self) -> &[Shape] {
        &self.fleet.meta.data_shapes
    }

    /// The pipeline schedule the step was compiled for.
    pub fn schedule(&self) -> &Schedule {
        &self.fleet.schedule
    }

    /// The compiled tensor-parallel degree (1 for pure pipeline).
    pub fn tp_degree(&self) -> usize {
        self.fleet.meta.tp.degree()
    }

    /// The forward-step metrics registry (the serving tier publishes
    /// its request-level `serve_*` metrics into the same registry —
    /// `docs/observability.md`).
    pub fn metrics(&self) -> &Metrics {
        &self.fleet.metrics
    }

    /// The underlying runtime (fault injection and program inspection
    /// in tests; tracing).
    pub fn runtime(&self) -> &Runtime {
        &self.fleet.runtime
    }
}
