//! Compilation of a traced training step: the options, the errors, and
//! [`compile_step`] — trace → partition → differentiate → unroll →
//! append optimizer → lower ([`crate::fleet::Fleet::lower`]). Launching
//! the result is [`crate::trainer`]'s job.

use std::fmt;

use raxpp_ir::{IrError, Jaxpr, Shape};
use raxpp_runtime::{RuntimeError, TransportKind};
use raxpp_sched::{DpMap, Schedule, TpMap};
use raxpp_taskgraph::{
    pipeline_model, unroll_loop, ActorId, BufferId, CompileError, FetchRole, InputPlacement,
    InputSource, Instr, MpmdProgram, PipelinedModel, TaskLabel, UnrollOptions,
};

use crate::fleet::Fleet;
use crate::optimizer::Optimizer;
#[cfg(doc)]
use crate::trainer::compile_train_step;

/// Error raised by the training facade.
#[derive(Debug)]
pub enum CoreError {
    /// Compilation failed.
    Compile(CompileError),
    /// The runtime failed.
    Runtime(RuntimeError),
    /// Graph construction failed.
    Ir(IrError),
    /// Inconsistent user input.
    BadInput(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Compile(e) => write!(f, "{e}"),
            CoreError::Runtime(e) => write!(f, "{e}"),
            CoreError::Ir(e) => write!(f, "{e}"),
            CoreError::BadInput(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<CompileError> for CoreError {
    fn from(e: CompileError) -> Self {
        CoreError::Compile(e)
    }
}

impl From<RuntimeError> for CoreError {
    fn from(e: RuntimeError) -> Self {
        CoreError::Runtime(e)
    }
}

impl From<IrError> for CoreError {
    fn from(e: IrError) -> Self {
        CoreError::Ir(e)
    }
}

/// Intra-stage tensor parallelism for [`compile_train_step`]: the
/// degree every pipeline stage is sharded to.
///
/// With `degree() > 1` the compiled program is rewritten by
/// [`raxpp_taskgraph::shard_program`]: every pipeline actor `a` expands
/// into the rank block `a*t .. a*t+t-1`, matmul-bearing stage jaxprs are
/// partitioned over the last weight dimension, and real collectives
/// (`AllGather` / `AllReduce`) reassemble full values at stage
/// boundaries. The decomposition is **bitwise-deterministic**: a `tp = t`
/// run computes losses, gradients, parameters, and checkpoints that are
/// bit-for-bit identical to the `tp = 1` run (see
/// `docs/parallelism.md`).
#[derive(Debug, Clone)]
pub struct TpConfig {
    degree: usize,
}

impl TpConfig {
    /// Model parallelism of the given degree: every stage's weights are
    /// sharded over `degree` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn model_parallel(degree: usize) -> TpConfig {
        assert!(degree > 0, "tensor-parallel degree must be positive");
        TpConfig { degree }
    }

    /// The tensor-parallel degree.
    pub fn degree(&self) -> usize {
        self.degree
    }
}

/// Data parallelism for [`compile_train_step`]: replicate the compiled
/// pipeline (after any tensor-parallel sharding) into `replicas` copies
/// that each process a **disjoint `1/replicas` shard of the global
/// batch**, linked by gradient all-reduces over the DP axis.
///
/// The schedule handed to [`compile_train_step`] describes one replica;
/// the global batch is `replicas × schedule.n_mubatches()` microbatches,
/// with replica `r` consuming the contiguous slice
/// `r·N_local .. (r+1)·N_local` (see [`raxpp_sched::DpMap`]). Replica
/// gradients genuinely differ, and the DP all-reduce is a true sum
/// folded in pinned ascending-replica order.
///
/// Determinism is a **two-tier contract** (see `docs/determinism.md`):
/// at a *fixed* degree, runs are bitwise-reproducible through faults,
/// recovery, rebalances, checkpoint resume, and transports;
/// *across* degrees, step-0 per-microbatch losses are bitwise equal and
/// later loss curves agree within documented fp32-summation bounds
/// (the gradient fold associates differently for different `d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpConfig {
    /// Number of pipeline replicas (1 compiles the program unchanged).
    pub replicas: usize,
    /// ZeRO-1: shard optimizer state over the DP axis — the gradient is
    /// reduce-scattered, each replica owns one **first-dim** slice of
    /// every moment tensor and computes its slice of the parameter
    /// update, and an all-gather reassembles the full parameter. The
    /// first dim is the axis tensor parallelism never splits, so this
    /// composes with any `tp` degree.
    pub zero1: bool,
}

impl DpConfig {
    /// Plain replicated data parallelism of the given degree.
    pub fn replicas(replicas: usize) -> DpConfig {
        DpConfig {
            replicas,
            zero1: false,
        }
    }

    /// Data parallelism with ZeRO-1 optimizer-state sharding.
    pub fn zero1(replicas: usize) -> DpConfig {
        DpConfig {
            replicas,
            zero1: true,
        }
    }
}

/// Options for [`compile_train_step`].
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Apply the loop-commuting rewrite for shared weights (§3.4).
    pub loop_commuting: bool,
    /// Also fetch the accumulated gradients every step (useful for
    /// validation; production steps fetch only losses).
    pub fetch_grads: bool,
    /// Intra-stage tensor parallelism: shard every pipeline stage to
    /// this degree (PP×TP composition). `None` (the default) and
    /// degree 1 compile the pure-pipeline program unchanged.
    pub tp: Option<TpConfig>,
    /// Data parallelism: replicate the (possibly TP-sharded) pipeline
    /// over a DP axis (PP×TP×DP composition). `None` (the default) and
    /// `replicas <= 1` compile the program unchanged.
    pub dp: Option<DpConfig>,
    /// Actor fabric for the launched runtime: in-process mpsc, Unix
    /// sockets, or TCP. `None` (the default) resolves from the
    /// `RAXPP_TRANSPORT` environment variable (mpsc when unset), so
    /// existing callers and whole test suites can be switched onto the
    /// wire without code changes.
    pub transport: Option<TransportKind>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            loop_commuting: true,
            fetch_grads: false,
            tp: None,
            dp: None,
            transport: None,
        }
    }
}

/// Compiles the identical training-step program as
/// [`compile_train_step`] **without** launching a runtime.
///
/// This is the worker side of a multi-process fleet: compilation is
/// deterministic, so a worker process that compiles the same spec gets
/// the bit-identical program the driver dispatches against and can
/// serve it via [`raxpp_runtime::serve_worker`] — programs never cross
/// the wire.
///
/// # Errors
///
/// Returns [`CoreError`] on malformed graphs or invalid options.
pub fn compile_worker_program(
    jaxpr: &Jaxpr,
    n_params: usize,
    schedule: &Schedule,
    optimizer: Optimizer,
    opts: CompileOptions,
) -> Result<MpmdProgram, CoreError> {
    let model = pipeline_model(jaxpr, n_params)?;
    Ok(compile_step(&model, schedule, &optimizer, &opts)?.0)
}

/// What the fleet handle needs to know about a compiled step program
/// besides the program itself and its [`Layout`]: the same for every
/// compile of the step, folded or not.
#[derive(Debug)]
pub(crate) struct StepMeta {
    /// Shapes of the leading parameter inputs of the traced function.
    pub(crate) param_shapes: Vec<Shape>,
    /// Per-microbatch shapes of its remaining (data) inputs.
    pub(crate) data_shapes: Vec<Shape>,
    pub(crate) n_outputs: usize,
    /// Microbatches one step consumes (the global batch under DP).
    pub(crate) n_mubatches: usize,
    /// Host-actor ↔ shard-actor arithmetic of the compiled
    /// tensor-parallel degree (degree 1 = identity); a [`Layout`] is in
    /// host-actor space.
    pub(crate) tp: TpMap,
    /// Replica-actor arithmetic of the compiled data-parallel degree
    /// (1 replica = identity), composed outside `tp`.
    pub(crate) dp: DpMap,
    /// Whether optimizer state is ZeRO-1-sharded over the DP axis —
    /// state placement/capture must then slice/assemble per replica.
    pub(crate) zero1: bool,
}

/// Where one compiled program keeps the step's state. Each compile has
/// its own: a fold moves a parameter's owner and renumbers buffers.
#[derive(Debug, Default)]
pub(crate) struct Layout {
    /// Optimizer-moment placements `(host actor, buffer, full shape)`,
    /// parameter-major; empty for a forward-only step.
    pub(crate) state_init: Vec<(ActorId, BufferId, Shape)>,
    /// Where each parameter's updated value is read back from; empty
    /// for a forward-only step.
    pub(crate) param_read: Vec<(ActorId, BufferId)>,
}

/// The step's compile chain — training or forward-only — over the
/// inputs of the launch compile, for any schedule of the same stages:
/// what a rebalance runs on the folded schedule.
pub(crate) type Recompile =
    Box<dyn Fn(&Schedule) -> Result<(MpmdProgram, Layout), CoreError> + Send + Sync>;

/// Compiles the training step of `model` for `schedule`.
pub(crate) fn compile_step(
    model: &PipelinedModel,
    schedule: &Schedule,
    optimizer: &Optimizer,
    opts: &CompileOptions,
) -> Result<(MpmdProgram, StepMeta, Layout), CoreError> {
    let param_shapes = model.param_shapes();
    let mut compiled = unroll_loop(
        model,
        schedule,
        UnrollOptions {
            loop_commuting: opts.loop_commuting,
        },
    )?;
    let program = &mut compiled.program;
    let mut next = program.fresh_buffer_floor();
    let mut alloc = || {
        next += 1;
        BufferId(next - 1)
    };

    // Append optimizer updates on each parameter's gradient owner, then
    // propagate updated shared weights to their replicas.
    let mut state_init = Vec::new();
    let mut param_read = Vec::with_capacity(param_shapes.len());
    for (p, shape) in param_shapes.iter().enumerate() {
        let (grad_buf, owner) = compiled.grads[p];
        let update = optimizer.update_jaxpr(shape)?;
        let jid = program.add_jaxpr(update);
        let pbuf = compiled.param_buffers[&(p, owner)];
        let states: Vec<BufferId> = (0..optimizer.n_state_slots())
            .map(|slot| {
                let b = alloc();
                program.placements.push(InputPlacement {
                    buf: b,
                    actor: owner,
                    shape: shape.clone(),
                    source: InputSource::State { param: p, slot },
                });
                state_init.push((owner, b, shape.clone()));
                b
            })
            .collect();
        let mut inputs = vec![pbuf, grad_buf];
        inputs.extend(&states);
        let mut outputs = vec![pbuf];
        outputs.extend(&states);
        program.actors[owner].push(Instr::Run {
            jaxpr: jid,
            inputs,
            outputs,
            label: TaskLabel::Update { param: p },
        });
        for &other in &compiled.param_actors[p] {
            if other == owner {
                continue;
            }
            let other_buf = compiled.param_buffers[&(p, other)];
            program.actors[owner].push(Instr::Send {
                buf: pbuf,
                to: other,
            });
            program.actors[other].push(Instr::Recv {
                buf: other_buf,
                src: pbuf,
                from: owner,
                shape: shape.clone(),
            });
        }
        param_read.push((owner, pbuf));
    }
    if !opts.fetch_grads {
        program
            .fetches
            .retain(|f| !matches!(f.role, FetchRole::Grad(_)));
    }
    // Lower last, so the optimizer updates and re-broadcasts appended
    // above are sharded and replicated with the gradient loop: parameter
    // updates then stay replicated across ranks end to end.
    let dp_request = opts.dp.map(|cfg| (cfg, optimizer, param_shapes.as_slice()));
    let (tp, dp) = Fleet::lower(program, opts.tp.as_ref(), dp_request)?;

    // The schedule describes one replica; the step consumes the global
    // batch of `replicas × n_mubatches()` microbatches, sharded
    // contiguously across replicas by `replicate_program`.
    let meta = StepMeta {
        n_mubatches: dp.global_mubatches(schedule.n_mubatches()),
        data_shapes: model.data_shapes(),
        n_outputs: model.out_shapes().len(),
        param_shapes,
        tp,
        dp,
        zero1: opts.dp.is_some_and(|d| d.zero1 && d.replicas > 1),
    };
    let layout = Layout {
        state_init,
        param_read,
    };
    Ok((compiled.program, meta, layout))
}
