//! The end-to-end training facade: trace → partition → differentiate →
//! unroll → append optimizer → run on the MPMD runtime.
//!
//! This is the Rust analogue of the paper's Figure 4 workflow:
//! `RemoteMesh::distributed(train_step)` returns a compiled step
//! function whose every invocation dispatches one fused instruction
//! stream per actor.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use raxpp_ir::{IrError, Jaxpr, Shape, Tensor};
use raxpp_mesh::{AxisRules, Mesh};
use raxpp_runtime::{
    Metrics, RebalanceReport, Runtime, RuntimeError, StepEvent, StepStats, StepTrace,
    TransportKind, TransportStats,
};
use raxpp_sched::{DpMap, Schedule, TpMap};
use raxpp_taskgraph::{
    bucket_collectives, check_send_recv_order, dp_split, dp_treated, insert_frees, pipeline_model,
    replicate_program, shard_program, unroll_loop, ActorId, BufferId, CompileError, FetchRole,
    InputPlacement, InputSource, Instr, MpmdProgram, TaskLabel, UnrollOptions,
};

use crate::optimizer::Optimizer;

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

/// Intra-stage tensor parallelism for [`compile_train_step`]: the mesh
/// and axis every pipeline stage is sharded over.
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
    /// The device mesh each pipeline actor's stage is sharded over.
    pub mesh: Mesh,
    /// Logical-axis → mesh-axis assignment (Megatron-style row/column
    /// placement for planning with [`raxpp_mesh::plan_matmul`]).
    pub rules: AxisRules,
    /// Name of the mesh axis weights are sharded over.
    pub axis: String,
}

impl TpConfig {
    /// The canonical single-axis configuration: a 1-D `"model"` mesh of
    /// the given degree, with the `"hidden"` logical axis mapped onto it.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero.
    pub fn model_parallel(degree: usize) -> TpConfig {
        assert!(degree > 0, "tensor-parallel degree must be positive");
        TpConfig {
            mesh: Mesh::new(&[("model", degree)]).expect("1-D mesh is always valid"),
            rules: AxisRules::new(&[("hidden", "model")]),
            axis: "model".to_string(),
        }
    }

    /// The mesh axis tensors are sharded over.
    pub fn mesh_axis(&self) -> &str {
        &self.axis
    }

    /// The tensor-parallel degree (size of the sharding axis; 1 when the
    /// axis is unknown to the mesh, which [`compile_train_step`] rejects).
    pub fn degree(&self) -> usize {
        self.mesh.axis_size(&self.axis).unwrap_or(0)
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
/// recovery, rebalances, checkpoint resume, and lane-mode flips;
/// *across* degrees, step-0 per-microbatch losses are bitwise equal and
/// later loss curves agree within documented fp32-summation bounds
/// (the gradient fold associates differently for different `d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpConfig {
    /// Number of pipeline replicas (1 compiles the program unchanged).
    pub replicas: usize,
    /// ZeRO-1: shard optimizer state over the DP axis — each replica
    /// owns one **first-dim** slice of every moment tensor, computes its
    /// slice of the parameter update, and a second all-reduce folds the
    /// disjoint slices into the full parameter. The first dim is the
    /// axis tensor parallelism never splits, so this composes with any
    /// `tp` degree.
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
    /// Intra-stage tensor parallelism: shard every pipeline stage over
    /// this mesh axis (PP×TP composition). `None` (the default) and
    /// degree-1 meshes compile the pure-pipeline program unchanged.
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

    /// Builds a policy from the environment: `RAXPP_CKPT_DIR` (required
    /// — `None` when unset) and `RAXPP_CKPT_EVERY` (default 1). Three
    /// generations are kept.
    pub fn from_env() -> Option<CheckpointPolicy> {
        let dir = std::env::var_os("RAXPP_CKPT_DIR")?;
        let every = std::env::var("RAXPP_CKPT_EVERY")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1);
        Some(CheckpointPolicy::new(PathBuf::from(dir), every, 3))
    }

    fn manager(&self) -> crate::checkpoint::CheckpointManager {
        crate::checkpoint::CheckpointManager::new(&self.dir, self.keep)
    }
}

/// A compiled, launched training step bound to a live MPMD runtime.
#[derive(Debug)]
pub struct Trainer {
    runtime: Runtime,
    n_params: usize,
    n_outputs: usize,
    n_mubatches: usize,
    n_data_inputs: usize,
    param_shapes: Vec<Shape>,
    /// Optimizer-moment placements `(actor, buffer, shape)` — behind a
    /// `Mutex` because [`Trainer::rebalance`] remaps the actor ids when
    /// stages fold onto survivors.
    state_init: Mutex<Vec<(ActorId, BufferId, Shape)>>,
    /// Where each parameter's updated value is read back from —
    /// remapped on rebalance like `state_init`.
    param_read: Mutex<Vec<(ActorId, BufferId)>>,
    /// Composed compile-time-actor → current-host mapping (identity
    /// until the first rebalance); drives the `stages_per_actor_max`
    /// gauge.
    assign_total: Mutex<Vec<usize>>,
    fetch_grads: bool,
    /// Last-known-good training state (params, then optimizer moments),
    /// captured after `init` and after every successful
    /// `step_with_recovery` — the restore point for bitwise-identical
    /// retries.
    snapshot: Mutex<Option<Vec<Tensor>>>,
    /// Host-actor ↔ shard-actor arithmetic for the compiled
    /// tensor-parallel degree (degree 1 = identity). `state_init` and
    /// `param_read` stay in host-actor space; this map expands them to
    /// rank actors at placement time and picks rank 0 at read time (all
    /// ranks hold bitwise-identical replicas).
    tp: TpMap,
    /// Replica-actor arithmetic for the compiled data-parallel degree
    /// (1 replica = identity). Composes outside `tp`: raw actor =
    /// `dp.replica_actor(rep, tp.shard_actor(host, rank))`.
    dp: DpMap,
    /// Whether optimizer state is ZeRO-1-sharded over the DP axis —
    /// state placement/capture must then slice/assemble per replica.
    zero1: bool,
    /// The pipeline schedule this step was compiled for — kept so
    /// [`Trainer::bubble_report`] can simulate the same schedule.
    schedule: Schedule,
    /// Cross-step counters/gauges/histograms (see `docs/observability.md`
    /// for the catalog).
    metrics: Metrics,
    /// Successful `step_with_recovery` steps so far — the step number
    /// stamped into periodic checkpoints.
    steps_done: AtomicU64,
    /// Periodic on-disk checkpointing, seeded from the environment
    /// (`RAXPP_CKPT_DIR`/`RAXPP_CKPT_EVERY`) at compile time.
    ckpt: Mutex<Option<CheckpointPolicy>>,
    /// Cumulative [`TransportStats`] at the last metrics flush — the
    /// subtrahend for per-step `transport_*` counter deltas (socket
    /// transports only; stays zero on mpsc).
    wire_prev: Mutex<TransportStats>,
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

/// The first-dim block `[start, start+len)` of `t` — host-side mirror
/// of `Prim::SliceFirst`, used to scatter full optimizer moments into
/// ZeRO-1 replica slices on restore. A first-dim slice is a contiguous
/// chunk of the row-major data, so this is a single copy.
fn slice_first(t: &Tensor, start: usize, len: usize) -> Tensor {
    let full = t.shape().dim(0);
    let inner = t.data().len() / full.max(1);
    let out = t.data()[start * inner..(start + len) * inner].to_vec();
    let mut dims = t.shape().dims().to_vec();
    dims[0] = len;
    Tensor::from_vec(Shape::new(dims), out).expect("slice_first shape is consistent")
}

/// Reassembles replica-ascending first-dim slices into the full tensor —
/// the capture-side inverse of [`slice_first`], used to read ZeRO-1
/// state back into full-shape (dp-degree-portable) checkpoints. With
/// row-major data and first-dim slices this is a plain concatenation.
fn assemble_first(slices: &[Tensor], full_shape: &Shape) -> Tensor {
    let mut out = Vec::with_capacity(full_shape.numel());
    for s in slices {
        out.extend_from_slice(s.data());
    }
    Tensor::from_vec(full_shape.clone(), out).expect("assembled slices tile the full shape")
}

fn next_buffer_id(program: &MpmdProgram) -> u32 {
    let mut max = 0;
    let mut bump = |b: BufferId| max = max.max(b.0 + 1);
    for p in &program.placements {
        bump(p.buf);
    }
    for f in &program.fetches {
        bump(f.buf);
    }
    for stream in &program.actors {
        for i in stream {
            match i {
                Instr::Run {
                    inputs, outputs, ..
                } => {
                    inputs.iter().copied().for_each(&mut bump);
                    outputs.iter().copied().for_each(&mut bump);
                }
                Instr::Send { buf, .. } | Instr::Free { buf } => bump(*buf),
                Instr::Recv { buf, src, .. } | Instr::Copy { dst: buf, src } => {
                    bump(*buf);
                    bump(*src);
                }
                Instr::Collective {
                    dst, src, wires, ..
                } => {
                    bump(*dst);
                    bump(*src);
                    wires.iter().copied().for_each(&mut bump);
                }
            }
        }
    }
    max
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
    Ok(compile_step(jaxpr, n_params, schedule, &optimizer, &opts)?.program)
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
    let c = compile_step(jaxpr, n_params, schedule, &optimizer, &opts)?;
    let runtime = launch(c.program)
        .map_err(|e| CoreError::BadInput(format!("launching the runtime fleet: {e}")))?;
    let n_actors = schedule.n_actors();
    Ok(Trainer {
        runtime,
        n_params,
        n_outputs: c.n_outputs,
        n_mubatches: c.n_mubatches,
        n_data_inputs: c.n_data_inputs,
        param_shapes: c.param_shapes,
        state_init: Mutex::new(c.state_init),
        param_read: Mutex::new(c.param_read),
        assign_total: Mutex::new((0..n_actors).collect()),
        fetch_grads: opts.fetch_grads,
        snapshot: Mutex::new(None),
        tp: c.tp,
        dp: c.dp,
        zero1: opts.dp.as_ref().is_some_and(|d| d.zero1 && d.replicas > 1),
        schedule: schedule.clone(),
        metrics: Metrics::new(),
        steps_done: AtomicU64::new(0),
        ckpt: Mutex::new(CheckpointPolicy::from_env()),
        wire_prev: Mutex::new(TransportStats::default()),
    })
}

/// Everything compilation produces before a runtime exists: the placed
/// MPMD program plus the metadata the [`Trainer`] facade needs.
struct CompiledStep {
    program: MpmdProgram,
    n_outputs: usize,
    n_data_inputs: usize,
    param_shapes: Vec<Shape>,
    state_init: Vec<(ActorId, BufferId, Shape)>,
    param_read: Vec<(ActorId, BufferId)>,
    tp: TpMap,
    dp: DpMap,
    n_mubatches: usize,
}

fn compile_step(
    jaxpr: &Jaxpr,
    n_params: usize,
    schedule: &Schedule,
    optimizer: &Optimizer,
    opts: &CompileOptions,
) -> Result<CompiledStep, CoreError> {
    let model = pipeline_model(jaxpr, n_params)?;
    let param_shapes = model.param_shapes();
    let n_outputs = jaxpr.outvars().len();
    let n_data_inputs = jaxpr.invars().len() - n_params;
    let mut compiled = unroll_loop(
        &model,
        schedule,
        UnrollOptions {
            loop_commuting: opts.loop_commuting,
        },
    )?;
    let program = &mut compiled.program;
    let mut next = next_buffer_id(program);
    let mut alloc = |shape: &Shape, buf_shapes: &mut HashMap<BufferId, Shape>| {
        let b = BufferId(next);
        next += 1;
        buf_shapes.insert(b, shape.clone());
        b
    };
    let mut buf_shapes = HashMap::new();

    // Append optimizer updates on each parameter's gradient owner, then
    // propagate updated shared weights to their replicas.
    let mut state_init = Vec::new();
    let mut param_read = Vec::with_capacity(n_params);
    for (p, shape) in param_shapes.iter().enumerate().take(n_params) {
        let (grad_buf, owner) = compiled.grads[p];
        let update = optimizer.update_jaxpr(shape)?;
        let jid = program.add_jaxpr(update);
        let pbuf = compiled.param_buffers[&(p, owner)];
        let states: Vec<BufferId> = (0..optimizer.n_state_slots())
            .map(|slot| {
                let b = alloc(shape, &mut buf_shapes);
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
    // Tensor-parallel sharding: rewrite the finished host-actor program
    // (gradient loop + optimizer + re-broadcasts) into `tp_degree`
    // shard streams per pipeline actor. Running the pass after the
    // optimizer append means parameter updates are replicated across
    // ranks too, preserving the replicated-buffer invariant end to end.
    let tp = match &opts.tp {
        Some(cfg) => {
            let degree = cfg.mesh.axis_size(&cfg.axis).ok_or_else(|| {
                CoreError::BadInput(format!(
                    "tensor-parallel axis {:?} is not an axis of the mesh",
                    cfg.axis
                ))
            })?;
            if degree > 1 {
                *program = shard_program(program, &cfg.mesh, &cfg.axis)
                    .map_err(|e| CoreError::BadInput(format!("tensor-parallel lowering: {e}")))?;
            }
            TpMap::new(degree)
        }
        None => TpMap::new(1),
    };
    // Data-parallel replication: clone the (possibly TP-sharded)
    // pipeline into `replicas` copies that each consume a disjoint
    // slice of the global batch, linked by DP-axis gradient all-reduce
    // sums, optionally sharding optimizer state (ZeRO-1, first-dim —
    // composes with any tp degree).
    let dp = match &opts.dp {
        Some(cfg) if cfg.replicas > 1 => {
            let base = program.n_actors();
            let mut build = |param: usize, start: usize, len: usize| {
                optimizer
                    .sharded_update_jaxpr(&param_shapes[param], start, len)
                    .map_err(|e| e.to_string())
            };
            let zero1: Option<&mut dyn FnMut(usize, usize, usize) -> Result<_, String>> =
                if cfg.zero1 { Some(&mut build) } else { None };
            *program = replicate_program(program, cfg.replicas, zero1)
                .map_err(|e| CoreError::BadInput(format!("data-parallel lowering: {e}")))?;
            DpMap::new(cfg.replicas, base)
        }
        _ => DpMap::new(1, program.n_actors()),
    };
    insert_frees(program);
    if tp.degree() > 1 || dp.replicas() > 1 {
        // Coalesce back-to-back collectives into contiguous buckets
        // (hoisting the frees insert_frees interleaved) so the lane
        // runtime's panel streaming sees every collective a Run's
        // outputs feed directly behind that Run.
        bucket_collectives(program);
    }
    check_send_recv_order(program).map_err(|(a, b)| {
        CoreError::BadInput(format!(
            "internal error: send/recv order broken between {a}/{b}"
        ))
    })?;
    // Full static verification (shape-level abstract execution) in debug
    // builds; release builds trust the pass structure.
    #[cfg(debug_assertions)]
    raxpp_taskgraph::verify_program(program)
        .map_err(|e| CoreError::BadInput(format!("internal error: {e}")))?;

    // The schedule describes one replica; the step consumes the global
    // batch of `replicas × n_mubatches()` microbatches, sharded
    // contiguously across replicas by `replicate_program`.
    let n_mubatches = dp.global_mubatches(schedule.n_mubatches());
    Ok(CompiledStep {
        program: compiled.program,
        n_outputs,
        n_data_inputs,
        param_shapes,
        state_init,
        param_read,
        tp,
        dp,
        n_mubatches,
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
        if params.len() != self.n_params {
            return Err(CoreError::BadInput(format!(
                "expected {} parameters, got {}",
                self.n_params,
                params.len()
            )));
        }
        self.runtime.place_params(params)?;
        let mut zeros: Vec<(usize, BufferId, Tensor)> = Vec::new();
        for &(a, b, ref s) in self.state_init.lock().unwrap().iter() {
            for rep in 0..self.dp.replicas() {
                let z = Tensor::zeros(self.state_shape_for(s, rep));
                for r in 0..self.tp.degree() {
                    zeros.push((self.raw_actor(rep, a, r), b, z.clone()));
                }
            }
        }
        self.runtime.place_buffers(&zeros)?;
        *self.snapshot.lock().unwrap() = Some(self.capture_state()?);
        self.update_fleet_gauges();
        Ok(())
    }

    /// Refreshes the `actors_alive` / `stages_per_actor_max` gauges
    /// from the runtime and the composed fold assignment.
    fn update_fleet_gauges(&self) {
        self.metrics
            .set_gauge("actors_alive", self.runtime.alive_actors() as f64);
        let assign = self.assign_total.lock().unwrap();
        let mut per_host: HashMap<usize, usize> = HashMap::new();
        for &a in &self.schedule.stage_actor() {
            *per_host.entry(assign[a]).or_insert(0) += 1;
        }
        let max = per_host.values().copied().max().unwrap_or(0);
        self.metrics.set_gauge("stages_per_actor_max", max as f64);
    }

    /// The raw runtime actor of `(replica, host, tp rank)` — the DP
    /// block offset composed outside the TP rank expansion.
    fn raw_actor(&self, rep: usize, host: ActorId, rank: usize) -> usize {
        self.dp.replica_actor(rep, self.tp.shard_actor(host, rank))
    }

    /// The shape replica `rep` holds for an optimizer-state slot whose
    /// full shape is `s`: the ZeRO-1 first-dim slice for DP-treated
    /// parameters, the full shape otherwise.
    fn state_shape_for(&self, s: &Shape, rep: usize) -> Shape {
        if self.zero1 && dp_treated(s, self.dp.replicas()) {
            let (_, len) = dp_split(s.dim(0), self.dp.replicas(), rep);
            let mut dims = s.dims().to_vec();
            dims[0] = len;
            Shape::new(dims)
        } else {
            s.clone()
        }
    }

    /// Reads the full training state (parameters, then optimizer
    /// moments) back from the actors — O(1) `Arc` handle moves per
    /// tensor, not data copies. ZeRO-1 state slices are read from every
    /// replica and reassembled, so captured state (and hence
    /// checkpoints) is always full-shape and portable across DP
    /// degrees.
    fn capture_state(&self) -> Result<Vec<Tensor>, CoreError> {
        let mut tensors = self.params()?;
        for &(a, b, ref s) in self.state_init.lock().unwrap().iter() {
            if self.zero1 && dp_treated(s, self.dp.replicas()) {
                let slices: Vec<Tensor> = (0..self.dp.replicas())
                    .map(|rep| self.runtime.read_buffer(self.raw_actor(rep, a, 0), b))
                    .collect::<Result<_, _>>()?;
                tensors.push(assemble_first(&slices, s));
            } else {
                tensors.push(self.runtime.read_buffer(self.raw_actor(0, a, 0), b)?);
            }
        }
        Ok(tensors)
    }

    /// Re-places a previously captured state on every actor (parameters
    /// to all of their replicas, moments to their owners in every DP
    /// replica — sliced per replica under ZeRO-1).
    fn restore_state(&self, tensors: &[Tensor]) -> Result<(), CoreError> {
        let (params, states) = tensors.split_at(self.n_params);
        self.runtime.place_params(params)?;
        let mut items: Vec<(usize, BufferId, Tensor)> = Vec::new();
        for (&(a, b, ref s), t) in self.state_init.lock().unwrap().iter().zip(states) {
            for rep in 0..self.dp.replicas() {
                let tt = if self.zero1 && dp_treated(s, self.dp.replicas()) {
                    let (start, len) = dp_split(s.dim(0), self.dp.replicas(), rep);
                    slice_first(t, start, len)
                } else {
                    t.clone()
                };
                for r in 0..self.tp.degree() {
                    items.push((self.raw_actor(rep, a, r), b, tt.clone()));
                }
            }
        }
        self.runtime.place_buffers(&items)?;
        Ok(())
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
    /// Returns [`CoreError`] on bad inputs or runtime failure.
    pub fn step(&self, data: &[Vec<Tensor>]) -> Result<StepResult, CoreError> {
        if data.len() != self.n_data_inputs {
            return Err(CoreError::BadInput(format!(
                "expected {} data inputs, got {}",
                self.n_data_inputs,
                data.len()
            )));
        }
        let out = match self.runtime.step(data) {
            Ok(o) => o,
            Err(e) => {
                self.metrics.inc("step_failures_total", 1);
                return Err(e.into());
            }
        };
        self.metrics.inc("steps_total", 1);
        self.metrics
            .observe("step_time_s", out.stats.wall.as_secs_f64());
        let alloc = out.stats.alloc_stats();
        self.metrics.inc("alloc_allocated_total", alloc.allocated);
        self.metrics.inc("alloc_reused_total", alloc.reused);
        self.metrics.inc("alloc_freed_total", alloc.freed);
        let touched = alloc.allocated + alloc.reused;
        if touched > 0 {
            self.metrics
                .set_gauge("alloc_reuse_rate", alloc.reused as f64 / touched as f64);
        }
        if self.runtime.transport_kind() != TransportKind::Mpsc {
            // Wire counters are cumulative on the transport; publish
            // per-step deltas so they compose with counter semantics.
            let now = self.runtime.transport_stats();
            let mut prev = self.wire_prev.lock().unwrap();
            self.metrics.inc(
                "transport_bytes_tx",
                now.bytes_tx.saturating_sub(prev.bytes_tx),
            );
            self.metrics.inc(
                "transport_bytes_rx",
                now.bytes_rx.saturating_sub(prev.bytes_rx),
            );
            self.metrics.inc(
                "reconnects_total",
                now.reconnects.saturating_sub(prev.reconnects),
            );
            self.metrics.inc(
                "heartbeat_misses_total",
                now.heartbeat_misses.saturating_sub(prev.heartbeat_misses),
            );
            *prev = now;
        }
        if self.tp.degree() > 1 {
            let collectives: u64 = out
                .stats
                .profiles
                .iter()
                .filter_map(|p| p.get("collective"))
                .map(|(_, count)| count as u64)
                .sum();
            self.metrics.inc("tp_collectives_total", collectives);
            let reduced: u64 = out.stats.profiles.iter().map(|p| p.bytes_reduced()).sum();
            self.metrics.inc("tp_bytes_reduced", reduced);
            let wire: u64 = out.stats.profiles.iter().map(|p| p.bytes_wire()).sum();
            self.metrics.inc("tp_bytes_wire", wire);
            let wait_us: u64 = out
                .stats
                .profiles
                .iter()
                .filter_map(|p| p.get("collective_wait"))
                .map(|(dur, _)| dur.as_micros() as u64)
                .sum();
            self.metrics.inc("tp_collective_wait_us", wait_us);
            // A contribution published early overlaps its transfer to
            // all t-1 peers, so the overlapped share of the wire volume
            // is bytes_overlap × (t-1) out of bytes_wire.
            let overlap: u64 = out.stats.profiles.iter().map(|p| p.bytes_overlap()).sum();
            if wire > 0 {
                let t = self.tp.degree() as u64;
                self.metrics
                    .set_gauge("tp_overlap_ratio", (overlap * (t - 1)) as f64 / wire as f64);
            }
        }
        if self.dp.replicas() > 1 {
            let collectives: u64 = out
                .stats
                .profiles
                .iter()
                .filter_map(|p| p.get("dp_collective"))
                .map(|(_, count)| count as u64)
                .sum();
            self.metrics.inc("dp_collectives_total", collectives);
            let wire: u64 = out.stats.profiles.iter().map(|p| p.dp_bytes_wire()).sum();
            self.metrics.inc("dp_bytes_wire", wire);
            let wait_us: u64 = out
                .stats
                .profiles
                .iter()
                .filter_map(|p| p.get("dp_collective_wait"))
                .map(|(dur, _)| dur.as_micros() as u64)
                .sum();
            self.metrics.inc("dp_collective_wait_us", wait_us);
            // Each replica runs its compiled (per-replica) schedule:
            // the global batch divided by the DP degree.
            self.metrics.set_gauge(
                "dp_microbatches_per_replica",
                (self.n_mubatches / self.dp.replicas()) as f64,
            );
        }
        if self.tp.degree() == 1 && self.dp.replicas() == 1 {
            if let Some(trace) = &out.trace {
                // Bubble accounting maps trace actors 1:1 onto pipeline
                // ranks; under tensor or data parallelism each rank owns
                // multiple actor timelines, so the report is only
                // computed for pure PP.
                let report = crate::observe::bubble_report(trace, &self.schedule);
                self.metrics
                    .set_gauge("bubble_fraction_measured", report.measured_bubble);
            }
        }
        let mut outputs: Vec<Vec<Option<Tensor>>> =
            vec![vec![None; self.n_mubatches]; self.n_outputs];
        let mut grads: Vec<Option<Tensor>> = vec![None; self.n_params];
        for (f, t) in out.fetched {
            match f.role {
                FetchRole::Output { output, mubatch } => outputs[output][mubatch] = Some(t),
                FetchRole::Grad(p) => grads[p] = Some(t),
            }
        }
        let outputs: Vec<Vec<Tensor>> = outputs
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|t| t.expect("missing output"))
                    .collect()
            })
            .collect();
        let losses: Vec<f32> = outputs[0]
            .iter()
            .map(|t| t.item().expect("loss must be scalar"))
            .collect();
        let mean_loss = losses.iter().sum::<f32>() / losses.len().max(1) as f32;
        let grads = if self.fetch_grads {
            Some(
                grads
                    .into_iter()
                    .map(|g| g.expect("missing grad"))
                    .collect(),
            )
        } else {
            None
        };
        Ok(StepResult {
            losses,
            mean_loss,
            outputs,
            grads,
            stats: out.stats,
        })
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
        let mut attempt = 0u32;
        let mut deaths: HashMap<usize, u32> = HashMap::new();
        loop {
            match self.step(data) {
                Ok(r) => {
                    let state = self.capture_state()?;
                    *self.snapshot.lock().unwrap() = Some(state.clone());
                    self.after_successful_step(&state)?;
                    return Ok(r);
                }
                Err(CoreError::Runtime(e))
                    if e.is_recoverable() && attempt < policy.max_retries =>
                {
                    if self.maybe_rebalance(&e, policy, &mut deaths)?.is_none() {
                        self.recover_and_restore(attempt, policy)?;
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The rebalance rung of the recovery ladder: when `policy` enables
    /// elastic mode and `e` is the `rebalance_after`-th death of the
    /// same actor within this step's retry loop (and at least one other
    /// actor survives), folds that actor away instead of respawning it.
    /// Returns the report when a rebalance happened.
    fn maybe_rebalance(
        &self,
        e: &RuntimeError,
        policy: RetryPolicy,
        deaths: &mut HashMap<usize, u32>,
    ) -> Result<Option<RebalanceReport>, CoreError> {
        let (RuntimeError::ActorDied { actor }, Some(after)) = (e, policy.rebalance_after) else {
            return Ok(None);
        };
        let count = deaths.entry(*actor).or_insert(0);
        *count += 1;
        // A fold retires the dead actor's whole host group in every
        // replica (t × R raw actors); without at least one more group's
        // worth of survivors there is nothing to fold onto.
        let group = self.tp.degree() * self.dp.replicas();
        if *count < after.max(1) || self.runtime.alive_actors() <= group {
            return Ok(None);
        }
        self.rebalance(&[*actor]).map(Some)
    }

    /// Bookkeeping after a successful recovered step: bump the step
    /// counter and write a periodic checkpoint when one is due.
    fn after_successful_step(&self, state: &[Tensor]) -> Result<(), CoreError> {
        let step = self.steps_done.fetch_add(1, Ordering::SeqCst) + 1;
        let ckpt = self.ckpt.lock().unwrap();
        if let Some(p) = ckpt.as_ref() {
            if step.is_multiple_of(p.every) {
                p.manager()
                    .save(step, state)
                    .map_err(|e| CoreError::BadInput(format!("checkpoint save failed: {e}")))?;
                self.metrics.inc("checkpoints_total", 1);
            }
        }
        Ok(())
    }

    /// Permanently folds the given actors' stages onto the survivors
    /// and resumes from the last-known-good snapshot: the runtime's
    /// program is re-placed ([`raxpp_runtime::Runtime::rebalance`]),
    /// dead survivors are respawned, the trainer's placement maps are
    /// remapped, and the snapshot is restored fleet-wide — so the next
    /// step computes **bitwise-identical** results on fewer actors.
    ///
    /// Usually invoked automatically by the recovery ladder of
    /// [`Trainer::step_with_recovery`] (see
    /// [`RetryPolicy::rebalance_after`]); callable directly for planned
    /// shrinks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] when no survivor remains or the
    /// program cannot be re-placed (the fleet is left as it was).
    ///
    /// Under tensor and/or data parallelism a dead actor's **whole host
    /// group** folds away uniformly — all `t` ranks of its host, in
    /// every DP replica — so collective groups remap rank-preservingly
    /// onto the survivors' groups and the shrunken fleet still computes
    /// bitwise-identical results.
    pub fn rebalance(&self, dead: &[usize]) -> Result<RebalanceReport, CoreError> {
        let report = self.runtime.rebalance(dead)?;
        // Respawn any survivor that died in the same incident before
        // re-placing state on the fleet.
        self.runtime.recover()?;
        {
            // `report.assign` is in raw actor space; the trainer's maps
            // are in host space. Host-level uniform folds guarantee
            // `assign[host*t] = new_host*t` (replica 0, rank 0), which
            // recovers the host mapping for any tp/dp degree.
            let t = self.tp.degree();
            let mut state_init = self.state_init.lock().unwrap();
            for e in state_init.iter_mut() {
                e.0 = report.assign[e.0 * t] / t;
            }
            let mut param_read = self.param_read.lock().unwrap();
            for e in param_read.iter_mut() {
                e.0 = report.assign[e.0 * t] / t;
            }
            let mut assign_total = self.assign_total.lock().unwrap();
            for host in assign_total.iter_mut() {
                *host = report.assign[*host * t] / t;
            }
        }
        let snapshot = self.snapshot.lock().unwrap();
        if let Some(state) = snapshot.as_ref() {
            self.restore_state(state)?;
        }
        drop(snapshot);
        self.metrics.inc("rebalances_total", 1);
        self.update_fleet_gauges();
        Ok(report)
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
        self.adopt_state(tensors)?;
        self.steps_done.store(step, Ordering::SeqCst);
        Ok(Some(step))
    }

    /// Successful `step_with_recovery` steps so far (the step number
    /// stamped into periodic checkpoints).
    pub fn steps_done(&self) -> u64 {
        self.steps_done.load(Ordering::SeqCst)
    }

    /// Installs (or clears) the periodic checkpoint policy. The policy
    /// is otherwise seeded from `RAXPP_CKPT_DIR`/`RAXPP_CKPT_EVERY` at
    /// compile time.
    pub fn set_checkpoint_policy(&self, policy: Option<CheckpointPolicy>) {
        *self.ckpt.lock().unwrap() = policy;
    }

    /// One recovery round of the retry loop: backoff, respawn dead
    /// actors, restore the last-known-good snapshot fleet-wide.
    fn recover_and_restore(&self, attempt: u32, policy: RetryPolicy) -> Result<(), CoreError> {
        let backoff = policy.backoff * 2u32.saturating_pow(attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        let report = self.runtime.recover()?;
        self.metrics.inc("retries_total", 1);
        self.metrics.inc("recoveries_total", 1);
        self.metrics
            .inc("respawned_actors_total", report.respawned.len() as u64);
        let snapshot = self.snapshot.lock().unwrap();
        let state = snapshot.as_ref().ok_or_else(|| {
            CoreError::BadInput("cannot recover: no snapshot (init was never called)".into())
        })?;
        self.restore_state(state)?;
        Ok(())
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
        let was = self.runtime.tracing_enabled();
        self.runtime.set_tracing(true);
        let result = self.step(data);
        self.runtime.set_tracing(was);
        let r = result?;
        let trace = self
            .runtime
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
        let was = self.runtime.tracing_enabled();
        self.runtime.set_tracing(true);
        let mut attempt = 0u32;
        let mut deaths: HashMap<usize, u32> = HashMap::new();
        let mut prior_events: Vec<StepEvent> = Vec::new();
        let result = loop {
            match self.step(data) {
                Ok(r) => {
                    let captured = self.capture_state();
                    let mut trace = self.runtime.take_step_trace().unwrap_or_default();
                    match captured {
                        Ok(state) => {
                            *self.snapshot.lock().unwrap() = Some(state.clone());
                            if let Err(e) = self.after_successful_step(&state) {
                                break Err(e);
                            }
                        }
                        Err(e) => break Err(e),
                    }
                    if !prior_events.is_empty() {
                        prior_events.append(&mut trace.events);
                        trace.events = std::mem::take(&mut prior_events);
                    }
                    break Ok((r, trace));
                }
                Err(CoreError::Runtime(e))
                    if e.is_recoverable() && attempt < policy.max_retries =>
                {
                    // Keep the failed attempt's abort/death events; its
                    // spans are droppable (the successful attempt rewrites
                    // the same instruction timeline).
                    if let Some(t) = self.runtime.take_step_trace() {
                        prior_events.extend(t.events);
                    }
                    prior_events.push(StepEvent {
                        ts_ns: self.runtime.now_ns(),
                        actor: None,
                        kind: "retry".to_string(),
                        detail: format!("attempt {} after: {e}", attempt + 1),
                    });
                    match self.maybe_rebalance(&e, policy, &mut deaths) {
                        Ok(Some(report)) => prior_events.push(StepEvent {
                            ts_ns: self.runtime.now_ns(),
                            actor: None,
                            kind: "rebalanced".to_string(),
                            detail: format!(
                                "retired {:?}, migrated {} buffers",
                                report.retired, report.migrated_buffers
                            ),
                        }),
                        Ok(None) => {
                            if let Err(e) = self.recover_and_restore(attempt, policy) {
                                break Err(e);
                            }
                        }
                        Err(e) => break Err(e),
                    }
                    attempt += 1;
                }
                Err(e) => break Err(e),
            }
        };
        self.runtime.set_tracing(was);
        result
    }

    /// Measured vs simulator-predicted bubble accounting for a trace
    /// produced by this trainer (see [`crate::bubble_report`]): per
    /// pipeline rank, compute vs send vs recv-wait time from the spans,
    /// diffed against [`raxpp_sched::simulate`] on the compiled schedule
    /// under a cost model derived from the same trace.
    pub fn bubble_report(&self, trace: &StepTrace) -> crate::BubbleReport {
        crate::observe::bubble_report(trace, &self.schedule)
    }

    /// The cross-step metrics registry: step timings, allocator
    /// counters, failure/retry counts, measured bubble fraction (see
    /// `docs/observability.md` for the catalog).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The pipeline schedule this trainer was compiled for.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Reads the current (updated) parameter values back from the actors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] on runtime failure.
    pub fn params(&self) -> Result<Vec<Tensor>, CoreError> {
        self.param_read
            .lock()
            .unwrap()
            .iter()
            .map(|&(a, b)| {
                self.runtime
                    .read_buffer(self.raw_actor(0, a, 0), b)
                    .map_err(CoreError::from)
            })
            .collect()
    }

    /// Number of microbatches per step — the **global** batch size in
    /// microbatches. Under data parallelism this is
    /// `dp_degree() × schedule.n_mubatches()`; each replica executes
    /// `schedule.n_mubatches()` of them.
    pub fn n_mubatches(&self) -> usize {
        self.n_mubatches
    }

    /// The compiled tensor-parallel degree (1 for pure pipeline
    /// parallelism).
    pub fn tp_degree(&self) -> usize {
        self.tp.degree()
    }

    /// The compiled data-parallel degree (1 for an unreplicated
    /// pipeline).
    pub fn dp_degree(&self) -> usize {
        self.dp.replicas()
    }

    /// Whether optimizer state is ZeRO-1-sharded over the DP axis.
    pub fn zero1(&self) -> bool {
        self.zero1
    }

    /// Shapes of the model parameters.
    pub fn param_shapes(&self) -> &[Shape] {
        &self.param_shapes
    }

    /// The underlying runtime (for program inspection in tests).
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Saves the full training state (parameters, then optimizer
    /// moments) as a checkpoint stream.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Runtime`] if state cannot be read back, or
    /// [`CoreError::BadInput`] wrapping I/O failures.
    pub fn save_checkpoint(&self, w: impl std::io::Write) -> Result<(), CoreError> {
        let tensors = self.capture_state()?;
        crate::checkpoint::save_tensors(w, &tensors)
            .map_err(|e| CoreError::BadInput(format!("checkpoint write failed: {e}")))
    }

    /// Restores training state from a checkpoint produced by
    /// [`Trainer::save_checkpoint`] on an identically-compiled trainer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadInput`] for malformed or mismatched
    /// checkpoints, or a runtime error.
    pub fn restore_checkpoint(&self, r: impl std::io::Read) -> Result<(), CoreError> {
        let tensors = crate::checkpoint::load_tensors(r)
            .map_err(|e| CoreError::BadInput(format!("checkpoint read failed: {e}")))?;
        self.adopt_state(tensors)
    }

    /// Validates a freshly loaded training state against the trainer's
    /// shapes, re-places it fleet-wide, and makes it the new recovery
    /// restore point.
    fn adopt_state(&self, tensors: Vec<Tensor>) -> Result<(), CoreError> {
        let n_states = self.state_init.lock().unwrap().len();
        if tensors.len() != self.n_params + n_states {
            return Err(CoreError::BadInput(format!(
                "checkpoint has {} tensors, trainer expects {}",
                tensors.len(),
                self.n_params + n_states
            )));
        }
        let (_, states) = tensors.split_at(self.n_params);
        for ((_, _, shape), t) in self.state_init.lock().unwrap().iter().zip(states) {
            if t.shape() != shape {
                return Err(CoreError::BadInput(format!(
                    "optimizer state shape mismatch: {} vs {}",
                    t.shape(),
                    shape
                )));
            }
        }
        self.restore_state(&tensors)?;
        // The checkpoint becomes the new recovery restore point.
        *self.snapshot.lock().unwrap() = Some(tensors);
        Ok(())
    }
}

/// The paper's `RemoteMesh` front door: a set of actors, each standing
/// for an SPMD group of devices.
///
/// **Substitution note:** on real hardware each actor is a Ray worker
/// driving `spmd_shape` GPUs through XLA; here each actor is a thread
/// executing the logical (unsharded) computation with the CPU
/// interpreter, while `raxpp-mesh`/`raxpp-simcluster` model the intra-
/// actor SPMD behaviour (local shapes, collectives, timing) analytically.
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
