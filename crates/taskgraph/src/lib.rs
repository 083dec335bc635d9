//! `raxpp-taskgraph` — the RaxPP compiler: stage partitioning, per-stage
//! differentiation, loop unrolling with automatic send/receive inference,
//! buffer-liveness deletion, and task fusion (paper §3-§4).
//!
//! Pipeline: trace a model with `pipeline_yield` markers (`raxpp-ir`) →
//! [`partition_stages`] (§3.2-3.3) → [`pipeline_model`] (per-stage
//! autodiff) → [`unroll_loop`] over a `raxpp-sched` schedule (§4.2) →
//! optional [`shard_program`] (intra-stage tensor parallelism, lowering
//! each host actor into `tp` rank actors linked by
//! [`Instr::Collective`]) → optional [`replicate_program`] (data
//! parallelism: replica pipelines linked by DP-axis gradient
//! all-reduces, with optional ZeRO-1 state sharding) → [`insert_frees`]
//! (§4.3). The result is one
//! fused instruction stream per actor ([`MpmdProgram`], §4.4) ready for
//! the `raxpp-runtime` driver.
//!
//! Serving reuses the same pipeline through [`forward_project`]: a
//! strict projection of the unrolled program onto its forward half
//! (backward/optimizer tasks, gradient traffic, and activation
//! retention stripped), which the same shard/frees passes then finish
//! into a forward-only `MpmdProgram` (`docs/serving.md`).

#![deny(missing_docs)]

mod automark;
mod expand;
mod forward;
mod model;
mod program;
mod replay;
mod replicate;
mod shard;
mod stage;
mod stats;
mod unroll;
mod verify;

pub use automark::auto_mark_stages;
pub use forward::forward_project;
pub use model::{pipeline_model, BwdOut, PipelinedModel};
pub use program::{
    ActorId, BufferId, CollectiveAxis, CollectiveKind, DpMeta, Fetch, FetchRole, InputPlacement,
    InputSource, Instr, JaxprId, MpmdProgram, TaskLabel, TpMeta,
};
pub use replay::replay;
pub use replicate::{dp_split, dp_treated, replicate_program, ReplicateError};
pub use shard::{bucket_collectives, shard_program, ShardError};
pub use stage::{partition_stages, StageFwd, StageInput, StageOutput, StagedForward};
pub use stats::{program_stats, ProgramStats};
pub use unroll::{insert_frees, unroll_loop, CompileError, CompiledLoop, UnrollOptions};
pub use verify::{verify_program, VerifyError};
