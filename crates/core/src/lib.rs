//! `raxpp-core` — RaxPP: **MPMD pipeline parallelism for deep-learning
//! training in Rust**, a from-scratch reproduction of *Scaling Deep
//! Learning Training with MPMD Pipeline Parallelism* (JaxPP,
//! MLSys 2025).
//!
//! The crate is the user-facing facade over the full stack:
//!
//! * trace a training step with `pipeline_yield` stage markers
//!   (`raxpp-ir`),
//! * pick or hand-write a pipeline schedule (`raxpp-sched`),
//! * [`compile_train_step`] / [`RemoteMesh::distributed`] partitions the
//!   graph into stages, differentiates them, unrolls the
//!   gradient-accumulation loop, infers all sends/receives, appends the
//!   optimizer, and fuses everything into one instruction stream per
//!   actor (`raxpp-taskgraph`),
//! * the [`Trainer`] drives the threaded single-controller MPMD runtime
//!   (`raxpp-runtime`).
//!
//! The paper's *evaluation* (Table 1, Figures 6-10) is a model of a
//! cluster this crate never touches; it lives in `raxpp-simcluster`.
//!
//! # Example: train a 2-stage MLP with 1F1B
//!
//! ```
//! use raxpp_core::{compile_train_step, CompileOptions, Optimizer};
//! use raxpp_ir::{Tensor, TraceCtx};
//! use raxpp_sched::one_f1b;
//!
//! // Trace: loss = 0.5 * Σ (tanh(x@w1) @ w2)², two stages.
//! let ctx = TraceCtx::new();
//! let w1 = ctx.input([4, 4]);
//! let w2 = ctx.input([4, 4]);
//! let x = ctx.input([2, 4]);
//! let h = ctx.pipeline_yield(&x.matmul(&w1)?.tanh());
//! let y = h.matmul(&w2)?;
//! let loss = y.mul(&y)?.sum().scale(0.5);
//! let jaxpr = ctx.finish(&[loss])?;
//!
//! let schedule = one_f1b(2, 4)?;
//! let trainer = compile_train_step(
//!     &jaxpr, 2, &schedule, Optimizer::Sgd { lr: 0.05 }, CompileOptions::default(),
//! )?;
//! trainer.init(&[Tensor::eye(4), Tensor::eye(4)])?;
//! let data = vec![(0..4).map(|i| Tensor::full([2, 4], 0.1 * i as f32)).collect()];
//! let r1 = trainer.step(&data)?;
//! let r2 = trainer.step(&data)?;
//! assert!(r2.mean_loss < r1.mean_loss); // SGD made progress
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

// Compile-and-run the code blocks of the parallelism guide as doctests,
// so `docs/parallelism.md` can never drift from the API it documents.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/parallelism.md")]
mod doc_parallelism {}

// Same treatment for the determinism contract: its identity proofs and
// the ZeRO-1-vs-plain-DP bitwise claim execute on every doc test run.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/determinism.md")]
mod doc_determinism {}

pub mod checkpoint;
mod compile;
mod fleet;
mod forward;
mod observe;
mod optimizer;
mod trainer;

pub use checkpoint::CheckpointManager;
pub use compile::{compile_worker_program, CompileOptions, CoreError, DpConfig, TpConfig};
pub use forward::{compile_forward_step, ForwardOptions, ForwardStep};
pub use observe::{bubble_report, BubbleReport, StageReport};
pub use optimizer::Optimizer;
pub use trainer::{
    compile_train_step, compile_train_step_on, CheckpointPolicy, RemoteMesh, RetryPolicy,
    StepResult, Trainer,
};
