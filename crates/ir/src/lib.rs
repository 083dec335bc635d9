//! `raxpp-ir` — the tensor IR underlying RaxPP, a Rust reproduction of
//! JaxPP (*Scaling Deep Learning Training with MPMD Pipeline Parallelism*,
//! MLSys 2025).
//!
//! The crate provides the pieces JAX provides to JaxPP:
//!
//! * a [`Tensor`] type with reference CPU kernels,
//! * a traced, `Jaxpr`-style SSA dataflow graph ([`Jaxpr`], [`TraceCtx`]),
//! * reverse-mode autodiff ([`grad`], [`value_and_grad`], [`linearize`]),
//! * a CPU interpreter ([`eval`]),
//! * the [`Prim::PipelineYield`] stage marker that the pipeline
//!   partitioner in `raxpp-taskgraph` consumes (paper §3.2).
//!
//! # Example: trace, differentiate, evaluate
//!
//! ```
//! use raxpp_ir::{eval, grad, Tensor, TraceCtx};
//!
//! let ctx = TraceCtx::new();
//! let x = ctx.input([2, 2]);
//! let loss = x.mul(&x)?.sum();
//! let jaxpr = ctx.finish(&[loss])?;
//!
//! let g = grad(&jaxpr)?;
//! let out = eval(&g, &[Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0])?])?;
//! assert_eq!(out[1].data(), &[2.0, 4.0, 6.0, 8.0]); // d(sum x²)/dx = 2x
//! # Ok::<(), raxpp_ir::IrError>(())
//! ```

#![warn(missing_docs)]

mod autodiff;
pub mod bytes;
mod dtype;
mod error;
mod graph;
mod interp;
pub mod kernels;
mod optimize;
mod prim;
pub mod rng;
mod shape;
mod tensor;
pub mod testing;
mod trace;

pub use autodiff::{grad, linearize, value_and_grad, Linearized};
pub use dtype::DType;
pub use error::{IrError, Result};
pub use graph::{Eqn, GraphBuilder, Jaxpr, VarId};
pub use interp::{
    eval, eval_prim, eval_reference, eval_with_stats, eval_with_stats_hooked, EvalHook, EvalStats,
};
pub use kernels::{num_threads, set_num_threads};
pub use optimize::{optimize, OptimizeStats};
pub use prim::{Prim, YieldId};
pub use shape::Shape;
pub use tensor::{gelu, gelu_grad, Tensor};
pub use trace::{TraceCtx, TracedTensor};
