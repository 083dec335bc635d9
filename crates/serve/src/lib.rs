//! `raxpp-serve` — pipelined inference serving with **continuous
//! batching** on the MPMD runtime.
//!
//! Training and serving share one compiled artifact: a
//! [`ForwardStep`] is the forward half of the training step —
//! extracted by `raxpp_taskgraph::forward_project`, so its jaxprs and
//! buffers are byte-for-byte the ones training executes — bound to a
//! live actor fleet. This crate adds the request plane on top:
//!
//! * **Continuous batching at step granularity.** A forward dispatch
//!   always executes `schedule.n_mubatches()` pipeline slots; an
//!   arriving request takes the next free slot of the dispatch being
//!   formed. Queued requests are admitted
//!   before the clock is consulted, so a backlog fills every slot; the
//!   dispatch launches the moment every slot is taken, or when the
//!   mailbox is empty and the admission deadline
//!   ([`ServeConfig::max_wait`]) of its oldest request has passed —
//!   only then are the remaining slots padded, and their outputs are
//!   discarded.
//! * **Zero-downtime weight swaps.** [`Server::swap_weights`] /
//!   [`Server::load_latest_checkpoint`] install a new parameter
//!   generation strictly *between* dispatches: the engine is one
//!   thread, so a dispatch in flight keeps its generation and the next
//!   one reads the new buffers. No request ever mixes generations.
//! * **Degraded-mode serving.** A failed dispatch errors its
//!   in-flight requests (bounded — nobody waits forever), then the
//!   engine respawns dead actors ([`ForwardStep::recover`]) or, after
//!   [`ServeConfig::rebalance_after`] consecutive failures, folds the
//!   dead actors' stages onto survivors ([`ForwardStep::rebalance`])
//!   and keeps answering from the same weight generation.
//!
//! Request latency (`serve_p50_us`/`serve_p99_us`), queue depth, and
//! throughput counters land in the same metrics registry the trainer
//! uses, and traced dispatches carry `"serve"` spans on a pseudo-actor
//! track (trace schema v7) — see `docs/observability.md`.
//!
//! The traced function is the *training* jaxpr — first output a
//! scalar loss, predictions as auxiliary outputs — because the
//! compiler's front half (stage partitioning, per-stage
//! differentiation, unrolling) runs before the forward projection
//! strips the backward tasks. Serve the model you train; each request
//! gets every traced output for its slot.
//!
//! # Example: serve a 2-stage MLP
//!
//! ```
//! use raxpp_ir::{Tensor, TraceCtx};
//! use raxpp_sched::gpipe;
//! use raxpp_serve::{compile_forward_step, ForwardOptions, Server, ServeConfig};
//!
//! // The training trace: loss first, the prediction as aux output.
//! let ctx = TraceCtx::new();
//! let w1 = ctx.input([4, 4]);
//! let w2 = ctx.input([4, 4]);
//! let x = ctx.input([2, 4]);
//! let h = ctx.pipeline_yield(&x.matmul(&w1)?.tanh());
//! let y = h.matmul(&w2)?;
//! let loss = y.mul(&y)?.sum().scale(0.5);
//! let jaxpr = ctx.finish(&[loss, y])?;
//!
//! let step = compile_forward_step(&jaxpr, 2, &gpipe(2, 2)?, ForwardOptions::default())?;
//! step.load_params(&[Tensor::eye(4), Tensor::eye(4)])?;
//! let server = Server::start(step, ServeConfig::default());
//!
//! // Two concurrent requests fill the two pipeline slots -> one dispatch.
//! let t0 = server.submit(vec![Tensor::full([2, 4], 0.1)])?;
//! let t1 = server.submit(vec![Tensor::full([2, 4], 0.2)])?;
//! let out = t0.wait()?; // [loss, y] for request 0's slot
//! assert_eq!(out[1].shape(), &raxpp_ir::Shape::from([2, 4]));
//! t1.wait()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

// Compile-and-run the code blocks of the serving guide as doctests, so
// `docs/serving.md` can never drift from the API it documents (same
// treatment as `docs/parallelism.md` / `docs/determinism.md` in
// `raxpp-core`).
#[cfg(doctest)]
#[doc = include_str!("../../../docs/serving.md")]
mod doc_serving {}

mod engine;
mod server;
mod ticket;

pub use server::Server;
pub use ticket::Ticket;

// The compile-side serving API lives in `raxpp-core` (it is the
// forward projection of `compile_train_step`); re-exported here so a
// serving binary needs only this crate.
pub use raxpp_core::{compile_forward_step, ForwardOptions, ForwardStep};

use std::fmt;
use std::time::Duration;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission deadline: how long the oldest queued request may wait
    /// for the dispatch to fill before the engine pads the remaining
    /// slots and launches anyway. It bounds the wait for *future*
    /// arrivals only — requests already queued are admitted first.
    /// Lower bounds tail latency under trickle load; higher improves
    /// slot utilization. Default 2 ms.
    pub max_wait: Duration,
    /// After this many *consecutive* failed dispatches with a known
    /// dead actor, fold that actor's stages onto survivors
    /// ([`ForwardStep::rebalance`]) instead of respawning it
    /// ([`ForwardStep::recover`]). `None` (the default) always
    /// respawns.
    pub rebalance_after: Option<u32>,
    /// Number of most-recent request latencies retained for the
    /// `serve_p50_us` / `serve_p99_us` gauges. Default 1024.
    pub latency_window: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_wait: Duration::from_millis(2),
            rebalance_after: None,
            latency_window: 1024,
        }
    }
}

/// Errors surfaced to serving clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request was malformed (wrong input count or tensor shapes);
    /// nothing was enqueued.
    BadRequest(String),
    /// The dispatch carrying this request failed on the fleet. The
    /// request is *not* retried — the engine repairs the fleet and the
    /// next dispatch proceeds; the client decides whether to resubmit.
    Dispatch(String),
    /// A weight swap was rejected (shape mismatch, unreadable
    /// checkpoint, or placement failure); the previous generation
    /// stays live.
    Swap(String),
    /// The server is shutting down (or its engine is gone); the
    /// request was not served.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Dispatch(m) => write!(f, "dispatch failed: {m}"),
            ServeError::Swap(m) => write!(f, "weight swap failed: {m}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}
