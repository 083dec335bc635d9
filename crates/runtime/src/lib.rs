//! `raxpp-runtime` — the single-controller MPMD runtime of RaxPP
//! (paper §4).
//!
//! The [`Runtime`] plays the role of JaxPP's driver process plus its Ray
//! actor fleet: it spawns one thread per actor, places parameter and data
//! buffers into per-actor object stores, dispatches each actor's fused
//! instruction stream in a single message per step (§4.4), moves
//! activations over per-pair FIFO channels with NCCL-style matching-order
//! semantics (§4.2), and honours deferred buffer deletion through the
//! pending-deletions queue (§4.3).
//!
//! The compute substrate is the `raxpp-ir` CPU interpreter, so the
//! runtime executes *real* training steps whose gradients are validated
//! against single-device autodiff; wall-clock performance at paper scale
//! is modelled separately by `raxpp-simcluster`.
//!
//! Failure is a first-class outcome: step epochs, abort broadcasts, and
//! actor respawn via [`Runtime::recover`] make any task error or actor
//! death surface as a bounded-time [`RuntimeError`] that leaves the
//! runtime reusable (see `runtime` module docs and
//! `docs/execution-backend.md` §6).
//!
//! Execution is observable: with tracing enabled
//! ([`Runtime::set_tracing`]) every actor records per-instruction
//! [`SpanEvent`]s that the driver assembles into a [`StepTrace`],
//! exportable as Chrome `trace_event` JSON; the [`Metrics`] registry
//! aggregates counters/gauges/histograms across steps, each published by
//! its typed id ([`Counter`], [`Gauge`], [`Histogram`]: the catalogue,
//! declared once) and read by name (see `docs/observability.md`).

#![deny(missing_docs)]

mod actor;
#[macro_use]
mod catalogue;
mod collective;
mod env;
mod error;
mod exec;
mod fault;
mod fold;
mod kind;
mod metrics;
mod runtime;
mod store;
mod trace;
mod transport;

pub use actor::DRIVER_PEER;
pub use error::RuntimeError;
pub use exec::{ActorProfile, StepStats};
pub use fault::Fault;
pub use kind::Kind;
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary, MetricValue, Metrics};
pub use runtime::{RebalanceReport, RecoveryReport, Runtime, StepOutputs};
pub use trace::{ActorTrace, SpanEvent, StepEvent, StepTrace, TRACE_SCHEMA_VERSION};
pub use transport::{serve_worker, TransportKind, TransportStats, WorkerConfig};
