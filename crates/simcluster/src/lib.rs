//! `raxpp-simcluster` — a calibrated discrete-event performance model of
//! the paper's evaluation cluster (DGX H100 / InfiniBand NDR400).
//!
//! Real H100 pods are not available here, so the paper's performance
//! experiments run against this simulator instead: pipeline schedules
//! from `raxpp-sched` execute over a machine model with per-task kernel
//! efficiency, tensor-parallel collectives, asynchronous (or synchronous)
//! inter-node P2P with link serialization, per-task dispatch overhead, a
//! device-memory model with automatic rematerialization selection, and
//! data-parallel gradient reduction. Absolute times are approximate by
//! construction; the orderings, crossovers, and ratios of Table 1 and
//! Figures 6-10 are what the downstream benchmarks verify.

#![warn(missing_docs)]

mod collective;
mod config;
mod sim;
mod specs;
mod trace;
mod tuner;

pub use collective::{collective_time, Collective, LinkSpec};
pub use config::{ParallelConfig, ScheduleKind};
pub use sim::{simulate_pipeline, Breakdown, SimError, SimEvent, SimOptions, StepReport};
pub use specs::{ClusterSpec, EfficiencyModel, GpuSpec};
pub use trace::{chrome_trace_json, predicted_chrome_trace_json, write_chrome_trace};
pub use tuner::{tune, TunedConfig, TunerOptions};
