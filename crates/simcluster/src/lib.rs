//! `raxpp-simcluster` — the paper's evaluation cluster (DGX H100 /
//! InfiniBand NDR400), modelled in one place.
//!
//! Real H100 pods are not available here, so the paper's performance
//! experiments run against this model instead. Everything that
//! describes it lives in this crate, which depends on `raxpp-sched`
//! alone: the workloads ([`ModelConfig`]: GPT-3 175B, Llama2 70B, with
//! their FLOPs and memory formulas), the machine ([`ClusterSpec`], every
//! calibrated constant with its provenance), the simulator
//! ([`simulate_pipeline`]: a device-memory model with automatic
//! rematerialization selection, per-task kernel efficiency and
//! tensor-parallel collectives, then the schedule walked by the one
//! timeline engine of `raxpp-sched` under the cluster's cost model —
//! per-task dispatch overhead, inter-node P2P with link serialization,
//! asynchronous or sender-blocking sends — and data-parallel gradient
//! reduction), the comparison systems of §5.2 ([`simulate_fsdp`],
//! [`SimOptions::spmd_pp`], [`SimOptions::nemo`]) and the drivers of
//! Table 1 and Figures 6-10 ([`experiments`]). Absolute times are
//! approximate by construction; the orderings, crossovers, and ratios of
//! the paper are what the tests of [`experiments`] verify.

#![warn(missing_docs)]

mod cluster_ext;
mod collective;
mod config;
pub mod experiments;
mod fsdp;
mod memory;
mod nemo;
mod sim;
mod specs;
mod spmd_pp;
mod trace;
mod tuner;

pub use cluster_ext::hierarchical_gather_time;
pub use collective::{collective_time, Collective, LinkSpec};
pub use config::{ModelConfig, ParallelConfig, ScheduleKind};
pub use fsdp::{simulate_fsdp, FsdpConfig, FsdpReport};
pub use memory::{
    activation_bytes_per_layer, remat_compute_factor, static_state_bytes, RematPolicy,
};
pub use sim::{simulate_pipeline, Breakdown, SimError, SimOptions, StepReport};
pub use specs::{ClusterSpec, EfficiencyModel, GpuSpec};
pub use trace::chrome_trace_json;
pub use tuner::{tune, TunedConfig, TunerOptions};
