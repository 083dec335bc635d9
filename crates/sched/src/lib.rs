//! `raxpp-sched` — pipeline schedules for MPMD pipeline parallelism.
//!
//! A [`Schedule`] is, per actor, the ordered list of forward/backward
//! stage computations it executes during one gradient-accumulation loop —
//! exactly the user-facing data structure of paper §4.2. The crate ships
//! the three classic schedules ([`gpipe`], [`one_f1b`],
//! [`interleaved_1f1b`]), validation for arbitrary user-defined
//! schedules, the one timeline engine every "how long does this take"
//! question lowers into ([`timeline`]; [`simulate`] is its uniform-cost
//! front end, [`time_schedule`] the one for any other [`CostModel`]),
//! and ASCII timeline rendering ([`render_timeline`], Figure 2).
//!
//! # Example
//!
//! ```
//! use raxpp_sched::{one_f1b, simulate, UniformCost};
//!
//! let schedule = one_f1b(4, 8)?;
//! let sim = simulate(&schedule, UniformCost::default())?;
//! assert!(sim.bubble_ratio < 0.5);
//! # Ok::<(), raxpp_sched::ScheduleError>(())
//! ```

#![deny(missing_docs)]

mod analysis;
mod builders;
mod dp;
mod schedule;
mod task;
pub mod timeline;
mod tp;
mod viz;

pub use analysis::{
    ideal_bubble_ratio, simulate, time_schedule, SimResult, TaskTimeline, TimelineEntry,
    UniformCost,
};
pub use builders::{gpipe, interleaved_1f1b, one_f1b, zero_bubble_h1};
pub use dp::DpMap;
pub use schedule::{Schedule, ScheduleError};
pub use task::{Dir, Task};
pub use timeline::{CostModel, Transfer};
pub use tp::TpMap;
pub use viz::{render_timeline, schedule_dot};
