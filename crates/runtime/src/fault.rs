//! Deterministic fault injection: the [`Fault`] vocabulary behind every
//! failure test and the failure-mode bench, and the per-instruction
//! check that fires armed faults inside an actor's stream.

use std::collections::VecDeque;

use raxpp_taskgraph::Instr;

use crate::exec::StreamFailure;

/// A deterministic, one-shot fault for failure testing: injected with
/// [`crate::Runtime::inject_fault`], consumed when it triggers.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// The actor thread exits as soon as it processes the injection —
    /// the classic "worker crashed between steps".
    DieNow,
    /// The actor thread exits just before executing instruction `n` of
    /// its next fused stream — "worker crashed mid-step".
    DieAtInstr(usize),
    /// Instruction `n` of the next stream fails with an injected task
    /// error (the actor survives).
    ErrorAtInstr(usize),
    /// The first `Run` instruction whose task label's rendering contains
    /// this substring fails with an injected task error.
    ErrorAtTask(String),
    /// kill -9 semantics, immediately: the actor vanishes without any
    /// abort broadcast or goodbye. On the in-process transport the
    /// thread exits silently; on a socket transport the endpoint is
    /// severed too; on the process backend the worker process calls
    /// `abort()`. Peers discover the death only through closed
    /// connections and the driver through the `Gone` its departure
    /// posts or heartbeat silence — always in bounded time.
    KillNow,
    /// kill -9 just before executing instruction `n` of the next fused
    /// stream — "worker SIGKILLed mid-step" (e.g. mid-collective).
    KillAtInstr(usize),
    /// Wire fault: close the established connection to `peer` before
    /// the next frame to it, forcing a transparent re-dial. Applied
    /// immediately (not queued); a documented no-op on the in-process
    /// transport, so one seeded chaos schedule drives both transports.
    DropLink {
        /// The peer whose link is dropped.
        peer: usize,
    },
    /// Wire fault: delay the next frame to `peer` by `ms` milliseconds.
    /// Bitwise-transparent (messages arrive late, never differently).
    /// Applied immediately; no-op on the in-process transport.
    DelayLink {
        /// The peer whose next frame is delayed.
        peer: usize,
        /// Delay in milliseconds.
        ms: u64,
    },
    /// Wire fault: one-way partition — outbound frames to `to` are
    /// silently discarded until recovery heals the wire
    /// (`Runtime::recover`). Partitioning the reply path toward the
    /// driver is detected by heartbeat silence and surfaced as
    /// `RuntimeError::Timeout`. Applied immediately; no-op on the
    /// in-process transport.
    Partition {
        /// The peer outbound frames are discarded toward.
        to: usize,
    },
}

/// Consults the front armed fault before instruction `idx` runs. Faults
/// are one-shot: the one that fires is popped; later injections stay
/// armed for later executions.
pub(crate) fn check_fault(
    faults: &mut VecDeque<Fault>,
    idx: usize,
    instr: &Instr,
) -> Result<(), StreamFailure> {
    let fire = match faults.front() {
        Some(Fault::DieAtInstr(at))
        | Some(Fault::ErrorAtInstr(at))
        | Some(Fault::KillAtInstr(at)) => *at == idx,
        Some(Fault::ErrorAtTask(s)) => {
            matches!(instr, Instr::Run { label, .. } if format!("{label}").contains(s.as_str()))
        }
        _ => false,
    };
    if !fire {
        return Ok(());
    }
    match faults.pop_front() {
        Some(Fault::DieAtInstr(_)) => Err(StreamFailure::Die),
        Some(Fault::KillAtInstr(_)) => Err(StreamFailure::Killed),
        Some(Fault::ErrorAtInstr(at)) => Err(StreamFailure::Error(format!(
            "injected fault at instruction {at}"
        ))),
        Some(Fault::ErrorAtTask(s)) => Err(StreamFailure::Error(format!(
            "injected fault at task matching {s:?}"
        ))),
        _ => Ok(()),
    }
}
