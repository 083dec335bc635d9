//! Runtime error type.

use std::fmt;

/// Error raised by the MPMD runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An actor's thread terminated or its channel closed.
    ActorDied {
        /// The actor that died.
        actor: usize,
    },
    /// A task failed to execute on an actor.
    Exec {
        /// The actor that failed.
        actor: usize,
        /// Failure description.
        message: String,
    },
    /// The driver was given inputs inconsistent with the program.
    BadInput(String),
    /// An actor failed to reply within the driver's step timeout
    /// ([`crate::Runtime::set_step_timeout`]); the step was aborted.
    Timeout {
        /// The actor that did not reply.
        actor: usize,
    },
    /// Elastic rebalancing failed: no survivor remains, or the folded
    /// schedule did not compile into a program for the surviving
    /// actors.
    Rebalance(String),
}

impl RuntimeError {
    /// Whether `Runtime::recover()` plus a retry can plausibly clear
    /// this error: actor deaths, task failures, and timeouts are
    /// recoverable; caller input errors and failed rebalances are not.
    pub fn is_recoverable(&self) -> bool {
        !matches!(self, RuntimeError::BadInput(_) | RuntimeError::Rebalance(_))
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ActorDied { actor } => write!(f, "actor {actor} died"),
            RuntimeError::Exec { actor, message } => {
                write!(f, "execution failed on actor {actor}: {message}")
            }
            RuntimeError::BadInput(m) => write!(f, "{m}"),
            RuntimeError::Timeout { actor } => {
                write!(f, "actor {actor} did not reply before the step timeout")
            }
            RuntimeError::Rebalance(m) => write!(f, "rebalance failed: {m}"),
        }
    }
}

impl std::error::Error for RuntimeError {}
