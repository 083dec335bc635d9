//! Shared helpers for the integration tests in `tests/tests/`.

use std::collections::HashMap;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use raxpp_sched::UniformCost;
use raxpp_taskgraph::{BufferId, Instr, MpmdProgram, TaskLabel};

/// Default watchdog budget per test body, overridable with
/// `RAXPP_TEST_TIMEOUT_SECS`.
const DEFAULT_TEST_TIMEOUT_SECS: u64 = 120;

/// Runs a test body under a watchdog: if it does not finish within
/// `RAXPP_TEST_TIMEOUT_SECS` (default 120 s), the test fails immediately
/// instead of hanging the whole suite — a reintroduced runtime deadlock
/// shows up as a fast, named failure in `scripts/verify.sh`.
///
/// Panics from the body are propagated unchanged, so assertion messages
/// stay intact.
pub fn with_watchdog<F>(name: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let timeout = std::env::var("RAXPP_TEST_TIMEOUT_SECS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(DEFAULT_TEST_TIMEOUT_SECS);
    let (done_tx, done_rx) = channel::<()>();
    let handle = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            f();
            let _ = done_tx.send(());
        })
        .expect("spawn watchdog thread");
    match done_rx.recv_timeout(Duration::from_secs(timeout)) {
        Ok(()) => {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Disconnected) => {
            // The body panicked (sender dropped without sending).
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            // The body thread is abandoned; the process stays alive until
            // the harness exits, but this test fails *now*. Name the
            // fabric under test: a hang that only reproduces with
            // `RAXPP_TRANSPORT=socket` is a wire bug, not a runtime bug.
            let transport =
                std::env::var("RAXPP_TRANSPORT").unwrap_or_else(|_| "mpsc (default)".into());
            panic!(
                "watchdog: test {name:?} did not finish within {timeout}s \
                 (deadlock? transport={transport})"
            );
        }
    }
}

/// Deterministic unit-cost replay of compiled streams: every actor walks
/// its stream in order; a `Run` costs `cost.fwd` / `bwd` / `wgrad` by its
/// [`TaskLabel`] and nothing otherwise; a `Recv` blocks until the
/// matching `Send` has been walked and completes at the later of the two
/// clocks (plus `cost.p2p`). Returns the makespan — what the step would
/// take if instruction placement were the only source of idle time, to be
/// held against `raxpp_sched::simulate` on the schedule the streams were
/// compiled from.
///
/// # Panics
///
/// Panics when the streams deadlock (a `Recv` whose `Send` is never
/// reached).
pub fn replay_makespan(program: &MpmdProgram, cost: UniformCost) -> f64 {
    let n = program.n_actors();
    let mut clock = vec![0.0f64; n];
    let mut cursor = vec![0usize; n];
    let mut sent: HashMap<(usize, usize, BufferId), f64> = HashMap::new();
    loop {
        let mut progressed = false;
        for a in 0..n {
            while let Some(instr) = program.actors[a].get(cursor[a]) {
                match instr {
                    Instr::Run { label, .. } => {
                        clock[a] += match label {
                            TaskLabel::Fwd { .. } => cost.fwd,
                            TaskLabel::Bwd { .. } => cost.bwd,
                            TaskLabel::BwdW { .. } => cost.wgrad,
                            _ => 0.0,
                        }
                    }
                    Instr::Send { buf, to } => {
                        sent.insert((a, *to, *buf), clock[a]);
                    }
                    Instr::Recv { src, from, .. } => match sent.get(&(*from, a, *src)) {
                        Some(&at) => clock[a] = clock[a].max(at + cost.p2p),
                        None => break,
                    },
                    _ => {}
                }
                cursor[a] += 1;
                progressed = true;
            }
        }
        if (0..n).all(|a| cursor[a] == program.actors[a].len()) {
            return clock.into_iter().fold(0.0, f64::max);
        }
        assert!(progressed, "replay deadlocked at cursors {cursor:?}");
    }
}
