//! Shared helpers for the integration tests in `tests/tests/`.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

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
