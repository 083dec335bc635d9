//! Shared helpers for the integration tests in `tests/tests/`.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

use raxpp_ir::rng::{Rng, StdRng};
use raxpp_ir::{Jaxpr, TraceCtx, TracedTensor};
use raxpp_sched::{gpipe, interleaved_1f1b, one_f1b, zero_bubble_h1, Dir, Schedule, Task};

/// Watchdog budget per test body.
const TEST_TIMEOUT_SECS: u64 = 120;

/// Runs a test body under a watchdog: if it does not finish within
/// 120 s, the test fails immediately instead of hanging the whole
/// suite — a reintroduced runtime deadlock shows up as a fast, named
/// failure in `scripts/verify.sh`.
///
/// Panics from the body are propagated unchanged, so assertion messages
/// stay intact.
pub fn with_watchdog<F>(name: &str, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (done_tx, done_rx) = channel::<()>();
    let handle = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            f();
            let _ = done_tx.send(());
        })
        .expect("spawn watchdog thread");
    match done_rx.recv_timeout(Duration::from_secs(TEST_TIMEOUT_SECS)) {
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
                "watchdog: test {name:?} did not finish within {TEST_TIMEOUT_SECS}s \
                 (deadlock? transport={transport})"
            );
        }
    }
}

/// The shape of a small pipeline model: a chain of tanh layers split
/// into stages, optionally with the first weight tied to the last layer
/// and a skip connection from the first layer's output to the loss.
#[derive(Debug, Clone)]
pub struct RandomModel {
    pub layers: usize,
    pub n_stages: usize,
    pub share_first_last: bool,
    pub skip_from_first: bool,
}

/// Traces `model` at the given layer width (microbatches are
/// `[2, width]`); returns the jaxpr and its parameter count.
pub fn trace(model: &RandomModel, width: usize) -> (Jaxpr, usize) {
    let ctx = TraceCtx::new();
    let n_weights = if model.share_first_last {
        model.layers - 1
    } else {
        model.layers
    };
    let ws: Vec<TracedTensor> = (0..n_weights).map(|_| ctx.input([width, width])).collect();
    let x = ctx.input([2, width]);
    let mut h = x;
    let mut first_out = None;
    let per_stage = model.layers / model.n_stages;
    let extra = model.layers % model.n_stages;
    let mut boundaries = Vec::new();
    let mut acc = 0;
    for s in 0..model.n_stages - 1 {
        acc += per_stage + usize::from(s < extra);
        boundaries.push(acc);
    }
    for i in 0..model.layers {
        let w = if model.share_first_last && i == model.layers - 1 {
            &ws[0] // tied weight
        } else {
            &ws[i.min(n_weights - 1)]
        };
        h = h.matmul(w).unwrap().tanh();
        if i == 0 {
            first_out = Some(h.clone());
        }
        if boundaries.contains(&(i + 1)) {
            h = ctx.pipeline_yield(&h);
        }
    }
    if model.skip_from_first {
        h = h.add(first_out.as_ref().unwrap()).unwrap();
    }
    let loss = h.mul(&h).unwrap().sum().scale(0.5);
    (ctx.finish(&[loss]).unwrap(), n_weights)
}

/// Every built-in schedule that fits `n_stages` stages and `n_mb`
/// microbatches.
pub fn schedules_for(n_stages: usize, n_mb: usize) -> Vec<Schedule> {
    let mut out = vec![
        gpipe(n_stages, n_mb).unwrap(),
        one_f1b(n_stages, n_mb).unwrap(),
        zero_bubble_h1(n_stages, n_mb).unwrap(),
    ];
    // Interleaved variant when the stage count splits over fewer actors.
    if n_stages.is_multiple_of(2) && n_mb.is_multiple_of(2) {
        out.push(interleaved_1f1b(2, n_mb, n_stages / 2).unwrap());
    }
    out
}

/// The assignment folding actor `k + 1` of `n` onto actor `k`.
pub fn adjacent_fold(n: usize, k: usize) -> Vec<usize> {
    (0..n).map(|a| if a == k + 1 { k } else { a }).collect()
}

/// A random legal schedule nobody wrote: 2–4 actors, up to two stages
/// more than actors placed at random (every actor owns at least one),
/// 2–4 microbatches, combined or split backward, and per actor a random
/// linear extension of the [`Task::deps`] order — tasks are dealt out in
/// a random topological order, each to the actor owning its stage.
pub fn random_schedule(rng: &mut StdRng) -> Schedule {
    let n_actors = rng.gen_range(2usize..5);
    let n_stages = n_actors + rng.gen_range(0usize..3);
    let n_mb = rng.gen_range(2usize..5);
    let split = rng.next_u64().is_multiple_of(2);
    // The first `n_actors` stages go to distinct actors in random
    // order (a Fisher–Yates shuffle), the rest anywhere.
    let mut stage_actor: Vec<usize> = (0..n_actors).collect();
    for i in (1..n_actors).rev() {
        stage_actor.swap(i, rng.gen_range(0..i + 1));
    }
    stage_actor.extend((n_actors..n_stages).map(|_| rng.gen_range(0..n_actors)));

    let dirs: &[Dir] = if split {
        &[Dir::Fwd, Dir::Bwd, Dir::BwdW]
    } else {
        &[Dir::Fwd, Dir::Bwd]
    };
    let mut todo: Vec<Task> = Vec::new();
    for mubatch in 0..n_mb {
        for stage in 0..n_stages {
            todo.extend(dirs.iter().map(|&dir| Task {
                mubatch,
                stage,
                dir,
            }));
        }
    }
    let mut done: Vec<Task> = Vec::new();
    let mut actors: Vec<Vec<Task>> = vec![Vec::new(); n_actors];
    while !todo.is_empty() {
        let ready: Vec<usize> = (0..todo.len())
            .filter(|&i| todo[i].deps(n_stages).iter().all(|d| done.contains(d)))
            .collect();
        let t = todo.swap_remove(ready[rng.gen_range(0..ready.len())]);
        actors[stage_actor[t.stage]].push(t);
        done.push(t);
    }
    Schedule::new("random", n_stages, n_mb, actors).expect("a linear extension is legal")
}
