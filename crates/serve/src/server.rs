//! The serving front-end: request admission, weight swaps, shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use raxpp_core::ForwardStep;
use raxpp_ir::{Shape, Tensor};
use raxpp_runtime::{Counter, Metrics, StepTrace};

use crate::engine::Engine;
use crate::{ServeConfig, ServeError, Ticket};

/// One queued request, owned by the engine from admission to reply.
pub(crate) struct Request {
    pub(crate) id: u64,
    /// One tensor per data input, shaped like one microbatch (one
    /// pipeline slot).
    pub(crate) inputs: Vec<Tensor>,
    pub(crate) enqueued: Instant,
    pub(crate) reply: mpsc::Sender<Result<Vec<Tensor>, ServeError>>,
}

/// Engine mailbox traffic. Requests and weight swaps ride one channel,
/// so a swap is *ordered* with respect to dispatches: the engine
/// applies it between two forwards, never inside one.
pub(crate) enum Msg {
    Request(Request),
    Swap {
        params: Vec<Tensor>,
        reply: mpsc::Sender<Result<(), ServeError>>,
    },
    SwapCheckpoint {
        dir: PathBuf,
        reply: mpsc::Sender<Result<Option<u64>, ServeError>>,
    },
    Shutdown,
}

/// A running serving tier: a single engine thread that owns a
/// [`ForwardStep`] and continuously batches admitted requests into its
/// pipeline slots.
///
/// `Server` is `Sync`: any number of client threads may
/// [`Server::submit`] concurrently (the closed-loop bench does exactly
/// that). Dropping the server shuts the engine down; queued requests
/// are answered with [`ServeError::ShuttingDown`].
#[derive(Debug)]
pub struct Server {
    tx: mpsc::Sender<Msg>,
    engine: Option<JoinHandle<ForwardStep>>,
    queue_depth: Arc<AtomicUsize>,
    last_trace: Arc<Mutex<Option<StepTrace>>>,
    next_id: AtomicU64,
    n_slots: usize,
    n_data_inputs: usize,
    data_shapes: Vec<Shape>,
    metrics: Metrics,
}

impl Server {
    /// Starts the engine thread over a compiled, launched forward step.
    ///
    /// The step's parameters need not be loaded yet — but every
    /// dispatch before the first [`Server::swap_weights`] /
    /// [`Server::load_latest_checkpoint`] (or a pre-`start`
    /// [`ForwardStep::load_params`]) will fail with
    /// [`ServeError::Dispatch`].
    pub fn start(step: ForwardStep, config: ServeConfig) -> Server {
        let (tx, rx) = mpsc::channel();
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let last_trace = Arc::new(Mutex::new(None));
        let n_slots = step.n_mubatches();
        let n_data_inputs = step.n_data_inputs();
        let data_shapes = step.data_shapes().to_vec();
        let metrics = step.metrics().clone();
        let engine = Engine::new(
            step,
            config,
            rx,
            Arc::clone(&queue_depth),
            Arc::clone(&last_trace),
        );
        let handle = std::thread::Builder::new()
            .name("raxpp-serve".into())
            .spawn(move || engine.run())
            .expect("spawning the serve engine thread failed");
        Server {
            tx,
            engine: Some(handle),
            queue_depth,
            last_trace,
            next_id: AtomicU64::new(0),
            n_slots,
            n_data_inputs,
            data_shapes,
            metrics,
        }
    }

    /// Admits one request — one pipeline slot's worth of data: one
    /// tensor per data input, shaped like a single microbatch — and
    /// returns a [`Ticket`] for its outputs.
    ///
    /// The request joins the dispatch currently being formed (or opens
    /// the next one when that dispatch is full) and is answered when
    /// its dispatch completes. A dispatch launches when it is full, or
    /// when the mailbox is empty and its oldest request has waited
    /// [`ServeConfig::max_wait`]; so the reply arrives after the
    /// dispatches queued ahead of this request, plus at most `max_wait`,
    /// plus one forward step.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on input count/shape mismatch (the
    /// request is not enqueued); [`ServeError::ShuttingDown`] when the
    /// engine is gone.
    pub fn submit(&self, inputs: Vec<Tensor>) -> Result<Ticket, ServeError> {
        if inputs.len() != self.n_data_inputs {
            return Err(ServeError::BadRequest(format!(
                "expected {} data inputs, got {}",
                self.n_data_inputs,
                inputs.len()
            )));
        }
        for (i, t) in inputs.iter().enumerate() {
            if t.shape() != &self.data_shapes[i] {
                return Err(ServeError::BadRequest(format!(
                    "data input {i} shape mismatch: {} vs {}",
                    t.shape(),
                    self.data_shapes[i]
                )));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = mpsc::channel();
        let req = Request {
            id,
            inputs,
            enqueued: Instant::now(),
            reply: reply_tx,
        };
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc(Counter::ServeRequestsTotal, 1);
        if self.tx.send(Msg::Request(req)).is_err() {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        Ok(Ticket { id, rx: reply_rx })
    }

    /// Submits one request and blocks for its outputs —
    /// [`Server::submit`] + [`Ticket::wait`].
    ///
    /// # Errors
    ///
    /// As [`Server::submit`] and [`Ticket::wait`].
    pub fn infer(&self, inputs: Vec<Tensor>) -> Result<Vec<Tensor>, ServeError> {
        self.submit(inputs)?.wait()
    }

    /// Installs a new parameter generation, applied by the engine
    /// strictly between dispatches; blocks until it is live (or
    /// rejected). Requests dispatched before the swap keep the old
    /// generation, requests dispatched after read the new one — no
    /// request mixes the two.
    ///
    /// # Errors
    ///
    /// [`ServeError::Swap`] on count/shape mismatch or placement
    /// failure (the previous generation stays live);
    /// [`ServeError::ShuttingDown`] when the engine is gone.
    pub fn swap_weights(&self, params: Vec<Tensor>) -> Result<(), ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Msg::Swap {
                params,
                reply: reply_tx,
            })
            .map_err(|_| ServeError::ShuttingDown)?;
        reply_rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Swaps in the newest valid checkpoint generation under `dir`
    /// (see [`ForwardStep::load_latest_checkpoint`]); same between-
    /// dispatch semantics as [`Server::swap_weights`]. Returns the
    /// loaded generation's training step, or `None` when `dir` holds
    /// no valid generation (weights unchanged).
    ///
    /// # Errors
    ///
    /// [`ServeError::Swap`] for unreadable/mis-shaped checkpoints;
    /// [`ServeError::ShuttingDown`] when the engine is gone.
    pub fn load_latest_checkpoint(
        &self,
        dir: impl Into<PathBuf>,
    ) -> Result<Option<u64>, ServeError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Msg::SwapCheckpoint {
                dir: dir.into(),
                reply: reply_tx,
            })
            .map_err(|_| ServeError::ShuttingDown)?;
        reply_rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Pipeline slots per dispatch (`schedule.n_mubatches()` of the
    /// underlying step) — the maximum batch one forward serves.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// Requests admitted but not yet answered.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// The shared metrics registry (the underlying step's): serving
    /// counters and gauges (`serve_*`) land next to the forward-step
    /// metrics — `docs/observability.md` has the catalog.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Takes the most recent traced dispatch, if tracing was enabled
    /// on the step's runtime ([`raxpp_runtime::Runtime::set_tracing`]
    /// before [`Server::start`]): the pipeline actors' spans plus the
    /// appended pseudo-actor track of `"serve"` request spans (trace
    /// schema v7).
    pub fn take_step_trace(&self) -> Option<StepTrace> {
        self.last_trace.lock().unwrap().take()
    }

    /// Stops the engine — queued requests are answered with
    /// [`ServeError::ShuttingDown`], a partially formed dispatch is
    /// *not* launched — and returns the [`ForwardStep`], weights still
    /// loaded, ready to serve again or to hand back to training
    /// tooling.
    pub fn shutdown(mut self) -> ForwardStep {
        let _ = self.tx.send(Msg::Shutdown);
        self.engine
            .take()
            .expect("engine already joined")
            .join()
            .expect("the serve engine thread panicked")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.engine.take() {
            let _ = self.tx.send(Msg::Shutdown);
            let _ = handle.join();
        }
    }
}
