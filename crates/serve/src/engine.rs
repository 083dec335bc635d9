//! The single-threaded serving engine: slot packing, dispatch,
//! padding, weight swaps, and fleet repair.
//!
//! One thread owns the [`ForwardStep`] and processes its mailbox
//! strictly in order. That single-threadedness *is* the weight-swap
//! barrier: a swap message is applied between two dispatches because
//! nothing else can interleave, so a parameter generation is never
//! replaced while a forward is reading it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use raxpp_core::{CoreError, ForwardStep};
use raxpp_ir::Tensor;
use raxpp_runtime::{
    ActorTrace, Counter, Gauge, Histogram, Kind, RuntimeError, SpanEvent, StepTrace,
};
use raxpp_sched::SlotPlan;

use crate::server::{Msg, Request};
use crate::{ServeConfig, ServeError};

pub(crate) struct Engine {
    step: ForwardStep,
    cfg: ServeConfig,
    rx: mpsc::Receiver<Msg>,
    queue_depth: Arc<AtomicUsize>,
    last_trace: Arc<Mutex<Option<StepTrace>>>,
    /// The slot ledger of the dispatch being formed.
    plan: SlotPlan,
    /// Requests of the forming dispatch, in slot order.
    batch: Vec<Request>,
    /// Filler tensors for padded slots: zeros of the per-microbatch
    /// data shapes, allocated once (tensors are cheap `Arc` clones).
    pad: Vec<Tensor>,
    /// Most recent request latencies (µs), bounded by
    /// `cfg.latency_window` — the source of the p50/p99 gauges.
    window: VecDeque<u64>,
    consecutive_failures: u32,
}

impl Engine {
    pub(crate) fn new(
        step: ForwardStep,
        cfg: ServeConfig,
        rx: mpsc::Receiver<Msg>,
        queue_depth: Arc<AtomicUsize>,
        last_trace: Arc<Mutex<Option<StepTrace>>>,
    ) -> Engine {
        let plan = SlotPlan::new(step.n_mubatches());
        let pad = step
            .data_shapes()
            .iter()
            .map(|s| Tensor::zeros(s.clone()))
            .collect();
        Engine {
            step,
            cfg,
            rx,
            queue_depth,
            last_trace,
            plan,
            batch: Vec::new(),
            pad,
            window: VecDeque::new(),
            consecutive_failures: 0,
        }
    }

    /// The engine loop. Returns the step on shutdown so the server can
    /// hand it back to the caller.
    pub(crate) fn run(mut self) -> ForwardStep {
        while let Some(msg) = self.next_message() {
            match msg {
                Msg::Request(req) => {
                    self.plan
                        .admit()
                        .expect("a full plan must have been dispatched");
                    self.batch.push(req);
                    if self.plan.is_full() {
                        self.dispatch();
                    }
                }
                Msg::Swap { params, reply } => {
                    let r = self
                        .step
                        .load_params(&params)
                        .map_err(|e| ServeError::Swap(e.to_string()));
                    if r.is_ok() {
                        self.step.metrics().inc(Counter::ServeWeightSwapsTotal, 1);
                    }
                    let _ = reply.send(r);
                }
                Msg::SwapCheckpoint { dir, reply } => {
                    let r = self
                        .step
                        .load_latest_checkpoint(&dir)
                        .map_err(|e| ServeError::Swap(e.to_string()));
                    if matches!(r, Ok(Some(_))) {
                        self.step.metrics().inc(Counter::ServeWeightSwapsTotal, 1);
                    }
                    let _ = reply.send(r);
                }
                Msg::Shutdown => break,
            }
        }
        // Answer everything still queued — a partially formed dispatch
        // and any unread mailbox traffic — so no client blocks forever.
        for req in self.batch.drain(..) {
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
            let _ = req.reply.send(Err(ServeError::ShuttingDown));
        }
        while let Ok(msg) = self.rx.try_recv() {
            match msg {
                Msg::Request(req) => {
                    self.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    let _ = req.reply.send(Err(ServeError::ShuttingDown));
                }
                Msg::Swap { reply, .. } => {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                }
                Msg::SwapCheckpoint { reply, .. } => {
                    let _ = reply.send(Err(ServeError::ShuttingDown));
                }
                Msg::Shutdown => {}
            }
        }
        self.step
    }

    /// The next mailbox message, in mailbox order; `None` once every
    /// sender is gone. Admission is work-conserving: traffic already
    /// queued is taken without consulting the clock, so a backlog fills
    /// every slot. Only an empty mailbox lets `max_wait` — from the
    /// oldest carried request's admission — bound the wait for *future*
    /// arrivals, after which the forming dispatch launches padded.
    fn next_message(&mut self) -> Option<Msg> {
        loop {
            if let Ok(msg) = self.rx.try_recv() {
                return Some(msg);
            }
            let Some(oldest) = self.batch.first() else {
                // Nothing forming: block until traffic arrives.
                return self.rx.recv().ok();
            };
            let deadline = oldest.enqueued + self.cfg.max_wait;
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(msg) => return Some(msg),
                Err(mpsc::RecvTimeoutError::Timeout) => self.dispatch(),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    self.dispatch();
                    return None;
                }
            }
        }
    }

    /// Launches the forming dispatch: pads the free slots, runs one
    /// forward step, demuxes each filled slot's outputs to its ticket
    /// (padded outputs are discarded), and updates the latency gauges.
    /// On failure, errors every carried request (bounded wait) and
    /// repairs the fleet for the next dispatch.
    fn dispatch(&mut self) {
        debug_assert!(!self.batch.is_empty(), "nothing to dispatch");
        let metrics = self.step.metrics().clone();
        metrics.inc(Counter::ServePaddedSlotsTotal, self.plan.padded() as u64);
        metrics.set_gauge(Gauge::ServeSlotUtilization, self.plan.utilization());

        // data[input][slot]: filled slots carry request tensors, the
        // padded tail carries zero filler whose outputs nobody reads.
        let n_inputs = self.pad.len();
        let mut data: Vec<Vec<Tensor>> = vec![Vec::with_capacity(self.plan.n_slots()); n_inputs];
        for req in &self.batch {
            for (i, t) in req.inputs.iter().enumerate() {
                data[i].push(t.clone());
            }
        }
        for _ in self.plan.padded_slots() {
            for (i, p) in self.pad.iter().enumerate() {
                data[i].push(p.clone());
            }
        }

        let t0 = Instant::now();
        let result = self.step.forward(&data);
        metrics.observe(Histogram::ServeBatchTimeS, t0.elapsed().as_secs_f64());
        // Depth drops before any reply is sent: a client woken by its
        // ticket must never observe its own request still counted as
        // queued. The engine is the gauge's only writer.
        let carried = self.batch.len();
        let depth = self.queue_depth.fetch_sub(carried, Ordering::Relaxed) - carried;
        metrics.set_gauge(Gauge::ServeQueueDepth, depth as f64);
        match result {
            Ok(outputs) => {
                self.consecutive_failures = 0;
                metrics.inc(Counter::ServeBatchesTotal, 1);
                metrics.inc(Counter::ServeRepliesTotal, carried as u64);
                // Latency of each carried request, admission -> reply.
                let lat_ns: Vec<u64> = self
                    .batch
                    .iter()
                    .map(|r| r.enqueued.elapsed().as_nanos() as u64)
                    .collect();
                self.record_trace(&lat_ns);
                // Like the depth above, the latency gauges are published
                // before any reply: a client woken by its ticket must
                // find its own request already in them.
                for ns in &lat_ns {
                    if self.window.len() == self.cfg.latency_window.max(1) {
                        self.window.pop_front();
                    }
                    self.window.push_back(ns / 1_000);
                }
                let mut sample: Vec<u64> = self.window.iter().copied().collect();
                metrics.set_gauge(Gauge::ServeP50Us, percentile(&mut sample, 50.0));
                metrics.set_gauge(Gauge::ServeP99Us, percentile(&mut sample, 99.0));
                for (slot, req) in self.batch.drain(..).enumerate() {
                    let out = outputs.iter().map(|row| row[slot].clone()).collect();
                    let _ = req.reply.send(Ok(out));
                }
            }
            Err(e) => {
                self.consecutive_failures += 1;
                metrics.inc(Counter::ServeFailedBatchesTotal, 1);
                metrics.inc(Counter::ServeRequestFailuresTotal, carried as u64);
                let msg = e.to_string();
                for req in self.batch.drain(..) {
                    let _ = req.reply.send(Err(ServeError::Dispatch(msg.clone())));
                }
                self.repair(&e);
            }
        }
        self.plan.reset();
    }

    /// Degraded-mode ladder after a failed dispatch: respawn dead
    /// actors in place, or — once `rebalance_after` consecutive
    /// dispatches failed and the culprit is known — permanently fold
    /// its stages onto survivors. Either way the current weight
    /// generation is re-placed, so the next dispatch answers from the
    /// same weights.
    fn repair(&mut self, e: &CoreError) {
        let dead = match e {
            CoreError::Runtime(RuntimeError::ActorDied { actor })
            | CoreError::Runtime(RuntimeError::Exec { actor, .. })
            | CoreError::Runtime(RuntimeError::Timeout { actor }) => Some(*actor),
            _ => None,
        };
        if let (Some(actor), Some(after)) = (dead, self.cfg.rebalance_after) {
            if self.consecutive_failures >= after && self.step.rebalance(&[actor]).is_ok() {
                self.consecutive_failures = 0;
                return;
            }
        }
        let _ = self.step.recover();
    }

    /// When the runtime traced this dispatch, appends the serving
    /// tier's pseudo-actor track — one `"serve"` span per carried
    /// request, admission to reply — and parks the merged trace for
    /// [`crate::Server::take_step_trace`]. Trace schema v7.
    fn record_trace(&self, lat_ns: &[u64]) {
        if !self.step.runtime().tracing_enabled() {
            return;
        }
        let Some(mut trace) = self.step.runtime().take_step_trace() else {
            return;
        };
        let now_ns = self.step.runtime().now_ns();
        let track = self.step.runtime().program().n_actors();
        let spans = self
            .batch
            .iter()
            .zip(lat_ns)
            .enumerate()
            .map(|(slot, (req, &ns))| SpanEvent {
                instr: slot as u32,
                kind: Kind::Serve.as_str(),
                name: format!("request {} (slot {slot})", req.id),
                start_ns: now_ns.saturating_sub(ns),
                dur_ns: ns,
                bytes: 0,
                alloc: None,
            })
            .collect();
        trace.actors.push(ActorTrace {
            actor: track,
            spans,
            dropped: 0,
        });
        *self.last_trace.lock().unwrap() = Some(trace);
    }
}

/// Nearest-rank percentile of a sample (µs), 0 for an empty window.
/// By selection, not by sorting: the window is re-ranked after every
/// dispatch, and a full sort of it showed up between two forwards.
/// Reorders `sample`.
fn percentile(sample: &mut [u64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sample.len() as f64).ceil() as usize;
    let rank = rank.clamp(1, sample.len()) - 1;
    *sample.select_nth_unstable(rank).1 as f64
}

#[cfg(test)]
mod tests;
