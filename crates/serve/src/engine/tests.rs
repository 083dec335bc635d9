//! The engine against a *scripted* mailbox: every message is queued
//! before the loop starts, so the interleaving under test — a standing
//! backlog, a swap between two queued requests, a shutdown in front of
//! unread traffic — is exact rather than raced for.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use raxpp_core::{compile_forward_step, ForwardOptions, ForwardStep};
use raxpp_ir::{Tensor, TraceCtx};
use raxpp_sched::gpipe;

use super::{percentile, Engine};
use crate::server::{Msg, Request};
use crate::{ServeConfig, ServeError};

type Reply = mpsc::Receiver<Result<Vec<Tensor>, ServeError>>;

/// y = x · w · v over two stages; identity weights answer y == x.
fn step(n_slots: usize) -> ForwardStep {
    let ctx = TraceCtx::new();
    let w = ctx.input([4, 4]);
    let v = ctx.input([4, 4]);
    let x = ctx.input([2, 4]);
    let h = ctx.pipeline_yield(&x.matmul(&w).unwrap());
    let y = h.matmul(&v).unwrap();
    let loss = y.mul(&y).unwrap().sum().scale(0.5);
    let jaxpr = ctx.finish(&[loss, y]).unwrap();
    let schedule = gpipe(2, n_slots).unwrap();
    let step = compile_forward_step(&jaxpr, 2, &schedule, ForwardOptions::default()).unwrap();
    step.load_params(&scaled_eye(1.0)).unwrap();
    step
}

fn scaled_eye(k: f32) -> Vec<Tensor> {
    let scaled = Tensor::eye(4).data().iter().map(|v| k * v).collect();
    let w = Tensor::from_vec([4, 4], scaled).unwrap();
    vec![w.clone(), w]
}

fn input(i: usize) -> Tensor {
    Tensor::from_vec([2, 4], (0..8).map(|j| (i * 8 + j) as f32).collect()).unwrap()
}

/// A mailbox being scripted, and the engine that will read it.
struct Script {
    tx: mpsc::Sender<Msg>,
    depth: Arc<AtomicUsize>,
    engine: Engine,
}

impl Script {
    fn new(n_slots: usize, max_wait: Duration) -> Script {
        let (tx, rx) = mpsc::channel();
        let depth = Arc::new(AtomicUsize::new(0));
        let cfg = ServeConfig {
            max_wait,
            ..ServeConfig::default()
        };
        let trace = Arc::new(Mutex::new(None));
        let engine = Engine::new(step(n_slots), cfg, rx, Arc::clone(&depth), trace);
        Script { tx, depth, engine }
    }

    /// Queues request `i` exactly as `Server::submit` would.
    fn request(&self, i: usize) -> Reply {
        let (reply, rx) = mpsc::channel();
        self.depth.fetch_add(1, Ordering::Relaxed);
        let req = Request {
            id: i as u64,
            inputs: vec![input(i)],
            enqueued: Instant::now(),
            reply,
        };
        self.tx.send(Msg::Request(req)).unwrap();
        rx
    }

    fn swap(&self, k: f32) -> mpsc::Receiver<Result<(), ServeError>> {
        let (reply, rx) = mpsc::channel();
        let params = scaled_eye(k);
        self.tx.send(Msg::Swap { params, reply }).unwrap();
        rx
    }

    fn shutdown(&self) {
        self.tx.send(Msg::Shutdown).unwrap();
    }
}

/// The prediction of a reply, scaled: `k` for y == k · x.
fn answered(reply: &Reply, i: usize, k: f32) {
    let out = reply.try_recv().expect("answered").expect("served");
    let want: Vec<f32> = input(i).data().iter().map(|v| k * v).collect();
    assert_eq!(out[1].data(), want.as_slice(), "request {i}");
}

const HOUR: Duration = Duration::from_secs(3600);

#[test]
fn queued_requests_fill_dispatches_whatever_their_deadlines_say() {
    // Zero max_wait: every queued request's deadline has passed by the
    // time the engine reads it. Eight of them are still two full
    // dispatches, not eight padded ones.
    let s = Script::new(4, Duration::ZERO);
    let replies: Vec<Reply> = (0..8).map(|i| s.request(i)).collect();
    s.shutdown();
    let step = s.engine.run();
    for (i, r) in replies.iter().enumerate() {
        answered(r, i, 1.0);
    }
    assert_eq!(step.metrics().counter("serve_batches_total"), 2);
    assert_eq!(step.metrics().counter("serve_padded_slots_total"), 0);
    assert_eq!(s.depth.load(Ordering::Relaxed), 0);
}

#[test]
fn a_swap_between_two_queued_requests_never_splits_a_generation() {
    // r0 r1 [swap 2I] r2 r3 | r4 r5 r6 r7, all drained in one turn of
    // the loop. The swap is applied in mailbox order, between
    // dispatches: the dispatch forming around it runs entirely on the
    // new generation, and so does everything behind it.
    let s = Script::new(4, HOUR);
    let mut replies: Vec<Reply> = (0..2).map(|i| s.request(i)).collect();
    let swapped = s.swap(2.0);
    replies.extend((2..8).map(|i| s.request(i)));
    s.shutdown();
    let step = s.engine.run();
    assert_eq!(swapped.try_recv().unwrap(), Ok(()));
    for (i, r) in replies.iter().enumerate() {
        answered(r, i, 4.0); // 2I · 2I, in admission order
    }
    assert_eq!(step.metrics().counter("serve_batches_total"), 2);
    assert_eq!(step.metrics().counter("serve_weight_swaps_total"), 1);

    // The other side of the boundary: a full dispatch in front of the
    // swap keeps the old generation.
    let s = Script::new(2, HOUR);
    let mut replies: Vec<Reply> = (0..2).map(|i| s.request(i)).collect();
    let swapped = s.swap(2.0);
    replies.extend((2..4).map(|i| s.request(i)));
    s.shutdown();
    s.engine.run();
    assert_eq!(swapped.try_recv().unwrap(), Ok(()));
    for (i, r) in replies.iter().enumerate() {
        answered(r, i, if i < 2 { 1.0 } else { 4.0 });
    }
}

#[test]
fn shutdown_answers_a_drained_batch_and_the_unread_mailbox() {
    // Two requests drained into a dispatch that never fills (hour-long
    // deadline), then the shutdown, then traffic nobody will read.
    let s = Script::new(4, HOUR);
    let mut replies: Vec<Reply> = (0..2).map(|i| s.request(i)).collect();
    s.shutdown();
    replies.push(s.request(2));
    let swapped = s.swap(2.0);
    replies.push(s.request(3));
    let step = s.engine.run();
    for r in &replies {
        assert_eq!(r.try_recv().unwrap(), Err(ServeError::ShuttingDown));
    }
    assert_eq!(swapped.try_recv().unwrap(), Err(ServeError::ShuttingDown));
    assert_eq!(step.metrics().counter("serve_batches_total"), 0);
    assert_eq!(step.metrics().counter("serve_weight_swaps_total"), 0);
    assert_eq!(s.depth.load(Ordering::Relaxed), 0);
}

#[test]
fn percentile_is_nearest_rank() {
    // Descending on purpose: selection must not rely on order.
    let mut s: Vec<u64> = (1..=100).rev().collect();
    assert_eq!(percentile(&mut s, 50.0), 50.0);
    assert_eq!(percentile(&mut s, 99.0), 99.0);
    assert_eq!(percentile(&mut s, 100.0), 100.0);
    assert_eq!(percentile(&mut [7], 99.0), 7.0);
    assert_eq!(percentile(&mut [], 50.0), 0.0);
}
