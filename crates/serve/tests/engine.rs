//! Engine-level behavior of the serving tier: batching, padding,
//! swaps, shutdown. (Parity with training and fault handling live in
//! the workspace-level `tests/tests/serving.rs`.)

use std::collections::VecDeque;
use std::time::Duration;

use raxpp_ir::{Jaxpr, Tensor, TraceCtx};
use raxpp_sched::gpipe;
use raxpp_serve::{
    compile_forward_step, ForwardOptions, ForwardStep, ServeConfig, ServeError, Server,
};

/// loss = 0.5 * Σ (tanh(x@w1) @ w2)², prediction served as aux output.
fn model() -> Jaxpr {
    let ctx = TraceCtx::new();
    let w1 = ctx.input([4, 4]);
    let w2 = ctx.input([4, 4]);
    let x = ctx.input([2, 4]);
    let h = ctx.pipeline_yield(&x.matmul(&w1).unwrap().tanh());
    let y = h.matmul(&w2).unwrap();
    let loss = y.mul(&y).unwrap().sum().scale(0.5);
    ctx.finish(&[loss, y]).unwrap()
}

fn params(scale: f32) -> Vec<Tensor> {
    vec![
        Tensor::from_vec([4, 4], (0..16).map(|i| scale * 0.05 * i as f32).collect()).unwrap(),
        Tensor::from_vec(
            [4, 4],
            (0..16).map(|i| scale * 0.03 * (i % 5) as f32).collect(),
        )
        .unwrap(),
    ]
}

fn request(i: usize) -> Tensor {
    Tensor::from_vec([2, 4], (0..8).map(|j| 0.1 * (i * 8 + j) as f32).collect()).unwrap()
}

fn forward_step(n_mubatches: usize) -> ForwardStep {
    let jaxpr = model();
    let step = compile_forward_step(
        &jaxpr,
        2,
        &gpipe(2, n_mubatches).unwrap(),
        ForwardOptions::default(),
    )
    .unwrap();
    step.load_params(&params(1.0)).unwrap();
    step
}

#[test]
fn served_outputs_match_a_direct_forward_bitwise() {
    // One step serves, an identical twin runs the same slots directly.
    let direct = forward_step(3);
    let data: Vec<Vec<Tensor>> = vec![(0..3).map(request).collect()];
    let want = direct.forward(&data).unwrap();

    let server = Server::start(forward_step(3), ServeConfig::default());
    let tickets: Vec<_> = (0..3)
        .map(|i| server.submit(vec![request(i)]).unwrap())
        .collect();
    for (slot, t) in tickets.into_iter().enumerate() {
        let got = t.wait().unwrap();
        assert_eq!(got.len(), 2, "loss + prediction");
        for (o, tensor) in got.iter().enumerate() {
            assert_eq!(
                tensor.data(),
                want[o][slot].data(),
                "output {o} of slot {slot} must be bitwise identical"
            );
        }
    }
    let m = server.metrics().snapshot();
    drop(m);
    server.shutdown();
}

#[test]
fn deadline_fires_and_pads_a_partial_dispatch() {
    let server = Server::start(
        forward_step(4),
        ServeConfig {
            max_wait: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );
    // One request into a 4-slot pipeline: only the deadline can launch it.
    let out = server.infer(vec![request(0)]).unwrap();
    assert_eq!(out.len(), 2);
    let metrics = server.metrics();
    assert_eq!(metrics.counter("serve_batches_total"), 1);
    assert_eq!(metrics.counter("serve_padded_slots_total"), 3);
    let util = metrics.gauge("serve_slot_utilization").unwrap();
    assert!((util - 0.25).abs() < 1e-12, "utilization {util}");
    assert!(metrics.gauge("serve_p99_us").unwrap() > 0.0);
    server.shutdown();
}

/// A reply is the last thing a dispatch publishes: the client it wakes
/// reads latency gauges that already include its request. Fresh servers
/// only — on a warm one the previous dispatch's value hides the race.
#[test]
fn latency_gauges_are_published_before_the_reply() {
    for i in 0..50 {
        let server = Server::start(forward_step(1), ServeConfig::default());
        server.infer(vec![request(i)]).unwrap();
        let p99 = server.metrics().gauge("serve_p99_us");
        assert!(p99.is_some(), "server {i}: reply overtook serve_p99_us");
        server.shutdown();
    }
}

#[test]
fn full_dispatch_needs_no_deadline() {
    // max_wait far beyond the test's patience: only slot-full dispatch
    // can answer these.
    let server = Server::start(
        forward_step(2),
        ServeConfig {
            max_wait: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    );
    let t0 = server.submit(vec![request(0)]).unwrap();
    let t1 = server.submit(vec![request(1)]).unwrap();
    t0.wait().unwrap();
    t1.wait().unwrap();
    assert_eq!(server.metrics().counter("serve_padded_slots_total"), 0);
    server.shutdown();
}

/// A standing backlog fills every slot: whatever already sits in the
/// mailbox is admitted before the deadline is consulted. `max_wait` is
/// zero, so the deadline of every queued request has long passed — the
/// condition under which the engine used to launch one request per
/// 4-slot dispatch (fill 0.25).
#[test]
fn a_standing_backlog_fills_every_slot() {
    const SLOTS: usize = 4;
    const OUTSTANDING: usize = 64;
    const REQUESTS: usize = 1200;
    const POOL: usize = 8;
    // What each input must be answered with: the unbatched forward.
    let single = forward_step(1);
    let want: Vec<Vec<Tensor>> = (0..POOL)
        .map(|i| {
            let out = single.forward(&[vec![request(i)]]).unwrap();
            out.into_iter().map(|mut row| row.remove(0)).collect()
        })
        .collect();

    let server = Server::start(
        forward_step(SLOTS),
        ServeConfig {
            max_wait: Duration::ZERO,
            ..ServeConfig::default()
        },
    );
    // One client holding OUTSTANDING tickets, replacing each as it is
    // answered.
    let mut outstanding = VecDeque::new();
    let mut submitted = 0;
    loop {
        while submitted < REQUESTS && outstanding.len() < OUTSTANDING {
            let t = server.submit(vec![request(submitted % POOL)]).unwrap();
            outstanding.push_back((t, submitted % POOL));
            submitted += 1;
        }
        let Some((ticket, input)) = outstanding.pop_front() else {
            break;
        };
        let got = ticket.wait().unwrap();
        assert_eq!(got.len(), want[input].len());
        for (g, w) in got.iter().zip(&want[input]) {
            assert_eq!(
                g.data(),
                w.data(),
                "reply differs from the unbatched forward"
            );
        }
    }
    assert_eq!(server.queue_depth(), 0);
    // Joining the engine orders its last gauge write before the read.
    let step = server.shutdown();
    let m = step.metrics();
    assert_eq!(m.counter("serve_replies_total"), REQUESTS as u64);
    let dispatched_slots = m.counter("serve_batches_total") * SLOTS as u64;
    let fill = REQUESTS as f64 / dispatched_slots as f64;
    assert!(fill >= 0.9, "slot fill {fill} under a standing backlog");
    // The engine is the gauge's only writer: an idle server reports an
    // empty queue, whatever order the client threads' submits ran in.
    assert_eq!(m.gauge("serve_queue_depth"), Some(0.0));
}

#[test]
fn malformed_requests_are_rejected_at_admission() {
    let server = Server::start(forward_step(2), ServeConfig::default());
    match server.submit(vec![]) {
        Err(ServeError::BadRequest(m)) => assert!(m.contains("data inputs"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    match server.submit(vec![Tensor::zeros([3, 3])]) {
        Err(ServeError::BadRequest(m)) => assert!(m.contains("shape"), "{m}"),
        other => panic!("expected BadRequest, got {other:?}"),
    }
    assert_eq!(server.queue_depth(), 0, "rejected requests never queue");
    server.shutdown();
}

#[test]
fn weight_swaps_apply_between_dispatches() {
    let direct = forward_step(2);
    direct.load_params(&params(2.0)).unwrap();
    let data: Vec<Vec<Tensor>> = vec![(0..2).map(request).collect()];
    let want = direct.forward(&data).unwrap();

    let server = Server::start(forward_step(2), ServeConfig::default());
    // Generation 1 answers...
    let t0 = server.submit(vec![request(0)]).unwrap();
    let t1 = server.submit(vec![request(1)]).unwrap();
    let gen1 = t0.wait().unwrap();
    t1.wait().unwrap();
    // ...then generation 2 swaps in and answers differently but
    // bitwise-equal to a direct forward under the same weights.
    server.swap_weights(params(2.0)).unwrap();
    let t0 = server.submit(vec![request(0)]).unwrap();
    let t1 = server.submit(vec![request(1)]).unwrap();
    let gen2 = t0.wait().unwrap();
    t1.wait().unwrap();
    assert_ne!(gen1[1].data(), gen2[1].data(), "weights actually changed");
    assert_eq!(gen2[0].data(), want[0][0].data());
    assert_eq!(gen2[1].data(), want[1][0].data());
    assert_eq!(server.metrics().counter("serve_weight_swaps_total"), 1);
    server.shutdown();
}

#[test]
fn bad_swaps_keep_the_previous_generation_live() {
    let server = Server::start(forward_step(2), ServeConfig::default());
    match server.swap_weights(vec![Tensor::zeros([1, 1])]) {
        Err(ServeError::Swap(m)) => assert!(m.contains("parameters"), "{m}"),
        other => panic!("expected Swap error, got {other:?}"),
    }
    // Still serving from the original weights.
    let t0 = server.submit(vec![request(0)]).unwrap();
    let t1 = server.submit(vec![request(1)]).unwrap();
    t0.wait().unwrap();
    t1.wait().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_returns_the_step_ready_to_serve_again() {
    // An hour-long deadline: the lone queued request cannot dispatch,
    // so shutdown must answer it.
    let server = Server::start(
        forward_step(2),
        ServeConfig {
            max_wait: Duration::from_secs(3600),
            ..ServeConfig::default()
        },
    );
    let t = server.submit(vec![request(0)]).unwrap();
    let step = server.shutdown();
    // The queued-but-never-dispatched request got a bounded answer.
    assert_eq!(t.wait(), Err(ServeError::ShuttingDown));
    // The step (weights included) survives and can be restarted.
    let server = Server::start(step, ServeConfig::default());
    let t0 = server.submit(vec![request(0)]).unwrap();
    let t1 = server.submit(vec![request(1)]).unwrap();
    t0.wait().unwrap();
    t1.wait().unwrap();
    server.shutdown();
}
