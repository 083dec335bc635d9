//! The serving workload: `raxpp-serve` under an open loop (a
//! generator thread submitting on a Poisson schedule and a collector
//! thread timing each reply from the request's due time) and under a
//! closed loop that keeps a standing backlog. Every reply is compared
//! bit for bit with the unbatched forward output of its input.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{Jaxpr, Tensor, TraceCtx};
use raxpp_runtime::TransportKind;
use raxpp_sched::gpipe;
use raxpp_serve::{compile_forward_step, ForwardOptions, ForwardStep, ServeConfig, Server, Ticket};

use crate::catalog::{Measured, LADDER_RATES};
use crate::json::Json;
use crate::spans::{Span, SpanLog};
use crate::stats::{backlog_grew, max_rate, median, percentile, samples_beyond, windowed, Rung};
use crate::train::{kernel_probes, peak_store_mb, time_median};
use crate::{Outcome, RunArgs};

const WIDTH: usize = 256;
const ROWS: usize = 8;
const STAGES: usize = 2;
const SLOTS: usize = 4;
const N_PARAMS: usize = 2;
/// Distinct request inputs, cycled.
const POOL: usize = 8;
/// Share of the untraced run spent in the open loop; the closed loop
/// gets the rest. Latency at 500 req/s repeats within 2–4 % from a few
/// seconds; the closed loop's rate needs the longer window.
const OPEN_LOOP_SHARE: f64 = 0.4;
/// Requests the closed loop keeps outstanding.
const SAT_OUTSTANDING: usize = 64;
/// The generator swaps in (the same) weights this often during
/// `rate_500`, and at least twice in a short phase: the write beside
/// the reads.
const SWAP_EVERY: Duration = Duration::from_secs(2);
/// A ladder rung is cut short once this many requests are queued.
const ABORT_DEPTH: usize = 512;
/// Queue growth (requests) between the last two quarters of a rung
/// that counts as a growing backlog: two dispatches' worth.
const BACKLOG_SLACK: f64 = 2.0 * SLOTS as f64;
/// The tail latency and the closed loop's rate are medians over this
/// many consecutive windows of their phase (see `stats::windowed`): a
/// 0.4 s host stall otherwise owns the p95 of an 8 s open loop, and the
/// sizing box produced one such run in ten.
const WINDOWS: usize = 8;
/// The tail percentile of request latency. p99 swung 3.8–29 ms
/// between identical runs on the sizing box because 10–60 ms host
/// stalls land on it; it is reported as a layer metric only.
const TAIL_PERCENTILE: f64 = 95.0;

/// The served model in the training form `compile_forward_step`
/// needs: loss first, the prediction as auxiliary output.
fn model() -> Jaxpr {
    let ctx = TraceCtx::new();
    let w1 = ctx.input([WIDTH, WIDTH]);
    let w2 = ctx.input([WIDTH, WIDTH]);
    let x = ctx.input([ROWS, WIDTH]);
    let h = ctx.pipeline_yield(&x.matmul(&w1).expect("matmul").tanh());
    let y = h.matmul(&w2).expect("matmul");
    let loss = y.mul(&y).expect("mul").sum().scale(0.5);
    ctx.finish(&[loss, y]).expect("the served model traces")
}

fn forward_step(jaxpr: &Jaxpr, slots: usize) -> ForwardStep {
    compile_forward_step(
        jaxpr,
        N_PARAMS,
        &gpipe(STAGES, slots).expect("valid schedule"),
        ForwardOptions {
            // Named, so that `RAXPP_TRANSPORT` is never consulted.
            transport: Some(TransportKind::Mpsc),
            ..ForwardOptions::default()
        },
    )
    .expect("the served model compiles")
}

/// Inputs, weights and the reply each input must get.
struct Inputs {
    weights: Vec<Tensor>,
    pool: Vec<Tensor>,
    /// `expected[i][output]`, from a one-slot forward step.
    expected: Vec<Vec<Tensor>>,
}

fn weights(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..N_PARAMS)
        .map(|_| Tensor::randn([WIDTH, WIDTH], 0.05, &mut rng))
        .collect()
}

impl Inputs {
    fn new(jaxpr: &Jaxpr, seed: u64) -> Inputs {
        let weights = weights(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
        let pool: Vec<Tensor> = (0..POOL)
            .map(|_| Tensor::randn([ROWS, WIDTH], 1.0, &mut rng))
            .collect();
        let single = forward_step(jaxpr, 1);
        single.load_params(&weights).expect("weights load");
        let expected = pool
            .iter()
            .map(|x| {
                let out = single
                    .forward(&[vec![x.clone()]])
                    .expect("unbatched forward");
                out.into_iter().map(|mut per_mb| per_mb.remove(0)).collect()
            })
            .collect();
        Inputs {
            weights,
            pool,
            expected,
        }
    }

    fn reply_is_correct(&self, input: usize, reply: &[Tensor]) -> bool {
        let want = &self.expected[input];
        reply.len() == want.len()
            && reply.iter().zip(want).all(|(got, want)| {
                got.shape() == want.shape()
                    && got
                        .data()
                        .iter()
                        .zip(want.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
    }
}

/// One open-loop phase.
#[derive(Default)]
struct OpenLoop {
    /// Seconds from due time to reply, one per answered request.
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// How late after its due time each request was submitted.
    gen_late: Vec<f64>,
    submit_s: Vec<f64>,
    swap_s: Vec<f64>,
    /// Queue depth at each submit of the phase's second half.
    late_depths: Vec<usize>,
    cut_short: bool,
    mean_slot_fill: f64,
}

impl OpenLoop {
    fn rung(&self, rate: f64) -> Rung {
        Rung {
            rate,
            p95_s: percentile(&self.latencies, TAIL_PERCENTILE),
            failed: self.failed,
            backlog_grew: self.cut_short || backlog_grew(&self.late_depths, BACKLOG_SLACK),
        }
    }
}

/// What the generator hands the collector for each admitted request.
struct InFlight {
    ticket: Ticket,
    due: Instant,
    input: usize,
    submit_span: Option<usize>,
}

/// Slot fill over a phase: replies over dispatched slots.
struct FillProbe {
    replies: u64,
    batches: u64,
}

impl FillProbe {
    fn start(server: &Server) -> FillProbe {
        FillProbe {
            replies: server.metrics().counter("serve_replies_total"),
            batches: server.metrics().counter("serve_batches_total"),
        }
    }

    fn finish(&self, server: &Server) -> f64 {
        let replies = server.metrics().counter("serve_replies_total") - self.replies;
        let batches = server.metrics().counter("serve_batches_total") - self.batches;
        replies as f64 / (batches.max(1) * SLOTS as u64) as f64
    }
}

/// Submits requests at Poisson arrivals of `rate` per second for
/// `duration` from this thread while a collector thread waits on the
/// tickets in order (the engine answers in admission order, so no
/// reply is observed late). With `log`, records a `serve.submit` span
/// per request and the collector's `serve.wait` span under it.
fn open_loop(
    server: &Server,
    inputs: &Inputs,
    rate: f64,
    duration: Duration,
    rng: &mut StdRng,
    swaps: bool,
    mut log: Option<&mut SpanLog>,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let fill = FillProbe::start(server);
    let (tx, rx) = mpsc::channel::<InFlight>();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut latencies = Vec::new();
            let mut failed = 0u64;
            let mut waits = Vec::new();
            for req in rx {
                let id = req.ticket.id();
                let wait_start = Instant::now();
                let reply = req.ticket.wait();
                let done = Instant::now();
                match reply {
                    Ok(r) if inputs.reply_is_correct(req.input, &r) => {
                        latencies.push(done.saturating_duration_since(req.due).as_secs_f64());
                    }
                    _ => failed += 1,
                }
                if let Some(parent) = req.submit_span {
                    waits.push((id, parent, wait_start, done));
                }
            }
            (latencies, failed, waits)
        });

        let start = Instant::now();
        let mut due = start;
        let mut last_swap = start;
        loop {
            // Exponential gaps make the arrivals Poisson.
            due += Duration::from_secs_f64(-(1.0 - rng.next_f64()).ln() / rate);
            if due.saturating_duration_since(start) >= duration {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            if swaps && last_swap.elapsed() >= SWAP_EVERY.min(duration / 3) {
                let t0 = Instant::now();
                if server.swap_weights(inputs.weights.clone()).is_err() {
                    out.failed += 1;
                }
                out.swap_s.push(t0.elapsed().as_secs_f64());
                last_swap = Instant::now();
            }
            let input = rng.gen_range(0..inputs.pool.len());
            let t0 = Instant::now();
            out.gen_late
                .push(t0.saturating_duration_since(due).as_secs_f64());
            let submitted = server.submit(vec![inputs.pool[input].clone()]);
            let t1 = Instant::now();
            out.submit_s.push((t1 - t0).as_secs_f64());
            out.attempted += 1;
            match submitted {
                Ok(ticket) => {
                    let submit_span = log.as_deref_mut().map(|log| {
                        log.spans.push(Span {
                            name: "serve.submit",
                            start_ns: log.ns(t0),
                            end_ns: log.ns(t1),
                            parent: None,
                            id: ticket.id(),
                            track: 0,
                        });
                        log.spans.len() - 1
                    });
                    let _ = tx.send(InFlight {
                        ticket,
                        due,
                        input,
                        submit_span,
                    });
                }
                Err(_) => out.failed += 1,
            }
            let depth = server.queue_depth();
            if 2 * due.saturating_duration_since(start) >= duration {
                out.late_depths.push(depth);
            }
            if depth > ABORT_DEPTH {
                out.cut_short = true;
                break;
            }
        }
        drop(tx);
        collector.join().expect("the collector thread panicked")
    });
    let (latencies, failed, waits) = collected;
    out.latencies = latencies;
    out.failed += failed;
    out.mean_slot_fill = fill.finish(server);
    if let Some(log) = log {
        for (id, parent, start, end) in waits {
            log.spans.push(Span {
                name: "serve.wait",
                start_ns: log.ns(start),
                end_ns: log.ns(end),
                parent: Some(parent),
                id,
                track: 1,
            });
        }
    }
    out
}

/// The closed loop: one thread holding [`SAT_OUTSTANDING`] tickets,
/// replacing each as it is answered. Nothing is refused, so a later
/// bounded queue is not scored as failures.
struct ClosedLoop {
    /// Correct replies per second while the backlog stood: the median
    /// over [`WINDOWS`] equal spans of the phase.
    rps: f64,
    attempted: u64,
    failed: u64,
    mean_slot_fill: f64,
}

fn closed_loop(server: &Server, inputs: &Inputs, duration: Duration) -> ClosedLoop {
    let fill = FillProbe::start(server);
    let mut outstanding: VecDeque<(Ticket, usize)> = VecDeque::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Seconds into the phase at which each counted reply arrived.
    let mut correct_at: Vec<f64> = Vec::new();
    let mut next = 0usize;
    let mut submit = |outstanding: &mut VecDeque<(Ticket, usize)>, failed: &mut u64| {
        let input = next % inputs.pool.len();
        next += 1;
        attempted += 1;
        match server.submit(vec![inputs.pool[input].clone()]) {
            Ok(t) => outstanding.push_back((t, input)),
            Err(_) => *failed += 1,
        }
    };
    let t0 = Instant::now();
    for _ in 0..SAT_OUTSTANDING {
        submit(&mut outstanding, &mut failed);
    }
    let mut wall = Duration::ZERO;
    while let Some((ticket, input)) = outstanding.pop_front() {
        let ok = matches!(ticket.wait(), Ok(r) if inputs.reply_is_correct(input, &r));
        if !ok {
            failed += 1;
        }
        // Replies count while the backlog stands; the last tickets are
        // drained and checked, not counted.
        if wall.is_zero() {
            let now = t0.elapsed();
            if ok {
                correct_at.push(now.as_secs_f64());
            }
            if now >= duration {
                wall = now;
            } else {
                submit(&mut outstanding, &mut failed);
            }
        }
    }
    let span = wall.as_secs_f64() / WINDOWS as f64;
    let per_window: Vec<f64> = (0..WINDOWS)
        .map(|i| {
            let (lo, hi) = (i as f64 * span, (i + 1) as f64 * span);
            let replies = correct_at.iter().filter(|t| lo < **t && **t <= hi).count();
            replies as f64 / span.max(f64::MIN_POSITIVE)
        })
        .collect();
    ClosedLoop {
        rps: median(&per_window),
        attempted,
        failed,
        mean_slot_fill: fill.finish(server),
    }
}

/// A few requests through the whole pool before anything is timed.
fn warm_up(server: &Server, inputs: &Inputs) -> u64 {
    let mut failed = 0;
    for (i, x) in inputs.pool.iter().enumerate() {
        let ok = matches!(server.infer(vec![x.clone()]), Ok(r) if inputs.reply_is_correct(i, &r));
        failed += u64::from(!ok);
    }
    failed
}

/// The untraced run: the end-to-end metrics.
pub fn run_end_to_end(args: &RunArgs) -> Outcome {
    let mut m = Measured::default();
    let ((jaxpr, server), setup_s) = crate::repeated_setup(|| {
        let jaxpr = model();
        let step = forward_step(&jaxpr, SLOTS);
        step.load_params(&weights(args.seed)).expect("weights load");
        let server = Server::start(step, ServeConfig::default());
        (jaxpr, server)
    });
    m.set("setup_s", setup_s);

    let inputs = Inputs::new(&jaxpr, args.seed);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA881);
    let mut failed = warm_up(&server, &inputs);
    let mut attempted = inputs.pool.len() as u64;

    let open = open_loop(
        &server,
        &inputs,
        LADDER_RATES[0],
        Duration::from_secs_f64(OPEN_LOOP_SHARE * args.seconds),
        &mut rng,
        true,
        None,
    );
    m.set("latency_p50_s", percentile(&open.latencies, 50.0));
    m.set(
        "latency_tail_s",
        windowed(&open.latencies, WINDOWS, |w| percentile(w, TAIL_PERCENTILE)),
    );
    let sat = closed_loop(
        &server,
        &inputs,
        Duration::from_secs_f64((1.0 - OPEN_LOOP_SHARE) * args.seconds),
    );
    m.set("throughput_per_s", sat.rps);
    attempted += open.attempted + sat.attempted;
    failed += open.failed + sat.failed;
    m.set("peak_store_mb", peak_store_mb(server.shutdown().runtime()));

    let info = vec![
        ("open_loop_replies", Json::Num(open.latencies.len() as f64)),
        (
            "samples_beyond_tail_per_window",
            Json::Num(samples_beyond(open.latencies.len() / WINDOWS, TAIL_PERCENTILE) as f64),
        ),
        ("weight_swaps", Json::Num(open.swap_s.len() as f64)),
        (
            "gen_late_p99_s",
            Json::Num(percentile(&open.gen_late, 99.0)),
        ),
    ];
    Outcome {
        measured: m,
        attempted,
        failed,
        info,
    }
}

/// The traced run: the per-layer ledger.
pub fn run_per_layer(args: &RunArgs) -> Outcome {
    let mut m = Measured::default();
    let mut log = SpanLog::new();
    let jaxpr = log.scope("setup.build", 0, model);
    let step = log.scope("setup.compile", 0, || forward_step(&jaxpr, SLOTS));
    let inputs = Inputs::new(&jaxpr, args.seed);
    log.scope("setup.init", 0, || {
        step.load_params(&inputs.weights).expect("weights load")
    });
    m.set("taskgraph.forward_project_s", log.total_s("setup.compile"));
    m.set("runtime.init_s", log.total_s("setup.init"));

    // One full dispatch straight through the forward step: the ceiling
    // of the closed loop is SLOTS / this.
    let batch = vec![inputs.pool[..SLOTS].to_vec()];
    let forward_batch_s = time_median(200, || {
        std::hint::black_box(step.forward(&batch).expect("forward"));
    });
    m.set("serve.forward_batch_s", forward_batch_s);
    kernel_probes(&mut m, (ROWS, WIDTH, WIDTH), args.seed);

    let server = log.scope("setup.launch", 0, || {
        Server::start(step, ServeConfig::default())
    });
    m.set("runtime.launch_s", log.total_s("setup.launch"));
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0xA881);
    let mut failed = warm_up(&server, &inputs);
    let mut attempted = inputs.pool.len() as u64;

    // The ladder: each rate for a sixth of the run, up to the first
    // that misses the limit.
    let rung_time = Duration::from_secs_f64(args.seconds / 6.0);
    let mut rungs = Vec::new();
    for (i, &rate) in LADDER_RATES.iter().enumerate() {
        let first = i == 0;
        let open = open_loop(
            &server,
            &inputs,
            rate,
            rung_time,
            &mut rng,
            first,
            first.then_some(&mut log),
        );
        attempted += open.attempted;
        failed += open.failed;
        m.set(
            &format!("serve.p50_s_at_{rate}"),
            percentile(&open.latencies, 50.0),
        );
        m.set(
            &format!("serve.p95_s_at_{rate}"),
            percentile(&open.latencies, TAIL_PERCENTILE),
        );
        if first {
            m.set("serve.p99_s_at_500", percentile(&open.latencies, 99.0));
            m.set("serve.mean_slot_fill.rate_500", open.mean_slot_fill);
            m.set("serve.submit_us", median(&open.submit_s) * 1e6);
            m.set("serve.gen_late_p99_s", percentile(&open.gen_late, 99.0));
            m.set("serve.swap_s", median(&open.swap_s));
        }
        let rung = open.rung(rate);
        rungs.push(rung);
        if !rung.passes() {
            break;
        }
    }
    m.set("serve.max_rate_rps", max_rate(&rungs));

    let sat = closed_loop(&server, &inputs, rung_time);
    attempted += sat.attempted;
    failed += sat.failed;
    m.set("serve.sat_rps", sat.rps);
    m.set("serve.mean_slot_fill.sat", sat.mean_slot_fill);
    m.set(
        "serve.sat_efficiency",
        sat.rps * forward_batch_s / SLOTS as f64,
    );
    drop(server);

    let info = vec![
        (
            "trace_file",
            crate::write_trace(args, &crate::spans::chrome_trace(&log, None)),
        ),
        (
            "ladder_rates_run",
            Json::Arr(rungs.iter().map(|r| Json::Num(r.rate)).collect()),
        ),
    ];
    Outcome {
        measured: m,
        attempted,
        failed,
        info,
    }
}
