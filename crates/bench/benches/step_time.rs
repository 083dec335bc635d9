//! End-to-end training-step wall-time benchmark for the executable
//! MPMD path (ISSUE acceptance gate).
//!
//! Runs a 4-stage tanh MLP at `[256,1024]x[1024,1024]` scale under a
//! GPipe schedule on the default backend: blocked/parallel kernels,
//! zero-copy `Arc` tensors, and the buffer-reuse interpreter
//! (`RAXPP_THREADS=4`).
//!
//! Every variant starts from the same initial parameters and consumes
//! the same data stream, so per-step losses can be compared
//! **bitwise** — asserted here, which makes the benchmark double as an
//! integration check of the bit-compatibility contract. The
//! tensor-parallel variants (tp=2 and tp=4, collectives on the
//! in-process rendezvous) must reproduce the tp=1 losses bit for bit;
//! the data-parallel variant
//! (dp=2, each replica training a disjoint half of the same global
//! batch with gradient-sum all-reduces) is gated on step-0 bitwise
//! parity plus bounded later-step drift — tier 2 of
//! `docs/determinism.md` — and on per-replica microbatch accounting.
//!
//! Writes `BENCH_step.json` at the workspace root with median/p95 step
//! wall time, per-step RPC count, peak resident store bytes, allocator
//! stats, the measured speedups, and the tensor-parallel
//! wire/wait/overlap accounting — plus, next to it, `BENCH_trace.json`,
//! the chrome-trace export of one traced step (see
//! `docs/observability.md`), after asserting that tracing is zero-cost
//! while disabled.
//!
//! Knobs:
//!
//! * `RAXPP_BENCH_STEPS` — timed sample steps per variant (default 9;
//!   3 in quick mode);
//! * `RAXPP_BENCH_WARMUP` — untimed warmup steps per variant, excluded
//!   from every median/p95 (default 2; 1 in quick mode);
//! * `RAXPP_BENCH_QUICK` — any value but `0`: skip the tracing section
//!   and tp=4 and run only tp=1, tp=2, and the dp=2 replica pair, for
//!   the `scripts/verify.sh` regression gate (~seconds, not minutes);
//! * `RAXPP_BENCH_OUT` — override the JSON output path (quick mode
//!   should point this at a scratch file so the committed
//!   `BENCH_step.json` keeps its full-run numbers); the trace export
//!   lands in the same directory.

use std::time::{Duration, Instant};

use raxpp_bench::{median, percentile, rule, workspace_root, write_json, Json};
use raxpp_core::{compile_train_step, CompileOptions, DpConfig, Optimizer, TpConfig, Trainer};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::{set_num_threads, EvalStats, Tensor};
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_sched::gpipe;

const WIDTH: usize = 1024;
const BATCH: usize = 256;
const LAYERS: usize = 4;
const STAGES: usize = 4;
const N_MB: usize = 4;
const THREADS: usize = 4;

fn env_steps(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

/// A trainer for the bench model at the given tensor- and data-parallel
/// degrees. The schedule describes one replica: a dp trainer consumes
/// the same N_MB-microbatch global batch as dp=1, each replica executing
/// its disjoint N_MB/dp slice — a true throughput split.
fn build_trainer(model: &BuiltModel, tp: usize, dp: usize) -> Trainer {
    let schedule = gpipe(STAGES, N_MB / dp).unwrap();
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 1e-3 },
        CompileOptions {
            tp: (tp > 1).then(|| TpConfig::model_parallel(tp)),
            dp: (dp > 1).then(|| DpConfig::replicas(dp)),
            ..CompileOptions::default()
        },
    )
    .unwrap();
    trainer.init(&model.init).unwrap();
    trainer
}

/// One measured pass: `steps` timed training steps over pre-generated
/// per-step data. Returns per-step walls, per-step losses, and the
/// runtime stats of the final step.
struct Measured {
    walls: Vec<Duration>,
    losses: Vec<Vec<f32>>,
    rpcs: usize,
    peak_bytes: usize,
    alloc: EvalStats,
    kinds: Vec<(&'static str, Duration, u32)>,
}

fn run(trainer: &Trainer, data: &[Vec<Vec<Tensor>>]) -> Measured {
    let mut walls = Vec::new();
    let mut losses = Vec::new();
    let mut rpcs = 0;
    let mut alloc = EvalStats::default();
    let mut kind_map: std::collections::HashMap<&'static str, (Duration, u32)> =
        std::collections::HashMap::new();
    for step_data in data {
        let t0 = Instant::now();
        let out = trainer.step(step_data).unwrap();
        walls.push(t0.elapsed());
        losses.push(out.losses.clone());
        rpcs = out.stats.rpcs;
        alloc = out.stats.alloc_stats();
        kind_map.clear();
        for p in &out.stats.profiles {
            for (k, d, c) in p.entries() {
                let e = kind_map.entry(k).or_insert((Duration::ZERO, 0));
                e.0 += d;
                e.1 += c;
            }
        }
    }
    let mut kinds: Vec<_> = kind_map.into_iter().map(|(k, (d, c))| (k, d, c)).collect();
    kinds.sort_by_key(|x| std::cmp::Reverse(x.1));
    let peak_bytes = trainer
        .runtime()
        .peak_store_bytes()
        .map(|v| v.iter().sum())
        .unwrap_or(0);
    Measured {
        walls,
        losses,
        rpcs,
        peak_bytes,
        alloc,
        kinds,
    }
}

fn step_data(rng: &mut StdRng, steps: usize) -> Vec<Vec<Vec<Tensor>>> {
    (0..steps)
        .map(|_| {
            vec![(0..N_MB)
                .map(|_| Tensor::randn([BATCH, WIDTH], 1.0, rng))
                .collect()]
        })
        .collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One tensor-parallel variant: a fresh trainer at `degree`, warmed and
/// timed over the shared data stream, with every step's losses asserted
/// bitwise-equal to the tp=1 run.
struct TpVariant {
    timed: Measured,
    collectives: u64,
    wait_us: u64,
    overlap_ratio: f64,
    bytes_wire: u64,
}

fn run_tp_variant(
    model: &BuiltModel,
    data: &[Vec<Vec<Tensor>>],
    warmup: usize,
    degree: usize,
    warm_losses: &[Vec<f32>],
    fast_losses: &[Vec<f32>],
) -> TpVariant {
    let tag = format!("tp={degree}");
    let trainer = build_trainer(model, degree, 1);
    let warm = run(&trainer, &data[..warmup]);
    let timed = run(&trainer, &data[warmup..]);
    for (i, (got, want)) in warm
        .losses
        .iter()
        .chain(timed.losses.iter())
        .zip(warm_losses.iter().chain(fast_losses.iter()))
        .enumerate()
    {
        assert_eq!(
            got, want,
            "step {i}: {tag} losses diverge bitwise from tp=1"
        );
    }
    let m = trainer.metrics();
    let collectives = m.counter("tp_collectives_total");
    assert!(collectives > 0, "{tag} run executed no collectives");
    TpVariant {
        timed,
        collectives,
        wait_us: m.counter("tp_collective_wait_us"),
        overlap_ratio: m.gauge("tp_overlap_ratio").unwrap_or(0.0),
        bytes_wire: m.counter("tp_bytes_wire"),
    }
}

fn tp_json(degree: usize, v: &TpVariant) -> Json {
    Json::obj(vec![
        ("degree", Json::Num(degree as f64)),
        ("median_step_s", Json::Num(secs(median(&v.timed.walls)))),
        (
            "p95_step_s",
            Json::Num(secs(percentile(&v.timed.walls, 95.0))),
        ),
        ("collectives_per_run", Json::Num(v.collectives as f64)),
        ("bytes_wire", Json::Num(v.bytes_wire as f64)),
        ("collective_wait_us", Json::Num(v.wait_us as f64)),
        ("overlap_ratio", Json::Num(v.overlap_ratio)),
        ("bitwise_parity", Json::Bool(true)),
    ])
}

/// One data-parallel variant: a fresh trainer with `replicas` pipeline
/// replicas sharing out the same N_MB-microbatch global batch. The
/// determinism gate is two-tier (`docs/determinism.md`): the *first*
/// step's pre-update losses must be bitwise-equal to the dp=1 run;
/// every later step must agree within fp32-summation bounds (the
/// gradient fold associates differently across degrees). Per-replica
/// microbatch accounting is asserted from the executed profile spans:
/// every actor runs exactly N_MB/replicas forward tasks.
struct DpVariant {
    timed: Measured,
    collectives: u64,
    wait_us: u64,
    bytes_wire: u64,
    microbatches_per_replica: usize,
}

fn run_dp_variant(
    model: &BuiltModel,
    data: &[Vec<Vec<Tensor>>],
    warmup: usize,
    replicas: usize,
    warm_losses: &[Vec<f32>],
    fast_losses: &[Vec<f32>],
    tag: &str,
) -> DpVariant {
    let trainer = build_trainer(model, 1, replicas);
    let warm = run(&trainer, &data[..warmup]);
    let timed = run(&trainer, &data[warmup..]);
    for (i, (got, want)) in warm
        .losses
        .iter()
        .chain(timed.losses.iter())
        .zip(warm_losses.iter().chain(fast_losses.iter()))
        .enumerate()
    {
        if i == 0 {
            assert_eq!(
                got, want,
                "step 0: {tag} pre-update losses diverge bitwise from dp=1"
            );
        } else {
            for (m, (x, y)) in got.iter().zip(want).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-3 * x.abs().max(1.0),
                    "step {i} mubatch {m}: {tag} loss {x} drifted beyond bounds from dp=1 {y}"
                );
            }
        }
    }
    // Span-level accounting: one more (untimed) step, then check every
    // actor executed exactly its replica's share of forward tasks.
    let n_local = N_MB / replicas;
    let acct = trainer.step(&data[data.len() - 1]).unwrap();
    for (a, p) in acct.stats.profiles.iter().enumerate() {
        let fwd = p.get("fwd").map(|(_, c)| c as usize).unwrap_or(0);
        assert_eq!(
            fwd, n_local,
            "{tag}: actor {a} ran {fwd} forward tasks, want {n_local} (N/d)"
        );
    }
    let m = trainer.metrics();
    assert_eq!(
        m.gauge("dp_microbatches_per_replica"),
        Some(n_local as f64),
        "{tag}: wrong dp_microbatches_per_replica gauge"
    );
    let collectives = m.counter("dp_collectives_total");
    assert!(collectives > 0, "{tag} run executed no DP collectives");
    DpVariant {
        timed,
        collectives,
        wait_us: m.counter("dp_collective_wait_us"),
        bytes_wire: m.counter("dp_bytes_wire"),
        microbatches_per_replica: n_local,
    }
}

fn dp_json(replicas: usize, v: &DpVariant) -> Json {
    Json::obj(vec![
        ("replicas", Json::Num(replicas as f64)),
        ("median_step_s", Json::Num(secs(median(&v.timed.walls)))),
        (
            "p95_step_s",
            Json::Num(secs(percentile(&v.timed.walls, 95.0))),
        ),
        (
            "microbatches_per_replica",
            Json::Num(v.microbatches_per_replica as f64),
        ),
        ("dp_collectives_per_run", Json::Num(v.collectives as f64)),
        ("dp_bytes_wire", Json::Num(v.bytes_wire as f64)),
        ("dp_collective_wait_us", Json::Num(v.wait_us as f64)),
        // Step-0 (pre-update) losses bitwise vs dp=1; later steps are
        // bounded, not bitwise — tier 2 of docs/determinism.md.
        ("bitwise_parity", Json::Bool(true)),
    ])
}

fn main() {
    let quick = matches!(std::env::var("RAXPP_BENCH_QUICK").as_deref(), Ok(v) if v != "0");
    let steps = env_steps("RAXPP_BENCH_STEPS", if quick { 3 } else { 9 });
    let warmup = env_steps("RAXPP_BENCH_WARMUP", if quick { 1 } else { 2 });
    let available_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = mlp_chain(WIDTH, BATCH, LAYERS, STAGES, 42).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    // One shared data stream; every path replays the same prefix so the
    // parameter trajectories — and therefore per-step losses — align.
    let data = step_data(&mut rng, warmup + steps);

    println!(
        "step_time: {STAGES}-stage MLP, {LAYERS}x[{WIDTH},{WIDTH}] weights, \
         batch [{BATCH},{WIDTH}], {N_MB} microbatches, gpipe \
         ({warmup} warmup + {steps} timed steps, {available_cores} cores{})",
        if quick { ", quick mode" } else { "" },
    );
    rule(72);

    let out_path = match std::env::var("RAXPP_BENCH_OUT") {
        Ok(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => workspace_root().join("BENCH_step.json"),
    };

    // tp=1: blocked kernels + zero-copy interpreter.
    set_num_threads(THREADS);
    let trainer = build_trainer(&model, 1, 1);
    let warm = run(&trainer, &data[..warmup]); // warmup steps (untimed below)
    let fast = run(&trainer, &data[warmup..]);
    println!(
        "tp=1 ({THREADS} kernel threads): median {:>8.2?}  p95 {:>8.2?}  ({steps} steps)",
        median(&fast.walls),
        percentile(&fast.walls, 95.0),
    );
    println!(
        "  rpcs/step {}  peak store {:.1} MiB  alloc/reused/freed per step: {}/{}/{}",
        fast.rpcs,
        fast.peak_bytes as f64 / (1024.0 * 1024.0),
        fast.alloc.allocated,
        fast.alloc.reused,
        fast.alloc.freed,
    );
    for &(k, d, c) in &fast.kinds {
        println!("    {k:<15} {:>9.1?} total  ({c} instrs)", d);
    }

    // Tracing overhead gate (skipped in quick mode): pairs of one
    // untraced and one traced step over the same data, the order
    // alternating from pair to pair so neither population always runs
    // on the caches the other just warmed. The instrumentation must be
    // zero-cost when disabled — a traced step does strictly more work
    // (timestamps, span formatting, ring pushes) — so the untraced
    // median may exceed the traced one only by noise, and the noise
    // allowed is what the untraced population itself shows: its
    // inter-quartile spread. The last traced step's spans are exported
    // next to the JSON for Perfetto.
    let mut tracing_json = None;
    if !quick {
        let pairs = steps;
        let mut off_walls = Vec::with_capacity(pairs);
        let mut on_walls = Vec::with_capacity(pairs);
        let mut last_trace = None;
        for i in 0..pairs {
            let d = &data[warmup + (i % steps)];
            let traced_first = i % 2 == 1;
            for traced in [traced_first, !traced_first] {
                trainer.runtime().set_tracing(traced);
                let t0 = Instant::now();
                trainer.step(d).unwrap();
                if traced {
                    on_walls.push(t0.elapsed());
                    last_trace = trainer.runtime().take_step_trace();
                } else {
                    off_walls.push(t0.elapsed());
                }
            }
        }
        trainer.runtime().set_tracing(false);
        let (m_off, m_on) = (median(&off_walls), median(&on_walls));
        let off_iqr = percentile(&off_walls, 75.0) - percentile(&off_walls, 25.0);
        let traced_overhead = secs(m_on) / secs(m_off) - 1.0;
        println!(
            "tracing: untraced median {:>8.2?} (iqr {:.2?})  traced median {:>8.2?}  \
             (traced overhead {:+.1}%, {pairs} alternated pairs)",
            m_off,
            off_iqr,
            m_on,
            traced_overhead * 100.0,
        );
        assert!(
            m_off <= m_on + off_iqr,
            "tracing-disabled step ({m_off:?}) costs more than a traced step ({m_on:?}) \
             by more than the untraced runs' own spread ({off_iqr:?}): the disabled path \
             is not zero-cost"
        );
        let trace = last_trace.expect("traced step recorded no trace");
        let trace_path = out_path.with_file_name("BENCH_trace.json");
        std::fs::write(&trace_path, trace.chrome_trace_json()).unwrap();
        println!(
            "wrote {} ({} spans; load in Perfetto)",
            trace_path.display(),
            trace.span_count()
        );
        tracing_json = Some(Json::obj(vec![
            ("untraced_median_step_s", Json::Num(secs(m_off))),
            ("untraced_iqr_s", Json::Num(secs(off_iqr))),
            ("traced_median_step_s", Json::Num(secs(m_on))),
            ("traced_overhead", Json::Num(traced_overhead)),
            ("spans", Json::Num(trace.span_count() as f64)),
        ]));
    }

    // Tensor-parallel variants: the same model and data under PP×TP.
    // Bitwise loss parity with the tp=1 trainer is the determinism
    // contract's acceptance gate; the wall-time ratio is recorded as
    // `tp_speedup` (tp=2 vs tp=1). With fewer cores than shard actors
    // the lanes time-slice the CPUs, so `tp_speedup` measures
    // coordination overhead, not parallel compute — read it next to
    // `available_cores`.
    let tp2 = run_tp_variant(&model, &data, warmup, 2, &warm.losses, &fast.losses);
    let tp_speedup = secs(median(&fast.walls)) / secs(median(&tp2.timed.walls));
    println!(
        "tp=2 (8 shard actors):       median {:>8.2?}  p95 {:>8.2?}  \
         (bitwise parity OK, {} collectives, tp_speedup {tp_speedup:.2}x)",
        median(&tp2.timed.walls),
        percentile(&tp2.timed.walls, 95.0),
        tp2.collectives,
    );
    println!(
        "  wire {:.1} MiB  collective_wait {:.1} ms  overlap_ratio {:.2}",
        tp2.bytes_wire as f64 / (1024.0 * 1024.0),
        tp2.wait_us as f64 / 1000.0,
        tp2.overlap_ratio,
    );

    // Data-parallel variant: dp=2 shards the same 4-microbatch global
    // batch across two replicas (2 microbatches each) and sums
    // gradients with real DP all-reduces. Both trainers process the
    // same samples per step, so `dp_speedup` — the wall-time ratio — is
    // a true per-sample throughput ratio. Runs in quick mode too; the
    // `scripts/verify.sh` gate checks the per-replica microbatch
    // accounting and, on multi-core boxes, the speedup itself. On a
    // single-core box the replicas time-slice one CPU and the ratio
    // measures coordination overhead instead.
    let dp2 = run_dp_variant(&model, &data, warmup, 2, &warm.losses, &fast.losses, "dp=2");
    let dp_speedup = secs(median(&fast.walls)) / secs(median(&dp2.timed.walls));
    println!(
        "dp=2 (8 replica actors):     median {:>8.2?}  p95 {:>8.2?}  \
         ({}/{N_MB} µbatches per replica, {} DP collectives, dp_speedup {dp_speedup:.2}x)",
        median(&dp2.timed.walls),
        percentile(&dp2.timed.walls, 95.0),
        dp2.microbatches_per_replica,
        dp2.collectives,
    );
    println!(
        "  dp wire {:.1} MiB  dp_collective_wait {:.1} ms",
        dp2.bytes_wire as f64 / (1024.0 * 1024.0),
        dp2.wait_us as f64 / 1000.0,
    );

    let mut tp4_json = None;
    if !quick {
        // tp=4: 16 shard actors, deeper sharding of the same model.
        let tp4 = run_tp_variant(&model, &data, warmup, 4, &warm.losses, &fast.losses);
        println!(
            "tp=4 (16 shard actors):      median {:>8.2?}  p95 {:>8.2?}  \
             (bitwise parity OK, {} collectives, overlap_ratio {:.2})",
            median(&tp4.timed.walls),
            percentile(&tp4.timed.walls, 95.0),
            tp4.collectives,
            tp4.overlap_ratio,
        );
        tp4_json = Some(tp_json(4, &tp4));
    }

    let mut fields = vec![
        (
            "workload",
            Json::Str(format!(
                "{STAGES}-stage MLP {LAYERS}x[{WIDTH},{WIDTH}], batch [{BATCH},{WIDTH}], \
                 {N_MB} microbatches, gpipe"
            )),
        ),
        ("quick", Json::Bool(quick)),
        ("threads", Json::Num(THREADS as f64)),
        ("available_cores", Json::Num(available_cores as f64)),
        ("warmup_steps", Json::Num(warmup as f64)),
        ("steps", Json::Num(steps as f64)),
        ("median_step_s", Json::Num(secs(median(&fast.walls)))),
        ("p95_step_s", Json::Num(secs(percentile(&fast.walls, 95.0)))),
        ("rpcs_per_step", Json::Num(fast.rpcs as f64)),
        ("peak_store_bytes", Json::Num(fast.peak_bytes as f64)),
        (
            "alloc_per_step",
            Json::obj(vec![
                ("allocated", Json::Num(fast.alloc.allocated as f64)),
                ("reused", Json::Num(fast.alloc.reused as f64)),
                ("freed", Json::Num(fast.alloc.freed as f64)),
            ]),
        ),
    ];
    fields.push(("tensor_parallel", tp_json(2, &tp2)));
    if let Some(t) = tp4_json {
        fields.push(("tensor_parallel_tp4", t));
    }
    fields.push(("tp_speedup", Json::Num(tp_speedup)));
    fields.push(("data_parallel", dp_json(2, &dp2)));
    fields.push(("dp_speedup", Json::Num(dp_speedup)));
    if let Some(t) = tracing_json {
        fields.push(("tracing", t));
    }
    write_json(&out_path, &Json::obj(fields));
    println!("wrote {}", out_path.display());
}
