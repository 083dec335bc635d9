//! The four training workloads: one thread calling `Trainer::step`
//! with library defaults, losses checked against a single-device
//! oracle (or, over sockets, an in-process twin).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use raxpp_core::{
    compile_train_step, compile_worker_program, CompileOptions, DpConfig, Optimizer, TpConfig,
    Trainer,
};
use raxpp_ir::rng::{Rng, SeedableRng, StdRng};
use raxpp_ir::{eval, eval_prim, value_and_grad, Jaxpr, Prim, Tensor};
use raxpp_models::{causal_mask, mlp_chain, one_hot, tiny_lm, BuiltModel, TinyLmConfig};
use raxpp_runtime::{Runtime, StepStats, StepTrace, TransportKind};
use raxpp_sched::{gpipe, one_f1b, simulate, Dir, Schedule, UniformCost};
use raxpp_taskgraph::program_stats;

use crate::catalog::{Measured, OP_PRIMS};
use crate::json::Json;
use crate::spans::{AttachedTrace, SpanLog};
use crate::stats::{median, percentile, samples_beyond, windowed};
use crate::{Outcome, RunArgs};

/// Steps before timing starts: caches fill, lazy set-up finishes.
const WARMUP_STEPS: usize = 3;
/// The timed phase never ends with fewer samples than this.
const MIN_TIMED_STEPS: usize = 20;
/// Leading steps (warm-up included) replayed on the single-device
/// oracle. Every step runs the same instruction streams, so a wrong
/// kernel, schedule or exchange shows in the first ones; replaying all
/// of them would double the run.
const ORACLE_STEPS: usize = 8;
/// Leading steps the in-process twin of the socket workload replays.
const TWIN_CHECK_STEPS: usize = 24;
/// Distinct step batches, cycled.
const DATA_POOL: usize = 8;
/// The tail percentile of step time: the highest with ten samples
/// beyond it at a hundred steps.
const TAIL_PERCENTILE: f64 = 90.0;
/// The tail and the throughput are medians over this many consecutive
/// windows of the timed phase (see `stats::windowed`).
const WINDOWS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Train {
    MlpGpipePp4,
    Lm1f1bPp2,
    Mlp1f1bPp4Uds,
    MlpGpipePp2Tp2Dp2,
}

/// How a workload's per-step losses are checked.
enum LossCheck {
    /// Every replayed step equals the single-device oracle bit for bit.
    OracleBitwise,
    /// Step 0 bit for bit; later steps within `tol * max(|x|, 1)`. Tier
    /// 2 of `docs/determinism.md`: the data-parallel gradient sum
    /// associates differently from the oracle's, which moves later
    /// losses within fp32 summation bounds.
    OracleStep0ThenWithin(f32),
    /// Bit for bit against the same program on the in-process fabric.
    MpscTwin,
}

const LM: TinyLmConfig = TinyLmConfig {
    seq: 16,
    vocab: 64,
    emb: 64,
    ffn: 256,
    blocks: 4,
    heads: 4,
    n_stages: 2,
    tied_embeddings: true,
};

impl Train {
    fn stages(self) -> usize {
        match self {
            Train::MlpGpipePp4 | Train::Mlp1f1bPp4Uds => 4,
            Train::Lm1f1bPp2 | Train::MlpGpipePp2Tp2Dp2 => 2,
        }
    }

    /// `(width, microbatch rows)` of the MLP workloads.
    fn mlp_dims(self) -> (usize, usize) {
        match self {
            Train::MlpGpipePp4 => (512, 64),
            Train::Mlp1f1bPp4Uds => (256, 256),
            Train::MlpGpipePp2Tp2Dp2 => (512, 128),
            Train::Lm1f1bPp2 => unreachable!("the LM has no MLP dims"),
        }
    }

    fn model(self, seed: u64) -> BuiltModel {
        match self {
            Train::Lm1f1bPp2 => tiny_lm(LM, seed),
            _ => {
                let (width, rows) = self.mlp_dims();
                mlp_chain(width, rows, self.stages(), self.stages(), seed)
            }
        }
        .expect("the workload's model is valid")
    }

    /// The schedule of one replica.
    fn schedule(self) -> Schedule {
        match self {
            Train::MlpGpipePp4 => gpipe(4, 4),
            Train::Lm1f1bPp2 => one_f1b(2, 16),
            Train::Mlp1f1bPp4Uds => one_f1b(4, 8),
            Train::MlpGpipePp2Tp2Dp2 => gpipe(2, 2),
        }
        .expect("the workload's schedule is valid")
    }

    fn dp_replicas(self) -> usize {
        match self {
            Train::MlpGpipePp2Tp2Dp2 => 2,
            _ => 1,
        }
    }

    /// Microbatches one step consumes across all replicas.
    fn global_mubatches(self) -> usize {
        self.dp_replicas() * self.schedule().n_mubatches()
    }

    fn optimizer(self) -> Optimizer {
        match self {
            Train::Lm1f1bPp2 => Optimizer::adam(1e-3),
            _ => Optimizer::Sgd { lr: 1e-3 },
        }
    }

    /// Library defaults plus what defines the workload. The fabric is
    /// always named, so that `RAXPP_TRANSPORT` is never consulted.
    fn options(self, transport: TransportKind) -> CompileOptions {
        let mut opts = CompileOptions {
            transport: Some(transport),
            ..CompileOptions::default()
        };
        if self == Train::MlpGpipePp2Tp2Dp2 {
            opts.tp = Some(TpConfig::model_parallel(2));
            opts.dp = Some(DpConfig::replicas(2));
        }
        opts
    }

    fn transport(self) -> TransportKind {
        match self {
            Train::Mlp1f1bPp4Uds => TransportKind::UnixSocket,
            _ => TransportKind::Mpsc,
        }
    }

    fn loss_check(self) -> LossCheck {
        match self {
            Train::MlpGpipePp4 | Train::Lm1f1bPp2 => LossCheck::OracleBitwise,
            Train::Mlp1f1bPp4Uds => LossCheck::MpscTwin,
            Train::MlpGpipePp2Tp2Dp2 => LossCheck::OracleStep0ThenWithin(1e-3),
        }
    }

    /// Rows (tokens on the LM) one step trains on.
    fn samples_per_step(self) -> f64 {
        let per_mb = match self {
            Train::Lm1f1bPp2 => LM.seq,
            _ => self.mlp_dims().1,
        };
        (per_mb * self.global_mubatches()) as f64
    }

    /// One step's `data[input][global microbatch]`.
    fn step_data(self, rng: &mut StdRng) -> Vec<Vec<Tensor>> {
        let n = self.global_mubatches();
        match self {
            Train::Lm1f1bPp2 => {
                let tokens: Vec<Vec<usize>> = (0..n)
                    .map(|_| (0..=LM.seq).map(|_| rng.gen_range(0..LM.vocab)).collect())
                    .collect();
                vec![
                    tokens
                        .iter()
                        .map(|t| one_hot(&t[..LM.seq], LM.vocab))
                        .collect(),
                    tokens.iter().map(|t| one_hot(&t[1..], LM.vocab)).collect(),
                    (0..n).map(|_| causal_mask(LM.seq)).collect(),
                ]
            }
            _ => {
                let (width, rows) = self.mlp_dims();
                vec![(0..n)
                    .map(|_| Tensor::randn([rows, width], 1.0, rng))
                    .collect()]
            }
        }
    }

    /// `(m, k, n)` of the workload's forward matmul: the layer GEMM on
    /// the MLPs, the FFN up-projection on the LM.
    fn matmul_dims(self) -> (usize, usize, usize) {
        match self {
            Train::Lm1f1bPp2 => (LM.seq, LM.emb, LM.ffn),
            _ => {
                let (width, rows) = self.mlp_dims();
                (rows, width, width)
            }
        }
    }
}

/// Builds the model, compiles, launches and initialises: the set-up a
/// user pays before the first step.
fn launch(kind: Train, model: &BuiltModel, transport: TransportKind) -> Trainer {
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &kind.schedule(),
        kind.optimizer(),
        kind.options(transport),
    )
    .expect("the workload compiles");
    trainer.init(&model.init).expect("the workload initialises");
    trainer
}

fn data_pool(kind: Train, seed: u64) -> Vec<Vec<Vec<Tensor>>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7A);
    (0..DATA_POOL).map(|_| kind.step_data(&mut rng)).collect()
}

/// Single-device trainer: whole-graph autodiff per microbatch,
/// gradients accumulated in the schedule's backward order, the
/// optimizer's own update graph per parameter. The plain one-worker
/// baseline and the loss oracle.
struct Oracle {
    grad_graph: Jaxpr,
    n_params: usize,
    params: Vec<Tensor>,
    /// Optimizer moments per parameter.
    state: Vec<Vec<Tensor>>,
    updates: Vec<Jaxpr>,
    bwd_order: Vec<usize>,
}

impl Oracle {
    fn new(kind: Train, model: &BuiltModel, grad_graph: Jaxpr) -> Oracle {
        let optimizer = kind.optimizer();
        let schedule = kind.schedule();
        // Microbatch order of actor 0's backward tasks, per replica in
        // ascending replica order: the order gradients accumulate in.
        let local: Vec<usize> = schedule.actors()[0]
            .iter()
            .filter(|t| t.dir == Dir::Bwd)
            .map(|t| t.mubatch)
            .collect();
        let n_local = schedule.n_mubatches();
        let bwd_order = (0..kind.dp_replicas())
            .flat_map(|r| local.iter().map(move |mb| r * n_local + mb))
            .collect();
        Oracle {
            grad_graph,
            n_params: model.n_params,
            params: model.init.clone(),
            state: model
                .init
                .iter()
                .map(|p| optimizer.init_state(p.shape()))
                .collect(),
            updates: model
                .init
                .iter()
                .map(|p| optimizer.update_jaxpr(p.shape()).expect("update graph"))
                .collect(),
            bwd_order,
        }
    }

    /// One step over all microbatches; returns per-microbatch losses.
    // `p` indexes four parallel per-parameter tables.
    #[allow(clippy::needless_range_loop)]
    fn step(&mut self, data: &[Vec<Tensor>]) -> Vec<f32> {
        let n_mb = data[0].len();
        let mut losses = Vec::with_capacity(n_mb);
        let mut per_mb: Vec<Vec<Tensor>> = Vec::with_capacity(n_mb);
        for mb in 0..n_mb {
            let mut args = self.params.clone();
            args.extend(data.iter().map(|d| d[mb].clone()));
            let outs = eval(&self.grad_graph, &args).expect("oracle eval");
            losses.push(outs[0].item().expect("scalar loss"));
            per_mb.push(outs[outs.len() - self.n_params..].to_vec());
        }
        for p in 0..self.n_params {
            let mut grad: Option<Tensor> = None;
            for &mb in &self.bwd_order {
                let g = per_mb[mb][p].clone();
                grad = Some(match grad {
                    None => g,
                    Some(acc) => acc.zip(&g, |a, b| a + b).expect("same shape"),
                });
            }
            let mut args = vec![self.params[p].clone(), grad.expect("one microbatch")];
            args.extend(self.state[p].iter().cloned());
            let mut outs = eval(&self.updates[p], &args).expect("oracle update");
            self.state[p] = outs.split_off(1);
            self.params[p] = outs.pop().expect("updated parameter");
        }
        losses
    }
}

/// Checks the leading steps of `got` against the oracle; returns how
/// many steps failed and the median oracle step time.
fn check_against_oracle(
    kind: Train,
    model: &BuiltModel,
    grad_graph: Jaxpr,
    pool: &[Vec<Vec<Tensor>>],
    got: &[Vec<f32>],
) -> (u64, f64) {
    let mut oracle = Oracle::new(kind, model, grad_graph);
    let mut failed = 0;
    let mut walls = Vec::new();
    for (i, got) in got.iter().take(ORACLE_STEPS).enumerate() {
        let t0 = Instant::now();
        let want = oracle.step(&pool[i % pool.len()]);
        walls.push(t0.elapsed().as_secs_f64());
        let ok = match kind.loss_check() {
            LossCheck::OracleStep0ThenWithin(tol) if i > 0 => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(x, y)| (x - y).abs() <= tol * y.abs().max(1.0))
            }
            _ => bits(got) == bits(&want),
        };
        if !ok {
            eprintln!("step {i}: losses {got:?} differ from the oracle's {want:?}");
            failed += 1;
        }
    }
    (failed, median(&walls))
}

fn bits(losses: &[f32]) -> Vec<u32> {
    losses.iter().map(|x| x.to_bits()).collect()
}

/// Steps, of those both runs made, whose losses differ in any bit.
fn steps_differing(a: &[Vec<f32>], b: &[Vec<f32>]) -> u64 {
    let differing = a.iter().zip(b).filter(|(a, b)| bits(a) != bits(b)).count();
    if differing > 0 {
        eprintln!("{differing} steps: socket losses differ from the mpsc twin's");
    }
    differing as u64
}

/// Steps whose losses are not all finite.
fn non_finite_steps(losses: &[Vec<f32>]) -> u64 {
    losses
        .iter()
        .filter(|l| l.iter().any(|x| !x.is_finite()))
        .count() as u64
}

/// One timed `Trainer::step`.
struct StepRec {
    /// Wall time measured here, outside the call.
    wall: f64,
    stats: StepStats,
}

/// Steps one trainer through the cycled pool, timing each step from
/// outside and keeping every step's losses for the output check.
struct Stepper<'a> {
    trainer: &'a Trainer,
    pool: &'a [Vec<Vec<Tensor>>],
    next: usize,
    losses: Vec<Vec<f32>>,
    failed: u64,
}

impl<'a> Stepper<'a> {
    fn new(trainer: &'a Trainer, pool: &'a [Vec<Vec<Tensor>>]) -> Stepper<'a> {
        Stepper {
            trainer,
            pool,
            next: 0,
            losses: Vec::new(),
            failed: 0,
        }
    }

    fn one(&mut self, traced: bool) -> Option<(StepRec, Option<StepTrace>)> {
        let data = &self.pool[self.next % self.pool.len()];
        self.next += 1;
        let t0 = Instant::now();
        let result = if traced {
            self.trainer.step_traced(data).map(|(r, t)| (r, Some(t)))
        } else {
            self.trainer.step(data).map(|r| (r, None))
        };
        let wall = t0.elapsed().as_secs_f64();
        match result {
            Ok((r, trace)) => {
                self.losses.push(r.losses);
                Some((
                    StepRec {
                        wall,
                        stats: r.stats,
                    },
                    trace,
                ))
            }
            Err(e) => {
                eprintln!("step {} failed: {e}", self.next - 1);
                self.failed += 1;
                None
            }
        }
    }

    /// Untraced steps until `budget` is spent and at least `min_steps`
    /// ran. A failed step is counted and ends the phase.
    fn run(&mut self, budget: Duration, min_steps: usize) -> Vec<StepRec> {
        let t0 = Instant::now();
        let mut recs = Vec::new();
        while t0.elapsed() < budget || recs.len() < min_steps {
            match self.one(false) {
                Some((rec, _)) => recs.push(rec),
                None => break,
            }
        }
        recs
    }
}

fn walls(recs: &[StepRec]) -> Vec<f64> {
    recs.iter().map(|r| r.wall).collect()
}

/// Σ over actors of the peak bytes resident in their object stores.
pub fn peak_store_mb(runtime: &Runtime) -> f64 {
    let bytes: usize = runtime
        .peak_store_bytes()
        .map(|v| v.iter().sum())
        .unwrap_or(0);
    bytes as f64 / 1e6
}

/// The untraced run: the end-to-end metrics.
pub fn run_end_to_end(kind: Train, args: &RunArgs) -> Outcome {
    let mut m = Measured::default();
    let mut info = Vec::new();

    let ((model, trainer), setup_s) = crate::repeated_setup(|| {
        let model = kind.model(args.seed);
        let trainer = launch(kind, &model, kind.transport());
        (model, trainer)
    });
    m.set("setup_s", setup_s);

    let pool = data_pool(kind, args.seed);

    // The socket workload's reference: the same program and data on
    // the in-process fabric, before the timed phase.
    let twin_losses = matches!(kind.loss_check(), LossCheck::MpscTwin).then(|| {
        let twin = launch(kind, &model, TransportKind::Mpsc);
        let mut stepper = Stepper::new(&twin, &pool);
        stepper.run(Duration::ZERO, TWIN_CHECK_STEPS);
        (stepper.losses, stepper.failed, stepper.next)
    });

    let mut stepper = Stepper::new(&trainer, &pool);
    stepper.run(Duration::ZERO, WARMUP_STEPS);
    let timed = stepper.run(Duration::from_secs_f64(args.seconds), MIN_TIMED_STEPS);

    let w = walls(&timed);
    m.set("latency_p50_s", percentile(&w, 50.0));
    m.set(
        "latency_tail_s",
        windowed(&w, WINDOWS, |w| percentile(w, TAIL_PERCENTILE)),
    );
    m.set(
        "throughput_per_s",
        windowed(&w, WINDOWS, |w| {
            kind.samples_per_step() * w.len() as f64 / w.iter().sum::<f64>()
        }),
    );
    m.set("peak_store_mb", peak_store_mb(trainer.runtime()));

    let mut failed = stepper.failed + non_finite_steps(&stepper.losses);
    let mut attempted = stepper.next;
    let checked = match twin_losses {
        Some((twin, twin_failed, twin_attempted)) => {
            attempted += twin_attempted;
            failed += twin_failed;
            failed += steps_differing(&twin, &stepper.losses);
            twin.len().min(stepper.losses.len())
        }
        None => {
            let wrt: Vec<usize> = (0..model.n_params).collect();
            let grad_graph = value_and_grad(&model.jaxpr, &wrt).expect("autodiff");
            let (bad, _) = check_against_oracle(kind, &model, grad_graph, &pool, &stepper.losses);
            failed += bad;
            ORACLE_STEPS.min(stepper.losses.len())
        }
    };

    info.push(("timed_steps", Json::Num(timed.len() as f64)));
    info.push((
        "samples_beyond_tail_per_window",
        Json::Num(samples_beyond(timed.len() / WINDOWS, TAIL_PERCENTILE) as f64),
    ));
    info.push((
        "steps_checked_bitwise_or_bounded",
        Json::Num(checked as f64),
    ));
    info.push(("final_loss", final_loss(&stepper.losses)));
    Outcome {
        measured: m,
        attempted: attempted as u64,
        failed,
        info,
    }
}

fn final_loss(losses: &[Vec<f32>]) -> Json {
    losses.last().map_or(Json::Null, |l| {
        Json::Num(f64::from(l.iter().sum::<f32>() / l.len() as f32))
    })
}

/// What the actor profiles of each untraced step add up to.
#[derive(Default)]
struct Ledger {
    steps: Vec<LedgerStep>,
}

struct LedgerStep {
    /// Seconds per instruction kind, summed over actors.
    by_kind: BTreeMap<&'static str, f64>,
    /// Actors times the step's dispatched wall: the time there was to
    /// account for.
    actor_time: f64,
    /// Wall measured outside `Trainer::step` minus the dispatched wall:
    /// placement, fetch, loss assembly.
    host_overhead: f64,
}

/// Kinds that are a share of another kind's span, not time of their own.
const NESTED_KINDS: [&str; 2] = ["collective_wait", "dp_collective_wait"];
const COMPUTE_KINDS: [&str; 7] = [
    "fwd",
    "bwd",
    "bwdw",
    "accum_grad",
    "ct_sum",
    "grad_reduce",
    "update",
];

impl Ledger {
    fn add(&mut self, rec: &StepRec) {
        let mut by_kind: BTreeMap<&'static str, f64> = BTreeMap::new();
        for p in &rec.stats.profiles {
            for (kind, dur, _) in p.entries() {
                *by_kind.entry(kind).or_default() += dur.as_secs_f64();
            }
        }
        let inner = rec.stats.wall.as_secs_f64();
        self.steps.push(LedgerStep {
            by_kind,
            actor_time: rec.stats.profiles.len() as f64 * inner,
            host_overhead: rec.wall - inner,
        });
    }

    /// Median over steps of the seconds spent in `kinds`.
    fn seconds(&self, kinds: &[&str]) -> f64 {
        self.median_of(|s| s.seconds(kinds))
    }

    /// Median over steps of the share of actor time spent in `kinds`.
    fn share(&self, kinds: &[&str]) -> f64 {
        self.median_of(|s| s.seconds(kinds) / s.actor_time)
    }

    /// Median over steps of the share of actor time no top-level kind
    /// covers: the ledger's reconciliation residual.
    fn unaccounted_share(&self) -> f64 {
        self.median_of(|s| {
            let accounted: f64 = s
                .by_kind
                .iter()
                .filter(|(k, _)| !NESTED_KINDS.contains(k))
                .map(|(_, v)| v)
                .sum();
            1.0 - accounted / s.actor_time
        })
    }

    fn median_of(&self, f: impl Fn(&LedgerStep) -> f64) -> f64 {
        median(&self.steps.iter().map(f).collect::<Vec<_>>())
    }
}

impl LedgerStep {
    fn seconds(&self, kinds: &[&str]) -> f64 {
        kinds.iter().filter_map(|k| self.by_kind.get(k)).sum()
    }
}

/// Median of `reps` timings of `f`, seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Times the `raxpp-ir` kernels at one workload's shapes: the forward
/// matmul `[m,k] x [k,n]`, the transpose + matmul pairs autodiff emits
/// for dX and dW, and the elementwise activations on `[m,n]`.
pub fn kernel_probes(m: &mut Measured, (mm, kk, nn): (usize, usize, usize), seed: u64) {
    const REPS: usize = 30;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4B45);
    let x = Tensor::randn([mm, kk], 1.0, &mut rng);
    let w = Tensor::randn([kk, nn], 0.05, &mut rng);
    let g = Tensor::randn([mm, nn], 1.0, &mut rng);
    let flops = 2.0 * (mm * kk * nn) as f64;
    let bb = std::hint::black_box::<&Tensor>;
    let fwd = time_median(REPS, || {
        std::hint::black_box(bb(&x).matmul(bb(&w)).expect("matmul"));
    });
    m.set("ir.matmul_gflops", flops / fwd / 1e9);
    let bwd = time_median(REPS, || {
        let wt = bb(&w).transpose().expect("transpose");
        std::hint::black_box(bb(&g).matmul(&wt).expect("dX"));
        let xt = bb(&x).transpose().expect("transpose");
        std::hint::black_box(xt.matmul(bb(&g)).expect("dW"));
    });
    m.set("ir.matmul_bwd_gflops", 2.0 * flops / bwd / 1e9);
    let transpose = time_median(REPS, || {
        std::hint::black_box(bb(&w).transpose().expect("transpose"));
    });
    // Computed traffic, one read and one write of every element; not
    // measured memory traffic.
    m.set(
        "ir.transpose_gb_s",
        8.0 * w.numel() as f64 / transpose / 1e9,
    );
    for (name, prim) in [
        ("ir.tanh_ns_per_elem", Prim::Tanh),
        ("ir.gelu_ns_per_elem", Prim::Gelu),
    ] {
        let t = time_median(REPS, || {
            std::hint::black_box(eval_prim(&prim, &[bb(&g)]).expect("activation"));
        });
        m.set(name, t * 1e9 / g.numel() as f64);
    }
}

/// Sets up once with each stage in its own span, and records what the
/// compiler produced. Returns the model, its whole-graph gradient (the
/// oracle's), the launched trainer and the schedule's ideal bubble.
fn traced_setup(
    kind: Train,
    args: &RunArgs,
    log: &mut SpanLog,
    m: &mut Measured,
) -> (BuiltModel, Jaxpr, Trainer, f64) {
    let schedule = kind.schedule();
    let model = log.scope("setup.build", 0, || kind.model(args.seed));
    let wrt: Vec<usize> = (0..model.n_params).collect();
    let grad_graph = log.scope("setup.grad", 0, || {
        value_and_grad(&model.jaxpr, &wrt).expect("autodiff")
    });
    let program = log.scope("setup.compile", 0, || {
        compile_worker_program(
            &model.jaxpr,
            model.n_params,
            &schedule,
            kind.optimizer(),
            kind.options(kind.transport()),
        )
        .expect("the workload compiles")
    });
    // `compile_train_step` compiles again and launches; what it takes
    // beyond the compile above is the launch.
    let trainer = log.scope("setup.launch", 0, || {
        compile_train_step(
            &model.jaxpr,
            model.n_params,
            &schedule,
            kind.optimizer(),
            kind.options(kind.transport()),
        )
        .expect("the workload compiles")
    });
    log.scope("setup.init", 0, || {
        trainer.init(&model.init).expect("the workload initialises")
    });
    let compile_s = log.total_s("setup.compile");
    m.set("ir.grad_s", log.total_s("setup.grad"));
    m.set("taskgraph.compile_s", compile_s);
    m.set(
        "runtime.launch_s",
        (log.total_s("setup.launch") - compile_s).max(0.0),
    );
    m.set("runtime.init_s", log.total_s("setup.init"));

    // Exact counts.
    let stats = program_stats(&program);
    let instrs: usize = program.actors.iter().map(Vec::len).sum();
    m.set("taskgraph.instrs_per_step", instrs as f64);
    m.set("taskgraph.p2p_msgs_per_step", stats.total_messages() as f64);
    m.set("taskgraph.p2p_bytes_per_step", stats.total_bytes() as f64);
    m.set("taskgraph.collectives_per_step", stats.collectives as f64);
    let ideal_bubble = simulate(&schedule, UniformCost::default())
        .expect("built-in schedules simulate")
        .bubble_ratio;
    m.set("sched.ideal_bubble_share", ideal_bubble);
    (model, grad_graph, trainer, ideal_bubble)
}

/// What the alternating step blocks of the traced run measured.
#[derive(Default)]
struct StepBlocks {
    ledger: Ledger,
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    twin_walls: Vec<f64>,
    /// Per traced step, seconds in `op` spans by primitive.
    op_s: BTreeMap<&'static str, Vec<f64>>,
    /// The last untraced step's stats: its counts repeat exactly.
    last_stats: Option<StepStats>,
    /// The last traced step's runtime trace, the index of its `step`
    /// span and the offset of the runtime's clock from the log's.
    last_trace: Option<(StepTrace, usize, i64)>,
}

/// Two blocks of a quarter of the run each in which untraced and traced
/// steps alternate, so host drift hits both alike; on the socket
/// workload a block of the mpsc twin precedes each for the same reason.
fn step_blocks(
    stepper: &mut Stepper<'_>,
    mut twin: Option<&mut Stepper<'_>>,
    args: &RunArgs,
    log: &mut SpanLog,
) -> StepBlocks {
    let mut b = StepBlocks::default();
    let block = Duration::from_secs_f64(args.seconds / 4.0);
    let min_pairs = MIN_TIMED_STEPS / 4;
    for _ in 0..2 {
        if let Some(twin) = twin.as_deref_mut() {
            b.twin_walls.extend(walls(&twin.run(block / 2, min_pairs)));
        }
        let t0 = Instant::now();
        let mut pairs = 0;
        while t0.elapsed() < block || pairs < min_pairs {
            let span = log.begin("step", stepper.next as u64);
            let rec = stepper.one(false);
            log.end(span);
            let Some((rec, _)) = rec else { return b };
            b.ledger.add(&rec);
            b.untraced_walls.push(rec.wall);
            b.last_stats = Some(rec.stats);

            let span = log.begin("step", stepper.next as u64);
            let offset_ns = log.now_ns() as i64 - stepper.trainer.runtime().now_ns() as i64;
            let rec = stepper.one(true);
            log.end(span);
            let Some((rec, Some(trace))) = rec else {
                return b;
            };
            b.traced_walls.push(rec.wall);
            for (prim, s) in op_seconds(&trace) {
                b.op_s.entry(prim).or_default().push(s);
            }
            b.last_trace = Some((trace, span, offset_ns));
            pairs += 1;
        }
    }
    b
}

/// Checkpoint save, restore and parameter read-back, five rounds;
/// returns how many rounds failed.
fn checkpoint_rounds(trainer: &Trainer, log: &mut SpanLog, m: &mut Measured) -> u64 {
    let mut failed = 0;
    let mut ckpt = Vec::new();
    let (mut save, mut load, mut fetch) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..5 {
        ckpt.clear();
        let t0 = Instant::now();
        let saved = log.scope("ckpt.save", i, || trainer.save_checkpoint(&mut ckpt));
        save.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let loaded = log.scope("ckpt.load", i, || {
            trainer.restore_checkpoint(ckpt.as_slice())
        });
        load.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let params = trainer.params();
        fetch.push(t0.elapsed().as_secs_f64());
        if saved.is_err() || loaded.is_err() || params.is_err() {
            eprintln!("checkpoint round {i} failed");
            failed += 1;
        }
    }
    m.set("core.ckpt_save_s", median(&save));
    m.set("core.ckpt_load_s", median(&load));
    m.set("core.ckpt_mb", ckpt.len() as f64 / 1e6);
    m.set("core.params_fetch_s", median(&fetch));
    failed
}

/// The traced run: the per-layer ledger.
pub fn run_per_layer(kind: Train, args: &RunArgs) -> Outcome {
    let mut m = Measured::default();
    let mut log = SpanLog::new();
    let (model, grad_graph, trainer, ideal_bubble) = traced_setup(kind, args, &mut log, &mut m);

    let pool = data_pool(kind, args.seed);
    let twin = (kind.transport() != TransportKind::Mpsc)
        .then(|| launch(kind, &model, TransportKind::Mpsc));
    let mut twin_stepper = twin.as_ref().map(|t| Stepper::new(t, &pool));
    let mut stepper = Stepper::new(&trainer, &pool);
    stepper.run(Duration::ZERO, WARMUP_STEPS);
    if let Some(ts) = twin_stepper.as_mut() {
        ts.run(Duration::ZERO, WARMUP_STEPS);
    }
    let wire_before = trainer.runtime().transport_stats().bytes_tx;
    let steps_before = stepper.next;
    let blocks = step_blocks(&mut stepper, twin_stepper.as_mut(), args, &mut log);
    let wire_bytes_per_step = (trainer.runtime().transport_stats().bytes_tx - wire_before) as f64
        / (stepper.next - steps_before) as f64;

    // Where a step's actor time went.
    let ledger = &blocks.ledger;
    let step_p50 = percentile(&blocks.untraced_walls, 50.0);
    m.set("runtime.compute_share", ledger.share(&COMPUTE_KINDS));
    let recv_share = ledger.share(&["recv"]);
    m.set("runtime.recv_wait_share", recv_share);
    m.set("runtime.bubble_excess", recv_share - ideal_bubble);
    m.set("runtime.send_s_per_step", ledger.seconds(&["send"]));
    m.set("runtime.free_s_per_step", ledger.seconds(&["free"]));
    m.set("runtime.unaccounted_share", ledger.unaccounted_share());
    m.set(
        "runtime.tp_collective_wait_share",
        ledger.share(&["collective_wait"]),
    );
    m.set(
        "runtime.dp_collective_wait_share",
        ledger.share(&["dp_collective_wait"]),
    );
    m.set("core.update_s_per_step", ledger.seconds(&["update"]));
    m.set(
        "core.host_step_overhead_s",
        ledger.median_of(|s| s.host_overhead),
    );
    m.set(
        "runtime.trace_overhead",
        percentile(&blocks.traced_walls, 50.0) / step_p50 - 1.0,
    );
    if let Some(stats) = &blocks.last_stats {
        let alloc = stats.alloc_stats();
        m.set(
            "ir.alloc_reuse_ratio",
            alloc.reused as f64 / (alloc.allocated + alloc.reused).max(1) as f64,
        );
        let sum = |f: fn(&raxpp_runtime::ActorProfile) -> u64| -> f64 {
            stats.profiles.iter().map(f).sum::<u64>() as f64
        };
        let tp_bytes = sum(|p| p.bytes_wire());
        m.set("runtime.tp_bytes_per_step", tp_bytes);
        m.set("runtime.dp_bytes_per_step", sum(|p| p.dp_bytes_wire()));
        if tp_bytes > 0.0 {
            m.set(
                "runtime.tp_overlap_ratio",
                sum(|p| p.bytes_overlap()) / tp_bytes,
            );
        }
        m.set("runtime.rpcs_per_step", stats.rpcs as f64);
    }
    for (prim, per_step) in &blocks.op_s {
        m.set(&format!("ir.op_s.{prim}"), median(per_step));
    }
    if !blocks.twin_walls.is_empty() {
        let twin_p50 = percentile(&blocks.twin_walls, 50.0);
        let overhead = step_p50 - twin_p50;
        m.set("runtime.mpsc_twin_step_p50_s", twin_p50);
        m.set("runtime.wire_overhead_s", overhead);
        m.set("runtime.wire_bytes_per_step", wire_bytes_per_step);
        if overhead > 0.0 {
            m.set("runtime.wire_mb_s", wire_bytes_per_step / overhead / 1e6);
        }
    }

    // The floor under a step: the same stages, microbatches, schedule,
    // fabric and parallelism over width-8 tensors.
    m.set("runtime.empty_step_s", empty_step_s(kind, args));

    // Kernels, the interpreter and the single-device baseline.
    kernel_probes(&mut m, kind.matmul_dims(), args.seed);
    let n_eqns = grad_graph.eqns().len();
    let mut one_mb = model.init.clone();
    one_mb.extend(pool[0].iter().map(|d| d[0].clone()));
    let eval_s = time_median(9, || {
        std::hint::black_box(eval(&grad_graph, &one_mb).expect("eval"));
    });
    m.set("ir.eval_us_per_eqn", eval_s * 1e6 / n_eqns as f64);
    let (mut failed, oracle_step_s) = match &twin_stepper {
        // The twin is the socket workload's oracle; the single-device
        // step is still timed, as the baseline.
        Some(twin) => {
            let mut oracle = Oracle::new(kind, &model, grad_graph);
            let t = time_median(3, || {
                std::hint::black_box(oracle.step(&pool[0]));
            });
            let differing = steps_differing(&twin.losses, &stepper.losses);
            (differing + twin.failed, t)
        }
        None => check_against_oracle(kind, &model, grad_graph, &pool, &stepper.losses),
    };
    m.set("ir.single_device_step_s", oracle_step_s);
    m.set("runtime.pipeline_speedup", oracle_step_s / step_p50);

    failed += checkpoint_rounds(&trainer, &mut log, &mut m);
    failed += stepper.failed + non_finite_steps(&stepper.losses);

    let attached = blocks
        .last_trace
        .as_ref()
        .map(|(trace, parent, offset_ns)| AttachedTrace {
            trace,
            parent: *parent,
            offset_ns: *offset_ns,
        });
    let info = vec![
        (
            "trace_file",
            crate::write_trace(args, &crate::spans::chrome_trace(&log, attached)),
        ),
        (
            "untraced_steps",
            Json::Num(blocks.untraced_walls.len() as f64),
        ),
        ("traced_steps", Json::Num(blocks.traced_walls.len() as f64)),
        ("step_p50_s", Json::Num(step_p50)),
        ("grad_graph_eqns", Json::Num(n_eqns as f64)),
        ("final_loss", final_loss(&stepper.losses)),
    ];
    Outcome {
        measured: m,
        attempted: (stepper.next + twin_stepper.map_or(0, |t| t.next)) as u64,
        failed,
        info,
    }
}

/// Seconds per step in `op` spans, by primitive, summed over actors;
/// primitives outside [`OP_PRIMS`] pool under `other`. `op` spans are
/// leaves, so their duration is their self time.
fn op_seconds(trace: &StepTrace) -> BTreeMap<&'static str, f64> {
    let mut by_prim: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in trace.actors.iter().flat_map(|a| &a.spans) {
        if span.kind == "op" {
            let prim = OP_PRIMS
                .iter()
                .find(|p| **p == span.name)
                .copied()
                .unwrap_or("other");
            *by_prim.entry(prim).or_default() += span.dur_ns as f64 * 1e-9;
        }
    }
    by_prim
}

fn empty_step_s(kind: Train, args: &RunArgs) -> f64 {
    const TINY: usize = 8;
    let stages = kind.stages();
    let model = mlp_chain(TINY, TINY, stages, stages, args.seed).expect("tiny model");
    let trainer = compile_train_step(
        &model.jaxpr,
        model.n_params,
        &kind.schedule(),
        Optimizer::Sgd { lr: 1e-3 },
        kind.options(kind.transport()),
    )
    .expect("tiny twin compiles");
    trainer.init(&model.init).expect("tiny twin initialises");
    let mut rng = StdRng::seed_from_u64(args.seed);
    let data = vec![(0..kind.global_mubatches())
        .map(|_| Tensor::randn([TINY, TINY], 1.0, &mut rng))
        .collect::<Vec<_>>()];
    let pool = [data];
    let mut stepper = Stepper::new(&trainer, &pool);
    stepper.run(Duration::ZERO, WARMUP_STEPS);
    let recs = stepper.run(Duration::from_secs_f64(args.seconds / 24.0), 100);
    percentile(&walls(&recs), 50.0)
}
