//! `raxpp-launch` — the multi-process MPMD fleet launcher.
//!
//! This binary is both halves of a distributed RaxPP run, selected by
//! `--worker`:
//!
//! * **Driver** (default): compiles the training step, spawns one
//!   worker *process* per actor (re-executing this same binary with
//!   `--worker <id>`), and drives training through the single
//!   controller over Unix-domain sockets (or TCP with `--tcp`).
//!   Unless `--no-oracle` is given, an in-process mpsc twin trains on
//!   the same data and every loss and final parameter is compared
//!   **bitwise** — the run ends with `PARITY OK` only if the wire
//!   changed nothing.
//! * **Worker**: compiles the *identical* program from the same spec
//!   (compilation is deterministic — programs never cross the wire)
//!   and serves it via [`raxpp_runtime::serve_worker`] until the
//!   driver hangs up.
//!
//! `--kill STEP:ACTOR` delivers a real SIGKILL to a worker right
//! before the given step: the driver must surface the death as a
//! bounded-time `ActorDied`, respawn the process, restore the
//! last-known-good snapshot, and retry to a bit-identical trajectory.
//!
//! The model spec (`--width/--batch/--layers/--stages/--mb/--seed`)
//! must be identical between driver and workers; the driver forwards
//! its own spec when spawning, so this only matters when launching
//! workers by hand.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use raxpp_core::{
    compile_train_step, compile_train_step_on, compile_worker_program, CompileOptions, Optimizer,
    RetryPolicy, Trainer,
};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::{mlp_chain, BuiltModel};
use raxpp_runtime::{serve_worker, Runtime, TransportKind, WorkerConfig};
use raxpp_sched::{gpipe, one_f1b, Schedule};

/// The model/schedule spec shared verbatim between driver and workers.
#[derive(Debug, Clone)]
struct Spec {
    width: usize,
    batch: usize,
    layers: usize,
    stages: usize,
    mb: usize,
    seed: u64,
    one_f1b: bool,
}

impl Spec {
    fn model(&self) -> BuiltModel {
        mlp_chain(self.width, self.batch, self.layers, self.stages, self.seed)
            .expect("model spec is valid")
    }

    fn schedule(&self) -> Schedule {
        if self.one_f1b {
            one_f1b(self.stages, self.mb).expect("schedule spec is valid")
        } else {
            gpipe(self.stages, self.mb).expect("schedule spec is valid")
        }
    }

    /// The spec as command-line arguments, for spawning workers.
    fn forward_args(&self) -> Vec<String> {
        let mut v = vec![
            "--width".into(),
            self.width.to_string(),
            "--batch".into(),
            self.batch.to_string(),
            "--layers".into(),
            self.layers.to_string(),
            "--stages".into(),
            self.stages.to_string(),
            "--mb".into(),
            self.mb.to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ];
        if self.one_f1b {
            v.push("--1f1b".into());
        }
        v
    }
}

struct Args {
    spec: Spec,
    steps: u64,
    tcp: bool,
    dir: Option<PathBuf>,
    worker: Option<usize>,
    /// SIGKILL worker `actor` right before step `step` (0-based).
    kill: Option<(u64, usize)>,
    oracle: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: raxpp-launch [--steps N] [--width W] [--batch B] [--layers L] [--stages S]\n\
         \u{20}                   [--mb M] [--seed SEED] [--1f1b] [--tcp] [--dir PATH]\n\
         \u{20}                   [--kill STEP:ACTOR] [--no-oracle]\n\
         \u{20}      raxpp-launch --worker ID --dir PATH <same spec flags>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: Spec {
            width: 6,
            batch: 3,
            layers: 4,
            stages: 4,
            mb: 4,
            seed: 7,
            one_f1b: false,
        },
        steps: 4,
        tcp: false,
        dir: None,
        worker: None,
        kill: None,
        oracle: true,
    };
    let mut it = std::env::args().skip(1);
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--width" => args.spec.width = parse(&need(&mut it, "--width"), "--width"),
            "--batch" => args.spec.batch = parse(&need(&mut it, "--batch"), "--batch"),
            "--layers" => args.spec.layers = parse(&need(&mut it, "--layers"), "--layers"),
            "--stages" => args.spec.stages = parse(&need(&mut it, "--stages"), "--stages"),
            "--mb" => args.spec.mb = parse(&need(&mut it, "--mb"), "--mb"),
            "--seed" => args.spec.seed = parse(&need(&mut it, "--seed"), "--seed"),
            "--1f1b" => args.spec.one_f1b = true,
            "--steps" => args.steps = parse(&need(&mut it, "--steps"), "--steps"),
            "--tcp" => args.tcp = true,
            "--dir" => args.dir = Some(PathBuf::from(need(&mut it, "--dir"))),
            "--worker" => args.worker = Some(parse(&need(&mut it, "--worker"), "--worker")),
            "--kill" => {
                let v = need(&mut it, "--kill");
                let (s, a) = v.split_once(':').unwrap_or_else(|| {
                    eprintln!("--kill wants STEP:ACTOR, got {v}");
                    usage()
                });
                args.kill = Some((parse(s, "--kill step"), parse(a, "--kill actor")));
            }
            "--no-oracle" => args.oracle = false,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn parse<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("bad value for {flag}: {v}");
        usage()
    })
}

/// Seeded training data: `data[input][mubatch]`, derived from the spec
/// seed so driver and oracle consume identical bits.
fn make_data(spec: &Spec, schedule: &Schedule) -> Vec<Vec<Tensor>> {
    let mut rng = StdRng::seed_from_u64(spec.seed + 1);
    vec![(0..schedule.n_mubatches())
        .map(|_| Tensor::randn([spec.batch, spec.width], 1.0, &mut rng))
        .collect()]
}

fn run_worker(args: &Args) -> std::io::Result<()> {
    let me = args.worker.expect("worker mode");
    let dir = args.dir.clone().unwrap_or_else(|| {
        eprintln!("--worker requires --dir");
        usage()
    });
    let model = args.spec.model();
    let schedule = args.spec.schedule();
    let compile = move |schedule: &Schedule| {
        compile_worker_program(
            &model.jaxpr,
            model.n_params,
            schedule,
            Optimizer::Sgd { lr: 0.05 },
            CompileOptions::default(),
        )
    };
    let program = compile(&schedule).expect("worker compiles the shared spec");
    let cfg = WorkerConfig {
        me,
        n_actors: schedule.n_actors(),
        dir,
        tcp: args.tcp,
    };
    // After a rebalance the driver runs the spec's schedule folded by
    // `assign`; the spec compiles with no tp or dp, so raw actors are
    // pipeline hosts and `assign` folds the schedule as it stands.
    let refold = move |assign: &[usize]| {
        let folded = schedule.fold(assign).map_err(|e| e.to_string())?;
        compile(&folded).map_err(|e| e.to_string())
    };
    serve_worker(program, refold, &cfg)
}

fn run_driver(args: &Args) -> Result<(), String> {
    let model = args.spec.model();
    let schedule = args.spec.schedule();
    let data = make_data(&args.spec, &schedule);
    let dir = args.dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("raxpp-launch-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating fleet dir: {e}"))?;

    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let spec_args = args.spec.forward_args();
    let tcp = args.tcp;
    let spawn_dir = dir.clone();
    let spawn = Box::new(move |a: usize| {
        let mut cmd = Command::new(&exe);
        cmd.arg("--worker")
            .arg(a.to_string())
            .arg("--dir")
            .arg(&spawn_dir)
            .args(&spec_args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        if tcp {
            cmd.arg("--tcp");
        }
        cmd.spawn()
    });

    let t0 = Instant::now();
    let trainer = compile_train_step_on(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 0.05 },
        CompileOptions::default(),
        |program| Runtime::with_process_fleet(program, &dir, tcp, spawn),
    )
    .map_err(|e| format!("compile/launch: {e}"))?;
    trainer
        .init(&model.init)
        .map_err(|e| format!("init: {e}"))?;
    eprintln!(
        "fleet up: {} workers over {} in {:?}",
        schedule.n_actors(),
        if tcp { "tcp" } else { "uds" },
        t0.elapsed()
    );

    let oracle: Option<Trainer> = if args.oracle {
        let t = compile_train_step(
            &model.jaxpr,
            model.n_params,
            &schedule,
            Optimizer::Sgd { lr: 0.05 },
            CompileOptions {
                transport: Some(TransportKind::Mpsc),
                ..CompileOptions::default()
            },
        )
        .map_err(|e| format!("oracle compile: {e}"))?;
        t.init(&model.init)
            .map_err(|e| format!("oracle init: {e}"))?;
        Some(t)
    } else {
        None
    };

    let policy = RetryPolicy {
        max_retries: 3,
        backoff: Duration::ZERO,
        rebalance_after: None,
    };
    for step in 0..args.steps {
        if let Some((kstep, actor)) = args.kill {
            if kstep == step {
                let killed = trainer.runtime().kill_worker(actor);
                eprintln!("step {step}: SIGKILL worker {actor} (delivered: {killed})");
            }
        }
        let t_step = Instant::now();
        let out = trainer
            .step_with_recovery(&data, policy)
            .map_err(|e| format!("step {step}: {e}"))?;
        println!(
            "step {step}: mean_loss={:.6} wall={:?}",
            out.mean_loss,
            t_step.elapsed()
        );
        if let Some(oracle) = &oracle {
            let want = oracle
                .step_with_recovery(&data, policy)
                .map_err(|e| format!("oracle step {step}: {e}"))?;
            if out.losses != want.losses {
                return Err(format!(
                    "step {step}: losses diverged from mpsc oracle\n  wire:   {:?}\n  oracle: {:?}",
                    out.losses, want.losses
                ));
            }
        }
    }
    if let Some(oracle) = &oracle {
        let got = trainer.params().map_err(|e| format!("params: {e}"))?;
        let want = oracle.params().map_err(|e| format!("oracle params: {e}"))?;
        for (p, (a, b)) in got.iter().zip(&want).enumerate() {
            if a.data() != b.data() {
                return Err(format!("param {p} not bit-identical to mpsc oracle"));
            }
        }
        let stats = trainer.runtime().transport_stats();
        println!(
            "PARITY OK ({} steps, {} params bitwise; wire tx={}B rx={}B reconnects={})",
            args.steps,
            got.len(),
            stats.bytes_tx,
            stats.bytes_rx,
            stats.reconnects
        );
    } else {
        println!("DONE ({} steps)", args.steps);
    }
    Ok(())
}

fn main() {
    let args = parse_args();
    if let Some(me) = args.worker {
        if let Err(e) = run_worker(&args) {
            eprintln!("worker {me} failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = run_driver(&args) {
        eprintln!("raxpp-launch: {e}");
        std::process::exit(1);
    }
}
