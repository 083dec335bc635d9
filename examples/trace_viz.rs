//! Trace a real 4-stage GPipe training step and export it next to the
//! simulator's predicted timeline for the same schedule.
//!
//! Produces two Chrome-trace JSON files (load either at
//! <https://ui.perfetto.dev> or `chrome://tracing`):
//!
//! * `target/trace_step.json` — the measured per-instruction timeline
//!   (one track per actor; `recv` spans are the pipeline bubble),
//! * `target/trace_predicted.json` — the uniform-cost simulator's
//!   prediction under task durations derived from the measured trace,
//!
//! and prints the `bubble_report()` diff of measured vs predicted
//! per-stage idle time. See `docs/observability.md` for how to read the
//! trace.
//!
//! Run with: `cargo run --release -p raxpp-examples --bin trace_viz`

use std::fs;

use raxpp_core::{CompileOptions, Optimizer, RemoteMesh};
use raxpp_ir::rng::{SeedableRng, StdRng};
use raxpp_ir::Tensor;
use raxpp_models::mlp_chain;
use raxpp_sched::{gpipe, simulate, UniformCost};
use raxpp_simcluster::chrome_trace_json;

const STAGES: usize = 4;
const N_MB: usize = 4;
const WIDTH: usize = 128;
const BATCH: usize = 32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-stage, 8-layer MLP under GPipe with 4 microbatches.
    let model = mlp_chain(WIDTH, BATCH, 2 * STAGES, STAGES, 7)?;
    let schedule = gpipe(STAGES, N_MB)?;
    let mesh = RemoteMesh::new(STAGES, (1, 1));
    let trainer = mesh.distributed(
        &model.jaxpr,
        model.n_params,
        &schedule,
        Optimizer::Sgd { lr: 0.01 },
        CompileOptions::default(),
    )?;
    trainer.init(&model.init)?;
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<Vec<Tensor>> = vec![(0..N_MB)
        .map(|_| Tensor::randn([BATCH, WIDTH], 1.0, &mut rng))
        .collect()];

    // Warm up (first-touch allocations, thread-pool spin-up), then trace
    // one steady-state step.
    for _ in 0..2 {
        trainer.step(&data)?;
    }
    let (result, trace) = trainer.step_traced(&data)?;
    println!(
        "traced step: loss {:.4}, {} spans across {} actors",
        result.mean_loss,
        trace.span_count(),
        trace.actors.len()
    );

    fs::create_dir_all("target")?;
    let measured_path = "target/trace_step.json";
    fs::write(measured_path, trace.chrome_trace_json())?;
    println!("wrote {measured_path} (load in Perfetto / chrome://tracing)");

    // The simulator's prediction for the same schedule, under per-task
    // durations taken from the measured trace — the same cost model
    // bubble_report() diffs against.
    let report = trainer.bubble_report(&trace);
    let median_kind = |kind: &str| -> f64 {
        let mut durs: Vec<f64> = trace
            .actors
            .iter()
            .flat_map(|a| a.spans.iter())
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect();
        durs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        durs.get(durs.len() / 2).copied().unwrap_or(0.0)
    };
    let fwd = median_kind("fwd");
    let cost = UniformCost {
        fwd,
        bwd: median_kind("bwd").max(fwd),
        wgrad: 0.0,
        p2p: 0.0,
    };
    let sim = simulate(&schedule, cost)?;
    let predicted_path = "target/trace_predicted.json";
    // Simulated time is unitless; read it as microseconds.
    fs::write(predicted_path, chrome_trace_json(&sim.timeline, 1.0))?;
    println!("wrote {predicted_path} (same schema; diff against the measured trace)");

    println!("\n{report}");
    println!("metrics after {} steps:\n{}", 3, trainer.metrics().render());
    Ok(())
}
