//! Command-line front end to the cluster simulator: evaluate any
//! parallelism configuration of the paper's workloads, or auto-tune one,
//! without writing code.
//!
//! ```text
//! cargo run --release -p raxpp-examples --bin simulate_cli -- \
//!     --model gpt3 --pp 8 --tp 8 --dp 1 --mbs 4 --ga 32 --repeat 6 \
//!     --schedule interleaved --trace /tmp/step.trace.json
//!
//! cargo run --release -p raxpp-examples --bin simulate_cli -- \
//!     --model llama2 --tune --gpus 64 --gbs 128
//! ```

use std::collections::HashMap;

use raxpp_simcluster::{
    chrome_trace_json, simulate_pipeline, tune, ClusterSpec, ModelConfig, ParallelConfig,
    ScheduleKind, SimOptions, TunerOptions,
};

fn usage() -> ! {
    eprintln!(
        "usage: simulate_cli --model <gpt3|llama2> [--tune --gpus N --gbs N] |\n\
         \x20      [--pp N --tp N --dp N --mbs N --ga N --repeat N\n\
         \x20       --schedule <gpipe|1f1b|interleaved|zb> [--sync-p2p] [--trace FILE]]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: HashMap<String, String> = HashMap::new();
    let mut flags: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            usage()
        };
        match key {
            "tune" | "sync-p2p" => flags.push(key.to_string()),
            _ => {
                let Some(v) = it.next() else { usage() };
                args.insert(key.to_string(), v);
            }
        }
    }
    let get = |k: &str, default: usize| -> usize {
        args.get(k)
            .map(|v| v.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(default)
    };
    let model = match args.get("model").map(String::as_str) {
        Some("gpt3") | None => ModelConfig::gpt3_175b(),
        Some("llama2") => ModelConfig::llama2_70b(),
        _ => usage(),
    };
    let eos = ClusterSpec::eos();

    if flags.iter().any(|f| f == "tune") {
        let gpus = get("gpus", 64);
        let gbs = get("gbs", 128);
        let results = tune(&model, gpus, gbs, &eos, &TunerOptions::default());
        println!(
            "{} feasible configurations for {model} on {gpus} GPUs @ GBS {gbs}:",
            results.len()
        );
        for (i, c) in results.iter().take(15).enumerate() {
            println!(
                "{:>3}. {:<46} {:>7.2}s {:>6.0} TFLOPS",
                i + 1,
                c.config.to_string(),
                c.report.step_time,
                c.report.tflops_per_gpu
            );
        }
        return;
    }

    let schedule = match args.get("schedule").map(String::as_str) {
        Some("gpipe") => ScheduleKind::GPipe,
        Some("1f1b") => ScheduleKind::OneF1B,
        Some("interleaved") | None => ScheduleKind::Interleaved1F1B,
        Some("zb") => ScheduleKind::ZeroBubbleH1,
        _ => usage(),
    };
    let par = ParallelConfig {
        pp: get("pp", 8),
        tp: get("tp", 8),
        dp: get("dp", 1),
        microbatch: get("mbs", 4),
        n_microbatches: get("ga", 32),
        circular_repeat: get(
            "repeat",
            if schedule == ScheduleKind::Interleaved1F1B {
                6
            } else {
                1
            },
        ),
        schedule,
    };
    let opts = SimOptions {
        async_p2p: !flags.iter().any(|f| f == "sync-p2p"),
        ..SimOptions::default()
    };
    match simulate_pipeline(&model, par, &eos, &opts) {
        Ok(r) => {
            println!("{model}");
            println!(
                "config        : {par}  ({} GPUs, GBS {})",
                par.gpus(),
                par.global_batch()
            );
            println!("step time     : {:.2} s", r.step_time);
            println!(
                "throughput    : {:.0} TFLOPS/device ({:.1}% MFU)",
                r.tflops_per_gpu,
                r.mfu * 100.0
            );
            println!(
                "memory        : {:.1} GB peak, remat {:?}",
                r.peak_mem_bytes / 1e9,
                r.remat_policy
            );
            let b = r.breakdown;
            println!(
                "breakdown     : compute {:.2}s | remat {:.2}s | tp-comm {:.2}s | p2p {:.3}s | \
                 dispatch {:.3}s | bubble {:.2}s | dp+opt {:.2}s",
                b.compute, b.remat, b.tp_comm, b.p2p_exposed, b.dispatch, b.bubble, b.dp_and_opt
            );
            if let Some(path) = args.get("trace") {
                std::fs::write(path, chrome_trace_json(&r.timeline, 1e6)).expect("write trace");
                println!("trace         : {path} (open at https://ui.perfetto.dev)");
            }
        }
        Err(e) => {
            eprintln!("infeasible configuration: {e}");
            std::process::exit(1);
        }
    }
}
