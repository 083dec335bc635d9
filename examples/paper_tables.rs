//! The one printer of the paper's evaluation (§5) on the calibrated
//! cluster model: every section prints exactly one fenced block of
//! `EXPERIMENTS.md` (`scripts/check_experiments.sh` diffs them), and the
//! shapes the paper claims are asserted by the tier-1 tests of
//! `raxpp_simcluster::experiments`.
//!
//! ```text
//! cargo run --release -p raxpp-examples --bin paper_tables -- \
//!     [--table 1 | --figure 6..10 | --ablations | --tuner | --all]
//! ```

use raxpp_ir::TraceCtx;
use raxpp_sched::one_f1b;
use raxpp_simcluster::experiments::{
    figure10, figure6, figure7, figure8, paper, table1, SweepPoint, Table1Row,
};
use raxpp_simcluster::{
    simulate_pipeline, tune, ClusterSpec, ModelConfig, ParallelConfig, RematPolicy, ScheduleKind,
    SimOptions, StepReport, TunerOptions,
};
use raxpp_taskgraph::{pipeline_model, program_stats, unroll_loop, UnrollOptions};

fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

fn pct_err(measured: f64, paper: f64) -> String {
    format!("{:+.1}%", (measured - paper) / paper * 100.0)
}

/// Table 1: step time and TFLOPS/device for RaxPP (JaxPP), JAX FSDP, JAX
/// SPMD PP and NeMo on GPT-3 175B (64-1024 GPUs) and Llama2 70B.
fn print_table1(eos: &ClusterSpec) {
    let rows = table1(eos).expect("table 1 configs are feasible");
    println!("Table 1 — training performance (simulated DGX H100 / NDR400 cluster)");
    println!(
        "{:<16}{:<12}{:>6}{:>7} | {:>9}{:>9}{:>8} | {:>8}{:>8}{:>8}",
        "System", "Model", "GBS", "GPUs", "step(s)", "paper", "err", "TFLOPS", "paper", "err"
    );
    rule(100);
    let mut worst = 0.0f64;
    for row in &rows {
        println!(
            "{:<16}{:<12}{:>6}{:>7} | {:>9.2}{:>9.2}{:>8} | {:>8.0}{:>8.0}{:>8}",
            row.system,
            row.model,
            row.gbs,
            row.gpus,
            row.step_time,
            row.paper_step,
            pct_err(row.step_time, row.paper_step),
            row.tflops,
            row.paper_tflops,
            pct_err(row.tflops, row.paper_tflops),
        );
        for (measured, paper) in [
            (row.step_time, row.paper_step),
            (row.tflops, row.paper_tflops),
        ] {
            worst = worst.max(((measured - paper) / paper).abs());
        }
    }
    println!(
        "\nworst-case deviation from the paper: {:.1}%",
        worst * 100.0
    );
}

/// The grid of Figures 6 and 7: one row per value in `rows` of the swept
/// knob (`knob(point)`), one column per microbatch size.
fn print_grid(
    pts: &[SweepPoint],
    (label, width, rows): (&str, usize, &[usize]),
    knob: fn(&SweepPoint) -> usize,
    cell: fn(&StepReport) -> String,
) {
    println!(
        "{label:>width$} | {:>10} {:>10} {:>10}",
        "mbs=1", "mbs=2", "mbs=4"
    );
    rule(width + 38);
    for &row in rows {
        print!("{row:>width$} |");
        for mbs in [1usize, 2, 4] {
            let p = pts
                .iter()
                .find(|p| knob(p) == row && p.microbatch == mbs)
                .expect("grid point");
            match &p.report {
                Ok(r) => print!(" {:>10}", cell(r)),
                Err(e) => print!(" {:>10}", e.to_string()),
            }
        }
        println!();
    }
}

/// Figure 6 (§5.1.1): step time across circular repeat × microbatch size.
fn print_figure6(eos: &ClusterSpec) {
    let pts = figure6(eos);
    println!("Figure 6 — GPT-3 175B, 64 GPUs (PP=8, TP=8), GBS 128");
    println!("step time in seconds; columns = microbatch size\n");
    print_grid(
        &pts,
        ("repeat", 8, &[1, 2, 3, 4, 6, 12]),
        |p| p.circular_repeat,
        |r| format!("{:.2}", r.step_time),
    );
    let best = |mbs: usize| {
        pts.iter()
            .filter(|p| p.microbatch == mbs)
            .filter_map(|p| Some((p.circular_repeat, p.report.as_ref().ok()?.step_time)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0
    };
    println!(
        "\nbest repeat per microbatch size: mbs=1 → {}, mbs=2 → {}, mbs=4 → {}",
        best(1),
        best(2),
        best(4)
    );
    println!("paper shape: interior optimum — improving with repeat, then");
    println!("falling off as dispatch overheads emerge; larger microbatches win.");
}

/// Figure 7 (§5.1.2): TFLOPS/device across accumulation × microbatch size.
fn print_figure7(eos: &ClusterSpec) {
    println!("Figure 7 — GPT-3 175B, 64 GPUs (PP=8, TP=8), repeat 6");
    println!("TFLOPS per device; columns = microbatch size\n");
    print_grid(
        &figure7(eos),
        ("GA", 6, &[8, 16, 32, 64, 128]),
        |p| p.n_microbatches,
        |r| format!("{:.0}", r.tflops_per_gpu),
    );
    println!("\npaper shape: utilization rises with accumulation (smaller bubble)");
    println!("and with microbatch size (better kernels); note the paper's caveat");
    println!("that more accumulation also lengthens end-to-end training time.");
}

/// Figure 8: weak scaling 64 → 1024 GPUs, RaxPP vs JAX FSDP.
fn print_figure8(eos: &ClusterSpec) {
    let rows = figure8(eos).expect("figure 8 configs are feasible");
    println!("Figure 8 — weak scaling, GPT-3 175B, GBS 2/GPU");
    println!(
        "{:>6} | {:>14} {:>14} | {:>14} {:>14}",
        "GPUs", "RaxPP step(s)", "RaxPP TFLOPS", "FSDP step(s)", "FSDP TFLOPS"
    );
    rule(72);
    for row in &rows {
        println!(
            "{:>6} | {:>14.2} {:>14.0} | {:>14.2} {:>14.0}",
            row.gpus,
            row.jaxpp.step_time,
            row.jaxpp.tflops_per_gpu,
            row.fsdp.step_time,
            row.fsdp.tflops_per_gpu
        );
    }
    let (first, last) = (&rows[0], rows.last().unwrap());
    println!(
        "\nweak-scaling efficiency 64 → 1024 GPUs: RaxPP {:.2}% (paper {:.2}%), \
         FSDP {:.2}% (paper {:.2}%)",
        first.jaxpp.step_time / last.jaxpp.step_time * 100.0,
        paper::WEAK_SCALING_JAXPP * 100.0,
        first.fsdp.step_time / last.fsdp.step_time * 100.0,
        paper::WEAK_SCALING_FSDP * 100.0
    );
}

/// Figure 9 (§5.2): Table 1's throughputs normalized to RaxPP.
fn print_figure9(eos: &ClusterSpec) {
    let rows = table1(eos).expect("table 1 configs are feasible");
    for (model, gpus) in [("GPT-3 175B", 128usize), ("Llama2 70B", 64)] {
        // GPT-3 has RaxPP and FSDP rows at five scales; compare at `gpus`.
        let at_scale = |r: &&Table1Row| {
            r.model == model
                && (model != "GPT-3 175B"
                    || !matches!(r.system, "RaxPP (JaxPP)" | "JAX FSDP")
                    || r.gpus == gpus)
        };
        let base = rows
            .iter()
            .filter(at_scale)
            .find(|r| r.system == "RaxPP (JaxPP)")
            .unwrap();
        println!("Figure 9 — {model} ({gpus} GPUs), throughput relative to RaxPP");
        println!(
            "{:>16} | {:>10} {:>10} {:>8}",
            "system", "TFLOPS", "relative", "bar"
        );
        rule(52);
        for r in rows.iter().filter(at_scale) {
            let rel = (base.step_time / r.step_time) * (r.gbs as f64 / base.gbs as f64);
            let bar = "#".repeat((rel * 20.0).round() as usize);
            println!("{:>16} | {:>10.0} {:>10.3} {bar}", r.system, r.tflops, rel);
        }
        println!();
    }
    println!(
        "paper ratios on GPT-3: SPMD PP 1/{:.3}, FSDP 1/{:.2}, NeMo 1/{:.3}",
        paper::SPEEDUP_OVER_SPMD_PP,
        paper::SPEEDUP_OVER_FSDP,
        paper::FRACTION_OF_NEMO
    );
}

/// Figure 10 (§5.3): the SPMD-PP → RaxPP waterfall, one mechanism at a
/// time.
fn print_figure10(eos: &ClusterSpec) {
    let f = figure10(eos).expect("figure 10 configs are feasible");
    println!("Figure 10 — overhead decomposition, GPT-3 175B @ 128 GPUs, GBS 256\n");
    println!("{:<44} {:>9} {:>8}", "variant", "step(s)", "remat");
    rule(64);
    for (label, r) in [
        ("JAX SPMD PP (GPipe, full remat, sync P2P)", &f.spmd_pp),
        ("  + asynchronous P2P overlap (§4.2)", &f.spmd_async_p2p),
        ("  + 1F1B schedule → no full remat (§5.3)", &f.one_f1b),
        ("RaxPP: interleaved 1F1B (§5.1.1)", &f.jaxpp),
    ] {
        println!(
            "{label:<44} {:>9.2} {:>8}",
            r.step_time,
            format!("{:?}", r.remat_policy)
        );
    }
    let share = |from: f64, to: f64| (from - to) / f.spmd_pp.step_time * 100.0;
    println!("\nsavings attribution (fraction of the SPMD PP step):");
    println!(
        "  async send/recv overlap : {:>5.1}%",
        share(f.spmd_pp.step_time, f.spmd_async_p2p.step_time)
    );
    println!(
        "  rematerialization removed: {:>5.1}%   (paper ≈ {:.0}%)",
        share(f.spmd_async_p2p.step_time, f.one_f1b.step_time),
        paper::REMAT_SHARE * 100.0
    );
    println!(
        "  finer interleaving       : {:>5.1}%",
        share(f.one_f1b.step_time, f.jaxpp.step_time)
    );
}

/// Ablations of the design decisions of §3.4, §4.2, §4.4, §5.3 and the
/// zero-bubble extension: message counts on the compiled program, times
/// on the performance model.
fn print_ablations(eos: &ClusterSpec) {
    // Loop commuting (§3.4): a weight tied across both stages.
    let ctx = TraceCtx::new();
    let w = ctx.input([8, 8]);
    let x = ctx.input([2, 8]);
    let h = ctx.pipeline_yield(&x.matmul(&w).unwrap().tanh());
    let y = h.matmul(&w).unwrap();
    let loss = y.mul(&y).unwrap().sum();
    let jaxpr = ctx.finish(&[loss]).unwrap();
    let model = pipeline_model(&jaxpr, 1).unwrap();
    let schedule = one_f1b(2, 16).unwrap();
    println!("Ablation 1 — loop commuting (§3.4), tied weight, 16 microbatches");
    println!(
        "{:<12} {:>10} {:>14} {:>16}",
        "mode", "messages", "grad messages", "bytes on wire"
    );
    rule(56);
    for (mode, loop_commuting) in [("commuted", true), ("naive", false)] {
        let compiled = unroll_loop(&model, &schedule, UnrollOptions { loop_commuting }).unwrap();
        let stats = program_stats(&compiled.program);
        let msgs = stats.total_messages();
        let grad_msgs = msgs - 2 * 16; // minus activations + cotangents
        println!(
            "{mode:<12} {msgs:>10} {grad_msgs:>14} {:>16}",
            stats.total_bytes()
        );
    }
    println!("commuted: one gradient message total; naive: one per microbatch.\n");

    let gpt3 = ModelConfig::gpt3_175b();
    let par = ParallelConfig::jaxpp_gpt3(1);
    let run = |par: ParallelConfig, opts: SimOptions| simulate_pipeline(&gpt3, par, eos, &opts);

    println!("Ablation 2 — task fusion (§4.4), GPT-3 175B @ 64 GPUs");
    for (label, per_task_rpc) in [("fused (1/actor)", false), ("per-task RPCs", true)] {
        let opts = SimOptions {
            per_task_rpc,
            ..SimOptions::default()
        };
        let r = run(par, opts).unwrap();
        println!(
            "  {label:<18} step {:>6.2}s  dispatch {:>6.3}s/GPU",
            r.step_time, r.breakdown.dispatch
        );
    }

    println!("\nAblation 3 — asynchronous P2P (§4.2)");
    for (label, async_p2p) in [("async", true), ("sync", false)] {
        let opts = SimOptions {
            async_p2p,
            ..SimOptions::default()
        };
        let r = run(par, opts).unwrap();
        println!(
            "  {label:<6} step {:>6.2}s  sender-blocked {:>6.3}s/GPU",
            r.step_time, r.breakdown.sync_send_block
        );
    }

    println!("\nAblation 4 — rematerialization policy (§5.3)");
    for (label, force_remat) in [
        ("auto", None),
        ("selective", Some(RematPolicy::Selective)),
        ("full", Some(RematPolicy::Full)),
    ] {
        let opts = SimOptions {
            force_remat,
            ..SimOptions::default()
        };
        match run(par, opts) {
            Ok(r) => println!(
                "  {label:<10} step {:>6.2}s  remat {:>6.3}s/GPU  mem {:>5.1} GB ({:?})",
                r.step_time,
                r.breakdown.remat,
                r.peak_mem_bytes / 1e9,
                r.remat_policy
            ),
            Err(e) => println!("  {label:<10} infeasible: {e}"),
        }
    }

    println!("\nAblation 5 — zero-bubble split backward (extension)");
    for (label, schedule) in [
        ("1f1b", ScheduleKind::OneF1B),
        ("zb-h1", ScheduleKind::ZeroBubbleH1),
    ] {
        let par = ParallelConfig {
            circular_repeat: 1,
            schedule,
            ..par
        };
        let r = run(par, SimOptions::default()).unwrap();
        println!(
            "  {label:<6} step {:>6.2}s  bubble {:>6.3}s/GPU  {:>4.0} TFLOPS",
            r.step_time, r.breakdown.bubble, r.tflops_per_gpu
        );
    }
}

/// Auto-tuner sweep (extension): every feasible (pp, tp, dp, microbatch,
/// accumulation, repeat, schedule) ranked by step time.
fn print_tuner(eos: &ClusterSpec) {
    for (i, model) in [ModelConfig::gpt3_175b(), ModelConfig::llama2_70b()]
        .iter()
        .enumerate()
    {
        if i > 0 {
            println!();
        }
        let (gpus, gbs) = (64, 128);
        let results = tune(model, gpus, gbs, eos, &TunerOptions::default());
        println!(
            "Auto-tuner — {model}, {gpus} GPUs, GBS {gbs}: {} feasible configs",
            results.len()
        );
        println!(
            "{:>4} {:<44} {:>9} {:>8}",
            "#", "configuration", "step(s)", "TFLOPS"
        );
        rule(70);
        for (i, c) in results.iter().take(10).enumerate() {
            println!(
                "{:>4} {:<44} {:>9.2} {:>8.0}",
                i + 1,
                c.config.to_string(),
                c.report.step_time,
                c.report.tflops_per_gpu
            );
        }
        let flagship = ParallelConfig::jaxpp_gpt3(1);
        if let Some(rank) = results.iter().position(|c| {
            (c.config.pp, c.config.tp) == (flagship.pp, flagship.tp)
                && c.config.microbatch == flagship.microbatch
                && c.config.circular_repeat == flagship.circular_repeat
        }) {
            println!(
                "\npaper flagship (pp=8 tp=8 mbs=4 repeat=6) ranks #{} of {}",
                rank + 1,
                results.len()
            );
        }
    }
}

/// One fenced block of `EXPERIMENTS.md`: its flag and its printer.
type Section = (&'static str, fn(&ClusterSpec));

const SECTIONS: [Section; 8] = [
    ("--table 1", print_table1),
    ("--figure 6", print_figure6),
    ("--figure 7", print_figure7),
    ("--figure 8", print_figure8),
    ("--figure 9", print_figure9),
    ("--figure 10", print_figure10),
    ("--ablations", print_ablations),
    ("--tuner", print_tuner),
];

fn main() {
    let eos = ClusterSpec::eos();
    let arg = std::env::args().skip(1).collect::<Vec<_>>().join(" ");
    if arg.is_empty() || arg == "--all" {
        // The fenced blocks 1-8 of EXPERIMENTS.md, a blank line apart.
        for (i, (_, print)) in SECTIONS.iter().enumerate() {
            if i > 0 {
                println!();
            }
            print(&eos);
        }
    } else if let Some((_, print)) = SECTIONS.iter().find(|(flag, _)| *flag == arg) {
        print(&eos);
    } else {
        eprintln!(
            "usage: paper_tables [--table 1 | --figure 6..10 | --ablations | --tuner | --all]"
        );
        std::process::exit(2);
    }
}
