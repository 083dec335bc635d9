//! The names the benchmark pins: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` at the repo root
//! is `benchmark manifest` printed from this table (a unit test keeps
//! the two equal); README.md here says what each metric should move.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::Better::{self, Higher, Lower};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1207;
/// `run_seconds` of `BENCHMARK.json` and default `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "mlp_gpipe_pp4",
        why: "4-stage GPipe over a width-512 tanh MLP: raxpp-ir kernels (matmul, transpose, tanh) do nearly all the work; transport and dispatch do nothing",
    },
    Workload {
        name: "lm_1f1b_pp2",
        why: "2-stage 1F1B tiny transformer, 16 microbatches of tiny tensors: interpreter dispatch, allocator, instruction loop and accounting dominate; a kernel gain must not move it",
    },
    Workload {
        name: "mlp_1f1b_pp4_uds",
        why: "4-stage 1F1B MLP over Unix sockets, 48 x 256 KiB messages per step; an mpsc twin of the same program is the bypass side, the difference is the wire cost",
    },
    Workload {
        name: "mlp_gpipe_pp2_tp2_dp2",
        why: "PP2 x TP2 x DP2 on 8 actors: the only workload with lane collectives and DP gradient all-reduces (and their waits) on the critical path",
    },
    Workload {
        name: "serve_open_pp2",
        why: "2-stage served MLP: open-loop Poisson arrivals at 500 req/s with weight swaps (latency from due time), then a closed loop holding 64 requests outstanding (throughput)",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only; per-layer metrics carry 0 and no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one:
/// "one unit of work" is a `Trainer::step` on the training workloads
/// and one served request, timed from when it was due, on
/// `serve_open_pp2`.
pub const END_TO_END: [Metric; 5] = [
    e2e("latency_p50_s", "s", Lower, 0.25),
    e2e("latency_tail_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("peak_store_mb", "MB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Open-loop rates of the serving ladder, requests per second. The
/// first is the `rate_500` phase the end-to-end latency comes from.
pub const LADDER_RATES: [f64; 4] = [500.0, 1000.0, 2000.0, 4000.0];

/// Primitives whose traced `op` time is reported by name; the rest is
/// `ir.op_s.other`.
pub const OP_PRIMS: [&str; 8] = [
    "matmul",
    "batch_matmul",
    "transpose",
    "permute",
    "tanh",
    "gelu",
    "reduce_sum",
    "broadcast",
];

/// One layer each; the prefix is the crate. A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: [Metric; 70] = [
    layer("ir.matmul_gflops", "GFLOP/s", Higher),
    layer("ir.matmul_bwd_gflops", "GFLOP/s", Higher),
    layer("ir.tanh_ns_per_elem", "ns", Lower),
    layer("ir.gelu_ns_per_elem", "ns", Lower),
    layer("ir.transpose_gb_s", "GB/s", Higher),
    layer("ir.eval_us_per_eqn", "us", Lower),
    layer("ir.single_device_step_s", "s", Lower),
    layer("ir.alloc_reuse_ratio", "ratio", Higher),
    layer("ir.grad_s", "s", Lower),
    layer("ir.op_s.matmul", "s", Lower),
    layer("ir.op_s.batch_matmul", "s", Lower),
    layer("ir.op_s.transpose", "s", Lower),
    layer("ir.op_s.permute", "s", Lower),
    layer("ir.op_s.tanh", "s", Lower),
    layer("ir.op_s.gelu", "s", Lower),
    layer("ir.op_s.reduce_sum", "s", Lower),
    layer("ir.op_s.broadcast", "s", Lower),
    layer("ir.op_s.other", "s", Lower),
    layer("sched.ideal_bubble_share", "ratio", Lower),
    layer("taskgraph.compile_s", "s", Lower),
    layer("taskgraph.forward_project_s", "s", Lower),
    layer("taskgraph.instrs_per_step", "count", Lower),
    layer("taskgraph.p2p_msgs_per_step", "count", Lower),
    layer("taskgraph.p2p_bytes_per_step", "B", Lower),
    layer("taskgraph.collectives_per_step", "count", Lower),
    layer("runtime.launch_s", "s", Lower),
    layer("runtime.init_s", "s", Lower),
    layer("runtime.empty_step_s", "s", Lower),
    layer("runtime.compute_share", "ratio", Higher),
    layer("runtime.recv_wait_share", "ratio", Lower),
    layer("runtime.send_s_per_step", "s", Lower),
    layer("runtime.free_s_per_step", "s", Lower),
    layer("runtime.bubble_excess", "ratio", Lower),
    layer("runtime.unaccounted_share", "ratio", Lower),
    layer("runtime.wire_overhead_s", "s", Lower),
    layer("runtime.wire_bytes_per_step", "B", Lower),
    layer("runtime.wire_mb_s", "MB/s", Higher),
    layer("runtime.mpsc_twin_step_p50_s", "s", Lower),
    layer("runtime.tp_collective_wait_share", "ratio", Lower),
    layer("runtime.dp_collective_wait_share", "ratio", Lower),
    layer("runtime.tp_bytes_per_step", "B", Lower),
    layer("runtime.dp_bytes_per_step", "B", Lower),
    layer("runtime.tp_overlap_ratio", "ratio", Higher),
    layer("runtime.rpcs_per_step", "count", Lower),
    layer("runtime.trace_overhead", "ratio", Lower),
    layer("runtime.pipeline_speedup", "ratio", Higher),
    layer("core.host_step_overhead_s", "s", Lower),
    layer("core.update_s_per_step", "s", Lower),
    layer("core.ckpt_save_s", "s", Lower),
    layer("core.ckpt_load_s", "s", Lower),
    layer("core.ckpt_mb", "MB", Lower),
    layer("core.params_fetch_s", "s", Lower),
    layer("serve.forward_batch_s", "s", Lower),
    layer("serve.mean_slot_fill.rate_500", "ratio", Higher),
    layer("serve.mean_slot_fill.sat", "ratio", Higher),
    layer("serve.sat_rps", "1/s", Higher),
    layer("serve.sat_efficiency", "ratio", Higher),
    layer("serve.max_rate_rps", "1/s", Higher),
    layer("serve.p50_s_at_500", "s", Lower),
    layer("serve.p95_s_at_500", "s", Lower),
    layer("serve.p99_s_at_500", "s", Lower),
    layer("serve.p50_s_at_1000", "s", Lower),
    layer("serve.p95_s_at_1000", "s", Lower),
    layer("serve.p50_s_at_2000", "s", Lower),
    layer("serve.p95_s_at_2000", "s", Lower),
    layer("serve.p50_s_at_4000", "s", Lower),
    layer("serve.p95_s_at_4000", "s", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.gen_late_p99_s", "s", Lower),
    layer("serve.swap_s", "s", Lower),
];

pub fn find_metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The values one run measured, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Measured(BTreeMap<&'static str, f64>);

impl Measured {
    /// Panics on a name the catalogue does not have: a typo here would
    /// otherwise print as a silent 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let m =
            find_metric(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.0.insert(m.name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over `metrics`, in
    /// catalogue order.
    pub fn to_json(&self, metrics: &[Metric]) -> Json {
        Json::Obj(
            metrics
                .iter()
                .map(|m| {
                    let fields = vec![
                        ("value", Json::Num(self.get(m.name))),
                        ("unit", Json::str(m.unit)),
                    ];
                    (m.name.to_string(), Json::obj(fields))
                })
                .collect(),
        )
    }
}

fn metric_entry(m: &Metric, bounded: bool) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
    ];
    if bounded {
        fields.push(("bound", Json::Num(m.bound)));
    }
    Json::obj(fields)
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let manifest_path = "crates/bench/src/bin/benchmark/Cargo.toml";
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    manifest_path,
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/benchmark")]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric_entry(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_entry(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = find_metric("setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        for prim in OP_PRIMS {
            assert!(find_metric(&format!("ir.op_s.{prim}")).is_some());
        }
        for rate in LADDER_RATES {
            assert!(find_metric(&format!("serve.p95_s_at_{rate}")).is_some());
        }
    }

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let committed = include_str!("../../../../../../BENCHMARK.json");
        assert!(committed.len() <= 64 << 10);
        assert_eq!(
            crate::json::parse(committed).unwrap(),
            manifest(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn measured_prints_zero_for_layers_off_the_path() {
        let mut m = Measured::default();
        m.set("setup_s", 0.5);
        let json = m.to_json(&END_TO_END);
        let v = |k: &str| json.get(k).unwrap().get("value").unwrap().as_f64().unwrap();
        assert_eq!(v("setup_s"), 0.5);
        assert_eq!(v("latency_p50_s"), 0.0);
        assert_eq!(json.as_obj().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn measured_rejects_unknown_names() {
        Measured::default().set("serve.typo", 1.0);
    }
}
