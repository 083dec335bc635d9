#!/usr/bin/env bash
# The A/B protocol behind every speed claim (ROADMAP item 1): build the
# benchmark of <parent-ref> and of the working tree, run N alternated
# parent/change pairs — pair i uses seed i on both sides, odd pairs run
# the parent first, even pairs the change — and hand both sets of
# reports to `benchmark compare`. Run order alone moves latency medians
# by 5–10 % on the 2-core box, which is why the order alternates and
# why this is a script rather than a habit.
#
#   scripts/ab_bench.sh [-n PAIRS] <parent-ref> [workload ...]
#
# PAIRS defaults to 10, the least a claim may rest on; no workload
# means all five (≈ 2 min per side per pair, ≈ 50 min in all with the
# traced runs). Everything lands under
# target/ab_bench/: a snapshot of the parent (`git archive`, so nothing
# is registered in .git and `rm -rf` is the clean-up), parent.jsonl and
# change.jsonl with one report per run. Run length is the benchmark's
# own (`run_seconds` of BENCHMARK.json) on both sides.
#
# The pairs are followed by three alternated `--trace 1` runs per side
# (seed 0, reports appended to {parent,change}_traced.jsonl, so each
# evidence row is a median of three: one traced run of the kernel
# probes spreads with an iqr of 37–83 %) and, under the `compare`
# table, the per-layer rows that explain a step-time difference — where
# the actors' time went (four rows, then the share blocked in TP and DP
# collectives), what tracing costs and how much of the actors' time no
# kind accounts for (the two rows a telemetry change must quote), the
# traffic a step moves (`runtime.{tp,dp}_bytes_per_step`,
# `taskgraph.{collectives,instrs}_per_step`: the rows a lowering change
# must quote), what a socket hop costs (`runtime.wire_overhead_s`,
# `runtime.wire_bytes_per_step`, `runtime.wire_mb_s`,
# `runtime.send_s_per_step`: the rows a codec change must quote), what
# freeing dead buffers and the optimizer update cost per step
# (`runtime.free_s_per_step`, `core.update_s_per_step`: the rows an
# allocation change must quote), then the interpreter's cost per equation, the activations' cost per
# element, the single-device step, the forward matmul and transpose
# kernels' rates, the share of outputs that reuse or alias a buffer and
# the op time per primitive (`ir.eval_us_per_eqn`,
# `ir.{tanh,gelu}_ns_per_elem`, `ir.single_device_step_s`,
# `ir.matmul_gflops`, `ir.transpose_gb_s`, `ir.alloc_reuse_ratio`,
# `ir.op_s.*`: the rows a kernel change must quote) — so the evidence a
# claim has to quote comes from the same invocation as the claim.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: scripts/ab_bench.sh [-n PAIRS] <parent-ref> [workload ...]" >&2
    exit 2
}

pairs=10
while getopts n: opt; do
    case $opt in
    n) pairs=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || usage
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
ref=$(git rev-parse --verify "$1^{commit}")
shift
workloads=("$@")

# The benchmark refuses to start while any RAXPP_* variable is set.
unset $(compgen -v RAXPP_)

out=$PWD/target/ab_bench
package=crates/bench/src/bin/benchmark
rm -rf "$out"
mkdir -p "$out/parent"
git archive "$ref" | tar -x -C "$out/parent"

echo "==> building parent ($ref) and change"
cargo build --release --quiet --manifest-path "$out/parent/$package/Cargo.toml"
cargo build --release --quiet --manifest-path "$package/Cargo.toml"

# One side of one pair: every requested workload, reports appended to
# <reports>.jsonl. Each binary runs from the root of its own checkout.
run_side() {
    local reports=$1 root=$2 seed=$3 trace=${4:-0}
    local bin=$root/$package/target/release/benchmark
    local args=(--seed "$seed" --trace "$trace" --out "$out/$reports.jsonl")
    if [ ${#workloads[@]} -eq 0 ]; then
        (cd "$root" && "$bin" "${args[@]}" >/dev/null)
    else
        for w in "${workloads[@]}"; do
            (cd "$root" && "$bin" --workload "$w" "${args[@]}" >/dev/null)
        done
    fi
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        echo "==> pair $i/$pairs (seed $i): parent, change"
        run_side parent "$out/parent" "$i"
        run_side change "$PWD" "$i"
    else
        echo "==> pair $i/$pairs (seed $i): change, parent"
        run_side change "$PWD" "$i"
        run_side parent "$out/parent" "$i"
    fi
done

for ((j = 1; j <= 3; j++)); do
    if ((j % 2)); then
        echo "==> traced run $j/3 (seed 0): parent, change"
        run_side parent_traced "$out/parent" 0 1
        run_side change_traced "$PWD" 0 1
    else
        echo "==> traced run $j/3 (seed 0): change, parent"
        run_side change_traced "$PWD" 0 1
        run_side parent_traced "$out/parent" 0 1
    fi
done

# `compare` exits 1 when an end-to-end row is worse than its bound; the
# evidence rows are printed either way and the script exits with it.
compare=("$package/target/release/benchmark" compare)
status=0
echo "==> compare (A = parent $ref, B = change; reports in $out)"
"${compare[@]}" "$out/parent.jsonl" "$out/change.jsonl" || status=$?
echo "==> where the actors' time went, what observing it costs, what a step moves, and which ops took it (medians of three traced runs per side)"
"${compare[@]}" "$out/parent_traced.jsonl" "$out/change_traced.jsonl" |
    grep -E '^workload|runtime\.(compute_share|recv_wait_share|bubble_excess|pipeline_speedup|tp_collective_wait_share|dp_collective_wait_share|trace_overhead|unaccounted_share|tp_bytes_per_step|dp_bytes_per_step|wire_overhead_s|wire_bytes_per_step|wire_mb_s|send_s_per_step|free_s_per_step) |core\.update_s_per_step |taskgraph\.(collectives_per_step|instrs_per_step) |ir\.(eval_us_per_eqn|tanh_ns_per_elem|gelu_ns_per_elem|single_device_step_s|matmul_gflops|transpose_gb_s|alloc_reuse_ratio|op_s\.[a-z_]+) ' || true
exit "$status"
