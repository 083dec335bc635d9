#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, format
# check, clippy (warnings are errors), rustdoc (warnings are errors),
# doc cross-reference, knob-table, metric-catalogue, crate-map and
# paper-artefact checks, the socket-transport gate, and the benchmark
# contract. Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --doc (markdown guides compile as doctests)"
cargo test --doc --workspace -q

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> doc link check"
scripts/check_doc_links.sh

echo "==> knob table check (docs/observability.md vs the RAXPP_* names sources read)"
scripts/check_env_knobs.sh

echo "==> metric catalogue check (every Counter / Gauge / Histogram row is published by core or serve)"
scripts/check_metric_catalog.sh

echo "==> crate map check (crates/ vs README.md, DESIGN.md and [workspace.dependencies])"
scripts/check_crate_map.sh

echo "==> paper artefact check (EXPERIMENTS.md blocks vs paper_tables --all)"
scripts/check_experiments.sh

echo "==> rebalance-under-TP regression (folds must stay bitwise, not refused)"
cargo test -q -p raxpp-integration --test tensor_parallel tp_rebalance_folds_bitwise

echo "==> socket-transport gate (resilience suites over the wire, bounded time)"
# The same failure/chaos/rebalance/checkpoint contracts must hold
# bitwise when every actor fabric message crosses a Unix-domain
# socket. The per-test watchdog (120 s) turns any wire deadlock into a
# fast named failure rather than a hung gate.
# tensor_parallel and data_parallel ride along because their collectives
# are the heaviest actor-to-actor traffic; a collective is the same
# exchange of messages on every transport, so this leg is where it
# meets real sockets.
RAXPP_TRANSPORT=socket cargo test -q -p raxpp-integration \
    --test failure_semantics \
    --test chaos_soak \
    --test elastic_rebalance \
    --test checkpointing \
    --test determinism_guard \
    --test serving \
    --test tensor_parallel \
    --test data_parallel

echo "==> socket-transport gate, TCP leg (the failure contract and DP exchanges over loopback TCP)"
# The handshake and the death signal are the same code on both socket
# schemes; failure_semantics runs its wire cases on the scheme
# RAXPP_TRANSPORT names. At dp = 4 a collective exchange dials members
# that are not neighbours, which data_parallel covers.
RAXPP_TRANSPORT=tcp cargo test -q -p raxpp-integration \
    --test failure_semantics \
    --test data_parallel

echo "==> benchmark contract (BENCHMARK.json still builds and every output check passes)"
# The whole-stack benchmark is a package of its own, so nothing above
# builds it. Its unit tests pin catalogue == BENCHMARK.json; the short
# run over all five workloads exits 0 only when every output check
# passed (oracle / twin / unbatched-forward parity, bit for bit). This
# gates correctness, not speed: speed is `benchmark compare A.jsonl
# B.jsonl` over alternated parent/change runs (see its README). The
# benchmark refuses to start while any RAXPP_* variable is set.
BENCHMARK=crates/bench/src/bin/benchmark/Cargo.toml
unset $(compgen -v RAXPP_)
cargo test --release -q --manifest-path "$BENCHMARK"
cargo run --release --quiet --manifest-path "$BENCHMARK" -- --seconds 2 --trace 0

echo "verify: OK"
