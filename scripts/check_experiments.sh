#!/usr/bin/env bash
# Paper-artefact check: the eight fenced blocks of EXPERIMENTS.md that
# open with a paper-artefact title (Table 1, Figures 6-10, the
# ablations, the tuner sweep) are what `paper_tables --all` prints —
# its sections, one blank line apart — byte for byte. A model change
# that moves a number must move the document in the same commit.
# Pure awk/diff — no external tools.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints the paper blocks; with count=1, how many there are instead.
paper_blocks() {
    awk -v count="$1" '
        /^```/ { inside = !inside; first = inside; paper = 0; next }
        first  { first = 0
                 paper = /^(Table 1|Figure [0-9]+|Ablation 1|Auto-tuner) — /
                 if (paper && n++ && !count) print "" }
        inside && paper && !count { print }
        END { if (count) print n }' EXPERIMENTS.md
}
want=$(paper_blocks 0)
got=$(cargo run --release --quiet -p raxpp-examples --bin paper_tables -- --all)
if ! diff <(echo "$want") <(echo "$got") >&2; then
    echo "check_experiments: the paper blocks of EXPERIMENTS.md (<) differ from \`paper_tables --all\` (>)" >&2
    exit 1
fi
echo "check_experiments: OK ($(paper_blocks 1) blocks)"
