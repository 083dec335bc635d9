#!/usr/bin/env bash
# Knob-table check: the "Environment variables" table of
# docs/observability.md is the repo's one knob table. Every `RAXPP_*`
# name a source under crates/ or tests/ reads from the environment must
# have a row, and every row must name a variable some source reads.
# Pure grep — no external tools.
set -euo pipefail
cd "$(dirname "$0")/.."

table=docs/observability.md

# Names read by sources: every "RAXPP_…" string literal outside
# comments (std::env::var and the env_ms/env_steps wrappers all take the
# name as a literal). The whole-stack benchmark is excluded: it reads no
# knob, it only refuses to start when one is set.
read_by_sources=$(grep -rhE --include='*.rs' --exclude-dir=benchmark \
    '"RAXPP_[A-Z0-9_]+"' crates tests |
    grep -vE '^[[:space:]]*//' |
    grep -oE '"RAXPP_[A-Z0-9_]+"' | tr -d '"' | sort -u)

# Names the table lists: backticked RAXPP_* in the first column of the
# rows under the "## Environment variables" heading.
listed=$(awk '/^## /{on = ($0 == "## Environment variables")} on && /^\|/' "$table" |
    cut -d'|' -f2 | grep -oE '`RAXPP_[A-Z0-9_]+`' | tr -d '`' | sort -u)

fail=0
for name in $(comm -23 <(echo "$read_by_sources") <(echo "$listed")); do
    echo "check_env_knobs: $name is read by a source but missing from the knob table in $table" >&2
    fail=1
done
for name in $(comm -13 <(echo "$read_by_sources") <(echo "$listed")); do
    echo "check_env_knobs: $table lists $name but no source under crates/ or tests/ reads it" >&2
    fail=1
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_env_knobs: OK ($(echo "$listed" | wc -l) knobs)"
