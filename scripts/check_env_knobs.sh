#!/usr/bin/env bash
# Knob-table check: the "Environment variables" table of
# docs/observability.md is the repo's one knob table. Every `RAXPP_*`
# name a source under crates/ or tests/ reads from the environment must
# have a row, every row must name a variable some source reads, and
# every `RAXPP_*` name that scripts/, README.md, docs/ or
# .claude/skills/ mention must have a row too (a removed knob must not
# live on in a script or a guide). `RAXPP_` followed by nothing — prose
# about the prefix, a glob, a regex — names no knob and is exempt.
# Pure grep — no external tools.
set -euo pipefail
cd "$(dirname "$0")/.."

table=docs/observability.md

# Names read by sources: every "RAXPP_…" string literal outside
# comments (std::env::var and the `Knob` table of
# crates/runtime/src/env.rs all take the name as a literal). The
# whole-stack benchmark is excluded: it reads no knob, it only refuses
# to start when one is set.
read_by_sources=$(grep -rhE --include='*.rs' --exclude-dir=benchmark \
    '"RAXPP_[A-Z0-9_]+"' crates tests |
    grep -vE '^[[:space:]]*//' |
    grep -oE '"RAXPP_[A-Z0-9_]+"' | tr -d '"' | sort -u)

# Names the table lists: backticked RAXPP_* in the first column of the
# rows under the "## Environment variables" heading.
listed=$(awk '/^## /{on = ($0 == "## Environment variables")} on && /^\|/' "$table" |
    cut -d'|' -f2 | grep -oE '`RAXPP_[A-Z0-9_]+`' | tr -d '`' | sort -u)

# Names scripts and guides mention, with where (file:line:name).
mentioned=$(grep -rnoE 'RAXPP_[A-Z0-9_]+' scripts README.md docs .claude/skills || true)

fail=0
for name in $(comm -23 <(echo "$read_by_sources") <(echo "$listed")); do
    echo "check_env_knobs: $name is read by a source but missing from the knob table in $table" >&2
    fail=1
done
for name in $(comm -13 <(echo "$read_by_sources") <(echo "$listed")); do
    echo "check_env_knobs: $table lists $name but no source under crates/ or tests/ reads it" >&2
    fail=1
done
for hit in $mentioned; do
    if ! grep -qxF "${hit##*:}" <<<"$listed"; then
        echo "check_env_knobs: ${hit%:*} mentions ${hit##*:}, which has no row in the knob table in $table" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_env_knobs: OK ($(echo "$listed" | wc -l) knobs)"
