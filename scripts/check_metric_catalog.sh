#!/usr/bin/env bash
# Metric-catalogue check: the table under "## Metrics" in
# docs/observability.md is the repo's one metric catalogue. Every name a
# source under crates/core/src or crates/serve/src publishes with
# `.inc(` / `.set_gauge(` / `.observe(` must have a row, and every row
# must name a metric some source publishes. Pure grep — no external
# tools.
set -euo pipefail
cd "$(dirname "$0")/.."

table=docs/observability.md

# Names published by sources: the string literal that opens the call,
# on the same line or — where rustfmt wrapped a long call — the next
# one. Comment lines are dropped first. Every publication site passes
# its name as a literal, which is what makes this a grep.
published=$(cat $(find crates/core/src crates/serve/src -name '*.rs') |
    grep -vE '^[[:space:]]*//' | tr '\n' ' ' |
    grep -oE '\.(inc|set_gauge|observe)\([[:space:]]*"[a-z0-9_]+"' |
    grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)

# Names the table lists: every backticked name in the first column of
# the rows under the "## Metrics" heading (a row may list several).
listed=$(awk '/^## /{on = ($0 == "## Metrics")} on && /^\| `/' "$table" |
    cut -d'|' -f2 | grep -oE '`[a-z0-9_]+`' | tr -d '`' | sort -u)

fail=0
for name in $(comm -23 <(echo "$published") <(echo "$listed")); do
    echo "check_metric_catalog: $name is published by a source but has no row in the Metrics table of $table" >&2
    fail=1
done
for name in $(comm -13 <(echo "$published") <(echo "$listed")); do
    echo "check_metric_catalog: $table lists $name but no source under crates/core/src or crates/serve/src publishes it" >&2
    fail=1
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_metric_catalog: OK ($(echo "$listed" | wc -l) metrics)"
