#!/usr/bin/env bash
# Metric-catalogue check: the rows of the three catalogues (`Counter`,
# `Gauge`, `Histogram` in crates/runtime/src/metrics.rs) are the repo's
# metrics. The compiler refuses to publish a metric no catalogue
# declares, or to publish one as the wrong type, and the unit test
# `metrics::tests::doc_metrics_table_is_the_catalogues` keeps the
# Metrics table of docs/observability.md equal to the catalogues. What
# neither sees is a catalogue row nothing publishes: this fails on any
# row no source under crates/core/src or crates/serve/src names by its
# typed id (`Counter::StepsTotal`). Pure grep — no external tools.
set -euo pipefail
cd "$(dirname "$0")/.."

# `Enum::Variant` of every catalogue row.
entries=$(awk '/^catalogue! \{/ { on = 1 }
    on && /pub enum/ { e = $3 }
    on && /=> "/ { print e "::" $1 }
    /^\}/ { on = 0 }' crates/runtime/src/metrics.rs)

# The sources, comment lines dropped.
code=$(cat $(find crates/core/src crates/serve/src -name '*.rs') | grep -vE '^[[:space:]]*//')

fail=0
for entry in $entries; do
    if ! grep -qw "$entry" <<<"$code"; then
        echo "check_metric_catalog: $entry is declared in crates/runtime/src/metrics.rs but no source under crates/core/src or crates/serve/src publishes it" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_metric_catalog: OK ($(echo "$entries" | wc -l) metrics)"
