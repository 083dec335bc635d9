#!/usr/bin/env bash
# Doc cross-reference check: every repo-relative path mentioned in the
# README and docs/ (markdown links, backticked *.md / *.rs / *.sh
# paths) must exist, and the docs that are supposed to cross-link each
# other actually do. Pure grep — no external tools.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
    echo "check_doc_links: $1" >&2
    fail=1
}

docs=(README.md docs/*.md)

# Strips fenced code blocks (``` … ```), whose contents are not links.
prose() {
    awk '/^[[:space:]]*```/ { inblock = !inblock; next } !inblock' "$1"
}

# 1. Markdown links [text](target): every non-URL target must exist
#    relative to the linking file's directory (anchors stripped).
for f in "${docs[@]}"; do
    dir=$(dirname "$f")
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:* | '#'*) continue ;;
        esac
        path="${target%%#*}"
        [ -n "$path" ] || continue
        if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
            err "$f: broken link target '$target'"
        fi
    done < <(prose "$f" | grep -o '\[[^]]*\]([^)]*)' |
        sed 's/.*(\([^)]*\))/\1/' || true)
done

# 2. Backticked repo paths like `docs/observability.md`,
#    `crates/runtime/tests/trace_schema.rs`, `scripts/verify.sh`.
for f in "${docs[@]}"; do
    while IFS= read -r path; do
        # Strip a trailing ::item qualifier (`file.rs::test_name`).
        path="${path%%::*}"
        if [ ! -e "$path" ]; then
            err "$f: references missing file '$path'"
        fi
    done < <(prose "$f" |
        grep -o '`[A-Za-z0-9_./-]*\.\(md\|rs\|sh\|toml\)\(::[A-Za-z0-9_:]*\)\?`' |
        tr -d '`' | grep '^[A-Za-z0-9_]*/' || true)
done

# 3. Anchor links `file.md#section` / `#section`: the anchor must match
#    a real heading of the target file after GitHub slugging (lowercase,
#    punctuation stripped, spaces become dashes).
slugs() { # file -> one heading slug per line
    prose "$1" | grep '^#\{1,6\} ' | sed 's/^#\{1,6\} //' |
        tr '[:upper:]' '[:lower:]' | sed 's/[^a-z0-9 _-]//g; s/ /-/g'
}
for f in "${docs[@]}"; do
    dir=$(dirname "$f")
    while IFS= read -r target; do
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        esac
        case "$target" in
        *'#'*) ;;
        *) continue ;;
        esac
        path="${target%%#*}"
        anchor="${target#*#}"
        if [ -z "$path" ]; then
            dest="$f"
        elif [ -e "$dir/$path" ]; then
            dest="$dir/$path"
        elif [ -e "$path" ]; then
            dest="$path"
        else
            continue # section 1 already flagged the missing file
        fi
        if ! slugs "$dest" | grep -qx "$anchor"; then
            err "$f: dangling anchor '#$anchor' (no such section in $dest)"
        fi
    done < <(prose "$f" | grep -o '\[[^]]*\]([^)]*)' |
        sed 's/.*(\([^)]*\))/\1/' || true)
done

# 4. Required cross-references: the docs overhaul promises these links.
require() { # file pattern description
    grep -q "$2" "$1" || err "$1: missing expected reference to $3"
}
require README.md 'docs/observability\.md' 'docs/observability.md'
require README.md 'docs/ARCHITECTURE\.md' 'docs/ARCHITECTURE.md'
require README.md 'docs/execution-backend\.md' 'docs/execution-backend.md'
require docs/execution-backend.md 'docs/observability\.md' 'docs/observability.md'
require docs/ARCHITECTURE.md 'docs/observability\.md' 'docs/observability.md'
require docs/observability.md 'Runtime::set_tracing' 'the Runtime::set_tracing switch'
require README.md 'docs/parallelism\.md' 'docs/parallelism.md'
require docs/parallelism.md 'docs/ARCHITECTURE\.md' 'docs/ARCHITECTURE.md'
require docs/parallelism.md 'docs/resilience\.md' 'docs/resilience.md'
require docs/parallelism.md 'docs/observability\.md' 'docs/observability.md'
require docs/ARCHITECTURE.md 'docs/parallelism\.md' 'docs/parallelism.md'
require docs/resilience.md 'docs/parallelism\.md' 'docs/parallelism.md'
require docs/observability.md 'docs/parallelism\.md' 'docs/parallelism.md'
require README.md 'docs/determinism\.md' 'docs/determinism.md'
require docs/parallelism.md 'docs/determinism\.md' 'docs/determinism.md'
require docs/ARCHITECTURE.md 'docs/determinism\.md' 'docs/determinism.md'
require docs/resilience.md 'docs/determinism\.md' 'docs/determinism.md'
require docs/determinism.md 'docs/parallelism\.md' 'docs/parallelism.md'
require docs/determinism.md 'docs/execution-backend\.md' 'docs/execution-backend.md'
require docs/determinism.md 'docs/resilience\.md' 'docs/resilience.md'
require README.md 'docs/serving\.md' 'docs/serving.md'
require docs/ARCHITECTURE.md 'docs/serving\.md' 'docs/serving.md'
require docs/observability.md 'docs/serving\.md' 'docs/serving.md'
require docs/resilience.md 'docs/serving\.md' 'docs/serving.md'
require docs/serving.md 'docs/observability\.md' 'docs/observability.md'
require docs/serving.md 'docs/resilience\.md' 'docs/resilience.md'
require docs/serving.md 'docs/determinism\.md' 'docs/determinism.md'

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_doc_links: OK"
