#!/usr/bin/env bash
# Crate-map check: the directories under crates/ are the workspace's
# crates, and three places list them — the "## Crate map" table of
# README.md, the "## 2. Workspace inventory" table of DESIGN.md (its
# rows with a crates/ directory) and the [workspace.dependencies] paths
# of the root Cargo.toml. All three must name exactly the directories
# that exist (a crate is `raxpp-<dir>`); a binary-only crate (no
# src/lib.rs) cannot be depended on and needs no dependency entry.
# Pure grep — no external tools.
set -euo pipefail
cd "$(dirname "$0")/.."

dirs=$(for d in crates/*/; do basename "$d"; done | sort -u)
libs=$(for d in crates/*/; do [ -f "$d/src/lib.rs" ] && basename "$d"; done | sort -u)

# First-column `raxpp-*` names of the rows under a heading.
rows() { # file heading
    awk -v h="$2" '/^## /{on = ($0 == h)} on && /^\| `raxpp-/' "$1"
}
readme=$(rows README.md "## Crate map" | cut -d'|' -f2 |
    grep -oE '`raxpp-[a-z]+`' | tr -d '`' | sed 's/^raxpp-//' | sort -u)
design=$(rows DESIGN.md "## 2. Workspace inventory" | cut -d'|' -f2,3 |
    grep -E '\| *`crates/' | cut -d'|' -f1 |
    grep -oE '`raxpp-[a-z]+`' | tr -d '`' | sed 's/^raxpp-//' | sort -u)
manifest=$(awk '/^\[/{on = ($0 == "[workspace.dependencies]")} on' Cargo.toml |
    grep -oE 'path *= *"crates/[a-z]+"' | grep -oE 'crates/[a-z]+' |
    sed 's|^crates/||' | sort -u)

fail=0
differ() { # what, expected, got
    for name in $(comm -23 <(echo "$2") <(echo "$3")); do
        echo "check_crate_map: crates/$name exists but $1 does not list it" >&2
        fail=1
    done
    for name in $(comm -13 <(echo "$2") <(echo "$3")); do
        echo "check_crate_map: $1 lists $name, but there is no crates/$name" >&2
        fail=1
    done
}
differ "the crate map of README.md" "$dirs" "$readme"
differ "the workspace inventory of DESIGN.md" "$dirs" "$design"
differ "[workspace.dependencies] of Cargo.toml" "$libs" "$manifest"
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check_crate_map: OK ($(echo "$dirs" | wc -l) crates)"
