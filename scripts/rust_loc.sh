#!/usr/bin/env bash
# Counts the non-test Rust lines of the workspace: every line of the
# `.rs` files under `crates/*/src` and `src/`, leaving out the vendored
# crates (`crates/vendor`), `tests/` directories and `#[cfg(test)] mod`
# blocks. Blank and comment lines count. Prints one line per crate and
# a total, so two checkouts compare with `diff`.
#
# Usage: scripts/rust_loc.sh [REPO_ROOT]   (default: the current directory)
set -euo pipefail
cd "${1:-.}"

count() {
    # A `#[cfg(test)]` attribute followed by `mod NAME {` opens a test
    # block; it ends at the first line holding only `}` at the mod's
    # indentation (rustfmt layout).
    awk '
        skip { if ($0 == close_line) skip = 0; next }
        pending && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+ \{$/ {
            match($0, /^[ \t]*/)
            close_line = substr($0, 1, RLENGTH) "}"
            skip = 1; pending = 0; n -= held; next
        }
        /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; held = 1; n++; next }
        { pending = 0; n++ }
        END { print n + 0 }
    ' "$@"
}

total=0
for dir in src crates/*/src; do
    case "$dir" in crates/vendor/*) continue ;; esac
    [ -d "$dir" ] || continue
    n=0
    while IFS= read -r -d '' f; do
        n=$((n + $(count "$f")))
    done < <(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 | sort -z)
    printf '%-22s %7d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-22s %7d\n' total "$total"
