#!/usr/bin/env bash
# Panic sites in the library crates: each `unwrap()`, `expect(`, `panic!`
# and `unreachable!` in non-test code, comment lines skipped. Non-test code
# is what scripts/loc.sh counts as such: a file up to its
# `#[cfg(test)] mod tests`. The library crates are every crate under
# crates/*/src and the facade's src, but `bench` (the figure harness).
# Prints one row per crate and the total. `--max N` makes the total a gate:
# exit non-zero when it exceeds N. The floor only moves down, accounted for
# in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

max=
if [ "${1:-}" = "--max" ]; then
    max=${2:?--max needs a count}
    shift 2
fi

mapfile -t files < <(find crates/*/src src -name '*.rs' -not -path 'crates/bench/*' | sort)

awk -v max="$max" '
    function group(path,    parts) {
        split(path, parts, "/")
        return parts[1] == "crates" ? parts[2] : "squall (facade)"
    }
    FNR == 1 { in_tests = 0; pending = 0; g = group(FILENAME); if (!(g in sites)) { sites[g] = 0; order[++n] = g } }
    {
        if (!in_tests && $0 ~ /^#\[cfg\(test\)\]$/) { pending = 1; next }
        if (pending) {
            pending = 0
            if ($0 ~ /^mod tests/) in_tests = 1
        }
        if (in_tests || $0 ~ /^[ \t]*\/\//) next
        line = $0
        sites[g] += gsub(/unwrap\(\)|expect\(|panic!|unreachable!/, "", line)
    }
    END {
        printf "%-20s %6s\n", "crate", "panics"
        for (i = 1; i <= n; i++) {
            printf "%-20s %6d\n", order[i], sites[order[i]]
            total += sites[order[i]]
        }
        printf "%-20s %6d\n", "total", total
        if (max != "" && total > max) {
            printf "%d panic sites, over the gate of %d: make the new ones typed errors\n", total, max
            exit 1
        }
    }
' "${files[@]}"
