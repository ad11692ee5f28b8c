#!/usr/bin/env bash
# Lines of Rust under crates/*/src and src, split at each file's
# `#[cfg(test)] mod tests`: everything from that attribute on counts as
# test code, everything before it (code, comments, blanks) as non-test.
# With no arguments: one row per crate plus the whole tree. With file
# arguments: one row per file plus their sum. `--max-lib N` (per-crate mode)
# makes the library crates' non-test total — every row but `bench`, the
# figure harness — a gate: exit non-zero when it exceeds N.
set -euo pipefail
cd "$(dirname "$0")/.."

max_lib=
if [ "${1:-}" = "--max-lib" ]; then
    max_lib=${2:?--max-lib needs a line count}
    shift 2
fi

if [ "$#" -gt 0 ]; then
    files=("$@")
    key='file'
else
    mapfile -t files < <(find crates/*/src src -name '*.rs' | sort)
    key='crate'
fi

awk -v key="$key" -v max_lib="$max_lib" '
    function group(path,    parts) {
        if (key == "file") return path
        split(path, parts, "/")
        return parts[1] == "crates" ? parts[2] : "squall (facade)"
    }
    FNR == 1 { in_tests = 0; pending = 0; g = group(FILENAME); if (!(g in seen)) { seen[g] = 1; order[++n] = g } }
    {
        if (!in_tests && $0 ~ /^#\[cfg\(test\)\]$/) { pending = 1; test[g]++; next }
        if (pending) {
            pending = 0
            if ($0 ~ /^mod tests/) in_tests = 1
            else { test[g]--; code[g]++ }   # a cfg(test) item that is not the test module
        }
        if (in_tests) test[g]++; else code[g]++
    }
    END {
        printf "%-44s %9s %9s %9s\n", key, "non-test", "test", "total"
        for (i = 1; i <= n; i++) {
            g = order[i]
            printf "%-44s %9d %9d %9d\n", g, code[g], test[g], code[g] + test[g]
            c += code[g]; t += test[g]
            if (g != "bench") lib += code[g]
        }
        printf "%-44s %9d %9d %9d\n", "total", c, t, c + t
        if (max_lib != "") {
            printf "library crates (all but bench), non-test: %d (gate: at most %d)\n", lib, max_lib
            if (lib > max_lib) {
                print "over the gate: delete what the change made unnecessary, or raise the floor in ci.yml and say why in CHANGES.md"
                exit 1
            }
        }
    }
' "${files[@]}"
