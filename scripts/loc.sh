#!/usr/bin/env bash
# Lines of Rust under crates/*/src and src, split at each file's
# `#[cfg(test)] mod tests`: everything from that attribute on counts as
# test code, everything before it (code, comments, blanks) as non-test.
# With no arguments: one row per crate plus the whole tree. With file
# arguments: one row per file plus their sum.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    files=("$@")
    key='file'
else
    mapfile -t files < <(find crates/*/src src -name '*.rs' | sort)
    key='crate'
fi

awk -v key="$key" '
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
        }
        printf "%-44s %9d %9d %9d\n", "total", c, t, c + t
    }
' "${files[@]}"
