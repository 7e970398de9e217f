#!/bin/sh
# Non-test lines of Rust source: for each file, the lines before its first
# `#[cfg(test)]`, then the total. Arguments are files or directories
# (default: every crate's src/).
[ $# -gt 0 ] || set -- crates/*/src
find "$@" -name '*.rs' | sort | xargs awk '
    FNR == 1 { file[++nf] = FILENAME; skip = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
    !skip { n[FILENAME]++; total++ }
    END { for (i = 1; i <= nf; i++) printf "%6d %s\n", n[file[i]], file[i]; printf "%6d total\n", total }'
