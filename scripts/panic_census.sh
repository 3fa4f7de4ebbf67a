#!/bin/sh
# Panic census: counts the lines of production code under crates/*/src
# that call `.unwrap()`, `.expect(` or `panic!(`, and fails when the count
# rises above LIMIT. A line whose first non-blank characters are `//` (a
# comment, or a `//!` / `///` doc example) is not counted, and no
# production helper that returns a `Result` is named `expect`, so every
# counted line can panic. A file's production code is every line before a
# `#[cfg(test)]` that opens a `mod … {`, with or without a `pub` or
# `pub(…)` prefix; the endpoint's test-only model
# (crates/rpc/src/endpoint/model.rs) is skipped. A `#[cfg(test)]` module
# the rule does not match (an indented one, say) fails the census by
# name instead of being counted. Lower LIMIT when a site goes; a new site
# is either converted to an error or the limit is raised in the same
# change, with the reason.
#
# Run from the repository root: sh scripts/panic_census.sh
set -eu

LIMIT=24

# One line per file: its count, or `unstopped FILE:LINE` for a test
# module the stop rule did not match (so its lines would count as
# production).
census=$(find crates/*/src -name '*.rs' ! -path crates/rpc/src/endpoint/model.rs | sort |
    while read -r file; do
        awk -v file="$file" '
            prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\([a-z]+\))? )?mod .*\{/ { exit }
            prev ~ /^[ \t]*#\[cfg\(test\)\]/ && /mod .*\{/ { print "unstopped " file ":" FNR }
            !/^[ \t]*\/\// && /\.unwrap\(\)|\.expect\(|panic!\(/ { n++ }
            { prev = $0 }
            END { print n + 0 }' "$file"
    done)

unstopped=$(printf '%s\n' "$census" | grep '^unstopped ' || true)
if [ -n "$unstopped" ]; then
    echo "the panic census did not stop at these test modules:" >&2
    printf '%s\n' "$unstopped" >&2
    exit 1
fi
count=$(printf '%s\n' "$census" | awk '{ total += $1 } END { print total + 0 }')

echo "panic census: $count production lines call unwrap/expect/panic (limit $LIMIT)"
if [ "$count" -gt "$LIMIT" ]; then
    echo "the panic census rose above $LIMIT" >&2
    exit 1
fi
