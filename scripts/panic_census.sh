#!/bin/sh
# Panic census: counts the lines of production code under crates/*/src
# that call `.unwrap()`, `.expect(` or `panic!(`, and fails when the count
# rises above LIMIT. A file's production code is every line before a
# `#[cfg(test)]` that opens a `mod … {`; the endpoint's test-only model
# (crates/rpc/src/endpoint/model.rs) is skipped. Lower LIMIT when a site
# goes; a new site is either converted to an error or the limit is raised
# in the same change, with the reason.
#
# Run from the repository root: sh scripts/panic_census.sh
set -eu

LIMIT=129

count=$(find crates/*/src -name '*.rs' ! -path crates/rpc/src/endpoint/model.rs | sort |
    while read -r file; do
        awk 'prev ~ /^#\[cfg\(test\)\]/ && /^mod .*\{/ { exit }
             /\.unwrap\(\)|\.expect\(|panic!\(/ { n++ }
             { prev = $0 }
             END { print n + 0 }' "$file"
    done | awk '{ total += $1 } END { print total + 0 }')

echo "panic census: $count production lines call unwrap/expect/panic (limit $LIMIT)"
if [ "$count" -gt "$LIMIT" ]; then
    echo "the panic census rose above $LIMIT" >&2
    exit 1
fi
