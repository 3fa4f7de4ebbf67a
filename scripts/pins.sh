#!/bin/sh
# Pins: rewrites every pinned file in place from its generator, then
# fails through `git diff` when any of them moved. The rewrite is the
# regeneration and git's diff is the check, so a change meant to move a
# pin runs this once and commits what it wrote; on any other change the
# script must exit 0 and leave the tree clean.
#
#   tests/semantics_lock.snapshot.txt     the semantics lock's digest
#   crates/ring/tests/ledger.snapshot.txt the ring's traffic-script digests
#   tests/paper_claims.snapshot.txt       E1-E9's stdout, in glob order
#   BENCH_digests.txt                     `run --quick`'s digest lines
#
# The two tests print their digest between `----- digest -----` markers
# whether or not it matches. The quick run also checks that
# `model.golden_mismatches` reads 0 for every workload;
# benchmark/golden.json is never written here (a change to `benchmark/`
# moves it). A generator that
# fails (an E-harness assertion, a test that prints no digest, a
# benchmark unit that fails its checks) fails the script too, after
# every pin has been rewritten.
#
# Takes no argument and works from the repository root whatever the
# current directory:
#   sh scripts/pins.sh
set -eu

cd "$(dirname "$0")/.."

semantics=tests/semantics_lock.snapshot.txt
ledger=crates/ring/tests/ledger.snapshot.txt
claims=tests/paper_claims.snapshot.txt
digests=BENCH_digests.txt

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
failed=0

# pin_digest FILE CARGO-TEST-ARGS...: runs one test and writes what it
# printed between its markers to FILE. The test fails when its digest
# moved, so only missing markers count as the generator failing.
pin_digest() {
    file=$1
    shift
    echo "pins: $file" >&2
    cargo test --offline -q "$@" -- --exact --nocapture >"$tmp/out" 2>"$tmp/err" || :
    if grep -q '^----- end digest -----$' "$tmp/out"; then
        sed -n '/^----- digest -----$/,/^----- end digest -----$/p' "$tmp/out" |
            sed '1d;$d' >"$file"
    else
        cat "$tmp/err" >&2
        echo "pins: $file: the test printed no digest" >&2
        failed=1
    fi
}

pin_digest "$semantics" --test semantics_lock pinned_seed_scenario_matches_committed_snapshot
pin_digest "$ledger" -p pilgrim-ring --test ledger traffic_script_digests_are_pinned

echo "pins: $claims" >&2
: >"$claims"
for f in crates/bench/benches/e[1-9]_*.rs; do
    name=$(basename "$f" .rs)
    if ! cargo bench --offline -q -p pilgrim-bench --bench "$name" >>"$claims"; then
        echo "pins: $name failed" >&2
        failed=1
    fi
done

echo "pins: $digests" >&2
if ! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --quick --out "$tmp/benchmark" >"$tmp/quick"; then
    echo "pins: a quick benchmark unit failed its checks" >&2
    failed=1
fi
grep -E '^## |^  digest ' "$tmp/quick" >"$digests" || :
# Each workload prints one `GOLDEN` line per model output that left
# golden.json, so none means `model.golden_mismatches` reads 0 for all
# six (the JSON result line carries only the first workload's count).
if grep '^  GOLDEN ' "$tmp/quick" >&2; then
    echo "pins: model.golden_mismatches is not 0" >&2
    failed=1
fi

if ! git diff --exit-code --stat -- "$semantics" "$ledger" "$claims" "$digests"; then
    echo "pins: the files above moved; commit them if the change meant to move them" >&2
    failed=1
fi
exit "$failed"
