#!/usr/bin/env sh
# Repo gate: offline release build, line table, tests, lints, static
# analysis. Everything must pass with no network (the workspace has no
# external dependencies by design — see ROADMAP.md). It starts no server
# and binds no port: every end-to-end scenario, the ones that run the
# `she` binary as real processes included (crates/she-cli/tests/cli.rs),
# is a Rust test on ephemeral ports inside `cargo test`.
set -eu

cd "$(dirname "$0")/.."

# Run one stage and print its wall time, so a slow gate names its stage.
stage() {
    echo "== $*"
    STAGE_START=$(date +%s%N)
    "$@"
    STAGE_MS=$(( ($(date +%s%N) - STAGE_START) / 1000000 ))
    echo "-- ${STAGE_MS}ms: $*"
}

# Every .rs file (src, tests, benches, bins), so the trend is visible from
# one gate run to the next. The total row is the workspace (crates/ src/
# examples/ tests/) — the figure CHANGES.md quotes; the frozen benchmark
# package is listed after it.
rs_lines() {
    find "$@" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l
}
line_table() {
    {
        for dir in crates/*/; do
            echo "$(rs_lines "$dir") $(basename "$dir")"
        done
        echo "$(rs_lines src examples tests) she (src, examples, tests)"
    } | awk '{ printf "%7d  %s\n", $1, substr($0, index($0, " ") + 1); total += $1 }
             END { printf "%7d  total\n", total }'
    printf '%7d  ladder (benchmark package, not in the total)\n' "$(rs_lines ladder)"
}

stage cargo build --release --offline --workspace
stage line_table
stage cargo test -q --offline --workspace

# SHE-MH's row-wise insert hashes lane-wise in a loop the compiler only
# vectorises in release, and its `debug_assert`ed cache invariant is
# compiled out there: the debug run above never executes the code that
# serves. The equivalence, `hash_seeds` and golden-digest tests must hold
# on that code too (seconds; the release artefacts already exist).
stage cargo test -q --offline --release -p she-hash -p she-sketch -p she-core

# The CLI scenarios again, against the release `she`: the binary people
# actually serve with is otherwise never started by the gate.
stage cargo test -q --offline --release -p she-cli

# The benchmark is a package of its own, frozen between PRs, and compiles
# against she-server's public names (`Client`, `worker`, the crate-root
# engine names): a changed public signature trips here. Its unit tests and
# 1/200-scale smoke of every workload (each served answer compared bit for
# bit with an in-process twin) prove the workspace still builds and
# answers the way the benchmark expects (ladder/README.md).
stage cargo test -q --offline --manifest-path ladder/Cargo.toml

stage cargo clippy --offline --workspace -- -D warnings
stage cargo fmt --check

# Workspace-wide static-analysis gate (docs/ANALYSIS.md): call-graph
# reachability rules (blocking, reachable-panic, wiresize), lock-order
# manifest + mined acquisition edges, unsafe inventory, cast/growth
# ratchets, protocol drift. Hard gate — any finding above a committed
# baseline fails the build. The audit prints per-rule timings itself;
# the wall-time budget below keeps the whole pass interactive.
stage target/release/she audit --root .
[ "$STAGE_MS" -le 10000 ] || {
    echo "she audit took ${STAGE_MS}ms (budget 10000ms) — profile the graph build"
    exit 1
}

echo "check.sh: all green"
