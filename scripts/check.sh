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

# `results/` holds what every seeded accuracy driver prints at
# SHE_SCALE=1, and EXPERIMENTS.md quotes it: a change that moves one digit
# of any figure or table fails here until the file is regenerated and the
# move explained. fig10/fig11 print timings and are not compared.
results_match() {
    for bin in ablations_accuracy fig5_stability fig6_window fig7_alpha fig8_bf_params \
        fig9_accuracy table2_resources table3_clock; do
        SHE_SCALE=1 "target/release/$bin" | diff -u "results/$bin.txt" -
    done
}
stage results_match
stage cargo test -q --offline --workspace

# SHE-MH's row-wise insert hashes lane-wise in a loop the compiler only
# vectorises in release, and its `debug_assert`ed cache invariant is
# compiled out there: the debug run above never executes the code that
# serves. The equivalence, `hash_seeds` and golden-digest tests must hold
# on that code too (seconds; the release artefacts already exist) — the
# SHE-MH memo oracle among them: `mh.rs`'s row-wise test holds the
# memoised insert, which hashes only the rows flipped since a key's last
# insert, and the settle, which re-checks only the rows flipped since the
# last one, to the generic loop. So are the aggregate-read oracles:
# `bm.rs`'s sweep test holds SHE-BM's per-group set-bit counts to each
# group's set bits and its estimate to both the per-cell and the popcount
# estimate, and
# `mh.rs`'s similarity test holds the row-range comparison to the
# per-row loops. So is the clock: `engine.rs`'s
# `cursor_is_the_closed_form_and_counts_the_offsets` and
# `clock_keeps_e_r_and_the_cursors_through_every_op` hold the closed form
# and the ticked cursors, on which every group's mark and age rest, to
# the offsets counted one by one. So is the point-read pass: `bf.rs`'s,
# `cm.rs`'s and `cs.rs`'s `pass_answers_and_cleans_as_the_per_row_walk`
# hold the reads' answers and the snapshot bytes (the groups a read
# cleans) to the per-row walk the pass replaced.
# she-server's tests run here as well: the reactor's round path — a
# connection's multi-frame read set (point, batch and aggregate frames in
# one set, riding one per-shard job), its shedding, one `OVERLOADED` per
# frame, and the twin-equivalence tests — then also run on the optimised
# build the benchmark times, where the worker outpaces the reactor. So
# do the pipelined-cluster tests (`cluster_links.rs`: a connection's
# cluster frames in one set, a failed leg failing the set) and
# she-cluster's: the coordinator's peer links and their in-order leg
# matching, under the timing the benchmark's cluster workload sees.
# she-readpath's too: the mirror's frozen reads and mark signatures are
# what `QUERY_FAST` runs on the reactor thread.
stage cargo test -q --offline --release -p she-hash -p she-sketch -p she-core -p she-server -p she-cluster -p she-readpath

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

# `--all-targets`: `cargo test` never builds `she-bench/benches/` (the
# `ablations` suite), so without it a changed engine signature could break
# it unnoticed.
# `clippy.toml` bans a raw `std::sync::Mutex` here: every lock is a
# `she_core::LeafMutex`, which panics on nested locking in debug builds.
stage cargo clippy --offline --workspace --all-targets -- -D warnings
# Intra-doc links name public items; a deleted field or type must take
# its links with it. `--lib`: the `she` lib and bin would otherwise
# collide on one output file name.
stage env RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --lib
stage cargo fmt --check

# Workspace-wide static-analysis gate (docs/ANALYSIS.md): the checks
# that need the call graph (reactor blocking, wiresize taint),
# unbounded growth and allow-annotation hygiene. Any finding fails the
# build; the panic, cast, unsafe and raw-mutex checks are clippy's
# above. The audit prints per-rule timings itself; the wall-time budget
# below keeps the pass interactive.
stage target/release/she audit --root .
[ "$STAGE_MS" -le 10000 ] || {
    echo "she audit took ${STAGE_MS}ms (budget 10000ms) — profile the graph build"
    exit 1
}

echo "check.sh: all green"
