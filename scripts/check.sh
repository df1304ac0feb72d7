#!/usr/bin/env sh
# Repo gate: offline release build, offline tests, formatting.
# Everything must pass with no network (the workspace has no external
# dependencies by design — see ROADMAP.md).
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "== rust lines per crate"
# Every .rs file (src, tests, benches, bins), so the trend is visible from
# one gate run to the next. The total row is the workspace (crates/ src/
# examples/ tests/) — the figure CHANGES.md quotes; the frozen benchmark
# package is listed after it.
rs_lines() {
    find "$@" -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l
}
{
    for dir in crates/*/; do
        echo "$(rs_lines "$dir") $(basename "$dir")"
    done
    echo "$(rs_lines src examples tests) she (src, examples, tests)"
} | awk '{ printf "%7d  %s\n", $1, substr($0, index($0, " ") + 1); total += $1 }
         END { printf "%7d  total\n", total }'
printf '%7d  ladder (benchmark package, not in the total)\n' "$(rs_lines ladder)"

echo "== cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== cargo test -q --offline --release -p she-hash -p she-sketch -p she-core"
# SHE-MH's row-wise insert hashes lane-wise in a loop the compiler only
# vectorises in release, and its `debug_assert`ed cache invariant is
# compiled out there: the debug run above never executes the code that
# serves. The equivalence, `hash_seeds` and golden-digest tests must hold
# on that code too (seconds; the release artefacts already exist).
cargo test -q --offline --release -p she-hash -p she-sketch -p she-core

echo "== ladder tests (ladder/README.md)"
# The benchmark is a package of its own, frozen between PRs, and compiles
# against she-server's public names (`Client`, `worker`, the crate-root
# engine names), so it runs straight after the workspace tests: a changed
# public signature trips here in minutes, not after the six smokes. Its
# unit tests and 1/200-scale smoke of every workload (each served answer
# compared bit for bit with an in-process twin) prove the workspace still
# builds and answers the way the benchmark expects.
cargo test -q --offline --manifest-path ladder/Cargo.toml

echo "== cargo clippy --offline --workspace -- -D warnings"
cargo clippy --offline --workspace -- -D warnings

echo "== cargo fmt --check"
cargo fmt --check

echo "== she audit"
# Workspace-wide static-analysis gate (docs/ANALYSIS.md): call-graph
# reachability rules (blocking, reachable-panic, wiresize), lock-order
# manifest + mined acquisition edges, unsafe inventory, cast/growth
# ratchets, protocol drift. Hard gate — any finding above a committed
# baseline fails the build. The audit prints per-rule timings itself;
# the wall-time budget below keeps the whole pass interactive.
AUDIT_START=$(date +%s%N)
target/release/she audit --root .
AUDIT_MS=$(( ($(date +%s%N) - AUDIT_START) / 1000000 ))
echo "she audit: ${AUDIT_MS}ms wall"
[ "$AUDIT_MS" -le 10000 ] || {
    echo "she audit took ${AUDIT_MS}ms (budget 10000ms) — profile the graph build"
    exit 1
}

echo "== checkpoint/restore smoke test"
# Serve, load 10k keys, checkpoint over the wire, restart --restore, and
# assert the restored server answers the same queries bit-for-bit.
BIN=target/release/she
ADDR=127.0.0.1:7497
CKDIR=$(mktemp -d)
SERVER_PID=
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$CKDIR"
}
trap cleanup EXIT INT TERM

wait_ready() {
    i=0
    until "$BIN" query --addr "$ADDR" --op card >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "server at $ADDR never came up"; exit 1; }
        sleep 0.1
    done
}

queries() {
    for key in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16; do
        "$BIN" query --addr "$ADDR" --op member --key "$key"
        "$BIN" query --addr "$ADDR" --op freq --key "$key"
    done
    "$BIN" query --addr "$ADDR" --op card
    "$BIN" query --addr "$ADDR" --op sim
}

"$BIN" serve --addr "$ADDR" --shards 4 --window 64k --memory 64k >/dev/null &
SERVER_PID=$!
wait_ready
"$BIN" loadgen --addr "$ADDR" --items 10000 --queries 100 --universe 5000 \
    --verify yes --window 64k --shards 4 --memory 64k >/dev/null
"$BIN" checkpoint --addr "$ADDR" --dir "$CKDIR" >/dev/null
queries >"$CKDIR/before.txt"
"$BIN" shutdown --addr "$ADDR" >/dev/null
wait "$SERVER_PID" || true
SERVER_PID=

"$BIN" serve --addr "$ADDR" --restore "$CKDIR" >/dev/null &
SERVER_PID=$!
wait_ready
queries >"$CKDIR/after.txt"
"$BIN" shutdown --addr "$ADDR" >/dev/null
wait "$SERVER_PID" || true
SERVER_PID=

diff "$CKDIR/before.txt" "$CKDIR/after.txt" || {
    echo "restored server diverged from checkpoint"
    exit 1
}
echo "checkpoint/restore: bit-for-bit identical answers"

echo "== replication smoke test"
# Primary + replica, 120k items streamed open-loop; a second replica
# joins mid-stream (snapshot bootstrap + log tail, boot_seq > 0); the
# primary is then killed -9 and both replicas must answer bit-for-bit
# against an in-process mirror of everything the primary acknowledged.
PADDR=127.0.0.1:7498
R1ADDR=127.0.0.1:7499
R2ADDR=127.0.0.1:7500
ITEMS=120000
BATCH=256
N_BATCHES=$(( (ITEMS + BATCH - 1) / BATCH ))
R1_PID=
R2_PID=
cleanup2() {
    for pid in $SERVER_PID $R1_PID $R2_PID; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$CKDIR"
}
trap cleanup2 EXIT INT TERM

# Non-mutating readiness probe (queries would advance lazy cleaning).
wait_status() {
    i=0
    until "$BIN" cluster-status --addr "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && { echo "node at $1 never came up"; exit 1; }
        sleep 0.1
    done
}

# Poll until the node at $1 reports applied=$2.
wait_applied() {
    i=0
    until "$BIN" cluster-status --addr "$1" 2>/dev/null | grep -q "applied=$2 "; do
        i=$((i + 1))
        [ "$i" -ge 200 ] && {
            echo "replica at $1 never converged to seq $2:"
            "$BIN" cluster-status --addr "$1" || true
            exit 1
        }
        sleep 0.1
    done
}

"$BIN" serve --addr "$PADDR" --shards 4 --window 64k --memory 64k \
    --repl-log 4096 >/dev/null &
SERVER_PID=$!
wait_status "$PADDR"

"$BIN" serve --addr "$R1ADDR" --replica-of "$PADDR" >/dev/null &
R1_PID=$!
wait_status "$R1ADDR"

# Open-loop stream in the background (~3s at 40k items/s), no queries so
# the log position maps 1:1 onto workload batches.
"$BIN" loadgen --addr "$PADDR" --items "$ITEMS" --batch "$BATCH" --queries 0 \
    --open 40000 --universe 5000 >/dev/null &
LOADGEN_PID=$!

# Second replica joins mid-stream: it must bootstrap from a snapshot cut
# past sequence 0 and then tail the log, not replay from scratch.
sleep 1
"$BIN" serve --addr "$R2ADDR" --replica-of "$PADDR" >/dev/null &
R2_PID=$!
wait_status "$R2ADDR"
BOOT_SEQ=$("$BIN" cluster-status --addr "$R2ADDR" | sed -n 's/.*boot_seq=\([0-9]*\).*/\1/p')
[ "$BOOT_SEQ" -gt 0 ] || {
    echo "mid-stream join did not bootstrap from a snapshot (boot_seq=$BOOT_SEQ)"
    exit 1
}
echo "mid-stream join bootstrapped at seq $BOOT_SEQ"

wait "$LOADGEN_PID" || { echo "loadgen failed"; exit 1; }
wait_applied "$R1ADDR" "$N_BATCHES"
wait_applied "$R2ADDR" "$N_BATCHES"

# Read scaling: queries fan out to the replica while the primary owns
# writes (--items 0 keeps the op log untouched for the mirror check).
"$BIN" loadgen --addr "$PADDR" --items 0 --queries 200 --connections 2 \
    --read-from "$R1ADDR" >/dev/null

# Writes to a replica are rejected, naming the primary.
if OUT=$("$BIN" loadgen --addr "$R1ADDR" --items 100 --queries 0 2>&1); then
    echo "replica accepted a write:"; echo "$OUT"; exit 1
fi
echo "$OUT" | grep -q "read-only replica" || {
    echo "replica write rejection did not name the primary:"; echo "$OUT"; exit 1
}

# Kill the primary without ceremony; the replicas keep serving at the
# last acknowledged sequence number.
kill -9 "$SERVER_PID" 2>/dev/null || true
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

for R in "$R1ADDR" "$R2ADDR"; do
    "$BIN" mirror-check --addr "$R" --items "$ITEMS" --batch "$BATCH" \
        --universe 5000 --sim-every 8 --probes 32 \
        --window 64k --shards 4 --memory 64k || {
        echo "replica at $R diverged from the mirror"
        exit 1
    }
done
echo "replication: both replicas bit-for-bit at seq $N_BATCHES after primary kill -9"

"$BIN" shutdown --addr "$R1ADDR" >/dev/null
"$BIN" shutdown --addr "$R2ADDR" >/dev/null
wait "$R1_PID" || true
wait "$R2_PID" || true
ALL_PIDS="$R1_PID $R2_PID"
R1_PID=
R2_PID=

# Smokes must not leak server processes: everything we spawned has been
# waited on above; a survivor here means a shutdown path regressed.
for pid in $ALL_PIDS; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "LEAKED PROCESS: pid $pid survived its smoke test"
        kill -9 "$pid" 2>/dev/null || true
        exit 1
    fi
done

echo "== cluster failover smoke test (docs/CLUSTER.md)"
# Three cluster nodes at RF=2 (each a partition primary + a replica
# slot per map assignment + gossip monitor); a cluster-aware loadgen
# rides per-partition fault proxies with exactly-once head-ledger
# resync while verifying scatter-gather answers against an in-process
# mirror; partition 0's primary is then killed -9, the lowest-id live
# holder must be promoted and gossiped (and the holder set topped back
# up), writes continue, then the freshly promoted node is killed -9
# too, and a final mirror-check proves the twice-failed-over cluster
# is still bit-for-bit identical to one single-process engine of the
# same global sizing.
C1=127.0.0.1:7601
C2=127.0.0.1:7602
C3=127.0.0.1:7603
ROSTER="1@$C1,2@$C2,3@$C3"
CWIN=65536
CMEM=65536
CITEMS=30720     # 120 batches of 256
CMORE=10240      # 40 more after each failover (offset stays batch-aligned)
CTOTAL=$((CITEMS + CMORE + CMORE))
N1_PID=
N2_PID=
N3_PID=
cleanup3() {
    for pid in $N1_PID $N2_PID $N3_PID; do
        kill "$pid" 2>/dev/null || true
    done
}
trap cleanup3 EXIT INT TERM

"$BIN" cluster-serve --node-id 1 --roster "$ROSTER" --window "$CWIN" \
    --memory "$CMEM" --replication 2 --anti-entropy-ms 500 \
    --gossip-ms 100 --heartbeat-timeout-ms 1000 >/dev/null &
N1_PID=$!
"$BIN" cluster-serve --node-id 2 --roster "$ROSTER" --window "$CWIN" \
    --memory "$CMEM" --replication 2 --anti-entropy-ms 500 \
    --gossip-ms 100 --heartbeat-timeout-ms 1000 >/dev/null &
N2_PID=$!
"$BIN" cluster-serve --node-id 3 --roster "$ROSTER" --window "$CWIN" \
    --memory "$CMEM" --replication 2 --anti-entropy-ms 500 \
    --gossip-ms 100 --heartbeat-timeout-ms 1000 >/dev/null &
N3_PID=$!
for C in "$C1" "$C2" "$C3"; do
    wait_status "$C"
done

# Cluster-aware load through per-partition fault proxies, with
# interleaved verified scatter-gather queries: injected partials,
# delays, and resets must be absorbed by the exactly-once op-log-head
# ledger without disturbing bit-for-bit verification.
"$BIN" loadgen --addr "$C1" --cluster yes --items "$CITEMS" --batch 256 \
    --queries 60 --universe 5000 --sim-every 8 --seed 1 \
    --faults yes --fault-seed 42 \
    --verify yes --window "$CWIN" --shards 3 --memory "$CMEM" >/dev/null

# Drain: each primary's replica must have acked the log head before the
# kill (a kill before the tail drains would test data loss, not failover).
wait_drained() {
    i=0
    while :; do
        OUT=$("$BIN" cluster-status --addr "$1" 2>/dev/null) || OUT=""
        HEAD=$(echo "$OUT" | sed -n 's/^role=primary head=\([0-9]*\) .*/\1/p')
        if [ -n "$HEAD" ]; then
            if [ "$HEAD" = "0" ] || echo "$OUT" | grep -q "acked=$HEAD\$"; then
                break
            fi
        fi
        i=$((i + 1))
        [ "$i" -ge 200 ] && {
            echo "replica of the primary at $1 never drained:"
            echo "$OUT"
            exit 1
        }
        sleep 0.1
    done
}
for C in "$C1" "$C2" "$C3"; do
    wait_drained "$C"
done

# cluster-status must name each partition's full holder list and its
# replicas' apply-lag; after the drain above, partition 0 reads
# holders 1,2 with replica 2 fully caught up (lag 0).
"$BIN" cluster-status --addr "$C1" \
    | grep -q "^partition=0 primary=1@.*holders=1,2 .*lag=2:0\$" || {
    echo "cluster-status is missing the per-partition holder/lag line:"
    "$BIN" cluster-status --addr "$C1" || true
    exit 1
}
echo "cluster-status reports holders + apply-lag per partition"

# Drain every partition named by the freshest map (promoted primaries
# listen on ephemeral addresses, so the addresses come from the map):
# all replica holders must have acked the log head before a kill.
drain_all() {
    for ADDR in $("$BIN" cluster-map --addr "$1" \
            | sed -n 's/^partition=[0-9]* primary=[0-9]*@\([^ ]*\) .*/\1/p'); do
        wait_drained "$ADDR"
    done
}

# Kill partition 0's primary (node 1) without ceremony.
kill -9 "$N1_PID" 2>/dev/null || true
wait "$N1_PID" 2>/dev/null || true
N1_PID=

# The survivors must gossip their way to a map where partition 0 is
# served by the promoted replica (node 2: the lowest-id live holder).
i=0
until "$BIN" cluster-map --addr "$C2" 2>/dev/null \
        | grep "^partition=0 " | grep -qv "primary=1@"; do
    i=$((i + 1))
    [ "$i" -ge 200 ] && {
        echo "failover never converged:"
        "$BIN" cluster-map --addr "$C2" || true
        exit 1
    }
    sleep 0.1
done
"$BIN" cluster-map --addr "$C2" | grep "^partition=0 " | grep -q "primary=2@" || {
    echo "wrong node promoted for partition 0:"
    "$BIN" cluster-map --addr "$C2"
    exit 1
}
echo "partition 0 failed over to node 2"

# Writes keep flowing against the new map (offset continues the keygen
# exactly where the pre-kill run stopped), then every partition —
# including the freshly drafted RF top-up holders — drains, so the
# second kill tests failover, not data loss.
"$BIN" loadgen --addr "$C2" --cluster yes --items "$CMORE" --offset "$CITEMS" \
    --batch 256 --queries 0 --universe 5000 --sim-every 8 --seed 1 >/dev/null
drain_all "$C2"

# Round two: kill the node that just won the election. Partition 0's
# drafted replacement holder (node 3) must promote this time, along
# with node 2's own partition.
kill -9 "$N2_PID" 2>/dev/null || true
wait "$N2_PID" 2>/dev/null || true
N2_PID=
i=0
until OUT=$("$BIN" cluster-map --addr "$C3" 2>/dev/null) && [ -n "$OUT" ] \
        && ! echo "$OUT" | grep "^partition=" \
            | grep -Eq "primary=(1|2)@"; do
    i=$((i + 1))
    [ "$i" -ge 200 ] && {
        echo "second failover never converged:"
        "$BIN" cluster-map --addr "$C3" || true
        exit 1
    }
    sleep 0.1
done
echo "promoted node killed; every partition failed over to node 3"

# Writes continue against the twice-failed-over map.
"$BIN" loadgen --addr "$C3" --cluster yes --items "$CMORE" \
    --offset "$((CITEMS + CMORE))" \
    --batch 256 --queries 0 --universe 5000 --sim-every 8 --seed 1 >/dev/null

# The whole cluster — now entirely promoted replicas plus node 3's own
# partition — must still equal one single-process engine of the same
# global sizing, bit-for-bit: zero acknowledged writes lost across two
# kill -9s.
"$BIN" mirror-check --addr "$C3" --cluster yes --items "$CTOTAL" --batch 256 \
    --universe 5000 --sim-every 8 --seed 1 --probes 32 \
    --window "$CWIN" --shards 3 --memory "$CMEM" || {
    echo "cluster diverged from the single-engine mirror after double failover"
    exit 1
}
echo "cluster failover: bit-for-bit vs single engine after two kill -9s"

"$BIN" shutdown --addr "$C3" >/dev/null
wait "$N3_PID" || true
for pid in $N3_PID; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "LEAKED PROCESS: cluster node pid $pid survived its smoke test"
        kill -9 "$pid" 2>/dev/null || true
        exit 1
    fi
done
N3_PID=

echo "== chaos soak smoke test (docs/ROBUSTNESS.md)"
# Deterministic fault-injection soak: primary + replica through a fault
# proxy, 3 disconnect/kill-restart cycles, bit-for-bit mirror verdict,
# stalled-client eviction, torn-checkpoint detection. Runs in-process —
# nothing to leak. Fixed seed; a failure prints it for an exact replay.
CHAOS_SEED=3405691582
CHAOS_DIR=$(mktemp -d)
"$BIN" chaos-soak --seed "$CHAOS_SEED" --cycles 3 --keys 2000 \
    --dir "$CHAOS_DIR" || {
    echo "chaos soak FAILED — replay with: she chaos-soak --seed $CHAOS_SEED"
    rm -rf "$CHAOS_DIR"
    exit 1
}
rm -rf "$CHAOS_DIR"

echo "== cluster double-kill drill under gossip chaos (docs/CLUSTER.md)"
# In-process failover drill: seeded workload on a real 3-node RF=2
# cluster with every gossip exchange routed through fault proxies
# (drops, delays, resets, duplicated deliveries), partition 0's primary
# killed and then its freshly promoted successor killed too; survivors
# must converge after each kill, writes continue between kills, and the
# final scatter-gather battery must match the mirror bit-for-bit.
DRILL_SEED=274951162221585
"$BIN" chaos-cluster --seed "$DRILL_SEED" --replication 2 --kills 2 \
    --gossip-faults yes || {
    echo "cluster drill FAILED — replay with: she chaos-cluster --seed $DRILL_SEED"
    exit 1
}

echo "== epoll reactor smoke test (docs/SERVER.md)"
# The event-driven serving tier under its two hardest loads, one server:
# (1) a verified loadgen run rides injected transport faults (resets,
# partial/torn writes, delays) via reconnect + op-log-head resync, and
# must stay bit-for-bit despite the chaos; (2) 1024 concurrent
# connections hammer the same reactor with batched queries interleaved;
# (3) a from-log mirror-check subscribes to the server's own op log,
# replays the union of both workloads in admission order, and must match
# bit-for-bit.
EADDR=127.0.0.1:7501
E_PID=
cleanup4() { [ -n "$E_PID" ] && kill "$E_PID" 2>/dev/null || true; }
trap cleanup4 EXIT INT TERM

"$BIN" serve --addr "$EADDR" --shards 4 --window 64k --memory 64k \
    --repl-log 8192 >/dev/null &
E_PID=$!
wait_status "$EADDR"

"$BIN" loadgen --addr "$EADDR" --items 20000 --batch 128 --queries 400 \
    --query-batch 16 --universe 5000 --seed 7 --faults yes --fault-seed 3 \
    --verify yes --window 64k --shards 4 --memory 64k >/dev/null || {
    echo "fault-riding verified loadgen failed"
    exit 1
}

"$BIN" loadgen --addr "$EADDR" --items 65536 --batch 64 --queries 1024 \
    --query-batch 8 --connections 1024 --universe 5000 --seed 11 >/dev/null || {
    echo "1024-connection loadgen failed"
    exit 1
}

"$BIN" mirror-check --addr "$EADDR" --from-log yes --universe 5000 --seed 7 \
    --probes 64 --window 64k --shards 4 --memory 64k || {
    echo "reactor diverged from its own op log"
    exit 1
}
echo "reactor: fault-riding verify + 1024 connections, log replay bit-for-bit"

"$BIN" shutdown --addr "$EADDR" >/dev/null
wait "$E_PID" || true
if kill -0 "$E_PID" 2>/dev/null; then
    echo "LEAKED PROCESS: reactor smoke server pid $E_PID survived"
    kill -9 "$E_PID" 2>/dev/null || true
    exit 1
fi
E_PID=

echo "== read-path smoke test (docs/READPATH.md)"
# Serve with the mark-cached read mirror on, drive the canonical 95/5
# zipfian read-heavy profile (hit rate measured server-side, must be
# non-zero), then `she fastcheck` verifies the staleness bound at
# quiescence: every fast answer bit-for-bit vs the authoritative path,
# second asks all cache hits.
FADDR=127.0.0.1:7502
F_PID=
cleanup5() { [ -n "$F_PID" ] && kill "$F_PID" 2>/dev/null || true; }
trap cleanup5 EXIT INT TERM

"$BIN" serve --addr "$FADDR" --shards 4 --window 64k --memory 64k \
    --repl-log 8192 --readpath yes >/dev/null &
F_PID=$!
wait_status "$FADDR"

OUT=$("$BIN" loadgen --addr "$FADDR" --items 20000 --batch 256 --queries 0 \
    --universe 5000 --seed 7 --read-ratio 0.95 --zipf 1.1) || {
    echo "read-heavy loadgen failed:"; echo "$OUT"; exit 1
}
RATE=$(echo "$OUT" | sed -n 's/.*fast_hit_rate=\([0-9.]*\).*/\1/p')
[ -n "$RATE" ] || { echo "loadgen reported no fast_hit_rate:"; echo "$OUT"; exit 1; }
case "$RATE" in
    0 | 0.000) echo "read path never hit (rate $RATE)"; exit 1 ;;
esac
echo "read-heavy 95/5 profile: cache hit rate $RATE"

"$BIN" fastcheck --addr "$FADDR" --keys 256 --universe 5000 --skew 1.1 --seed 7 || {
    echo "fastcheck found a staleness-bound violation"
    exit 1
}

"$BIN" shutdown --addr "$FADDR" >/dev/null
wait "$F_PID" || true
if kill -0 "$F_PID" 2>/dev/null; then
    echo "LEAKED PROCESS: read-path smoke server pid $F_PID survived"
    kill -9 "$F_PID" 2>/dev/null || true
    exit 1
fi
F_PID=

echo "check.sh: all green"
