#!/usr/bin/env bash
# e2e_restart.sh — end-to-end smoke for the durability layer, in two
# acts.
#
# Part 1, zero-downtime restart: boot sampled with -checkpoint-dir,
# ingest into a fleet of streams (estimator on), SIGTERM it (final
# checkpoint), boot a new process on the same dir and require identical
# counters and a byte-identical Hurst document — the restart is
# invisible to a client reading snapshots.
#
# Part 2, cluster routing: two backends behind a `sampled -route`
# router. Streams created and fed through the router spread over both
# backends; one backend is killed and restarted from its checkpoint,
# and the router's health loop must eject it, readmit it, and hand its
# share of streams back by checkpoint transfer — with every stream's
# counters intact end to end. A five-technique comparison group rides
# the same outage and must come back with its input count intact.
#
#   ./scripts/e2e_restart.sh [streams] [ticks]
set -euo pipefail

STREAMS="${1:-6}"
TICKS="${2:-10000}"
PORT="${SAMPLED_PORT:-18090}"
B1_PORT=$((PORT + 1))
B2_PORT=$((PORT + 2))
BASE="http://127.0.0.1:${PORT}"

workdir="$(mktemp -d)"
pids=()
cleanup() {
    for pid in "${pids[@]:-}"; do
        if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sampled" ./cmd/sampled
go build -o "$workdir/sampleload" ./cmd/sampleload

# wait_ready polls a base URL's /readyz until it answers 200 — the
# durability layer's own signal that boot restore has finished.
wait_ready() {
    local base="$1" pid="$2"
    for _ in $(seq 1 50); do
        if curl -sf "$base/readyz" > /dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "e2e-restart: daemon at $base died before ready" >&2
            exit 1
        fi
        sleep 0.1
    done
    curl -sf "$base/readyz" > /dev/null
}

# snapshot_line extracts the counters a restart must preserve.
snapshot_line() {
    curl -sf "$1/v1/streams/$2/snapshot" |
        sed -E 's/.*"seen":([0-9]+).*"kept":([0-9]+).*/seen=\1 kept=\2/'
}

# group_seen extracts a comparison group's input tick count (the
# document's leading top-level "seen"; member summaries follow it).
group_seen() {
    curl -sf "$1/v1/groups/$2" | sed -E 's/^\{"seen":([0-9]+),.*/\1/'
}

# make_fleet creates $STREAMS persistent streams named "$1-NN" against
# base URL $2 (randomized technique, distinct seeds, estimator on) and
# feeds each one TICKS ticks.
make_fleet() {
    local prefix="$1" base="$2" i id
    for i in $(seq 0 $((STREAMS - 1))); do
        id="$(printf '%s-%02d' "$prefix" "$i")"
        curl -sf -X PUT "$base/v1/streams/$id" \
            -H 'Content-Type: application/json' \
            -d "{\"spec\": \"bernoulli:rate=0.05,seed=$((i + 11))\", \"estimator\": \"aggvar\"}" > /dev/null
        seq 1 "$TICKS" | tr '\n' ' ' |
            curl -sf -X POST "$base/v1/streams/$id/ticks" --data-binary @- > /dev/null
    done
}

# ---------------------------------------------------------------- Part 1

ckpt_dir="$workdir/ckpt"
"$workdir/sampled" -addr "127.0.0.1:${PORT}" \
    -checkpoint-dir "$ckpt_dir" -checkpoint-interval 1s &
daemon_pid=$!
pids+=("$daemon_pid")
wait_ready "$BASE" "$daemon_pid"

# Throughput smoke through the full serving path (sampleload tears its
# own streams down), then the persistent fleet the restart must carry.
"$workdir/sampleload" -addr "127.0.0.1:${PORT}" \
    -streams "$STREAMS" -ticks "$TICKS" -batch 512
make_fleet ck "$BASE"

declare -A before
for i in $(seq 0 $((STREAMS - 1))); do
    id="$(printf 'ck-%02d' "$i")"
    before[$id]="$(snapshot_line "$BASE" "$id")"
done
hurst_before="$(curl -sf "$BASE/v1/streams/ck-00/hurst")"
count_before="$(curl -sf "$BASE/v1/streams" | sed -E 's/.*"count":([0-9]+).*/\1/')"

kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "e2e-restart: sampled did not drain cleanly on SIGTERM" >&2
    exit 1
fi
if [ ! -s "$ckpt_dir/hub.ckpt" ]; then
    echo "e2e-restart: no checkpoint written on shutdown" >&2
    exit 1
fi

"$workdir/sampled" -addr "127.0.0.1:${PORT}" \
    -checkpoint-dir "$ckpt_dir" -checkpoint-interval 1s &
daemon_pid=$!
pids+=("$daemon_pid")
wait_ready "$BASE" "$daemon_pid"

count_after="$(curl -sf "$BASE/v1/streams" | sed -E 's/.*"count":([0-9]+).*/\1/')"
if [ "$count_before" != "$count_after" ]; then
    echo "e2e-restart: stream count changed across restart: $count_before -> $count_after" >&2
    exit 1
fi
for i in $(seq 0 $((STREAMS - 1))); do
    id="$(printf 'ck-%02d' "$i")"
    after="$(snapshot_line "$BASE" "$id")"
    if [ "${before[$id]}" != "$after" ]; then
        echo "e2e-restart: $id counters changed across restart: '${before[$id]}' -> '$after'" >&2
        exit 1
    fi
done
hurst_after="$(curl -sf "$BASE/v1/streams/ck-00/hurst")"
if [ "$hurst_before" != "$hurst_after" ]; then
    echo "e2e-restart: hurst document changed across restart" >&2
    exit 1
fi
# The restored daemon keeps serving: more ticks must land on the
# restored engine, not a fresh one.
seq 1 1000 | tr '\n' ' ' | curl -sf -X POST "$BASE/v1/streams/ck-00/ticks" --data-binary @- > /dev/null
snapshot_line "$BASE" ck-00 | grep -q "seen=$((TICKS + 1000)) "

kill -TERM "$daemon_pid"
wait "$daemon_pid" || true
echo "e2e-restart: part 1 ok ($count_before streams restored byte-identically)"

# ---------------------------------------------------------------- Part 2

B1="http://127.0.0.1:${B1_PORT}"
B2="http://127.0.0.1:${B2_PORT}"
"$workdir/sampled" -addr "127.0.0.1:${B1_PORT}" -checkpoint-dir "$workdir/b1" &
b1_pid=$!
pids+=("$b1_pid")
"$workdir/sampled" -addr "127.0.0.1:${B2_PORT}" -checkpoint-dir "$workdir/b2" &
b2_pid=$!
pids+=("$b2_pid")
wait_ready "$B1" "$b1_pid"
wait_ready "$B2" "$b2_pid"

"$workdir/sampled" -addr "127.0.0.1:${PORT}" \
    -route "127.0.0.1:${B1_PORT},127.0.0.1:${B2_PORT}" \
    -health-interval 200ms &
router_pid=$!
pids+=("$router_pid")
wait_ready "$BASE" "$router_pid"

# Drive load through the router (forwarding smoke over every wire the
# load tool speaks), then the persistent fleet whose placement the
# outage will test.
"$workdir/sampleload" -addr "127.0.0.1:${PORT}" \
    -streams "$STREAMS" -ticks "$TICKS" -batch 512 -wire session
make_fleet fleet "$BASE"
curl -sf -X PUT "$BASE/v1/groups/fleet-cmp" \
    -H 'Content-Type: application/json' \
    -d '{"specs": ["systematic:interval=50", "stratified:interval=50,seed=3",
                   "simple:n=100,seed=4", "bernoulli:rate=0.02,seed=5",
                   "bss:interval=50,L=5,eps=1.0"],
         "estimator": "aggvar"}' > /dev/null
seq 1 "$TICKS" | tr '\n' ' ' |
    curl -sf -X POST "$BASE/v1/groups/fleet-cmp/ticks" --data-binary @- > /dev/null
group_before="$(group_seen "$BASE" fleet-cmp)"
if [ "$group_before" != "$TICKS" ]; then
    echo "e2e-restart: group fleet-cmp saw $group_before ticks, want $TICKS" >&2
    exit 1
fi

total="$(curl -sf "$BASE/v1/streams" | sed -E 's/.*"count":([0-9]+).*/\1/')"
if [ "$total" != "$STREAMS" ]; then
    echo "e2e-restart: router sees $total streams, want $STREAMS" >&2
    exit 1
fi
n1="$(curl -sf "$B1/v1/streams" | sed -E 's/.*"count":([0-9]+).*/\1/')"
n2="$(curl -sf "$B2/v1/streams" | sed -E 's/.*"count":([0-9]+).*/\1/')"
if [ "$n1" -eq 0 ] || [ "$n2" -eq 0 ]; then
    echo "e2e-restart: degenerate placement ($n1/$n2) over two backends" >&2
    exit 1
fi

# wait_backends polls the router's membership gauge until it reads $1.
wait_backends() {
    local want="$1" up=""
    for _ in $(seq 1 100); do
        up="$(curl -sf "$BASE/metrics" | awk '/^sampled_router_backends_up /{print $2}')"
        if [ "${up%%.*}" = "$want" ]; then
            return 0
        fi
        sleep 0.1
    done
    echo "e2e-restart: router never saw $want backends up (last: ${up:-none})" >&2
    exit 1
}

# Kill backend 2: the router must eject it within a probe round. Its
# streams ride out the outage in its shutdown checkpoint.
kill -TERM "$b2_pid"
wait "$b2_pid" || true
wait_backends 1

# Restart backend 2 from its checkpoint: the router must readmit it and
# rebalance — every stream lands back on its ring owner with counters
# intact, so the cluster-wide view is exactly the pre-outage one.
"$workdir/sampled" -addr "127.0.0.1:${B2_PORT}" -checkpoint-dir "$workdir/b2" &
b2_pid=$!
pids+=("$b2_pid")
wait_ready "$B2" "$b2_pid"
wait_backends 2
# Rebalance runs synchronously inside the probe round, so membership=2
# implies the handoffs are done.
total="$(curl -sf "$BASE/v1/streams" | sed -E 's/.*"count":([0-9]+).*/\1/')"
if [ "$total" != "$STREAMS" ]; then
    echo "e2e-restart: $total streams after backend restart, want $STREAMS" >&2
    exit 1
fi
for i in $(seq 0 $((STREAMS - 1))); do
    id="$(printf 'fleet-%02d' "$i")"
    line="$(snapshot_line "$BASE" "$id")"
    if ! grep -q "seen=${TICKS} " <<<"$line"; then
        echo "e2e-restart: stream $id lost ticks across the outage: $line" >&2
        exit 1
    fi
done
group_after="$(group_seen "$BASE" fleet-cmp)"
if [ "$group_after" != "$group_before" ]; then
    echo "e2e-restart: group fleet-cmp seen changed across the outage: $group_before -> $group_after" >&2
    exit 1
fi
if ! curl -sf "$BASE/v1/groups" | grep -q '"fleet-cmp"'; then
    echo "e2e-restart: merged group list lacks fleet-cmp after the outage" >&2
    exit 1
fi
handoffs="$(curl -sf "$BASE/metrics" | awk '/^sampled_router_handoffs_total /{print $2}')"
echo "e2e-restart: part 2 ok ($STREAMS streams + 1 group, placement $n1/$n2, ${handoffs:-0} handoffs)"

kill -TERM "$router_pid"
wait "$router_pid" || true
kill -TERM "$b1_pid" "$b2_pid"
wait "$b1_pid" || true
wait "$b2_pid" || true
echo "e2e-restart: clean"
