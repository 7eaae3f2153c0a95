#!/usr/bin/env bash
# e2e_drain.sh — end-to-end smoke for the sampled daemon's serving and
# shutdown paths: boot sampled on a loopback port, hammer it with
# sampleload over HTTP (which also exercises the estimator/hurst
# surface, and comparison groups over the binary wire), scrape /metrics
# and a /hurst document, then SIGTERM the daemon and require a clean
# drain (exit 0). CI runs this; it works the same locally:
#
#   ./scripts/e2e_drain.sh [streams] [ticks]
set -euo pipefail

STREAMS="${1:-8}"
TICKS="${2:-20000}"
PORT="${SAMPLED_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"

workdir="$(mktemp -d)"
daemon_pid=""
# A mid-script failure must not leak a daemon holding the port.
cleanup() {
    if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
        kill "$daemon_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/sampled" ./cmd/sampled
go build -o "$workdir/sampleload" ./cmd/sampleload

# -version must print the build and exit without binding the port.
"$workdir/sampled" -version | grep -q '^sampled '

# -pprof opts the profiling endpoints in so the script can exercise
# them. The sampled_hurst_* aggregate this script asserts between
# scrapes is recomputed on every scrape while its walk stays cheap,
# as it does over this script's few streams.
"$workdir/sampled" -addr "127.0.0.1:${PORT}" -pprof &
daemon_pid=$!

# Wait for the listener (up to ~5s).
for _ in $(seq 1 50); do
    if curl -sf "$BASE/v1/streams" > /dev/null 2>&1; then
        break
    fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "e2e: sampled died before accepting connections" >&2
        exit 1
    fi
    sleep 0.1
done
curl -sf "$BASE/v1/streams" > /dev/null

# Drive it: N concurrent streams of fGn with the default aggvar
# estimator, a couple of seconds of ingest on CI hardware.
"$workdir/sampleload" -addr "127.0.0.1:${PORT}" -streams "$STREAMS" -ticks "$TICKS" -batch 512

# The binary wire, in session mode: every stream one long-lived frame
# connection, then check the frame counters it must have moved.
"$workdir/sampleload" -addr "127.0.0.1:${PORT}" -wire session \
    -streams "$STREAMS" -ticks "$TICKS" -batch 512
metrics="$(curl -sf "$BASE/metrics")"
frames="$(echo "$metrics" | awk '/^sampled_ingest_frames_total /{print $2}')"
bytes="$(echo "$metrics" | awk '/^sampled_ingest_bytes_total /{print $2}')"
if [ -z "$frames" ] || [ "$frames" -le 0 ]; then
    echo "e2e: session ingest moved no frames (sampled_ingest_frames_total=${frames:-missing})" >&2
    exit 1
fi
if [ -z "$bytes" ] || [ "$bytes" -le 0 ]; then
    echo "e2e: session ingest moved no bytes (sampled_ingest_bytes_total=${bytes:-missing})" >&2
    exit 1
fi

# The obs subsystem: the registry-rendered exposition must carry the
# per-route duration histogram for the ingest route, the per-wire
# decode histogram for the sessions just driven, and the build-info
# gauge.
grep -qF 'sampled_http_request_duration_seconds_bucket{route="POST /v1/streams/{id}/ticks",le="+Inf"}' <<<"$metrics"
grep -qF 'sampled_ingest_decode_seconds_bucket{wire="session",le="+Inf"}' <<<"$metrics"
grep -qF 'sampled_build_info{version="' <<<"$metrics"
grep -q '^sampled_goroutines ' <<<"$metrics"

# The flight recorder has seen the load run's requests. (Bodies are
# captured, then fed to grep -q through a here-string: under pipefail,
# grep -q quitting at the first match would hand the writer — curl or
# echo alike — a SIGPIPE on any body larger than the pipe buffer, and
# the event ring and the histogram-laden /metrics both are.)
events="$(curl -sf "$BASE/debug/events")"
grep -q '"kind":"request"' <<<"$events"

# The opted-in profiling surface: a 1s CPU profile must come back
# non-empty.
curl -sf -o "$workdir/profile.pb" "$BASE/debug/pprof/profile?seconds=1"
if [ ! -s "$workdir/profile.pb" ]; then
    echo "e2e: /debug/pprof/profile returned an empty profile" >&2
    exit 1
fi

# The load tool finishes its streams; create one more so shutdown drains
# a daemon with live state, and check the hurst document on the way.
curl -sf -X PUT "$BASE/v1/streams/drain-check" \
    -H 'Content-Type: application/json' \
    -d '{"spec": "systematic:interval=50", "estimator": "aggvar"}' > /dev/null
seq 1 5000 | tr '\n' ' ' | curl -sf -X POST "$BASE/v1/streams/drain-check/ticks" --data-binary @- > /dev/null
curl -sf "$BASE/v1/streams/drain-check/hurst" | grep -q '"method":"aggvar"'
metrics="$(curl -sf "$BASE/metrics")"
grep -q '^sampled_hurst_streams_estimating 1$' <<<"$metrics"

# The v2 surface: one comparison group over all five techniques on the
# same ticks, its comparison snapshot carrying every member plus the
# fidelity block, and the group metrics counting it.
curl -sf -X PUT "$BASE/v1/groups/compare-check" \
    -H 'Content-Type: application/json' \
    -d '{"specs": ["systematic:interval=50", "stratified:interval=50,seed=3",
                   "simple:n=100,seed=4", "bernoulli:rate=0.02,seed=5",
                   "bss:interval=50,L=5,eps=1.0"],
         "estimator": "aggvar"}' > /dev/null
seq 1 5000 | tr '\n' ' ' | curl -sf -X POST "$BASE/v1/groups/compare-check/ticks" --data-binary @- > /dev/null
comparison="$(curl -sf "$BASE/v1/groups/compare-check")"
grep -q '"seen":5000' <<<"$comparison"
grep -q '"technique":"bss"' <<<"$comparison"
grep -q '"kept_ratio":' <<<"$comparison"
grep -q '"mean_bias":' <<<"$comparison"
metrics="$(curl -sf "$BASE/metrics")"
grep -q '^sampled_groups 1$' <<<"$metrics"
grep -q '^sampled_group_ticks_total 5000$' <<<"$metrics"
curl -sf "$BASE/v1/groups" | grep -q '"groups":\["compare-check"\]'

# The load tool's group namespace over the binary wire: three
# techniques side by side on every group, each group fed TICKS input
# ticks, so the group tick counter must grow by exactly STREAMS x TICKS.
before="$(echo "$metrics" | awk '/^sampled_group_ticks_total /{print $2}')"
"$workdir/sampleload" -addr "127.0.0.1:${PORT}" -wire binary \
    -compare "systematic:interval=50;bernoulli:rate=0.02;bss:interval=50,L=5,eps=1.0" \
    -streams "$STREAMS" -ticks "$TICKS" -batch 512
after="$(curl -sf "$BASE/metrics" | awk '/^sampled_group_ticks_total /{print $2}')"
if [ "$((after - before))" -ne "$((STREAMS * TICKS))" ]; then
    echo "e2e: sampleload -compare moved sampled_group_ticks_total from $before to $after, want +$((STREAMS * TICKS))" >&2
    exit 1
fi

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$daemon_pid"
if ! wait "$daemon_pid"; then
    echo "e2e: sampled did not drain cleanly on SIGTERM" >&2
    exit 1
fi
echo "e2e: clean drain"
