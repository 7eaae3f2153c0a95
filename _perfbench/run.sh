#!/usr/bin/env bash
# Builds the benchmark driver and the sampled daemon from this
# checkout's sources into .bench_build/, then runs the driver with the
# given arguments. The Go build cache, module path and temporary files
# live there too, and the user's Go environment file is ignored, so a
# run reads and writes nothing of the checkout's surroundings beyond
# the Go toolchain itself. Run from the repository root:
#
#   bash _perfbench/run.sh --workload handoff --seed 1 --seconds 30 --trace 0
#   bash _perfbench/run.sh --smoke
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/perfbench" . && go build -o "$out/sampled" repro/cmd/sampled)
exec "$out/perfbench" -daemon "$out/sampled" "$@"
