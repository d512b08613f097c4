#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
# Everything it writes (Go build cache, binary, checkpoints, span dumps)
# stays under .bench_build/ in the directory it is started from.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local

# Stamp results with the commit; a checkout without git history gets a
# hash of the Go sources instead.
commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
  commit="src-$(find "$root" -path "$root/.bench_build" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
    | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -commit "$commit" -outdir "$out" "$@"
