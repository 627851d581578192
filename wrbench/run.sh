#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash wrbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The build cache and the binary live in
# .bench_build/ (or $CARGO_TARGET_DIR when set), inside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/wrbench" && go build -o "$out/wrbench" .) >&2
exec "$out/wrbench" "$@"
