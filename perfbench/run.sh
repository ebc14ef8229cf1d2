#!/usr/bin/env bash
# Builds maras-server and the benchmark from the checkout's sources into
# .bench_build/ (Go caches included, so nothing is written outside the
# checkout), then runs the benchmark with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload mine-quarter --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/bin/maras-server" ./cmd/maras-server
go -C perfbench build -o "$build/bin/perfbench" .

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/bin/perfbench" -root "$root" -server "$build/bin/maras-server" \
	-work "$build/work" -commit "$commit" "$@"
