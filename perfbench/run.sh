#!/usr/bin/env bash
# Builds the perfbench command and the vyrdd daemon from the source tree in
# the current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload online-table3 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, binaries) and the trace spans go under
# .bench_build/ in that directory.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/vyrdd" ]; then
	echo "perfbench: no repository source in $root (run from the repository root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	XDG_CACHE_HOME="$build/home" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" . && go build -o "$build/bin/vyrdd" repro/cmd/vyrdd)

exec "$build/bin/perfbench" -vyrdd "$build/bin/vyrdd" -spans "$build/spans" "$@"
