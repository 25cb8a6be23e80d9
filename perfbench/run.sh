#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload hot-wire --seed 1 --seconds 12 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) and
# every run record stays under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/server || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/server and perfbench/ are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/mod" GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
