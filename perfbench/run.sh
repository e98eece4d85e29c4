#!/usr/bin/env bash
# Builds perfbench and the programs it drives from source, then runs
# one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mine-city --seed 1 --seconds 10 --trace 0
#
# Everything it builds, caches and writes stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/csdserve || ! -d cmd/genworkload || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a csdm checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# Keep the Go toolchain's caches, temporary files and settings inside
# the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/bin/" ./cmd/csdserve ./cmd/genworkload >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
