#!/usr/bin/env bash
# Builds the rtebench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash rtebench/run.sh --workload verify --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go caches and span files stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build). The build needs only
# the Go toolchain and the repository itself: no network.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd rtebench && go build -trimpath -o "$out/rtebench" .)
exec "$out/rtebench" --out "$out" "$@"
