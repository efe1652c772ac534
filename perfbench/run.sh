#!/usr/bin/env bash
# Builds the study benchmark from source and runs it. Run from the root of
# a checkout:
#
#   bash perfbench/run.sh --workload local_study --seed 42 --seconds 10 --trace 0
#
# Every build product, Go cache and scratch file stays under .bench_build
# in the checkout. The build needs the repository's go.mod one level up, so
# outside a full checkout it fails before anything is measured.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
