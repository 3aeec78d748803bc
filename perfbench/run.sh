#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   sh perfbench/run.sh --workload grid-paper --seed 1 --seconds 15 --trace 0
#
# Every build product and Go cache lands under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
