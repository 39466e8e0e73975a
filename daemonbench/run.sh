#!/usr/bin/env bash
# Builds the daemon-path benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the root of
# the repository: every build and run artifact stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/daemonbench" && go build -o "$out/daemonbench" .)
exec "$out/daemonbench" "$@"
