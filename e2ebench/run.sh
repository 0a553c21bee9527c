#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in, then runs it
# with the caller's arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload interpret-64 --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export XDG_CONFIG_HOME="$out/config" HOME="$out/home"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$HOME" "$TMPDIR"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -out "$out" "$@"
