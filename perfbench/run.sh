#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it; every
# argument is passed through (see main.go for the flags). Everything the
# build and the runs write stays under .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
work="$root/.bench_build"
mkdir -p "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOTMPDIR="$work/tmp" \
	XDG_CONFIG_HOME="$work/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$work/perfbench" .)
# The one-time template world is built by its own process, so no
# measured run starts with the build's heap and dirty pages.
"$work/perfbench" --workdir "$work" --prepare
exec "$work/perfbench" --workdir "$work" "$@"
