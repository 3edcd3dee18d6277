#!/usr/bin/env bash
# BENCHMARK.json's command: build ./bench from source into .bench_build/ and
# run it, keeping every file the toolchain writes inside the checkout (the
# build cache included), so a run needs nothing but the Go toolchain.
#
#   bash bench/run.sh --workload farmer-storm --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. By hand, `go run ./bench` does the same.
set -euo pipefail

# Without the module there is nothing to build; say so before starting
# anything at all.
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: run from the root of a checkout that holds the program" >&2
	exit 1
fi

build="$PWD/.bench_build"
# XDG_CONFIG_HOME is where the go command keeps its env file and counters.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
# In its default mode the go command detaches a telemetry child into a session
# of its own that outlives the run (and stays a zombie where nothing reaps
# it). Mode "off" starts none: a run leaves no process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# A warm cache makes this a sub-second no-op; the first call in a checkout
# compiles the standard library too.
go build -o "$build/bench" ./bench

exec "$build/bench" "$@"
