#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it with the arguments given, e.g.
#
#   bash bench/run.sh --workload steady_mwpsr --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — Go build cache, temp files,
# WAL data directories — stays under .bench_build/, so a run reads and
# writes only inside its checkout.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOENV=off
export GOTOOLCHAIN=local

# With telemetry in its default "local" mode every go command forks a
# detached child of its own (session leader, parent 1) that outlives a
# short go command — a failed or fully cached build — and so outlives
# this script. The mode file is the only switch the go command reads.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

cd "$root"
go build -o "$build/sabre-bench" ./bench
exec "$build/sabre-bench" "$@"
