#!/usr/bin/env bash
# Simulation-log differential of a base revision against this checkout:
#
#   scripts/logdiff.sh BASE        (make logdiff BASE=<rev>)
#
# BASE is exported with git archive into .bench_build/base-<rev>/ (the
# directory scripts/benchpair.sh uses; nothing is downloaded). Both trees
# run
#
#   go test -v -run 'DeliveryEquality|DriveDeterministic' ./internal/sim/
#
# and the script diffs the output: the t.Logf summary line of every row
# (trigger, delivery, handoff, promotion and epoch counts) and its PASS
# or FAIL line, with the === RUN lines, the timings and the source line
# numbers stripped. It exits 1 on any difference, and when the checkout's
# run fails. Both outputs stay in .bench_build/logdiff/.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$root" rev-parse --short "$1^{commit}")
tree=$root/.bench_build/base-$rev
if [ ! -d "$tree" ]; then
	mkdir -p "$tree"
	git -C "$root" archive "$rev" | tar -x -C "$tree"
fi
out=$root/.bench_build/logdiff
mkdir -p "$out"

# run DIR NAME leaves DIR's filtered log in $out/NAME.txt and fails when
# its tests do.
run() {
	local rc=0
	(cd "$1" && go test -count=1 -v -run 'DeliveryEquality|DriveDeterministic' ./internal/sim/) >"$out/$2.raw" 2>&1 || rc=$?
	grep -v '^=== ' "$out/$2.raw" | sed -E \
		-e 's/ \([0-9.]+s\)$//' \
		-e 's/^((ok|FAIL)[[:space:]]+[^[:space:]]+)[[:space:]]+[0-9.]+s$/\1/' \
		-e 's/^([[:space:]]+[A-Za-z0-9_]+\.go):[0-9]+:/\1:/' >"$out/$2.txt"
	return $rc
}

run "$tree" base || true
rc=0
run "$root" change || rc=$?
if ! diff -u "$out/base.txt" "$out/change.txt"; then
	echo "logdiff: simulation logs differ from $rev" >&2
	exit 1
fi
if [ $rc -ne 0 ]; then
	echo "logdiff: the simulation tests fail" >&2
	exit 1
fi
echo "logdiff: $(wc -l <"$out/change.txt") log lines identical to $rev"
