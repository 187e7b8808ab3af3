#!/usr/bin/env bash
# Paired benchmark runs of a base revision against this checkout:
#
#   scripts/benchpair.sh BASE WORKLOAD PAIRS [SEED]      (make benchpair)
#
# WORKLOAD is a workload name from BENCHMARK.json, or `all` for every
# workload it lists, one table each — the claim and the "nothing else
# moved" evidence from one command.
#
# BASE is exported with git archive into .bench_build/base-<rev>/ (built
# there by its own bench/run.sh, nothing is downloaded), then both trees
# run `bench/run.sh --workload WORKLOAD --seed SEED --trace 0` PAIRS times
# each, alternating which side goes first. Per end-to-end metric of
# BENCHMARK.json it prints each side's median and quartiles, the ratio of
# the medians, and in how many pairs the change read better (ties count
# for neither). The raw outputs stay in
# .bench_build/benchpair/<workload>-seed<seed>/.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 BASE WORKLOAD PAIRS [SEED]" >&2
	exit 2
fi
base=$1 workload=$2 pairs=$3 seed=${4:-1}

root=$(cd "$(dirname "$0")/.." && pwd)
if [ "$workload" = all ]; then
	# BENCHMARK.json, pretty-printed: the workloads block names each one.
	names=$(awk '/"workloads"/ { w = 1 } /"end_to_end"/ { w = 0 }
		w && $1 == "\"name\":" { gsub(/[",]/, "", $2); print $2 }' "$root/BENCHMARK.json")
	rc=0
	for w in $names; do
		bash "$0" "$base" "$w" "$pairs" "$seed" || rc=$?
		echo
	done
	exit $rc
fi
rev=$(git -C "$root" rev-parse --short "$base^{commit}")
tree=$root/.bench_build/base-$rev
if [ ! -d "$tree" ]; then
	mkdir -p "$tree"
	git -C "$root" archive "$rev" | tar -x -C "$tree"
fi
out=$root/.bench_build/benchpair/$workload-seed$seed
rm -rf "$out"
mkdir -p "$out"

for i in $(seq 1 "$pairs"); do
	order="base change"
	if [ $((i % 2)) -eq 0 ]; then
		order="change base"
	fi
	for side in $order; do
		dir=$root
		if [ "$side" = base ]; then
			dir=$tree
		fi
		echo "pair $i/$pairs: $side" >&2
		bash "$dir/bench/run.sh" --workload "$workload" --seed "$seed" --trace 0 >"$out/$side.$i.txt"
	done
done

echo "benchpair: base $rev vs working tree, workload $workload, seed $seed, $pairs pairs"
awk -v pairs="$pairs" -v out="$out" '
function quantile(v, n, p,    h, lo) {
	h = (n - 1) * p + 1; lo = int(h)
	if (lo >= n) return v[n]
	return v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function summary(side, m,    n, i, j, t, v) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, m, i) in val) v[++n] = val[side, m, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j] < v[j - 1]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	med[side] = quantile(v, n, 0.5)
	return sprintf("%12.4f [%12.4f, %12.4f]", med[side], quantile(v, n, 0.25), quantile(v, n, 0.75))
}
# BENCHMARK.json, pretty-printed: the end_to_end block names each metric
# and then says which direction is better.
FILENAME ~ /BENCHMARK.json$/ {
	if ($0 ~ /"end_to_end"/) e2e = 1
	if ($0 ~ /"per_layer"/) e2e = 0
	if (e2e && $1 == "\"name\":") { gsub(/[",]/, "", $2); name = $2; names[++nn] = name }
	if (e2e && $1 == "\"better\":") { gsub(/[",]/, "", $2); better[name] = $2 }
	next
}
FNR == 1 { n = split(FILENAME, part, /[\/.]/); side = part[n - 2]; pair = part[n - 1] }
($1 in better) && $2 ~ /^[0-9.]+$/ { val[side, $1, pair] = $2 }
$1 == "missed_events" || $1 == "failed_share" { if ($2 + 0 != 0) bad = bad " " FILENAME ":" $1 "=" $2 }
END {
	printf "%-32s %-42s %-42s %7s %s\n", "metric", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
	for (k = 1; k <= nn; k++) {
		m = names[k]; wins = 0; losses = 0
		for (i = 1; i <= pairs; i++) {
			b = val["base", m, i]; c = val["change", m, i]
			if (c == b) continue
			if ((better[m] == "lower") == (c < b)) wins++; else losses++
		}
		sb = summary("base", m); sc = summary("change", m)
		printf "%-32s %-42s %-42s %7.3f %d/%d (%d lost)\n", m, sb, sc, (med["base"] ? med["change"] / med["base"] : 0), wins, pairs, losses
	}
	if (bad != "") { print "correctness gate not clean:" bad; exit 1 }
}' "$root/BENCHMARK.json" "$out"/base.*.txt "$out"/change.*.txt
