#!/usr/bin/env bash
# End-to-end smoke of the alarmserver binary over real sockets:
#
#   scripts/smoke-alarmserver.sh        (make smoke-server)
#
# Builds tracegen, alarmserver and alarmclient into a temporary directory,
# generates the seed-1 five-vehicle trace and replays user 1 (MWPSR) at
# 5 ms per tick against four server set-ups:
#   plain             one in-memory shard
#   durable restart   -data-dir, kill -9 mid-replay, restart on the same dir
#   two shards        -shards 2 -data-dir (the client follows one redirect)
#   replicated        -replicas 1 -data-dir on one shard
# Each must deliver exactly the fault-free firings: ALARM 5 at tick 272
# and ALARM 30 at tick 474, once each. The client prints the tick a
# firing's reply arrived on; at 5 ms per tick a WAL fsync can hold a reply
# past a tick boundary, so a delivery may lag its trigger tick by up to 5
# ticks. Exits non-zero on the first failure, printing the logs of the
# failing case.
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/" ./cmd/tracegen ./cmd/alarmserver ./cmd/alarmclient
"$work/tracegen" -vehicles 5 -ticks 500 -out "$work/trace.csv" >/dev/null

addr=127.0.0.1:7731

fail() {
	echo "FAIL: $1" >&2
	shift
	for f in "$@"; do echo "--- $f" >&2; cat "$f" >&2; done
	exit 1
}

# start_server LOG ARGS...: boots alarmserver in the background with the
# 300-alarm workload, sets srv to its pid and waits for its listeners.
start_server() {
	local log=$1
	shift
	"$work/alarmserver" -addr "$addr" -alarms 300 -quiet "$@" >"$log" 2>&1 &
	srv=$!
	pids+=("$srv")
	for _ in $(seq 200); do
		grep -q ' owns ' "$log" && return 0
		kill -0 "$srv" 2>/dev/null || break
		sleep 0.05
	done
	fail "alarmserver did not come up" "$log"
}

# stop_server: SIGINT, and the server must shut down cleanly.
stop_server() {
	kill -INT "$srv"
	wait "$srv" || fail "alarmserver exited non-zero" "$@"
}

client() {
	"$work/alarmclient" -addr "$addr" -user 1 -trace "$work/trace.csv" -tick-ms 5 >"$1" 2>&1
}

# check_alarms CLIENT_LOG SERVER_LOGS...: the two fault-free firings, each
# exactly once, and no other. Lines read "tick 272 at (x, y): ALARM 5 fired".
check_alarms() {
	if ! awk -v lag=5 '
		/ALARM/ {
			n++
			t = $2 + 0
			id = $(NF - 1) + 0
			if (id == 5 && t >= 272 && t <= 272 + lag) a++
			if (id == 30 && t >= 474 && t <= 474 + lag) b++
		}
		END { exit !(n == 2 && a == 1 && b == 1) }' "$1"; then
		fail "want ALARM 5 @ 272 and ALARM 30 @ 474, once each" "$@"
	fi
}

echo "== plain"
start_server "$work/s.log"
client "$work/c.log"
stop_server "$work/s.log" "$work/c.log"
check_alarms "$work/c.log" "$work/s.log"
grep -q ', 0 redirects' "$work/c.log" || fail "plain: want 0 redirects" "$work/c.log"

echo "== -data-dir, kill -9 mid-replay, restart"
start_server "$work/d1.log" -data-dir "$work/durable"
client "$work/c2.log" &
cli=$!
pids+=("$cli")
sleep 1.8
kill -9 "$srv"
wait "$srv" 2>/dev/null || true
start_server "$work/d2.log" -data-dir "$work/durable"
wait "$cli"
stop_server "$work/d2.log" "$work/c2.log"
check_alarms "$work/c2.log" "$work/d1.log" "$work/d2.log"
grep -q '2 connects, resumed=true' "$work/c2.log" || fail "restart: want 2 connects, resumed=true" "$work/c2.log" "$work/d2.log"
grep -q 'recovered generation' "$work/d2.log" || fail "restart: no WAL replay at boot" "$work/d2.log"

echo "== -shards 2 -data-dir"
start_server "$work/s3.log" -shards 2 -data-dir "$work/sharded"
client "$work/c3.log"
stop_server "$work/s3.log" "$work/c3.log"
check_alarms "$work/c3.log" "$work/s3.log"
grep -q ', 1 redirects' "$work/c3.log" || fail "two shards: want 1 redirect" "$work/c3.log"

echo "== -replicas 1 -data-dir"
start_server "$work/s4.log" -replicas 1 -data-dir "$work/replicated"
client "$work/c4.log"
stop_server "$work/s4.log" "$work/c4.log"
check_alarms "$work/c4.log" "$work/s4.log"
grep -q '^replication: 1 follower' "$work/s4.log" || fail "replicated: replication not on" "$work/s4.log"

echo "smoke-server: ok"
