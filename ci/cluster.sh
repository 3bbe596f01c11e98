#!/usr/bin/env bash
# The cluster job: real spocus-server processes behind a real
# spocus-router. The failover suite runs three backends and a router,
# SIGKILLs one mid-load and checks consistent-hash routing, recovery and
# session handoff (of a recovered and of a live session) end to end; then
# a live-plane smoke asks /verify and /progress through the router, and the
# router bench runs once plain and once with a verify mix, each on a fresh
# cluster. The failover suite is gated on its PASS line (ci/lib.sh).
#
# Usage: bash ci/cluster.sh   (from anywhere; needs go and curl, and the
# loopback ports 9725, 9730, 9731 and 9732). The benches' JSON is left in
# BENCH_router_ci.json and BENCH_verify_ci.json at the repository root.
. "$(dirname "$0")/lib.sh"

section "Build binaries"
go build -o "$out/spocus-server" ./cmd/spocus-server
go build -o "$out/spocus-router" ./cmd/spocus-router
end

section "Failover test (3 backends + router, SIGKILL one mid-load)"
gate ./cmd/spocus-router -run TestClusterFailover -- TestClusterFailover
end

# start_cluster TAG starts three backends on fresh directories under
# $out/TAG and a router over them; stop_cluster stops them. Bench session
# IDs are fixed (bench-000000, ...), so each bench needs a fresh cluster: a
# second bench against the same backends is refused with 409.
# -verify-queue sized for the bench's offered verify load; the default shed
# threshold is tuned for interactive traffic.
cluster=()
start_cluster() {
	for i in 0 1 2; do
		"$out/spocus-server" serve -addr 127.0.0.1:973$i -dir "$out/$1/data$i" -fsync never -verify-queue 128 &
		cluster+=($!)
	done
	sleep 1
	"$out/spocus-router" -addr 127.0.0.1:9725 \
		-backends http://127.0.0.1:9730,http://127.0.0.1:9731,http://127.0.0.1:9732 &
	cluster+=($!)
	pids+=("${cluster[@]}")
	sleep 1
}
stop_cluster() {
	kill "${cluster[@]}"
	wait "${cluster[@]}" 2>/dev/null || true
	cluster=()
}
router=http://127.0.0.1:9725

section "Live-plane smoke + router bench (3 backends + router)"
start_cluster live
# Live verification answers through the router: open a session, step it,
# and require reachable=true from /verify and a ranked suggestion from
# /progress.
curl -sf -X POST $router/sessions -d '{"id":"ci-live","model":"short"}' >/dev/null
curl -sf -X POST $router/sessions/ci-live/input -d '{"input":{"order":[["time"]]}}' >/dev/null
curl -sf "$router/sessions/ci-live/verify?goal=deliver(X)" | tee "$out/verify.json"
grep -q '"reachable": true' "$out/verify.json"
curl -sf "$router/sessions/ci-live/progress?goal=deliver(X)" | tee "$out/progress.json"
grep -q 'pay(time, 855)' "$out/progress.json"
"$out/spocus-server" bench -url $router -sessions 500 -steps 30 | tee BENCH_router_ci.json
stop_cluster
end

section "Router bench with a verify mix (3 fresh backends + router)"
start_cluster verify
"$out/spocus-server" bench -url $router -sessions 200 -steps 20 -verify-mix 0.1 | tee BENCH_verify_ci.json
stop_cluster
end
echo "cluster.sh: all gates passed"
