#!/usr/bin/env bash
# The scenarios job: transducer-network sessions and the scenario fleet.
# The golden and property suites pin the serve path to the compose oracle;
# the recovery suite restores network sessions — key tables included —
# from snapshot images; the crash suite proves joint-step atomicity across
# a SIGKILL; the fuzzer chews on the scenario spec parser; the fleet bench
# runs every built-in scenario in-process and through a router; and a
# smoke steps one network session end to end through a real router. Every
# named suite is gated on its PASS lines (ci/lib.sh).
#
# Usage: bash ci/scenarios.sh   (from anywhere; needs go and curl, and the
# loopback ports 9750, 9751 and 9755). The bench's JSON is left in
# BENCH_scenarios_ci.json at the repository root.
. "$(dirname "$0")/lib.sh"

section "Network golden, determinism and recovery suites"
gate ./internal/session -run 'TestNetwork' -- TestNetworkGoldenCompose TestNetworkGoldenEngine \
	TestNetworkDeterminismQuick TestNetworkRecoverySnapshot \
	TestNetworkShipInstall TestNetworkHTTPErrors \
	TestNetworkImageBytesPinned TestNetworkLogRetentionIsFlat
end

section "Network cluster suites (router + handoff)"
gate ./internal/cluster -run 'TestRouterNetwork' -- TestRouterNetworkSession TestRouterNetworkHandoff
end

section "Network crash suite under -fsync always"
SPOCUS_TEST_FSYNC=always gate ./cmd/spocus-server -run 'TestCrashNetworkSessions' -- TestCrashNetworkSessions
end

section "Scenario fleet tests and spec-parser fuzz smoke"
go test ./internal/scenario -v
go test ./internal/scenario -run=Fuzz -fuzz=FuzzParse -fuzztime=10s
end

section "Scenario fleet bench (in-process and router paths)"
go run ./cmd/spocus-server bench -scenarios builtin -scenario-backends 2 | tee BENCH_scenarios_ci.json
grep -q '"scenario": "marketplace"' BENCH_scenarios_ci.json
grep -q '"path": "router"' BENCH_scenarios_ci.json
end

section "Router network smoke (one network session end to end)"
go build -o "$out/spocus-server" ./cmd/spocus-server
go build -o "$out/spocus-router" ./cmd/spocus-router
for i in 0 1; do
	"$out/spocus-server" serve -addr 127.0.0.1:975$i -dir "$out/netdata$i" -fsync always &
	pids+=($!)
done
sleep 1
"$out/spocus-router" -addr 127.0.0.1:9755 -backends http://127.0.0.1:9750,http://127.0.0.1:9751 &
pids+=($!)
sleep 1
router=http://127.0.0.1:9755
curl -sf $router/networks | grep -q marketplace
# Open the generated marketplace network through the router and step it:
# one node-addressed input, then an empty joint step that flushes the
# unit-delay wire, then read the joint log.
"$out/spocus-server" print-network marketplace >"$out/spec.json"
curl -sf -X POST $router/sessions -d "{\"id\":\"ci-net\",\"network\":$(cat "$out/spec.json")}" |
	grep -q '"network": true'
curl -sf -X POST $router/sessions/ci-net/input \
	-d '{"node":"customer","facts":{"want":[["widget"]]}}' | tee "$out/netstep.json"
grep -q '"seq": 1' "$out/netstep.json"
curl -sf -X POST $router/sessions/ci-net/input -d '{"inputs":{}}' | tee "$out/netstep2.json"
grep -q '"seq": 2' "$out/netstep2.json"
curl -sf $router/sessions/ci-net/log | tee "$out/netlog.json"
grep -q '"joint"' "$out/netlog.json"
grep -q '"steps": 2' "$out/netlog.json"
end

echo "scenarios.sh: all gates passed"
