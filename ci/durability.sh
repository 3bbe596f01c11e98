#!/usr/bin/env bash
# The durability job: the storage engine suites (segments, rotation,
# recovery, snapshots), the crash suite under one fsync policy — recovered
# logs must never diverge from the oracle, and under always every step
# acked before a SIGKILL mid-group-commit must survive — the engine's own
# tests three times under the race detector (concurrent group commit,
# idempotent shutdown, fail-stop, overload, the one-writer property), and,
# under always, a handoff smoke across two real servers and a router. The
# crash and engine suites are run verbosely and grepped for their PASS
# lines, so a test that silently stops running fails the job instead of
# passing it.
#
# Usage: SPOCUS_TEST_FSYNC=always|interval|never bash ci/durability.sh
# (from anywhere; default always; needs go and curl, and the loopback
# ports 9740, 9741 and 9745)
set -euo pipefail
cd "$(dirname "$0")/.."
fsync=${SPOCUS_TEST_FSYNC:-always}
export SPOCUS_TEST_FSYNC=$fsync
out=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$out"
}
trap cleanup EXIT

# passed FILE TEST... fails unless every named test passed in FILE.
passed() {
	local file=$1
	shift
	for name in "$@"; do
		grep -q -- "--- PASS: $name " "$file" || {
			echo "durability.sh: $name did not pass (or did not run)" >&2
			exit 1
		}
	done
}

section() { echo "::group::$*"; }
end() { echo "::endgroup::"; }

section "Storage engine tests (segments, rotation, recovery, snapshots)"
go test ./internal/storage -v
end

section "Crash suite under -fsync $fsync"
go test ./cmd/spocus-server -run 'TestCrashRecovery|TestCrashGroupCommit|TestServeGracefulShutdown' -v 2>&1 |
	tee "$out/crash.out"
passed "$out/crash.out" TestCrashRecovery TestCrashGroupCommit
end

section "Engine under -race: group commit, shutdown, fail-stop, overload, one writer"
go test -race -count=3 ./internal/session -v 2>&1 | tee "$out/engine.out"
passed "$out/engine.out" TestGroupCommitConcurrentCallers TestEngineInputAllocates \
	TestShutdownIsIdempotent TestFailStopOnBrokenWAL TestMailboxOverload TestOneWriterProperty
end

if [ "$fsync" = always ]; then
	section "Handoff smoke (2 backends + router)"
	go build -o "$out/spocus-server" ./cmd/spocus-server
	go build -o "$out/spocus-router" ./cmd/spocus-router
	for i in 0 1; do
		"$out/spocus-server" serve -addr 127.0.0.1:974$i -dir "$out/ship-data$i" -fsync always &
		pids+=($!)
	done
	sleep 1
	"$out/spocus-router" -addr 127.0.0.1:9745 -backends http://127.0.0.1:9740,http://127.0.0.1:9741 &
	pids+=($!)
	sleep 1
	router=http://127.0.0.1:9745
	curl -sf -X POST $router/sessions -d '{"id":"ci-ship","model":"short"}' >/dev/null
	curl -sf -X POST $router/sessions/ci-ship/input -d '{"input":{"order":[["time"]]}}' >/dev/null
	curl -sf -X POST $router/sessions/ci-ship/input -d '{"input":{"pay":[["time","855"]]}}' >/dev/null
	# Ship the session to whichever backend does not own it; the result
	# must name that backend and both steps, and the log must survive the
	# move intact.
	target=9741
	if ! curl -sf http://127.0.0.1:9740/sessions/ci-ship >/dev/null; then target=9740; fi
	curl -sf -X POST "$router/admin/handoff?session=ci-ship&to=http://127.0.0.1:$target" | tee "$out/handoff.json"
	grep -q "\"to\": \"http://127.0.0.1:$target\"" "$out/handoff.json"
	grep -q '"steps": 2' "$out/handoff.json"
	curl -sf $router/sessions/ci-ship/log | tee "$out/shiplog.json"
	grep -q '"steps": 2' "$out/shiplog.json"
	end
fi
echo "durability.sh: all gates passed (fsync $fsync)"
