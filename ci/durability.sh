#!/usr/bin/env bash
# The durability job: the storage engine suites (segments, rotation,
# recovery, snapshots), the crash suite under one fsync policy — recovered
# logs must never diverge from the oracle, and under always every step
# acked before a SIGKILL mid-group-commit must survive — the engine's own
# tests three times under the race detector (concurrent group commit,
# idempotent shutdown, fail-stop, overload, the one-writer property), and,
# under always, a handoff smoke across two real servers and a router. The
# crash and engine suites are gated on their PASS lines (ci/lib.sh).
#
# Usage: SPOCUS_TEST_FSYNC=always|interval|never bash ci/durability.sh
# (from anywhere; default always; needs go and curl, and the loopback
# ports 9740, 9741 and 9745)
. "$(dirname "$0")/lib.sh"
fsync=${SPOCUS_TEST_FSYNC:-always}
export SPOCUS_TEST_FSYNC=$fsync

section "Storage engine tests (segments, rotation, recovery, snapshots)"
go test ./internal/storage -v
end

section "Crash suite under -fsync $fsync"
gate ./cmd/spocus-server -run 'TestCrashRecovery|TestCrashGroupCommit|TestServeGracefulShutdown' -- \
	TestCrashRecovery TestCrashGroupCommit
end

section "Engine under -race: group commit, shutdown, fail-stop, overload, one writer"
gate -race -count=3 ./internal/session -- TestGroupCommitConcurrentCallers TestEngineInputAllocates \
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
