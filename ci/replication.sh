#!/usr/bin/env bash
# The replication job: the WAL-streaming plane end to end. The storage
# stream suites (resume cursor, replication slot, rotation, compaction);
# the one-writer invariant — a seeded script through a durable primary with
# a standby attached, then primary = standby = recovery of either = the
# paper's oracle — and the fail-stop path of a broken WAL, both under
# -race; the follower suites (bootstrap, resume, promotion, semi-sync) and,
# under -race, concurrent saves of the follower's position file; the
# router's promotion, follower-read, keyed-retry and handoff-rollback
# suites; the promotion crash suite, which SIGKILLs a real primary mid-load
# and proves its warm follower serves every acked step; a scaled-down
# replication bench; and a smoke that reads /log and /verify through a
# router serving them from a follower. Every named suite is gated on
# its PASS lines (ci/lib.sh).
#
# Usage: bash ci/replication.sh   (from anywhere; needs go and curl, and
# the loopback ports 9760, 9761 and 9765). The bench's JSON is left in
# BENCH_replication_ci.json at the repository root.
. "$(dirname "$0")/lib.sh"

section "Storage stream suites (cursor, cold reads, stored bytes, slot, rotation, compaction)"
gate ./internal/storage -run 'TestRepl|TestFailed|TestAppendWaitsForCommit' -- TestReplTailAcrossRotation TestReplCursorSequentialReads \
	TestReplColdReadReachesFrom TestReplStreamIsSegmentBytes TestReplConcurrentReaders \
	TestReplSlotRetainsWAL TestFailedCommitPublishesNothing TestFailedWritePublishesNothing \
	TestAppendWaitsForCommit
end

section "One-writer invariant, independent stream readers and fail-stop (under -race: the checker reads every shard)"
gate -race ./internal/session -run 'TestOneWriterProperty|TestStreamReadersShareNothing|TestFailStopOnBrokenWAL' -- \
	TestOneWriterProperty TestStreamReadersShareNothing TestFailStopOnBrokenWAL
end

section "Follower suites (bootstrap, resume, promote, semi-sync)"
gate ./internal/replica -- TestFollowerStreamsAndPromotes TestFollowerBootstrapsFromSnapshot \
	TestFollowerResumesFromPersistedPosition TestSemiSyncAckImpliesReplicated
end

section "Follower position file under concurrent saves (under -race)"
gate -race ./internal/replica -run 'TestConcurrentSavesKeepStateWhole' -- TestConcurrentSavesKeepStateWhole
end

section "Router replication suites (promotion, follower reads, keyed retry, handoff rollback)"
gate ./internal/cluster -run 'TestPromote|TestFollower|TestKeyedRetry|TestHandoff' -- TestHandoffShipFailureRollsBack TestHandoffTargetMarkedDownMidFlight \
	TestPromoteFailsOverSessions TestFollowerReads TestFollowerReadLagBound TestKeyedRetryAcrossPromotion
end

section "Promotion crash suite (SIGKILL primary, follower takes over)"
gate ./cmd/spocus-router -run 'TestPromotionFailover' -- TestPromotionFailover
end

section "Replication bench (scaled down; streaming cost + promotion timing)"
go run ./cmd/spocus-server bench -replication -sessions 100 -steps 10 \
	-promote-steps 200 -promote-rounds 1 | tee BENCH_replication_ci.json
grep -q '"streamed_records"' BENCH_replication_ci.json
grep -q '"mode": "promote"' BENCH_replication_ci.json
if grep -q '"streamed_records": 0,' BENCH_replication_ci.json; then
	echo "replication.sh: the bench streamed no records" >&2
	exit 1
fi
end

section "Follower-read smoke (router serves /log and /verify from a follower)"
go build -o "$out/spocus-server" ./cmd/spocus-server
go build -o "$out/spocus-router" ./cmd/spocus-router
# Cross-following pair: each server also hosts a warm standby of the other
# (the FollowerOf convention the router discovers live).
"$out/spocus-server" serve -addr 127.0.0.1:9760 -dir "$out/repl-data0" -fsync always \
	-follow http://127.0.0.1:9761 -follow-dir "$out/repl-standby0" &
pids+=($!)
"$out/spocus-server" serve -addr 127.0.0.1:9761 -dir "$out/repl-data1" -fsync always \
	-follow http://127.0.0.1:9760 -follow-dir "$out/repl-standby1" &
pids+=($!)
sleep 1
"$out/spocus-router" -addr 127.0.0.1:9765 \
	-backends http://127.0.0.1:9760,http://127.0.0.1:9761 \
	-follower-reads -follower-max-lag 1000 &
pids+=($!)
sleep 1
router=http://127.0.0.1:9765
curl -sf -X POST $router/sessions -d '{"id":"ci-repl","model":"short"}' >/dev/null
curl -sf -X POST $router/sessions/ci-repl/input -d '{"input":{"order":[["time"]]}}' >/dev/null
curl -sf -X POST $router/sessions/ci-repl/input -d '{"input":{"pay":[["time","855"]]}}' >/dev/null
# The follower applies asynchronously: poll until the router serves the
# read from it (the header names the follower backend).
for _ in $(seq 1 40); do
	curl -sf -D "$out/log.hdr" -o "$out/repllog.json" $router/sessions/ci-repl/log || true
	if grep -qi '^X-Spocus-Served-By:' "$out/log.hdr"; then break; fi
	sleep 0.25
done
grep -qi '^X-Spocus-Served-By:' "$out/log.hdr"
grep -q '"steps": 2' "$out/repllog.json"
curl -sf -D "$out/verify.hdr" -o "$out/replverify.json" "$router/sessions/ci-repl/verify?goal=deliver(X)"
grep -qi '^X-Spocus-Served-By:' "$out/verify.hdr"
grep -q '"reachable": true' "$out/replverify.json"
end
echo "replication.sh: all gates passed"
