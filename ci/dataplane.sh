#!/usr/bin/env bash
# The dataplane job: the batched data plane end to end. The batch unit and
# differential suites (batch-of-one is byte-identical to a single step,
# partial failure, key dedupe, recovery, the HTTP forms, an item refused
# alone, the 413 body caps, single-step and results=full responses
# byte-identical to ones built from the reference step), the router's
# batch fan-out suites and its
# retry rule, the one-pass envelope decode (hostile envelopes through a
# real router against encoding/json and against one backend, the
# allocation pin, fuzz smokes of the instance and envelope readers), the
# wire client's suite, the batch-atomicity crash suite (acked batches
# survive a SIGKILL whole), then a batch smoke and the throughput gate
# through a real router over three non-durable backends. Every named suite
# is gated on its PASS lines (ci/lib.sh).
#
# Usage: bash ci/dataplane.sh   (from anywhere; needs go, curl and
# python3, and the loopback ports 9726, 9740, 9741 and 9742). The bench's
# JSON is left in BENCH_dataplane_ci.json at the repository root.
. "$(dirname "$0")/lib.sh"

section "Batch unit + differential suites"
gate ./internal/session -run 'TestBatch|TestHTTPBatch|TestStepResponseBytes' -- TestBatchOfOneByteIdentical TestBatchPartialFailure TestBatchKeyDedupe \
	TestBatchRecovery TestHTTPBatch TestHTTPBatchItemRefusedAlone TestHTTPBatchBodyCap TestStepResponseBytes
end

section "Router batch fan-out suite + the router's retry rule"
# The retry rule: a keyed step or an all-keyed sub-batch whose kept-alive
# connection drops after it applied is resent by the router (counted under
# keyed_retries_total) and answered as a duplicate, an unkeyed one is sent
# once, and a handoff install resends a 429.
gate ./internal/cluster -run 'TestRouterBatch|TestRouterBodyCap|TestRouterRetryRule' -- TestRouterBatchFanout TestRouterBatchDownOwner \
	TestRouterBodyCap TestRouterRetryRule
end

section "One-pass envelope decode: hostile envelopes, allocation pin, fuzz smokes"
# The router scans and the backend decodes each envelope in one pass;
# encoding/json is the oracle of both, and of the instance reader. An item
# refused as an instance fails alone, so a router over two backends and one
# backend owning every session answer each envelope alike.
gate ./internal/cluster -run 'TestDataPlaneDecodeMatchesEncodingJSON|TestBatchEnvelopeAllocates|TestBatchRouterMatchesBackend' -- \
	TestDataPlaneDecodeMatchesEncodingJSON TestBatchEnvelopeAllocates TestBatchRouterMatchesBackend
go test ./internal/relation -run=Fuzz -fuzz=FuzzInstanceJSON -fuzztime=10s
go test ./internal/cluster -run=Fuzz -fuzz=FuzzBatchEnvelope -fuzztime=10s
go test ./internal/jsonread -run=Fuzz -fuzz=FuzzReader -fuzztime=10s
end

section "Wire client suite"
gate ./internal/wire -- TestConnReuse
end

section "Batch atomicity crash test (SIGKILL under batched load)"
gate ./cmd/spocus-server -run TestCrashBatchAtomic -- TestCrashBatchAtomic
end

section "Router batch smoke + bench gate (3 backends + router)"
go build -o "$out/spocus-server" ./cmd/spocus-server
go build -o "$out/spocus-router" ./cmd/spocus-router
# The wire recipe: non-durable backends mirroring the in-process baseline
# config (durability interplay is gated by the crash test above and the
# cluster job), GOGC=400 — the batch path allocates decode-side garbage
# faster than interactive traffic.
for i in 0 1 2; do
	GOGC=400 "$out/spocus-server" serve -addr 127.0.0.1:974$i -fsync never -verify-queue 128 &
	pids+=($!)
done
sleep 1
GOGC=400 "$out/spocus-router" -addr 127.0.0.1:9726 \
	-backends http://127.0.0.1:9740,http://127.0.0.1:9741,http://127.0.0.1:9742 &
pids+=($!)
sleep 1
router=http://127.0.0.1:9726
# Batch smoke through the router. Batch responses are compact (unindented)
# JSON — grep accordingly.
curl -sf -X POST $router/sessions -d '{"id":"ci-ba","model":"short"}' >/dev/null
curl -sf -X POST $router/sessions -d '{"id":"ci-bb","model":"short"}' >/dev/null
curl -sf -X POST $router/batch \
	-d '{"steps":[{"session":"ci-ba","input":{"order":[["time"]]},"key":"k1"},{"session":"ci-ba","input":{"pay":[["time","855"]]}}]}' | tee "$out/one.json"
grep -q '"seq":2' "$out/one.json"
curl -sf -X POST $router/batch \
	-d '{"steps":[{"session":"ci-bb","input":{"order":[["newsweek"]]}},{"session":"ci-ghost","input":{}}]}' | tee "$out/batch.json"
grep -q '"seq":1' "$out/batch.json"
grep -q '"status":404' "$out/batch.json"
# Sparse acks: an all-OK errors-mode envelope is just the count.
curl -sf -X POST $router/batch \
	-d '{"steps":[{"session":"ci-bb","input":{"pay":[["newsweek","845"]]}}],"results":"errors"}' | tee "$out/sparse.json"
grep -q '"n":1' "$out/sparse.json"
if grep -q '"failed"' "$out/sparse.json"; then
	echo "dataplane.sh: an all-OK errors-mode envelope listed failures" >&2
	exit 1
fi
# Per-item keys dedupe through the router.
curl -sf -X POST $router/batch \
	-d '{"steps":[{"session":"ci-ba","key":"k1","input":{"order":[["time"]]}}]}' | tee "$out/dedupe.json"
grep -q '"duplicate":true' "$out/dedupe.json"
# The gate: batched wire ≥ 10× the single-step baseline (2.2k steps/s)
# and amortized per-step p50 under 1ms. 60 steps per session: the longer
# timed region runs past the connection ramp-up, which dominates
# run-to-run variance at 30.
"$out/spocus-server" bench -url $router -sessions 500 -steps 60 -batch 125 | tee BENCH_dataplane_ci.json
python3 -c "import json; d=json.load(open('BENCH_dataplane_ci.json')); sps=d['steps_per_sec']; p50=d['step_latency']['p50_us']; assert sps>=22000, f'batched router path {sps:.0f} steps/s < 22000 (10x the single-step baseline)'; assert p50<1000, f'amortized step p50 {p50:.0f}us >= 1ms'; print(f'gate ok: {sps:.0f} steps/s, p50 {p50:.0f}us')"
end
echo "dataplane.sh: all gates passed"
