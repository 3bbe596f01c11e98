#!/usr/bin/env bash
# The codec job: codec unit and fuzz suites, the mixed-format durability
# suites, parent-format read compatibility and standby bootstrap, images
# that carry no past, the WAL-density ceiling, the JSON-era crash suite,
# and a replication + ship + verify smoke over two real servers and a
# router. Every named suite is gated on its PASS lines (ci/lib.sh).
#
# Usage: bash ci/codec.sh   (from anywhere; needs go, curl and python3, and
# the loopback ports 9770, 9771 and 9775)
. "$(dirname "$0")/lib.sh"

section "Codec unit suites (round trip, interning, corruption, truncation)"
gate ./internal/codec -- TestInstanceRoundTrip TestInterningSharesAcrossRecords \
	TestResetFlagResynchronizesDecoder TestDecoderRejectsCorruptInput TestTruncationAtEveryByte
end

section "Round-trip fuzz smoke (raw decoder + engine-seeded WAL payloads)"
go test ./internal/codec -run=Fuzz -fuzz=FuzzDecodeNeverPanics -fuzztime=10s
go test ./internal/session -run=Fuzz -fuzz=FuzzCodecRoundTrip -fuzztime=10s
end

section "Mixed-format durability suites (session layer + waldump)"
gate ./internal/session -run 'TestMixedCodecRecovery|TestMixedSegmentTornTailRecovery|TestTornBinaryTailRecovery|TestDumpWAL' -- \
	TestMixedCodecRecovery TestMixedSegmentTornTailRecovery TestTornBinaryTailRecovery TestDumpWAL
end

section "Parent-format images and engine directories still restore; standbys boot from them; images carry no past"
gate ./internal/session -run 'TestParent|TestSnapshotSizeTracksStateNotHistory|TestStandby|TestOneWriterProperty|TestImagesCarryNoPast' -- \
	TestParentFormatShipImagesInstall \
	TestParentEngineDirRecovers/binary TestParentEngineDirRecovers/json \
	TestSnapshotSizeTracksStateNotHistory \
	TestStandbyBootstrapsFromParentSnapshot/binary TestStandbyBootstrapsFromParentSnapshot/json \
	TestStandbyRefusesForeignSnapshotVersion TestOneWriterProperty TestImagesCarryNoPast
end

section "WAL density ceiling (bytes per step)"
gate . -run TestGroupCommitCodecDensity -- TestGroupCommitCodecDensity
end

section "Crash suite on a JSON-era directory (binary server, SIGKILL, recover)"
SPOCUS_TEST_FSYNC=always gate ./cmd/spocus-server -run TestCrashMixedCodecUpgrade -- TestCrashMixedCodecUpgrade
end

section "HTTP single-step body cap"
gate ./internal/session -run TestHTTPStepBodyCap -- TestHTTPStepBodyCap
end

section "Replication + ship + verify smoke"
go build -o "$out/spocus-server" ./cmd/spocus-server
go build -o "$out/spocus-router" ./cmd/spocus-router
# Cross-following pair, both writing binary WALs: the stream and the ship
# image both travel in the binary codec.
"$out/spocus-server" serve -addr 127.0.0.1:9770 -dir "$out/data0" -fsync always \
	-follow http://127.0.0.1:9771 -follow-dir "$out/standby0" &
pids+=($!)
"$out/spocus-server" serve -addr 127.0.0.1:9771 -dir "$out/data1" -fsync always \
	-follow http://127.0.0.1:9770 -follow-dir "$out/standby1" &
pids+=($!)
sleep 1
"$out/spocus-router" -addr 127.0.0.1:9775 -backends http://127.0.0.1:9770,http://127.0.0.1:9771 &
pids+=($!)
sleep 1
router=http://127.0.0.1:9775
curl -sf -X POST $router/sessions -d '{"id":"ci-codec","model":"short"}' >/dev/null
curl -sf -X POST $router/sessions/ci-codec/input -d '{"input":{"order":[["time"]]}}' >/dev/null
curl -sf -X POST $router/sessions/ci-codec/input -d '{"input":{"pay":[["time","855"]]}}' >/dev/null
# The session's owner wrote its WAL; its expvars say so.
owner=9770
if ! curl -sf http://127.0.0.1:9770/sessions/ci-codec >/dev/null; then owner=9771; fi
curl -sf http://127.0.0.1:$owner/debug/vars >"$out/vars.json"
python3 -c 'import json, sys
shards = json.load(open(sys.argv[1]))["spocus_storage"]
assert sum(s["wal_bytes_total"] for s in shards) > 0, "the owner wrote no WAL bytes"' "$out/vars.json"
# The binary replication stream: the other backend's warm standby must
# converge on the same log.
other=$((19541 - owner))
for _ in $(seq 1 40); do
	if curl -sf -o "$out/standbylog.json" http://127.0.0.1:$other/replica/sessions/ci-codec/log &&
		grep -q '"steps": 2' "$out/standbylog.json"; then
		break
	fi
	sleep 0.25
done
grep -q '"steps": 2' "$out/standbylog.json"
# Ship through the router: both steps arrive, log intact.
curl -sf -X POST "$router/admin/handoff?session=ci-codec&to=http://127.0.0.1:$other" | tee "$out/ship.json"
grep -q '"steps": 2' "$out/ship.json"
curl -sf $router/sessions/ci-codec/log | tee "$out/log.json"
grep -q '"steps": 2' "$out/log.json"
# The shipped image carries no past: the target verifies from the past it
# reads off the installed state. After order(time) and pay(time,855) a
# delivery is still reachable, with a witness.
curl -sf "$router/sessions/ci-codec/verify?goal=deliver(X)" | tee "$out/verify.json"
grep -q '"reachable": true' "$out/verify.json"
grep -q '"witness": \[' "$out/verify.json"
# waldump reads the binary segments back.
"$out/spocus-server" waldump "$out/data0" | tee "$out/dump.out"
grep -q 'intern tables:' "$out/dump.out"
end
echo "codec.sh: all gates passed"
