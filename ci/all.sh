#!/usr/bin/env bash
# Runs every CI job in sequence, as the workflow's matrix does (the
# durability job once under each fsync policy), prints each run's wall
# time and stops at the first failure. About 8–9 minutes on 2 vCPU.
#
# Usage: bash ci/all.sh   (from anywhere; needs what the jobs need: go,
# curl, python3 and their loopback ports)
set -euo pipefail
cd "$(dirname "$0")"
run() {
	local start=$SECONDS
	"$@"
	echo "all.sh: $* took $((SECONDS - start)) s"
}
for job in test engine scenarios replication codec cluster dataplane; do
	run bash "$job.sh"
done
for fsync in always interval never; do
	SPOCUS_TEST_FSYNC=$fsync run bash durability.sh
done
echo "all.sh: all gates passed"
