# Helpers shared by the ci/*.sh jobs. A job sources this file first:
#
#	. "$(dirname "$0")/lib.sh"
#
# It moves to the repository root, makes $out (a scratch directory removed
# on exit) and, on exit, kills every pid the job appended to $pids.
#
# A job gates on named tests with gate: each named test must print its
# `--- PASS: Name ` line and each named benchmark its result line, so a
# test that silently stops running (skipped, failing, renamed, deleted)
# fails the job instead of passing it. TestCIGatesNameTests (ci_test.go)
# fails tier-1 when a name gated here no longer names a test.
set -euo pipefail
cd "$(dirname "$0")/.."
job=$(basename "$0")
out=$(mktemp -d)
pids=()
gates=0
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$out"
}
trap cleanup EXIT

# gate ARG... -- NAME... runs `go test -v ARG...`, shows its output, and
# fails unless every named test printed its PASS line and every named
# benchmark (a name starting with Benchmark) its result line.
gate() {
	local args=() log name
	while [ "$1" != -- ]; do
		args+=("$1")
		shift
	done
	shift
	gates=$((gates + 1))
	log="$out/gate$gates.out"
	go test -v "${args[@]}" 2>&1 | tee "$log"
	for name in "$@"; do
		case $name in
		Benchmark*) grep -qE "^$name([-/]|[[:space:]])" "$log" || {
			echo "$job: benchmark $name did not run" >&2
			exit 1
		} ;;
		*) grep -q -- "--- PASS: $name " "$log" || {
			echo "$job: $name did not pass (or did not run)" >&2
			exit 1
		} ;;
		esac
	done
}

section() { echo "::group::$*"; }
end() { echo "::endgroup::"; }
