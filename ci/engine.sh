#!/usr/bin/env bash
# The engine job: the compiled RA step engine against its tree-walking
# oracle. The differential suite (registry models, random programs over
# arities 0–3 via testing/quick, the fuzz corpus, hand-picked seeds, and the
# resident stepper at depth — an input relation that comes and goes, two
# runs of one cached plan over different databases) runs under -race;
# tuple-for-tuple agreement with the tree evaluator is the engine's whole
# correctness argument, and since there is no second evaluator to fall
# back to, every program the repo ships must be one the planner lowers.
# Beside it: the stepper refuses images the schema does not describe, step
# time never grows the shared slot table, the counted flatness and
# allocation ceilings, the idle-session byte ceiling and the sharing of
# machines, databases and step scratch between sessions (under -race),
# Machine.Step kept the reference and nothing else,
# the join-order suite, one iteration of the stepper benchmark and the
# differential fuzz smoke. Every named suite is run verbosely and grepped
# for its PASS lines, so a test that silently stops running fails the job
# instead of passing it.
#
# Usage: bash ci/engine.sh   (from anywhere; needs go)
set -euo pipefail
cd "$(dirname "$0")/.."
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# passed FILE TEST... fails unless every named test passed in FILE.
passed() {
	local file=$1
	shift
	for name in "$@"; do
		grep -q -- "--- PASS: $name " "$file" || {
			echo "engine.sh: $name did not pass (or did not run)" >&2
			exit 1
		}
	done
}

# benched FILE BENCH... fails unless every named benchmark ran in FILE.
benched() {
	local file=$1
	shift
	for name in "$@"; do
		grep -q "^$name" "$file" || {
			echo "engine.sh: benchmark $name did not run" >&2
			exit 1
		}
	done
}

section() { echo "::group::$*"; }
end() { echo "::endgroup::"; }

section "Differential suite under -race (ra vs tree oracle; stepper vs Machine.Step and the oracle)"
go test -race ./internal/ra -run 'TestDifferential|TestStepperRefuses|TestStepTimeNamesAssignNoSlots' -v 2>&1 | tee "$out/diff.out"
passed "$out/diff.out" TestDifferentialRegistryModels TestDifferentialQuick TestDifferentialSeeds \
	TestDifferentialShortPaperSession TestDifferentialStepper \
	TestDifferentialStepper/short-input-comes-and-goes TestDifferentialStepper/short-two-databases \
	TestStepperRefusesMisshapenState TestStepperRefusesUndeclaredState TestStepTimeNamesAssignNoSlots
end

section "Step cost is flat in state depth; a small-state step stays under its allocation ceiling; sessions share what is not theirs (-race)"
go test -race ./internal/session -run 'TestStepCostIsFlatInDepth|TestSmallStateStepAllocates|TestIdleSessionRetention|TestSessionsShareMachineAndDB|TestDBTableDrains|TestSharedRunsUnderConcurrentReads' -v 2>&1 | tee "$out/flat.out"
passed "$out/flat.out" TestStepCostIsFlatInDepth/short TestStepCostIsFlatInDepth/auction TestSmallStateStepAllocates \
	TestIdleSessionRetention TestSessionsShareMachineAndDB TestDBTableDrains TestSharedRunsUnderConcurrentReads
end

section "Machine.Step is the reference, not a serving path"
# Sessions and network nodes step on their resident stepper (the field is
# named stepper in a session's machine run and run in a network node); any
# other .Step( call in their non-test code is a *core.Machine stepped on
# the serving path.
if grep -rn --include='*.go' --exclude='*_test.go' -E '\.Step\(' internal/session internal/compose | grep -vE '\.(run|stepper)\.Step\('; then
	echo "engine.sh: non-test code under internal/session or internal/compose steps a machine directly" >&2
	exit 1
fi
# mergeState is the value-semantic state merge: core.go defines it and
# calls it once, from Machine.Step; nothing else mentions it.
test "$(grep -rl --include='*.go' --exclude='*_test.go' -F 'mergeState(' . | tr '\n' ' ')" = "./internal/core/core.go "
test "$(grep -cF 'mergeState(' internal/core/core.go)" = 2
grep -A20 -F 'func (m *Machine) Step(' internal/core/core.go | grep -qF 'm.mergeState('
end

section "Oracle agreement + plan cache suites under -race"
go test -race ./internal/core -run 'TestPlansAgreeWithTreeOracle|TestUnloweredProgram|TestPlanCache|TestExplainPlan' -v 2>&1 | tee "$out/core.out"
passed "$out/core.out" TestPlansAgreeWithTreeOracle TestUnloweredProgramIsAConstructionError \
	TestPlanCacheSharedAcrossMachines TestPlanCacheKeyedByInputNames TestExplainPlanRendersBothPrograms
end

section "Every shipped program compiles (models, networks, scenario fleet, examples)"
go test . -run TestEveryShippedProgramCompiles -v 2>&1 | tee "$out/compiles.out"
passed "$out/compiles.out" TestEveryShippedProgramCompiles
end

section "Join-order regression suite (negation scheduling, joins open from the step's input)"
go test ./internal/dlog -run 'TestOrderBody|TestEvalNegationFirstInBody' -v 2>&1 | tee "$out/order.out"
passed "$out/order.out" TestOrderBodyDefersNegation TestEvalNegationFirstInBody
go test ./internal/ra -run 'TestPlanOpensFromInput|TestPlanUsesIndexForBoundFirstArg|TestGroundNegationBeforePositive' -v 2>&1 | tee "$out/plan.out"
passed "$out/plan.out" TestPlanOpensFromInput TestPlanUsesIndexForBoundFirstArg
end

section "Stepper benchmark (one iteration)"
go test -run '^$' -bench 'BenchmarkStepperStep' -benchtime=1x ./internal/core 2>&1 | tee "$out/bench.out"
benched "$out/bench.out" BenchmarkStepperStep
end

section "Differential fuzz smoke"
go test ./internal/ra -run=Fuzz -fuzz=FuzzDifferential -fuzztime=10s
end

echo "engine.sh: all gates passed"
