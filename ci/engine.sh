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
# differential fuzz smoke. Every named suite is gated on its PASS lines
# (ci/lib.sh).
#
# Usage: bash ci/engine.sh   (from anywhere; needs go)
. "$(dirname "$0")/lib.sh"

section "Differential suite under -race (ra vs tree oracle; stepper vs Machine.Step and the oracle)"
gate -race ./internal/ra -run 'TestDifferential|TestStepperRefuses|TestStepTimeNamesAssignNoSlots' -- \
	TestDifferentialRegistryModels TestDifferentialQuick TestDifferentialSeeds \
	TestDifferentialShortPaperSession TestDifferentialStepper \
	TestDifferentialStepper/short-input-comes-and-goes TestDifferentialStepper/short-two-databases \
	TestStepperRefusesMisshapenState TestStepperRefusesUndeclaredState TestStepTimeNamesAssignNoSlots
end

section "Step cost is flat in state depth; a small-state step stays under its allocation ceiling; sessions share what is not theirs (-race)"
gate -race ./internal/session -run 'TestStepCostIsFlatInDepth|TestSmallStateStepAllocates|TestIdleSessionRetention|TestSessionsShareMachineAndDB|TestDBTableDrains|TestSharedRunsUnderConcurrentReads' -- \
	TestStepCostIsFlatInDepth/short TestStepCostIsFlatInDepth/auction TestSmallStateStepAllocates \
	TestIdleSessionRetention TestSessionsShareMachineAndDB TestDBTableDrains TestSharedRunsUnderConcurrentReads
end

# Sessions and network nodes step on their resident core.Stepper; a
# *core.Machine stepped in their non-test code would put the reference on
# the serving path. The check type-checks the packages, so it does not
# depend on what any field is called.
section "Machine.Step is the reference, not a serving path"
gate . -run TestMachineStepIsTheReference -- TestMachineStepIsTheReference
end

section "Oracle agreement + plan cache suites under -race"
gate -race ./internal/core -run 'TestPlansAgreeWithTreeOracle|TestUnloweredProgram|TestPlanCache|TestExplainPlan' -- \
	TestPlansAgreeWithTreeOracle TestUnloweredProgramIsAConstructionError \
	TestPlanCacheSharedAcrossMachines TestPlanCacheKeyedByInputNames TestExplainPlanRendersBothPrograms
end

section "Every shipped program compiles (models, networks, scenario fleet, examples)"
gate . -run TestEveryShippedProgramCompiles -- TestEveryShippedProgramCompiles
end

section "Join-order regression suite (negation scheduling, joins open from the step's input)"
gate ./internal/dlog -run 'TestOrderBody|TestEvalNegationFirstInBody' -- TestOrderBodyDefersNegation TestEvalNegationFirstInBody
gate ./internal/ra -run 'TestPlanOpensFromInput|TestPlanUsesIndexForBoundFirstArg|TestGroundNegationBeforePositive' -- \
	TestPlanOpensFromInput TestPlanUsesIndexForBoundFirstArg
end

section "Stepper benchmark (one iteration)"
gate -run '^$' -bench 'BenchmarkStepperStep' -benchtime=1x ./internal/core -- BenchmarkStepperStep
end

section "Differential fuzz smoke"
go test ./internal/ra -run=Fuzz -fuzz=FuzzDifferential -fuzztime=10s
end

echo "engine.sh: all gates passed"
