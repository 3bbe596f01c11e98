#!/usr/bin/env bash
# The test job: build, the gofmt gate, vet, the whole suite with and
# without the race detector, the decision procedures' checks (golden
# corpora, the guarded grounder against its naive oracle and against brute
# force, the progress procedures against exhaustive search, the depth and
# allocation ceilings of a cold goal), every paper experiment's verdict and
# one iteration of its benchmark, one iteration of each cold-path benchmark
# and two fuzz smokes. Every named suite is gated on its PASS lines
# (ci/lib.sh).
#
# Usage: bash ci/test.sh   (from anywhere; needs go)
. "$(dirname "$0")/lib.sh"

section "Build, gofmt, vet, test"
go build ./...
test -z "$(gofmt -l .)" || {
	echo "test.sh: gofmt would rewrite:" >&2
	gofmt -l . >&2
	exit 1
}
go vet ./...
go test ./...
end

section "Race"
go test -race ./...
end

# The live-plane race test is the proof there are no torn reads between the
# data plane and the verification plane; a silent skip would hollow the
# race tier out.
section "Race tier includes the live-plane race, shared-past and answer-key tests"
gate -race -run TestLiveVerifyInputRace ./internal/session -- TestLiveVerifyInputRace
# One past is shared by every Peek of an unchanged state and by the answers
# cached from it, and the answer key is a digest of it: the sharing and the
# key's injectivity are checked under the race detector too.
gate -race -run TestPeekSharesPastUntilGrowth ./internal/session -- TestPeekSharesPastUntilGrowth
gate -race -run TestAnswerKeyInjective ./internal/live -- TestAnswerKeyInjective
end

# The solver is held to its search: trajectories.golden must reproduce
# status, propagations, conflicts, decisions and model line for line. The
# grounder is held to its answers: every verdict of verdicts.golden must
# reproduce, with the grounding sizes and witnesses recorded beside them
# (a deliberate re-record keeps the verdict column and keeps each line's
# naive=vars/clauses). Verdicts are checked three more ways: the guarded
# grounder against the domain-enumerating one on random problems and on
# every golden-suite problem, the grounder against brute-force model search
# with fixed relations, and the progress procedures against exhaustive
# two-step search.
section "Golden corpora and verdict checks"
gate -count=1 -run 'TestGoldenTrajectories|TestSolveBudgetPerCall' ./internal/sat -- TestGoldenTrajectories TestSolveBudgetPerCall
gate -count=1 -run 'TestGuarded|TestPropSolveMatchesBruteForce' ./internal/fol -- \
	TestGuardedMatchesNaive TestGuardedSentenceShapes TestGuardedMatchesNaiveOnGoldenProblems TestPropSolveMatchesBruteForce
gate -count=1 -run 'TestGoldenVerdicts|TestColdReachAllocs|PooledSearch|TestPropReachGoalMatchesBruteForce' ./internal/verify -- \
	TestGoldenVerdicts TestColdReachAllocs TestPropReachGoalMatchesBruteForce \
	TestReachAndTemporalFromMatchPooledSearchTiny2 TestReachAndTemporalFromMatchPooledSearchShort
end

# A cold goal grounds what the guards admit, so its size follows the
# session's depth linearly at most.
section "Goal grounding is linear in session depth"
gate -count=1 -run TestGoalGroundingLinearInDepth ./internal/session -- TestGoalGroundingLinearInDepth
end

# The paper's experiments E1–E17 and S1–S2: every verdict of the
# EXPERIMENTS.md report must hold, and every benchmark DESIGN.md §4 indexes
# must run once, so its in-loop assertions run too.
section "Paper experiments: report verdicts and one iteration of each benchmark"
gate -count=1 -run TestEveryExperimentVerdictHolds ./internal/experiments -- TestEveryExperimentVerdictHolds
indexed=$(grep -E '^\| [ES][0-9]+ \|' DESIGN.md | grep -o 'Benchmark[A-Za-z0-9]*')
[ "$(echo "$indexed" | wc -l)" -eq 19 ] || {
	echo "test.sh: DESIGN.md §4 should index 19 benchmarks, found: $indexed" >&2
	exit 1
}
# shellcheck disable=SC2086 # one name per word
gate -run '^$' -bench 'BenchmarkE|BenchmarkS[12]' -benchtime=1x . -- $indexed
end

section "Cold-path benchmarks (one iteration each)"
gate -run '^$' -bench 'BenchmarkSolveDecisions' -benchtime=1x ./internal/sat -- BenchmarkSolveDecisions/vars=16000
gate -run '^$' -bench 'BenchmarkReachGoalFrom' -benchtime=1x ./internal/verify -- BenchmarkReachGoalFrom/short BenchmarkReachGoalFrom/guarded
end

section "Fuzz smokes (dlog parser, DIMACS reader)"
go test ./internal/dlog -run=Fuzz -fuzz=FuzzParseProgram -fuzztime=10s
go test ./internal/sat -run=Fuzz -fuzz=FuzzDIMACS -fuzztime=10s
end

echo "test.sh: all gates passed"
