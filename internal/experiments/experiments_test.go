package experiments

import (
	"io"
	"testing"
)

// TestEveryExperimentVerdictHolds runs the whole EXPERIMENTS.md report and
// requires every experiment to run and every verdict to hold.
func TestEveryExperimentVerdictHolds(t *testing.T) {
	if err := Report(io.Discard); err != nil {
		t.Fatal(err)
	}
}
