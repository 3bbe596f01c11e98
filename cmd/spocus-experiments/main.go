// Command spocus-experiments regenerates every experiment of the
// reproduction (DESIGN.md's per-experiment index E1–E17 plus the substrate
// benchmarks S1–S2) and prints an EXPERIMENTS.md-style markdown report:
// for each paper artifact, what the paper states and what this
// implementation measures. It exits 1 when an experiment's verdict fails
// or an experiment cannot run.
package main

import (
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := experiments.Report(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spocus-experiments:", err)
		os.Exit(1)
	}
}
