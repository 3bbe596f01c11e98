package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// The repeatability self-check: two sets of runs of the same code, each run
// a fresh process. The sets alternate pass by pass (A1 B1 A2 B2 ...), so a
// box that drifts for minutes at a time slows both alike, and set B visits
// the workloads in reverse order. For every workload and gated metric it
// prints both medians, the spread of all the runs and the bound, and fails
// if the two medians disagree by more than the bound — the same question the
// driver asks of the benchmark.

// checkRuns is the number of runs of every workload in each set.
const checkRuns = 3

// selfCheck returns the process exit code.
func selfCheck(out io.Writer, seed int64, seconds float64, tmp string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	environment(out, seed, seconds)

	// vals[set][workload][metric] lists one value per run.
	vals := [2]map[string]map[string][]float64{{}, {}}
	for r := 0; r < checkRuns; r++ {
		for set := range vals {
			for i := range workloads {
				w := workloads[i]
				if set == 1 {
					w = workloads[len(workloads)-1-i]
				}
				res, err := runChild(exe, w.name, seed+int64(r), seconds, tmp)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s: %v\n", w.name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "benchmark: selfcheck: %s seed %d: %d of %d operations failed\n", w.name, seed+int64(r), res.Failed, res.Attempted)
					return 1
				}
				if vals[set][w.name] == nil {
					vals[set][w.name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					vals[set][w.name][name] = append(vals[set][w.name][name], v.Value)
				}
				fmt.Fprintf(out, "set %c run %d %-14s %s\n", 'A'+set, r+1, w.name, compact(res))
			}
		}
	}

	fmt.Fprintf(out, "\n%-14s %-18s %14s %14s %9s %9s %7s  %s\n", "workload", "metric", "median A", "median B", "B vs A", "spread", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range gated {
			a, b := vals[0][w.name][d.name], vals[1][w.name][d.name]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			verdict := "ok"
			if math.Abs(diff) > d.bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(out, "%-14s %-18s %14s %14s %+8.2f%% %8.2f%% %6.0f%%  %s\n",
				w.name, d.name, fmtVal(ma), fmtVal(mb), 100*diff, 100*spread(append(append([]float64(nil), a...), b...)), 100*d.bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d pairs of medians disagree by more than their bound\n", bad)
		return 1
	}
	fmt.Fprintln(out, "\nevery pair of medians agrees within its bound")
	return 0
}

// spread is the distance between the first and third quartile as a share of
// the median (the inclusive method, which needs no more than two values).
func spread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		at := p * float64(len(s)-1)
		lo := int(math.Floor(at))
		hi := int(math.Ceil(at))
		return s[lo] + (s[hi]-s[lo])*(at-float64(lo))
	}
	return (q(0.75) - q(0.25)) / median(s)
}

func runChild(exe, workload string, seed int64, seconds float64, tmp string) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0", "-tmp", tmp)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v\n%s", err, stdout)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

func compact(res *result) string {
	var parts []string
	for _, d := range gated {
		parts = append(parts, fmt.Sprintf("%s=%s", d.name, fmtVal(res.Metrics[d.name].Value)))
	}
	return strings.Join(parts, " ")
}

// environment prints the record that says what the numbers below it were
// measured on.
func environment(out io.Writer, seed int64, seconds float64) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if _, v, ok := strings.Cut(l, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b)) + " (parent of the commit that adds the benchmark, if uncommitted)"
	}
	fmt.Fprintf(out, "go %s %s/%s  nproc %d  GOMAXPROCS %d  cpu %q\ncommit %s\nseeds %d..%d  seconds %s  GC percent 100  runs per set %d\n\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), clients, cpu, commit, seed, seed+checkRuns-1, fmtVal(seconds), checkRuns)
}
