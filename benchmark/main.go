// Command benchmark is the repo's one benchmark of the serving stack: five
// named workloads, end-to-end metrics from untraced runs, and a traced run
// that decomposes them by layer. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), " | ")+" | all")
		seed      = flag.Int64("seed", 1, "seed of the input generator")
		seconds   = flag.Float64("seconds", 10, "length of the timed region on the commit that introduced the benchmark; fixes the operation count")
		trace     = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: quarter-size untraced + traced run with layer probes, per-layer metrics and the ledger")
		tmp       = flag.String("tmp", "", "directory for WAL fixtures (default: the system temp directory)")
		selfcheck = flag.Bool("selfcheck", false, "repeatability self-check: two sets of runs of every workload, compared against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(os.Stdout, *seed, *seconds, *tmp))
	}
	var todo []*workloadDef
	if *workload == "all" {
		todo = workloads
	} else if w := workloadByName(*workload); w != nil {
		todo = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	pin()
	ok := true
	for _, w := range todo {
		p := params{seed: *seed, seconds: *seconds, scale: 1, tmp: *tmp}
		res, err := runOne(os.Stdout, w, p, *trace != 0)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		fmt.Println(res.line)
		ok = ok && res.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}

// pin fixes the process-wide settings every workload is measured under.
func pin() {
	debug.SetGCPercent(100)
	runtime.GOMAXPROCS(clients)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupRuns is how many times an untraced run sets the workload up; setup_s
// is their median and the last fixture is the one measured.
const setupRuns = 3

// outcome is one finished run of one workload.
type outcome struct {
	rep       *report
	line      string // the result line
	attempted int
	failed    int
	digest    string // of the operation stream
	// snapUSPerByte is what the explicit end-of-run snapshot cost per byte
	// written (durable workloads); the ledger prices in-run snapshots by it.
	snapUSPerByte float64
}

// runOne runs one workload and prints its report to out.
func runOne(out io.Writer, w *workloadDef, p params, traced bool) (*outcome, error) {
	if traced {
		return runTraced(out, w, p)
	}
	res, err := untraced(out, w, p, setupRuns)
	if err != nil {
		return nil, err
	}
	res.rep.print(out, "end-to-end, tracing off", endToEnd)
	res.rep.print(out, "per-layer counters", layers)
	res.line, err = res.rep.line(gated, res.attempted, res.failed)
	return res, err
}

// untraced sets the workload up `setups` times, measures the last fixture
// with tracing off, runs the correctness gate, and fills the report with
// the end-to-end metrics and the counter-derived per-layer ones.
func untraced(out io.Writer, w *workloadDef, p params, setups int) (*outcome, error) {
	var f *fixture
	var took []float64
	for i := 0; i < setups; i++ {
		if f != nil {
			f.tearDown()
		}
		var err error
		if f, err = setUp(w, p, nil); err != nil {
			return nil, err
		}
		took = append(took, f.setupDur.Seconds())
	}
	defer f.tearDown()
	m := f.measure()
	v := f.check()
	res := &outcome{rep: newReport(w.name), attempted: f.attempted, failed: f.failed, digest: f.plan.digest()}
	res.rep.set("setup_s", median(took), len(took))
	res.rep.headline(f, m, v)
	res.rep.counted(f, m, v)
	if v.recovered && v.snapshotBytes > 0 {
		res.snapUSPerByte = v.snapshotMS * 1e3 / float64(v.snapshotBytes)
	}
	f.describe(out, m, res.digest)
	f.complain(out)
	return res, nil
}

// describe prints the run's shape: what was generated and how long it took.
func (f *fixture) describe(out io.Writer, m *measurement, digest string) {
	fmt.Fprintf(out, "\n== %s  seed=%d  sessions=%d  ops=%d  steps=%d (timed %d)  digest=%s\n",
		f.w.name, f.p.seed, len(f.plan.sessions), f.plan.nOps(), f.plan.steps, m.steps, digest[:16])
	fmt.Fprintf(out, "   closed loop, %d clients, %d shards, GOMAXPROCS=%d, GC percent 100; timed region %.2fs\n",
		clients, shards, runtime.GOMAXPROCS(0), m.wall.Seconds())
}

// complain prints the first failures, if any.
func (f *fixture) complain(out io.Writer) {
	if f.failed == 0 {
		return
	}
	fmt.Fprintf(out, "%s — %d FAILED operations, first few:\n", f.w.name, f.failed)
	for _, note := range f.failNote {
		fmt.Fprintf(out, "  %s\n", note)
	}
}
