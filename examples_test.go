package spocus_test

// The examples/ directory holds runnable main packages; this test builds
// and runs each one, asserting success, and golden-checks the quickstart's
// replay of the Figure 1 run of SHORT.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/scenario"
)

var examplePrograms = []string{
	"quickstart",
	"store",
	"fraud",
	"customization",
	"marketplace",
	"turing",
}

// fig1Trace is the Figure 1 run of SHORT exactly as the quickstart prints
// it: two orders billed, payment and a third order, then the remaining
// payments and deliveries — with the log recording bills, payments, and
// deliveries.
const fig1Trace = `step 1
  input:  {order(newsweek), order(time)}
  output: {sendbill(newsweek, 845), sendbill(time, 855)}
  log:    {sendbill(newsweek, 845), sendbill(time, 855)}
step 2
  input:  {order(le-monde), pay(time, 855)}
  output: {deliver(time), sendbill(le-monde, 8350)}
  log:    {deliver(time), pay(time, 855), sendbill(le-monde, 8350)}
step 3
  input:  {pay(le-monde, 8350), pay(newsweek, 845)}
  output: {deliver(le-monde), deliver(newsweek)}
  log:    {deliver(le-monde), deliver(newsweek), pay(le-monde, 8350), pay(newsweek, 845)}
`

func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs example binaries")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	for _, name := range examplePrograms {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := exec.Command("go", "run", "./examples/"+name).CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, out)
			}
			if len(out) == 0 {
				t.Errorf("examples/%s produced no output", name)
			}
			if name == "quickstart" && !strings.Contains(string(out), fig1Trace) {
				t.Errorf("quickstart trace does not match Figure 1:\n%s", out)
			}
		})
	}
}

// TestEveryShippedProgramCompiles: a machine exists only if the planner
// lowered its rule programs (core has no second evaluator to fall back to),
// so every program this repo ships must build — every registry model, every
// member of the generated networks, every session of the builtin scenario
// fleet, and every transducer program written out under examples/.
func TestEveryShippedProgramCompiles(t *testing.T) {
	for _, name := range models.Names() {
		if models.Get(name) == nil { // a compile error panics in the registry's MustParseProgram
			t.Errorf("registry model %s does not build", name)
		}
	}
	for _, name := range models.NetworkNames() {
		if _, err := models.Network(name).Build(models.Resolve); err != nil {
			t.Errorf("network %s: %v", name, err)
		}
	}
	for _, spec := range scenario.Fleet() {
		plans, err := spec.Plan("compile")
		if err != nil {
			t.Errorf("scenario %s: %v", spec.Name, err)
			continue
		}
		for _, p := range plans {
			if p.IsNetwork() {
				if _, err := p.Network.Build(models.Resolve); err != nil {
					t.Errorf("scenario %s session %s: %v", spec.Name, p.ID, err)
				}
			} else if models.Get(p.Model) == nil {
				t.Errorf("scenario %s session %s: model %s does not build", spec.Name, p.ID, p.Model)
			}
		}
	}
	files, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	programs := 0
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil || !strings.HasPrefix(strings.TrimSpace(src), "transducer ") {
				return true
			}
			programs++
			if _, err := core.ParseProgram(src); err != nil {
				t.Errorf("%s: program literal does not build: %v", file, err)
			}
			return true
		})
	}
	if programs == 0 {
		t.Error("found no transducer program literal under examples/")
	}
}
