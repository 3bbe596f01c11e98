package spocus_test

// Checks of the CI gates themselves, in tier-1 so that a gate broken by a
// rename fails `go test ./...` rather than a job nobody runs: every test a
// ci/*.sh job gates on must exist, and the structural rule ci/engine.sh
// enforces (Machine.Step is the reference, not a serving path) is checked
// on the type-checked packages instead of on their text.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciGates returns, per ci/*.sh job, the test and benchmark names it passes
// to gate (after `--`). $indexed stands for DESIGN §4's benchmark index,
// which TestCIGatesNameTests checks on its own.
func ciGates(t *testing.T) map[string][]string {
	t.Helper()
	scripts, err := filepath.Glob("ci/*.sh")
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no ci/*.sh scripts: %v", err)
	}
	envAssign := regexp.MustCompile(`^[A-Z_]+=`)
	gates := map[string][]string{}
	for _, path := range scripts {
		script := filepath.Base(path)
		if script == "lib.sh" || script == "all.sh" {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			words := strings.Fields(line)
			for len(words) > 0 && envAssign.MatchString(words[0]) {
				words = words[1:]
			}
			if len(words) == 0 || words[0] != "gate" {
				continue
			}
			i := 0
			for i < len(words) && words[i] != "--" {
				i++
			}
			if i == len(words) {
				t.Errorf("%s: gate without --: %s", script, line)
				continue
			}
			for _, name := range words[i+1:] {
				if strings.HasPrefix(name, "$") && name != "$indexed" {
					t.Errorf("%s: gated name %s is not known until the job runs", script, name)
					continue
				}
				gates[script] = append(gates[script], name)
			}
		}
		if len(gates[script]) == 0 {
			t.Errorf("%s gates on no named test", script)
		}
	}
	return gates
}

// topLevelFuncs returns the names of the top-level functions declared in
// the module's _test.go files.
func topLevelFuncs(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// TestCIGatesNameTests fails, naming the job and the test, when a test or
// benchmark a CI job gates on (or one DESIGN §4 indexes) is declared in no
// _test.go file: the job would fail on it, and renaming or deleting a gated
// test must fail here first. A subtest TestX/sub is checked as TestX.
func TestCIGatesNameTests(t *testing.T) {
	funcs := topLevelFuncs(t)
	exists := func(name string) bool {
		top, _, _ := strings.Cut(name, "/")
		isTest := strings.HasPrefix(top, "Test") || strings.HasPrefix(top, "Benchmark") || strings.HasPrefix(top, "Fuzz")
		return isTest && funcs[top]
	}
	named := 0
	for script, names := range ciGates(t) {
		for _, name := range names {
			if name == "$indexed" {
				continue
			}
			named++
			if !exists(name) {
				t.Errorf("ci/%s gates on %s, which no _test.go file declares", script, name)
			}
		}
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	indexRow := regexp.MustCompile(`(?m)^\| [ES][0-9]+ \|.*$`)
	bench := regexp.MustCompile(`Benchmark[A-Za-z0-9]*`)
	indexed := 0
	for _, row := range indexRow.FindAllString(string(design), -1) {
		for _, name := range bench.FindAllString(row, -1) {
			indexed++
			if !exists(name) {
				t.Errorf("DESIGN.md §4 indexes %s, which ci/test.sh runs and no _test.go file declares", name)
			}
		}
	}
	if indexed == 0 {
		t.Error("DESIGN.md §4 indexes no benchmark")
	}
	t.Logf("%d gated names in ci/*.sh, %d indexed benchmarks", named, indexed)
}

// typeCheck type-checks the non-test Go files of the package in dir, with
// its imports type-checked from source.
func typeCheck(t *testing.T, fset *token.FileSet, imp types.Importer, dir string) ([]*ast.File, *types.Info) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := build.ImportDir(abs, 0)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check("repro/"+dir, fset, files, info); err != nil {
		t.Fatalf("type-check %s: %v", dir, err)
	}
	return files, info
}

// uses returns where info uses the function or method named full (as
// types.Func.FullName renders it).
func uses(info *types.Info, full string) []token.Pos {
	var at []token.Pos
	for id, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.FullName() == full {
			at = append(at, id.Pos())
		}
	}
	return at
}

// TestMachineStepIsTheReference: Machine.Step is the paper's value-semantic
// definition, the reference the serving path is checked against. Sessions
// and network nodes step on their resident core.Stepper, so no non-test
// code of internal/session or internal/compose may use (*core.Machine).Step,
// whatever the receiver is called; and mergeState, the value-semantic state
// merge, is used once in internal/core, inside Machine.Step.
func TestMachineStepIsTheReference(t *testing.T) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, dir := range []string{"internal/session", "internal/compose"} {
		_, info := typeCheck(t, fset, imp, dir)
		for _, pos := range uses(info, "(*repro/internal/core.Machine).Step") {
			t.Errorf("%s: Machine.Step on the serving path", fset.Position(pos))
		}
		if len(uses(info, "(*repro/internal/core.Stepper).Step")) == 0 {
			t.Errorf("%s steps no core.Stepper: the check has nothing to hold", dir)
		}
	}

	files, info := typeCheck(t, fset, imp, "internal/core")
	var step *ast.BlockStmt
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || fn.Name.Name != "Step" {
				continue
			}
			if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
				if id, ok := star.X.(*ast.Ident); ok && id.Name == "Machine" {
					step = fn.Body
				}
			}
		}
	}
	if step == nil {
		t.Fatal("internal/core declares no (*Machine).Step")
	}
	merges := uses(info, "(*repro/internal/core.Machine).mergeState")
	if len(merges) != 1 || merges[0] < step.Pos() || merges[0] >= step.End() {
		for _, pos := range merges {
			t.Logf("mergeState used at %s", fset.Position(pos))
		}
		t.Errorf("mergeState is used %d times in internal/core; want once, inside (*Machine).Step", len(merges))
	}
}
