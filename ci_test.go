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
	"slices"
	"strings"
	"testing"
)

// gateCall is one `gate ARG... -- NAME...` line of a ci/*.sh job: the
// package directories its go test call names, its -run and -bench patterns
// (hasRun and hasBench report whether each flag was given) and the names it
// gates on.
type gateCall struct {
	pkgs             []string
	run, bench       string
	hasRun, hasBench bool
	names            []string
}

// ciGates returns, per ci/*.sh job, its gate calls. $indexed stands for
// DESIGN §4's benchmark index, which TestCIGatesNameTests checks on its own.
func ciGates(t *testing.T) map[string][]gateCall {
	t.Helper()
	scripts, err := filepath.Glob("ci/*.sh")
	if err != nil || len(scripts) == 0 {
		t.Fatalf("no ci/*.sh scripts: %v", err)
	}
	envAssign := regexp.MustCompile(`^[A-Z_]+=`)
	gates := map[string][]gateCall{}
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
			var g gateCall
			i := 1
			for ; i < len(words) && words[i] != "--"; i++ {
				arg := strings.Trim(words[i], `'"`)
				flag, val, hasVal := strings.Cut(arg, "=")
				if (flag == "-run" || flag == "-bench") && !hasVal && i+1 < len(words) {
					i++
					val = strings.Trim(words[i], `'"`)
				}
				switch {
				case flag == "-run":
					g.run, g.hasRun = val, true
				case flag == "-bench":
					g.bench, g.hasBench = val, true
				case arg == "." || strings.HasPrefix(arg, "./"):
					g.pkgs = append(g.pkgs, filepath.Clean(arg))
				}
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
				g.names = append(g.names, name)
			}
			if len(g.pkgs) == 0 {
				t.Errorf("%s: gate names no package directory: %s", script, line)
			}
			gates[script] = append(gates[script], g)
		}
		if len(gates[script]) == 0 {
			t.Errorf("%s gates on no named test", script)
		}
	}
	return gates
}

// selects reports whether go test, called with the pattern, would run the
// top-level test or benchmark named top. As go test does, it splits the
// pattern into |-separated alternatives and each into /-separated elements
// (neither inside brackets or parentheses, nor escaped), and matches the
// first element of any alternative anywhere in the name.
func selects(t *testing.T, pattern, top string) bool {
	var firsts []string
	brackets, parens, start, inFirst := 0, 0, 0, true
	for i := 0; i <= len(pattern); i++ {
		c := byte('|')
		if i < len(pattern) {
			c = pattern[i]
		}
		switch {
		case c == '\\':
			i++
		case c == '[':
			brackets++
		case c == ']' && brackets > 0:
			brackets--
		case c == '(' && brackets == 0:
			parens++
		case c == ')' && brackets == 0:
			parens--
		case (c == '/' || c == '|') && brackets == 0 && parens == 0:
			if inFirst {
				firsts = append(firsts, pattern[start:i])
			}
			inFirst = c == '|'
			start = i + 1
		}
	}
	for _, f := range firsts {
		re, err := regexp.Compile(f)
		if err != nil {
			t.Errorf("pattern %q: %v", pattern, err)
			return false
		}
		if re.MatchString(top) {
			return true
		}
	}
	return false
}

// topLevelFuncs returns, for each top-level function declared in the
// module's _test.go files, the package directories that declare it.
func topLevelFuncs(t *testing.T) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	funcs := map[string][]string{}
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
				funcs[fn.Name.Name] = append(funcs[fn.Name.Name], filepath.Dir(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// isTestName reports whether name (a subtest TestX/sub counts as TestX)
// is a go test entry point by its prefix, and returns its top-level name.
func isTestName(name string) (string, bool) {
	top, _, _ := strings.Cut(name, "/")
	return top, strings.HasPrefix(top, "Test") || strings.HasPrefix(top, "Benchmark") || strings.HasPrefix(top, "Fuzz")
}

// TestCIGatesNameTests fails, naming the job and the test, when a gate
// could not pass: a test or benchmark a CI job gates on is declared in no
// _test.go file of the package directories the gate's go test call names,
// or the call's -run pattern (-bench for a benchmark) does not select it;
// or a benchmark DESIGN §4 indexes is declared nowhere. Renaming, moving or
// deselecting a gated test must fail here first. A subtest TestX/sub is
// checked as TestX.
func TestCIGatesNameTests(t *testing.T) {
	funcs := topLevelFuncs(t)
	named := 0
	for script, calls := range ciGates(t) {
		for _, g := range calls {
			for _, name := range g.names {
				if name == "$indexed" {
					continue
				}
				named++
				top, ok := isTestName(name)
				declared := false
				for _, dir := range funcs[top] {
					declared = declared || slices.Contains(g.pkgs, dir)
				}
				if !ok || !declared {
					t.Errorf("ci/%s gates on %s, which no _test.go file in %v declares", script, name, g.pkgs)
					continue
				}
				switch {
				case strings.HasPrefix(top, "Benchmark"):
					if !g.hasBench || !selects(t, g.bench, top) {
						t.Errorf("ci/%s gates on %s, which its -bench %q does not select", script, name, g.bench)
					}
				case g.hasRun && !selects(t, g.run, top):
					t.Errorf("ci/%s gates on %s, which its -run %q does not select", script, name, g.run)
				}
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
			if top, _ := isTestName(name); len(funcs[top]) == 0 {
				t.Errorf("DESIGN.md §4 indexes %s, which ci/test.sh runs and no _test.go file declares", name)
			}
		}
	}
	if indexed == 0 {
		t.Error("DESIGN.md §4 indexes no benchmark")
	}
	t.Logf("%d gated names in ci/*.sh, %d indexed benchmarks", named, indexed)
}

// TestServedStepStaysInterned: a session's step writes its log tape from
// the step's own rows (core.Stepper.Step), so no non-test code of
// internal/session may build a log delta as values (Schema.LogDelta) or
// re-intern one onto a tape (LogTape.Append); an answer that carries the
// delta decodes it from the tape.
func TestServedStepStaysInterned(t *testing.T) {
	fset := token.NewFileSet()
	_, info := typeCheck(t, fset, importer.ForCompiler(fset, "source", nil), "internal/session")
	for _, fn := range []string{"(*repro/internal/core.Schema).LogDelta", "(*repro/internal/core.LogTape).Append"} {
		for _, pos := range uses(info, fn) {
			t.Errorf("%s: %s on the serving path", fset.Position(pos), fn)
		}
	}
	if len(uses(info, "(*repro/internal/core.LogTape).Delta")) == 0 {
		t.Error("internal/session decodes no step from a tape: the check has nothing to hold")
	}
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
