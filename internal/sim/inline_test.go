package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/eventq"
)

// TestHotPathInlining checks the event-list claims of DESIGN.md §16 against
// the compiler instead of trusting a comment. It builds this package with
// -gcflags=-m and requires the calendar's Peek and PopMin fast paths and
// Event.Before — the lane-or-calendar merge — to be inlined into both
// engines' run loops. Calendar.Push is too large for the inliner (its body
// handles bucket appends and recalibration), so for the departure site the
// test asserts the next best thing: a direct call of
// (*eventq.Calendar).Push on the core's event list, with no dispatch layer
// between the engine and the queue. The arrival sites must not push at
// all: they schedule through the arrival lane, whose schedulers reserve a
// tie-break number directly on the calendar, and no evArrival event is
// pushed anywhere in the package.
func TestHotPathInlining(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skipf("go tool not available: %v", err)
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, name := range []string{"core.go", "engine.go", "hybrid.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = f
	}

	// Peek, Before and PopMin inlined into each run loop.
	inlined := regexp.MustCompile(`(?m)^\./(\w+\.go):(\d+):\d+: inlining call to eventq\.(\(\*Calendar\)\.PopMin|\(\*Calendar\)\.Peek|\(\*Event\)\.Before)$`)
	for _, fn := range []struct{ file, recv string }{{"engine.go", "engine"}, {"hybrid.go", "hybridEngine"}} {
		run := findMethod(t, files[fn.file], fn.recv, "run")
		from, to := fset.Position(run.Pos()).Line, fset.Position(run.End()).Line
		found := map[string]bool{}
		for _, m := range inlined.FindAllStringSubmatch(string(out), -1) {
			line, _ := strconv.Atoi(m[2])
			if m[1] == fn.file && from <= line && line <= to {
				found[m[3]] = true
			}
		}
		for _, callee := range []string{"(*Calendar).PopMin", "(*Calendar).Peek", "(*Event).Before"} {
			if !found[callee] {
				t.Errorf("eventq.%s is not inlined into (*%s).run", callee, fn.recv)
			}
		}
	}

	calendar := reflect.TypeOf((*eventq.Calendar)(nil))
	for _, v := range []any{procCore{}, engine{}, hybridEngine{}} {
		if f, ok := reflect.TypeOf(v).FieldByName("q"); !ok || f.Type != calendar {
			t.Errorf("%T.q is not a *eventq.Calendar", v)
		}
	}

	// Push called directly on the calendar at the departure site.
	if !callsOnQ(findMethod(t, files["core.go"], "procCore", "scheduleDeparture"), "Push") {
		t.Error("(*procCore).scheduleDeparture does not push directly onto the calendar event list")
	}

	// The lane schedulers reserve directly on the calendar and never push.
	schedulers := map[string]*ast.FuncDecl{
		"scheduleArrival":      findMethod(t, files["core.go"], "procCore", "scheduleArrival"),
		"scheduleClassArrival": findMethod(t, files["engine.go"], "engine", "scheduleClassArrival"),
		"nextCustomArrival":    findMethod(t, files["engine.go"], "engine", "nextCustomArrival"),
	}
	for name, fd := range schedulers {
		if callsOnQ(fd, "Push") {
			t.Errorf("%s pushes onto the calendar; arrivals belong in the lane", name)
		}
		if name != "nextCustomArrival" && !callsOnQ(fd, "Reserve") {
			t.Errorf("%s does not reserve its tie-break number directly on the calendar", name)
		}
	}
	if !callsMethod(schedulers["nextCustomArrival"], "scheduleArrival") {
		t.Error("nextCustomArrival does not schedule through the lane")
	}

	// The arrival cases schedule through the lane and push nothing.
	arrivals := map[string]ast.Node{
		"(*engine).run arrivals":       findCase(t, findMethod(t, files["engine.go"], "engine", "run"), "evArrival"),
		"(*hybridEngine).run arrivals": findCase(t, findMethod(t, files["hybrid.go"], "hybridEngine", "run"), "evArrival"),
	}
	for name, n := range arrivals {
		if callsOnQ(n, "Push") {
			t.Errorf("%s pushes onto the calendar; arrivals belong in the lane", name)
		}
		lane := false
		for s := range schedulers {
			lane = lane || callsMethod(n, s)
		}
		if !lane {
			t.Errorf("%s does not schedule through the arrival lane", name)
		}
	}

	// No evArrival event is pushed anywhere in the package.
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSelector(call.Fun, "Push") || len(call.Args) != 1 {
				return true
			}
			if lit, ok := call.Args[0].(*ast.CompositeLit); ok {
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Value.(*ast.Ident); ok && id.Name == "evArrival" {
							t.Errorf("%s: an evArrival event is pushed onto the calendar", fset.Position(call.Pos()))
						}
					}
				}
			}
			return true
		})
	}
}

// isSelector reports whether expr is a selector ending in .name.
func isSelector(expr ast.Expr, name string) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// callsOnQ reports whether n calls method on a field named q — the core's
// calendar — directly.
func callsOnQ(n ast.Node, method string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isSelector(call.Fun, method) {
			if q, ok := call.Fun.(*ast.SelectorExpr).X.(*ast.SelectorExpr); ok && q.Sel.Name == "q" {
				found = true
			}
		}
		return !found
	})
	return found
}

// callsMethod reports whether n calls a method or function named method.
func callsMethod(n ast.Node, method string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isSelector(call.Fun, method) {
			found = true
		}
		return !found
	})
	return found
}

// findMethod returns the declaration of recv's method name in f.
func findMethod(t *testing.T, f *ast.File, recv, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != name {
			continue
		}
		if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok && id.Name == recv {
				return fd
			}
		}
	}
	t.Fatalf("method (*%s).%s not found", recv, name)
	return nil
}

// findCase returns the switch case clause of fn that handles event kind.
func findCase(t *testing.T, fn *ast.FuncDecl, kind string) *ast.CaseClause {
	t.Helper()
	var found *ast.CaseClause
	ast.Inspect(fn, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if id, ok := e.(*ast.Ident); ok && id.Name == kind {
					found = cc
				}
			}
		}
		return found == nil
	})
	if found == nil {
		t.Fatalf("case %s not found in %s", kind, fn.Name.Name)
	}
	return found
}
