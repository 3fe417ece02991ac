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
	"testing"

	"repro/internal/eventq"
)

// TestHotPathInlining checks the event-list claims of DESIGN.md §16 against
// the compiler instead of trusting a comment. It builds this package with
// -gcflags=-m and requires the calendar's PopMin fast path to be inlined
// into both engines' run loops. Calendar.Push is too large for the inliner
// (its body handles bucket appends and recalibration), so for the
// departure and arrival sites the test asserts the next best thing: each
// is a direct call of (*eventq.Calendar).Push on the core's event list,
// with no dispatch layer between the engine and the queue.
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

	// PopMin inlined into each run loop.
	popMin := regexp.MustCompile(`(?m)^\./(\w+\.go):(\d+):\d+: inlining call to eventq\.\(\*Calendar\)\.PopMin$`)
	for _, fn := range []struct{ file, recv string }{{"engine.go", "engine"}, {"hybrid.go", "hybridEngine"}} {
		run := findMethod(t, files[fn.file], fn.recv, "run")
		from, to := fset.Position(run.Pos()).Line, fset.Position(run.End()).Line
		found := false
		for _, m := range popMin.FindAllStringSubmatch(string(out), -1) {
			line, _ := strconv.Atoi(m[2])
			found = found || (m[1] == fn.file && from <= line && line <= to)
		}
		if !found {
			t.Errorf("eventq.(*Calendar).PopMin is not inlined into (*%s).run", fn.recv)
		}
	}

	// Push called directly on the calendar at the departure and arrival
	// sites.
	calendar := reflect.TypeOf((*eventq.Calendar)(nil))
	for _, v := range []any{procCore{}, engine{}, hybridEngine{}} {
		if f, ok := reflect.TypeOf(v).FieldByName("q"); !ok || f.Type != calendar {
			t.Errorf("%T.q is not a *eventq.Calendar", v)
		}
	}
	sites := map[string]ast.Node{
		"(*procCore).scheduleDeparture": findMethod(t, files["core.go"], "procCore", "scheduleDeparture"),
		"(*engine).run arrivals":        findCase(t, findMethod(t, files["engine.go"], "engine", "run"), "evArrival"),
		"(*hybridEngine).run arrivals":  findCase(t, findMethod(t, files["hybrid.go"], "hybridEngine", "run"), "evArrival"),
	}
	for name, n := range sites {
		direct := false
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Push" {
					if q, ok := sel.X.(*ast.SelectorExpr); ok && q.Sel.Name == "q" {
						direct = true
					}
				}
			}
			return true
		})
		if !direct {
			t.Errorf("%s does not push directly onto the calendar event list", name)
		}
	}
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
