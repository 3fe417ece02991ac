package repro

// A guard against regrowth of code nothing needs: every top-level func,
// method and type in the non-test Go of this module and of perfbench/
// must be referenced somewhere outside its own declaration. The scan is
// by name, over go/parser syntax trees, so it is conservative: a method
// counts as used when any selector anywhere carries its name.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptForTests names the declarations only tests reach that stay because
// a test uses them to check other code. Keys are "dir.Name" or
// "dir.Recv.Method".
var keptForTests = map[string]string{
	"internal/chaos.Injector.SetDisabled":    "lets the chaos tests switch injection off mid-run",
	"internal/chaos.Injector.Total":          "fault-count accessor the chaos tests read",
	"internal/core.PMFToTails":               "inverse check of TailsToPMF",
	"internal/dist.FitErlang":                "fixture of the phase-type moment test",
	"internal/meanfield.ChoicesFixedPoint":   "closed-form oracle of the choices model",
	"internal/meanfield.ChoicesSojournTime":  "closed-form oracle of the choices model",
	"internal/meanfield.PhaseService.Levels": "accessor the phase-service tests read",
	"internal/numeric.RelErr":                "tolerance oracle of the solver and closed-form tests",
	"internal/ode.IntegrateToSteady":         "baseline of BenchmarkPlainIntegration",
	"internal/sim.taskDeque.Front":           "accessor the deque tests check ordering with",
	"internal/stability.Report.Stable":       "verdict accessor the stability tests read",
	"internal/stats.Summary.Contains":        "coverage oracle of the confidence-interval tests",
	"internal/table.Table.NumRows":           "accessor the table tests read",
	"internal/workload.MMPP.MeanRate":        "closed form the MMPP sampler test checks against",
}

// interfaceMethods are method names the runtime or the standard library
// calls through an interface, so no selector names them.
var interfaceMethods = map[string]string{
	"String":        "fmt.Stringer, called by the fmt verbs",
	"Error":         "error, called by whoever prints the error",
	"Unwrap":        "http.ResponseController reaches the wrapped writer through it",
	"MarshalJSON":   "json.Marshaler, called by encoding/json",
	"UnmarshalJSON": "json.Unmarshaler, called by encoding/json",
	"Write":         "http.ResponseWriter",
	"WriteHeader":   "http.ResponseWriter",
	"Flush":         "http.Flusher",
}

// decl is one top-level declaration and the source spans that make it
// up: a func's or method's own text, or a type's spec plus its methods.
type decl struct {
	key, name string
	method    bool
	spans     [][2]token.Pos
}

// within reports whether p lies inside one of d's spans.
func (d *decl) within(p token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= p && p < s[1] {
			return true
		}
	}
	return false
}

func TestNoUnreferencedDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	var decls []*decl
	methods := map[string][][2]token.Pos{} // "dir.Type" -> its methods' spans
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
					continue
				}
				key, span := dir+"."+d.Name.Name, [2]token.Pos{d.Pos(), d.End()}
				if d.Recv != nil {
					typ := dir + "." + recvName(d.Recv.List[0].Type)
					methods[typ] = append(methods[typ], span)
					key = typ + "." + d.Name.Name
				}
				decls = append(decls, &decl{key, d.Name.Name, d.Recv != nil, [][2]token.Pos{span}})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						decls = append(decls, &decl{dir + "." + ts.Name.Name, ts.Name.Name, false, [][2]token.Pos{{ts.Pos(), ts.End()}}})
					}
				}
			}
		}
		recv := map[*ast.FieldList]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				recv[n.Recv] = true
			case *ast.FieldList:
				// A method's receiver names its type without using it.
				return !recv[n]
			case *ast.Ident:
				uses[n.Name] = append(uses[n.Name], n.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		if !d.method {
			d.spans = append(d.spans, methods[d.key]...)
		}
		if _, ok := keptForTests[d.key]; ok {
			continue
		}
		if _, ok := interfaceMethods[d.name]; ok && d.method {
			continue
		}
		used := false
		for _, p := range uses[d.name] {
			if !d.within(p) {
				used = true
				break
			}
		}
		if !used {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is referenced nowhere outside its declaration: delete it, or list it in keptForTests with the reason a test needs it", k)
	}
	for k := range keptForTests {
		if !declared[k] {
			t.Errorf("keptForTests lists %s, which is not declared", k)
		}
	}
}

// recvName returns the type name of a method receiver, with any pointer
// and type parameters stripped.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
