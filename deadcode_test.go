package repro

// A guard against regrowth of code nothing needs: every top-level func,
// method and type in the non-test Go of this module and of perfbench/
// must be referenced somewhere outside its own declaration. References are
// resolved with go/types (the standard library type-checked from source),
// so a selector counts only for the method it resolves to, not for every
// method of that name. A method is also used when a module interface
// method of its name is referenced and a module type whose method set
// reaches it implements that interface: a call through the interface may
// dispatch to it.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// keptForTests names the declarations only tests reach that stay because
// a test uses them to check other code. Keys are "dir.Name" or
// "dir.Recv.Method".
var keptForTests = map[string]string{
	"internal/chaos.Injector.Count":          "per-site fault count the chaos and scheduler tests read",
	"internal/chaos.Injector.SetDisabled":    "lets the chaos tests switch injection off mid-run",
	"internal/chaos.Injector.Total":          "fault-count accessor the chaos tests read",
	"internal/core.PMFToTails":               "inverse check of TailsToPMF",
	"internal/dist.FitErlang":                "fixture of the phase-type moment test",
	"internal/meanfield.ChoicesFixedPoint":   "closed-form oracle of the choices model",
	"internal/meanfield.ChoicesSojournTime":  "closed-form oracle of the choices model",
	"internal/meanfield.PhaseService.Levels": "accessor the phase-service tests read",
	"internal/numeric.RelErr":                "tolerance oracle of the solver and closed-form tests",
	"internal/ode.IntegrateToSteady":         "baseline of BenchmarkPlainIntegration",
	"internal/rng.Source.Intn":               "reference the Bounded sampler test checks against; the fuzz tests draw with it",
	"internal/sched.Cell.Done":               "completion channel the lease tests wait on",
	"internal/sim.taskDeque.Front":           "accessor the deque tests check ordering with",
	"internal/stability.Report.Stable":       "verdict accessor the stability tests read",
	"internal/stats.Summary.Contains":        "coverage oracle of the confidence-interval tests",
	"internal/table.Table.Cell":              "cell accessor the table, metrics and experiments tests read",
	"internal/table.Table.NumRows":           "accessor the table tests read",
	"internal/workload.MMPP.MeanRate":        "closed form the MMPP sampler test checks against",
}

// interfaceMethods are method names the runtime or the standard library
// calls through one of its own interfaces, so no module selector resolves
// to them.
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
	obj       types.Object
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

// modulePkg is one directory of Go, its non-test files type-checked on
// demand. tests holds the directory's _test.go files.
type modulePkg struct {
	dir   string
	files []*ast.File
	tests []*ast.File
	pkg   *types.Package
}

// moduleImporter type-checks the module's own packages from the parsed
// files, in import order, and hands every other path to the standard
// library's source importer.
type moduleImporter struct {
	t     *testing.T
	fset  *token.FileSet
	pkgs  map[string]*modulePkg // by import path
	paths []string              // sorted import paths with non-test files
	info  *types.Info
	std   types.Importer
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	mp, ok := m.pkgs[p]
	if !ok {
		return m.std.Import(p)
	}
	if mp.pkg == nil {
		mp.pkg = m.check(p, mp.files, m.info)
	}
	return mp.pkg, nil
}

// check type-checks files as the package at import path p, recording
// identifiers in info; a type error fails the test.
func (m *moduleImporter) check(p string, files []*ast.File, info *types.Info) *types.Package {
	conf := types.Config{Importer: m, Error: func(err error) { m.t.Error(err) }}
	pkg, _ := conf.Check(p, m.fset, files, info)
	return pkg
}

// loadModule parses every Go file of this module and of perfbench/ and
// type-checks the non-test files, cgo off, with the standard library
// type-checked from source.
func loadModule(t *testing.T) *moduleImporter {
	// Select the pure-Go files of net and os/user, so the source importer
	// never runs cgo.
	cgo := build.Default.CgoEnabled
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	pkgs := map[string]*modulePkg{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ip := path.Join("repro", dir)
		if pkgs[ip] == nil {
			pkgs[ip] = &modulePkg{dir: dir}
		}
		if strings.HasSuffix(p, "_test.go") {
			pkgs[ip].tests = append(pkgs[ip].tests, f)
		} else {
			pkgs[ip].files = append(pkgs[ip].files, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	m := &moduleImporter{t, fset, pkgs, nil, info, importer.ForCompiler(fset, "source", nil)}
	for p, mp := range pkgs {
		if len(mp.files) > 0 {
			m.paths = append(m.paths, p)
		}
	}
	sort.Strings(m.paths)
	for _, p := range m.paths {
		m.Import(p)
	}
	if t.Failed() {
		t.FailNow()
	}
	return m
}

func TestNoUnreferencedDeclarations(t *testing.T) {
	m := loadModule(t)
	pkgs, paths, info := m.pkgs, m.paths, m.info

	var decls []*decl
	methods := map[string][][2]token.Pos{} // "dir.Type" -> its methods' spans
	var named []*types.TypeName            // every module type, for interface dispatch
	for _, p := range paths {
		dir := pkgs[p].dir
		for _, f := range pkgs[p].files {
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
					decls = append(decls, &decl{key, d.Name.Name, info.Defs[d.Name], d.Recv != nil, [][2]token.Pos{span}})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							obj := info.Defs[ts.Name]
							named = append(named, obj.(*types.TypeName))
							decls = append(decls, &decl{dir + "." + ts.Name.Name, ts.Name.Name, obj, false, [][2]token.Pos{{ts.Pos(), ts.End()}}})
						}
					}
				}
			}
		}
	}

	// Every position that names an object, with methods of generic types
	// folded onto their declaration.
	uses := map[types.Object][]token.Pos{}
	var ifaceMethods []*types.Func // referenced methods of module interfaces
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			uses[obj] = append(uses[obj], id.Pos())
			continue
		}
		fn = fn.Origin()
		if len(uses[fn]) == 0 && fn.Pkg() != nil && pkgs[fn.Pkg().Path()] != nil {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods = append(ifaceMethods, fn)
			}
		}
		uses[fn] = append(uses[fn], id.Pos())
	}
	// A call through a module interface may reach, by promotion too, the
	// method of every module type that implements it.
	dispatched := map[types.Object]bool{}
	for _, im := range ifaceMethods {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, tn := range named {
			if types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			if !types.Implements(tn.Type(), iface) && !types.Implements(ptr, iface) {
				continue
			}
			if obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name()); obj != nil {
				dispatched[obj.(*types.Func).Origin()] = true
			}
		}
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
		used := dispatched[d.obj]
		for _, p := range uses[d.obj] {
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

// configStructs are the config and option types of the module. Each
// exported field must be written in some file other than its own
// package's non-test files: a field that only its package's defaulting
// writes is a setting nothing sets.
var configStructs = []string{
	"internal/asciiplot.Options",
	"internal/breaker.Config",
	"internal/chaos.Config",
	"internal/cluster.Backoff",
	"internal/cluster.Config",
	"internal/experiments.Scale",
	"internal/meanfield.SolveOptions",
	"internal/ode.SteadyOptions",
	"internal/serve.Config",
	"internal/sim.Options",
	"internal/sim.Replication",
	"internal/solver.Options",
	"internal/validate.Config",
}

func TestConfigFieldsAreSet(t *testing.T) {
	m := loadModule(t)
	// keys maps the exported fields of configStructs to "dir.Type.Field",
	// both in the loaded packages and in the copies checked with a
	// package's in-package tests.
	keys := map[*types.Var]string{}
	addFields := func(pkg *types.Package, dir string) {
		for _, name := range configStructs {
			typ, ok := strings.CutPrefix(name, dir+".")
			if !ok {
				continue
			}
			obj := pkg.Scope().Lookup(typ)
			if obj == nil {
				t.Fatalf("configStructs lists %s, which is not declared", name)
			}
			st := obj.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					keys[f] = name + "." + f.Name()
				}
			}
		}
	}
	for _, p := range m.paths {
		addFields(m.pkgs[p].pkg, m.pkgs[p].dir)
	}

	// scan marks the config fields that files write in a keyed literal, an
	// assignment or an &field; writes to the fields of package self do not
	// count.
	set := map[string]bool{}
	scan := func(files []*ast.File, info *types.Info, self string) {
		mark := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			if id, ok := e.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Var); ok && keys[f] != "" && f.Pkg().Path() != self {
					set[keys[f]] = true
				}
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					mark(n.Key)
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						mark(n.X)
					}
				}
				return true
			})
		}
	}
	for _, p := range m.paths {
		scan(m.pkgs[p].files, m.info, p)
	}
	// In-package tests are checked with their package's non-test files,
	// an external _test package on its own.
	for p, mp := range m.pkgs {
		var in, ext []*ast.File
		for _, f := range mp.tests {
			if strings.HasSuffix(f.Name.Name, "_test") {
				ext = append(ext, f)
			} else {
				in = append(in, f)
			}
		}
		if len(in) > 0 {
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			addFields(m.check(p, append(in, mp.files...), info), mp.dir)
			scan(in, info, "")
		}
		if len(ext) > 0 {
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			m.check(p+"_test", ext, info)
			scan(ext, info, "")
		}
	}

	var unset []string
	for _, name := range keys {
		if !set[name] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	for _, name := range slices.Compact(unset) {
		t.Errorf("%s is written nowhere outside its own package's non-test files: make it a constant", name)
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
