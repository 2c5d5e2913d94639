package tempart

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"sort"
	"strings"
	"testing"
	"testing/fstest"
)

// exportAllowlist names the exported identifiers of internal/ packages that
// no command, example or benchmark reaches but that stay, each with the reason
// it stays. Keys are "pkg.Name" or "pkg.Type.Method", pkg being the path
// below internal/.
var exportAllowlist = map[string]string{
	// Fixtures that other packages' tests build their inputs from.
	"graph.Builder":       "test fixture: tests assemble small graphs edge by edge",
	"graph.NewBuilder":    "test fixture: tests assemble small graphs edge by edge",
	"graph.Grid":          "test fixture: the grid graph most partitioner tests run on",
	"store.Store.Crash":   "test fixture: simulates a process death for the durability tests",
	"obs.CheckExposition": "test fixture: validates every /metrics golden",
	"obs.PeakRSSBytes":    "test fixture: memory-bound tests read the process high-water mark",

	// References and integrity checks that tests compare against.
	"graph.Graph.Validate":             "integrity check: tests validate every built and contracted graph",
	"graph.Graph.Components":           "oracle: mesh tests check that every generated dual graph is connected",
	"taskgraph.TaskGraph.Validate":     "integrity check: tests validate every built task graph",
	"trace.Trace.Validate":             "integrity check: tests validate every simulated trace",
	"trace.Trace.CheckNoWorkerOverlap": "integrity check: tests assert no worker runs two tasks at once",
	"store.Store.Verify":               "integrity check: tests audit the provenance chain after crashes",
	"fv.State.RunIteration":            "reference: the serial scalar solver the task runtime must equal",
	"fv.EulerState.RunIteration":       "reference: the serial Euler solver the task runtime must equal",
	"fv.EulerState.InitSod":            "reference: the Sod initial state TestGoldenSolverStates digests",
	"fv.EulerState.Momentum":           "reference: conserved variables TestGoldenSolverStates digests",
	"fv.EulerState.Energy":             "reference: a conserved variable TestGoldenSolverStates digests",
	"temporal.Scheme.Active":           "oracle: task-graph tests check each cell is computed exactly at its active subiterations",
	"temporal.Scheme.IterationWork":    "oracle: task-graph tests check the graph's total work equals the scheme's",

	// The zero value of an enum names the default; callers get it by
	// leaving the field unset.
	"partition.RecursiveBisection": "zero-value enum constant: the default method",
}

// TestExportsReachable fails on any exported function, method, type,
// constant or variable of an internal/ package that nothing reachable from a
// main package (the commands, the examples and the benchmark module) uses.
// Tests do not count as callers: a name only tests use is dead weight unless
// exportAllowlist says why it stays. Run it alone with
//
//	go test -run TestExportsReachable .
func TestExportsReachable(t *testing.T) {
	for name, reason := range exportAllowlist {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", name)
		}
	}
	unreached, stale, err := scanExports(os.DirFS("."), []string{".", "bench"}, exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range unreached {
		t.Errorf("%s is exported but no command, example or benchmark reaches it: delete it, or allowlist it with a reason", name)
	}
	for _, name := range stale {
		t.Errorf("allowlist entry %s is reached or gone: remove it from the allowlist", name)
	}
}

// TestExportsScanFixture pins what the scan counts as reached on a module
// built in memory: an interface call reaches every method that satisfies it,
// a promoted method is its embedded type's method, a use from a main package
// counts, and neither an unused name nor a name only a test uses does.
func TestExportsScanFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"go.mod": {Data: []byte("module fix\n\ngo 1.22\n")},
		"internal/lib/lib.go": {Data: []byte(`package lib

type Shape interface{ Area() float64 }

type Square struct{ S float64 }

// Area is reached only through the Shape interface.
func (q Square) Area() float64 { return q.S * q.S }

type Base struct{}

// Hello is reached only through its promotion into Wrapped.
func (Base) Hello() string { return "hi" }

type Wrapped struct{ Base }

func Total(ss []Shape) (t float64) {
	for _, s := range ss {
		t += s.Area()
	}
	return t
}

// Unused has no caller at all.
func Unused() int { return 1 }

// TestOnly is called from lib_test.go alone.
func TestOnly() int { return 2 }
`)},
		"internal/lib/lib_test.go": {Data: []byte(`package lib

import "testing"

func TestTestOnly(t *testing.T) { _ = TestOnly() }
`)},
		"cmd/app/main.go": {Data: []byte(`package main

import (
	"fmt"

	"fix/internal/lib"
)

func main() {
	fmt.Println(lib.Total([]lib.Shape{lib.Square{S: 2}}), lib.Wrapped{}.Hello())
}
`)},
	}
	got, _, err := scanExports(fsys, []string{"."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.TestOnly", "lib.Unused"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
	got, stale, err := scanExports(fsys, []string{"."}, map[string]string{"lib.Unused": "kept", "lib.Total": "reached", "lib.Gone": "gone"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"lib.TestOnly"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("unreached with lib.Unused kept = %v, want %v", got, want)
	}
	if want := []string{"lib.Gone", "lib.Total"}; fmt.Sprint(stale) != fmt.Sprint(want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
}

// scanPkg is one non-test package of a scanned module.
type scanPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// exportScan type-checks the non-test files of a set of modules and follows
// uses outward from their main packages.
type exportScan struct {
	fset *token.FileSet
	pkgs map[string]*scanPkg
	std  types.Importer

	decls   map[types.Object][]ast.Node // package-level object → its declaration syntax
	reached map[types.Object]bool
	queue   []types.Object

	seenTypes map[types.Type]bool
	named     []*types.Named // reached named types of the modules, generic ones by instantiation
	ifaces    []*types.Interface
	ifaceSeen map[*types.Interface]bool
}

// scanExports returns, sorted, the exported identifiers of the modules'
// internal/ packages that nothing reaches from a main package or from a name
// in keep, and the names in keep that a main package reaches or that do not
// exist. Names read "pkg.Name" or "pkg.Type.Method", pkg being the import
// path below internal/. moduleDirs are the directories of fsys holding a
// go.mod; a module's walk stops at another's.
func scanExports(fsys fs.FS, moduleDirs []string, keep map[string]string) (unreached, stale []string, err error) {
	s := &exportScan{
		fset:      token.NewFileSet(),
		pkgs:      map[string]*scanPkg{},
		std:       importer.Default(),
		decls:     map[types.Object][]ast.Node{},
		reached:   map[types.Object]bool{},
		seenTypes: map[types.Type]bool{},
		ifaceSeen: map[*types.Interface]bool{},
	}
	isModule := map[string]bool{}
	for _, d := range moduleDirs {
		isModule[d] = true
	}
	for _, d := range moduleDirs {
		if err := s.load(fsys, d, isModule); err != nil {
			return nil, nil, err
		}
	}
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.Import(p); err != nil {
			return nil, nil, err
		}
	}
	s.addStdInterfaces()
	s.addInterface(types.Universe.Lookup("error").Type())

	var candidates []types.Object
	for _, p := range paths {
		pkg := s.pkgs[p]
		internal := strings.Contains(p+"/", "/internal/")
		for _, f := range pkg.files {
			s.indexDecls(pkg, f)
		}
		for _, obj := range pkg.info.Defs {
			if internal && obj != nil && obj.Exported() && s.decls[obj] != nil {
				candidates = append(candidates, obj)
			}
		}
	}
	s.run()

	// A kept name stays, and so does everything it uses.
	kept := map[string]bool{}
	var roots []types.Object
	for _, obj := range candidates {
		if name := exportName(obj); !s.reached[obj] && keep[name] != "" {
			kept[name] = true
			roots = append(roots, obj)
		}
	}
	for _, obj := range roots {
		s.reach(obj)
	}
	s.run()
	for _, obj := range candidates {
		if !s.reached[obj] {
			unreached = append(unreached, exportName(obj))
		}
	}
	for name := range keep {
		if !kept[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(unreached)
	sort.Strings(stale)
	return unreached, stale, nil
}

// load parses every non-test .go file of the module rooted at dir.
func (s *exportScan) load(fsys fs.FS, dir string, isModule map[string]bool) error {
	mod, err := fs.ReadFile(fsys, path.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	var modPath string
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return fmt.Errorf("%s/go.mod: no module line", dir)
	}
	return fs.WalkDir(fsys, dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != dir && (isModule[p] || base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := fs.ReadFile(fsys, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(s.fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := path.Dir(p)
		if dir != "." {
			rel = strings.TrimPrefix(rel, dir)
		}
		ip := path.Join(modPath, rel)
		pkg := s.pkgs[ip]
		if pkg == nil {
			pkg = &scanPkg{}
			s.pkgs[ip] = pkg
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
}

// Import type-checks a scanned package on first use and hands every other
// import path to the standard library's export data.
func (s *exportScan) Import(p string) (*types.Package, error) {
	pkg := s.pkgs[p]
	if pkg == nil {
		return s.std.Import(p)
	}
	if pkg.types != nil {
		return pkg.types, nil
	}
	pkg.info = &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s}
	tp, err := conf.Check(p, s.fset, pkg.files, pkg.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	pkg.types = tp
	return tp, nil
}

// indexDecls maps each package-level object of f to the syntax that
// declares it, and reaches the roots: main in a main package, every init
// and every blank package-level variable. The names of one value spec share
// its syntax, and a method's syntax is its whole declaration.
func (s *exportScan) indexDecls(pkg *scanPkg, f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			obj := pkg.info.Defs[d.Name]
			s.decls[obj] = append(s.decls[obj], d)
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.types.Name() == "main") {
				s.reach(obj)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					obj := pkg.info.Defs[sp.Name]
					s.decls[obj] = append(s.decls[obj], sp)
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						obj := pkg.info.Defs[n]
						if obj == nil {
							continue
						}
						s.decls[obj] = append(s.decls[obj], sp)
						if n.Name == "_" {
							s.reach(obj)
						}
					}
				}
			}
		}
	}
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// reach marks obj reached and queues its declaration.
func (s *exportScan) reach(obj types.Object) {
	obj = origin(obj)
	if s.reached[obj] {
		return
	}
	s.reached[obj] = true
	s.queue = append(s.queue, obj)
	s.reachType(obj.Type())
}

// reachType records the named types and interfaces a reached value's type
// mentions: a value of a named type can reach an interface method that
// names its methods.
func (s *exportScan) reachType(t types.Type) {
	if t == nil || s.seenTypes[t] {
		return
	}
	s.seenTypes[t] = true
	switch t := t.(type) {
	case *types.Named:
		if _, ok := s.pkgs[pkgPath(t.Obj())]; ok {
			s.reach(t.Obj())
			if t.TypeParams().Len() == 0 || t.TypeArgs().Len() > 0 {
				s.named = append(s.named, t)
			}
		} else {
			s.reachType(t.Underlying())
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			s.reachType(t.TypeArgs().At(i))
		}
		s.addInterface(t)
	case *types.Pointer:
		s.reachType(t.Elem())
	case *types.Slice:
		s.reachType(t.Elem())
	case *types.Array:
		s.reachType(t.Elem())
	case *types.Chan:
		s.reachType(t.Elem())
	case *types.Map:
		s.reachType(t.Key())
		s.reachType(t.Elem())
	case *types.Signature:
		s.reachType(t.Params())
		s.reachType(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.reachType(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			s.reachType(t.Field(i).Type())
		}
	case *types.Interface:
		s.addInterface(t)
	}
}

func pkgPath(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// addInterface records t's interface, if it is one with methods.
func (s *exportScan) addInterface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 || s.ifaceSeen[it] {
		return
	}
	s.ifaceSeen[it] = true
	s.ifaces = append(s.ifaces, it)
}

// addStdInterfaces records every exported interface of the standard library
// packages the modules import, directly or not: the library calls their
// methods (String, Error, MarshalJSON, ServeHTTP, ...) without the program
// naming them.
func (s *exportScan) addStdInterfaces() {
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := s.pkgs[p.Path()]; !ours {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					s.addInterface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, pkg := range s.pkgs {
		walk(pkg.types)
	}
}

// run drains the queue, walking each reached declaration's uses, then adds
// the methods by which reached types satisfy known interfaces, until nothing
// new is reached.
func (s *exportScan) run() {
	checked := map[[2]any]bool{}
	for {
		for len(s.queue) > 0 {
			obj := s.queue[len(s.queue)-1]
			s.queue = s.queue[:len(s.queue)-1]
			pkg := s.pkgs[pkgPath(obj)]
			for _, node := range s.decls[obj] {
				ast.Inspect(node, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if used := pkg.info.Uses[id]; used != nil {
						if _, ours := s.pkgs[pkgPath(used)]; ours {
							s.reach(used)
						} else {
							s.reachType(used.Type())
						}
					}
					return true
				})
			}
		}
		for i := 0; i < len(s.named); i++ {
			t := s.named[i]
			ptr := types.NewPointer(t)
			for j := 0; j < len(s.ifaces); j++ {
				it := s.ifaces[j]
				key := [2]any{t, it}
				if checked[key] {
					continue
				}
				checked[key] = true
				if !types.Implements(ptr, it) {
					continue
				}
				for m := 0; m < it.NumMethods(); m++ {
					im := it.Method(m)
					if fn, _, _ := types.LookupFieldOrMethod(ptr, true, im.Pkg(), im.Name()); fn != nil {
						if _, ours := s.pkgs[pkgPath(fn)]; ours {
							s.reach(fn)
						}
					}
				}
			}
		}
		if len(s.queue) == 0 {
			return
		}
	}
}

// exportName renders obj as "pkg.Name" or "pkg.Type.Method", pkg being the
// import path below internal/.
func exportName(obj types.Object) string {
	p := pkgPath(obj)
	if i := strings.LastIndex(p, "/internal/"); i >= 0 {
		p = p[i+len("/internal/"):]
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return p + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return p + "." + obj.Name()
}
