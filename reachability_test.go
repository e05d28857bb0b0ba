package polarstar_test

import (
	"fmt"
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
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions under internal/ that no binary
// reaches but that tests in another package read, so they cannot move
// into a _test.go file. Each entry carries its reason; an entry that is
// no longer needed fails the test.
var reachAllowlist = map[string]string{
	"graph.DeltaStats.Stats":     "search's tests compare incremental state against a rebuild",
	"graph.DeltaStats.Histogram": "search's tests compare incremental state against a rebuild",
	"obs.Counter.Value":          "the metrics tests in sim and faults read counters",
	"obs.Histogram.Count":        "flowsim's metrics test reads the hop histogram count",
	"obs.Histogram.Max":          "sim's metrics test reads the latency histogram maximum",
}

// TestReachability enforces that production code is what a binary
// reaches. It type-checks every non-test package of the module and walks
// the call graph from the roots: main and init functions, package-level
// variable initialisers, and every method that can satisfy an interface.
// Any function or method under internal/ that the walk does not reach
// fails the test with its position; test-only code belongs in a _test.go
// file next to its tests. The public facade (package polarstar) is no
// root: each of its exported names needs a reader (see facadeReaders),
// so a facade variable cannot keep internal code alive on its own.
func TestReachability(t *testing.T) {
	// The source importer runs cgo on packages that use it; the pure Go
	// variants declare the same API, so type-check those instead.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false

	l := &loader{fset: token.NewFileSet(), dirs: map[string]string{}, pkgs: map[string]*loaded{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.scan("."); err != nil {
		t.Fatal(err)
	}
	for path := range l.dirs {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range facadeReaders(l, "README.md") {
		t.Error(e)
	}
	r := newReach(l)

	var unreached []string
	for fn, decl := range r.decls {
		name := funcName(fn)
		_, allowed := reachAllowlist[name]
		if r.live[fn] || allowed || !strings.HasPrefix(fn.Pkg().Path(), l.module+"/internal/") {
			continue
		}
		pos := l.fset.Position(decl.Pos())
		unreached = append(unreached, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, name))
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("unreached: %s", u)
	}
	for name := range reachAllowlist {
		if fn, ok := r.byName[name]; !ok || r.live[fn] {
			t.Errorf("allowlist entry %s is no longer needed", name)
		}
	}
}

// facadeReaders checks that every exported name of the facade has a
// reader: non-test code in another package of the module, a polarstar.X
// in one of the readme's go blocks, or the signature of a name that is
// itself read (New returns *PolarStar, so PolarStar is read through it).
// It also reports a polarstar.X in the readme that the facade does not
// declare.
func facadeReaders(l *loader, readme string) []string {
	facade := l.pkgs[l.module]
	scope := facade.pkg.Scope()
	read := map[types.Object]bool{}
	var queue []types.Object
	use := func(obj types.Object) {
		if obj != nil && obj.Exported() && scope.Lookup(obj.Name()) == obj && !read[obj] {
			read[obj] = true
			queue = append(queue, obj)
		}
	}
	for path, p := range l.pkgs {
		if path != l.module {
			for _, obj := range p.info.Uses {
				use(obj)
			}
		}
	}
	var errs []string
	text, err := os.ReadFile(readme)
	if err != nil {
		return []string{err.Error()}
	}
	inGo := false
	for i, line := range strings.Split(string(text), "\n") {
		if strings.HasPrefix(line, "```") {
			inGo = line == "```go"
			continue
		}
		if !inGo {
			continue
		}
		for _, m := range readmeName.FindAllStringSubmatch(line, -1) {
			if obj := scope.Lookup(m[1]); obj != nil {
				use(obj)
			} else {
				errs = append(errs, fmt.Sprintf("%s:%d: polarstar.%s is not declared by the facade", readme, i+1, m[1]))
			}
		}
	}
	// The signature of each declared name: a function's parameter and
	// result types, a variable's or constant's written type, a type's
	// definition.
	sig := map[types.Object][]ast.Node{}
	for _, f := range facade.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := facade.info.Defs[d.Name]
				sig[obj] = append(sig[obj], d.Type)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if spec.Type != nil {
								obj := facade.info.Defs[name]
								sig[obj] = append(sig[obj], spec.Type)
							}
						}
					case *ast.TypeSpec:
						obj := facade.info.Defs[spec.Name]
						sig[obj] = append(sig[obj], spec.Type)
					}
				}
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, n := range sig[obj] {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					use(facade.info.Uses[id])
				}
				return true
			})
		}
	}
	for _, name := range scope.Names() {
		if obj := scope.Lookup(name); obj.Exported() && !read[obj] {
			pos := l.fset.Position(obj.Pos())
			errs = append(errs, fmt.Sprintf("%s:%d: facade export %s has no reader outside tests", pos.Filename, pos.Line, name))
		}
	}
	return errs
}

// readmeName matches a facade name in a readme code line.
var readmeName = regexp.MustCompile(`\bpolarstar\.([A-Za-z_][A-Za-z0-9_]*)`)

// loaded is one type-checked package of the module.
type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loader type-checks the module's non-test packages from source; imports
// outside the module go to the standard library's source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	module string
	dirs   map[string]string // import path -> directory
	pkgs   map[string]*loaded
}

// scan records every directory under root that holds a Go package.
func (l *loader) scan(root string) error {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	l.module = strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			imp, dir := l.module, filepath.Dir(path)
			if dir != root {
				imp += "/" + filepath.ToSlash(dir)
			}
			l.dirs[imp] = dir
		}
		return nil
	})
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// load parses and type-checks one module package and, through Import,
// the module packages it depends on.
func (l *loader) load(path string) (*loaded, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &loaded{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// reach is the liveness walk over the loaded module.
type reach struct {
	decls  map[*types.Func]*ast.FuncDecl
	info   map[*types.Func]*types.Info
	byName map[string]*types.Func
	live   map[*types.Func]bool
	queue  []*types.Func
}

// newReach marks the roots and everything they reach, transitively.
func newReach(l *loader) *reach {
	r := &reach{
		decls:  map[*types.Func]*ast.FuncDecl{},
		info:   map[*types.Func]*types.Info{},
		byName: map[string]*types.Func{},
		live:   map[*types.Func]bool{},
	}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					r.decls[fn], r.info[fn] = d, p.info
					r.byName[funcName(fn)] = fn
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main")
					if entry {
						r.mark(fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						r.visit(d, p.info)
					}
				}
			}
		}
	}
	r.markInterfaceMethods(l)
	for len(r.queue) > 0 {
		fn := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		if d := r.decls[fn]; d != nil && d.Body != nil {
			r.visit(d.Body, r.info[fn])
		}
	}
	return r
}

func (r *reach) mark(fn *types.Func) {
	fn = fn.Origin()
	if !r.live[fn] {
		r.live[fn] = true
		r.queue = append(r.queue, fn)
	}
}

// visit marks every function or method n refers to.
func (r *reach) visit(n ast.Node, info *types.Info) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				r.mark(fn)
			}
		}
		return true
	})
}

// markInterfaceMethods sets aside every method whose receiver satisfies
// an interface naming it: the interface call may reach it at run time.
func (r *reach) markInterfaceMethods(l *loader) {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p.pkg)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	for fn := range r.decls {
		recv := receiver(fn)
		if recv == nil || recv.TypeParams().Len() > 0 {
			continue // generic receivers are reached through their instances
		}
		for _, it := range byMethod[fn.Name()] {
			if types.Implements(types.NewPointer(recv), it) {
				r.mark(fn)
				break
			}
		}
	}
}

// receiver is the named type a method is declared on, nil for a function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// funcName is pkg.Func or pkg.Type.Method.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := receiver(fn); recv != nil {
		name += recv.Obj().Name() + "."
	}
	return name + fn.Name()
}
