package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachableAllowed lists the declarations under internal/ that no program
// reaches but that stay, each with its reason. A reason names the other
// packages whose tests read the declaration, or the ROADMAP item that will
// call it. Code that only its own package's tests read belongs in a
// _test.go file instead.
var unreachableAllowed = map[string]string{
	"metrics.Snapshot.Find":              "agent, causal and experiment tests read one series from a snapshot",
	"metrics.Snapshot.SumByName":         "causal and experiment tests total a counter across label sets",
	"machine.Machine.OverclockedCores":   "cluster and experiment tests count the cores running overclocked",
	"machine.Machine.TotalOCCoreSeconds": "cluster tests and experiment's cluster kernel pin read it",
	"machine.Machine.OCTime":             "experiment tests check per-core overclock time",
	"core.SOA.ExtraWatts":                "cluster tests read the power an sOA asked for",
	"core.GOA.SetLimit":                  "invariant tests move a rack limit by hand",
	"experiment.Table.FindRow":           "the root benchmarks read table rows by name",
	"trace.ReadRackJSON":                 "ROADMAP item 10(c) replays an exported rack through it",
}

// TestNoUnreachableCode fails on any declaration under internal/ that no
// program reaches and that unreachableAllowed does not list, and on any
// allowlist entry that is reached or no longer exists.
//
// The roots are the main and init functions of every package, the
// initialisers of package-level vars, and every method that implements an
// interface type the module mentions or a standard-library package it
// imports declares, because calls through an interface are not followed.
// Only non-test files are read, so code that only tests call is unreachable.
func TestNoUnreachableCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	unreached := map[string]bool{}
	for _, name := range u.unreachable() {
		unreached[name] = true
		if _, ok := unreachableAllowed[name]; !ok {
			t.Errorf("%s: no program reaches it; delete it, move it into a _test.go file, or allowlist it with a reason", name)
		}
	}
	for name := range unreachableAllowed {
		if !unreached[name] {
			t.Errorf("allowlist entry %s is reached or no longer exists; remove it", name)
		}
	}
}

// unreadAllowed lists the unexported struct fields under internal/ that no
// program reads but that stay, each with its reason.
var unreadAllowed = map[string]string{
	"sim.Engine.rng":     "benchmark/ passes this value to the constructor; drop after ROADMAP 3(a)",
	"agent.TCPNode.name": "benchmark/ passes this value to the constructor; drop after ROADMAP 3(a)",
}

// TestNoUnreadFields fails on any unexported struct field under internal/
// that no non-test code reads and that unreadAllowed does not list, and on
// any allowlist entry that is read or no longer exists.
//
// Every use of a field is a read except three writes: the left side of = or
// :=, the operand of ++ or --, and a composite-literal key. A field that
// nothing writes either has no use at all, so it fails too. Embedded fields
// are not checked, because promoted selectors read them implicitly.
func TestNoUnreadFields(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	unread := map[string]bool{}
	for _, name := range u.unreadFields() {
		unread[name] = true
		if _, ok := unreadAllowed[name]; !ok {
			t.Errorf("%s: no program reads it; delete it or allowlist it with a reason", name)
		}
	}
	for name := range unreadAllowed {
		if !unread[name] {
			t.Errorf("allowlist entry %s is read or no longer exists; remove it", name)
		}
	}
}

// listedPackage holds the fields of go list's JSON output that the scan
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	Error      *struct{ Err string }
}

// module is the type-checked non-test code of every package in the module.
type module struct {
	pkgs  []*modulePackage
	decls []*decl
	byObj map[types.Object]*decl
	std   map[string]*types.Package // standard-library imports of the module
}

type modulePackage struct {
	path  string
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// decl is one package-level declaration or method, with the declarations
// its body, type or initialiser refers to.
type decl struct {
	name string // package.Name or package.Type.Method
	pkg  *modulePackage
	refs []types.Object
	root bool
}

// loadModule lists the module with one go list call, then type-checks each
// module package from source in dependency order. Standard-library
// packages come from the compiler's export data.
func loadModule() (*module, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		listed = append(listed, p)
	}

	exports := map[string]string{}
	for _, p := range listed {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	m := &module{byObj: map[types.Object]*decl{}, std: map[string]*types.Package{}}
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		p, err := gc.Import(path)
		if err == nil {
			m.std[path] = p
		}
		return p, err
	})
	// go list -deps prints every package after its dependencies.
	for _, p := range listed {
		if p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		mp := &modulePackage{path: p.ImportPath, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			mp.files = append(mp.files, f)
		}
		conf := types.Config{Importer: imp}
		mp.pkg, err = conf.Check(p.ImportPath, fset, mp.files, mp.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = mp.pkg
		m.pkgs = append(m.pkgs, mp)
	}
	for _, mp := range m.pkgs {
		m.collectDecls(mp)
	}
	m.rootInterfaceMethods()
	return m, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// collectDecls records every package-level declaration and method of mp
// with the objects it refers to. Blank declarations are not recorded.
func (m *module) collectDecls(mp *modulePackage) {
	short := mp.pkg.Name()
	add := func(id *ast.Ident, name string, refs []types.Object) *decl {
		d := &decl{name: name, pkg: mp, refs: refs}
		if id.Name != "_" {
			m.decls = append(m.decls, d)
			m.byObj[mp.info.Defs[id]] = d
		}
		return d
	}
	for _, f := range mp.files {
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				name := short + "." + dl.Name.Name
				if dl.Recv != nil {
					name = short + "." + recvTypeName(dl.Recv.List[0].Type) + "." + dl.Name.Name
				}
				d := add(dl.Name, name, uses(mp.info, dl))
				if dl.Recv == nil && (dl.Name.Name == "init" || dl.Name.Name == "main" && mp.pkg.Name() == "main") {
					d.root = true
				}
			case *ast.GenDecl:
				for _, spec := range dl.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, short+"."+s.Name.Name, uses(mp.info, s))
					case *ast.ValueSpec:
						if dl.Tok == token.CONST {
							refs := uses(mp.info, s)
							for _, id := range s.Names {
								add(id, short+"."+id.Name, refs)
							}
							continue
						}
						var refs []types.Object
						if s.Type != nil {
							refs = uses(mp.info, s.Type)
						}
						for _, id := range s.Names {
							add(id, short+"."+id.Name, refs)
						}
						// An initialiser runs at start-up whether or not
						// the var is read.
						initialiser := &decl{name: "var initialiser", pkg: mp, root: true}
						for _, v := range s.Values {
							initialiser.refs = append(initialiser.refs, uses(mp.info, v)...)
						}
						m.decls = append(m.decls, initialiser)
					}
				}
			}
		}
	}
}

// uses lists the objects the identifiers under n refer to, with generic
// instances mapped back to their origin.
func uses(info *types.Info, n ast.Node) []types.Object {
	var objs []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				objs = append(objs, origin(obj))
			}
		}
		return true
	})
	return objs
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func recvTypeName(e ast.Expr) string {
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

// rootInterfaceMethods marks as roots the methods that implement an
// interface the module mentions, or one that a standard-library package it
// imports declares at package level. Methods of generic types are matched
// by name alone.
func (m *module) rootInterfaceMethods() {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for _, mp := range m.pkgs {
		for _, tv := range mp.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
	}
	for _, p := range m.std {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	names := map[string]bool{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			names[it.Method(i).Name()] = true
		}
	}

	for _, mp := range m.pkgs {
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 {
				continue
			}
			if named.TypeParams().Len() > 0 {
				for i := 0; i < named.NumMethods(); i++ {
					if fn := named.Method(i); names[fn.Name()] {
						m.markRoot(fn)
					}
				}
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					im := it.Method(i)
					if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
						m.markRoot(sel.Obj())
					}
				}
			}
		}
	}
}

func (m *module) markRoot(obj types.Object) {
	if d := m.byObj[origin(obj)]; d != nil {
		d.root = true
	}
}

// unreachable returns, sorted, the names of the declarations under
// internal/ that no root reaches.
func (m *module) unreachable() []string {
	reached := map[*decl]bool{}
	var stack []*decl
	for _, d := range m.decls {
		if d.root {
			reached[d] = true
			stack = append(stack, d)
		}
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, obj := range d.refs {
			if next := m.byObj[obj]; next != nil && !reached[next] {
				reached[next] = true
				stack = append(stack, next)
			}
		}
	}
	var names []string
	for _, d := range m.decls {
		if !reached[d] && strings.Contains(d.pkg.path+"/", "/internal/") {
			names = append(names, d.name)
		}
	}
	sort.Strings(names)
	return names
}

// unreadFields returns, sorted, the names of the unexported, non-embedded
// struct fields under internal/ that no non-test code reads. A field is
// named package.Type.field, with the outer field's name inserted for a
// field of a nested struct type.
func (m *module) unreadFields() []string {
	names := map[*types.Var]string{}
	read := map[types.Object]bool{}
	for _, mp := range m.pkgs {
		short := mp.pkg.Name()
		var nameStruct func(prefix string, st *ast.StructType)
		nameStruct = func(prefix string, st *ast.StructType) {
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					v := mp.info.Defs[id].(*types.Var)
					names[v] = prefix + "." + id.Name
					if inner, ok := field.Type.(*ast.StructType); ok {
						nameStruct(names[v], inner)
					}
				}
			}
		}
		writes := map[*ast.Ident]bool{}
		markWrite := func(e ast.Expr) {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				writes[x.Sel] = true
			case *ast.Ident:
				writes[x] = true
			}
		}
		for _, f := range mp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						nameStruct(short+"."+n.Name.Name, st)
					}
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
						for _, lhs := range n.Lhs {
							markWrite(lhs)
						}
					}
				case *ast.IncDecStmt:
					markWrite(n.X)
				case *ast.KeyValueExpr:
					markWrite(n.Key)
				}
				return true
			})
		}
		for id, obj := range mp.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[origin(v)] = true
			}
		}
	}
	var unread []string
	for _, mp := range m.pkgs {
		if !strings.Contains(mp.path+"/", "/internal/") {
			continue
		}
		for id, obj := range mp.info.Defs {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() || v.Embedded() || v.Exported() || read[v] {
				continue
			}
			name, ok := names[v]
			if !ok {
				name = mp.pkg.Name() + ".struct{}." + id.Name
			}
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	return unread
}
