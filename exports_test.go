package zoomlens

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportsReferenced lists the exported identifiers declared in
// internal/ that no non-test code reads, and holds them to exports.allow.
// It type-checks every non-test package of this module and of bench/ (a
// module of its own) from source and matches each use to its declaration
// by object, so a method named like a live one elsewhere does not pass for
// live. It covers exported funcs, methods (of any type, interfaces
// included), types and package-level vars and consts; struct fields are
// out of scope. A method's receiver is not a use of its type, and a method
// counts as read when its type implements an interface with that method
// that the program declares, the standard library it imports included
// (fmt.Stringer, io.Writer), or error.
//
// Every unreferenced export must be listed in exports.allow as
// pkg.Name or pkg.Type.Name with a reason; an entry that is now read, is
// gone or has no reason fails the test too.
func TestExportsReferenced(t *testing.T) {
	dead, err := unreferencedExports(".")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exported identifiers in internal/ with no non-test reference: %d (%s)", len(dead), strings.Join(dead, " "))

	f, err := os.Open("exports.allow")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		name, reason, _ := strings.Cut(s, " ")
		allowed[name] = true
		if strings.TrimSpace(reason) == "" {
			t.Errorf("exports.allow:%d: %s has no reason", line, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	isDead := map[string]bool{}
	for _, d := range dead {
		isDead[d] = true
		if !allowed[d] {
			t.Errorf("unreferenced export %s: delete it, move it into the test that uses it, unexport it, or list it in exports.allow with a reason", d)
		}
	}
	for name := range allowed {
		if !isDead[name] {
			t.Errorf("exports.allow: %s is referenced or gone: drop the entry", name)
		}
	}
}

// unreferencedExports type-checks the module rooted at root and its bench/
// module and returns the exported internal/ objects no non-test code
// reads, as sorted pkg.Name / pkg.Type.Name strings.
func unreferencedExports(root string) ([]string, error) {
	l := &loader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		dirs: map[string]string{},
		pkgs: map[string]*loadedPkg{},
	}
	bench := filepath.Join(root, "bench")
	modules := []struct{ path, dir string }{{"zoomlens", root}, {"zoomlens/bench", bench}}
	var paths []string
	for _, m := range modules {
		err := filepath.WalkDir(m.dir, func(p string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != m.dir && (p == bench || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(m.dir, p)
			ip := m.path
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			l.dirs[ip] = p
			paths = append(paths, ip)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	for _, ip := range paths {
		if _, err := l.load(ip); err != nil {
			return nil, err
		}
	}

	// Declarations: exported package-level objects of internal/ packages
	// and the exported methods of their named types.
	decls := map[types.Object]string{}
	var named []*types.Named
	for _, ip := range paths {
		p := l.pkgs[ip]
		if p == nil {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
			if !strings.HasPrefix(ip, "zoomlens/internal/") {
				continue
			}
			if obj.Exported() {
				decls[obj] = p.types.Name() + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			ms := []*types.Func{}
			for i := 0; i < n.NumMethods(); i++ {
				ms = append(ms, n.Method(i))
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					ms = append(ms, it.ExplicitMethod(i))
				}
			}
			for _, m := range ms {
				if m.Exported() {
					decls[m] = p.types.Name() + "." + name + "." + m.Name()
				}
			}
		}
	}

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, ip := range paths {
		p := l.pkgs[ip]
		if p == nil {
			continue
		}
		recv := map[*ast.Ident]bool{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if !recv[id] {
				used[origin(obj)] = true
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, ip := range paths {
		if p := l.pkgs[ip]; p != nil {
			walk(p.types)
		}
	}
	for _, n := range named {
		if n.TypeParams().Len() > 0 {
			continue
		}
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		for _, it := range ifaces {
			var t types.Type = n
			if !types.Implements(t, it) {
				if t = types.NewPointer(n); !types.Implements(t, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}

	var dead []string
	for obj, name := range decls {
		if !used[obj] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead, nil
}

// origin maps a use of a method of a generic type instance to its
// declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

type loadedPkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// loader type-checks this repository's packages from source, in import
// order, and takes the standard library from its export data.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*loadedPkg
}

func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load type-checks the package at import path ip; a directory with no
// non-test Go files yields nil.
func (l *loader) load(ip string) (*loadedPkg, error) {
	if p, ok := l.pkgs[ip]; ok {
		return p, nil
	}
	bp, err := build.Default.ImportDir(l.dirs[ip], 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			l.pkgs[ip] = nil
			return nil, nil
		}
		return nil, err
	}
	p := &loadedPkg{info: &types.Info{
		Uses: map[*ast.Ident]types.Object{},
		Defs: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(ip, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[ip] = p
	return p, nil
}
