package tvp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreferencedFuncs fails on any function or method declared in a
// non-test file of this module or of the cmd/tvpbench benchmark module
// that no identifier or selector in either module, tests included,
// resolves to. Exempt are main, init, and methods whose name belongs to
// an interface their receiver implements: error, and every interface
// the checked code spells out or any package it imports declares, so
// String (fmt.Stringer), ServeHTTP (http.Handler) and the like count as
// reached.
func TestNoUnreferencedFuncs(t *testing.T) {
	t.Parallel()
	fset := token.NewFileSet()
	sc := &scan{
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		listed:     map[string]*listedPackage{},
		checked:    map[string]*types.Package{},
		files:      map[string]*ast.File{},
		declared:   map[token.Pos]*types.Func{},
		used:       map[token.Pos]bool{},
		interfaces: map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true},
		scopes:     map[*types.Package]bool{},
	}
	for _, dir := range []string{".", filepath.Join("cmd", "tvpbench")} {
		pkgs, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			// The standard library comes from the importer; the
			// generated test mains declare nothing of ours.
			if !p.Standard && !strings.HasSuffix(p.ImportPath, ".test") {
				sc.listed[p.ImportPath] = p
			}
		}
	}
	// go test caches a pass against the files and directories this
	// process opens, not the ones the go list child reads: listing every
	// directory here makes a new file or package rerun the scan.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(sc.listed))
	for path := range sc.listed {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := sc.check(path); err != nil {
			t.Fatal(err)
		}
	}

	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var unreferenced []string
	for pos, fn := range sc.declared {
		if sc.used[pos] || sc.exempt(fn) {
			continue
		}
		p := fset.Position(pos)
		if rel, err := filepath.Rel(root, p.Filename); err == nil {
			p.Filename = filepath.ToSlash(rel)
		}
		unreferenced = append(unreferenced, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, funcName(fn)))
	}
	sort.Strings(unreferenced)
	for _, u := range unreferenced {
		t.Errorf("%s is referenced nowhere: delete it, or call it", u)
	}
}

// listedPackage is the part of `go list -json` output the scan needs.
// With -test, ImportPath also names test variants ("p [p.test]"), and
// ImportMap sends an import to the variant rebuilt for one.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
}

// goList lists the packages of the module rooted at dir, their test
// variants and everything they import.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "-deps", "-test", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// scan type-checks every listed package variant from source. Each file
// is parsed once, so a declaration has one position in every variant
// that compiles it, and uses are collected by that position.
type scan struct {
	fset    *token.FileSet
	std     types.Importer
	listed  map[string]*listedPackage
	checked map[string]*types.Package // nil while a check is in progress
	files   map[string]*ast.File

	declared   map[token.Pos]*types.Func // in non-test files
	used       map[token.Pos]bool
	interfaces map[*types.Interface]bool
	scopes     map[*types.Package]bool // packages whose interfaces are recorded
}

func (sc *scan) check(path string) (*types.Package, error) {
	if tp, ok := sc.checked[path]; ok {
		if tp == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return tp, nil
	}
	sc.checked[path] = nil
	p := sc.listed[path]
	var files []*ast.File
	for _, name := range p.GoFiles {
		filename := filepath.Join(p.Dir, name)
		f, ok := sc.files[filename]
		if !ok {
			var err error
			if f, err = parser.ParseFile(sc.fset, filename, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			sc.files[filename] = f
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var typeErr error
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if v, ok := p.ImportMap[imp]; ok {
				imp = v
			}
			if _, ok := sc.listed[imp]; ok {
				return sc.check(imp)
			}
			return sc.std.Import(imp)
		}),
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tp, _ := conf.Check(strings.Fields(path)[0], sc.fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, typeErr)
	}
	sc.checked[path] = tp

	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			sc.used[fn.Origin().Pos()] = true
		}
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok {
			sc.interfaces[iface] = true
		}
	}
	sc.addScopeInterfaces(tp)
	for _, f := range files {
		if strings.HasSuffix(sc.fset.File(f.Pos()).Name(), "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && tp.Name() == "main") {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				sc.declared[fn.Pos()] = fn
			}
		}
	}
	return tp, nil
}

// addScopeInterfaces records the non-generic named interfaces declared
// at package level in pkg and in everything it imports.
func (sc *scan) addScopeInterfaces(pkg *types.Package) {
	if sc.scopes[pkg] {
		return
	}
	sc.scopes[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				sc.interfaces[iface] = true
			}
		}
	}
	for _, imp := range pkg.Imports() {
		sc.addScopeInterfaces(imp)
	}
}

// exempt reports whether fn is a method whose receiver implements a
// recorded interface that has a method of fn's name.
func (sc *scan) exempt(fn *types.Func) bool {
	named := receiver(fn)
	if named == nil || named.TypeParams() != nil {
		return false
	}
	ptr := types.NewPointer(named) // its method set holds both receiver kinds
	for iface := range sc.interfaces {
		if !iface.IsMethodSet() {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if m := iface.Method(i); m.Id() == fn.Id() && types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

// receiver returns the named receiver type of a method, nil for a
// function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// funcName renders fn as pkg.Func or pkg.Type.Method.
func funcName(fn *types.Func) string {
	if named := receiver(fn); named != nil {
		return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), named.Obj().Name(), fn.Name())
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
