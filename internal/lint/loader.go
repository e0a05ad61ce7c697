package lint

import (
	"fmt"
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
	"sync"
)

// Unit is one type-checked analysis unit: either a package together
// with its in-package _test.go files, or an external "_test" package.
type Unit struct {
	Fset  *token.FileSet
	Dir   string
	Path  string // import path ("tecopt/internal/mat", or ".../mat_test")
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the loader's cross-package fact store, shared by every
	// unit the loader produced.
	Facts *FactStore
}

// FactStore accumulates facts derived across every package the loader
// type-checks — including module-internal packages loaded only as
// imports — so the path-sensitive analyzers can reason about callees
// outside the unit under analysis. It is deliberately lightweight:
// facts are computed from syntax and types already in hand, never by
// re-analyzing a package.
//
// Facts recorded:
//
//   - no-return functions: a function whose body cannot complete
//     normally (ends in panic, os.Exit, log.Fatal*, an empty select,
//     or a call to another no-return function, with no reachable
//     return statement). The CFG builder uses these so code after
//     `fatal(err)` is not treated as a live path.
//   - Validate methods: whether a type's method set carries
//     `Validate() error` (cached; used by the validatefirst taint
//     analysis to decide which values need validation).
//
// All methods are safe on a nil receiver (returning zero values) and
// safe for concurrent use, since cmd/teclint analyzes units in
// parallel once loading completes.
type FactStore struct {
	mu        sync.Mutex
	noReturn  map[*types.Func]bool
	validate  map[types.Type]bool
	summaries map[*types.Func]*FuncSummary
}

// NewFactStore returns an empty fact store.
func NewFactStore() *FactStore {
	return &FactStore{
		noReturn:  make(map[*types.Func]bool),
		validate:  make(map[types.Type]bool),
		summaries: make(map[*types.Func]*FuncSummary),
	}
}

// NoReturn reports whether fn was proved to never return.
func (f *FactStore) NoReturn(fn *types.Func) bool {
	if f == nil || fn == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.noReturn[fn]
}

// HasValidate reports whether t (or *t) has a Validate() error method.
func (f *FactStore) HasValidate(t types.Type) bool {
	if f == nil || t == nil {
		return false
	}
	f.mu.Lock()
	if v, ok := f.validate[t]; ok {
		f.mu.Unlock()
		return v
	}
	f.mu.Unlock()
	v := hasValidateMethod(t)
	f.mu.Lock()
	f.validate[t] = v
	f.mu.Unlock()
	return v
}

func hasValidateMethod(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			fn, ok := ms.At(i).Obj().(*types.Func)
			if !ok || fn.Name() != "Validate" {
				continue
			}
			sig, ok := fn.Type().(*types.Signature)
			if ok && sig.Params().Len() == 0 && sig.Results().Len() == 1 && isErrorType(sig.Results().At(0).Type()) {
				return true
			}
		}
	}
	return false
}

// CtxVariant returns the context-accepting sibling of fn — the
// function or method named fn.Name()+"Ctx" in the same scope (package
// scope for functions, the receiver's method set for methods) whose
// first parameter is a context.Context — or nil when none exists.
func (f *FactStore) CtxVariant(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	want := fn.Name() + "Ctx"
	var cand *types.Func
	if recv := sig.Recv(); recv != nil {
		ms := types.NewMethodSet(recv.Type())
		if sel := ms.Lookup(fn.Pkg(), want); sel != nil {
			cand, _ = sel.Obj().(*types.Func)
		}
	} else if fn.Pkg() != nil {
		cand, _ = fn.Pkg().Scope().Lookup(want).(*types.Func)
	}
	if cand == nil {
		return nil
	}
	csig, ok := cand.Type().(*types.Signature)
	if !ok || csig.Params().Len() == 0 || !isContextType(csig.Params().At(0).Type()) {
		return nil
	}
	return cand
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// recordNoReturns scans a type-checked package's declarations for
// functions that cannot return, iterating to a local fixpoint so
// helpers that call other no-return helpers are found regardless of
// declaration order.
func (f *FactStore) recordNoReturns(info *types.Info, files []*ast.File) {
	if f == nil {
		return
	}
	for {
		added := false
		for _, file := range files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := info.Defs[fd.Name].(*types.Func)
				if !ok || f.NoReturn(obj) {
					continue
				}
				if f.bodyNeverReturns(info, fd.Body) {
					f.mu.Lock()
					f.noReturn[obj] = true
					f.mu.Unlock()
					added = true
				}
			}
		}
		if !added {
			return
		}
	}
}

// bodyNeverReturns is a conservative syntactic check: the body must
// contain no return statement (outside nested function literals) and
// its final statement must be a terminating call or an empty select.
func (f *FactStore) bodyNeverReturns(info *types.Info, body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	hasReturn := false
	for _, st := range body.List {
		ast.Inspect(st, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				hasReturn = true
			}
			return !hasReturn
		})
	}
	if hasReturn {
		return false
	}
	switch last := body.List[len(body.List)-1].(type) {
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		return ok && f.callNeverReturns(info, call)
	case *ast.SelectStmt:
		return len(last.Body.List) == 0
	}
	return false
}

func (f *FactStore) callNeverReturns(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			obj, ok := info.Uses[fun]
			if !ok || obj == nil || obj == types.Universe.Lookup("panic") {
				return true
			}
		}
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return stdNoReturn(fn) || f.NoReturn(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return stdNoReturn(fn) || f.NoReturn(fn)
		}
	}
	return false
}

// Loader parses and type-checks packages of a single module using only
// the standard library. Imports within the module are resolved by
// mapping the import path onto the module directory tree; standard
// library imports are type-checked from GOROOT source via go/importer.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std     types.Importer
	cache   map[string]*types.Package
	loading map[string]bool
	facts   *FactStore
}

// Facts exposes the loader's cross-package fact store.
func (l *Loader) Facts() *FactStore { return l.facts }

// NewLoader creates a loader rooted at moduleRoot, reading the module
// path from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleRoot: moduleRoot,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*types.Package),
		loading:    make(map[string]bool),
		facts:      NewFactStore(),
	}, nil
}

// FindModuleRoot walks up from dir looking for a go.mod file.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import resolves an import path for the type checker: module-internal
// paths load from the module tree (non-test files only), everything
// else defers to the GOROOT source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importModulePackage(path)
	}
	return l.std.Import(path)
}

func (l *Loader) importModulePackage(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.ModuleRoot
	if path != l.ModulePath {
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s for import %q", dir, path)
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// Load parses and type-checks the package in dir for analysis. It
// returns one unit for the package including its in-package test files
// and, if present, a second unit for the external _test package.
func (l *Loader) Load(dir string) ([]*Unit, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	all, err := l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}
	path := l.importPathFor(dir)

	// Split into the base package (plus in-package tests) and the
	// external test package, by package clause.
	var base, xtest []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			base = append(base, f)
		}
	}

	var units []*Unit
	if len(base) > 0 {
		pkg, info, err := l.check(path, base)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		units = append(units, &Unit{Fset: l.Fset, Dir: dir, Path: path, Files: base, Pkg: pkg, Info: info, Facts: l.facts})
	}
	if len(xtest) > 0 {
		xpath := path + "_test"
		pkg, info, err := l.check(xpath, xtest)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", xpath, err)
		}
		units = append(units, &Unit{Fset: l.Fset, Dir: dir, Path: xpath, Files: xtest, Pkg: pkg, Info: info, Facts: l.facts})
	}
	return units, nil
}

func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !keep(name) {
			continue
		}
		// Respect build constraints (//go:build tags, GOOS/GOARCH file
		// suffixes) for the default build configuration, so that e.g.
		// race-only and non-race variants of a file are never loaded
		// into the same package.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	// Harvest cross-package facts from every package that passes
	// through the checker, imports included, so analyzers see e.g.
	// no-return helpers defined in other module packages.
	l.facts.recordNoReturns(info, files)
	// Function summaries ride the same hook: imports are checked before
	// importers, so cross-package summaries are final (bottom-up) by the
	// time a caller package is summarized. Within a package, SCC order
	// provides the same guarantee (see summary.go).
	l.facts.recordSummaries(info, files)
	return pkg, info, nil
}

// PackageDirs returns every directory under root containing Go source,
// skipping testdata, hidden, and VCS directories. Paths are returned in
// sorted order for deterministic runs.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == ".git" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
