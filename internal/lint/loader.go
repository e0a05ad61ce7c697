package lint

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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Unit is one type-checked analysis unit: either a package together
// with its in-package _test.go files, or an external "_test" package.
type Unit struct {
	Fset  *token.FileSet
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
// safe for concurrent use.
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

// Loader type-checks the packages that the go command lists. One
// `go list -e -deps -test -json` run names the packages, their
// directories, their files after build constraints and every import
// they reach. Each package outside the standard library is checked
// from source, imports before importers, so the fact store sees every
// one of them; the standard library is read from the compiler export
// data that the go command keeps in its build cache.
type Loader struct {
	Fset *token.FileSet

	listed  map[string]*listedPackage // by import path
	matched []*listedPackage          // what the patterns name, in listing order
	std     types.Importer
	cache   map[string]*types.Package
	facts   *FactStore
}

// listedPackage is the part of a `go list -json` record the loader
// reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	DepOnly      bool
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// NewLoader lists patterns with the go command, run in the current
// directory. A pattern is a package directory: dir/... names every
// package below dir, leaving out testdata and nested modules as the go
// command does, and a plain path names the package in that directory.
func NewLoader(patterns ...string) (*Loader, error) {
	args := []string{"list", "-e", "-deps", "-test", "-json=ImportPath,Dir,Standard,DepOnly,GoFiles,TestGoFiles,XTestGoFiles,Error", "--"}
	for _, p := range patterns {
		if !filepath.IsAbs(p) {
			p = "./" + p // a directory, never an import path
		}
		args = append(args, p)
	}
	pkgs, err := goList(args)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:   token.NewFileSet(),
		listed: make(map[string]*listedPackage),
		cache:  make(map[string]*types.Package),
		facts:  NewFactStore(),
	}
	var std []string
	for _, p := range pkgs {
		path, _, variant := strings.Cut(p.ImportPath, " ")
		switch {
		case strings.HasSuffix(path, ".test"):
			// A test main: generated, nothing to check.
		case variant:
			// "x [p.test]" repeats x for p's test binary; the loader
			// builds test units from the plain record. When only a
			// test of p imports x, the listing has no plain record of
			// x, and the variant, whose files are x's own, stands in.
			if l.listed[path] == nil {
				l.listed[path] = p
			}
		case p.Standard:
			l.listed[path] = p
			std = append(std, path)
		default:
			l.listed[path] = p
			if !p.DepOnly {
				l.matched = append(l.matched, p)
			}
		}
	}
	if len(l.matched) == 0 {
		return nil, fmt.Errorf("lint: no packages match %s", strings.Join(patterns, " "))
	}
	// Export data for the standard library only: asking for all of it
	// would also compile the module's packages, which are checked from
	// source anyway.
	if len(std) > 0 {
		exports, err := goList(append([]string{"list", "-e", "-export", "-json=ImportPath,Export", "--"}, std...))
		if err != nil {
			return nil, err
		}
		for _, p := range exports {
			if q := l.listed[p.ImportPath]; q != nil {
				q.Export = p.Export
			}
		}
	}
	l.std = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		if p := l.listed[path]; p != nil && p.Export != "" {
			return os.Open(p.Export)
		}
		return nil, fmt.Errorf("lint: no export data for %q", path)
	})
	return l, nil
}

// goList runs the go command with args and decodes the JSON package
// records it prints.
func goList(args []string) ([]*listedPackage, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("lint: reading go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// Import resolves an import for the type checker: the standard library
// from export data, any other listed package from its non-test source
// files, checked once.
func (l *Loader) Import(path string) (*types.Package, error) {
	p := l.listed[path]
	switch {
	case p == nil:
		return nil, fmt.Errorf("lint: %q is not in the package listing", path)
	case p.Standard:
		return l.std.Import(path)
	case p.Error != nil:
		return nil, errors.New(p.Error.Err)
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	files, err := l.parse(p.Dir, p.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// load type-checks one matched package for analysis: a unit of the
// package with its in-package _test.go files and, if the package has
// one, a unit of its external _test package, which is checked against
// the non-test package.
func (l *Loader) load(p *listedPackage) ([]*Unit, error) {
	if p.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
	}
	base := append(append([]string(nil), p.GoFiles...), p.TestGoFiles...)
	sort.Strings(base)
	var units []*Unit
	for _, u := range []struct {
		path  string
		names []string
	}{{p.ImportPath, base}, {p.ImportPath + "_test", p.XTestGoFiles}} {
		if len(u.names) == 0 {
			continue
		}
		files, err := l.parse(p.Dir, u.names)
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(u.path, files)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", u.path, err)
		}
		units = append(units, &Unit{Fset: l.Fset, Files: files, Pkg: pkg, Info: info, Facts: l.facts})
	}
	return units, nil
}

func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
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
