package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// obsImportPath is the observability package whose registry clock
// instrumented code must use instead of the wall clock.
const obsImportPath = "tecopt/internal/obs"

// ObsClock flags direct wall-clock reads — time.Now() and
// time.Since() — inside instrumented packages, i.e. non-main packages
// that import tecopt/internal/obs. Instrumented code must time itself
// on the registry's injected monotonic clock (obs.Registry.Now,
// StartSpanCtx, ObserveSince): that is what keeps span timings coherent
// with each other and lets tests drive time deterministically through
// a ManualClock. A stray time.Now() in a hot path silently mixes two
// clocks in one trace. Test files are exempt (they may measure real
// time) and do not make a package instrumented — only obs imports in
// non-test files count, so a package whose tests exercise obs keeps
// wall-clock freedom in production code it never instruments. Main
// packages are exempt too (flag parsing and progress output
// legitimately use the wall clock), as is the obs package itself,
// which implements the wall clock.
var ObsClock = &Analyzer{
	Name: "obsclock",
	Doc:  "flags time.Now/time.Since in non-main packages that import tecopt/internal/obs (use the registry clock)",
	Run:  runObsClock,
}

func runObsClock(pass *Pass) {
	if pass.Pkg == nil || pass.Pkg.Name() == "main" {
		return
	}
	instrumented := false
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) == obsImportPath {
				instrumented = true
			}
		}
	}
	if !instrumented {
		return
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Now" && sel.Sel.Name != "Since") {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[ident].(*types.PkgName)
			if !ok || pkgName.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(call.Pos(), "time.%s in an instrumented package; use the obs registry clock (r.Now, StartSpanCtx, ObserveSince) so timings stay on one monotonic clock", sel.Sel.Name)
			return true
		})
	}
}
