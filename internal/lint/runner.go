package lint

import (
	"path/filepath"
	"sort"
)

// LintPackages type-checks every package the loader's patterns name
// and runs the analyzers over each unit (package + in-package tests,
// plus any external _test package). Findings come back globally
// sorted by file:line:column:rule, with filenames rewritten relative
// to base (when non-empty) so output is stable regardless of where the
// tool runs from.
func LintPackages(loader *Loader, analyzers []*Analyzer, base string) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, p := range loader.matched {
		units, err := loader.load(p)
		if err != nil {
			return nil, err
		}
		for _, unit := range units {
			all = append(all, Run(unit, analyzers)...)
		}
	}
	if base != "" {
		for i := range all {
			if rel, err := filepath.Rel(base, all[i].Pos.Filename); err == nil {
				all[i].Pos.Filename = filepath.ToSlash(rel)
			}
		}
	}
	SortDiagnostics(all)
	return all, nil
}

// SortDiagnostics orders findings by file, line, column, then rule.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}
