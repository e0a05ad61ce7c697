package lint

import (
	"go/ast"
	"go/types"
)

// LockCopy flags expressions that copy a struct containing a sync lock
// by value: assignments from an existing value, by-value call
// arguments, by-value returns, and range-over-slice value variables. A
// copied sync.Mutex (or a struct embedding one, like the engine's
// KeyedCache) is a new, unlocked lock that no longer guards the state
// it was copied from — the classic silent way to unprotect a cache or
// a wait group. Creating a fresh value via a
// composite literal is fine; only copies of existing values are
// flagged. Suppress with "teclint:ignore lockcopy <reason>" when the
// copy provably happens before the value is ever shared.
var LockCopy = &Analyzer{
	Name: "lockcopy",
	Doc:  "flags by-value copies of structs containing sync.Mutex, RWMutex, WaitGroup, Once, Cond, Map or Pool",
	Run:  runLockCopy,
}

func runLockCopy(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range st.Rhs {
					// `_ = x` evaluates and discards: no live copy escapes.
					if len(st.Lhs) == len(st.Rhs) {
						if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					if lock := copiedLock(pass, rhs); lock != "" {
						pass.Reportf(rhs.Pos(), "assignment copies %s containing %s by value; use a pointer", typeName(pass, rhs), lock)
					}
				}
			case *ast.CallExpr:
				for _, arg := range st.Args {
					if lock := copiedLock(pass, arg); lock != "" {
						pass.Reportf(arg.Pos(), "call passes %s containing %s by value; pass a pointer", typeName(pass, arg), lock)
					}
				}
			case *ast.ReturnStmt:
				for _, res := range st.Results {
					if lock := copiedLock(pass, res); lock != "" {
						pass.Reportf(res.Pos(), "return copies %s containing %s by value; return a pointer", typeName(pass, res), lock)
					}
				}
			case *ast.RangeStmt:
				if st.Value == nil {
					break
				}
				if lock := lockInType(pass.TypeOf(st.Value)); lock != "" {
					pass.Reportf(st.Value.Pos(), "range value copies %s containing %s per iteration; range over indices or pointers", typeName(pass, st.Value), lock)
				}
			}
			return true
		})
	}
}

// copiedLock reports the sync type inside expr's type when expr reads
// an EXISTING value — an identifier, field, element, or dereference.
// Composite literals, calls, and address-of expressions create or
// reference values rather than copying a live lock here, so they pass.
func copiedLock(pass *Pass, expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		return lockInType(pass.TypeOf(expr))
	case *ast.ParenExpr:
		return copiedLock(pass, e.X)
	}
	return ""
}

// syncLockNames are the sync types that must never be copied after
// first use (each either is a lock or embeds one).
var syncLockNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true, "Pool": true,
}

// lockInType walks t's value-embedded structure (struct fields and
// array elements; never pointers, slices, maps or interfaces, which
// share rather than copy) and returns the first sync lock type found,
// or "". A seen-set guards against recursive named types.
func lockInType(t types.Type) string {
	return lockWalk(t, make(map[types.Type]bool))
}

func lockWalk(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if pkg := obj.Pkg(); pkg != nil && pkg.Path() == "sync" && syncLockNames[obj.Name()] {
			return "sync." + obj.Name()
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lock := lockWalk(u.Field(i).Type(), seen); lock != "" {
				return lock
			}
		}
	case *types.Array:
		return lockWalk(u.Elem(), seen)
	}
	return ""
}

// typeName renders expr's type for diagnostics, qualified relative to
// the package under analysis.
func typeName(pass *Pass, expr ast.Expr) string {
	t := pass.TypeOf(expr)
	if t == nil {
		return "value"
	}
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}
