package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockBalance verifies that every sync.Mutex.Lock / sync.RWMutex.Lock /
// RLock acquired in a function body is released on every path to
// function exit — either by a matching Unlock/RUnlock reachable on each
// path, or by a deferred release (`defer mu.Unlock()`, including
// releases inside a deferred function literal). The service's system
// cache and the metrics registry both take locks on hot paths; a
// branch that returns early while holding one deadlocks the next
// request rather than failing loudly.
//
// Mutexes are identified textually by their receiver expression
// (types.ExprString), which is exact for the repository's idioms
// (`mu`, `c.mu`, `r.mu`) and conservative otherwise: two spellings of
// the same mutex are tracked separately, so a release through an alias
// is not credited. Such code can carry a
// `teclint:ignore lockbalance <reason>` directive. TryLock is ignored
// (its acquisition is conditional by design), and lock operations
// inside nested function literals are analyzed with their own body.
var LockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "a Lock/RLock must be released by Unlock/RUnlock or a defer on every path to function exit",
	Run:  runLockBalance,
}

func runLockBalance(pass *Pass) {
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		a := &lbAnalysis{pass: pass, deferred: deferredReleases(pass, body)}
		g := BuildCFG(body, pass.Terminates)
		res := RunForward(g, a)
		if exit, ok := res.In[g.Exit]; ok {
			for key, pos := range exit.(lbState) {
				pass.Reportf(pos, "%s acquired here is not released on every path to return; add a matching %s (or defer it)", key.desc(), key.release())
			}
		}
	})
}

// lbKey identifies one acquisition: the receiver expression's source
// text plus whether it was a read lock. Lock and RLock on the same
// mutex are separate obligations with distinct releases.
type lbKey struct {
	recv string
	read bool
}

func (k lbKey) desc() string {
	if k.read {
		return k.recv + ".RLock()"
	}
	return k.recv + ".Lock()"
}

func (k lbKey) release() string {
	if k.read {
		return k.recv + ".RUnlock()"
	}
	return k.recv + ".Unlock()"
}

// lbState maps held acquisitions to the position of the acquiring call.
type lbState map[lbKey]token.Pos

type lbAnalysis struct {
	pass *Pass
	// deferred holds the keys released by defer statements anywhere in
	// the body; acquisitions of those keys are never considered held at
	// exit. Tracking defers flow-insensitively is sound enough here: a
	// defer that textually follows the Lock is the universal idiom, and
	// treating a defer on a never-taken path as a release costs at most
	// a false negative, never a false positive.
	deferred map[lbKey]bool
}

func (a *lbAnalysis) Entry() FlowState { return lbState{} }

func (a *lbAnalysis) Equal(x, y FlowState) bool {
	sx, sy := x.(lbState), y.(lbState)
	if len(sx) != len(sy) {
		return false
	}
	for k, v := range sx {
		if w, ok := sy[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// Join unions held locks: held on either incoming path means possibly
// held, which is what "not released on every path" asks about. The
// earlier acquisition position wins for determinism.
func (a *lbAnalysis) Join(x, y FlowState) FlowState {
	sx, sy := x.(lbState), y.(lbState)
	out := make(lbState, len(sx)+len(sy))
	for k, v := range sx {
		out[k] = v
	}
	for k, v := range sy {
		if w, ok := out[k]; !ok || v < w {
			out[k] = v
		}
	}
	return out
}

func (a *lbAnalysis) Transfer(n ast.Node, in FlowState) FlowState {
	ops := lockOps(a.pass, n)
	if len(ops) == 0 {
		return in
	}
	st := in.(lbState)
	out := make(lbState, len(st)+1)
	for k, v := range st {
		out[k] = v
	}
	for _, op := range ops {
		if op.acquire {
			if !a.deferred[op.key] {
				out[op.key] = op.pos
			}
		} else {
			delete(out, op.key)
		}
	}
	return out
}

type lockOp struct {
	key     lbKey
	pos     token.Pos
	acquire bool
}

// lockOps extracts the sync lock/unlock calls performed directly by
// node n (not inside nested function literals, and not inside defer
// statements — deferred releases are collected separately).
func lockOps(pass *Pass, n ast.Node) []lockOp {
	if _, ok := n.(*ast.DeferStmt); ok {
		return nil
	}
	var out []lockOp
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if op, ok := syncLockOp(pass, n); ok {
				out = append(out, op)
			}
		}
		return true
	})
	return out
}

// syncLockOp decodes a call as a sync mutex operation. TryLock and
// TryRLock are skipped: their acquisition is conditional, and the
// repository convention is to release them inside the guarded branch.
func syncLockOp(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	recv := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock":
		return lockOp{key: lbKey{recv: recv}, pos: call.Pos(), acquire: true}, true
	case "Unlock":
		return lockOp{key: lbKey{recv: recv}}, true
	case "RLock":
		return lockOp{key: lbKey{recv: recv, read: true}, pos: call.Pos(), acquire: true}, true
	case "RUnlock":
		return lockOp{key: lbKey{recv: recv, read: true}}, true
	}
	return lockOp{}, false
}

// deferredReleases collects the lock keys released by defer statements
// in the body: both `defer mu.Unlock()` and releases inside a deferred
// function literal (`defer func() { ...; mu.Unlock() }()`). Defers
// inside nested function literals belong to that literal's body and
// are skipped here.
func deferredReleases(pass *Pass, body *ast.BlockStmt) map[lbKey]bool {
	out := make(map[lbKey]bool)
	record := func(call *ast.CallExpr) {
		if op, ok := syncLockOp(pass, call); ok && !op.acquire {
			out[op.key] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					if call, ok := n.(*ast.CallExpr); ok {
						record(call)
					}
					return true
				})
				return false
			}
			record(n.Call)
			return false
		}
		return true
	})
	return out
}
