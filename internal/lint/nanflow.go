package lint

// nanflow is the interprocedural NaN/Inf taint analysis. The solver's
// conditioning-sensitive spots — matrix assembly and factorizations —
// silently absorb a NaN and emit plausible
// wrong temperatures, so any value that *can* be NaN or ±Inf must be
// checked before it reaches them. Sources are the standard producers
// (math.Sqrt, Log family, Asin/Acos, math.NaN/Inf — division is
// deliberately excluded as hopelessly noisy in solver code) plus any
// module function whose bottom-up summary says CanNaN (RunawayLimit
// returning +Inf for an unconditionally stable array is the canonical
// case). Sinks are matrix-entry and factorization entry points
// (Factor, SolveAt, Matrix, AddScaledDiag, sparse Builder.Add/AddSym)
// and cache-key composite literals. Sanitizers are the sanctioned
// checks math.IsNaN/math.IsInf/num.IsFinite; passing a tainted value
// to any non-sink call also stops tracking it (the callee may guard
// on the caller's behalf), mirroring validatefirst's escape policy.
//
// The analysis is path-sensitive over the CFG: a value checked on
// every path to the sink is clean, one checked on only some paths is
// still reported.

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

var NaNFlow = &Analyzer{
	Name: "nanflow",
	Doc:  "values that can be NaN/Inf (math.Sqrt/Log, CanNaN callees per function summary) must pass math.IsNaN/IsInf or num.IsFinite before flowing into matrix entries, factorizations, or cache keys",
	Run:  runNaNFlow,
}

func runNaNFlow(pass *Pass) {
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		a := &nanAnalysis{pass: pass}
		g := BuildCFG(body, pass.Terminates)
		res := RunForward(g, a)
		reportNaNFlow(pass, a, g, res)
	})
}

// nanFact records where a possibly-NaN value came from, for the
// diagnostic.
type nanFact struct {
	origin token.Pos
	desc   string // "math.Sqrt", "RunawayLimit result"
}

// nanState maps tainted locals to their origin. Immutable; transfer
// clones before modifying.
type nanState map[types.Object]nanFact

type nanAnalysis struct{ pass *Pass }

func (a *nanAnalysis) Entry() FlowState { return nanState{} }

func (a *nanAnalysis) Equal(x, y FlowState) bool { return maps.Equal(x.(nanState), y.(nanState)) }

// Join unions taint: a value unchecked on either incoming path is
// still dangerous.
func (a *nanAnalysis) Join(x, y FlowState) FlowState {
	sx, sy := x.(nanState), y.(nanState)
	out := make(nanState, len(sx)+len(sy))
	for k, v := range sx {
		out[k] = v
	}
	for k, v := range sy {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

func (a *nanAnalysis) Transfer(n ast.Node, in FlowState) FlowState {
	st := in.(nanState)
	out := st
	cloned := false
	ensure := func() nanState {
		if !cloned {
			out, cloned = maps.Clone(st), true
		}
		return out
	}

	// Pass 1: calls. A guard call clears its argument; a non-sink,
	// non-source call that receives a tainted variable stops tracking
	// it (the callee may guard it for us). Sink calls never clear —
	// the reporting pass flags them.
	eachShallowCall(n, func(call *ast.CallExpr) {
		if arg, ok := isNaNGuardCall(call); ok {
			if obj := usedIdent(a.pass, arg); obj != nil {
				if _, tracked := out[obj]; tracked {
					delete(ensure(), obj)
				}
			}
			return
		}
		if isNaNSink(a.pass, call) || isMathSource(a.pass.Info, call) {
			return
		}
		for _, obj := range sinkOperands(a.pass, call) {
			if _, tracked := out[obj]; tracked {
				delete(ensure(), obj)
			}
		}
	})

	// Pass 2: assignments create, propagate, and kill taint.
	switch s := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			obj := assignedObj(a.pass, lhs)
			if obj == nil {
				continue
			}
			if fact, tainted := a.exprTaint(s.Rhs[i], out); tainted {
				ensure()[obj] = fact
			} else if _, tracked := out[obj]; tracked {
				delete(ensure(), obj)
			}
		}
		// Multi-value form x, err := f(): taint every float result of
		// a CanNaN callee.
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if fact, tainted := a.callTaint(call, out); tainted {
					for _, lhs := range s.Lhs {
						obj := assignedObj(a.pass, lhs)
						if obj != nil && isFloat(obj.Type()) {
							ensure()[obj] = fact
						}
					}
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if obj := assignedObj(a.pass, e); obj != nil {
				if _, tracked := out[obj]; tracked {
					delete(ensure(), obj)
				}
			}
		}
	}
	if cloned {
		return out
	}
	return st
}

// exprTaint reports whether e can be NaN/Inf under the current state,
// with the originating fact.
func (a *nanAnalysis) exprTaint(e ast.Expr, st nanState) (nanFact, bool) {
	var fact nanFact
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if obj := a.pass.Info.Uses[n]; obj != nil {
				if f, tainted := st[obj]; tainted {
					fact, found = f, true
				}
			}
		case *ast.CallExpr:
			if f, tainted := a.callTaint(n, st); tainted {
				fact, found = f, true
				return false
			}
		}
		return true
	})
	return fact, found
}

// callTaint classifies a call as a NaN/Inf source: a std math
// producer or a module callee whose summary says CanNaN.
func (a *nanAnalysis) callTaint(call *ast.CallExpr, _ nanState) (nanFact, bool) {
	if isMathSource(a.pass.Info, call) {
		return nanFact{origin: call.Pos(), desc: "math." + calleeName(call)}, true
	}
	if callee := staticCallee(a.pass.Info, call); callee != nil {
		if s := a.pass.Facts.Summary(callee); s != nil && s.CanNaN {
			return nanFact{origin: call.Pos(), desc: callee.Name() + " result"}, true
		}
	}
	return nanFact{}, false
}

// nanSinkNames are the method/function names guarding matrix entries
// and factorizations. Add/AddSym are restricted to sparse-builder
// receivers below.
var nanSinkNames = map[string]bool{
	"Factor": true, "SolveAt": true, "Matrix": true, "AddScaledDiag": true,
}

// isNaNSink reports whether the call is a NaN-sensitive entry point.
func isNaNSink(pass *Pass, call *ast.CallExpr) bool {
	name := calleeName(call)
	if nanSinkNames[name] {
		return true
	}
	if name != "Add" && name != "AddSym" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named, ok := derefType(t).(*types.Named)
	return ok && named.Obj().Name() == "Builder"
}

// isCacheKeyLit reports whether the composite literal builds a cache
// key (a struct type named Key).
func isCacheKeyLit(pass *Pass, lit *ast.CompositeLit) bool {
	t := pass.TypeOf(lit)
	if t == nil {
		return false
	}
	named, ok := derefType(t).(*types.Named)
	return ok && named.Obj().Name() == "Key"
}

// reportNaNFlow replays reachable blocks against the fixpoint and
// flags tainted values reaching sinks.
func reportNaNFlow(pass *Pass, a *nanAnalysis, g *CFG, res *FlowResult) {
	seen := make(map[token.Pos]bool)
	report := func(pos token.Pos, fact nanFact, sink string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		origin := pass.Fset.Position(fact.origin)
		pass.Reportf(pos, "possible NaN/Inf from %s (line %d) reaches %s; check with math.IsNaN/math.IsInf or num.IsFinite first", fact.desc, origin.Line, sink)
	}
	for _, b := range g.Blocks {
		stIn, ok := res.In[b]
		if !ok {
			continue
		}
		st := stIn
		for _, n := range b.Nodes {
			cur := st.(nanState)
			ast.Inspect(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.CallExpr:
					if !isNaNSink(pass, x) {
						return true
					}
					for _, arg := range x.Args {
						if fact, tainted := a.exprTaint(arg, cur); tainted {
							report(x.Pos(), fact, calleeName(x)+" call")
						}
					}
				case *ast.CompositeLit:
					if !isCacheKeyLit(pass, x) {
						return true
					}
					for _, elt := range x.Elts {
						e := elt
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							e = kv.Value
						}
						if fact, tainted := a.exprTaint(e, cur); tainted {
							report(x.Pos(), fact, "cache key")
						}
					}
				}
				return true
			})
			st = a.Transfer(n, st)
		}
	}
}

// usedIdent resolves e (possibly parenthesized) to a used variable.
func usedIdent(pass *Pass, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.Info.Uses[id]
}
