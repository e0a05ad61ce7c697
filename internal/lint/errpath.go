package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// ErrPath is the path-sensitive upgrade of droppederr: an error value
// assigned from a call must, on every subsequent path, be examined
// (compared, passed along, wrapped via tecerr, returned) before the
// function exits or the variable is overwritten. The syntactic
// droppederr only sees errors discarded at the assignment itself
// (`_ =` or statement position); errpath catches the branch-shaped
// drops —
//
//	err := refine(sys)
//	if fast {
//		return coarse(sys) // err from refine never consulted
//	}
//	return err
//
// — which are invisible statement by statement and exactly the shape
// that silently degrades Table I numbers (a skipped refinement error
// means the coarse value is reported as refined).
//
// To stay precise the analysis is deliberately narrow: it tracks only
// error-typed local variables assigned directly from a call, and it
// abandons any variable that is read or written inside a nested
// function literal (defer/closure error latching is a supported idiom,
// not a drop). Intentional discards take a
// `teclint:ignore errpath <reason>` on the assignment line.
var ErrPath = &Analyzer{
	Name: "errpath",
	Doc:  "an error assigned from a call must be checked, returned, or wrapped on every path before exit or overwrite",
	Run:  runErrPath,
}

func runErrPath(pass *Pass) {
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		a := &epAnalysis{pass: pass, body: body, excluded: closureReferencedObjs(pass, body)}
		g := BuildCFG(body, pass.Terminates)
		res := RunForward(g, a)
		reportErrPath(pass, a, g, res)
	})
}

// closureReferencedObjs collects every object referenced inside a
// nested function literal: such variables live beyond straight-line
// flow (deferred error latching, goroutine writes) and are excluded
// from tracking.
func closureReferencedObjs(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
			return true
		})
		return true
	})
	return out
}

// epState maps a tracked error variable to the position of its still
// unconsumed assignment.
type epState map[types.Object]token.Pos

type epAnalysis struct {
	pass *Pass
	// body is the block under analysis; only error variables declared
	// inside it are tracked. Writes to free variables (captured by a
	// closure from an enclosing function) and to named error results
	// (declared in the signature, implicitly read by a bare return)
	// escape this body's flow and must not be reported against it.
	body     *ast.BlockStmt
	excluded map[types.Object]bool
}

// tracks reports whether obj is an error variable this body owns.
func (a *epAnalysis) tracks(obj types.Object) bool {
	return obj.Pos() >= a.body.Pos() && obj.Pos() <= a.body.End() && !a.excluded[obj]
}

func (a *epAnalysis) Entry() FlowState { return epState{} }

func (a *epAnalysis) Equal(x, y FlowState) bool { return maps.Equal(x.(epState), y.(epState)) }

// Join unions pending assignments: an error unconsumed on either
// incoming path is still unconsumed. When the same variable is pending
// from two different assignments, the earlier position wins so
// diagnostics are deterministic.
func (a *epAnalysis) Join(x, y FlowState) FlowState {
	sx, sy := x.(epState), y.(epState)
	out := make(epState, len(sx)+len(sy))
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

func (a *epAnalysis) Transfer(n ast.Node, in FlowState) FlowState {
	st := in.(epState)
	out := st
	cloned := false
	ensure := func() epState {
		if !cloned {
			out, cloned = maps.Clone(st), true
		}
		return out
	}

	// Reads consume: any use of the variable outside an assignment
	// target means the error was examined or handed off.
	for _, obj := range errReads(a.pass, n) {
		if _, ok := out[obj]; ok {
			delete(ensure(), obj)
		}
	}
	// Error-precedence exits discharge everything pending: a return
	// that carries some other non-nil error value (`return nil, ctxErr`
	// while err holds a stale solver error — cancellation wins), or a
	// terminating call (`fatal(err)`, panic, os.Exit), is not a silent
	// success. The rule only polices paths that report success with an
	// error still unexamined.
	if len(out) > 0 && exitsWithError(a.pass, n) {
		st = epState{}
		out, cloned = st, false
	}
	// Writes (re)arm: an assignment from a call makes the variable
	// pending; any other assignment clears it (the overwrite itself is
	// reported by the reporting pass against the pre-state).
	for _, wr := range errWrites(a.pass, n) {
		if !a.tracks(wr.obj) {
			continue
		}
		if wr.fromCall {
			ensure()[wr.obj] = wr.pos
		} else if _, ok := out[wr.obj]; ok {
			delete(ensure(), wr.obj)
		}
	}
	if cloned {
		return out
	}
	return st
}

// exitsWithError reports whether node n leaves the function loudly: a
// return statement with a non-nil error-typed result, or a call that
// never returns (the CFG gives such nodes an edge straight to Exit).
func exitsWithError(pass *Pass, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			t := pass.TypeOf(res)
			if t == nil {
				continue
			}
			if isErrorType(t) {
				return true
			}
			if tup, ok := t.(*types.Tuple); ok { // return f() forwarding (T, error)
				for i := 0; i < tup.Len(); i++ {
					if isErrorType(tup.At(i).Type()) {
						return true
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			return pass.Terminates(call)
		}
	}
	return false
}

type errWrite struct {
	obj      types.Object
	pos      token.Pos
	fromCall bool
}

// errWrites lists the error-typed variables assigned by node n.
func errWrites(pass *Pass, n ast.Node) []errWrite {
	var out []errWrite
	add := func(lhs ast.Expr, fromCall bool) {
		obj := assignedObj(pass, lhs)
		if obj != nil && isErrorType(obj.Type()) {
			out = append(out, errWrite{obj: obj, pos: lhs.Pos(), fromCall: fromCall})
		}
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
			_, isCall := s.Rhs[0].(*ast.CallExpr)
			for _, lhs := range s.Lhs {
				add(lhs, isCall)
			}
			return out
		}
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			_, isCall := s.Rhs[i].(*ast.CallExpr)
			add(lhs, isCall)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			if len(vs.Names) > 1 && len(vs.Values) == 1 {
				_, isCall := vs.Values[0].(*ast.CallExpr)
				for _, name := range vs.Names {
					add(name, isCall)
				}
				continue
			}
			for i, name := range vs.Names {
				if i >= len(vs.Values) {
					break
				}
				_, isCall := vs.Values[i].(*ast.CallExpr)
				add(name, isCall)
			}
		}
	}
	return out
}

// errReads lists error-typed variable uses in n, excluding assignment
// targets and anything inside nested function literals.
func errReads(pass *Pass, n ast.Node) []types.Object {
	writes := make(map[*ast.Ident]bool)
	if s, ok := n.(*ast.AssignStmt); ok {
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				writes[id] = true
			}
		}
	}
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if writes[n] {
				return true
			}
			if obj := pass.Info.Uses[n]; obj != nil && isErrorType(obj.Type()) {
				out = append(out, obj)
			}
		}
		return true
	})
	return out
}

// reportErrPath flags (1) pending errors overwritten before any use
// and (2) pending errors alive at function exit. Both anchor the
// diagnostic at the original assignment: that is the statement whose
// result can silently vanish.
func reportErrPath(pass *Pass, a *epAnalysis, g *CFG, res *FlowResult) {
	reported := make(map[token.Pos]bool)
	report := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, b := range g.Blocks {
		stIn, ok := res.In[b]
		if !ok {
			continue
		}
		st := stIn
		for _, n := range b.Nodes {
			cur := st.(epState)
			for _, wr := range errWrites(pass, n) {
				pendingAt, pending := cur[wr.obj]
				if pending && pendingAt != wr.pos && !readsBeforeWrite(pass, n, wr.obj) {
					report(pendingAt, "error assigned to %s may be overwritten at line %d before being checked on some path; check it, or discard with a teclint:ignore errpath directive", wr.obj.Name(), pass.Fset.Position(wr.pos).Line)
				}
			}
			st = a.Transfer(n, st)
		}
	}
	if exit, ok := res.In[g.Exit]; ok {
		for obj, pos := range exit.(epState) {
			report(pos, "error assigned to %s is not checked, returned, or wrapped on every path to return; handle it on each path or discard with a teclint:ignore errpath directive", obj.Name())
		}
	}
}

// readsBeforeWrite reports whether node n reads obj (outside its own
// assignment targets), e.g. `err = wrap(err)` consumes the pending
// value in the same statement that overwrites it.
func readsBeforeWrite(pass *Pass, n ast.Node, obj types.Object) bool {
	for _, r := range errReads(pass, n) {
		if r == obj {
			return true
		}
	}
	return false
}
