package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// ValidateFirst is a path-sensitive taint analysis enforcing the
// validate-before-solve contract: a configuration value produced in a
// function — by a Load*/Parse* call (chipload.Load, flag-driven
// loaders) or by constructing a composite literal of a type carrying a
// Validate() error method — must reach a Validate() call on every
// path before it flows into a solver entry point (a Solve* function,
// RunawayLimit, or OptimizeCurrent). An
// unvalidated config does not crash the solver; it poisons every
// iteration of the optimize loop and skews Table I / Figure 6
// silently, which is exactly why the syntactic analyzers cannot be
// trusted to catch it: the bug is the *path* that skips Validate, not
// any single statement.
//
// The analysis is intraprocedural and deliberately conservative about
// escapes: passing a tracked value (or its address) to any non-sink
// call, or calling any method on it other than Validate, stops
// tracking it — the callee may validate on the caller's behalf (the
// way core.NewSystem validates its Config), and a lost true positive
// is better than a false alarm against sound code.
var ValidateFirst = &Analyzer{
	Name: "validatefirst",
	Doc:  "loaded/constructed configs must pass Validate() on every path before reaching Solve*/RunawayLimit/OptimizeCurrent",
	Run:  runValidateFirst,
}

func runValidateFirst(pass *Pass) {
	forEachFuncBody(pass, func(body *ast.BlockStmt) {
		a := &vfAnalysis{pass: pass}
		g := BuildCFG(body, pass.Terminates)
		res := RunForward(g, a)
		reportValidateFirst(pass, a, g, res)
	})
}

// forEachFuncBody invokes fn once per function body in the unit:
// every declared function and every function literal. Each body is
// analyzed as its own CFG; literals are opaque values to the enclosing
// function's graph.
func forEachFuncBody(pass *Pass, fn func(*ast.BlockStmt)) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
			case *ast.FuncLit:
				if n.Body != nil {
					fn(n.Body)
				}
			}
			return true
		})
	}
}

// vfFact is the per-variable taint state: where the value came from
// and whether Validate() has been called on every path so far.
type vfFact struct {
	validated bool
	origin    token.Pos
	desc      string // "chipload.Load call", "core.Config literal"
}

// vfState maps tracked local variables to their taint fact. Treated
// as immutable; transfer clones before modifying.
type vfState map[types.Object]vfFact

type vfAnalysis struct{ pass *Pass }

func (a *vfAnalysis) Entry() FlowState { return vfState{} }

func (a *vfAnalysis) Equal(x, y FlowState) bool { return maps.Equal(x.(vfState), y.(vfState)) }

// Join keeps a variable tainted when it is unvalidated on either
// path; a value validated on one path but untracked on the other is
// dropped (unknown provenance is not reported).
func (a *vfAnalysis) Join(x, y FlowState) FlowState {
	sx, sy := x.(vfState), y.(vfState)
	out := vfState{}
	for k, v := range sx {
		w, ok := sy[k]
		switch {
		case ok && v.validated && w.validated:
			out[k] = v
		case ok: // present in both, unvalidated somewhere
			if v.validated {
				v = w
			}
			v.validated = false
			out[k] = v
		case !v.validated: // one-sided taint survives
			out[k] = v
		}
	}
	for k, w := range sy {
		if _, ok := sx[k]; !ok && !w.validated {
			out[k] = w
		}
	}
	return out
}

func (a *vfAnalysis) Transfer(n ast.Node, in FlowState) FlowState {
	st := in.(vfState)
	out := st
	cloned := false
	ensure := func() vfState {
		if !cloned {
			out, cloned = maps.Clone(st), true
		}
		return out
	}

	// Pass 1: calls. x.Validate() sanitizes x; any other call that
	// receives a tracked variable (or its address, or a method call on
	// it) stops tracking it.
	eachShallowCall(n, func(call *ast.CallExpr) {
		if recv, ok := validateReceiver(a.pass, call); ok {
			if f, tracked := out[recv]; tracked {
				f.validated = true
				ensure()[recv] = f
			}
			return
		}
		for _, obj := range escapingVars(a.pass, call) {
			if _, tracked := out[obj]; tracked {
				delete(ensure(), obj)
			}
		}
	})

	// Pass 2: assignments create, propagate, and kill facts.
	switch s := n.(type) {
	case *ast.AssignStmt:
		a.transferAssign(s, ensure)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					a.transferVarSpec(vs, ensure)
				}
			}
		}
	case *ast.RangeStmt:
		// Per-iteration bindings have unknown provenance.
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if id, ok := e.(*ast.Ident); ok {
				if obj := a.pass.Info.Defs[id]; obj != nil {
					delete(ensure(), obj)
				} else if obj := a.pass.Info.Uses[id]; obj != nil {
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

func (a *vfAnalysis) transferAssign(s *ast.AssignStmt, ensure func() vfState) {
	// Multi-value call: x, err := Load(...) — facts attach positionally.
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		call, ok := s.Rhs[0].(*ast.CallExpr)
		for i, lhs := range s.Lhs {
			obj := assignedObj(a.pass, lhs)
			if obj == nil {
				continue
			}
			if ok {
				if fact, isSrc := a.callSourceFact(call, i); isSrc {
					ensure()[obj] = fact
					continue
				}
			}
			delete(ensure(), obj)
		}
		return
	}
	for i, lhs := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		obj := assignedObj(a.pass, lhs)
		if obj == nil {
			continue
		}
		if fact, isSrc := a.sourceFact(s.Rhs[i]); isSrc {
			ensure()[obj] = fact
			continue
		}
		// Plain copy of a tracked value propagates its fact.
		if id, ok := s.Rhs[i].(*ast.Ident); ok {
			if src := a.pass.Info.Uses[id]; src != nil {
				if f, tracked := ensure()[src]; tracked {
					ensure()[obj] = f
					continue
				}
			}
		}
		delete(ensure(), obj)
	}
}

func (a *vfAnalysis) transferVarSpec(vs *ast.ValueSpec, ensure func() vfState) {
	if len(vs.Names) > 1 && len(vs.Values) == 1 {
		if call, ok := vs.Values[0].(*ast.CallExpr); ok {
			for i, name := range vs.Names {
				obj := a.pass.Info.Defs[name]
				if obj == nil {
					continue
				}
				if fact, isSrc := a.callSourceFact(call, i); isSrc {
					ensure()[obj] = fact
				} else {
					delete(ensure(), obj)
				}
			}
			return
		}
	}
	for i, name := range vs.Names {
		if i >= len(vs.Values) {
			break
		}
		obj := a.pass.Info.Defs[name]
		if obj == nil {
			continue
		}
		if fact, isSrc := a.sourceFact(vs.Values[i]); isSrc {
			ensure()[obj] = fact
		} else {
			delete(ensure(), obj)
		}
	}
}

// sourceFact classifies an expression as a taint source: a Load*/
// Parse* call returning a validatable type, or a composite literal
// (optionally address-taken) of a validatable type.
func (a *vfAnalysis) sourceFact(e ast.Expr) (vfFact, bool) {
	switch e := e.(type) {
	case *ast.CallExpr:
		return a.callSourceFact(e, 0)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return a.sourceFact(e.X)
		}
	case *ast.CompositeLit:
		t := a.pass.TypeOf(e)
		if t != nil && a.pass.Facts.HasValidate(t) {
			return vfFact{origin: e.Pos(), desc: typeDesc(t) + " literal"}, true
		}
	}
	return vfFact{}, false
}

// callSourceFact reports whether result index i of the call is a
// taint source: the callee name starts with Load or Parse and the
// result type has a Validate() error method.
func (a *vfAnalysis) callSourceFact(call *ast.CallExpr, i int) (vfFact, bool) {
	name := calleeName(call)
	if !strings.HasPrefix(name, "Load") && !strings.HasPrefix(name, "Parse") {
		return vfFact{}, false
	}
	sig, ok := calleeSignature(a.pass, call)
	if !ok || i >= sig.Results().Len() {
		return vfFact{}, false
	}
	t := derefType(sig.Results().At(i).Type())
	if !a.pass.Facts.HasValidate(t) {
		return vfFact{}, false
	}
	return vfFact{origin: call.Pos(), desc: name + " result"}, true
}

// reportValidateFirst is the reporting pass: with the fixpoint in
// hand, walk each reachable block and flag sink calls that receive a
// tracked, not-everywhere-validated value.
func reportValidateFirst(pass *Pass, a *vfAnalysis, g *CFG, res *FlowResult) {
	seen := make(map[token.Pos]bool)
	for _, b := range g.Blocks {
		stIn, ok := res.In[b]
		if !ok {
			continue
		}
		st := stIn
		for _, n := range b.Nodes {
			cur := st.(vfState)
			eachShallowCall(n, func(call *ast.CallExpr) {
				name := calleeName(call)
				if !isSolveSink(name) {
					return
				}
				for _, obj := range sinkOperands(pass, call) {
					f, tracked := cur[obj]
					if !tracked || f.validated || seen[call.Pos()] {
						continue
					}
					seen[call.Pos()] = true
					origin := pass.Fset.Position(f.origin)
					pass.Reportf(call.Pos(), "%s may receive %s unvalidated (%s at line %d); call %s.Validate() on every path first", name, obj.Name(), f.desc, origin.Line, obj.Name())
				}
			})
			st = a.Transfer(n, st)
		}
	}
}

// isSolveSink matches the solver entry points of the contract.
func isSolveSink(name string) bool {
	switch name {
	case "RunawayLimit", "OptimizeCurrent":
		return true
	}
	return strings.HasPrefix(name, "Solve")
}

// sinkOperands returns the local variables flowing into a sink call:
// the method receiver plus every argument passed directly or by
// address.
func sinkOperands(pass *Pass, call *ast.CallExpr) []types.Object {
	var objs []types.Object
	appendIdent := func(e ast.Expr) {
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				objs = append(objs, obj)
			}
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		appendIdent(sel.X)
	}
	for _, arg := range call.Args {
		appendIdent(arg)
	}
	return objs
}

// validateReceiver matches x.Validate() calls, returning the receiver
// variable.
func validateReceiver(pass *Pass, call *ast.CallExpr) (types.Object, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Validate" {
		return nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil, false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil, false
	}
	return obj, true
}

// escapingVars lists variables whose tracking must stop at this call:
// arguments passed by value or address, and the receiver of a
// non-Validate method call.
func escapingVars(pass *Pass, call *ast.CallExpr) []types.Object {
	return sinkOperands(pass, call)
}

// eachShallowCall invokes fn for every call expression syntactically
// inside n, without descending into nested function literals (their
// bodies are separate CFGs).
func eachShallowCall(n ast.Node, fn func(*ast.CallExpr)) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn(n)
		}
		return true
	})
}

// assignedObj resolves the variable object written by an assignment
// target, or nil for blank, field, and index targets.
func assignedObj(pass *Pass, lhs ast.Expr) types.Object {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// typeDesc renders a type name without its package path prefix noise.
func typeDesc(t types.Type) string {
	t = derefType(t)
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			return pkg.Name() + "." + named.Obj().Name()
		}
		return named.Obj().Name()
	}
	return t.String()
}
