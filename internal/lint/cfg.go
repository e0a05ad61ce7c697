package lint

// cfg.go builds an intraprocedural control-flow graph over a single
// function body. The CFG is the substrate for the path-sensitive
// analyzers (validatefirst, errpath, nanflow): the purely syntactic
// rules can say "this statement looks wrong", but only a CFG can say
// "this error escapes unchecked on the early-return path" or "this
// NaN reaches Factor unguarded on the fallback branch" — the class of
// silent bug that corrupts Table I / Figure 6 numerically instead of
// crashing.
//
// Design notes:
//
//   - Blocks hold a flat []ast.Node slice in execution order. Compound
//     statements never appear whole: an *ast.IfStmt contributes its
//     Init statement and Cond expression to the predecessor block and
//     nothing else; loops contribute their header expressions to the
//     header block. The two exceptions are *ast.RangeStmt and
//     *ast.TypeSwitchStmt, whose per-iteration (resp. per-case)
//     bindings are inseparable from the statement node itself; they
//     appear in their header block and transfer functions must treat
//     them shallowly (Key/Value/X resp. Assign), never recursing into
//     the nested body.
//   - Terminating calls (panic, os.Exit, log.Fatal*, runtime.Goexit,
//     and module-local functions the FactStore proved never return)
//     edge straight to Exit, so "after fatal(err)" is not a path.
//   - goto/labelled break/continue are supported; computed control flow
//     (no such thing in Go) and inter-procedural effects are not.
//   - Code made unreachable by return/branch statements still gets
//     blocks (they may carry labels), but no predecessor edges; the
//     dataflow engine never visits them.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Block is one basic block: a maximal run of nodes with a single entry
// and single exit in the control-flow graph.
type Block struct {
	// Index is the block's position in CFG.Blocks, stable across runs.
	Index int
	// Kind is a human-readable label ("entry", "if.then", "for.head",
	// ...) used by the String dump and the structural tests.
	Kind string
	// Nodes are the statements and expressions executed by this block,
	// in order. See the package comment for which node kinds appear.
	Nodes []ast.Node
	// Succs are the possible control-flow successors.
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the first block executed; Exit is the single synthetic
	// block every return, panic, and fall-off-the-end path reaches.
	Entry, Exit *Block
	// Blocks lists every block in creation order; Blocks[i].Index == i.
	Blocks []*Block
}

// String renders the CFG in the compact one-line-per-block form pinned
// by the structural tests:
//
//	b0[entry] n=2 -> b1 b2
//	b1[if.then] n=1 -> b3
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d[%s] n=%d ->", b.Index, b.Kind, len(b.Nodes))
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " b%d", s.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Preds computes the predecessor lists of every block.
func (g *CFG) Preds() map[*Block][]*Block {
	preds := make(map[*Block][]*Block, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			preds[s] = append(preds[s], b)
		}
	}
	return preds
}

// BuildCFG constructs the CFG of body. terminates reports whether a
// call expression never returns (panic, os.Exit, ...); nil means only
// the builtin panic terminates. Pass the function body of an
// *ast.FuncDecl or *ast.FuncLit; nested function literals inside the
// body are treated as opaque values (their bodies are separate CFGs).
func BuildCFG(body *ast.BlockStmt, terminates func(*ast.CallExpr) bool) *CFG {
	b := &cfgBuilder{
		cfg:        &CFG{},
		terminates: terminates,
		labels:     make(map[string]*labelInfo),
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.cfg.Exit) // fall off the end
	return b.cfg
}

// labelInfo tracks one label: the block a goto jumps to, plus the
// break/continue targets when the label names a loop/switch/select.
type labelInfo struct {
	target         *Block // goto target (start of the labelled statement)
	breakTarget    *Block
	continueTarget *Block
}

type cfgBuilder struct {
	cfg        *CFG
	cur        *Block
	terminates func(*ast.CallExpr) bool

	// breakStack / continueStack are the innermost targets for
	// unlabelled break and continue statements.
	breakStack    []*Block
	continueStack []*Block
	// fallStack is the target of a fallthrough in the current switch.
	fallStack []*Block
	labels    map[string]*labelInfo
	// pendingLabel is the label naming the statement about to be built,
	// consumed by the loop/switch/select builders to register
	// labelled break/continue targets.
	pendingLabel string
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// deadBlock starts a fresh block with no predecessors, for code
// following a terminator (return, break, goto, panic).
func (b *cfgBuilder) deadBlock() {
	b.cur = b.newBlock("unreachable")
}

// takeLabel consumes the pending label, registering its break/continue
// targets, and returns its name (empty when the statement is unlabelled).
func (b *cfgBuilder) takeLabel(breakTo, continueTo *Block) string {
	name := b.pendingLabel
	b.pendingLabel = ""
	if name == "" {
		return ""
	}
	li := b.labelRef(name)
	li.breakTarget = breakTo
	li.continueTarget = continueTo
	return name
}

// labelRef returns the label record for name, creating it (with a
// fresh goto-target block) on first reference so forward gotos work.
func (b *cfgBuilder) labelRef(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{target: b.newBlock("label." + name)}
		b.labels[name] = li
	}
	return li
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// callTerminates reports whether the call never returns: the builtin
// panic, or anything the caller-provided predicate recognizes
// (os.Exit, log.Fatal*, module-local fatal helpers, ...).
func (b *cfgBuilder) callTerminates(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
		// Builtin panic unless shadowed; with type info the caller's
		// predicate gives the authoritative answer, this is the
		// fallback for bare parses (fuzzing).
		return true
	}
	return b.terminates != nil && b.terminates(call)
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	// A label names exactly the statement it precedes; any other
	// statement kind consumes it as a plain goto target only.
	switch s.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
	default:
		b.pendingLabel = ""
	}

	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		li := b.labelRef(s.Label.Name)
		b.edge(b.cur, li.target)
		b.cur = li.target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.deadBlock()

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s)

	case *ast.RangeStmt:
		b.rangeStmt(s)

	case *ast.SwitchStmt:
		b.switchStmt(s)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)

	case *ast.SelectStmt:
		b.selectStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && b.callTerminates(call) {
			b.edge(b.cur, b.cfg.Exit)
			b.deadBlock()
		}

	case *ast.EmptyStmt:
		// no effect

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt,
		// GoStmt: straight-line nodes.
		b.add(s)
	}
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.breakTarget
			}
		} else if n := len(b.breakStack); n > 0 {
			target = b.breakStack[n-1]
		}
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.labels[s.Label.Name]; li != nil {
				target = li.continueTarget
			}
		} else if n := len(b.continueStack); n > 0 {
			target = b.continueStack[n-1]
		}
	case token.GOTO:
		if s.Label != nil {
			target = b.labelRef(s.Label.Name).target
		}
	case token.FALLTHROUGH:
		if n := len(b.fallStack); n > 0 {
			target = b.fallStack[n-1]
		}
	}
	if target != nil {
		b.edge(b.cur, target)
	} else {
		// Malformed code (break outside a loop, unknown label): treat
		// as an exit so analysis stays conservative instead of
		// panicking — the type checker rejects such code anyway.
		b.edge(b.cur, b.cfg.Exit)
	}
	b.deadBlock()
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Cond != nil {
		b.add(s.Cond)
	}
	cond := b.cur
	then := b.newBlock("if.then")
	b.edge(cond, then)
	b.cur = then
	b.stmt(s.Body)
	thenEnd := b.cur

	var elseEnd *Block
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else)
		elseEnd = b.cur
	}

	after := b.newBlock("if.after")
	b.edge(thenEnd, after)
	if elseEnd != nil {
		b.edge(elseEnd, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock("for.head")
	b.edge(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	body := b.newBlock("for.body")
	after := b.newBlock("for.after")
	b.edge(head, body)
	if s.Cond != nil {
		b.edge(head, after)
	}
	// continue jumps to the post statement when present, else the head.
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.takeLabel(after, post)
	b.breakStack = append(b.breakStack, after)
	b.continueStack = append(b.continueStack, post)

	b.cur = body
	b.stmt(s.Body)
	b.edge(b.cur, post)
	if s.Post != nil {
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	}

	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.continueStack = b.continueStack[:len(b.continueStack)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	head := b.newBlock("range.head")
	b.edge(b.cur, head)
	// The RangeStmt node itself carries the per-iteration Key/Value
	// bindings and the ranged expression X; transfer functions treat it
	// shallowly.
	head.Nodes = append(head.Nodes, s)
	body := b.newBlock("range.body")
	after := b.newBlock("range.after")
	b.edge(head, body)
	b.edge(head, after)

	b.takeLabel(after, head)
	b.breakStack = append(b.breakStack, after)
	b.continueStack = append(b.continueStack, head)

	b.cur = body
	b.stmt(s.Body)
	b.edge(b.cur, head)

	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.continueStack = b.continueStack[:len(b.continueStack)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	tag := b.cur
	after := b.newBlock("switch.after")
	b.takeLabel(after, nil)
	b.breakStack = append(b.breakStack, after)

	b.caseClauses(s.Body, tag, after)

	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	// The Assign statement (`v := x.(type)` or bare `x.(type)`) holds
	// the scrutinized expression; per-clause bindings live in
	// types.Info.Implicits keyed by the CaseClause.
	b.add(s.Assign)
	tag := b.cur
	after := b.newBlock("switch.after")
	b.takeLabel(after, nil)
	b.breakStack = append(b.breakStack, after)

	b.caseClauses(s.Body, tag, after)

	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.cur = after
}

// caseClauses wires the clause blocks of a switch or type switch:
// every clause is entered from the tag block, falls through to the
// next clause body on an explicit fallthrough, and exits to after.
//
// Case expressions live in the tag block, not the clause blocks:
// dispatch evaluates them (in order, until one matches) before any
// clause body runs, so their reads must be visible on every outgoing
// path — including the no-match edge straight to after. A tagless
// `switch { case errors.Is(err, ...): }` reads err even when no case
// matches; placing the expressions per-clause would hide that read
// from the no-match path and make errpath-style analyses report
// dispatch-checked errors as dropped.
func (b *cfgBuilder) caseClauses(body *ast.BlockStmt, tag, after *Block) {
	var clauses []*ast.CaseClause
	for _, st := range body.List {
		if cc, ok := st.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		tag.Nodes = append(tag.Nodes, exprNodes(cc.List)...)
		blocks[i] = b.newBlock("case")
		b.edge(tag, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(tag, after)
	}
	for i, cc := range clauses {
		// A fallthrough (only legal as the final statement) continues
		// into the next clause's block.
		fallTo := after
		if i+1 < len(blocks) {
			fallTo = blocks[i+1]
		}
		b.fallStack = append(b.fallStack, fallTo)
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
		b.fallStack = b.fallStack[:len(b.fallStack)-1]
	}
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	head := b.cur
	after := b.newBlock("select.after")
	b.takeLabel(after, nil)
	b.breakStack = append(b.breakStack, after)

	for _, st := range s.Body.List {
		cc, ok := st.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock("select.case")
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
	}
	// A select with no cases blocks forever: no edge from head to
	// after, and after is only reachable through a clause.

	b.breakStack = b.breakStack[:len(b.breakStack)-1]
	b.cur = after
}

func exprNodes(exprs []ast.Expr) []ast.Node {
	nodes := make([]ast.Node, len(exprs))
	for i, e := range exprs {
		nodes[i] = e
	}
	return nodes
}

// TerminatesCall returns a predicate for BuildCFG that recognizes the
// standard never-returning calls — panic, os.Exit, runtime.Goexit,
// log.Fatal/Fatalf/Fatalln, (*testing.T).Fatal-family — plus any
// module-local function the FactStore proved no-return (e.g. the CLI
// `fatal` helpers that print and os.Exit).
func TerminatesCall(info *types.Info, facts *FactStore) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		switch fn := call.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "panic" {
				if obj, ok := info.Uses[fn]; !ok || obj == nil || obj == types.Universe.Lookup("panic") {
					return true
				}
			}
			if f, ok := info.Uses[fn].(*types.Func); ok {
				return facts.NoReturn(f)
			}
		case *ast.SelectorExpr:
			obj, ok := info.Uses[fn.Sel].(*types.Func)
			if !ok {
				return false
			}
			if stdNoReturn(obj) {
				return true
			}
			return facts.NoReturn(obj)
		}
		return false
	}
}

// stdNoReturn recognizes the standard library's terminating functions.
func stdNoReturn(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	case "log":
		switch fn.Name() {
		case "Fatal", "Fatalf", "Fatalln", "Panic", "Panicf", "Panicln":
			return true
		}
	case "testing":
		switch fn.Name() {
		case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skip", "Skipf":
			return true
		}
	}
	return false
}
