package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"
)

// parseBody wraps src in a function and returns its parsed body. Tests
// build CFGs from bare syntax (no type info), matching how the fuzz
// harness drives the builder.
func parseBody(t *testing.T, src string) *ast.BlockStmt {
	t.Helper()
	file := "package p\nfunc f() {\n" + src + "\n}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "t.go", file, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing body: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fd.Body
		}
	}
	t.Fatal("no function in wrapped source")
	return nil
}

// TestBuildCFGShapes pins the exact block structure the builder
// produces for each control construct: the String() dump is the
// contract the dataflow analyzers rely on.
func TestBuildCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "straight line",
			src:  "x := 1\ny := x\n_ = y",
			want: `
b0[entry] n=3 -> b1
b1[exit] n=0 ->`,
		},
		{
			name: "if without else",
			src:  "if x > 0 {\n\tx++\n}\nreturn",
			want: `
b0[entry] n=1 -> b2 b3
b1[exit] n=0 ->
b2[if.then] n=1 -> b3
b3[if.after] n=1 -> b1
b4[unreachable] n=0 -> b1`,
		},
		{
			name: "if else both return",
			src:  "if c {\n\treturn\n} else {\n\treturn\n}",
			want: `
b0[entry] n=1 -> b2 b4
b1[exit] n=0 ->
b2[if.then] n=1 -> b1
b3[unreachable] n=0 -> b6
b4[if.else] n=1 -> b1
b5[unreachable] n=0 -> b6
b6[if.after] n=0 -> b1`,
		},
		{
			name: "for with cond and post",
			src:  "for i := 0; i < n; i++ {\n\tuse(i)\n}",
			want: `
b0[entry] n=1 -> b2
b1[exit] n=0 ->
b2[for.head] n=1 -> b3 b4
b3[for.body] n=1 -> b5
b4[for.after] n=0 -> b1
b5[for.post] n=1 -> b2`,
		},
		{
			name: "infinite for with break",
			src:  "for {\n\tif done {\n\t\tbreak\n\t}\n\tstep()\n}",
			want: `
b0[entry] n=0 -> b2
b1[exit] n=0 ->
b2[for.head] n=0 -> b3
b3[for.body] n=1 -> b5 b7
b4[for.after] n=0 -> b1
b5[if.then] n=1 -> b4
b6[unreachable] n=0 -> b7
b7[if.after] n=1 -> b2`,
		},
		{
			name: "range",
			src:  "for _, v := range xs {\n\tuse(v)\n}",
			want: `
b0[entry] n=0 -> b2
b1[exit] n=0 ->
b2[range.head] n=1 -> b3 b4
b3[range.body] n=1 -> b2
b4[range.after] n=0 -> b1`,
		},
		{
			name: "switch with default and fallthrough",
			// Case expressions (1, 2) are evaluated during dispatch, so
			// they live in the tag block b0, not the clause blocks.
			src: "switch x {\ncase 1:\n\ta()\n\tfallthrough\ncase 2:\n\tb()\ndefault:\n\tc()\n}",
			want: `
b0[entry] n=3 -> b3 b4 b5
b1[exit] n=0 ->
b2[switch.after] n=0 -> b1
b3[case] n=2 -> b4
b4[case] n=1 -> b2
b5[case] n=1 -> b2
b6[unreachable] n=0 -> b2`,
		},
		{
			name: "switch without default exits via tag",
			src:  "switch x {\ncase 1:\n\ta()\n}",
			want: `
b0[entry] n=2 -> b3 b2
b1[exit] n=0 ->
b2[switch.after] n=0 -> b1
b3[case] n=1 -> b2`,
		},
		{
			name: "type switch",
			src:  "switch v := x.(type) {\ncase int:\n\tuse(v)\n}",
			want: `
b0[entry] n=2 -> b3 b2
b1[exit] n=0 ->
b2[switch.after] n=0 -> b1
b3[case] n=1 -> b2`,
		},
		{
			name: "select with default",
			src:  "select {\ncase <-ch:\n\ta()\ndefault:\n\tb()\n}",
			want: `
b0[entry] n=0 -> b3 b4
b1[exit] n=0 ->
b2[select.after] n=0 -> b1
b3[select.case] n=2 -> b2
b4[select.case] n=1 -> b2`,
		},
		{
			name: "empty select blocks forever",
			src:  "select {}\nafterwards()",
			want: `
b0[entry] n=0 ->
b1[exit] n=0 ->
b2[select.after] n=1 -> b1`,
		},
		{
			name: "goto forward label",
			src:  "if c {\n\tgoto done\n}\na()\ndone:\nb()",
			want: `
b0[entry] n=1 -> b2 b5
b1[exit] n=0 ->
b2[if.then] n=1 -> b3
b3[label.done] n=1 -> b1
b4[unreachable] n=0 -> b5
b5[if.after] n=1 -> b3`,
		},
		{
			name: "labelled break from nested loop",
			src:  "outer:\nfor {\n\tfor {\n\t\tbreak outer\n\t}\n}\ndone()",
			want: `
b0[entry] n=0 -> b2
b1[exit] n=0 ->
b2[label.outer] n=0 -> b3
b3[for.head] n=0 -> b4
b4[for.body] n=0 -> b6
b5[for.after] n=1 -> b1
b6[for.head] n=0 -> b7
b7[for.body] n=1 -> b5
b8[for.after] n=0 -> b3
b9[unreachable] n=0 -> b6`,
		},
		{
			name: "panic terminates the then branch",
			src:  "if c {\n\tpanic(\"x\")\n}\na()",
			want: `
b0[entry] n=1 -> b2 b4
b1[exit] n=0 ->
b2[if.then] n=1 -> b1
b3[unreachable] n=0 -> b4
b4[if.after] n=1 -> b1`,
		},
		{
			name: "defer and go are straight line",
			src:  "defer cleanup()\ngo worker()\nreturn",
			want: `
b0[entry] n=3 -> b1
b1[exit] n=0 ->
b2[unreachable] n=0 -> b1`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := BuildCFG(parseBody(t, tc.src), nil)
			got := strings.TrimSpace(g.String())
			want := strings.TrimSpace(tc.want)
			if got != want {
				t.Errorf("CFG mismatch\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCFGInvariants checks the structural promises every analyzer
// depends on, over all shape-test inputs.
func TestCFGInvariants(t *testing.T) {
	srcs := []string{
		"x := 1",
		"if a {\n\tb()\n} else if c {\n\td()\n}",
		"for {\n}",
		"L:\nfor i := range xs {\n\tcontinue L\n}",
		"switch {\ncase a:\ncase b:\n}",
	}
	for _, src := range srcs {
		g := BuildCFG(parseBody(t, src), nil)
		for i, b := range g.Blocks {
			if b.Index != i {
				t.Errorf("%q: Blocks[%d].Index = %d", src, i, b.Index)
			}
			for _, s := range b.Succs {
				if g.Blocks[s.Index] != s {
					t.Errorf("%q: successor of b%d not in Blocks", src, i)
				}
			}
		}
		if len(g.Exit.Succs) != 0 {
			t.Errorf("%q: exit block has successors %v", src, g.Exit.Succs)
		}
		if g.Entry != g.Blocks[0] || g.Exit != g.Blocks[1] {
			t.Errorf("%q: entry/exit not at fixed indices", src)
		}
	}
}

// TestBuildCFGNilBody mirrors function declarations without bodies.
func TestBuildCFGNilBody(t *testing.T) {
	g := BuildCFG(nil, nil)
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("nil body: entry succs = %v", g.Entry.Succs)
	}
}

// assignNames is a toy forward analysis used to exercise the engine:
// the state is the set of variable names assigned so far.
type assignNames struct{}

type anState map[string]bool

func (assignNames) Entry() FlowState { return anState{} }

func (assignNames) Equal(a, b FlowState) bool {
	x, y := a.(anState), b.(anState)
	if len(x) != len(y) {
		return false
	}
	for k := range x {
		if !y[k] {
			return false
		}
	}
	return true
}

func (assignNames) Join(a, b FlowState) FlowState {
	x, y := a.(anState), b.(anState)
	out := make(anState, len(x)+len(y))
	for k := range x {
		out[k] = true
	}
	for k := range y {
		out[k] = true
	}
	return out
}

func (assignNames) Transfer(n ast.Node, in FlowState) FlowState {
	s, ok := n.(*ast.AssignStmt)
	if !ok {
		return in
	}
	out := make(anState, len(in.(anState))+1)
	for k := range in.(anState) {
		out[k] = true
	}
	for _, lhs := range s.Lhs {
		if id, isIdent := lhs.(*ast.Ident); isIdent {
			out[id.Name] = true
		}
	}
	return out
}

// TestRunForwardFixpoint drives the engine over a branchy, loopy body
// and checks the state that reaches the exit block.
func TestRunForwardFixpoint(t *testing.T) {
	body := parseBody(t, `
a := 1
if cond {
	b := 2
	_ = b
} else {
	c := 3
	_ = c
}
for range xs {
	d := 4
	_ = d
}
`)
	g := BuildCFG(body, nil)
	res := RunForward(g, assignNames{})
	exit, ok := res.In[g.Exit]
	if !ok {
		t.Fatal("exit block unreached")
	}
	got := exit.(anState)
	// a always assigned; b, c, d each only on some path, but the
	// union-join records "assigned on some path".
	for _, name := range []string{"a", "b", "c", "d"} {
		if !got[name] {
			t.Errorf("exit state missing %q: %v", name, got)
		}
	}
	if got["cond"] || got["xs"] {
		t.Errorf("exit state tracked non-assigned names: %v", got)
	}
}

// TestRunForwardUnreachable: blocks with no path from entry get no
// in-state, so analyzers never report on dead code.
func TestRunForwardUnreachable(t *testing.T) {
	body := parseBody(t, "return\nx := 1\n_ = x")
	g := BuildCFG(body, nil)
	res := RunForward(g, assignNames{})
	for _, b := range g.Blocks {
		if b.Kind == "unreachable" {
			if _, ok := res.In[b]; ok {
				t.Errorf("unreachable block b%d has an in-state", b.Index)
			}
		}
	}
	if exit := res.In[g.Exit].(anState); len(exit) != 0 {
		t.Errorf("exit state should be empty, got %v", exit)
	}
}

// divergent never converges (Equal is always false); the step bound
// must stop the engine anyway.
type divergent struct{ assignNames }

func (divergent) Equal(a, b FlowState) bool { return false }

func TestRunForwardStepBound(t *testing.T) {
	body := parseBody(t, "for {\n\tx := 1\n\t_ = x\n}")
	g := BuildCFG(body, nil)
	done := make(chan struct{})
	go func() {
		RunForward(g, divergent{})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("RunForward did not terminate under a non-converging analysis")
	}
}

// FuzzCFG asserts the builder never panics and always produces a
// well-indexed graph for any parseable function body.
func FuzzCFG(f *testing.F) {
	seeds := []string{
		"x := 1",
		"if a { return }",
		"for i := 0; i < 10; i++ { if i == 3 { continue }; if i == 5 { break } }",
		"switch x { case 1: fallthrough\ncase 2: }",
		"select { case <-c: default: }",
		"L: for { goto L }",
		"defer f()\npanic(\"boom\")",
		"goto missing",
		// Channel-op shapes: sends, closes, range-over-channel (whose
		// head block carries the whole RangeStmt), and comm clauses
		// detached into select.case blocks.
		"ch := make(chan int)\nch <- 1\nclose(ch)",
		"for v := range ch { ch2 <- v }",
		"select { case ch <- 1: case v := <-ch2: _ = v\ncase <-done: return }",
		"go func() { for { select { case <-ctx.Done(): return\ndefault: } } }()",
		"var wg sync.WaitGroup\nwg.Add(1)\ngo func() { defer wg.Done() }()\nwg.Wait()",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file := "package p\nfunc f() {\n" + src + "\n}\n"
		parsed, err := parser.ParseFile(token.NewFileSet(), "f.go", file, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		for _, d := range parsed.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := BuildCFG(fd.Body, nil)
			for i, b := range g.Blocks {
				if b.Index != i {
					t.Fatalf("block index %d at position %d", b.Index, i)
				}
			}
			_ = g.String()
		}
	})
}
