package lint

// dataflow.go is the forward-dataflow fixpoint engine that runs on the
// CFGs built by cfg.go. An analysis supplies a lattice (Join/Equal), a
// transfer function over single nodes, and an entry state; the engine
// computes the state at the entry of every reachable block.
//
// The analyzers built on it (validatefirst, errpath, nanflow) use
// finite fact sets keyed by local variables or source positions, so
// the lattice has finite height and the worklist terminates as long as
// Transfer and Join are monotone. A defensive step bound makes the
// engine fail open (no facts, hence no findings) rather than hang on a
// pathological graph.

import "go/ast"

// FlowState is one analysis's abstract state at a program point.
// States are treated as immutable: Transfer and Join must return fresh
// values (or unmodified inputs), never mutate their arguments. nil is
// the bottom state (unreachable).
type FlowState any

// FlowAnalysis defines a forward dataflow problem.
type FlowAnalysis interface {
	// Entry is the state on function entry.
	Entry() FlowState
	// Transfer applies one CFG node (a simple statement or an
	// evaluated expression; see cfg.go for the node inventory) to the
	// incoming state.
	Transfer(n ast.Node, in FlowState) FlowState
	// Join merges the states of two predecessor edges. Neither
	// argument is nil.
	Join(a, b FlowState) FlowState
	// Equal reports whether two states carry the same facts; the
	// fixpoint has converged when every block's input is Equal to the
	// previous round's.
	Equal(a, b FlowState) bool
}

// FlowResult holds the fixpoint: the state at the entry of each block.
// Blocks unreachable from Entry are absent.
type FlowResult struct {
	In map[*Block]FlowState
}

// BlockOut replays the block's transfer functions over its input state,
// returning the state at the block's exit. Analyzers use it (and
// Transfer directly, node by node) in their reporting pass.
func (r *FlowResult) BlockOut(a FlowAnalysis, b *Block) FlowState {
	s, ok := r.In[b]
	if !ok {
		return nil
	}
	for _, n := range b.Nodes {
		s = a.Transfer(n, s)
	}
	return s
}

// maxFlowSteps bounds the number of block visits per function as a
// hang-proof backstop; structured code converges in a few passes, so
// hitting the bound means a non-monotone analysis bug, and the engine
// fails open by returning the partial result.
const maxFlowSteps = 64

// RunForward computes the forward dataflow fixpoint of a over g with a
// deterministic worklist (block index order), so diagnostics derived
// from the result are stable across runs.
func RunForward(g *CFG, a FlowAnalysis) *FlowResult {
	res := &FlowResult{In: make(map[*Block]FlowState, len(g.Blocks))}
	res.In[g.Entry] = a.Entry()
	preds := g.Preds()

	for pass := 0; pass < maxFlowSteps; pass++ {
		changed := false
		for _, b := range g.Blocks {
			if b == g.Entry {
				continue // entry state is fixed
			}
			in, reachable := joinPreds(a, res, preds[b])
			if !reachable {
				continue
			}
			old, seen := res.In[b]
			if !seen || !a.Equal(old, in) {
				res.In[b] = in
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return res
}

// joinPreds folds the predecessor out-states into a block's in-state.
// reachable is false when no predecessor has been reached yet.
func joinPreds(a FlowAnalysis, res *FlowResult, preds []*Block) (FlowState, bool) {
	var acc FlowState
	reached := false
	for _, p := range preds {
		in, ok := res.In[p]
		if !ok {
			continue
		}
		out := in
		for _, n := range p.Nodes {
			out = a.Transfer(n, out)
		}
		if !reached {
			acc, reached = out, true
		} else {
			acc = a.Join(acc, out)
		}
	}
	return acc, reached
}
