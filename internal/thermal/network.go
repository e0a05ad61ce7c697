// Package thermal builds and solves the compact thermal model of the
// chip package (Section IV of the paper).
//
// By the electro-thermal duality, heat flow through the package is
// modeled as current through a network of thermal conductances: each
// layer (silicon die, TIM, heat spreader, heat sink) is dissected into
// tiles, each tile becomes a network node, adjacent tiles are joined by
// conductances, the fan/heat-sink convection becomes conductances from
// the sink nodes to the ambient node, and the ambient is a fixed
// "voltage" (temperature) source against the absolute-zero ground.
// Dissipated power enters as current sources at the silicon nodes.
//
// The resulting steady-state equation is G*theta = p (Eq. 4 with i = 0),
// where G is an irreducible positive definite Stieltjes matrix; the TEC
// model of package tec extends it to (G - i*D)*theta = p.
package thermal

import (
	"fmt"

	"tecopt/internal/num"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// NodeKind labels the physical role of a network node.
type NodeKind int

// Node kinds, from the active silicon down the cooling path. The paper's
// node sets SIL, HOT and CLD map to KindSilicon, KindTECHot and
// KindTECCold.
const (
	KindSilicon NodeKind = iota
	KindTIM
	KindSpreader
	KindSink
	KindTECCold
	KindTECHot
)

// String returns a short label for the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindSilicon:
		return "SIL"
	case KindTIM:
		return "TIM"
	case KindSpreader:
		return "SPR"
	case KindSink:
		return "SNK"
	case KindTECCold:
		return "CLD"
	case KindTECHot:
		return "HOT"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node carries a network node's identity.
type Node struct {
	Kind NodeKind
	// Tile is the silicon tile index this node sits over (or -1 for
	// spreader/sink nodes, which have their own layer grids).
	Tile int
}

// Network is a thermal conductance network under assembly. Conductances
// are in W/K, temperatures in kelvin, powers in watts.
type Network struct {
	nodes   []Node
	edges   []edge
	grounds []ground
}

type edge struct {
	i, j int
	g    float64
}

type ground struct {
	i       int
	g       float64
	sourceK float64 // temperature of the fixed node this leg connects to
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{} }

// AddNode appends a node and returns its index.
func (n *Network) AddNode(node Node) int {
	n.nodes = append(n.nodes, node)
	return len(n.nodes) - 1
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Node returns the node metadata for index i.
func (n *Network) Node(i int) Node { return n.nodes[i] }

// AddConductance joins nodes i and j with a thermal conductance g (W/K).
// Zero conductances are ignored; negative ones are rejected because a
// passive network cannot contain them (the TEC's negative Peltier
// "conductor" enters through the separate D matrix instead).
func (n *Network) AddConductance(i, j int, g float64) {
	if num.IsZero(g) {
		return
	}
	if !num.IsFinite(g) {
		panic(fmt.Sprintf("thermal: non-finite conductance %g between %d and %d", g, i, j))
	}
	if g < 0 {
		panic(fmt.Sprintf("thermal: negative conductance %g between %d and %d", g, i, j))
	}
	if i == j || i < 0 || j < 0 || i >= len(n.nodes) || j >= len(n.nodes) {
		panic(fmt.Sprintf("thermal: bad conductance endpoints (%d,%d) with %d nodes", i, j, len(n.nodes)))
	}
	n.edges = append(n.edges, edge{i, j, g})
}

// AddGround connects node i to a fixed-temperature node (typically the
// ambient) through conductance g. The fixed node is eliminated from the
// system: g lands on the diagonal of G and g*sourceK on the right-hand
// side, exactly the constant-voltage-source treatment of Section IV.A.
func (n *Network) AddGround(i int, g, sourceK float64) {
	if num.IsZero(g) {
		return
	}
	if !num.IsFinite(g) || !num.IsFinite(sourceK) {
		panic(fmt.Sprintf("thermal: non-finite ground leg (g=%g, sourceK=%g) at node %d", g, sourceK, i))
	}
	if g < 0 {
		panic(fmt.Sprintf("thermal: negative ground conductance %g at node %d", g, i))
	}
	if i < 0 || i >= len(n.nodes) {
		panic(fmt.Sprintf("thermal: ground at invalid node %d", i))
	}
	n.grounds = append(n.grounds, ground{i, g, sourceK})
}

// G assembles the conductance matrix: the weighted graph Laplacian of the
// edges plus the ground-leg conductances on the diagonal. The result is
// an irreducible positive definite Stieltjes matrix for any connected
// network with at least one ground leg (Lemma 1).
//
// The stamps are written straight into CSR. Each diagonal is summed in
// stamp order: the node's edges in the order AddConductance recorded
// them, then its ground legs. Parallel edges between one pair of nodes
// are summed in stamp order too. A node with no stamp stores no
// diagonal (Validate rejects it). Every call returns a new matrix.
func (n *Network) G() *sparse.CSR {
	nn := len(n.nodes)
	// Row sizes and diagonals: an off-diagonal slot for each end of
	// every edge, and a diagonal slot for each stamped node. Conductances
	// are positive, so a diagonal is nonzero exactly when stamped.
	diag := make([]float64, nn)
	rowPtr := make([]int, nn+1)
	for _, e := range n.edges {
		diag[e.i] += e.g
		diag[e.j] += e.g
		rowPtr[e.i+1]++
		rowPtr[e.j+1]++
	}
	for _, gr := range n.grounds {
		diag[gr.i] += gr.g
	}
	for i, d := range diag {
		if !num.IsZero(d) {
			rowPtr[i+1]++
		}
		rowPtr[i+1] += rowPtr[i]
	}
	cols := make([]int, rowPtr[nn])
	vals := make([]float64, rowPtr[nn])
	end := make([]int, nn)
	copy(end, rowPtr)
	put := func(i, j int, v float64) {
		cols[end[i]], vals[end[i]] = j, v
		end[i]++
	}
	for _, e := range n.edges {
		put(e.i, e.j, -e.g)
		put(e.j, e.i, -e.g)
	}
	for i, d := range diag {
		if !num.IsZero(d) {
			put(i, i, d)
		}
	}
	// Sort each short row by column, stably so that parallel edges keep
	// their stamp order, and merge them, compacting the rows in place.
	w := 0
	for i := 0; i < nn; i++ {
		lo, hi := rowPtr[i], end[i]
		for k := lo + 1; k < hi; k++ {
			for m := k; m > lo && cols[m] < cols[m-1]; m-- {
				cols[m], cols[m-1] = cols[m-1], cols[m]
				vals[m], vals[m-1] = vals[m-1], vals[m]
			}
		}
		rowPtr[i] = w
		for k := lo; k < hi; k++ {
			if w > rowPtr[i] && cols[w-1] == cols[k] {
				vals[w-1] += vals[k]
				continue
			}
			cols[w], vals[w] = cols[k], vals[k]
			w++
		}
	}
	rowPtr[nn] = w
	return sparse.NewCSR(nn, nn, rowPtr, cols[:w], vals[:w])
}

// BaseRHS returns the right-hand-side contribution of the eliminated
// fixed-temperature nodes: rhs[i] = sum of g*sourceK over node i's ground
// legs. Add per-node input powers on top to obtain the full p vector.
func (n *Network) BaseRHS() []float64 {
	rhs := make([]float64, len(n.nodes))
	for _, gr := range n.grounds {
		rhs[gr.i] += gr.g * gr.sourceK
	}
	return rhs
}

// Validate checks that the assembled network can yield a nonsingular
// positive definite G: it needs at least one node, at least one ground
// leg (otherwise the Laplacian is singular), and no isolated node (a
// node with neither an edge nor a ground leg produces an all-zero row).
// Edge and ground conductances are finite and non-negative by
// construction — AddConductance and AddGround reject everything else —
// so Validate only has to check the graph structure. Errors carry
// tecerr.CodeInvalidInput.
func (n *Network) Validate() error {
	if len(n.nodes) == 0 {
		return tecerr.New(tecerr.CodeInvalidInput, "thermal.validate",
			"thermal: network has no nodes")
	}
	if len(n.grounds) == 0 {
		return tecerr.New(tecerr.CodeInvalidInput, "thermal.validate",
			"thermal: network has no ground legs (G would be singular)")
	}
	touched := make([]bool, len(n.nodes))
	for _, e := range n.edges {
		touched[e.i], touched[e.j] = true, true
	}
	for _, gr := range n.grounds {
		touched[gr.i] = true
	}
	for i, ok := range touched {
		if !ok {
			return tecerr.Newf(tecerr.CodeInvalidInput, "thermal.validate",
				"thermal: node %d (%s) is isolated — no conductance or ground leg", i, n.nodes[i].Kind)
		}
	}
	return nil
}
