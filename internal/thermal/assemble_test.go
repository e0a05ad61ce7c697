package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tecopt/internal/material"
	"tecopt/internal/sparse"
)

// builderG is the assembly G replaced: every stamp appended to a COO
// Builder, which sorts the triplets and sums duplicates in whatever
// order the sort leaves equal keys. It is the oracle of G's pattern and
// off-diagonal values.
func builderG(n *Network) *sparse.CSR {
	b := sparse.NewBuilder(len(n.nodes), len(n.nodes))
	for _, e := range n.edges {
		b.AddSym(e.i, e.j, -e.g)
		b.Add(e.i, e.i, e.g)
		b.Add(e.j, e.j, e.g)
	}
	for _, gr := range n.grounds {
		b.Add(gr.i, gr.i, gr.g)
	}
	return b.Build()
}

// stampOrderDiag sums each node's diagonal in stamp order: its edges in
// the order AddConductance recorded them, then its ground legs.
func stampOrderDiag(n *Network) []float64 {
	d := make([]float64, len(n.nodes))
	for _, e := range n.edges {
		d[e.i] += e.g
		d[e.j] += e.g
	}
	for _, gr := range n.grounds {
		d[gr.i] += gr.g
	}
	return d
}

// requireGMatchesBuilder requires G to store the Builder's pattern with
// bitwise the Builder's off-diagonals, and every diagonal bitwise its
// stamp-order sum. It returns how many diagonals round differently from
// the Builder's.
func requireGMatchesBuilder(t *testing.T, name string, n *Network) (moved int) {
	t.Helper()
	got, want, diag := n.G(), builderG(n), stampOrderDiag(n)
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: G is %dx%d with %d entries, Builder %dx%d with %d", name,
			got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < got.Rows(); i++ {
		gc, gv := got.RowNNZ(i)
		wc, wv := want.RowNNZ(i)
		if !slices.Equal(gc, wc) {
			t.Fatalf("%s: row %d stores columns %v, Builder %v", name, i, gc, wc)
		}
		for k, j := range gc {
			if j != i {
				if math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
					t.Fatalf("%s: G[%d][%d] = %v, Builder %v", name, i, j, gv[k], wv[k])
				}
				continue
			}
			if math.Float64bits(gv[k]) != math.Float64bits(diag[i]) {
				t.Fatalf("%s: G[%d][%d] = %v, stamp-order sum %v", name, i, i, gv[k], diag[i])
			}
			if math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
				moved++
			}
		}
	}
	return moved
}

// paperNetwork builds the default package with TECs of the paper's
// device (tec.ChowdhuryDevice's conductances) at sites, in the order
// core.NewSystem stamps them.
func paperNetwork(t *testing.T, sites []int) *Network {
	t.Helper()
	const side, filmThick, contactR = 0.5e-3, 8e-6, 1.3e-6
	area := side * side
	kappa, contact := material.Superlattice.Conductivity*area/filmThick, area/contactR
	opts := DefaultBuildOptions()
	opts.TECSites = make(map[int]bool, len(sites))
	for _, s := range sites {
		opts.TECSites[s] = true
	}
	pn, err := BuildPackage(material.DefaultPackage(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sites {
		if _, _, err := pn.AttachTEC(s, contact, contact, kappa); err != nil {
			t.Fatal(err)
		}
	}
	return pn.Net
}

// G must be the Builder's matrix on the paper's networks: the passive
// package, the Alpha greedy deployment (Table I: 7 TECs), the full
// cover and 30 random site sets. Only diagonals may round differently,
// because G sums them in stamp order and the Builder in sort order.
func TestGMatchesBuilderOnPaperNetworks(t *testing.T) {
	full := make([]int, 144)
	for i := range full {
		full[i] = i
	}
	cases := map[string][]int{
		"passive":      nil,
		"alpha greedy": {100, 101, 102, 103, 112, 113, 114},
		"full cover":   full,
	}
	rng := rand.New(rand.NewSource(26))
	for k := 0; k < 30; k++ {
		cases[fmt.Sprintf("random %d", k)] = rng.Perm(144)[:1+rng.Intn(144)]
	}
	for name, sites := range cases {
		n := paperNetwork(t, sites)
		moved := requireGMatchesBuilder(t, name, n)
		t.Logf("%s: %d of %d diagonals round differently from the Builder's", name, moved, n.NumNodes())
	}
}

// Parallel edges between one pair of nodes sum into one entry, in stamp
// order; a node with no stamp stores no diagonal, and Validate still
// rejects it.
func TestGSumsParallelEdgesInStampOrder(t *testing.T) {
	n := NewNetwork()
	for k := 0; k < 4; k++ {
		n.AddNode(Node{Kind: KindSilicon, Tile: k})
	}
	gs := []float64{0.1, 0.2, 0.3, 1e-17, 0.7}
	for _, g := range gs {
		n.AddConductance(2, 0, g)
	}
	n.AddConductance(0, 1, 0.5)
	n.AddConductance(0, 2, 0.25)
	n.AddGround(2, 1e-3, 300)
	n.AddGround(0, 2e-3, 300)
	g := n.G()

	want := -gs[0]
	for _, v := range gs[1:] {
		want += -v
	}
	want += -0.25
	for _, ij := range [][2]int{{0, 2}, {2, 0}} {
		if got := g.At(ij[0], ij[1]); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("G[%d][%d] = %v, stamp-order sum %v", ij[0], ij[1], got, want)
		}
	}
	diag := stampOrderDiag(n)
	for i := 0; i < 3; i++ {
		if got := g.At(i, i); math.Float64bits(got) != math.Float64bits(diag[i]) {
			t.Errorf("G[%d][%d] = %v, stamp-order sum %v", i, i, got, diag[i])
		}
	}
	if cols, _ := g.RowNNZ(0); !slices.Equal(cols, []int{0, 1, 2}) {
		t.Errorf("row 0 stores columns %v, want [0 1 2]", cols)
	}
	if cols, _ := g.RowNNZ(3); len(cols) != 0 {
		t.Errorf("unstamped node 3 stores columns %v", cols)
	}
	if err := n.Validate(); err == nil {
		t.Error("Validate accepted the unstamped node 3")
	}
	// Two stamps on a pair commute, so there the Builder agrees too.
	two := NewNetwork()
	two.AddNode(Node{Kind: KindSilicon})
	two.AddNode(Node{Kind: KindTIM})
	two.AddConductance(0, 1, 0.1)
	two.AddConductance(1, 0, 0.2)
	two.AddGround(1, 1, 300)
	requireGMatchesBuilder(t, "two parallel edges", two)
}
