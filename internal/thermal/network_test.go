package thermal

import (
	"errors"
	"math"
	"testing"

	"tecopt/internal/mat"
	"tecopt/internal/num"
	"tecopt/internal/sparse"
	"tecopt/internal/tecerr"
)

// tinyNetwork builds a 3-node chain with one ground leg:
//
//	n0 --2-- n1 --4-- n2 --(g=1, 300K)-- ambient
func tinyNetwork() *Network {
	n := NewNetwork()
	n0 := n.AddNode(Node{Kind: KindSilicon, Tile: 0})
	n1 := n.AddNode(Node{Kind: KindTIM, Tile: 0})
	n2 := n.AddNode(Node{Kind: KindSink, Tile: -1})
	n.AddConductance(n0, n1, 2)
	n.AddConductance(n1, n2, 4)
	n.AddGround(n2, 1, 300)
	return n
}

func TestNetworkGMatrix(t *testing.T) {
	n := tinyNetwork()
	g := n.G()
	want := [][]float64{
		{2, -2, 0},
		{-2, 6, -4},
		{0, -4, 5},
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := g.At(i, j); math.Abs(got-want[i][j]) > 1e-15 {
				t.Fatalf("G[%d][%d] = %v, want %v", i, j, got, want[i][j])
			}
		}
	}
}

func TestNetworkBaseRHS(t *testing.T) {
	n := tinyNetwork()
	rhs := n.BaseRHS()
	want := []float64{0, 0, 300}
	for i := range want {
		if !num.ExactEqual(rhs[i], want[i]) {
			t.Fatalf("BaseRHS = %v, want %v", rhs, want)
		}
	}
	if g := n.TotalGroundConductance(); !num.ExactEqual(g, 1) {
		t.Fatalf("TotalGroundConductance = %v", g)
	}
}

func TestNetworkNoPowerEqualsAmbient(t *testing.T) {
	// With zero input power every node must sit at the ambient
	// temperature (equilibrium, no heat flow).
	n := tinyNetwork()
	theta, err := SolveSteady(n.G(), n.BaseRHS())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range theta {
		if math.Abs(v-300) > 1e-9 {
			t.Fatalf("theta[%d] = %v, want 300", i, v)
		}
	}
}

func TestNetworkPowerRaisesTemperature(t *testing.T) {
	n := tinyNetwork()
	rhs := n.BaseRHS()
	rhs[0] += 1 // 1 W at the silicon node
	theta, err := SolveSteady(n.G(), rhs)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic: the 1 W flows through 2, 4, 1 W/K in series:
	// theta2 = 300 + 1/1, theta1 = theta2 + 1/4, theta0 = theta1 + 1/2.
	want := []float64{301.75, 301.25, 301}
	for i := range want {
		if math.Abs(theta[i]-want[i]) > 1e-9 {
			t.Fatalf("theta = %v, want %v", theta, want)
		}
	}
}

func TestNetworkGIsStieltjesPD(t *testing.T) {
	n := tinyNetwork()
	g := n.G()
	dense := csrToDense(g)
	if !mat.IsStieltjes(dense, 1e-12) {
		t.Error("G is not Stieltjes")
	}
	if !mat.IsIrreducible(dense) {
		t.Error("G is not irreducible")
	}
	if !mat.IsPositiveDefinite(dense) {
		t.Error("G is not positive definite")
	}
}

func TestAddConductanceValidation(t *testing.T) {
	n := NewNetwork()
	a := n.AddNode(Node{})
	b := n.AddNode(Node{})
	n.AddConductance(a, b, 0) // ignored
	if len(n.edges) != 0 {
		t.Error("zero conductance stored")
	}
	for _, bad := range []func(){
		func() { n.AddConductance(a, b, -1) },
		func() { n.AddConductance(a, a, 1) },
		func() { n.AddConductance(a, 99, 1) },
		func() { n.AddGround(a, -1, 300) },
		func() { n.AddGround(99, 1, 300) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestNodesOfKind(t *testing.T) {
	n := tinyNetwork()
	if got := n.NodesOfKind(KindSilicon); len(got) != 1 || got[0] != 0 {
		t.Fatalf("NodesOfKind(SIL) = %v", got)
	}
	if got := n.NodesOfKind(KindTECHot); got != nil {
		t.Fatalf("NodesOfKind(HOT) = %v, want none", got)
	}
}

func TestNodeKindString(t *testing.T) {
	kinds := map[NodeKind]string{
		KindSilicon: "SIL", KindTIM: "TIM", KindSpreader: "SPR",
		KindSink: "SNK", KindTECCold: "CLD", KindTECHot: "HOT",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(k), k.String(), want)
		}
	}
	if NodeKind(99).String() == "" {
		t.Error("unknown kind produced empty string")
	}
}

// csrToDense converts for structural tests on small matrices.
func csrToDense(a *sparse.CSR) *mat.Dense {
	d := mat.NewDense(a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			d.Set(i, j, a.At(i, j))
		}
	}
	return d
}

func TestNetworkValidateRejectsDegenerateNetworks(t *testing.T) {
	empty := NewNetwork()
	if err := empty.Validate(); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("empty network: %v", err)
	}
	ungrounded := NewNetwork()
	a := ungrounded.AddNode(Node{Kind: KindSilicon})
	b := ungrounded.AddNode(Node{Kind: KindTIM})
	ungrounded.AddConductance(a, b, 1)
	if err := ungrounded.Validate(); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("ungrounded network: %v", err)
	}
	isolated := NewNetwork()
	c := isolated.AddNode(Node{Kind: KindSilicon})
	isolated.AddNode(Node{Kind: KindTIM}) // never wired
	isolated.AddGround(c, 1, 300)
	if err := isolated.Validate(); !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("isolated node: %v", err)
	}
}

func TestAddConductancePanicsOnNaN(t *testing.T) {
	n := NewNetwork()
	a := n.AddNode(Node{Kind: KindSilicon})
	b := n.AddNode(Node{Kind: KindTIM})
	defer func() {
		if recover() == nil {
			t.Fatal("NaN conductance did not panic")
		}
	}()
	n.AddConductance(a, b, math.NaN())
}
