package sparse_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tecopt/internal/num"
	"tecopt/internal/sparse"
)

// rcmSortSlice is the ordering RCM replaced, kept as its oracle: it
// copies each row's off-diagonal columns into an adjacency list of its
// own and sorts every BFS frontier by degree with sort.Slice. When
// maxTie is not nil it records the largest frontier it sorted that held
// a degree tie.
func rcmSortSlice(a *sparse.CSR, maxTie *int) []int {
	n := a.Rows()
	adj := make([][]int, n)
	deg := make([]int, n)
	level := make([]int, n)
	for i := 0; i < n; i++ {
		cols, _ := a.RowNNZ(i)
		for _, j := range cols {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
		deg[i] = len(adj[i])
		level[i] = -1
	}
	bfs := func(visited []bool, root int, reached []int) ([]int, int) {
		level[root] = 0
		reached = append(reached, root)
		for head := 0; head < len(reached); head++ {
			u := reached[head]
			for _, v := range adj[u] {
				if !visited[v] && level[v] < 0 {
					level[v] = level[u] + 1
					reached = append(reached, v)
				}
			}
		}
		return reached, level[reached[len(reached)-1]]
	}
	peripheral := func(visited []bool, start int) int {
		var reached []int
		root, lastEcc := start, -1
		for {
			var ecc int
			reached, ecc = bfs(visited, root, reached[:0])
			best, bestDeg := root, int(^uint(0)>>1)
			for _, v := range reached {
				if level[v] == ecc && deg[v] < bestDeg {
					best, bestDeg = v, deg[v]
				}
				level[v] = -1
			}
			if ecc <= lastEcc || best == root {
				return root
			}
			lastEcc = ecc
			root = best
		}
	}
	visited := make([]bool, n)
	order := make([]int, 0, n)
	var next []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := peripheral(visited, start)
		head := len(order)
		order = append(order, root)
		visited[root] = true
		for ; head < len(order); head++ {
			next = next[:0]
			for _, v := range adj[order[head]] {
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
			if maxTie != nil && len(next) > *maxTie && hasDegreeTie(next, deg) {
				*maxTie = len(next)
			}
			sort.Slice(next, func(x, y int) bool { return deg[next[x]] < deg[next[y]] })
			order = append(order, next...)
		}
	}
	perm := make([]int, n)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = n - 1 - newIdx
	}
	return perm
}

// hasDegreeTie reports whether two vertices of vs have the same degree.
func hasDegreeTie(vs, deg []int) bool {
	seen := make(map[int]bool, len(vs))
	for _, v := range vs {
		if seen[deg[v]] {
			return true
		}
		seen[deg[v]] = true
	}
	return false
}

// randomTieGraph is a random symmetric pattern on n vertices. Its hubs
// join 13 to 60 vertices each, so BFS frontiers exceed the 12 entries
// that pdqsort leaves to insertion sort; its other edges are few, so
// most vertices share a handful of degrees and frontiers hold ties.
// The graph may fall apart into several components.
func randomTieGraph(rng *rand.Rand, n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	join := func(i, j int) {
		if i != j {
			b.AddSym(i, j, -1)
		}
	}
	for h := 1 + rng.Intn(4); h > 0; h-- {
		u := rng.Intn(n)
		for k := 13 + rng.Intn(48); k > 0; k-- {
			join(u, rng.Intn(n))
		}
	}
	for k := rng.Intn(n); k > 0; k-- {
		join(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

// RCM must give the oracle's permutation on the paper's networks: the
// passive package and the rank-14, 36 and 288 deployments.
func TestRCMMatchesSortSliceOnPaperNetworks(t *testing.T) {
	for _, rank := range []int{0, 14, 36, 288} {
		ls := newLayerSystem(t, rank)
		if got, want := sparse.RCM(ls.g), rcmSortSlice(ls.g, nil); !slices.Equal(got, want) {
			t.Errorf("rank %d: RCM differs from the sort.Slice ordering", rank)
		}
	}
}

// RCM must give the oracle's permutation on random graphs whose
// frontiers hold degree ties, including frontiers longer than 12, where
// pdqsort partitions instead of insertion-sorting: there the order of
// equal-degree vertices depends on the sort's exact sequence of
// comparisons and swaps.
func TestRCMMatchesSortSliceOnDegreeTies(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	maxTie := 0
	for k := 0; k < 200; k++ {
		a := randomTieGraph(rng, 20+rng.Intn(200))
		if got, want := sparse.RCM(a), rcmSortSlice(a, &maxTie); !slices.Equal(got, want) {
			t.Fatalf("graph %d (%d vertices): RCM %v, sort.Slice %v", k, a.Rows(), got, want)
		}
	}
	if maxTie <= 12 {
		t.Fatalf("largest frontier with a degree tie holds %d vertices, want more than 12", maxTie)
	}
}

// RCM allocates its work buffers once per call: the same number of
// allocations on a 16-vertex grid and on the 1,232-node full-cover
// network.
func TestRCMAllocatesNothingPerVertex(t *testing.T) {
	grid, g := gridMatrix(4, 4), newLayerSystem(t, 288).g
	small := testing.AllocsPerRun(20, func() { sparse.RCM(grid) })
	large := testing.AllocsPerRun(20, func() { sparse.RCM(g) })
	if !num.ExactEqual(small, large) || large > 8 {
		t.Fatalf("RCM makes %v allocations on 16 vertices and %v on %d, want the same at most 8",
			small, large, g.Rows())
	}
}

func TestRCMReducesBandwidthOnGrid(t *testing.T) {
	// A grid numbered in a scrambled order has terrible bandwidth; RCM
	// should restore something close to the natural nx bandwidth.
	nx, ny := 12, 12
	a := gridMatrix(nx, ny)
	// Scramble with a random permutation first.
	rng := rand.New(rand.NewSource(9))
	scramble := rng.Perm(nx * ny)
	scrambled := permute(a, scramble)
	before := sparse.Bandwidth(scrambled)
	perm := sparse.RCM(scrambled)
	after := sparse.Bandwidth(permute(scrambled, perm))
	if after >= before {
		t.Fatalf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	if after > 3*nx {
		t.Fatalf("RCM bandwidth %d far above expected O(nx)=%d", after, nx)
	}
}

func TestRCMIsPermutation(t *testing.T) {
	a := gridMatrix(7, 5)
	perm := sparse.RCM(a)
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("invalid permutation %v", perm)
		}
		seen[p] = true
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint 2-node components.
	b := sparse.NewBuilder(4, 4)
	b.AddSym(0, 1, -1)
	b.Add(0, 0, 1.5)
	b.Add(1, 1, 1.5)
	b.AddSym(2, 3, -1)
	b.Add(2, 2, 1.5)
	b.Add(3, 3, 1.5)
	perm := sparse.RCM(b.Build())
	seen := make([]bool, 4)
	for _, p := range perm {
		seen[p] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing from permutation %v", i, perm)
		}
	}
}

// TestRCMDeterministicOnDegreeTies orders odd cycles, where the last
// BFS level holds two vertices of equal degree, many times over: the
// tie must be broken the same way every time.
func TestRCMDeterministicOnDegreeTies(t *testing.T) {
	for _, n := range []int{5, 7, 9, 11, 101} {
		b := sparse.NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b.Add(i, i, 2.5)
			b.AddSym(i, (i+1)%n, -1)
		}
		a := b.Build()
		first := sparse.RCM(a)
		for k := 0; k < 200; k++ {
			if got := sparse.RCM(a); !slices.Equal(got, first) {
				t.Fatalf("cycle of %d: call %d ordered %v, first call %v", n, k, got, first)
			}
		}
	}
}

func TestInvertPerm(t *testing.T) {
	perm := []int{2, 0, 1}
	inv := sparse.InvertPerm(perm)
	for oldIdx, newIdx := range perm {
		if inv[newIdx] != oldIdx {
			t.Fatalf("InvertPerm wrong: %v -> %v", perm, inv)
		}
	}
}

func TestPermuteVec(t *testing.T) {
	x := []float64{10, 20, 30}
	perm := []int{2, 0, 1}
	got := sparse.PermuteVec(perm, x)
	want := []float64{20, 30, 10}
	for i := range want {
		if !num.ExactEqual(got[i], want[i]) {
			t.Fatalf("PermuteVec = %v, want %v", got, want)
		}
	}
}

// Property: solving the permuted system and permuting back gives the
// original solution.
func TestRCMSolveEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		a := randomLaplacian(rng, n, 0, 0.2)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		direct, err := sparse.SolveCG(a, b, sparse.CGOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		perm := sparse.RCM(a)
		ap := permute(a, perm)
		bp := sparse.PermuteVec(perm, b)
		solved, err := sparse.SolveCG(ap, bp, sparse.CGOptions{Tol: 1e-12})
		if err != nil {
			return false
		}
		back := sparse.PermuteVec(sparse.InvertPerm(perm), solved.X)
		for i := range back {
			d := back[i] - direct.X[i]
			if d > 1e-6 || d < -1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
