package sparse

import (
	"sort"
)

// RCM computes a reverse Cuthill-McKee ordering for the symmetric sparsity
// pattern of a. The returned slice maps old index -> new index. Applying
// it with Permute concentrates the nonzeros near the diagonal, which
// improves cache behaviour of SpMV and the quality of IC(0).
//
// Disconnected components are ordered one after another, each started from
// a pseudo-peripheral vertex found by repeated BFS.
func RCM(a *CSR) []int {
	n := a.Rows()
	adj := adjacency(a)
	deg := make([]int, n)
	level := make([]int, n)
	for i := range adj {
		deg[i] = len(adj[i])
		level[i] = -1
	}

	visited := make([]bool, n)
	order := make([]int, 0, n)
	var next []int
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		root := pseudoPeripheral(adj, deg, visited, level, start)
		// Cuthill-McKee BFS from root, neighbors by increasing degree;
		// order doubles as the queue, since vertices leave a FIFO queue
		// in the order they entered it.
		head := len(order)
		order = append(order, root)
		visited[root] = true
		for ; head < len(order); head++ {
			u := order[head]
			next = next[:0]
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
			sort.Slice(next, func(x, y int) bool { return deg[next[x]] < deg[next[y]] })
			order = append(order, next...)
		}
	}

	// Reverse and invert into old->new form.
	perm := make([]int, n)
	for newIdx, oldIdx := range order {
		perm[oldIdx] = n - 1 - newIdx
	}
	return perm
}

// adjacency extracts the symmetric adjacency lists (off-diagonal pattern).
func adjacency(a *CSR) [][]int {
	n := a.Rows()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		cols, _ := a.RowNNZ(i)
		for _, j := range cols {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return adj
}

// pseudoPeripheral finds a vertex of (locally) maximal eccentricity in the
// component containing start, using the standard alternating-BFS heuristic.
// level holds -1 for every vertex on entry and again on return.
func pseudoPeripheral(adj [][]int, deg []int, visited []bool, level []int, start int) int {
	var reached []int
	root, lastEcc := start, -1
	for {
		var ecc int
		reached, ecc = bfsLevels(adj, visited, level, root, reached[:0])
		// Pick the minimum-degree vertex in the last level, the first
		// one reached on a tie, and reset the levels for the next BFS.
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

// bfsLevels runs a BFS from root over the unvisited vertices, setting
// level[v] for each vertex it reaches. It returns those vertices in the
// order reached, appended to buf, and the eccentricity of root within
// the component.
func bfsLevels(adj [][]int, visited []bool, level []int, root int, buf []int) ([]int, int) {
	level[root] = 0
	reached := append(buf, root)
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

// Bandwidth returns the maximum |i-j| over stored entries, a quick metric
// for how effective an ordering is.
func Bandwidth(a *CSR) int {
	bw := 0
	for i := 0; i < a.Rows(); i++ {
		cols, _ := a.RowNNZ(i)
		for _, j := range cols {
			d := i - j
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// InvertPerm returns the inverse permutation: if perm[old] = new then
// InvertPerm(perm)[new] = old.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for oldIdx, newIdx := range perm {
		inv[newIdx] = oldIdx
	}
	return inv
}

// PermuteVec returns the vector x reordered so that out[perm[i]] = x[i].
func PermuteVec(perm []int, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, p := range perm {
		out[p] = x[i]
	}
	return out
}
