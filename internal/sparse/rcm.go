package sparse

import (
	"cmp"
	"slices"
)

// RCM computes a reverse Cuthill-McKee ordering for the symmetric sparsity
// pattern of a. The returned slice maps old index -> new index. Applying
// it with Permute concentrates the nonzeros near the diagonal, which
// improves cache behaviour of SpMV and the quality of IC(0).
//
// Disconnected components are ordered one after another, each started from
// a pseudo-peripheral vertex found by repeated BFS. The neighbours of a
// vertex are read from a's own column arrays, and the work buffers are
// allocated once per call, not per vertex.
func RCM(a *CSR) []int {
	n := a.Rows()
	deg := make([]int, n)
	level := make([]int, n)
	maxDeg := 0
	for i := range deg {
		for _, j := range a.neighbours(i) {
			if j != i {
				deg[i]++
			}
		}
		maxDeg = max(maxDeg, deg[i])
		level[i] = -1
	}
	byDegree := func(x, y int) int { return cmp.Compare(deg[x], deg[y]) }

	visited := make([]bool, n)
	order := make([]int, 0, n)
	reached := make([]int, 0, n)
	next := make([]int, 0, maxDeg)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		var root int
		root, reached = pseudoPeripheral(a, deg, visited, level, start, reached)
		// Cuthill-McKee BFS from root, neighbors by increasing degree;
		// order doubles as the queue, since vertices leave a FIFO queue
		// in the order they entered it. A row's own diagonal is skipped
		// as visited.
		head := len(order)
		order = append(order, root)
		visited[root] = true
		for ; head < len(order); head++ {
			u := order[head]
			next = next[:0]
			for _, v := range a.neighbours(u) {
				if !visited[v] {
					visited[v] = true
					next = append(next, v)
				}
			}
			slices.SortFunc(next, byDegree)
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

// neighbours returns the stored columns of row i, its diagonal included:
// the vertex itself and its neighbours in the symmetric pattern. The
// slice aliases a's storage.
func (a *CSR) neighbours(i int) []int { return a.colIdx[a.rowPtr[i]:a.rowPtr[i+1]] }

// pseudoPeripheral finds a vertex of (locally) maximal eccentricity in the
// component containing start, using the standard alternating-BFS heuristic.
// level holds -1 for every vertex on entry and again on return. It
// returns buf, grown to the reached vertices, for the next call to reuse.
func pseudoPeripheral(a *CSR, deg []int, visited []bool, level []int, start int, buf []int) (int, []int) {
	root, lastEcc := start, -1
	for {
		var ecc int
		buf, ecc = bfsLevels(a, visited, level, root, buf[:0])
		// Pick the minimum-degree vertex in the last level, the first
		// one reached on a tie, and reset the levels for the next BFS.
		best, bestDeg := root, int(^uint(0)>>1)
		for _, v := range buf {
			if level[v] == ecc && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
			level[v] = -1
		}
		if ecc <= lastEcc || best == root {
			return root, buf
		}
		lastEcc = ecc
		root = best
	}
}

// bfsLevels runs a BFS from root over the unvisited vertices, setting
// level[v] for each vertex it reaches. It returns those vertices in the
// order reached, appended to buf, and the eccentricity of root within
// the component. A row's own diagonal is skipped as already reached.
func bfsLevels(a *CSR, visited []bool, level []int, root int, buf []int) ([]int, int) {
	level[root] = 0
	reached := append(buf, root)
	for head := 0; head < len(reached); head++ {
		u := reached[head]
		for _, v := range a.neighbours(u) {
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
