package sparse

import "math/bits"

// MinDegree computes a minimum-degree ordering of the symmetric sparsity
// pattern of a (George & Liu 1981, ch. 5): it eliminates, one at a time,
// a vertex of least degree in the elimination graph, whose edges are
// the pattern's plus the fill of every elimination so far. The
// returned slice maps old index -> new index. On the paper's networks
// it leaves a Cholesky factor with a fifth to a third of the entries of
// an RCM envelope (DESIGN.md section 12).
//
// The elimination graph is a bitset: row v of an n x ceil(n/64) word
// matrix holds v's current neighbours. Eliminating v ORs v's row into
// each neighbour's row, clears the neighbour itself and v, and updates
// the neighbour's degree by the bits it gained. Degrees live in
// buckets; the pivot is the head of the lowest non-empty bucket, and a
// vertex whose degree changes goes to the head of its new bucket, so
// the ordering is deterministic. The work is a scan of v's row per
// pivot plus, per neighbour, one operation on each nonzero word of it.
//
// The matrix takes n^2/8 bytes: 148 KB at n = 1,088, and 12 MB at the
// largest network the service accepts (n = 9,920), where the ordering
// takes about 40 ms against 4 s for the setup and first read that
// follow it. An approximate-minimum-degree quotient graph, which needs
// O(nnz(A)) memory, is the upgrade if the accepted networks ever grow
// past that.
func MinDegree(a *CSR) []int {
	n := a.Rows()
	w := (n + 63) / 64
	adj := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		for _, j := range a.neighbours(i) {
			if j != i {
				adj[i*w+(j>>6)] |= 1 << (j & 63)
				adj[j*w+(i>>6)] |= 1 << (i & 63)
			}
		}
	}
	deg := make([]int, n)
	b := newDegreeBuckets(n)
	for v := n - 1; v >= 0; v-- {
		for _, x := range adj[v*w : (v+1)*w] {
			deg[v] += bits.OnesCount64(x)
		}
		b.push(v, deg[v])
	}

	perm := make([]int, n)
	words := make([]int, 0, w) // the nonzero words of the pivot's row
	low := 0
	for k := 0; k < n; k++ {
		for b.head[low] < 0 {
			low++
		}
		v := int(b.head[low])
		b.remove(v, low)
		perm[v] = k
		rv := adj[v*w : (v+1)*w]
		words = words[:0]
		for x, m := range rv {
			if m != 0 {
				words = append(words, x)
			}
		}
		for _, wi := range words {
			for m := rv[wi]; m != 0; m &= m - 1 {
				u := wi<<6 | bits.TrailingZeros64(m)
				ru := adj[u*w : (u+1)*w]
				gained := 0
				for _, x := range words {
					gained += bits.OnesCount64(rv[x] &^ ru[x])
					ru[x] |= rv[x]
				}
				ru[u>>6] &^= 1 << (u & 63)
				ru[v>>6] &^= 1 << (v & 63)
				// u gained itself (cleared again) and lost v.
				d := deg[u] + gained - 2
				b.remove(u, deg[u])
				b.push(u, d)
				deg[u] = d
				low = min(low, d)
			}
		}
	}
	return perm
}

// degreeBuckets holds the uneliminated vertices in doubly linked lists,
// one per degree.
type degreeBuckets struct {
	head, next, prev []int32
}

func newDegreeBuckets(n int) *degreeBuckets {
	b := &degreeBuckets{head: make([]int32, n+1), next: make([]int32, n), prev: make([]int32, n)}
	for d := range b.head {
		b.head[d] = -1
	}
	return b
}

// push puts v at the head of bucket d.
func (b *degreeBuckets) push(v, d int) {
	h := b.head[d]
	b.next[v], b.prev[v] = h, -1
	if h >= 0 {
		b.prev[h] = int32(v)
	}
	b.head[d] = int32(v)
}

// remove takes v out of bucket d.
func (b *degreeBuckets) remove(v, d int) {
	p, x := b.prev[v], b.next[v]
	if p >= 0 {
		b.next[p] = x
	} else {
		b.head[d] = x
	}
	if x >= 0 {
		b.prev[x] = p
	}
}
