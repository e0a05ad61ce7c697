package engine

import (
	"context"
	"sync/atomic"
	"testing"
)

// BenchmarkEngine_Map measures pool dispatch overhead against the bare
// serial loop on trivially cheap work items — the floor any real
// speedup has to clear.
func BenchmarkEngine_Map(b *testing.B) {
	const n = 256
	var sink atomic.Int64
	work := func(i int) error {
		sink.Add(int64(i))
		return nil
	}
	for _, bm := range []struct {
		name string
		pool Pool
	}{{"serial", Serial}, {"parallel", Pool{}}} {
		b.Run(bm.name, func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				if err := bm.pool.MapCtx(context.Background(), n, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngine_CacheDo measures the cost of a cache hit: the lock,
// the LRU move and the entry's sync.Once.
func BenchmarkEngine_CacheDo(b *testing.B) {
	c := NewKeyedCache[string, []float64]("bench.cache", 4)
	build := func() ([]float64, error) { return make([]float64, 64), nil }
	if _, err := c.Do("k", build); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := c.Do("k", build); err != nil {
			b.Fatal(err)
		}
	}
}
