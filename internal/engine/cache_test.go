package engine

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// blob is the cached value of these tests: a pointer, so a hit is
// observable as identity with the first build's result.
type blob struct{ data []float64 }

// key pairs a name with an exact float, like a content hash plus an
// operating point.
type key struct {
	name string
	x    float64
}

// countingBuild returns a build function that counts its calls and
// allocates a fresh blob each time.
func countingBuild(builds *atomic.Int64) func() (*blob, error) {
	return func() (*blob, error) {
		builds.Add(1)
		return &blob{data: make([]float64, 8)}, nil
	}
}

func TestCacheHitReturnsSameValue(t *testing.T) {
	c := NewKeyedCache[string, *blob]("test.cache", 4)
	var builds atomic.Int64
	b1, err := c.Do("a", countingBuild(&builds))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := c.Do("a", func() (*blob, error) {
		t.Fatal("second Do rebuilt a cached key")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("cache returned a different value for the same key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 1/1", st.Hits, st.Misses)
	}
}

func TestCacheKeysAreExact(t *testing.T) {
	c := NewKeyedCache[key, *blob]("test.cache", 8)
	var builds atomic.Int64
	build := countingBuild(&builds)
	// Different name, same float: distinct entries.
	if _, err := c.Do(key{"a", 1}, build); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(key{"b", 1}, build); err != nil {
		t.Fatal(err)
	}
	// Same name, nearby-but-different float: distinct entry.
	if _, err := c.Do(key{"a", 1 + 1e-15}, build); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 3 {
		t.Fatalf("%d builds, want 3 (no key aliasing)", got)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewKeyedCache[string, *blob]("test.cache", 2)
	var builds atomic.Int64
	build := countingBuild(&builds)
	c.Do("a", build)
	c.Do("b", build)
	c.Do("a", build) // refresh a: b is now least recently used
	c.Do("d", build) // evicts b
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	c.Do("a", build) // still resident
	c.Do("b", build) // evicted: rebuild
	if got := builds.Load(); got != 4 {
		t.Fatalf("%d builds, want 4 (a, b, d, then b again)", got)
	}
}

func TestCacheCachesFailures(t *testing.T) {
	c := NewKeyedCache[key, *blob]("test.cache", 4)
	var builds atomic.Int64
	errBuild := errors.New("infeasible input")
	fail := func() (*blob, error) {
		builds.Add(1)
		return nil, errBuild
	}
	k := key{"chip", math.Pi}
	if _, err := c.Do(k, fail); !errors.Is(err, errBuild) {
		t.Fatalf("err = %v, want the build error", err)
	}
	if _, err := c.Do(k, fail); !errors.Is(err, errBuild) {
		t.Fatalf("err = %v, want the cached build error", err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds, want 1 (failures are cached too)", got)
	}
}

func TestCacheConcurrentSameKeyBuildsOnce(t *testing.T) {
	c := NewKeyedCache[string, *blob]("test.cache", 4)
	var builds atomic.Int64
	const goroutines = 16
	results := make([]*blob, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := c.Do("shared", countingBuild(&builds))
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = b
		}(g)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds for one key under contention, want 1", got)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatal("goroutines saw different values for one key")
		}
	}
}

func TestCacheEvictionCount(t *testing.T) {
	c := NewKeyedCache[int, *blob]("test.cache", 2)
	var builds atomic.Int64
	for i := 0; i < 5; i++ {
		if _, err := c.Do(i, countingBuild(&builds)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 5 || st.Evictions != 3 || st.Len != 2 {
		t.Fatalf("stats = %+v, want 5 misses, 3 evictions, len 2", st)
	}
}

func TestCacheResetStatsKeepsEntries(t *testing.T) {
	c := NewKeyedCache[string, *blob]("test.cache", 4)
	var builds atomic.Int64
	if _, err := c.Do("k", countingBuild(&builds)); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("counters after ResetStats = %+v, want zeros", st)
	}
	if st.Len != 1 {
		t.Fatalf("ResetStats dropped entries: len = %d, want 1", st.Len)
	}
	// The entry must still hit without rebuilding.
	if _, err := c.Do("k", func() (*blob, error) {
		t.Fatal("ResetStats invalidated a resident entry")
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("hits after post-reset access = %d, want 1", st.Hits)
	}
}

// TestCacheStatsRaceWithConcurrentDo exercises Stats and ResetStats
// while Do traffic is in flight — the -race gate for the stats API the
// obs snapshot reads.
func TestCacheStatsRaceWithConcurrentDo(t *testing.T) {
	c := NewKeyedCache[key, *blob]("test.cache", 4)
	var builds atomic.Int64
	var workers sync.WaitGroup
	for g := 0; g < 6; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			for i := 0; i < 60; i++ {
				k := key{string(rune('a' + (g+i)%5)), float64(i % 9)}
				if _, err := c.Do(k, countingBuild(&builds)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st := c.Stats()
			if st.Len > 4 {
				t.Errorf("resident entries %d exceed capacity", st.Len)
				return
			}
			if i%10 == 0 {
				c.ResetStats()
			}
		}
	}()
	workers.Wait()
	close(stop)
	<-readerDone
	// Final coherence: counters are non-decreasing between reads.
	a := c.Stats()
	b := c.Stats()
	if b.Hits < a.Hits || b.Misses < a.Misses || b.Evictions < a.Evictions {
		t.Fatalf("counters went backwards: %+v then %+v", a, b)
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	// Hammer the cache with more keys than capacity from many
	// goroutines; under -race this is the cache's core safety test.
	c := NewKeyedCache[key, *blob]("test.cache", 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := key{string(rune('a' + i%10)), float64(i % 7)}
				b, err := c.Do(k, func() (*blob, error) {
					return &blob{data: []float64{k.x, 1}}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				// Reads of a shared value must be safe.
				if len(b.data) != 2 || math.Float64bits(b.data[0]) != math.Float64bits(k.x) {
					t.Errorf("value %v for key %v", b.data, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 4 {
		t.Fatalf("cache grew to %d entries, cap is 4", c.Len())
	}
}
