package engine

import (
	"container/list"
	"sync"

	"tecopt/internal/obs"
)

// KeyedCache is a bounded, concurrency-safe LRU generic over both the
// key and the cached value. The serving layer keeps its
// content-hash-keyed system cache in one. A failed build is cached too:
// the value for a given key is deterministic, so repeated requests for
// an infeasible input need not rebuild to refail.
//
// Concurrent requests for the same key are deduplicated: one goroutine
// builds, the rest block on the entry's sync.Once and share the result.
// A KeyedCache must not be copied after first use.
type KeyedCache[K comparable, V any] struct {
	metric string // metrics namespace, e.g. "tecserve.system_cache"

	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; elements hold *entry[K, V]
	items map[K]*list.Element

	hits, misses, evictions uint64
}

// CacheStats is a consistent view of the cache counters, taken under
// the cache lock so hits/misses/evictions belong to one instant.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Len       int    `json:"len"`
}

// entry is one cache slot. val and err are written exactly once, inside
// once; readers always go through once.Do so the happens-before edge is
// the Once itself, not the cache lock.
type entry[K comparable, V any] struct {
	key  K
	once sync.Once
	val  V
	err  error
}

// NewKeyedCache creates a cache holding at most capacity values (at
// least one). name is the metric namespace: the cache reports under
// "<name>.{hits,misses,evictions,len,build_ns}".
func NewKeyedCache[K comparable, V any](name string, capacity int) *KeyedCache[K, V] {
	capacity = max(capacity, 1)
	return &KeyedCache[K, V]{
		metric: name,
		cap:    capacity,
		ll:     list.New(),
		items:  make(map[K]*list.Element, capacity),
	}
}

// Do returns the value for k, building it with build on the first
// request. The build runs outside the cache lock, so a slow build never
// blocks hits on other keys; concurrent callers of the same key share
// one build. When observability is enabled the cache reports
// hits/misses/evictions and the build latency under its metric
// namespace.
func (c *KeyedCache[K, V]) Do(k K, build func() (V, error)) (V, error) {
	r := obs.Enabled()
	c.mu.Lock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		e := el.Value.(*entry[K, V])
		c.mu.Unlock()
		if r != nil {
			r.Counter(c.metric + ".hits").Inc()
		}
		e.once.Do(func() { e.val, e.err = build() }) // waits if mid-build
		return e.val, e.err
	}
	e := &entry[K, V]{key: k}
	el := c.ll.PushFront(e)
	c.items[k] = el
	c.misses++
	var evicted uint64
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		c.evictions++
		evicted++
	}
	resident := c.ll.Len()
	c.mu.Unlock()

	if r != nil {
		r.Counter(c.metric + ".misses").Inc()
		if evicted > 0 {
			r.Counter(c.metric + ".evictions").Add(evicted)
		}
		r.Gauge(c.metric + ".len").Set(int64(resident))
		start := r.Now()
		e.once.Do(func() { e.val, e.err = build() })
		r.Histogram(c.metric + ".build_ns").Observe(clampNS(r.Now() - start))
		return e.val, e.err
	}
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// Len reports the number of resident entries.
func (c *KeyedCache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports the cumulative hit/miss/eviction counters and the
// resident entry count. Safe to call concurrently with Do.
func (c *KeyedCache[K, V]) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Len: c.ll.Len()}
}

// ResetStats zeroes the counters while keeping every resident entry —
// the benchmark hook for measuring one phase of a longer run. Safe to
// call concurrently with Do; in-flight operations are attributed to
// whichever side of the reset their counter increment lands on.
func (c *KeyedCache[K, V]) ResetStats() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// PublishStats copies the current counters into registry r as
// "<metric>.{hits,misses,evictions,len}" so a snapshot taken at exit
// reflects the cache even if parts of the run executed before
// observability was enabled. Callers register it as a snapshot hook:
// obs.RegisterSnapshotHook(cache.PublishStats).
func (c *KeyedCache[K, V]) PublishStats(r *obs.Registry) {
	if r == nil {
		return
	}
	st := c.Stats()
	// Counters are monotonic: top them up to the locked-in totals
	// rather than double-adding.
	topUp(r.Counter(c.metric+".hits"), st.Hits)
	topUp(r.Counter(c.metric+".misses"), st.Misses)
	topUp(r.Counter(c.metric+".evictions"), st.Evictions)
	r.Gauge(c.metric + ".len").Set(int64(st.Len))
}

// topUp raises counter c to at least total.
func topUp(c *obs.Counter, total uint64) {
	if cur := c.Value(); total > cur {
		c.Add(total - cur)
	}
}
