// Package obs is the solver observability layer: counters, gauges,
// histograms and lightweight trace spans threaded through every hot
// path of the thermal pipeline (engine pool, factorization cache,
// CG/Cholesky solvers, runaway search, transient steppers), plus text
// and JSON snapshot exposition and an optional debug HTTP endpoint.
//
// Everything is stdlib-only. The design center is the DISABLED path:
// observability is off unless a Registry has been installed (via
// Enable or SetGlobal), and every instrumentation site reduces to one
// atomic pointer load plus a nil check when it is off. Metric handle
// methods are nil-receiver safe, so instrumented code never branches
// beyond `if r := obs.Enabled(); r != nil { ... }`.
//
// Naming convention: metric names are dot-separated
// ("tecserve.system_cache.hits"); every duration-valued metric ends in
// "_ns" (nanoseconds from the registry clock). The snapshot code
// relies on that suffix to separate deterministic metrics (counts,
// iterations) from timing metrics when comparing runs — see
// Snapshot.WithoutTimings.
//
// Time never comes from time.Now() in instrumented packages: the
// Registry owns an injected monotonic Clock, and the obsclock teclint
// analyzer enforces the rule repo-wide.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric. The zero value
// is ready to use; a nil *Counter ignores all writes.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 metric (queue depths, in-flight
// workers). A nil *Gauge ignores all writes.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is an instantaneous float64 metric (last CG residual,
// commanded current). A nil *FloatGauge ignores all writes.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the gauge (0 for nil).
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of histogram buckets: one for zero plus one
// per power of two of the uint64 range.
const histBuckets = 65

// Histogram accumulates uint64 observations into fixed log-spaced
// (power-of-two) buckets: bucket 0 counts zeros, bucket i counts values
// v with 2^(i-1) <= v < 2^i. The fixed layout keeps Observe lock-free
// (one atomic add) and snapshots mergeable. Durations are observed in
// nanoseconds; iteration counts are observed as-is. A nil *Histogram
// ignores all writes.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	min    atomic.Uint64 // valid iff count > 0; initialized to MaxUint64
	max    atomic.Uint64
	once   sync.Once
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.once.Do(func() { h.min.Store(math.MaxUint64) })
	h.counts[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Bucket is one non-empty histogram bucket in a snapshot: Count values
// were observed with value <= Le (and greater than the previous
// bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramValue is the exported state of one histogram.
type HistogramValue struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// value snapshots the histogram (nil-safe, returns zero value).
func (h *Histogram) value() HistogramValue {
	if h == nil {
		return HistogramValue{}
	}
	out := HistogramValue{Count: h.count.Load(), Sum: h.sum.Load()}
	if out.Count > 0 {
		out.Min = h.min.Load()
		out.Max = h.max.Load()
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := uint64(math.MaxUint64)
		if i < 64 {
			le = 1<<uint(i) - 1
		}
		out.Buckets = append(out.Buckets, Bucket{Le: le, Count: n})
	}
	return out
}

// Registry holds a process's named metrics and the monotonic clock that
// times its spans. A nil *Registry is the disabled state: every method
// is nil-safe and returns nil handles whose writes are no-ops.
type Registry struct {
	clock Clock

	mu      sync.RWMutex
	counter map[string]*Counter
	gauge   map[string]*Gauge
	fgauge  map[string]*FloatGauge
	hist    map[string]*Histogram

	// trace is the recorded trace; nil when no trace is recorded. It is
	// read by every span and event, so it is an atomic pointer outside
	// mu.
	trace atomic.Pointer[traceBuffer]
	// spanID allocates span IDs: sequential from 1, so serial runs under
	// an injected clock produce byte-identical traces.
	spanID atomic.Uint64
	// spanHists interns the "span.<name>_ns" histogram handles so the
	// hot-loop StartSpanCtx/End pair never rebuilds the name string
	// (map[string]*Histogram).
	spanHists sync.Map
}

// New creates a registry using the given clock (nil selects the wall
// clock).
func New(clock Clock) *Registry {
	if clock == nil {
		clock = WallClock()
	}
	return &Registry{
		clock:   clock,
		counter: make(map[string]*Counter),
		gauge:   make(map[string]*Gauge),
		fgauge:  make(map[string]*FloatGauge),
		hist:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counter[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counter[name]; c == nil {
		c = &Counter{}
		r.counter[name] = c
	}
	return c
}

// Gauge returns the named int gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauge[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauge[name]; g == nil {
		g = &Gauge{}
		r.gauge[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.fgauge[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.fgauge[name]; g == nil {
		g = &FloatGauge{}
		r.fgauge[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hist[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hist[name]; h == nil {
		h = &Histogram{}
		r.hist[name] = h
	}
	return h
}

// Now reads the registry clock in monotonic nanoseconds (0 on nil).
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// ObserveSince records the elapsed registry-clock time since start
// (floored at zero) into the named histogram — the one-liner form of
// the start := r.Now() / Observe(now-start) pattern.
func (r *Registry) ObserveSince(name string, start int64) {
	if r == nil {
		return
	}
	d := r.clock.Now() - start
	if d < 0 {
		d = 0
	}
	r.Histogram(name).Observe(uint64(d))
}

// sortedNames returns m's keys in sorted order (generic over the four
// handle maps).
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// global is the process-wide registry installed by Enable/SetGlobal;
// nil means observability is disabled.
var global atomic.Pointer[Registry]

// Enabled returns the installed global registry, or nil when
// observability is off. This is THE instrumentation entry point:
//
//	if r := obs.Enabled(); r != nil {
//		r.Counter("pkg.thing").Inc()
//	}
func Enabled() *Registry {
	return global.Load()
}

// SetGlobal installs r as the process-wide registry (nil disables).
// Call once at startup, before the instrumented work begins; the
// previous registry is returned so tests can restore it.
func SetGlobal(r *Registry) *Registry {
	return global.Swap(r)
}
