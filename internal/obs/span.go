package obs

import (
	"context"
	"strconv"
	"sync"
)

// Span is a lightweight trace span: a named interval on the registry
// clock. Spans are value types — starting and ending one allocates
// nothing when no trace is recorded, and ending always feeds the
// "span.<name>_ns" histogram so timings appear in metric snapshots even
// without a trace file. The histogram handle is interned at
// StartSpanCtx, so End never rebuilds the metric name. The zero Span
// (from a nil registry) is a no-op.
//
// When a trace is recorded (EnableTraceOpts) a span additionally
// carries an ID, a parent link and a track, all shared through one
// heap cell so every copy of the value — including the one a
// `defer sp.End()` captures — sees later Annotate calls.
type Span struct {
	r     *Registry
	name  string
	start int64
	hist  *Histogram // interned "span.<name>_ns" handle
	extra *spanExtra // trace record state; nil unless a trace is recorded
}

// spanExtra is the trace-record half of a span. It is allocated only
// when a trace is recorded, and shared by all copies of the Span value.
type spanExtra struct {
	id     uint64
	parent uint64
	track  int64
	mu     sync.Mutex
	attrs  []Attr
}

// Attr is one key/value annotation on a span or event. Attributes are
// kept as an ordered slice (not a map) so traces serialize
// deterministically.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// spanHist returns the interned "span.<name>_ns" histogram handle,
// building the name string only on the first span of each name.
func (r *Registry) spanHist(name string) *Histogram {
	if h, ok := r.spanHists.Load(name); ok {
		return h.(*Histogram)
	}
	h := r.Histogram("span." + name + "_ns")
	r.spanHists.Store(name, h)
	return h
}

// Tracing reports whether a trace is being recorded (EnableTraceOpts
// was called). Nil-safe; instrumentation sites use it to gate work that
// only pays off in a trace: per-solve spans, per-probe events and
// attribute formatting.
func (r *Registry) Tracing() bool {
	return r != nil && r.trace.Load() != nil
}

// StartSpanCtx opens a span and closes it with End. When a trace is
// recorded, the span takes a fresh sequential ID, becomes a child of
// the span carried by ctx (if any), takes ctx's track, and the returned
// context carries it, so deeper solve layers parent to it. Otherwise
// it returns ctx unchanged; on a nil registry it is a no-op.
func (r *Registry) StartSpanCtx(ctx context.Context, name string) (context.Context, Span) {
	if r == nil {
		return ctx, Span{}
	}
	s := Span{r: r, name: name, start: r.clock.Now(), hist: r.spanHist(name)}
	if r.Tracing() {
		s.extra = &spanExtra{id: r.spanID.Add(1), track: TrackFromContext(ctx)}
		if parent := SpanFromContext(ctx); parent.extra != nil {
			s.extra.parent = parent.extra.id
		}
		ctx = context.WithValue(ctx, spanKey{}, s)
	}
	return ctx, s
}

// ID returns the span's trace ID (0 when no trace is recorded or the
// span is the zero value).
func (s Span) ID() uint64 {
	if s.extra == nil {
		return 0
	}
	return s.extra.id
}

// ParentID returns the ID of the span's parent (0 for a root span or
// when no trace is recorded).
func (s Span) ParentID() uint64 {
	if s.extra == nil {
		return 0
	}
	return s.extra.parent
}

// Track returns the span's track (worker attribution; 0 is the main
// track).
func (s Span) Track() int64 {
	if s.extra == nil {
		return 0
	}
	return s.extra.track
}

// Annotate attaches a key/value attribute to the span's trace record —
// the regime a solve took, a guard-trip reason, a cache outcome. It is
// a no-op unless a trace is recorded, so callers may annotate
// unconditionally on hot paths.
func (s Span) Annotate(key, value string) {
	x := s.extra
	if x == nil {
		return
	}
	x.mu.Lock()
	x.attrs = append(x.attrs, Attr{Key: key, Value: value})
	x.mu.Unlock()
}

// AnnotateInt is Annotate for integer values; the value is formatted
// only when a trace is recorded.
func (s Span) AnnotateInt(key string, v int64) {
	if s.extra == nil {
		return
	}
	s.Annotate(key, strconv.FormatInt(v, 10))
}

// AnnotateFloat is Annotate for float values; the value is formatted
// (shortest round-trip form) only when a trace is recorded.
func (s Span) AnnotateFloat(key string, v float64) {
	if s.extra == nil {
		return
	}
	s.Annotate(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// End closes the span, recording its duration in the span histogram and
// (when a trace is recorded) appending its trace record with the ID,
// parent, track and annotations.
func (s Span) End() {
	if s.r == nil {
		return
	}
	dur := s.r.clock.Now() - s.start
	if dur < 0 {
		dur = 0
	}
	s.hist.Observe(uint64(dur))
	x := s.extra
	if x == nil {
		return
	}
	ev := TraceEvent{Kind: "span", Name: s.name, StartNS: s.start, DurNS: dur, ID: x.id, Parent: x.parent, Track: x.track}
	x.mu.Lock()
	ev.Attrs = x.attrs
	x.mu.Unlock()
	s.r.traceAppend(ev)
}

// EventCtx records a named point value into the trace (bracket
// endpoints of the runaway search, PD probes, controller decisions),
// with the context span as its parent, the context track and the given
// attributes. Without a recorded trace it returns before reading the
// clock.
func (r *Registry) EventCtx(ctx context.Context, name string, value float64, attrs ...Attr) {
	if !r.Tracing() {
		return
	}
	ev := TraceEvent{Kind: "event", Name: name, StartNS: r.clock.Now(), Value: value,
		Track: TrackFromContext(ctx), Attrs: attrs}
	if sp := SpanFromContext(ctx); sp.extra != nil {
		ev.Parent = sp.extra.id
	}
	r.traceAppend(ev)
}
