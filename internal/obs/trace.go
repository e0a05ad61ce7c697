package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// TraceEvent is one record of the trace stream, serialized as a JSON
// line by WriteTrace and as a Chrome trace-event record by
// WriteTracePerfetto. Zero fields are omitted from the JSON line.
type TraceEvent struct {
	Kind    string  `json:"kind"` // "span" or "event"
	Name    string  `json:"name"`
	StartNS int64   `json:"start_ns"`
	DurNS   int64   `json:"dur_ns,omitempty"`
	Value   float64 `json:"value,omitempty"`
	// ID is the span's ID (sequential from 1); 0 for events.
	ID uint64 `json:"id,omitempty"`
	// Parent is the ID of the enclosing span (0 = root).
	Parent uint64 `json:"parent,omitempty"`
	// Track attributes the record to an execution lane: 0 is the main
	// goroutine, engine pool workers take 1..W.
	Track int64 `json:"track,omitempty"`
	// Attrs carries the span/event annotations in insertion order.
	Attrs []Attr `json:"attrs,omitempty"`
}

// spanKey carries the current Span through a context chain; trackKey
// carries the worker track.
type (
	spanKey  struct{}
	trackKey struct{}
)

// SpanFromContext returns the current span carried by ctx (the zero
// Span when none).
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	sp, _ := ctx.Value(spanKey{}).(Span)
	return sp
}

// ContextWithTrack returns ctx carrying the given track ID; spans and
// events recorded below it are attributed to that track (worker lane)
// in exports. Track 0 is the main goroutine.
func ContextWithTrack(ctx context.Context, track int64) context.Context {
	return context.WithValue(ctx, trackKey{}, track)
}

// TrackFromContext returns the track carried by ctx (0 when none).
func TrackFromContext(ctx context.Context) int64 {
	if ctx == nil {
		return 0
	}
	t, _ := ctx.Value(trackKey{}).(int64)
	return t
}

// requestTracks feeds NextRequestTrack; see below for the numbering.
var requestTracks atomic.Int64

// NextRequestTrack allocates a process-unique trace track for
// one served request, so a server can give every request its own lane
// in the Perfetto view without coordinating IDs. Request tracks count
// down from -1: engine pool workers own the small positive tracks
// (1..W) and 0 is the main goroutine, so negatives can never collide
// with either. Use with ContextWithTrack:
//
//	ctx = obs.ContextWithTrack(ctx, obs.NextRequestTrack())
func NextRequestTrack() int64 {
	return -requestTracks.Add(1)
}

// defaultTraceCap bounds the in-memory trace buffer. A Table I run
// emits a few thousand spans; one million events (~56 MB) leaves room
// for long transient simulations while still bounding a runaway loop.
const defaultTraceCap = 1 << 20

// traceBuffer is a bounded, mutex-guarded event log. Past capacity it
// counts drops instead of growing.
type traceBuffer struct {
	mu      sync.Mutex
	events  []TraceEvent
	cap     int
	dropped uint64
}

// TraceOptions configures trace recording.
type TraceOptions struct {
	// Capacity bounds the in-memory event buffer (<= 0 selects the
	// default, 2^20 events).
	Capacity int
	// Flight has no effect: every recorded trace carries span IDs,
	// parent links, tracks and attributes. The field remains only for
	// callers that still set it.
	Flight bool
}

// EnableTraceOpts turns on trace recording: from then on spans take
// IDs, parent links, tracks and attributes, and spans and events are
// kept in a buffer of opt.Capacity events for WriteTrace and
// WriteTracePerfetto. Without this call spans still feed their
// histograms but no trace is kept. Calling it again on a registry that
// already records a trace changes nothing.
func (r *Registry) EnableTraceOpts(opt TraceOptions) {
	if r == nil {
		return
	}
	if opt.Capacity <= 0 {
		opt.Capacity = defaultTraceCap
	}
	r.trace.CompareAndSwap(nil, &traceBuffer{cap: opt.Capacity})
}

// traceAppend adds ev to the recorded trace. Callers have seen a trace
// installed, and it is never removed.
func (r *Registry) traceAppend(ev TraceEvent) {
	tb := r.trace.Load()
	tb.mu.Lock()
	if len(tb.events) >= tb.cap {
		tb.dropped++
		first := tb.dropped == 1
		tb.mu.Unlock()
		// Surface the truncation: the counter appears in snapshots, and
		// the first drop logs one warning so a silently shortened trace
		// never masquerades as a complete one.
		r.Counter("trace.dropped").Inc()
		if first {
			logWarn("trace buffer full; dropping events",
				"capacity", tb.cap, "event", ev.Name)
		}
		return
	}
	tb.events = append(tb.events, ev)
	tb.mu.Unlock()
}

// traceSnapshot copies the recorded events and drop count out of the
// buffer. Callers have checked that a trace is recorded.
func (r *Registry) traceSnapshot() ([]TraceEvent, uint64) {
	tb := r.trace.Load()
	tb.mu.Lock()
	defer tb.mu.Unlock()
	events := make([]TraceEvent, len(tb.events))
	copy(events, tb.events)
	return events, tb.dropped
}

// WriteTrace serializes the recorded trace as JSON lines (one TraceEvent
// per line) followed by a final line reporting drops, if any. It is a
// no-op on a nil registry or when tracing was never enabled.
func (r *Registry) WriteTrace(w io.Writer) error {
	if !r.Tracing() {
		return nil
	}
	events, dropped := r.traceSnapshot()
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if dropped > 0 {
		return enc.Encode(struct {
			Kind    string `json:"kind"`
			Dropped uint64 `json:"dropped"`
		}{Kind: "dropped", Dropped: dropped})
	}
	return nil
}
