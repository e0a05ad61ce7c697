package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Snapshot is a point-in-time export of every metric in a registry.
// Maps marshal with sorted keys under encoding/json and Text sorts
// explicitly, so two snapshots of identical registries serialize
// byte-identically — the property the determinism tests pin.
type Snapshot struct {
	Counters    map[string]uint64         `json:"counters,omitempty"`
	Gauges      map[string]int64          `json:"gauges,omitempty"`
	FloatGauges map[string]float64        `json:"float_gauges,omitempty"`
	Histograms  map[string]HistogramValue `json:"histograms,omitempty"`
}

// Snapshot exports the current metric values (nil registry → empty
// snapshot, never nil).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:    map[string]uint64{},
		Gauges:      map[string]int64{},
		FloatGauges: map[string]float64{},
		Histograms:  map[string]HistogramValue{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counter {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauge {
		s.Gauges[name] = g.Value()
	}
	for name, g := range r.fgauge {
		s.FloatGauges[name] = g.Value()
	}
	for name, h := range r.hist {
		s.Histograms[name] = h.value()
	}
	return s
}

// isTiming reports whether a metric name denotes a time-derived value,
// by the repo-wide "_ns" suffix convention.
func isTiming(name string) bool { return strings.HasSuffix(name, "_ns") }

// WithoutTimings returns a copy of the snapshot with every time-derived
// metric (name ending "_ns") removed. What remains — counts,
// iterations, residual gauges, cache statistics — must be byte-identical
// across two serial runs of the same workload; the determinism tests
// compare exactly this view.
func (s *Snapshot) WithoutTimings() *Snapshot {
	out := &Snapshot{
		Counters:    map[string]uint64{},
		Gauges:      map[string]int64{},
		FloatGauges: map[string]float64{},
		Histograms:  map[string]HistogramValue{},
	}
	for name, v := range s.Counters {
		if !isTiming(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if !isTiming(name) {
			out.Gauges[name] = v
		}
	}
	for name, v := range s.FloatGauges {
		if !isTiming(name) {
			out.FloatGauges[name] = v
		}
	}
	for name, v := range s.Histograms {
		if !isTiming(name) {
			out.Histograms[name] = v
		}
	}
	return out
}

// JSON renders the snapshot as indented JSON with a trailing newline.
func (s *Snapshot) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Text renders the snapshot as a sorted, aligned, human-readable block:
//
//	counter tecserve.system_cache.hits        412
//	hist    span.core.factor_ns               count=96 sum=1.2e+08 min=...
func (s *Snapshot) Text() string {
	var b strings.Builder
	for _, name := range sortedNames(s.Counters) {
		fmt.Fprintf(&b, "counter %-42s %d\n", name, s.Counters[name])
	}
	for _, name := range sortedNames(s.Gauges) {
		fmt.Fprintf(&b, "gauge   %-42s %d\n", name, s.Gauges[name])
	}
	for _, name := range sortedNames(s.FloatGauges) {
		fmt.Fprintf(&b, "gauge   %-42s %g\n", name, s.FloatGauges[name])
	}
	for _, name := range sortedNames(s.Histograms) {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "hist    %-42s count=%d sum=%d min=%d max=%d mean=%s\n",
			name, h.Count, h.Sum, h.Min, h.Max, histMean(h))
	}
	return b.String()
}

// histMean renders Sum/Count, or "-" for an empty histogram.
func histMean(h HistogramValue) string {
	if h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(h.Sum)/float64(h.Count))
}
