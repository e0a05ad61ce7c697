package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilDisabledPath pins the core contract: with no registry
// installed, every handle is nil and every operation on it is a no-op
// rather than a panic.
func TestNilDisabledPath(t *testing.T) {
	if SetGlobal(nil) != nil {
		t.Fatal("test requires a clean global registry")
	}
	r := Enabled()
	if r != nil {
		t.Fatalf("Enabled() = %v, want nil with no registry installed", r)
	}
	r.Counter("x").Inc()
	r.Counter("x").Add(5)
	r.Gauge("x").Set(3)
	r.Gauge("x").Add(-1)
	r.FloatGauge("x").Set(1.5)
	r.Histogram("x").Observe(10)
	r.EventCtx(context.Background(), "x", 1)
	r.EnableTraceOpts(TraceOptions{})
	if r.Tracing() {
		t.Error("nil registry reports a recorded trace")
	}
	_, sp := r.StartSpanCtx(context.Background(), "x")
	sp.End()
	if got := r.Now(); got != 0 {
		t.Errorf("nil registry Now() = %d, want 0", got)
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteTrace: %v", err)
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Counters) != 0 {
		t.Errorf("nil registry snapshot = %+v, want empty", snap)
	}
	if got := r.Counter("x").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := New(&ManualClock{})
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	if got := r.Counter("c").Value(); got != 4 {
		t.Errorf("counter = %d, want 4", got)
	}
	r.Gauge("g").Set(7)
	r.Gauge("g").Add(-2)
	if got := r.Gauge("g").Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	r.FloatGauge("f").Set(2.5)
	if got := r.FloatGauge("f").Value(); !(got > 2.49 && got < 2.51) {
		t.Errorf("float gauge = %g, want 2.5", got)
	}

	h := r.Histogram("h")
	for _, v := range []uint64{0, 1, 2, 3, 1000} {
		h.Observe(v)
	}
	hv := h.value()
	if hv.Count != 5 || hv.Sum != 1006 || hv.Min != 0 || hv.Max != 1000 {
		t.Errorf("histogram value = %+v", hv)
	}
	// Buckets: 0 -> bucket 0; 1 -> le 1; 2,3 -> le 3; 1000 -> le 1023.
	wantBuckets := map[uint64]uint64{0: 1, 1: 1, 3: 2, 1023: 1}
	if len(hv.Buckets) != len(wantBuckets) {
		t.Fatalf("buckets = %+v, want %v", hv.Buckets, wantBuckets)
	}
	for _, b := range hv.Buckets {
		if wantBuckets[b.Le] != b.Count {
			t.Errorf("bucket le=%d count=%d, want %d", b.Le, b.Count, wantBuckets[b.Le])
		}
	}
}

// TestHandleIdentity checks that repeated lookups return the same
// handle, so cached handles and by-name lookups observe one value.
func TestHandleIdentity(t *testing.T) {
	r := New(&ManualClock{})
	if r.Counter("same") != r.Counter("same") {
		t.Error("Counter lookups returned different handles")
	}
	if r.Histogram("same") != r.Histogram("same") {
		t.Error("Histogram lookups returned different handles")
	}
}

func TestSpanWithManualClock(t *testing.T) {
	clk := &ManualClock{}
	r := New(clk)
	r.EnableTraceOpts(TraceOptions{})
	_, sp := r.StartSpanCtx(context.Background(), "unit.work")
	clk.Advance(250 * time.Nanosecond)
	sp.End()

	hv := r.Histogram("span.unit.work_ns").value()
	if hv.Count != 1 || hv.Sum != 250 {
		t.Errorf("span histogram = %+v, want count=1 sum=250", hv)
	}

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ev TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("trace line not JSON: %v\n%s", err, buf.String())
	}
	if ev.Kind != "span" || ev.Name != "unit.work" || ev.DurNS != 250 || ev.ID != 1 {
		t.Errorf("trace event = %+v", ev)
	}
}

func TestTraceCapDrops(t *testing.T) {
	r := New(&ManualClock{})
	r.EnableTraceOpts(TraceOptions{Capacity: 2})
	for i := 0; i < 5; i++ {
		r.EventCtx(context.Background(), "e", float64(i))
	}
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // 2 events + dropped marker
		t.Fatalf("trace lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[2], `"dropped":3`) {
		t.Errorf("missing drop marker: %s", lines[2])
	}
}

func TestSnapshotTextSortedAndStable(t *testing.T) {
	r := New(&ManualClock{})
	r.Counter("b.second").Inc()
	r.Counter("a.first").Add(2)
	r.Gauge("depth").Set(4)
	r.Histogram("iters").Observe(12)
	r.Histogram("work_ns").Observe(99)

	text := r.Snapshot().Text()
	if !strings.Contains(text, "counter a.first") || !strings.Contains(text, "counter b.second") {
		t.Fatalf("snapshot text missing counters:\n%s", text)
	}
	if strings.Index(text, "a.first") > strings.Index(text, "b.second") {
		t.Errorf("counters not sorted:\n%s", text)
	}
	if text != r.Snapshot().Text() {
		t.Error("two snapshots of an unchanged registry differ")
	}

	stripped := r.Snapshot().WithoutTimings()
	if _, ok := stripped.Histograms["work_ns"]; ok {
		t.Error("WithoutTimings kept a _ns histogram")
	}
	if _, ok := stripped.Histograms["iters"]; !ok {
		t.Error("WithoutTimings dropped a non-timing histogram")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New(&ManualClock{})
	r.Counter("n").Add(7)
	r.FloatGauge("res").Set(1e-12)
	b, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["n"] != 7 {
		t.Errorf("counter n = %d after round trip", back.Counters["n"])
	}
	if math.Abs(back.FloatGauges["res"]-1e-12) > 1e-20 {
		t.Errorf("float gauge res = %g after round trip", back.FloatGauges["res"])
	}
}

func TestHTTPHandler(t *testing.T) {
	r := New(&ManualClock{})
	r.Counter("served").Add(3)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["served"] != 3 {
		t.Errorf("/metrics counters = %v", snap.Counters)
	}

	resp2, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status = %d", resp2.StatusCode)
	}
}

// TestConcurrentRegistry hammers one registry from many goroutines;
// meaningful under -race.
func TestConcurrentRegistry(t *testing.T) {
	r := New(WallClock())
	r.EnableTraceOpts(TraceOptions{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared").Inc()
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("vals").Observe(uint64(i))
				_, sp := r.StartSpanCtx(context.Background(), "work")
				sp.End()
				if i%50 == 0 {
					_ = r.Snapshot().Text()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*200 {
		t.Errorf("shared counter = %d, want %d", got, 8*200)
	}
	hv := r.Histogram("vals").value()
	if hv.Count != 8*200 || hv.Min != 0 || hv.Max != 199 {
		t.Errorf("vals histogram = %+v", hv)
	}
}

func TestFlagsDisabled(t *testing.T) {
	f := &Flags{}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatalf("Start with no flags = %+v, want nil session", s)
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil session Close: %v", err)
	}
	if Enabled() != nil {
		t.Error("disabled Start installed a global registry")
	}
}

func TestFlagsMetricsOut(t *testing.T) {
	out := t.TempDir() + "/run.json"
	tr := t.TempDir() + "/trace.jsonl"
	f := &Flags{MetricsOut: out, Trace: tr}
	s, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() == nil {
		t.Fatal("Start did not install the registry")
	}
	Enabled().Counter("flagged").Add(2)
	Enabled().EventCtx(context.Background(), "marker", 1.5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if Enabled() != nil {
		t.Error("Close left the global registry installed")
	}

	var snap Snapshot
	b, err := readFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["flagged"] != 2 {
		t.Errorf("metrics-out counters = %v", snap.Counters)
	}
	tb, err := readFile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tb), `"marker"`) {
		t.Errorf("trace file missing event:\n%s", tb)
	}
}

// readFile is a tiny os.ReadFile wrapper kept here so the test file
// reads top-down.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }
