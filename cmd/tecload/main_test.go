package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tecopt/internal/serve"
)

func TestPercentiles(t *testing.T) {
	s := &stats{}
	for i := 1; i <= 100; i++ {
		s.okLatency = append(s.okLatency, time.Duration(i)*time.Millisecond)
	}
	s.ok = 100
	if got := s.percentile(0.50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", got)
	}
	if got := s.percentile(0.99); got != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
	if got := s.percentile(1.0); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
}

func TestBuildRequest(t *testing.T) {
	body, path, err := buildRequest("solve", "alpha", []int{66}, 0.5, nil, 250)
	if err != nil || path != "/v1/solve" {
		t.Fatalf("buildRequest solve = %q, %v", path, err)
	}
	for _, want := range []string{`"current_a":0.5`, `"deadline_ms":250`, `"name":"alpha"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("solve body %s missing %s", body, want)
		}
	}
	if _, _, err := buildRequest("teleport", "alpha", nil, 0, nil, 0); err == nil {
		t.Error("unknown endpoint accepted")
	}
}

// TestRunLoadAgainstServer drives a real in-process serve.Server at a
// modest open-loop rate and checks the stats plus the benchjson-format
// output lines.
func TestRunLoadAgainstServer(t *testing.T) {
	srv := serve.New(serve.Options{Workers: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := []byte(`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":[0.15,0.15,0.15,0.15,0.15,1.2,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15]},"sites":[5],"current_a":0.4}`)

	s := runLoad(&http.Client{}, ts.URL+"/v1/solve", body, 40, 500*time.Millisecond)
	if s.sent < 10 {
		t.Fatalf("sent = %d, want >= 10 at 40 req/s over 500ms", s.sent)
	}
	if s.completed != s.sent {
		t.Errorf("completed = %d, sent = %d — open loop must account for every request", s.completed, s.sent)
	}
	if s.ok == 0 {
		t.Fatalf("no successful request: statuses %v", s.byStatus)
	}

	var out bytes.Buffer
	s.report(&out, benchName("solve"))
	text := out.String()
	for _, want := range []string{"BenchmarkServe_solve_p50 ", "BenchmarkServe_solve_p99 ", "ns/op", "throughput"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// instantTransport answers every request in process from the handler,
// with no network: the cheapest server a load run can have.
type instantTransport struct{ h http.Handler }

func (t instantTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// A run of more than 16,384 requests must finish and account for every
// request. Results used to pass through a channel of that capacity,
// drained only after every request had finished, so request 16,385
// blocked its sender forever and the run never returned.
func TestRunLoadBeyond16384Requests(t *testing.T) {
	client := &http.Client{Transport: instantTransport{http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}}
	s := runLoad(client, "http://tecload.test/v1/solve", nil, 1e6, time.Second)
	if s.sent <= 16384 {
		t.Fatalf("sent %d requests, want more than 16384", s.sent)
	}
	if s.completed != s.sent || s.ok != s.sent {
		t.Fatalf("sent %d, completed %d, ok %d: every request must be accounted for", s.sent, s.completed, s.ok)
	}
	if s.scheduled != 1000000 {
		t.Errorf("scheduled = %d, want 1000000 at 1e6 req/s over 1s", s.scheduled)
	}
	var out bytes.Buffer
	s.report(&out, benchName("solve"))
	if want := fmt.Sprintf("%d sent of %d scheduled", s.sent, s.scheduled); !strings.Contains(out.String(), want) {
		t.Errorf("report missing %q:\n%s", want, out.String())
	}
}
