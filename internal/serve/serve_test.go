package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/faults"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// tinyChip is a 4x4 explicit power map with coarse 5x5 layers — the
// same small model the library chaos tests use, kept fast under -race.
func tinyChip() ChipSpec {
	p := make([]float64, 16)
	for i := range p {
		p[i] = 0.15
	}
	p[5] = 1.2
	return ChipSpec{Cols: 4, Rows: 4, SpreaderCells: 5, SinkCells: 5, TilePowerW: p}
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one JSON request and decodes the response body into a
// generic map alongside the status code.
func post(t *testing.T, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("response %q is not JSON: %v", data, err)
	}
	return resp.StatusCode, m, resp.Header
}

// errCode extracts error.code from a decoded error body.
func errCode(t *testing.T, m map[string]any) string {
	t.Helper()
	e, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("response has no error object: %v", m)
	}
	code, _ := e["code"].(string)
	return code
}

func TestSolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, m, _ := post(t, ts.URL+"/v1/solve", solveRequest{
		common:   common{Chip: tinyChip(), Sites: []int{5}},
		CurrentA: 0.5,
		Field:    true,
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, m)
	}
	peak, ok := m["peak_c"].(float64)
	if !ok || peak < 25 || peak > 200 {
		t.Errorf("peak_c = %v, want a plausible temperature", m["peak_c"])
	}
	if _, ok := m["tec_power_w"].(float64); !ok {
		t.Errorf("tec_power_w = %v, want a finite number", m["tec_power_w"])
	}
	tiles, ok := m["tiles_c"].([]any)
	if !ok || len(tiles) != 16 {
		t.Errorf("tiles_c has %d entries, want 16", len(tiles))
	}
}

func TestOptimizeAndRunawayEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := common{Chip: tinyChip(), Sites: []int{5}}

	status, m, _ := post(t, ts.URL+"/v1/runaway-limit", runawayRequest{common: req})
	if status != http.StatusOK {
		t.Fatalf("runaway status = %d, body %v", status, m)
	}
	if has, _ := m["has_limit"].(bool); !has {
		t.Fatalf("tiny system should have a finite runaway limit: %v", m)
	}
	lambda, _ := m["lambda_m_a"].(float64)
	if lambda <= 0 {
		t.Fatalf("lambda_m_a = %v, want > 0", m["lambda_m_a"])
	}

	status, m, _ = post(t, ts.URL+"/v1/optimize-current", optimizeRequest{common: req})
	if status != http.StatusOK {
		t.Fatalf("optimize status = %d, body %v", status, m)
	}
	iopt, _ := m["i_opt_a"].(float64)
	if iopt <= 0 || iopt >= lambda {
		t.Errorf("i_opt_a = %v, want in (0, lambda_m=%g)", m["i_opt_a"], lambda)
	}
	if m["evaluations"].(float64) <= 0 {
		t.Errorf("evaluations = %v, want > 0", m["evaluations"])
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, m, _ := post(t, ts.URL+"/v1/sweep", sweepRequest{
		common:    common{Chip: tinyChip(), Sites: []int{5}},
		K:         5,
		L:         5,
		CurrentsA: []float64{0, 0.2, 0.4, 0.6},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, m)
	}
	if int(m["done"].(float64)) != 4 || int(m["total"].(float64)) != 4 {
		t.Fatalf("done/total = %v/%v, want 4/4", m["done"], m["total"])
	}
	points := m["points"].([]any)
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	for i, p := range points {
		pt := p.(map[string]any)
		if _, ok := pt["h"].(float64); !ok {
			t.Errorf("point %d has no finite h: %v", i, pt)
		}
	}
}

// TestSweepRunawayPoints pins the Theorem 2 contract on the wire: a
// current past lambda_m is a runaway=true point with a null h, not an
// error.
func TestSweepRunawayPoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, m, _ := post(t, ts.URL+"/v1/runaway-limit", runawayRequest{
		common: common{Chip: tinyChip(), Sites: []int{5}},
	})
	if status != http.StatusOK {
		t.Fatalf("runaway status = %d", status)
	}
	lambda := m["lambda_m_a"].(float64)

	status, m, _ = post(t, ts.URL+"/v1/sweep", sweepRequest{
		common:    common{Chip: tinyChip(), Sites: []int{5}},
		K:         5,
		L:         5,
		CurrentsA: []float64{lambda / 2, lambda * 1.5},
	})
	if status != http.StatusOK {
		t.Fatalf("sweep status = %d, body %v", status, m)
	}
	points := m["points"].([]any)
	first := points[0].(map[string]any)
	if _, ok := first["h"].(float64); !ok {
		t.Errorf("below-limit point has no h: %v", first)
	}
	second := points[1].(map[string]any)
	if run, _ := second["runaway"].(bool); !run {
		t.Errorf("past-limit point not marked runaway: %v", second)
	}
}

// TestSweepMatchesHklBitwise pins the sweep endpoint to the library:
// every h on the wire is bitwise Hkl at the same (i, k, l) on a System
// of its own, across the SMW regime and the near-limit window, and a
// current past lambda_m reads runaway.
func TestSweepMatchesHklBitwise(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ref, err := New(Options{}).resolveSystem(tinyChip(), []int{5})
	if err != nil {
		t.Fatal(err)
	}
	lambda, err := ref.RunawayLimit(core.RunawayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const k, l = 0, 5
	currents := []float64{0, 0.25 * lambda, 0.5 * lambda, 0.9 * lambda, lambda * (1 - 1e-7), 1.5 * lambda}
	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	status, m, _ := post(t, ts.URL+"/v1/sweep", sweepRequest{
		common:    common{Chip: tinyChip(), Sites: []int{5}},
		K:         k,
		L:         l,
		CurrentsA: currents,
	})
	obs.SetGlobal(prev)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, m)
	}
	for _, c := range []string{"thermal.reusable.smw_hits", "thermal.reusable.near_limit"} {
		if r.Counter(c).Value() == 0 {
			t.Errorf("%s = 0: the sweep did not cover that regime", c)
		}
	}
	points := m["points"].([]any)
	if len(points) != len(currents) {
		t.Fatalf("points = %d, want %d", len(points), len(currents))
	}
	for idx, p := range points {
		pt := p.(map[string]any)
		want, err := ref.Hkl(currents[idx], ref.PN.SilNode[k], ref.PN.SilNode[l])
		if errors.Is(err, tecerr.ErrNotPD) {
			if run, _ := pt["runaway"].(bool); !run || pt["h"] != nil {
				t.Errorf("point %d past lambda_m: %v, want runaway with no h", idx, pt)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		h, ok := pt["h"].(float64)
		if !ok || math.Float64bits(h) != math.Float64bits(want) {
			t.Errorf("point %d (i=%g): h = %v, Hkl %v", idx, currents[idx], pt["h"], want)
		}
	}
	if run, _ := points[len(points)-1].(map[string]any)["runaway"].(bool); !run {
		t.Errorf("current 1.5*lambda_m not marked runaway: %v", points[len(points)-1])
	}
}

// TestHugeDeadlineIsCapped: a deadline_ms whose nanosecond count
// overflows int64 runs under MaxDeadline instead of expiring at once.
func TestHugeDeadlineIsCapped(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, m, _ := post(t, ts.URL+"/v1/sweep", sweepRequest{
		common:    common{Chip: tinyChip(), Sites: []int{5}, DeadlineMS: 10000000000000},
		K:         5,
		L:         5,
		CurrentsA: []float64{0, 0.2, 0.4},
	})
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v, want 200", status, m)
	}
	if done := int(m["done"].(float64)); done != 3 {
		t.Errorf("done = %d, want 3", done)
	}
}

func TestInvalidInputs(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		path string
		body any
	}{
		{"bad chip name", "/v1/solve", solveRequest{common: common{Chip: ChipSpec{Name: "nope"}}, CurrentA: 0.1}},
		{"negative current", "/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: -1}},
		{"name and powers", "/v1/solve", solveRequest{common: common{Chip: func() ChipSpec { c := tinyChip(); c.Name = "alpha"; return c }(), Sites: []int{5}}, CurrentA: 0.1}},
		{"empty sweep", "/v1/sweep", sweepRequest{common: common{Chip: tinyChip(), Sites: []int{5}}}},
		{"sweep tile range", "/v1/sweep", sweepRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, K: 99, CurrentsA: []float64{0.1}}},
		{"sweep negative current", "/v1/sweep", sweepRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentsA: []float64{-1}}},
		{"sweep points over cap", "/v1/sweep", sweepRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentsA: make([]float64, maxSweepPoints+1)}},
		{"bad method", "/v1/optimize-current", optimizeRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, Method: "newton"}},
		{"negative deadline", "/v1/solve", map[string]any{"deadline_ms": -5}},
		{"bad site", "/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{99}}, CurrentA: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, m, _ := post(t, ts.URL+tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %v, want 400", status, m)
			}
			if code := errCode(t, m); code != "invalid_input" {
				t.Errorf("error.code = %q, want invalid_input", code)
			}
		})
	}

	t.Run("not json", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{nope")))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("body over cap", func(t *testing.T) {
		body := []byte(`{"current_a":0.1}`)
		body = append(body, bytes.Repeat([]byte(" "), maxBodyBytes+1-len(body))...)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		var m map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if w.Code != http.StatusBadRequest || errCode(t, m) != "invalid_input" {
			t.Errorf("status = %d, body %v, want 400 invalid_input", w.Code, m)
		}
	})
	t.Run("wrong verb", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("Allow = %q, want POST", allow)
		}
	})
}

// TestOversizedModelsRejected pins the model-size caps and the tiling
// overflow check: each body is one step past a limit and must get 400
// invalid_input before any system is assembled.
func TestOversizedModelsRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	strip := func(cols, rows int) ChipSpec {
		return ChipSpec{Cols: cols, Rows: rows, TilePowerW: make([]float64, cols*rows)}
	}
	cells := func(spreader, sink int) ChipSpec {
		c := tinyChip()
		c.SpreaderCells, c.SinkCells = spreader, sink
		return c
	}
	cases := []struct {
		name string
		chip ChipSpec
	}{
		{"cols", strip(maxTiling+1, 1)},
		{"rows", strip(1, maxTiling+1)},
		{"spreader cells", cells(maxLayerCells+1, 5)},
		{"sink cells", cells(5, maxLayerCells+1)},
		{"negative sink cells", cells(5, -1)},
		// Cols*Rows wraps to 16, the length of the power vector.
		{"overflowing tiling", ChipSpec{Cols: 1<<62 + 1, Rows: 16, TilePowerW: make([]float64, 16)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, m, _ := post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tc.chip}, CurrentA: 0.1})
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, body %v, want 400", status, m)
			}
			if code := errCode(t, m); code != "invalid_input" {
				t.Errorf("error.code = %q, want invalid_input", code)
			}
		})
	}
	if st := s.SystemCacheStats(); st.Misses != 0 {
		t.Fatalf("rejected requests reached the system cache: %+v", st)
	}
}

// TestSystemCacheReuse pins the cross-request reuse contract: two
// requests naming the same chip+deployment share one assembled system
// through the content-addressed cache.
func TestSystemCacheReuse(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.4}
	var first float64
	for n := 0; n < 3; n++ {
		status, m, _ := post(t, ts.URL+"/v1/solve", req)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d, body %v", n, status, m)
		}
		if n == 0 {
			first = m["peak_c"].(float64)
		} else if got := m["peak_c"].(float64); math.Abs(got-first) > 1e-12 {
			t.Errorf("request %d: peak_c %v != first %v (cache must not change answers)", n, got, first)
		}
	}
	stats := s.SystemCacheStats()
	if stats.Misses != 1 || stats.Hits < 2 {
		t.Errorf("system cache stats = %+v, want 1 miss and >= 2 hits", stats)
	}
	// A different deployment must not alias.
	status, _, _ := post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{6}}, CurrentA: 0.4})
	if status != http.StatusOK {
		t.Fatalf("second deployment: status %d", status)
	}
	if got := s.SystemCacheStats().Misses; got != 2 {
		t.Errorf("misses = %d after new deployment, want 2", got)
	}
}

// TestBackpressure429 pins the admission contract: with one worker, no
// waiting room, and an occupied slot, the next request is shed with
// 429, an overload code, and a Retry-After header.
func TestBackpressure429(t *testing.T) {
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteServeHandle, Kind: faults.KindSleep, Sleep: 400 * time.Millisecond,
	}))
	defer faults.Uninstall()

	s, ts := newTestServer(t, Options{Workers: 1, Queue: -1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, m, _ := post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3})
		if status != http.StatusOK {
			t.Errorf("slow occupant finished with %d, body %v", status, m)
		}
	}()
	// Wait until the occupant holds the only slot.
	waitFor(t, time.Second, func() bool { return s.Gate().Inflight() == 1 })

	status, m, hdr := post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body %v, want 429", status, m)
	}
	if code := errCode(t, m); code != "overload" {
		t.Errorf("error.code = %q, want overload", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	wg.Wait()
}

// TestDeadlinePartialSweep pins the 504 contract: a sweep whose
// deadline expires mid-flight answers 504 cancelled and flushes the
// points that finished as the partial payload.
func TestDeadlinePartialSweep(t *testing.T) {
	// 60ms of injected latency per sweep point against a 150ms deadline
	// finishes 2-3 of the 8 points.
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteSweepPoint, Kind: faults.KindSleep, Sleep: 60 * time.Millisecond,
	}))
	defer faults.Uninstall()

	_, ts := newTestServer(t, Options{})
	status, m, _ := post(t, ts.URL+"/v1/sweep", sweepRequest{
		common:    common{Chip: tinyChip(), Sites: []int{5}, DeadlineMS: 150},
		K:         5,
		L:         5,
		CurrentsA: []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45},
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %v, want 504", status, m)
	}
	if code := errCode(t, m); code != "cancelled" {
		t.Errorf("error.code = %q, want cancelled", code)
	}
	partial, ok := m["partial"].(map[string]any)
	if !ok {
		t.Fatalf("504 body has no partial sweep: %v", m)
	}
	done := int(partial["done"].(float64))
	if done < 1 || done >= 8 {
		t.Errorf("partial done = %d, want in [1, 8)", done)
	}
	finished := 0
	for _, p := range partial["points"].([]any) {
		if p != nil {
			finished++
		}
	}
	if finished != done {
		t.Errorf("partial has %d non-null points but done = %d", finished, done)
	}
}

// TestDrain walks the graceful-drain state machine: draining flips
// healthz and sheds new requests with 503 while the in-flight request
// finishes, and Drain returns cleanly once it has.
func TestDrain(t *testing.T) {
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteServeHandle, Kind: faults.KindSleep, Sleep: 300 * time.Millisecond,
	}))
	defer faults.Uninstall()

	s, ts := newTestServer(t, Options{Workers: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, m, _ := post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3})
		if status != http.StatusOK {
			t.Errorf("in-flight request finished with %d, body %v, want 200 despite drain", status, m)
		}
	}()
	waitFor(t, time.Second, func() bool { return s.Gate().Inflight() == 1 })

	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	status, m, _ := post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3})
	if status != http.StatusServiceUnavailable {
		t.Errorf("new request during drain: status = %d, want 503", status)
	}
	if code := errCode(t, m); code != "unavailable" {
		t.Errorf("error.code = %q, want unavailable", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := s.Gate().Inflight(); got != 0 {
		t.Errorf("inflight after drain = %d, want 0", got)
	}
	wg.Wait()
}

// TestDrainDeadline pins the forced-shutdown arm: a drain that cannot
// finish in time reports a cancelled error instead of hanging.
func TestDrainDeadline(t *testing.T) {
	faults.Install(faults.New(1).Arm(faults.Rule{
		Site: faults.SiteServeHandle, Kind: faults.KindSleep, Sleep: 600 * time.Millisecond,
	}))
	defer faults.Uninstall()

	s, ts := newTestServer(t, Options{Workers: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL+"/v1/solve", solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3})
	}()
	waitFor(t, time.Second, func() bool { return s.Gate().Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if !errors.Is(err, tecerr.ErrCancelled) {
		t.Fatalf("Drain past deadline = %v, want CodeCancelled", err)
	}
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
