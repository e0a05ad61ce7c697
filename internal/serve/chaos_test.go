package serve

// Service-layer chaos: inject each failure class at the serve sites
// and prove the contract — every class maps to its documented HTTP
// status and tecerr code, the panic never leaves the request that
// suffered it, and the server keeps answering healthy traffic
// throughout. make serve-chaos runs this file under -race.

import (
	"net/http"
	"sync"
	"testing"

	"tecopt/internal/faults"
)

// TestChaosStatusContract drives one injected fault of every class
// through the full HTTP pipeline (specs via faults.ParseSpec, the same
// grammar tecserve's -faults flag uses) and asserts the status-code
// table, then proves the server still serves cleanly afterwards.
func TestChaosStatusContract(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	solve := solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3}

	cases := []struct {
		name   string
		spec   string
		status int
		code   string
	}{
		{"panic", "panic@serve.handle", http.StatusInternalServerError, "panic"},
		{"diverged", "error@serve.handle:code=diverged", http.StatusInternalServerError, "diverged"},
		{"not_pd", "error@serve.handle:code=not_pd", http.StatusUnprocessableEntity, "not_pd"},
		{"cancelled", "error@serve.handle:code=cancelled", http.StatusGatewayTimeout, "cancelled"},
		{"internal", "error@serve.handle:code=internal", http.StatusInternalServerError, "internal"},
		{"invalid_input", "error@serve.admit:code=invalid_input", http.StatusBadRequest, "invalid_input"},
		{"overload", "error@serve.admit:code=overload", http.StatusTooManyRequests, "overload"},
		{"unavailable", "error@serve.admit:code=unavailable", http.StatusServiceUnavailable, "unavailable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := faults.ParseSpec(tc.spec)
			if err != nil {
				t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
			}
			faults.Install(in)
			defer faults.Uninstall()

			status, m, hdr := post(t, ts.URL+"/v1/solve", solve)
			if status != tc.status {
				t.Fatalf("status = %d, body %v, want %d", status, m, tc.status)
			}
			if code := errCode(t, m); code != tc.code {
				t.Errorf("error.code = %q, want %q", code, tc.code)
			}
			if tc.status == http.StatusTooManyRequests && hdr.Get("Retry-After") == "" {
				t.Error("429 missing Retry-After")
			}
			if fired := in.Fired(faults.SiteServeHandle) + in.Fired(faults.SiteServeAdmit); fired == 0 {
				t.Error("injected rule never fired")
			}

			// Availability: the very next request, faults off, succeeds.
			faults.Uninstall()
			status, m, _ = post(t, ts.URL+"/v1/solve", solve)
			if status != http.StatusOK {
				t.Fatalf("post-fault request: status %d, body %v — server did not recover", status, m)
			}
		})
	}
}

// TestChaosConcurrentAvailability hammers the server with seeded
// probabilistic faults — typed errors and worker panics mixed into
// concurrent traffic — and asserts per-request isolation: every
// response is either a clean 200 or a correctly-classed failure, the
// health probe never flinches, and full service resumes the moment
// the injector is removed.
func TestChaosConcurrentAvailability(t *testing.T) {
	in, err := faults.ParseSpec("seed=42;error@serve.handle:prob=0.3,code=diverged;panic@serve.handle:every=7")
	if err != nil {
		t.Fatal(err)
	}
	faults.Install(in)
	defer faults.Uninstall()

	_, ts := newTestServer(t, Options{Workers: 4, Queue: 64})
	solve := solveRequest{common: common{Chip: tinyChip(), Sites: []int{5}}, CurrentA: 0.3}

	const requests = 32
	counts := make(map[int]int)
	codes := make(map[string]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, m, _ := post(t, ts.URL+"/v1/solve", solve)
			mu.Lock()
			defer mu.Unlock()
			counts[status]++
			if status != http.StatusOK {
				codes[errCode(t, m)] = true
			}
		}()
	}
	wg.Wait()

	for status := range counts {
		if status != http.StatusOK && status != http.StatusInternalServerError {
			t.Errorf("unexpected status %d under handle-site chaos (counts %v)", status, counts)
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Error("no request succeeded under 30% fault probability — isolation failed")
	}
	if counts[http.StatusInternalServerError] == 0 {
		t.Error("no request failed — injector inert, test proves nothing")
	}
	for code := range codes {
		if code != "diverged" && code != "panic" {
			t.Errorf("failure carried unexpected code %q", code)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d under chaos, want 200", resp.StatusCode)
	}

	faults.Uninstall()
	status, m, _ := post(t, ts.URL+"/v1/solve", solve)
	if status != http.StatusOK {
		t.Fatalf("post-chaos request: status %d, body %v", status, m)
	}
}
