// Command tecload is the open-loop load generator for tecserve: it
// fires requests at a fixed arrival rate (not waiting for responses —
// open loop, so server slowdown cannot hide in a closed feedback
// loop), measures per-request latency, and reports p50/p90/p99 plus
// throughput and a per-status breakdown.
//
// Usage:
//
//	tecload [-url http://host:port] [-endpoint solve|optimize-current|
//	        runaway-limit|sweep] [-chip alpha] [-sites 66,77]
//	        [-current 0.5] [-rate 50] [-duration 5s] [-deadline-ms N]
//	        [-self] [-self-workers N] [-self-queue N]
//
// With -self (or no -url) it serves an in-process tecserve instance
// and drives that — the hermetic mode `make bench-serve` uses.
//
// The summary ends with bare benchmark result lines
// (BenchmarkServe_<endpoint>_p50 ... ns/op) that cmd/benchjson parses,
// so serving latency joins the repo's benchmark snapshot flow:
//
//	tecload -self -rate 100 -duration 5s | benchjson -merge BENCH_serve.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tecopt/internal/serve"
	"tecopt/internal/tecerr"
)

func main() {
	os.Exit(run())
}

func run() int {
	url := flag.String("url", "", "target tecserve base URL (empty: serve in-process, implies -self)")
	self := flag.Bool("self", false, "serve an in-process tecserve instance and load it")
	selfWorkers := flag.Int("self-workers", 4, "in-process server worker slots")
	selfQueue := flag.Int("self-queue", 64, "in-process server queue depth")
	endpoint := flag.String("endpoint", "solve", "endpoint to drive: solve, optimize-current, runaway-limit or sweep")
	chip := flag.String("chip", "alpha", "chip for the request bodies: alpha, hc01..hc10, hc:<seed>")
	sites := flag.String("sites", "66", "comma-separated TEC site tiles")
	current := flag.Float64("current", 0.5, "supply current for solve bodies (A)")
	sweepCurrents := flag.String("sweep-currents", "0.1,0.2,0.3,0.4", "comma-separated currents for sweep bodies (A)")
	rate := flag.Float64("rate", 50, "open-loop arrival rate (requests/second)")
	duration := flag.Duration("duration", 5*time.Second, "load duration")
	deadlineMS := flag.Int64("deadline-ms", 0, "per-request deadline_ms (0: server default)")
	flag.Parse()
	if flag.NArg() > 0 {
		return fail(tecerr.Newf(tecerr.CodeInvalidInput, "tecload",
			"tecload: unexpected arguments %q", flag.Args()))
	}
	if *rate <= 0 || *duration <= 0 {
		return fail(tecerr.New(tecerr.CodeInvalidInput, "tecload", "tecload: -rate and -duration must be positive"))
	}

	siteList, err := parseIntList(*sites)
	if err != nil {
		return fail(err)
	}
	currents, err := parseFloatList(*sweepCurrents)
	if err != nil {
		return fail(err)
	}
	body, path, err := buildRequest(*endpoint, *chip, siteList, *current, currents, *deadlineMS)
	if err != nil {
		return fail(err)
	}

	base := *url
	if base == "" || *self {
		srv := serve.New(serve.Options{Workers: *selfWorkers, Queue: *selfQueue})
		ln, err := net.Listen("tcp", "localhost:0")
		if err != nil {
			return fail(tecerr.Wrapf(tecerr.CodeUnavailable, "tecload", err, "tecload: self listen"))
		}
		hs := &http.Server{Handler: srv.Handler()}
		go func() { _ = hs.Serve(ln) }()
		defer hs.Close()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "tecload: self-serving on %s (%d workers, queue %d)\n",
			base, *selfWorkers, *selfQueue)
	}

	fmt.Fprintf(os.Stderr, "tecload: %s %s at %.0f req/s for %s\n", path, base, *rate, *duration)
	stats := runLoad(&http.Client{}, base+path, body, *rate, *duration)
	if stats.completed == 0 {
		return fail(tecerr.New(tecerr.CodeUnavailable, "tecload", "tecload: no request completed"))
	}
	stats.report(os.Stdout, benchName(*endpoint))
	if stats.ok == 0 {
		return fail(tecerr.New(tecerr.CodeDegraded, "tecload", "tecload: no request succeeded"))
	}
	return 0
}

// result is one completed request.
type result struct {
	status  int
	latency time.Duration
}

// stats aggregates a load run.
type stats struct {
	scheduled int // requests the rate and duration call for
	sent      int
	completed int
	ok        int
	byStatus  map[int]int
	okLatency []time.Duration // latencies of 2xx responses, sorted by report
	elapsed   time.Duration
}

// runLoad fires POST bodies at url on an open-loop schedule: one
// request every 1/rate seconds for the given duration, each on its own
// goroutine, never gated on earlier responses. A tick the loop is too
// late for is dropped, so fewer requests may be sent than scheduled.
func runLoad(client *http.Client, url string, body []byte, rate float64, duration time.Duration) *stats {
	interval := time.Duration(float64(time.Second) / rate)
	// Each request writes its own slot, read after wg.Wait: nothing
	// bounds how many a run can send.
	var results []*result
	var wg sync.WaitGroup

	start := time.Now()
	ticker := time.NewTicker(interval)
	for time.Since(start) < duration {
		<-ticker.C
		res := new(result)
		results = append(results, res)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			res.latency = time.Since(t0)
			if err != nil {
				return // status 0: transport error
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			res.status = resp.StatusCode
		}()
	}
	ticker.Stop()
	wg.Wait()

	s := &stats{
		scheduled: int(duration / interval),
		sent:      len(results),
		byStatus:  map[int]int{},
		elapsed:   time.Since(start),
	}
	for _, r := range results {
		s.completed++
		s.byStatus[r.status]++
		if r.status >= 200 && r.status < 300 {
			s.ok++
			s.okLatency = append(s.okLatency, r.latency)
		}
	}
	return s
}

// report prints the human summary followed by the benchjson-parsable
// result lines.
func (s *stats) report(w io.Writer, bench string) {
	sort.Slice(s.okLatency, func(i, j int) bool { return s.okLatency[i] < s.okLatency[j] })
	fmt.Fprintf(w, "requests    %d sent of %d scheduled, %d completed, %d ok\n", s.sent, s.scheduled, s.completed, s.ok)
	statuses := make([]int, 0, len(s.byStatus))
	for st := range s.byStatus {
		statuses = append(statuses, st)
	}
	sort.Ints(statuses)
	for _, st := range statuses {
		label := strconv.Itoa(st)
		if st == 0 {
			label = "transport-error"
		}
		fmt.Fprintf(w, "  status %-15s %d\n", label, s.byStatus[st])
	}
	throughput := float64(s.completed) / s.elapsed.Seconds()
	fmt.Fprintf(w, "throughput  %.1f req/s over %s\n", throughput, s.elapsed.Round(time.Millisecond))
	if s.ok == 0 {
		return
	}
	p50 := s.percentile(0.50)
	p90 := s.percentile(0.90)
	p99 := s.percentile(0.99)
	fmt.Fprintf(w, "latency     p50 %s  p90 %s  p99 %s  max %s\n",
		p50.Round(time.Microsecond), p90.Round(time.Microsecond),
		p99.Round(time.Microsecond), s.okLatency[len(s.okLatency)-1].Round(time.Microsecond))
	// Bare benchmark lines in testing-package format; cmd/benchjson
	// parses these into BENCH_serve.json via -merge.
	fmt.Fprintf(w, "Benchmark%s_p50 %d %d ns/op\n", bench, s.ok, p50.Nanoseconds())
	fmt.Fprintf(w, "Benchmark%s_p99 %d %d ns/op\n", bench, s.ok, p99.Nanoseconds())
	fmt.Fprintf(w, "Benchmark%s_rps %d %d ns/op\n", bench, s.completed, int64(float64(time.Second)/throughput))
}

// percentile returns the q-quantile of the sorted ok latencies
// (nearest-rank).
func (s *stats) percentile(q float64) time.Duration {
	if len(s.okLatency) == 0 {
		return 0
	}
	i := int(q*float64(len(s.okLatency))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s.okLatency) {
		i = len(s.okLatency) - 1
	}
	return s.okLatency[i]
}

// benchName maps an endpoint to its benchmark identifier
// (BenchmarkServe_<name>).
func benchName(endpoint string) string {
	return "Serve_" + strings.ReplaceAll(endpoint, "-", "_")
}

// buildRequest assembles the JSON body and URL path for one endpoint.
func buildRequest(endpoint, chip string, sites []int, current float64, sweepCurrents []float64, deadlineMS int64) ([]byte, string, error) {
	body := map[string]any{
		"chip":  map[string]any{"name": chip},
		"sites": sites,
	}
	if deadlineMS > 0 {
		body["deadline_ms"] = deadlineMS
	}
	var path string
	switch endpoint {
	case "solve":
		path = "/v1/solve"
		body["current_a"] = current
	case "optimize-current":
		path = "/v1/optimize-current"
	case "runaway-limit":
		path = "/v1/runaway-limit"
	case "sweep":
		path = "/v1/sweep"
		if len(sites) > 0 {
			body["k"], body["l"] = sites[0], sites[0]
		}
		body["currents_a"] = sweepCurrents
	default:
		return nil, "", tecerr.Newf(tecerr.CodeInvalidInput, "tecload",
			"tecload: unknown endpoint %q (want solve, optimize-current, runaway-limit or sweep)", endpoint)
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, "", tecerr.Wrapf(tecerr.CodeInternal, "tecload", err, "tecload: marshaling body")
	}
	return raw, path, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "tecload", "tecload: bad integer %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "tecload", "tecload: bad number %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return tecerr.ExitCode(err)
}
