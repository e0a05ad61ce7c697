package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"tecopt/internal/serve"
)

// liveServer is an in-process tecserve instance on a loopback port.
type liveServer struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client // for setup requests
	done   chan error
}

// startServer serves serve.New(serve.Options{}) on 127.0.0.1.
func startServer() (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Options{})
	s := &liveServer{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits until it has stopped serving.
func (s *liveServer) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// post sends one setup request and returns the body of its 200
// response.
func (s *liveServer) post(path string, body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, out)
	}
	return out, nil
}

// request is one scheduled request of an open-loop run.
type request struct {
	At   time.Duration `json:"at"`   // due time after the start of the run
	Step int           `json:"step"` // index of the rate step it belongs to
	Path string        `json:"path"`
	Body []byte        `json:"body"`
	// Keep asks for the response body, for a correctness check.
	Keep bool `json:"keep"`
}

// outcome is what became of one request.
type outcome struct {
	Late    time.Duration `json:"late"`    // dispatch time minus due time
	Latency time.Duration `json:"latency"` // completion minus due time
	Service time.Duration `json:"service"` // completion minus send time
	Status  int           `json:"status"`  // 0 when no response arrived
	Err     string        `json:"err,omitempty"`
	Body    []byte        `json:"body,omitempty"`
}

// loadPlan is what the load generator process reads on standard input.
type loadPlan struct {
	Base     string        `json:"base"`
	Grace    time.Duration `json:"grace"`
	Requests []request     `json:"requests"`
}

// loadResult is what the load generator process writes on standard
// output.
type loadResult struct {
	Backlog  int       `json:"backlog"`
	Outcomes []outcome `json:"outcomes"`
}

// loadgenEnv marks the benchmark's own executable, started again, as the
// load generator process.
const loadgenEnv = "TECBENCH_LOADGEN"

// loadRun runs reqs against a service from a load generator process of
// its own, so that the service's CPU work cannot delay the generator's
// timers inside one Go scheduler. The plan is encoded before run and the
// outcomes decoded after it, so the benchmark process's CPU time and
// allocations while run executes are the service's alone.
type loadRun struct {
	cmd *exec.Cmd
	out *bytes.Buffer
	n   int // number of requests
}

// Encoded size of one outcome without a body, and room for one kept
// response body (base64): they pre-size the buffer the generator's
// output is copied into.
const (
	outcomeBytes  = 192
	keptBodyBytes = 1024
)

// newLoadRun encodes the plan of reqs against base and prepares the load
// generator process. A request not answered within grace of the last due
// time fails.
func newLoadRun(base string, reqs []request, grace time.Duration) (*loadRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	plan, err := json.Marshal(loadPlan{Base: base, Grace: grace, Requests: reqs})
	if err != nil {
		return nil, err
	}
	size := outcomeBytes * len(reqs)
	for _, r := range reqs {
		if r.Keep {
			size += keptBodyBytes
		}
	}
	out := bytes.NewBuffer(make([]byte, 0, size))
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), loadgenEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(plan), out, os.Stderr
	return &loadRun{cmd: cmd, out: out, n: len(reqs)}, nil
}

// run starts the load generator process and waits for it to end.
func (l *loadRun) run() error {
	if err := l.cmd.Run(); err != nil {
		return fmt.Errorf("load generator: %w", err)
	}
	return nil
}

// result decodes what the load generator process wrote.
func (l *loadRun) result() (loadResult, error) {
	var res loadResult
	if err := json.Unmarshal(l.out.Bytes(), &res); err != nil {
		return loadResult{}, fmt.Errorf("load generator output: %w", err)
	}
	if len(res.Outcomes) != l.n {
		return loadResult{}, fmt.Errorf("load generator returned %d outcomes for %d requests", len(res.Outcomes), l.n)
	}
	return res, nil
}

// loadgenMain is the load generator process: it reads a loadPlan, opens
// its connections, runs the plan and writes the loadResult.
func loadgenMain(stdin io.Reader, stdout io.Writer) int {
	var plan loadPlan
	if err := json.NewDecoder(stdin).Decode(&plan); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark load generator:", err)
		return 2
	}
	g := newLoadgen(plan.Base)
	defer g.close()
	for _, c := range g.clients {
		if err := ping(c, plan.Base); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark load generator:", err)
			return 2
		}
	}
	outs, backlog := g.run(plan.Requests, plan.Grace)
	if err := json.NewEncoder(stdout).Encode(loadResult{Backlog: backlog, Outcomes: outs}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark load generator:", err)
		return 2
	}
	return 0
}

// ping opens c's connection with a health check.
func ping(c *http.Client, base string) error {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// loadgen is an open-loop load generator: one dispatcher releases
// requests at their due times to a fixed set of senders, each holding
// one keep-alive connection. Latency is timed from the due time, so a
// stall counts against every request it delays, and the dispatcher
// records its own lateness and the backlog of released requests no
// sender has picked up yet.
type loadgen struct {
	base    string
	clients []*http.Client
}

// newLoadgen builds a generator with one sender per CPU.
func newLoadgen(base string) *loadgen {
	g := &loadgen{base: base}
	for k := 0; k < runtime.NumCPU(); k++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}})
	}
	return g
}

// close drops the senders' connections.
func (g *loadgen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run releases reqs (ordered by due time) on their schedule, starting
// now. A request not answered by the last due time plus grace fails.
// It returns every outcome and the largest backlog seen.
func (g *loadgen) run(reqs []request, grace time.Duration) ([]outcome, int) {
	out := make([]outcome, len(reqs))
	late := make([]time.Duration, len(reqs))
	if len(reqs) == 0 {
		return out, 0
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(reqs[len(reqs)-1].At+grace))
	defer cancel()
	queue := make(chan int, len(reqs)) // one slot per request: the dispatcher never blocks
	var wg sync.WaitGroup
	for _, c := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for k := range queue {
				out[k] = g.send(ctx, c, reqs[k], start)
			}
		}(c)
	}
	backlog := 0
	for k := range reqs {
		due := start.Add(reqs[k].At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[k] = time.Since(due)
		queue <- k
		backlog = max(backlog, len(queue))
	}
	close(queue)
	wg.Wait()
	for k := range out {
		out[k].Late = late[k]
	}
	return out, backlog
}

// send posts one request on c; start is the time its due time counts
// from.
func (g *loadgen) send(ctx context.Context, c *http.Client, r request, start time.Time) outcome {
	due := start.Add(r.At)
	if err := ctx.Err(); err != nil {
		return outcome{Err: "not sent before the deadline: " + err.Error()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return outcome{Err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return outcome{Err: err.Error()}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	o := outcome{Latency: done.Sub(due), Service: done.Sub(sent), Status: resp.StatusCode}
	if err != nil {
		o.Err = err.Error()
	}
	if r.Keep || resp.StatusCode != http.StatusOK {
		o.Body = body
	}
	return o
}
