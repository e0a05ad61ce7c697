package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/material"
	"tecopt/internal/serve"
)

// servedDeployment is one chip and TEC deployment that requests target.
type servedDeployment struct {
	chip  serve.ChipSpec
	sites []int
	// lambdaA is the runaway limit the service reported.
	lambdaA float64
}

// servedDeployments draws n seeded deployments. Chips alternate between
// alpha and hc:<seed*1000+j>, site counts run evenly from 4 to 16 and
// the sites themselves are seeded, so every seed has the same mix of
// chip kinds and update ranks.
func servedDeployments(seed int64, n int) []*servedDeployment {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*servedDeployment, n)
	for j := range out {
		chip := serve.ChipSpec{Name: "alpha"}
		if j%2 == 1 {
			chip.Name = fmt.Sprintf("hc:%d", seed*1000+int64(j))
		}
		count := 4
		if n > 1 {
			count += 12 * j / (n - 1)
		}
		sites := rng.Perm(144)[:count]
		sort.Ints(sites)
		out[j] = &servedDeployment{chip: chip, sites: sites}
	}
	return out
}

// Request bodies, in the service's wire format.
type (
	target struct {
		Chip  serve.ChipSpec `json:"chip"`
		Sites []int          `json:"sites"`
	}
	solveBody struct {
		target
		CurrentA float64 `json:"current_a"`
	}
)

// solvePath is the endpoint the workload calls.
const solvePath = "/v1/solve"

// call is what one scheduled request asked, kept for its check.
type call struct {
	dep      int
	currentA float64
	// pass and index place the request among the operations of its pass.
	pass, index int
}

// schedule is an open-loop request plan.
type schedule struct {
	reqs  []request
	calls []call
}

// add appends one solve due at offset at. Every 50th response is kept
// for a check against the core API.
func (s *schedule) add(at time.Duration, step int, c call, deps []*servedDeployment) error {
	d := deps[c.dep]
	raw, err := json.Marshal(solveBody{target{Chip: d.chip, Sites: d.sites}, c.currentA})
	if err != nil {
		return err
	}
	keep := len(s.reqs)%50 == 0
	s.reqs = append(s.reqs, request{At: at, Step: step, Path: solvePath, Body: raw, Keep: keep})
	s.calls = append(s.calls, c)
	return nil
}

// arrivals returns n arrival offsets of a Poisson process over
// [from, from+span) conditioned on its count: sorted uniform draws. A
// fixed count keeps every seed's run the same size.
func arrivals(rng *rand.Rand, n int, from, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for k := range out {
		out[k] = from + time.Duration(rng.Float64()*float64(span))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// warmRates is serve_warm's ladder of arrival rates (requests/s); each
// step takes an equal share of a pass. The rates are synthetic: no trace
// of real traffic exists. Both stay far enough below the service's
// capacity on two CPUs (about 1400 requests/s) that a slower host does
// not push the tail into queueing collapse.
var warmRates = []float64{250, 500}

// warmPass is the length of one serve_warm pass: the measured phase
// repeats one seeded pass of arrivals about ten times, so that every
// request gets a best of ten tries.
const warmPass = 2500 * time.Millisecond

// runServeWarm drives the warm serving path over loopback HTTP: open-loop
// /v1/solve on eight deployments that all stay resident in the service's
// system cache, at each rate of the ladder. An operation is one request.
func runServeWarm(e *env) error {
	rates, n := warmRates, 8
	if e.opt.toy {
		rates, n = []float64{200}, 2
	}
	var live *liveServer
	var deps []*servedDeployment
	var plan schedule
	defer func() { stopServer(live) }()
	pass, passes := e.warmPasses()
	if err := e.setup(5, func() (err error) {
		stopServer(live)
		if live, err = startServer(); err != nil {
			return err
		}
		deps = servedDeployments(e.opt.seed, n)
		for _, d := range deps {
			if d.lambdaA, err = runawayLimit(live, d); err != nil {
				return err
			}
		}
		plan, err = warmSchedule(e.opt.seed, deps, rates, pass, passes)
		return err
	}); err != nil {
		return err
	}
	if err := e.overhead(handlerProbe(plan.reqs[:min(len(plan.reqs), 50)])); err != nil {
		return err
	}
	return e.serveRun(live, deps, plan, rates)
}

// warmPasses returns the length and number of serve_warm's passes: as
// many whole passes as fit in the measured phase, at least minPasses. A
// phase shorter than one pass (toy size) is a single pass of its own
// length.
func (e *env) warmPasses() (time.Duration, int) {
	budget := e.opt.budget()
	if budget < warmPass {
		return budget, e.reps(minPasses)
	}
	return warmPass, max(minPasses, int(budget/warmPass))
}

// runawayLimit asks the service for a deployment's runaway limit, which
// also builds its system in the service's cache.
func runawayLimit(live *liveServer, d *servedDeployment) (float64, error) {
	raw, err := json.Marshal(target{Chip: d.chip, Sites: d.sites})
	if err != nil {
		return 0, err
	}
	body, err := live.post("/v1/runaway-limit", raw)
	if err != nil {
		return 0, err
	}
	var resp struct {
		LambdaMA *float64 `json:"lambda_m_a"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	if resp.LambdaMA == nil {
		return 0, fmt.Errorf("deployment %v of %s has no runaway limit", d.sites, d.chip.Name)
	}
	return *resp.LambdaMA, nil
}

// warmSchedule plans serve_warm: one pass of Poisson arrivals at each
// rate for an equal share of the pass, each a solve on a uniformly
// drawn deployment at a current drawn below 0.9 lambda_m, repeated back
// to back passes times.
func warmSchedule(seed int64, deps []*servedDeployment, rates []float64, pass time.Duration, passes int) (schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	type arrival struct {
		at   time.Duration
		step int
		c    call
	}
	var one []arrival
	span := pass / time.Duration(len(rates))
	for step, rate := range rates {
		for _, at := range arrivals(rng, max(1, int(rate*span.Seconds())), time.Duration(step)*span, span) {
			j := rng.Intn(len(deps))
			one = append(one, arrival{at, step, call{dep: j, currentA: 0.9 * rng.Float64() * deps[j].lambdaA}})
		}
	}
	var s schedule
	for p := 0; p < passes; p++ {
		for i, a := range one {
			c := a.c
			c.pass, c.index = p, i
			if err := s.add(time.Duration(p)*pass+a.at, a.step, c, deps); err != nil {
				return schedule{}, err
			}
		}
	}
	return s, nil
}

// stopServer stops a live server, if any.
func stopServer(live *liveServer) {
	if live != nil {
		// A failed shutdown leaves nothing to clean up in this process.
		_ = live.stop()
	}
}

// handlerProbe returns a probe that serves reqs through a fresh
// service's handler in process, after one untimed pass has filled its
// system cache: the warm handler path.
func handlerProbe(reqs []request) func() error {
	srv := serve.New(serve.Options{})
	warm := false
	return func() error {
		if !warm {
			warm = true
			if _, err := serveInProcess(srv, reqs); err != nil {
				return err
			}
		}
		_, err := serveInProcess(srv, reqs)
		return err
	}
}

// serveInProcess sends reqs through srv's handler with a response
// recorder, no TCP, and returns each one's time in microseconds.
func serveInProcess(srv *serve.Server, reqs []request) ([]float64, error) {
	h := srv.Handler()
	out := make([]float64, len(reqs))
	for k, r := range reqs {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		out[k] = us(time.Since(t0))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d: %s", r.Path, rec.Code, rec.Body.String())
		}
	}
	return out, nil
}

// maxLateP99 is the generator lateness above which a rate step is not a
// valid measurement of the service.
const maxLateP99 = 5 * time.Millisecond

// serveRun measures one open-loop run against live, records each request
// as an operation of its pass, checks every kept response and, in a
// traced run, splits the service's time across its layers.
func (e *env) serveRun(live *liveServer, deps []*servedDeployment, plan schedule, rates []float64) error {
	load, err := newLoadRun(live.base, plan.reqs, 2*time.Second)
	if err != nil {
		return err
	}
	if err := e.measure(load.run); err != nil {
		return err
	}
	res, err := load.result()
	if err != nil {
		return err
	}

	// A request's latency is its release lateness, then its wait for a
	// free connection, then its service time.
	steps := make([]struct{ lat, late, connWait, service []float64 }, len(rates))
	for k, o := range res.Outcomes {
		var err error
		switch {
		case o.Err != "":
			err = errors.New(o.Err)
		case o.Status != http.StatusOK:
			err = fmt.Errorf("status %d: %s", o.Status, o.Body)
		}
		if k == 0 || plan.calls[k].pass != plan.calls[k-1].pass {
			e.beginPass()
		}
		e.op(o.Latency, err)
		st := &steps[plan.reqs[k].Step]
		st.late = append(st.late, us(o.Late))
		if err == nil {
			st.lat = append(st.lat, ms(o.Latency))
			st.connWait = append(st.connWait, us(o.Latency-o.Late-o.Service))
			st.service = append(st.service, us(o.Service))
		}
	}
	// Latency of a step the generator could not keep to its schedule is
	// not the service's: leave the step out of op_ms and the latency
	// quantiles, unless no step is valid.
	invalid, nInvalid := make([]bool, len(steps)), 0
	var valid []float64
	for s, st := range steps {
		name := fmt.Sprintf("r%.0f", rates[s])
		if lateP99 := quantile(st.late, 0.99); lateP99 > us(maxLateP99) {
			invalid[s] = true
			nInvalid++
			fmt.Fprintf(os.Stderr, "benchmark: step %s/s invalid: generator lateness p99 %.0f us\n", name, lateP99)
			continue
		}
		valid = append(valid, st.lat...)
		if isLayerMetric(name + ".p50_ms") {
			e.layer[name+".p50_ms"] = quantile(st.lat, 0.50)
			e.layer[name+".p99_ms"] = quantile(st.lat, 0.99)
		}
	}
	if len(valid) > 0 {
		e.latMS = valid
		for k, c := range plan.calls {
			if invalid[plan.reqs[k].Step] {
				e.passMS[c.pass][c.index] = math.NaN()
			}
		}
	}
	if err := e.checkServed(plan, res.Outcomes, deps); err != nil {
		return err
	}
	if e.reg == nil {
		return nil
	}

	// The split of a request's latency is taken at the highest rate step
	// (r500), the step README.md's breakdown splits.
	top := steps[len(steps)-1]
	e.layer["loadgen.late_us_p50"] = quantile(top.late, 0.50)
	e.layer["loadgen.late_us_p99"] = quantile(top.late, 0.99)
	e.layer["loadgen.conn_wait_us_p50"] = quantile(top.connWait, 0.50)
	e.layer["loadgen.conn_wait_us_p99"] = quantile(top.connWait, 0.99)
	e.layer["loadgen.backlog_max"] = float64(res.Backlog)
	e.layer["loadgen.invalid_steps"] = float64(nInvalid)
	e.setCounters()
	if err := e.serveLayers(live, deps, plan, median(top.service)); err != nil {
		return err
	}
	var sample []build
	for _, d := range deps[:min(len(deps), e.reps(4))] {
		cfg, err := servedConfig(d)
		if err != nil {
			return err
		}
		sample = append(sample, build{cfg, d.sites})
	}
	if err := e.replay(sample); err != nil {
		return err
	}
	e.opShares()
	return nil
}

// serveLayers times the layers under one solve request apart from the
// loopback run: the whole handler in process (no TCP), the chip lookup
// the handler makes and the core solve.
func (e *env) serveLayers(live *liveServer, deps []*servedDeployment, plan schedule, serviceUS float64) error {
	n := min(len(plan.reqs), e.reps(400))
	systems := map[int]*core.System{}
	var peakUS, loadUS []float64
	for _, c := range plan.calls[:n] {
		d := deps[c.dep]
		t0 := time.Now()
		if _, err := chipload.Load(chipload.Spec{Name: d.chip.Name}); err != nil {
			return err
		}
		loadUS = append(loadUS, us(time.Since(t0)))
		sys, err := servedSystem(systems, c.dep, d)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, _, _, err := sys.PeakAt(c.currentA); err != nil {
			return err
		}
		peakUS = append(peakUS, us(time.Since(t0)))
	}
	handlerUS, err := serveInProcess(live.srv, plan.reqs[:n])
	if err != nil {
		return err
	}
	e.layer["serve.handler_us_p50"] = median(handlerUS)
	e.layer["core.peak_at_us_p50"] = median(peakUS)
	e.layer["chipload.load_us_p50"] = median(loadUS)
	e.layer["http.loopback_us_p50"] = serviceUS - median(handlerUS)
	return nil
}

// servedConfig resolves a deployment's chip as the service does.
func servedConfig(d *servedDeployment) (core.Config, error) {
	chip, err := chipload.Load(chipload.Spec{Name: d.chip.Name})
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{Geom: chip.Geom, Cols: chip.Grid.Cols, Rows: chip.Grid.Rows, TilePower: chip.TilePower}
	return cfg, cfg.Validate()
}

// servedSystem returns the benchmark's own system for deployment j,
// building it on first use.
func servedSystem(systems map[int]*core.System, j int, d *servedDeployment) (*core.System, error) {
	if sys, ok := systems[j]; ok {
		return sys, nil
	}
	cfg, err := servedConfig(d)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(cfg, d.sites)
	if err != nil {
		return nil, err
	}
	systems[j] = sys
	return sys, nil
}

// checkServed compares every kept 200 response's peak_c with PeakAt at
// its current on the benchmark's own system of the same deployment.
func (e *env) checkServed(plan schedule, outs []outcome, deps []*servedDeployment) error {
	systems := map[int]*core.System{}
	for k, r := range plan.reqs {
		if !r.Keep || outs[k].Err != "" || outs[k].Status != http.StatusOK {
			continue
		}
		c := plan.calls[k]
		sys, err := servedSystem(systems, c.dep, deps[c.dep])
		if err != nil {
			return err
		}
		if err := checkResponse(sys, c.currentA, outs[k].Body); err != nil {
			e.fail("solve request %d: %v", k, err)
		}
	}
	return nil
}

// checkResponse checks one solve response body against sys.
func checkResponse(sys *core.System, iA float64, body []byte) error {
	var resp struct {
		PeakC *float64 `json:"peak_c"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	peakK, _, _, err := sys.PeakAt(iA)
	if err != nil {
		return err
	}
	if resp.PeakC == nil || !agrees(*resp.PeakC, material.KelvinToCelsius(peakK)) {
		return fmt.Errorf("peak_c %v, core %.12g C at %.6g A", resp.PeakC, material.KelvinToCelsius(peakK), iA)
	}
	return nil
}
