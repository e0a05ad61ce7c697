package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"tecopt/internal/core"
	"tecopt/internal/faults"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// endpoint wraps one endpoint body in the request pipeline every /v1
// route shares: draining refusal, admission faults, body limit, one
// decode of the body into the endpoint's request type R, deadline, gate
// slot, per-request trace track, panic isolation, and the
// tecerr→HTTP status mapping on the way out.
func endpoint[T any, R interface {
	*T
	request
}](s *Server, name string, run func(ctx context.Context, req R) (any, error)) http.HandlerFunc {
	op := "tecserve." + name
	return func(w http.ResponseWriter, req *http.Request) {
		r := obs.Enabled()
		var start int64
		if r != nil {
			start = r.Now()
			r.Counter("tecserve.requests").Inc()
			r.Counter(op + ".requests").Inc()
			defer func() { r.ObserveSince(op+".latency_ns", start) }()
		}
		if req.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, name, nil, tecerr.Newf(tecerr.CodeInvalidInput, op,
				"serve: %s %s: use POST", req.Method, req.URL.Path), http.StatusMethodNotAllowed)
			return
		}
		// Refuse before reading the body: a draining server sheds load,
		// it does not spend on it.
		if s.draining.Load() {
			s.writeError(w, name, nil, tecerr.Newf(tecerr.CodeUnavailable, op,
				"serve: server is draining"), 0)
			return
		}
		if err := faults.Check(faults.SiteServeAdmit); err != nil {
			s.writeError(w, name, nil, err, 0)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
		if err != nil {
			s.writeError(w, name, nil, tecerr.Wrapf(tecerr.CodeInvalidInput, op, err,
				"serve: reading request body"), 0)
			return
		}
		in := R(new(T))
		if err := decode(body, in, op); err != nil {
			s.writeError(w, name, nil, err, 0)
			return
		}
		ctx, cancel, err := s.requestContext(req.Context(), op, in.shared().DeadlineMS)
		if err != nil {
			s.writeError(w, name, nil, err, 0)
			return
		}
		defer cancel()
		// Admission: block for a slot in the bounded queue. Shed (429)
		// when the queue is full, 504 when the deadline expires while
		// still queued.
		release, err := s.gate.Acquire(ctx)
		if err != nil {
			s.writeError(w, name, nil, err, 0)
			return
		}
		defer release()
		if r != nil {
			// Each admitted request gets its own trace lane, so
			// a Perfetto view of a busy server shows per-request spans
			// instead of one interleaved smear.
			ctx = obs.ContextWithTrack(ctx, obs.NextRequestTrack())
			var sp obs.Span
			ctx, sp = r.StartSpanCtx(ctx, "tecserve.request")
			sp.Annotate("endpoint", name)
			defer sp.End()
		}
		result, err := runProtected(ctx, op, func(ctx context.Context) (any, error) {
			return run(ctx, in)
		})
		if err != nil {
			s.writeError(w, name, result, err, 0)
			return
		}
		if r != nil {
			r.Counter("tecserve.status.200").Inc()
		}
		writeJSON(w, http.StatusOK, result)
	}
}

// requestContext derives the per-request deadline context: the
// request's deadline_ms when given (capped by MaxDeadline), the server
// default otherwise.
func (s *Server) requestContext(parent context.Context, op string, deadlineMS int64) (context.Context, context.CancelFunc, error) {
	if deadlineMS < 0 {
		return nil, nil, tecerr.Newf(tecerr.CodeInvalidInput, op,
			"serve: deadline_ms %d is negative", deadlineMS)
	}
	d := s.opt.DefaultDeadline
	if deadlineMS > 0 {
		// Cap in milliseconds before converting: the product overflows
		// time.Duration above math.MaxInt64/1e6 ms (about 292 years) and
		// would give a context born expired.
		d = s.opt.MaxDeadline
		if deadlineMS < d.Milliseconds() {
			d = time.Duration(deadlineMS) * time.Millisecond
		}
	}
	d = min(d, s.opt.MaxDeadline)
	ctx, cancel := context.WithTimeout(parent, d)
	return ctx, cancel, nil
}

// writeError renders err as the contracted JSON error body with the
// tecerr→HTTP status mapping (statusOverride, when nonzero, wins —
// method-not-allowed is HTTP-shaped, not a solver class). partial,
// when non-nil, rides along so deadline-expired sweeps still deliver
// their finished points.
func (s *Server) writeError(w http.ResponseWriter, name string, partial any, err error, statusOverride int) {
	status := tecerr.HTTPStatus(err)
	if statusOverride != 0 {
		status = statusOverride
	}
	code := tecerr.CodeOf(err)
	if status == http.StatusTooManyRequests {
		// Backpressure contract: tell well-behaved clients when to come
		// back. One second is one drain of a typical queue at the
		// measured service rate; precision is not the point, the header
		// is.
		w.Header().Set("Retry-After", "1")
	}
	if r := obs.Enabled(); r != nil {
		r.Counter("tecserve.status." + strconv.Itoa(status)).Inc()
		r.Counter("tecserve.errors." + code.String()).Inc()
		if name != "" {
			r.Counter("tecserve." + name + ".errors").Inc()
		}
	}
	writeJSON(w, status, errorResponse{
		Error:   errorBody{Code: code.String(), Message: err.Error()},
		Partial: partial,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// The client may already be gone (cancelled request); an encode
	// error here has no one left to report to.
	_ = enc.Encode(v)
}

// decode unmarshals a /v1 body into its request type, typing failures
// as invalid input.
func decode(body []byte, v request, op string) error {
	if err := json.Unmarshal(body, v); err != nil {
		return tecerr.Wrapf(tecerr.CodeInvalidInput, op, err, "serve: decoding request")
	}
	return nil
}

// runSolve answers /v1/solve: the steady-state field at one supply
// current.
func (s *Server) runSolve(ctx context.Context, req *solveRequest) (any, error) {
	const op = "tecserve.solve"
	if math.IsNaN(req.CurrentA) || math.IsInf(req.CurrentA, 0) || req.CurrentA < 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, op,
			"serve: current_a %g must be finite and nonnegative", req.CurrentA)
	}
	sys, err := s.resolveSystem(req.Chip, req.Sites)
	if err != nil {
		return nil, err
	}
	peakK, tile, theta, err := sys.PeakAtCtx(ctx, req.CurrentA)
	if err != nil {
		return nil, err
	}
	resp := solveResponse{
		PeakC:     material.KelvinToCelsius(peakK),
		PeakTile:  tile,
		TECPowerW: sys.TECPower(theta, req.CurrentA),
	}
	if req.Field {
		resp.TilesC = make([]float64, len(sys.PN.SilNode))
		for t, n := range sys.PN.SilNode {
			resp.TilesC[t] = material.KelvinToCelsius(theta[n])
		}
	}
	return resp, nil
}

// runOptimizeCurrent answers /v1/optimize-current: the optimal shared
// supply current for the deployment.
func (s *Server) runOptimizeCurrent(ctx context.Context, req *optimizeRequest) (any, error) {
	m, err := core.ParseCurrentMethod(req.Method)
	if err != nil {
		return nil, err
	}
	sys, err := s.resolveSystem(req.Chip, req.Sites)
	if err != nil {
		return nil, err
	}
	res, err := sys.OptimizeCurrent(core.CurrentOptions{Method: m, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return optimizeResponse{
		IOptA:       res.IOpt,
		PeakC:       material.KelvinToCelsius(res.PeakK),
		PeakTile:    res.PeakTile,
		TECPowerW:   res.TECPowerW,
		LambdaMA:    finiteOrNil(res.LambdaM),
		Evaluations: res.Evaluations,
	}, nil
}

// runRunawayLimit answers /v1/runaway-limit: the thermal-runaway
// current lambda_m of the deployment.
func (s *Server) runRunawayLimit(ctx context.Context, req *runawayRequest) (any, error) {
	sys, err := s.resolveSystem(req.Chip, req.Sites)
	if err != nil {
		return nil, err
	}
	lambda, err := sys.RunawayLimit(core.RunawayOptions{Ctx: ctx})
	if err != nil {
		return nil, err
	}
	return runawayResponse{
		HasLimit: !math.IsInf(lambda, 1),
		LambdaMA: finiteOrNil(lambda),
	}, nil
}

// runSweep answers /v1/sweep: h_kl over a set of currents, through
// core.System.HklSweep. A deadline expiry flushes the points that
// finished (the sweep returns them as a prefix of the currents) — the
// partial-results contract.
func (s *Server) runSweep(ctx context.Context, req *sweepRequest) (any, error) {
	const op = "tecserve.sweep"
	n := len(req.CurrentsA)
	if n == 0 {
		return nil, tecerr.New(tecerr.CodeInvalidInput, op, "serve: currents_a is empty")
	}
	if n > maxSweepPoints {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, op,
			"serve: %d sweep points exceed the per-request limit %d", n, maxSweepPoints)
	}
	for idx, i := range req.CurrentsA {
		if math.IsNaN(i) || math.IsInf(i, 0) || i < 0 {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, op,
				"serve: currents_a[%d] %g must be finite and nonnegative", idx, i)
		}
	}
	sys, err := s.resolveSystem(req.Chip, req.Sites)
	if err != nil {
		return nil, err
	}
	tiles := len(sys.PN.SilNode)
	if req.K < 0 || req.K >= tiles || req.L < 0 || req.L >= tiles {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, op,
			"serve: sweep tiles (k=%d, l=%d) out of range %d", req.K, req.L, tiles)
	}
	// The wire carries tile indices (the paper's h_kl couples silicon
	// tiles); the solver wants network node indices.
	hs, err := sys.HklSweep(ctx, sys.PN.SilNode[req.K], sys.PN.SilNode[req.L], req.CurrentsA)
	finished := make([]sweepPoint, len(hs))
	points := make([]*sweepPoint, n)
	for idx, h := range hs {
		// Past the runaway limit h_kl diverges (Theorem 2): a runaway
		// point is an answer, not a failure.
		p := &finished[idx]
		p.CurrentA, p.Runaway = req.CurrentsA[idx], math.IsInf(h, 1)
		if !p.Runaway {
			p.H = &hs[idx]
		}
		points[idx] = p
	}
	resp := sweepResponse{K: req.K, L: req.L, Points: points, Done: len(hs), Total: n}
	if err != nil {
		if errors.Is(err, tecerr.ErrCancelled) {
			// Deadline expired mid-sweep: flush what finished as the
			// partial payload of the 504.
			return resp, err
		}
		return nil, err
	}
	return resp, nil
}
