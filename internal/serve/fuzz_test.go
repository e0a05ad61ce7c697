package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"tecopt/internal/tecerr"
)

// tinyPowers is the tile_power_w array of tinyChip as JSON.
const tinyPowers = `[0.15,0.15,0.15,0.15,0.15,1.2,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15]`

// serveSeeds are request bodies from the serve and tecserve tests,
// named-chip bodies (alpha, hc03, hc:7, an unknown name), plus an
// overflowing tiling, an oversized layer resolution and a deadline
// whose nanosecond count overflows int64.
var serveSeeds = []string{
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5],"current_a":0.4}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5],"current_a":0.4,"field":true}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5]}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5],"method":"brent"}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5],"method":"newton"}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5],"k":0,"l":5,"currents_a":[0.1,0.5,1],"deadline_ms":150}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[99],"current_a":0.1}`,
	`{"chip":{"name":"alpha","cols":4,"rows":4,"spreader_cells":5,"sink_cells":5,"tile_power_w":` + tinyPowers + `},"sites":[5],"current_a":0.1}`,
	`{"chip":{"name":"alpha"},"sites":[66],"current_a":0.5,"deadline_ms":250}`,
	`{"chip":{"name":"hc03"},"sites":[0,1,12],"currents_a":[0.2]}`,
	`{"chip":{"name":"hc:7"},"sites":[]}`,
	`{"chip":{"name":"nope"},"current_a":0.1}`,
	`{"deadline_ms":-5}`,
	`{"deadline_ms":10000000000000}`,
	`{nope`,
	`{"chip":{"cols":4611686018427387905,"rows":16,"tile_power_w":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]},"current_a":0.1}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":200,"sink_cells":200,"tile_power_w":` + tinyPowers + `},"sites":[5],"current_a":0.1}`,
}

// FuzzServeRequest drives arbitrary bytes through every endpoint's
// request decoding and the system resolution behind it: decode,
// requestContext, resolveConfig, Validate, the model-size caps,
// systemKey and core.NewSystem. No input may panic, and every rejection
// must be a tecerr.CodeInvalidInput error. The caps keep each NewSystem
// bounded. A body accepted as any request type yields a deadline in
// (now, now + MaxDeadline].
func FuzzServeRequest(f *testing.F) {
	for _, seed := range serveSeeds {
		f.Add([]byte(seed))
	}
	s := New(Options{SystemCache: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []request{&solveRequest{}, &optimizeRequest{}, &runawayRequest{}, &sweepRequest{}} {
			if err := decode(body, req, "serve.fuzz"); err != nil {
				requireInvalidInput(t, "decode", err)
				continue
			}
			c := req.shared()
			before := time.Now()
			ctx, cancel, err := s.requestContext(context.Background(), "serve.fuzz", c.DeadlineMS)
			if err != nil {
				requireInvalidInput(t, "requestContext", err)
			} else {
				deadline, ok := ctx.Deadline()
				cancel()
				if !ok || !deadline.After(before) || deadline.After(time.Now().Add(s.opt.MaxDeadline)) {
					t.Fatalf("%T: deadline %v outside (%v, now + %v]", req, deadline, before, s.opt.MaxDeadline)
				}
			}
			if _, err := s.resolveSystem(c.Chip, c.Sites); err != nil {
				requireInvalidInput(t, "resolveSystem", err)
			}
		}
	})
}

func requireInvalidInput(t *testing.T, stage string, err error) {
	t.Helper()
	if !errors.Is(err, tecerr.ErrInvalidInput) {
		t.Fatalf("%s: err = %v (code %v), want CodeInvalidInput", stage, err, tecerr.CodeOf(err))
	}
}
