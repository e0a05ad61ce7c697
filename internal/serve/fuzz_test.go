package serve

import (
	"errors"
	"testing"

	"tecopt/internal/tecerr"
)

// tinyPowers is the tile_power_w array of tinyChip as JSON.
const tinyPowers = `[0.15,0.15,0.15,0.15,0.15,1.2,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15,0.15]`

// serveSeeds are request bodies from the serve, tecserve and tecload
// tests, plus an overflowing tiling and an oversized layer resolution.
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
	`{nope`,
	`{"chip":{"cols":4611686018427387905,"rows":16,"tile_power_w":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1]},"current_a":0.1}`,
	`{"chip":{"cols":4,"rows":4,"spreader_cells":200,"sink_cells":200,"tile_power_w":` + tinyPowers + `},"sites":[5],"current_a":0.1}`,
}

// FuzzServeRequest drives arbitrary bytes through every endpoint's
// request decoding and the system resolution behind it: decode,
// resolveConfig, Validate, the model-size caps, systemKey and
// core.NewSystem. No input may panic, and every rejection must be a
// tecerr.CodeInvalidInput error. The caps keep each NewSystem bounded.
func FuzzServeRequest(f *testing.F) {
	for _, seed := range serveSeeds {
		f.Add([]byte(seed))
	}
	s := New(Options{SystemCache: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []any{&solveRequest{}, &optimizeRequest{}, &runawayRequest{}, &sweepRequest{}} {
			if err := decode(body, req, "serve.fuzz"); err != nil {
				requireInvalidInput(t, "decode", err)
				continue
			}
			var c common
			switch r := req.(type) {
			case *solveRequest:
				c = r.common
			case *optimizeRequest:
				c = r.common
			case *runawayRequest:
				c = r.common
			case *sweepRequest:
				c = r.common
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
