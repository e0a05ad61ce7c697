package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"

	"tecopt/internal/chipload"
	"tecopt/internal/core"
	"tecopt/internal/tecerr"
)

// ChipSpec selects the chip model for a request, mirroring the CLI
// tools' chip flags: either a named benchmark chip (alpha, hc01..hc10,
// hc:<seed>) or an explicit tiling with per-tile powers. File-based
// chips (.flp/.ptrace) are deliberately not exposed — the service does
// not read client-named paths.
type ChipSpec struct {
	// Name is "alpha" (the default), "hc01".."hc10", or "hc:<seed>".
	// Mutually exclusive with TilePowerW.
	Name string `json:"name,omitempty"`
	// Cols, Rows tile the die for an explicit power map (default
	// 12x12).
	Cols int `json:"cols,omitempty"`
	Rows int `json:"rows,omitempty"`
	// TilePowerW is the explicit worst-case per-tile power map (W),
	// length Cols*Rows.
	TilePowerW []float64 `json:"tile_power_w,omitempty"`
	// SpreaderCells, SinkCells set the coarse-layer resolutions for an
	// explicit power map (defaults 20, 20); ignored for named chips.
	SpreaderCells int `json:"spreader_cells,omitempty"`
	SinkCells     int `json:"sink_cells,omitempty"`
}

// common carries the request fields shared by every /v1 endpoint.
type common struct {
	Chip ChipSpec `json:"chip"`
	// Sites lists the tile indices carrying TECs (the deployment).
	Sites []int `json:"sites"`
	// DeadlineMS caps this request's wall time in milliseconds; 0
	// selects the server default, and the server maximum always
	// applies.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// shared returns the fields every request type carries; through it each
// request type satisfies request.
func (c *common) shared() *common { return c }

// request is a /v1 request type: the pipeline decodes the body into it
// once and reads the deadline from its shared fields.
type request interface {
	shared() *common
}

type solveRequest struct {
	common
	// CurrentA is the shared supply current (A).
	CurrentA float64 `json:"current_a"`
	// Field requests the full per-tile silicon temperature map in the
	// response.
	Field bool `json:"field,omitempty"`
}

type solveResponse struct {
	PeakC     float64   `json:"peak_c"`
	PeakTile  int       `json:"peak_tile"`
	TECPowerW float64   `json:"tec_power_w"`
	TilesC    []float64 `json:"tiles_c,omitempty"`
}

type optimizeRequest struct {
	common
	// Method is "golden" (default), "gradient", or "brent".
	Method string `json:"method,omitempty"`
}

type optimizeResponse struct {
	IOptA     float64 `json:"i_opt_a"`
	PeakC     float64 `json:"peak_c"`
	PeakTile  int     `json:"peak_tile"`
	TECPowerW float64 `json:"tec_power_w"`
	// LambdaMA is the runaway limit bounding the search; null when the
	// system has no finite limit (JSON cannot carry +Inf).
	LambdaMA    *float64 `json:"lambda_m_a"`
	Evaluations int      `json:"evaluations"`
}

type runawayRequest struct {
	common
}

type runawayResponse struct {
	// HasLimit reports whether the deployment has a finite thermal-
	// runaway current; LambdaMA is null when it does not.
	HasLimit bool     `json:"has_limit"`
	LambdaMA *float64 `json:"lambda_m_a"`
}

type sweepRequest struct {
	common
	// K, L select the transfer-matrix entry h_kl (tile indices;
	// default 0, 0).
	K int `json:"k"`
	L int `json:"l"`
	// CurrentsA are the sample currents (A).
	CurrentsA []float64 `json:"currents_a"`
}

// sweepPoint is one sample of the h_kl sweep. A point past the runaway
// limit (G - iD not positive definite) reports runaway=true with a
// null h — the mathematical value is +Inf, which JSON cannot carry.
type sweepPoint struct {
	CurrentA float64  `json:"current_a"`
	H        *float64 `json:"h,omitempty"`
	Runaway  bool     `json:"runaway,omitempty"`
}

// sweepResponse reports the sweep samples. On a deadline expiry the
// endpoint flushes this same shape as a partial result: Done < Total
// and unfinished entries in Points are null.
type sweepResponse struct {
	K      int           `json:"k"`
	L      int           `json:"l"`
	Points []*sweepPoint `json:"points"`
	Done   int           `json:"done"`
	Total  int           `json:"total"`
}

// errorResponse is the JSON body of every non-2xx API response. Code
// is the tecerr class string ("not_pd", "overload", ...), which is
// finer-grained than the HTTP status: several classes map to 500, so
// clients and chaos tests match on the code.
type errorResponse struct {
	Error errorBody `json:"error"`
	// Partial carries whatever the endpoint completed before failing
	// (sweeps flush finished points on a deadline expiry).
	Partial any `json:"partial,omitempty"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Model-size caps of a /v1 request, checked before any assembly. A
// layer of n cells has about n^2 nodes, and the setup plus first solve
// grows faster than the node count. On a 2-CPU Xeon, assembly, the
// setup and the first PeakAt of a fully covered map took (medians of
// three, peak RSS of the process):
//   - 4x4 map, 64-cell layers: 8,240 nodes, 262,923 entries of L,
//     0.10 s and 26 MB;
//   - 4x4 map, 100-cell layers: 20,048 nodes, 838,100 entries of L,
//     0.36 s and 91 MB;
//   - the heaviest accepted input, a 24x24 map with 64-cell layers:
//     9,920 nodes, rank 1,152, 291,577 entries of L, 4.2 s and 185 MB.
const (
	maxTiling     = 24 // chip.cols and chip.rows
	maxLayerCells = 64 // chip.spreader_cells and chip.sink_cells
)

// Request-size caps: the pipeline reads at most maxBodyBytes of a body,
// and a sweep takes at most maxSweepPoints currents.
const (
	maxBodyBytes   = 16 << 20
	maxSweepPoints = 20000
)

// checkModelSize rejects a resolved configuration beyond the caps.
func checkModelSize(cfg core.Config) error {
	if cfg.Cols > maxTiling || cfg.Rows > maxTiling {
		return tecerr.Newf(tecerr.CodeInvalidInput, "serve.request",
			"serve: chip tiling %dx%d exceeds the %dx%d cap", cfg.Cols, cfg.Rows, maxTiling, maxTiling)
	}
	if cfg.SpreaderCells > maxLayerCells || cfg.SinkCells > maxLayerCells {
		return tecerr.Newf(tecerr.CodeInvalidInput, "serve.request",
			"serve: layer cells %d, %d exceed the cap %d", cfg.SpreaderCells, cfg.SinkCells, maxLayerCells)
	}
	return nil
}

// resolveSystem turns a chip spec + deployment into a *core.System
// through the content-addressed cache: requests naming the same chip
// and sites share one assembled system, which owns its base
// factorization and SMW fast-path state. The returned system is shared
// and read-only by contract (core.System solves are concurrency-safe).
func (s *Server) resolveSystem(spec ChipSpec, sites []int) (*core.System, error) {
	cfg, err := resolveConfig(spec)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkModelSize(cfg); err != nil {
		return nil, err
	}
	key, err := systemKey(cfg, sites)
	if err != nil {
		return nil, err
	}
	return s.systems.Do(key, func() (*core.System, error) {
		return core.NewSystem(cfg, sites)
	})
}

// resolveConfig maps the wire spec onto a core.Config.
func resolveConfig(spec ChipSpec) (core.Config, error) {
	if len(spec.TilePowerW) > 0 {
		if spec.Name != "" {
			return core.Config{}, tecerr.New(tecerr.CodeInvalidInput, "serve.request",
				"serve: chip.name and chip.tile_power_w are mutually exclusive")
		}
		for _, p := range spec.TilePowerW {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				// json.Unmarshal rejects non-finite literals already; this
				// guards any future decoder change.
				return core.Config{}, tecerr.New(tecerr.CodeInvalidInput, "serve.request",
					"serve: chip.tile_power_w has a non-finite entry")
			}
		}
		return core.Config{
			Cols: spec.Cols, Rows: spec.Rows,
			SpreaderCells: spec.SpreaderCells, SinkCells: spec.SinkCells,
			TilePower: spec.TilePowerW,
		}, nil
	}
	loaded, err := chipload.Load(chipload.Spec{Name: spec.Name, Cols: spec.Cols, Rows: spec.Rows})
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		Geom: loaded.Geom,
		Cols: loaded.Grid.Cols, Rows: loaded.Grid.Rows,
		TilePower: loaded.TilePower,
	}, nil
}

// systemKey content-addresses a resolved configuration + deployment.
// The canonical form is the JSON encoding of the fully resolved
// Config and sorted-as-given sites: Go structs marshal fields in
// declaration order and float64s round-trip exactly, so equal inputs
// hash equal and any parameter change (geometry, device, powers,
// deployment) changes the key.
func systemKey(cfg core.Config, sites []int) (string, error) {
	canon, err := json.Marshal(struct {
		Cfg   core.Config
		Sites []int
	}{cfg, sites})
	if err != nil {
		return "", tecerr.Wrapf(tecerr.CodeInternal, "serve.request", err,
			"serve: canonicalizing system key")
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// finiteOrNil boxes v for JSON, mapping non-finite values (notably the
// +Inf runaway limit) to null.
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}
