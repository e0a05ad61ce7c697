package floorplan_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tecopt/internal/chipload"
	"tecopt/internal/floorplan"
	"tecopt/internal/num"
)

// tileAllPairs is the assignment Tile replaced, kept as its oracle: every
// tile against every unit, the first unit with the greatest overlap
// winning. ties counts the tiles where two units share that overlap.
func tileAllPairs(f *floorplan.Floorplan, g *floorplan.Grid) (owner []int, ties int) {
	owner = make([]int, g.NumTiles())
	for t := range owner {
		tr := g.TileRect(t)
		best, bestOv, tied := -1, 0.0, false
		for ui, u := range f.Units {
			ov := tr.Overlap(u.Rect)
			if ov > bestOv {
				best, bestOv, tied = ui, ov, false
			} else if best >= 0 && num.ExactEqual(ov, bestOv) {
				tied = true
			}
		}
		owner[t] = best
		if tied {
			ties++
		}
	}
	return owner, ties
}

// Tile must own every tile as the all-pairs loop does on the benchmark
// chips: Alpha, HC01-HC10 and hc:1000-hc:1019.
func TestTileMatchesAllPairsOnChips(t *testing.T) {
	names := []string{"alpha"}
	for k := 1; k <= 10; k++ {
		names = append(names, fmt.Sprintf("hc%02d", k))
	}
	for seed := 1000; seed < 1020; seed++ {
		names = append(names, fmt.Sprintf("hc:%d", seed))
	}
	for _, name := range names {
		chip, err := chipload.Load(chipload.Spec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := tileAllPairs(chip.Floorplan, chip.Grid)
		if !slices.Equal(chip.Grid.OwnerUnit, want) {
			t.Errorf("%s: OwnerUnit %v, all pairs %v", name, chip.Grid.OwnerUnit, want)
		}
	}
}

// Tile must own every tile as the all-pairs loop does on random
// floorplans whose units lie on a lattice of half and third tiles, so
// that units end on tile edges and split tiles into equal overlaps:
// exactly equal on a dyadic die, equal up to rounding on the paper's
// 6 mm one. Units may overlap each other and leave tiles uncovered.
func TestTileMatchesAllPairsOnRandomFloorplans(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ties := 0
	for trial := 0; trial < 300; trial++ {
		cols, rows := 1+rng.Intn(16), 1+rng.Intn(16)
		die := 1.0
		if trial%2 == 1 {
			die = 6e-3
		}
		f := floorplan.New("random", die, die*float64(rows)/float64(cols))
		div := 2 + rng.Intn(2) // lattice of 1/2 or 1/3 tile
		nx, ny := cols*div, rows*div
		for u := 0; u < 1+rng.Intn(12); u++ {
			x0, y0 := rng.Intn(nx), rng.Intn(ny)
			x1, y1 := x0+1+rng.Intn(nx-x0), y0+1+rng.Intn(ny-y0)
			px, py := f.DieW/float64(nx), f.DieH/float64(ny)
			rect := floorplan.Rect{X: float64(x0) * px, Y: float64(y0) * py, W: float64(x1-x0) * px, H: float64(y1-y0) * py}
			if err := f.AddUnit(floorplan.Unit{Name: fmt.Sprint(u), Rect: rect}); err != nil {
				t.Fatal(err)
			}
		}
		g, err := f.Tile(cols, rows)
		if err != nil {
			t.Fatal(err)
		}
		want, tied := tileAllPairs(f, g)
		ties += tied
		if !slices.Equal(g.OwnerUnit, want) {
			t.Fatalf("trial %d (%dx%d): OwnerUnit %v, all pairs %v", trial, cols, rows, g.OwnerUnit, want)
		}
	}
	if ties == 0 {
		t.Fatal("no tile had two units with equal overlap")
	}
}

// Tile allocates what it returns and nothing more: the grid and its
// owner table.
func TestTileAllocations(t *testing.T) {
	f := floorplan.Alpha21364()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.Tile(12, 12); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Tile makes %v allocations, want 2", allocs)
	}
}
