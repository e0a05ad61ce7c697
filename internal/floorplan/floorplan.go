// Package floorplan models microprocessor floorplans: rectangular
// functional units tiling a silicon die, HotSpot-style .flp text
// serialization, and the dissection of the die into the equal-area tiles
// that the cooling-system optimizer works on (one tile per candidate TEC
// site, Section V Problem 1 of the paper).
package floorplan

import (
	"fmt"
	"math"
	"sort"
)

// Rect is an axis-aligned rectangle. X, Y locate the lower-left corner;
// all quantities are in meters.
type Rect struct {
	X, Y, W, H float64
}

// Area returns the rectangle area in m^2.
func (r Rect) Area() float64 { return r.W * r.H }

// Contains reports whether the point (x, y) lies inside the rectangle
// (closed on the low edges, open on the high edges, so adjacent
// rectangles partition points uniquely).
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X && x < r.X+r.W && y >= r.Y && y < r.Y+r.H
}

// Overlap returns the area of the intersection of r and s.
func (r Rect) Overlap(s Rect) float64 {
	w := math.Min(r.X+r.W, s.X+s.W) - math.Max(r.X, s.X)
	h := math.Min(r.Y+r.H, s.Y+s.H) - math.Max(r.Y, s.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Unit is a named functional unit occupying a rectangle of the die.
type Unit struct {
	Name string
	Rect
}

// Floorplan is a set of functional units tiling a rectangular die.
type Floorplan struct {
	Name   string
	DieW   float64 // die width (m)
	DieH   float64 // die height (m)
	Units  []Unit
	byName map[string]int
}

// New creates a floorplan with the given die dimensions.
func New(name string, dieW, dieH float64) *Floorplan {
	if dieW <= 0 || dieH <= 0 {
		panic(fmt.Sprintf("floorplan: nonpositive die %g x %g", dieW, dieH))
	}
	return &Floorplan{Name: name, DieW: dieW, DieH: dieH, byName: make(map[string]int)}
}

// AddUnit appends a unit. It returns an error for duplicate names or
// units extending beyond the die.
func (f *Floorplan) AddUnit(u Unit) error {
	if u.W <= 0 || u.H <= 0 {
		return fmt.Errorf("floorplan: unit %q has nonpositive size %g x %g", u.Name, u.W, u.H)
	}
	if _, dup := f.byName[u.Name]; dup {
		return fmt.Errorf("floorplan: duplicate unit %q", u.Name)
	}
	const eps = 1e-12
	if u.X < -eps || u.Y < -eps || u.X+u.W > f.DieW+eps || u.Y+u.H > f.DieH+eps {
		return fmt.Errorf("floorplan: unit %q [%g,%g,%g,%g] outside die %g x %g",
			u.Name, u.X, u.Y, u.W, u.H, f.DieW, f.DieH)
	}
	f.byName[u.Name] = len(f.Units)
	f.Units = append(f.Units, u)
	return nil
}

// Unit returns the unit with the given name.
func (f *Floorplan) Unit(name string) (Unit, bool) {
	i, ok := f.byName[name]
	if !ok {
		return Unit{}, false
	}
	return f.Units[i], true
}

// UnitNames returns the unit names in insertion order.
func (f *Floorplan) UnitNames() []string {
	names := make([]string, len(f.Units))
	for i, u := range f.Units {
		names[i] = u.Name
	}
	return names
}

// TotalUnitArea returns the summed area of all units.
func (f *Floorplan) TotalUnitArea() float64 {
	var a float64
	for _, u := range f.Units {
		a += u.Area()
	}
	return a
}

// Validate checks that the units exactly tile the die: total area matches
// and no pair of units overlaps. tol is a relative area tolerance.
func (f *Floorplan) Validate(tol float64) error {
	die := f.DieW * f.DieH
	if math.Abs(f.TotalUnitArea()-die) > tol*die {
		return fmt.Errorf("floorplan %s: unit area %.6g != die area %.6g", f.Name, f.TotalUnitArea(), die)
	}
	for i := range f.Units {
		for j := i + 1; j < len(f.Units); j++ {
			if ov := f.Units[i].Overlap(f.Units[j].Rect); ov > tol*die {
				return fmt.Errorf("floorplan %s: units %q and %q overlap by %.3g m^2",
					f.Name, f.Units[i].Name, f.Units[j].Name, ov)
			}
		}
	}
	return nil
}

// Grid is a dissection of the die into Cols x Rows equal tiles, mirroring
// the paper's "pxq tiles ... where each tile has the same area as a TEC
// device". Tile (c, r) spans [c*Pitch, (c+1)*PitchX) x [r*Pitch, ...),
// with tile index r*Cols + c (row-major, row 0 at the bottom).
type Grid struct {
	Cols, Rows     int
	PitchX, PitchY float64 // tile dimensions (m)
	// OwnerUnit[t] is the index into Floorplan.Units of the unit owning
	// the largest share of tile t (-1 if the tile is uncovered).
	OwnerUnit []int
}

// NumTiles returns Cols*Rows.
func (g *Grid) NumTiles() int { return g.Cols * g.Rows }

// TileIndex maps (col, row) to the flat tile index.
func (g *Grid) TileIndex(col, row int) int {
	if col < 0 || col >= g.Cols || row < 0 || row >= g.Rows {
		panic(fmt.Sprintf("floorplan: tile (%d,%d) out of %dx%d grid", col, row, g.Cols, g.Rows))
	}
	return row*g.Cols + col
}

// TileColRow is the inverse of TileIndex.
func (g *Grid) TileColRow(t int) (col, row int) {
	if t < 0 || t >= g.NumTiles() {
		panic(fmt.Sprintf("floorplan: tile %d out of range %d", t, g.NumTiles()))
	}
	return t % g.Cols, t / g.Cols
}

// TileRect returns the rectangle of tile t.
func (g *Grid) TileRect(t int) Rect {
	c, r := g.TileColRow(t)
	return Rect{X: float64(c) * g.PitchX, Y: float64(r) * g.PitchY, W: g.PitchX, H: g.PitchY}
}

// TileArea returns the area of one tile in m^2.
func (g *Grid) TileArea() float64 { return g.PitchX * g.PitchY }

// Tile dissects the floorplan into cols x rows tiles and assigns each
// tile to the unit with the greatest area overlap, the first such unit
// on a tie. Each unit visits only the tiles it can overlap.
func (f *Floorplan) Tile(cols, rows int) (*Grid, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("floorplan: nonpositive grid %dx%d", cols, rows)
	}
	g := &Grid{
		Cols:   cols,
		Rows:   rows,
		PitchX: f.DieW / float64(cols),
		PitchY: f.DieH / float64(rows),
	}
	g.OwnerUnit = make([]int, g.NumTiles())
	for t := range g.OwnerUnit {
		g.OwnerUnit[t] = -1
	}
	// Units in order, so a later unit takes a tile only with a strictly
	// greater overlap than its current owner's, recomputed rather than
	// stored.
	for ui, u := range f.Units {
		c0, c1 := tileSpan(u.X, u.W, g.PitchX, cols)
		r0, r1 := tileSpan(u.Y, u.H, g.PitchY, rows)
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				t := r*cols + c
				tr := g.TileRect(t)
				best := 0.0
				if owner := g.OwnerUnit[t]; owner >= 0 {
					best = tr.Overlap(f.Units[owner].Rect)
				}
				if tr.Overlap(u.Rect) > best {
					g.OwnerUnit[t] = ui
				}
			}
		}
	}
	return g, nil
}

// tileSpan returns the tiles [lo, hi) along one axis of n tiles of the
// given pitch that the interval [x, x+w) can overlap, padded by one
// tile on each side so that rounding never drops a tile Overlap would
// count: every tile outside lies a whole pitch away. The bounds are
// clamped to [0, n] before they become integers, so a NaN or huge
// interval converts no out-of-range float; a NaN one spans no tile,
// which it could not own anyway.
func tileSpan(x, w, pitch float64, n int) (lo, hi int) {
	clamp := func(v float64) int {
		if !(v > 0) {
			return 0
		}
		return int(math.Min(v, float64(n)))
	}
	return clamp(math.Floor(x/pitch) - 1), clamp(math.Floor((x+w)/pitch) + 2)
}

// TilesOfUnit returns (sorted) tile indices owned by the named unit.
func (g *Grid) TilesOfUnit(f *Floorplan, name string) []int {
	ui, ok := f.byName[name]
	if !ok {
		return nil
	}
	var tiles []int
	for t, owner := range g.OwnerUnit {
		if owner == ui {
			tiles = append(tiles, t)
		}
	}
	sort.Ints(tiles)
	return tiles
}

// PowerPerTile distributes per-unit total powers (W) uniformly over each
// unit's tiles and returns the per-tile power vector. Units absent from
// the map get zero power.
func (g *Grid) PowerPerTile(f *Floorplan, unitPower map[string]float64) []float64 {
	// Count tiles per unit first.
	count := make([]int, len(f.Units))
	for _, owner := range g.OwnerUnit {
		if owner >= 0 {
			count[owner]++
		}
	}
	p := make([]float64, g.NumTiles())
	for t, owner := range g.OwnerUnit {
		if owner < 0 {
			continue
		}
		u := f.Units[owner]
		if pw, ok := unitPower[u.Name]; ok && count[owner] > 0 {
			p[t] = pw / float64(count[owner])
		}
	}
	return p
}

// DensityPerTile converts per-unit power densities (W/m^2) into per-tile
// powers (W), assigning each tile its owner's density times the tile area.
func (g *Grid) DensityPerTile(f *Floorplan, unitDensity map[string]float64) []float64 {
	p := make([]float64, g.NumTiles())
	area := g.TileArea()
	for t, owner := range g.OwnerUnit {
		if owner < 0 {
			continue
		}
		if d, ok := unitDensity[f.Units[owner].Name]; ok {
			p[t] = d * area
		}
	}
	return p
}
