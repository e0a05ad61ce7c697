package thermal

import (
	"math"

	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/num"
	"tecopt/internal/tecerr"
)

// BuildOptions configures the package discretization.
type BuildOptions struct {
	// Cols, Rows define the die tiling (the paper's pxq TEC-site grid).
	Cols, Rows int
	// SpreaderCells and SinkCells give the per-side cell counts of the
	// spreader and sink layer grids. Defaults (20, 20) put the spreader
	// at 1.5 mm pitch and the sink at 3 mm pitch for the default 30/60 mm
	// package, nesting the 0.5 mm die tiles exactly.
	SpreaderCells, SinkCells int
	// TECSites marks the silicon tiles whose TIM node is replaced by a
	// thin-film TEC (cold+hot node pair); the devices themselves are
	// attached afterwards via AttachTEC.
	TECSites map[int]bool
}

// DefaultBuildOptions returns the canonical 12x12 die tiling with the
// default spreader/sink resolutions and no TECs.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{Cols: 12, Rows: 12, SpreaderCells: 20, SinkCells: 20}
}

// SprShare describes how a die tile's footprint is split across spreader
// cells: the spreader node index and the shared (overlap) area in m^2.
type SprShare struct {
	Node int
	Area float64
}

// PackageNetwork is the assembled compact model of a chip package plus
// the bookkeeping needed to attach TEC devices and power profiles.
type PackageNetwork struct {
	Net  *Network
	Geom material.PackageGeometry
	Opts BuildOptions

	// SilNode[t] is the network node of silicon tile t.
	SilNode []int
	// TIMNode[t] is the TIM node over tile t, or -1 for TEC sites.
	TIMNode []int
	// ColdNode[t] and HotNode[t] are the TEC nodes over tile t, or -1
	// when tile t is not a TEC site / not yet attached.
	ColdNode, HotNode []int
	// SprShares[t] lists the spreader cells over tile t with overlap
	// areas; TEC hot sides attach through these.
	SprShares [][]SprShare

	// halfSilG[t] is the conductance of the lower half of the silicon
	// slab under tile t (used when wiring a TEC cold side).
	halfSilG []float64
	// halfSprPerArea is the conductance per unit area of the upper half
	// path into a spreader cell: k_spr/(t_spr/2).
	halfSprPerArea float64
}

// layerGrid is a uniform square-cell grid of one package layer, in global
// coordinates (all layers concentric).
type layerGrid struct {
	cells  int // per side
	pitch  float64
	origin float64 // lower-left corner coordinate (same for x and y)
	node   []int
}

func (lg *layerGrid) rect(c, r int) floorplan.Rect {
	return floorplan.Rect{
		X: lg.origin + float64(c)*lg.pitch,
		Y: lg.origin + float64(r)*lg.pitch,
		W: lg.pitch, H: lg.pitch,
	}
}

func (lg *layerGrid) idx(c, r int) int { return r*lg.cells + c }

// span returns the cells [lo, hi) along one axis that the interval
// [x, x+w) can overlap, padded by one cell on each side so that
// rounding never drops a cell Overlap would count: every cell outside
// lies a whole pitch away.
func (lg *layerGrid) span(x, w float64) (lo, hi int) {
	lo = int(math.Floor((x-lg.origin)/lg.pitch)) - 1
	hi = int(math.Floor((x+w-lg.origin)/lg.pitch)) + 2
	return max(lo, 0), min(hi, lg.cells)
}

// BuildPackage constructs the compact thermal model of the package
// described by geom, dissected per opts. TEC sites are left open (no TIM
// node) for AttachTEC to populate.
func BuildPackage(geom material.PackageGeometry, opts BuildOptions) (*PackageNetwork, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if opts.Cols <= 0 || opts.Rows <= 0 {
		return nil, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.build",
			"thermal: nonpositive die tiling %dx%d", opts.Cols, opts.Rows)
	}
	if opts.SpreaderCells <= 0 {
		opts.SpreaderCells = 20
	}
	if opts.SinkCells <= 0 {
		opts.SinkCells = 20
	}
	if !num.ExactEqual(geom.DieWidth, geom.DieHeight) && opts.Cols != opts.Rows {
		// Non-square dies are fine; the layer grids stay square.
		_ = geom
	}

	pn := &PackageNetwork{Net: NewNetwork(), Geom: geom, Opts: opts}
	nt := opts.Cols * opts.Rows
	pn.SilNode = make([]int, nt)
	pn.TIMNode = make([]int, nt)
	pn.ColdNode = make([]int, nt)
	pn.HotNode = make([]int, nt)
	pn.SprShares = make([][]SprShare, nt)
	pn.halfSilG = make([]float64, nt)
	for t := 0; t < nt; t++ {
		pn.TIMNode[t], pn.ColdNode[t], pn.HotNode[t] = -1, -1, -1
	}

	tileW := geom.DieWidth / float64(opts.Cols)
	tileH := geom.DieHeight / float64(opts.Rows)
	tileArea := tileW * tileH
	// Global coordinates centered at the package center.
	dieOrigX := -geom.DieWidth / 2
	dieOrigY := -geom.DieHeight / 2
	tileRect := func(t int) floorplan.Rect {
		c, r := t%opts.Cols, t/opts.Cols
		return floorplan.Rect{
			X: dieOrigX + float64(c)*tileW,
			Y: dieOrigY + float64(r)*tileH,
			W: tileW, H: tileH,
		}
	}

	kSil := material.Silicon.Conductivity
	kTIM := material.TIM.Conductivity
	kCu := material.Copper.Conductivity
	tSil := geom.DieThickness
	tTIM := geom.TIMThickness
	tSpr := geom.SpreaderThickness
	tSnk := geom.SinkThickness

	// --- Silicon layer -------------------------------------------------
	for t := 0; t < nt; t++ {
		pn.SilNode[t] = pn.Net.AddNode(Node{Kind: KindSilicon, Tile: t})
		pn.halfSilG[t] = kSil * tileArea / (tSil / 2)
	}
	// Lateral silicon conductances between adjacent tiles.
	lateral := func(nodeAt func(c, r int) int, cols, rows int, k, thick, pw, ph float64) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					// Shared edge ph, center distance pw.
					g := k * thick * ph / pw
					pn.Net.AddConductance(nodeAt(c, r), nodeAt(c+1, r), g)
				}
				if r+1 < rows {
					g := k * thick * pw / ph
					pn.Net.AddConductance(nodeAt(c, r), nodeAt(c, r+1), g)
				}
			}
		}
	}
	lateral(func(c, r int) int { return pn.SilNode[r*opts.Cols+c] }, opts.Cols, opts.Rows, kSil, tSil, tileW, tileH)

	// --- TIM layer (skipping TEC sites) --------------------------------
	for t := 0; t < nt; t++ {
		if opts.TECSites[t] {
			continue
		}
		pn.TIMNode[t] = pn.Net.AddNode(Node{Kind: KindTIM, Tile: t})
		// Vertical silicon <-> TIM: two half-slabs in series.
		g := tileArea / (tSil/(2*kSil) + tTIM/(2*kTIM))
		pn.Net.AddConductance(pn.SilNode[t], pn.TIMNode[t], g)
	}
	// Lateral TIM conductances between present neighbors.
	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			t := r*opts.Cols + c
			if pn.TIMNode[t] < 0 {
				continue
			}
			if c+1 < opts.Cols && pn.TIMNode[t+1] >= 0 {
				pn.Net.AddConductance(pn.TIMNode[t], pn.TIMNode[t+1], kTIM*tTIM*tileH/tileW)
			}
			if r+1 < opts.Rows && pn.TIMNode[t+opts.Cols] >= 0 {
				pn.Net.AddConductance(pn.TIMNode[t], pn.TIMNode[t+opts.Cols], kTIM*tTIM*tileW/tileH)
			}
		}
	}

	// --- Spreader layer -------------------------------------------------
	spr := &layerGrid{cells: opts.SpreaderCells, pitch: geom.SpreaderSide / float64(opts.SpreaderCells), origin: -geom.SpreaderSide / 2}
	spr.node = make([]int, spr.cells*spr.cells)
	for r := 0; r < spr.cells; r++ {
		for c := 0; c < spr.cells; c++ {
			spr.node[spr.idx(c, r)] = pn.Net.AddNode(Node{Kind: KindSpreader, Tile: -1})
		}
	}
	lateral(func(c, r int) int { return spr.node[spr.idx(c, r)] }, spr.cells, spr.cells, kCu, tSpr, spr.pitch, spr.pitch)
	pn.halfSprPerArea = kCu / (tSpr / 2)

	// TIM/TEC-site <-> spreader coupling by area overlap, over the
	// cells the tile can touch.
	for t := 0; t < nt; t++ {
		tr := tileRect(t)
		var shares []SprShare
		c0, c1 := spr.span(tr.X, tr.W)
		r0, r1 := spr.span(tr.Y, tr.H)
		for r := r0; r < r1; r++ {
			for c := c0; c < c1; c++ {
				ov := tr.Overlap(spr.rect(c, r))
				if ov <= 0 {
					continue
				}
				shares = append(shares, SprShare{Node: spr.node[spr.idx(c, r)], Area: ov})
			}
		}
		pn.SprShares[t] = shares
		if pn.TIMNode[t] >= 0 {
			for _, sh := range shares {
				g := sh.Area / (tTIM/(2*kTIM) + tSpr/(2*kCu))
				pn.Net.AddConductance(pn.TIMNode[t], sh.Node, g)
			}
		}
	}

	// --- Sink layer -------------------------------------------------------
	snk := &layerGrid{cells: opts.SinkCells, pitch: geom.SinkSide / float64(opts.SinkCells), origin: -geom.SinkSide / 2}
	snk.node = make([]int, snk.cells*snk.cells)
	for r := 0; r < snk.cells; r++ {
		for c := 0; c < snk.cells; c++ {
			snk.node[snk.idx(c, r)] = pn.Net.AddNode(Node{Kind: KindSink, Tile: -1})
		}
	}
	lateral(func(c, r int) int { return snk.node[snk.idx(c, r)] }, snk.cells, snk.cells, kCu, tSnk, snk.pitch, snk.pitch)

	// Spreader <-> sink coupling by overlap, over the sink cells each
	// spreader cell can touch.
	for r := 0; r < spr.cells; r++ {
		for c := 0; c < spr.cells; c++ {
			sr := spr.rect(c, r)
			cc0, cc1 := snk.span(sr.X, sr.W)
			rr0, rr1 := snk.span(sr.Y, sr.H)
			for rr := rr0; rr < rr1; rr++ {
				for cc := cc0; cc < cc1; cc++ {
					ov := sr.Overlap(snk.rect(cc, rr))
					if ov <= 0 {
						continue
					}
					g := ov / (tSpr/(2*kCu) + tSnk/(2*kCu))
					pn.Net.AddConductance(spr.node[spr.idx(c, r)], snk.node[snk.idx(cc, rr)], g)
				}
			}
		}
	}

	// Convection to ambient: total 1/Rconvec split by sink cell area.
	gTotal := 1 / geom.ConvectionResistance
	cellFrac := 1 / float64(snk.cells*snk.cells)
	for _, node := range snk.node {
		pn.Net.AddGround(node, gTotal*cellFrac, geom.AmbientK)
	}

	return pn, nil
}

// NumTiles returns the number of silicon tiles.
func (pn *PackageNetwork) NumTiles() int { return pn.Opts.Cols * pn.Opts.Rows }

// Validate checks the assembled package model: a structurally sound
// network (see Network.Validate) and a consistent tile-to-node mapping.
// Errors carry tecerr.CodeInvalidInput.
func (pn *PackageNetwork) Validate() error {
	if err := pn.Geom.Validate(); err != nil {
		return err
	}
	if err := pn.Net.Validate(); err != nil {
		return err
	}
	nt := pn.NumTiles()
	if len(pn.SilNode) != nt || len(pn.TIMNode) != nt || len(pn.ColdNode) != nt || len(pn.HotNode) != nt {
		return tecerr.Newf(tecerr.CodeInvalidInput, "thermal.validate",
			"thermal: tile node tables sized %d/%d/%d/%d, want %d",
			len(pn.SilNode), len(pn.TIMNode), len(pn.ColdNode), len(pn.HotNode), nt)
	}
	nn := pn.Net.NumNodes()
	for t := 0; t < nt; t++ {
		if pn.SilNode[t] < 0 || pn.SilNode[t] >= nn {
			return tecerr.Newf(tecerr.CodeInvalidInput, "thermal.validate",
				"thermal: tile %d silicon node %d out of range %d", t, pn.SilNode[t], nn)
		}
		if pn.TIMNode[t] < 0 && pn.ColdNode[t] < 0 && !pn.Opts.TECSites[t] {
			return tecerr.Newf(tecerr.CodeInvalidInput, "thermal.validate",
				"thermal: tile %d has neither a TIM node nor a TEC", t)
		}
	}
	return nil
}

// AttachTEC wires a TEC device's two-node model (Figure 4) into TEC site
// t: a cold node coupled to the silicon tile through the contact
// conductance gc (in series with the lower half silicon slab) and a hot
// node coupled to the overlapping spreader cells through gh (split by
// overlap area, each in series with the upper half spreader slab), with
// the device conductance kappa between them. The Peltier conductors
// (+/- alpha*i) are NOT stamped here — they form the D matrix handled by
// the caller — and neither are the Joule heat sources, which depend on i.
//
// It returns the cold and hot node indices.
func (pn *PackageNetwork) AttachTEC(t int, gc, gh, kappa float64) (cold, hot int, err error) {
	if t < 0 || t >= pn.NumTiles() {
		return 0, 0, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.attach",
			"thermal: TEC site %d out of range %d", t, pn.NumTiles())
	}
	if !pn.Opts.TECSites[t] {
		return 0, 0, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.attach",
			"thermal: tile %d was not reserved as a TEC site", t)
	}
	if pn.ColdNode[t] >= 0 {
		return 0, 0, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.attach",
			"thermal: tile %d already has a TEC attached", t)
	}
	if !num.IsFinite(gc) || !num.IsFinite(gh) || !num.IsFinite(kappa) || gc <= 0 || gh <= 0 || kappa <= 0 {
		return 0, 0, tecerr.Newf(tecerr.CodeInvalidInput, "thermal.attach",
			"thermal: TEC conductances must be positive (gc=%g gh=%g kappa=%g)", gc, gh, kappa)
	}
	cold = pn.Net.AddNode(Node{Kind: KindTECCold, Tile: t})
	hot = pn.Net.AddNode(Node{Kind: KindTECHot, Tile: t})
	pn.ColdNode[t], pn.HotNode[t] = cold, hot

	// Cold side to silicon: half silicon slab in series with contact.
	pn.Net.AddConductance(pn.SilNode[t], cold, seriesG(pn.halfSilG[t], gc))
	// Device conduction hot <-> cold.
	pn.Net.AddConductance(cold, hot, kappa)
	// Hot side to spreader cells, split by overlap area.
	var tileArea float64
	for _, sh := range pn.SprShares[t] {
		tileArea += sh.Area
	}
	for _, sh := range pn.SprShares[t] {
		frac := sh.Area / tileArea
		g := seriesG(gh*frac, pn.halfSprPerArea*sh.Area)
		pn.Net.AddConductance(hot, sh.Node, g)
	}
	return cold, hot, nil
}

func seriesG(a, b float64) float64 {
	if num.IsZero(a) || num.IsZero(b) {
		return 0
	}
	return a * b / (a + b)
}
