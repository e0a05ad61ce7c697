package floorplan

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// HotSpot-style .flp serialization.
//
// Each non-comment line reads:
//
//	<unit-name> <width> <height> <left-x> <bottom-y>
//
// in meters, matching the format consumed by HotSpot 4.1 (which the paper
// uses for validation). Lines starting with '#' and blank lines are
// ignored. Die dimensions are inferred as the bounding box of the units.

// ParseFLP reads a floorplan in .flp format.
func ParseFLP(name string, r io.Reader) (*Floorplan, error) {
	type row struct {
		name       string
		w, h, x, y float64
	}
	var rows []row
	var maxX, maxY float64
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("floorplan: %s:%d: want 5 fields, have %d", name, lineNo, len(fields))
		}
		vals := make([]float64, 4)
		for i := 0; i < 4; i++ {
			v, err := strconv.ParseFloat(fields[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("floorplan: %s:%d: bad number %q: %v", name, lineNo, fields[i+1], err)
			}
			vals[i] = v
		}
		rw := row{name: fields[0], w: vals[0], h: vals[1], x: vals[2], y: vals[3]}
		if rw.w <= 0 || rw.h <= 0 {
			return nil, fmt.Errorf("floorplan: %s:%d: unit %q has nonpositive size %g x %g", name, lineNo, rw.name, rw.w, rw.h)
		}
		if rw.x < 0 || rw.y < 0 {
			return nil, fmt.Errorf("floorplan: %s:%d: unit %q has negative origin (%g, %g)", name, lineNo, rw.name, rw.x, rw.y)
		}
		rows = append(rows, rw)
		maxX = math.Max(maxX, rw.x+rw.w)
		maxY = math.Max(maxY, rw.y+rw.h)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("floorplan: reading %s: %v", name, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("floorplan: %s: no units", name)
	}
	f := New(name, maxX, maxY)
	for _, rw := range rows {
		if err := f.AddUnit(Unit{Name: rw.name, Rect: Rect{X: rw.x, Y: rw.y, W: rw.w, H: rw.h}}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// WriteFLP writes the floorplan in .flp format. Units appear in
// insertion order.
func WriteFLP(w io.Writer, f *Floorplan) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# floorplan %s: die %g x %g m\n", f.Name, f.DieW, f.DieH)
	fmt.Fprintf(bw, "# <unit-name> <width> <height> <left-x> <bottom-y>\n")
	for _, u := range f.Units {
		fmt.Fprintf(bw, "%s\t%.9g\t%.9g\t%.9g\t%.9g\n", u.Name, u.W, u.H, u.X, u.Y)
	}
	return bw.Flush()
}

// AsciiMap renders the grid's unit ownership as an ASCII art map with one
// letter per tile (row 0 printed last so the map is oriented like Figure
// 7), plus a legend. Tiles in marked get uppercase '#'-style emphasis by
// being wrapped in brackets when wide is true; more simply, marked tiles
// are drawn as '#'.
func AsciiMap(f *Floorplan, g *Grid, marked map[int]bool) string {
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	var b strings.Builder
	for row := g.Rows - 1; row >= 0; row-- {
		for col := 0; col < g.Cols; col++ {
			t := g.TileIndex(col, row)
			if marked[t] {
				b.WriteByte('#')
				continue
			}
			owner := g.OwnerUnit[t]
			if owner < 0 || owner >= len(letters) {
				b.WriteByte('.')
			} else {
				b.WriteByte(letters[owner])
			}
		}
		b.WriteByte('\n')
	}
	// Legend, insertion order.
	b.WriteString("legend:")
	for i, u := range f.Units {
		if i < len(letters) {
			fmt.Fprintf(&b, " %c=%s", letters[i], u.Name)
		}
	}
	if len(marked) > 0 {
		b.WriteString(" #=TEC")
	}
	b.WriteByte('\n')
	return b.String()
}
