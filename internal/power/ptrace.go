package power

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"tecopt/internal/floorplan"
	"tecopt/internal/tecerr"
)

// HotSpot-style .ptrace serialization.
//
// The paper's flow collects per-unit power traces from M5+Wattch runs
// and derives the worst-case per-unit power with a 20% margin. This file
// provides the trace side of that flow: the HotSpot .ptrace text format
// (a header line of unit names followed by whitespace-separated sample
// rows, watts per unit), the worst-case envelope over samples, and the
// bridge onto per-tile power vectors.

// Trace is a per-unit power trace: Samples[s][u] is the power (W) of
// unit Units[u] at sample s.
type Trace struct {
	Units   []string
	Samples [][]float64
}

// ParsePtrace reads a .ptrace stream. Lines starting with '#' and blank
// lines are ignored; every sample row must have one value per unit.
func ParsePtrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	tr := &Trace{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if tr.Units == nil {
			tr.Units = fields
			continue
		}
		if len(fields) != len(tr.Units) {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "power.ptrace",
				"power: ptrace line %d: %d values, want %d", lineNo, len(fields), len(tr.Units))
		}
		row := make([]float64, len(fields))
		for i, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, tecerr.Newf(tecerr.CodeInvalidInput, "power.ptrace",
					"power: ptrace line %d: bad value %q: %v", lineNo, f, err)
			}
			if v < 0 {
				return nil, tecerr.Newf(tecerr.CodeInvalidInput, "power.ptrace",
					"power: ptrace line %d: negative power %g", lineNo, v)
			}
			row[i] = v
		}
		tr.Samples = append(tr.Samples, row)
	}
	if err := sc.Err(); err != nil {
		return nil, tecerr.Wrap(tecerr.CodeInvalidInput, "power.ptrace", "power: reading ptrace", err)
	}
	if tr.Units == nil {
		return nil, tecerr.New(tecerr.CodeInvalidInput, "power.ptrace", "power: ptrace has no header")
	}
	if len(tr.Samples) == 0 {
		return nil, tecerr.New(tecerr.CodeInvalidInput, "power.ptrace", "power: ptrace has no samples")
	}
	return tr, nil
}

// WritePtrace writes the trace in .ptrace format.
func WritePtrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# ptrace: %d units, %d samples\n", len(tr.Units), len(tr.Samples))
	fmt.Fprintln(bw, strings.Join(tr.Units, "\t"))
	for _, row := range tr.Samples {
		if len(row) != len(tr.Units) {
			return tecerr.Newf(tecerr.CodeInvalidInput, "power.ptrace",
				"power: sample width %d, want %d", len(row), len(tr.Units))
		}
		for i, v := range row {
			if i > 0 {
				bw.WriteByte('\t')
			}
			fmt.Fprintf(bw, "%.6g", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WorstCase returns the per-unit maximum over samples times margin — the
// paper's worst-case construction (margin 1.2 for the +20% guard band).
func (tr *Trace) WorstCase(margin float64) map[string]float64 {
	out := make(map[string]float64, len(tr.Units))
	for s := range tr.Samples {
		for u, v := range tr.Samples[s] {
			if w := v * margin; w > out[tr.Units[u]] {
				out[tr.Units[u]] = w
			}
		}
	}
	return out
}

// SynthesizeTrace evaluates the activity model over the workloads and
// emits one .ptrace sample per workload for the floorplan's units —
// exactly the data the paper's M5+Wattch stage produces. Unit powers are
// densities times unit areas.
func SynthesizeTrace(m *Model, f *floorplan.Floorplan, workloads []Workload) *Trace {
	tr := &Trace{Units: f.UnitNames()}
	for _, w := range workloads {
		d := m.Densities(w)
		row := make([]float64, len(f.Units))
		for i, u := range f.Units {
			row[i] = d[u.Name] * u.Area()
		}
		tr.Samples = append(tr.Samples, row)
	}
	return tr
}

// TilePowersFromTrace derives the worst-case per-tile power vector from
// a trace: per-unit envelope with margin, spread uniformly over each
// unit's tiles.
func TilePowersFromTrace(tr *Trace, f *floorplan.Floorplan, g *floorplan.Grid, margin float64) ([]float64, error) {
	worst := tr.WorstCase(margin)
	for _, u := range tr.Units {
		if _, ok := f.Unit(u); !ok {
			return nil, tecerr.Newf(tecerr.CodeInvalidInput, "power.ptrace",
				"power: trace unit %q not in floorplan %s", u, f.Name)
		}
	}
	return g.PowerPerTile(f, worst), nil
}
