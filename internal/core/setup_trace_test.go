package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

// tracedSpans parses the spans of r's recorded trace by ID.
func tracedSpans(t *testing.T, r *obs.Registry) map[uint64]obs.TraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	spans := map[uint64]obs.TraceEvent{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if ev.Kind == "dropped" {
			t.Fatalf("trace dropped events: %s", line)
		}
		if ev.Kind == "span" {
			spans[ev.ID] = ev
		}
	}
	return spans
}

// attr returns the value of the span's annotation key, or "" without
// one.
func attr(ev obs.TraceEvent, key string) string {
	for _, a := range ev.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// A traced GreedyDeploy on Alpha records one "core.greedy.iteration"
// span per pass under the deployment, annotated with the tiles the pass
// added, and one "thermal.reusable.setup" per System under the read
// that triggered it: the passive solve directly under the deployment,
// each pass's System inside its iteration. Every setup holds the
// factorization, annotated with n and nnz(L), and with TECs deployed
// the W solve and the dense stage; its backward error is annotated and
// observed in units of machine epsilon.
func TestTracedGreedyRecordsSetupSpans(t *testing.T) {
	f, g := floorplan.Alpha21364Grid()
	r := obs.New(nil)
	r.EnableTraceOpts(obs.TraceOptions{})
	prev := obs.SetGlobal(r)
	res, err := GreedyDeploy(Config{TilePower: power.AlphaTilePowers(f, g)}, material.CelsiusToKelvin(85), CurrentOptions{})
	obs.SetGlobal(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) == 0 {
		t.Fatal("Alpha placed no TECs")
	}
	spans := tracedSpans(t, r)
	byName := map[string][]obs.TraceEvent{}
	children := map[uint64][]string{}
	var ids []uint64
	for id := range spans {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ev := spans[id]
		byName[ev.Name] = append(byName[ev.Name], ev)
		children[ev.Parent] = append(children[ev.Parent], ev.Name)
	}
	if len(byName["core.greedy_deploy"]) != 1 {
		t.Fatalf("%d deployment spans, want 1", len(byName["core.greedy_deploy"]))
	}
	root := byName["core.greedy_deploy"][0].ID
	iters := byName["core.greedy.iteration"]
	if len(iters) != len(res.Iterations) {
		t.Fatalf("%d iteration spans, want %d", len(iters), len(res.Iterations))
	}
	for k, it := range iters {
		want := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(res.Iterations[k].Added)), ","), "[]")
		if it.Parent != root || attr(it, "added") != want {
			t.Errorf("iteration %d: parent %d, added %q; want parent %d, added %q", k, it.Parent, attr(it, "added"), root, want)
		}
	}
	// under returns the iteration span above id, or root.
	under := func(id uint64) uint64 {
		for ; id != 0; id = spans[id].Parent {
			if spans[id].Name == "core.greedy.iteration" {
				return id
			}
		}
		return root
	}
	setups := byName["thermal.reusable.setup"]
	if len(setups) != 1+len(iters) {
		t.Fatalf("%d setup spans, want %d (the passive System and one per pass)", len(setups), 1+len(iters))
	}
	for k, sp := range setups {
		want := "thermal.factor,sparse.smw.wsolve,sparse.smw.dense"
		if k == 0 {
			want = "thermal.factor" // the passive System has no update to solve for
			if sp.Parent != root {
				t.Errorf("passive setup parent %q, want the deployment", spans[sp.Parent].Name)
			}
		} else {
			if it := iters[k-1].ID; under(sp.Parent) != it || sp.Parent == it {
				t.Errorf("setup %d: parent %q is not a read inside iteration %d", k, spans[sp.Parent].Name, k-1)
			}
		}
		if got := strings.Join(children[sp.ID], ","); got != want {
			t.Errorf("setup %d: children %s, want %s", k, got, want)
		}
		for _, id := range ids {
			if c := spans[id]; c.Parent == sp.ID && c.Name == "thermal.factor" {
				n, _ := strconv.Atoi(attr(c, "n"))
				nnz, _ := strconv.Atoi(attr(c, "nnz_l"))
				if n < 1088 || nnz < n {
					t.Errorf("setup %d: factor annotated n = %q, nnz_l = %q", k, attr(c, "n"), attr(c, "nnz_l"))
				}
			}
		}
		be, err := strconv.ParseFloat(attr(sp, "backward_error_eps"), 64)
		if err != nil || be > 16 {
			t.Errorf("setup %d: backward_error_eps %q, want <= 16", k, attr(sp, "backward_error_eps"))
		}
	}
	if h := r.Snapshot().Histograms["thermal.reusable.backward_error_eps"]; h.Count != uint64(len(setups)) || h.Max > 16 {
		t.Errorf("backward_error_eps histogram: %d observations, max %d; want %d, max <= 16", h.Count, h.Max, len(setups))
	}
}

// The base load's solve of every System the bit-identity hash pins (the
// eleven Table I chips under full cover, five sites and one site) has a
// normwise backward error of at most 16 machine epsilons, as the setup
// observes it when a registry is installed.
func TestPinnedSetupBackwardError(t *testing.T) {
	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)
	systems := 0
	eachPinnedSystem(t, func(string, *System, float64, float64) { systems++ })
	h := r.Snapshot().Histograms["thermal.reusable.backward_error_eps"]
	if systems != 33 || h.Count != 33 || h.Max > 16 {
		t.Fatalf("%d systems, %d observations, worst %d eps; want 33, 33, <= 16", systems, h.Count, h.Max)
	}
	t.Logf("backward error of the 33 base-load solves: worst %d eps (rounded up), mean %.2f", h.Max, float64(h.Sum)/float64(h.Count))
}
