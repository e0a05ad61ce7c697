package core

import (
	"context"
	"testing"

	"tecopt/internal/floorplan"
	"tecopt/internal/material"
	"tecopt/internal/obs"
	"tecopt/internal/power"
)

// deployment is one named System.
type deployment struct {
	name string
	sys  *System
}

// alphaDeployments returns Alpha under its Table I greedy deployment
// (rank 14) and under full cover (rank 288), each warmed by one
// OptimizeCurrent.
func alphaDeployments(t *testing.T) []deployment {
	t.Helper()
	f, g := floorplan.Alpha21364Grid()
	cfg := Config{TilePower: power.AlphaTilePowers(f, g)}
	greedy, err := GreedyDeploy(cfg, material.CelsiusToKelvin(85), CurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := make([]int, 144)
	for i := range full {
		full[i] = i
	}
	out := []deployment{{"greedy", greedy.System}, {"full-cover", mustSystem(t, cfg, full)}}
	for _, d := range out {
		if _, err := d.sys.OptimizeCurrent(CurrentOptions{}); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
	}
	return out
}

// withRegistry runs fn under a fresh metrics-only registry and returns
// it.
func withRegistry(fn func()) *obs.Registry {
	r := obs.New(nil)
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)
	fn()
	return r
}

// On a warm System the pole form answers the optimizer, the final field
// and the h_kl points without per-current band solves: a warm
// OptimizeCurrent makes none, and an h_kl sweep makes one, for the
// memoized pair weights of its (k, l).
func TestWarmPoleReadsMakeNoBandSolves(t *testing.T) {
	for _, d := range alphaDeployments(t) {
		name, sys := d.name, d.sys
		r := withRegistry(func() {
			if _, err := sys.OptimizeCurrent(CurrentOptions{}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if got := r.Counter("sparse.band.solves").Value(); got != 0 {
			t.Errorf("%s: warm OptimizeCurrent made %d band solves, want 0", name, got)
		}
		if r.Counter("thermal.reusable.smw_hits").Value() == 0 {
			t.Errorf("%s: warm OptimizeCurrent never read the fast path", name)
		}

		lam, err := sys.RunawayLimit(RunawayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		currents := make([]float64, 50)
		for j := range currents {
			currents[j] = 0.99 * lam * float64(j) / float64(len(currents))
		}
		k, l := sys.PN.SilNode[0], sys.Array.Hot[0]
		r = withRegistry(func() {
			if _, err := sys.HklSweep(context.Background(), k, l, currents); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if got := r.Counter("sparse.band.solves").Value(); got != 1 {
			t.Errorf("%s: %d-point h_kl sweep made %d band solves, want 1", name, len(currents), got)
		}
	}
}

// One own-load peak read (the optimizer's objective: the silicon rows)
// and one h_kl point on a warm System allocate nothing, with no registry
// and with a metrics-only registry.
func TestWarmPoleReadsDoNotAllocate(t *testing.T) {
	ctx := context.Background()
	for _, d := range alphaDeployments(t) {
		name, sys := d.name, d.sys
		lam, err := sys.RunawayLimit(RunawayOptions{})
		if err != nil {
			t.Fatal(err)
		}
		i := 0.5 * lam
		k, l := sys.PN.SilNode[0], sys.PN.SilNode[1]
		sil := make([]float64, sys.PN.NumTiles())
		for _, reg := range []*obs.Registry{nil, obs.New(nil)} {
			prev := obs.SetGlobal(reg)
			peak := testing.AllocsPerRun(20, func() {
				if err := sys.readLoad(ctx, i, sys.PN.SilNode, sil); err != nil {
					t.Fatal(err)
				}
			})
			point := testing.AllocsPerRun(20, func() {
				if _, err := sys.Hkl(i, k, l); err != nil {
					t.Fatal(err)
				}
			})
			obs.SetGlobal(prev)
			if peak > 0 || point > 0 {
				t.Errorf("%s, registry %v: %v allocations per peak read, %v per h_kl point, want 0",
					name, reg != nil, peak, point)
			}
		}
	}
}
