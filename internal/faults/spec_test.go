package faults

import (
	"errors"
	"math"
	"testing"
	"time"

	"tecopt/internal/tecerr"
)

func TestParseSpecRules(t *testing.T) {
	in, err := ParseSpec("seed=7;panic@serve.handle:onhit=3;error@serve.handle:prob=0.25,code=not_pd;sleep@serve.admit:every=2,ms=50")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if in.seed != 7 {
		t.Errorf("seed = %d, want 7", in.seed)
	}
	handle := in.rules[SiteServeHandle]
	if len(handle) != 2 {
		t.Fatalf("serve.handle rules = %d, want 2", len(handle))
	}
	if handle[0].Kind != KindPanic || handle[0].OnHit != 3 {
		t.Errorf("rule 0 = %+v, want panic onhit=3", handle[0].Rule)
	}
	if handle[1].Kind != KindError || math.Abs(handle[1].Prob-0.25) > 1e-15 {
		t.Errorf("rule 1 = %+v, want error prob=0.25", handle[1].Rule)
	}
	if !errors.Is(handle[1].Err, tecerr.ErrNotPD) || !errors.Is(handle[1].Err, ErrInjected) {
		t.Errorf("code=not_pd payload %v must match ErrNotPD and ErrInjected", handle[1].Err)
	}
	admit := in.rules[SiteServeAdmit]
	if len(admit) != 1 || admit[0].Kind != KindSleep || admit[0].Sleep != 50*time.Millisecond || admit[0].Every != 2 {
		t.Errorf("serve.admit rule = %+v, want sleep every=2 ms=50", admit[0].Rule)
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"seed=1",
		"seed=x;panic@a",
		"panic",
		"panic@",
		"warp@site",
		"error@site:prob=2",
		"error@site:onhit=1,every=2",
		"error@site:code=warp",
		"error@site:code=degraded", // not a tecerr code
		"error@site:frequency=1",
		"error@site:onhit=abc",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); !errors.Is(err, tecerr.ErrInvalidInput) {
			t.Errorf("ParseSpec(%q) = %v, want CodeInvalidInput", s, err)
		}
	}
}

// TestKindSleepBlocks pins the latency primitive: Check at an armed
// sleep site blocks for the configured duration and returns nil.
func TestKindSleepBlocks(t *testing.T) {
	in := New(1).Arm(Rule{Site: SiteServeHandle, Kind: KindSleep, Sleep: 30 * time.Millisecond})
	Install(in)
	defer Uninstall()
	start := time.Now()
	if err := Check(SiteServeHandle); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("Check returned after %v, want >= 30ms sleep", d)
	}
}

// TestCodeByNameCoversTaxonomy checks the name scan resolves every
// named tecerr code (the serve chaos specs depend on it).
func TestCodeByNameCoversTaxonomy(t *testing.T) {
	for _, name := range []string{"internal", "invalid_input", "not_pd", "diverged", "cancelled", "panic", "overload", "unavailable"} {
		c, ok := codeByName(name)
		if !ok {
			t.Errorf("codeByName(%q) not found", name)
			continue
		}
		if c.String() != name {
			t.Errorf("codeByName(%q) = %v", name, c)
		}
	}
	if _, ok := codeByName("definitely-not-a-code"); ok {
		t.Error("codeByName accepted an unknown name")
	}
}
