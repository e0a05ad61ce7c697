package material

import (
	"math"
	"testing"

	"tecopt/internal/num"
)

func TestDefaultPackageValid(t *testing.T) {
	if err := DefaultPackage().Validate(); err != nil {
		t.Fatalf("DefaultPackage invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*PackageGeometry)
	}{
		{"zero die width", func(g *PackageGeometry) { g.DieWidth = 0 }},
		{"negative die height", func(g *PackageGeometry) { g.DieHeight = -1 }},
		{"zero die thickness", func(g *PackageGeometry) { g.DieThickness = 0 }},
		{"zero tim thickness", func(g *PackageGeometry) { g.TIMThickness = 0 }},
		{"spreader smaller than die", func(g *PackageGeometry) { g.SpreaderSide = g.DieWidth / 2 }},
		{"sink smaller than spreader", func(g *PackageGeometry) { g.SinkSide = g.SpreaderSide / 2 }},
		{"zero spreader thickness", func(g *PackageGeometry) { g.SpreaderThickness = 0 }},
		{"zero sink thickness", func(g *PackageGeometry) { g.SinkThickness = 0 }},
		{"zero convection resistance", func(g *PackageGeometry) { g.ConvectionResistance = 0 }},
		{"nonpositive ambient", func(g *PackageGeometry) { g.AmbientK = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := DefaultPackage()
			c.mutate(&g)
			if g.Validate() == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}
}

func TestTemperatureConversions(t *testing.T) {
	if got := CelsiusToKelvin(45); !num.AlmostEqual(got, 318.15, 1e-12) {
		t.Errorf("CelsiusToKelvin(45) = %v", got)
	}
	if got := KelvinToCelsius(318.15); math.Abs(got-45) > 1e-12 {
		t.Errorf("KelvinToCelsius(318.15) = %v", got)
	}
	// Round trip.
	if got := KelvinToCelsius(CelsiusToKelvin(85)); math.Abs(got-85) > 1e-12 {
		t.Errorf("round trip = %v", got)
	}
}

func TestMaterialConstantsSane(t *testing.T) {
	for _, m := range []Material{Silicon, TIM, Copper, Superlattice} {
		if m.Conductivity <= 0 || m.VolumetricHeatCapacity <= 0 {
			t.Errorf("%s has nonpositive properties: %+v", m.Name, m)
		}
	}
	if Copper.Conductivity <= Silicon.Conductivity {
		t.Error("copper should conduct better than silicon")
	}
	if Superlattice.Conductivity >= TIM.Conductivity {
		t.Error("superlattice film should conduct worse than TIM (that is its purpose)")
	}
}
