// Package material defines the thermal material properties and package
// geometry constants used by the compact and reference thermal models.
//
// Values follow the configuration the paper describes: silicon, TIM,
// copper spreader/sink constants "set according to an existing thermal
// simulator, HotSpot 4.1", and superlattice thin-film TEC properties from
// Chowdhury et al., Nature Nanotechnology 2009 (reference [1] of the
// paper). All quantities are SI: meters, watts, kelvins.
package material

import "tecopt/internal/num"

// Material groups the bulk properties needed for steady-state (k) and
// transient (C) thermal analysis.
type Material struct {
	Name string
	// Conductivity is the thermal conductivity in W/(m*K).
	Conductivity float64
	// VolumetricHeatCapacity is in J/(m^3*K); used by the transient
	// extension only.
	VolumetricHeatCapacity float64
}

// Standard chip-package materials (HotSpot 4.1 defaults).
var (
	// Silicon is the active die material.
	Silicon = Material{Name: "silicon", Conductivity: 100, VolumetricHeatCapacity: 1.75e6}
	// TIM is the thermal interface material layer in which the thin-film
	// TEC devices are immersed.
	TIM = Material{Name: "tim", Conductivity: 5, VolumetricHeatCapacity: 4.0e6}
	// Copper is used for the heat spreader and heat sink.
	Copper = Material{Name: "copper", Conductivity: 400, VolumetricHeatCapacity: 3.55e6}
	// Superlattice is the Bi2Te3/Sb2Te3 thin-film thermoelectric material
	// of Chowdhury et al. [1]; its low cross-plane conductivity is what
	// makes thin-film TECs viable.
	Superlattice = Material{Name: "superlattice", Conductivity: 1.2, VolumetricHeatCapacity: 1.2e6}
)

// PackageGeometry describes the layered chip package of Figure 2:
// silicon die, TIM (hosting the TECs), heat spreader, heat sink, and a
// fan/convection boundary to ambient.
type PackageGeometry struct {
	// DieWidth and DieHeight are the silicon die lateral dimensions (m).
	DieWidth, DieHeight float64
	// DieThickness is the silicon thickness (m).
	DieThickness float64
	// TIMThickness is the interface layer thickness (m); thin-film TEC
	// devices are flush with this layer.
	TIMThickness float64
	// SpreaderSide and SpreaderThickness describe the square copper
	// heat spreader (m).
	SpreaderSide, SpreaderThickness float64
	// SinkSide and SinkThickness describe the square copper heat sink
	// base (m).
	SinkSide, SinkThickness float64
	// ConvectionResistance is the total sink-to-ambient convection
	// resistance (K/W), lumping fins and airflow like HotSpot's r_convec.
	ConvectionResistance float64
	// AmbientK is the ambient temperature in kelvin.
	AmbientK float64
}

// DefaultPackage returns the package geometry used throughout the
// experiments: a 6 mm x 6 mm die (the paper's Alpha-21364-like chip) in a
// HotSpot-4.1-style package.
func DefaultPackage() PackageGeometry {
	return PackageGeometry{
		DieWidth:             6e-3,
		DieHeight:            6e-3,
		DieThickness:         0.15e-3,
		TIMThickness:         50e-6,
		SpreaderSide:         30e-3,
		SpreaderThickness:    1e-3,
		SinkSide:             60e-3,
		SinkThickness:        6.9e-3,
		ConvectionResistance: 0.894,
		AmbientK:             CelsiusToKelvin(45),
	}
}

// Validate reports whether the geometry is physically meaningful.
// Non-finite fields are rejected first: a NaN passes every `<= 0` sign
// test below (all comparisons with NaN are false), so without this
// check a NaN geometry would validate cleanly and poison the network
// assembly.
func (g PackageGeometry) Validate() error {
	for _, v := range []float64{
		g.DieWidth, g.DieHeight, g.DieThickness, g.TIMThickness,
		g.SpreaderSide, g.SpreaderThickness, g.SinkSide, g.SinkThickness,
		g.ConvectionResistance, g.AmbientK,
	} {
		if !num.IsFinite(v) {
			return errGeom("all dimensions must be finite")
		}
	}
	switch {
	case g.DieWidth <= 0 || g.DieHeight <= 0:
		return errGeom("die dimensions must be positive")
	case g.DieThickness <= 0 || g.TIMThickness <= 0:
		return errGeom("die and TIM thickness must be positive")
	case g.SpreaderSide < g.DieWidth || g.SpreaderSide < g.DieHeight:
		return errGeom("spreader must be at least as large as the die")
	case g.SinkSide < g.SpreaderSide:
		return errGeom("sink must be at least as large as the spreader")
	case g.SpreaderThickness <= 0 || g.SinkThickness <= 0:
		return errGeom("spreader and sink thickness must be positive")
	case g.ConvectionResistance <= 0:
		return errGeom("convection resistance must be positive")
	case g.AmbientK <= 0:
		return errGeom("ambient temperature must be positive kelvin")
	}
	return nil
}

type errGeom string

func (e errGeom) Error() string { return "material: invalid package geometry: " + string(e) }

// CelsiusToKelvin converts a Celsius temperature to kelvin.
func CelsiusToKelvin(c float64) float64 { return c + 273.15 }

// KelvinToCelsius converts a kelvin temperature to Celsius.
func KelvinToCelsius(k float64) float64 { return k - 273.15 }
