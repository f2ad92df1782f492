package core

import (
	"errors"

	"evclimate/internal/thermal"
)

// ThermalOptions extends the MPC with cold-climate battery-thermal
// co-scheduling: the horizon NLP gains a pack-temperature state per
// stage, battery heater/chiller decision channels, a heat-pump-aware
// heater power model, and a soft pack-temperature comfort band in the
// cost. The extension preserves the stage structure — each added
// constraint row touches only its own stage and the previous stage's
// state, now (x, Tb) — so the stage KKT backend of internal/qp keeps
// engaging at the enlarged decision stride.
//
// The cost mapping to the deliverable metrics: cabin comfort is the
// paper's w3 term; ΔSoH is the existing SoC-deviation term (cycle
// stress) plus the pack band, which prices the U-shaped
// battery.CycleStressFactor — cold cycling below BandLoC means lithium
// plating, hot above BandHiC means SEI growth; range is the w1 power
// term, which now sees the true heat-pump electrical draw and the
// battery-branch loads.
type ThermalOptions struct {
	// Enabled switches the co-scheduling extension on. Disabled (the
	// zero value), the controller is bit-identical to the paper's
	// cabin-only MPC.
	Enabled bool
	// Network is the prediction model of the cabin↔pack↔coolant↔ambient
	// thermal network (the plant side lives in internal/thermal; the MPC
	// folds the coolant node into an effective pack↔ambient conductance
	// so the pack stays one state per stage).
	Network thermal.NetworkParams
	// HeatPump is the COP-vs-ambient heating model: the per-stage heater
	// power equality uses COP(T_amb,k), or the PTC efficiency below the
	// cutoff.
	HeatPump thermal.HeatPumpParams
	// BandLoC and BandHiC bound the soft pack-temperature comfort band
	// (defaults 10 / 35 °C); BandWeight prices quadratic excursions
	// outside it (default 0.05 per °C²·step).
	BandLoC, BandHiC float64
	BandWeight       float64
}

// DefaultThermalOptions returns the enabled co-scheduling configuration
// used in the cold-climate experiments.
func DefaultThermalOptions() ThermalOptions {
	return ThermalOptions{
		Enabled:    true,
		Network:    thermal.DefaultNetwork(),
		HeatPump:   thermal.DefaultHeatPump(),
		BandLoC:    10,
		BandHiC:    35,
		BandWeight: 0.05,
	}
}

// validate fills defaults and reports invalid thermal options.
func (t *ThermalOptions) validate() error {
	if !t.Enabled {
		return nil
	}
	if err := t.Network.Validate(); err != nil {
		return err
	}
	if err := t.HeatPump.Validate(); err != nil {
		return err
	}
	if t.BandLoC == 0 && t.BandHiC == 0 {
		t.BandLoC, t.BandHiC = 10, 35
	}
	if t.BandWeight == 0 {
		t.BandWeight = 0.05
	}
	if t.BandWeight < 0 {
		return errors.New("core: pack band weight must be nonnegative")
	}
	if t.BandHiC <= t.BandLoC {
		return errors.New("core: pack temperature band must satisfy lo < hi")
	}
	return nil
}
