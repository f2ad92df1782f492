package runner

import (
	"fmt"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/core"
)

// Canned controller specs for the paper's three methodologies. Labels
// match the controllers' Name() strings, so Result.Controller and
// Job.Controller.Label agree.

// OnOffSpec is the switching thermostat baseline at the given control
// period (0 = the sweep template's period).
func OnOffSpec(controlDt float64) ControllerSpec {
	return ControllerSpec{
		Label:     "On/Off",
		ControlDt: controlDt,
		New: func() (control.Controller, error) {
			m, err := cabin.New(cabin.Default())
			if err != nil {
				return nil, err
			}
			return control.NewOnOff(m), nil
		},
	}
}

// FuzzySpec is the fuzzy-based baseline at the given control period.
func FuzzySpec(controlDt float64) ControllerSpec {
	return ControllerSpec{
		Label:     "Fuzzy-based",
		ControlDt: controlDt,
		New: func() (control.Controller, error) {
			m, err := cabin.New(cabin.Default())
			if err != nil {
				return nil, err
			}
			return control.NewFuzzy(m), nil
		},
	}
}

// MPCSpec is the battery lifetime-aware MPC with the given configuration,
// running at controlDt (0 = the MPC's own prediction period cfg.Dt). The
// preview window covers the MPC horizon even when the controller is
// called more often than it predicts.
func MPCSpec(cfg core.Config, controlDt float64) ControllerSpec {
	controlDt, steps := preview(&cfg, controlDt)
	return ControllerSpec{
		Label:         "Battery Lifetime-aware",
		Key:           fmt.Sprintf("%+v", cfg),
		ControlDt:     controlDt,
		ForecastSteps: steps,
		New: func() (control.Controller, error) {
			return core.New(cfg)
		},
	}
}

// ThermalMPCSpec is the cold-climate co-scheduling MPC: the lifetime-
// aware controller with the battery-thermal extension enabled, deciding
// cabin HVAC and battery heater/chiller jointly. Pair it with a sim
// template whose Thermal network matches the controller's prediction
// model (the sweep's Base config).
func ThermalMPCSpec(cfg core.Config, controlDt float64) ControllerSpec {
	if !cfg.Thermal.Enabled {
		cfg.Thermal = core.DefaultThermalOptions()
	}
	sp := MPCSpec(cfg, controlDt)
	sp.Label = "Thermal Co-scheduling"
	return sp
}

// SupervisedMPCSpec is the battery lifetime-aware MPC wrapped in the full
// degradation ladder (full MPC → short-horizon MPC → fuzzy → on/off safe
// mode) behind the control.Supervisor watchdog. This is the controller
// fault sweeps exercise: the bare MPC spec has no recovery structure.
func SupervisedMPCSpec(cfg core.SupervisedConfig, controlDt float64) ControllerSpec {
	// Default a copy, so that a zero cfg.MPC still means "use
	// core.DefaultConfig" to NewSupervised.
	mpc := cfg.MPC
	controlDt, steps := preview(&mpc, controlDt)
	return ControllerSpec{
		Label:         "Supervised MPC",
		Key:           fmt.Sprintf("%+v", cfg),
		ControlDt:     controlDt,
		ForecastSteps: steps,
		New: func() (control.Controller, error) {
			return core.NewSupervised(cfg)
		},
	}
}

// preview applies core.New's horizon and prediction-period defaults to
// cfg, resolves a zero controlDt to that period, and returns it with the
// preview length: the horizon in control steps, horizon ×
// round(cfg.Dt/controlDt), never below the horizon, so the preview
// window covers the MPC horizon even when the controller is called more
// often than it predicts.
func preview(cfg *core.Config, controlDt float64) (float64, int) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = core.DefaultConfig().Horizon
	}
	if cfg.Dt <= 0 {
		cfg.Dt = core.DefaultConfig().Dt
	}
	if controlDt <= 0 {
		controlDt = cfg.Dt
	}
	return controlDt, max(cfg.Horizon*int(cfg.Dt/controlDt+0.5), cfg.Horizon)
}
