package core

import (
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/telemetry"
)

// SupervisedConfig assembles the canonical degradation ladder around the
// battery lifetime-aware MPC.
type SupervisedConfig struct {
	// MPC configures the top stage (zero value → DefaultConfig). The
	// fallback MPC below it runs a horizon of max(4, N/3) steps with the
	// same SQP iteration cap: it exists to keep optimizing when the full
	// problem became too expensive or unstable, not to match the full
	// controller's quality.
	MPC Config
	// Supervisor tunes the watchdog; its Cabin parameter set defaults to
	// the MPC's.
	Supervisor control.SupervisorConfig
}

// NewSupervised builds the paper controller wrapped in the full
// degradation ladder:
//
//  0. full-horizon battery lifetime-aware MPC
//  1. cold-restart MPC with a shortened horizon
//  2. fuzzy controller (no optimizer to break)
//  3. on/off thermostat safe mode (no model at all)
//
// Each demotion trades optimality for robustness; the Supervisor
// re-promotes one stage at a time after sustained clean operation.
func NewSupervised(cfg SupervisedConfig) (*control.Supervisor, error) {
	if cfg.MPC == (Config{}) {
		cfg.MPC = DefaultConfig()
	}
	// The supervisor's sink is the ladder's: each MPC stage reports its
	// solver counters under its own stage label.
	if tel := cfg.Supervisor.Telemetry; tel != nil && cfg.MPC.Telemetry == nil {
		cfg.MPC.Telemetry = telemetry.WithLabels(tel, telemetry.L("stage", "mpc-full"))
	}
	full, err := New(cfg.MPC)
	if err != nil {
		return nil, err
	}

	shortCfg := cfg.MPC
	if tel := cfg.Supervisor.Telemetry; tel != nil {
		shortCfg.Telemetry = telemetry.WithLabels(tel, telemetry.L("stage", "mpc-short"))
	}
	shortCfg.Horizon = cfg.MPC.Horizon / 3
	if shortCfg.Horizon < 4 {
		shortCfg.Horizon = 4
	}
	short, err := New(shortCfg)
	if err != nil {
		return nil, err
	}

	model, err := cabin.New(cfg.MPC.Cabin)
	if err != nil {
		return nil, err
	}

	sup := cfg.Supervisor
	if sup.Cabin == (cabin.Params{}) {
		sup.Cabin = cfg.MPC.Cabin
	}
	return control.NewSupervisor("Supervised MPC", sup,
		control.Stage{Name: "mpc-full", Controller: full},
		control.Stage{Name: "mpc-short", Controller: short},
		control.Stage{Name: "fuzzy", Controller: control.NewFuzzy(model)},
		control.Stage{Name: "onoff-safe", Controller: control.NewOnOff(model)},
	)
}
