package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"evclimate/internal/battery"
	"evclimate/internal/charging"
	"evclimate/internal/core"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/thermal"
)

// The cold-climate sweep is the paper's evaluation pushed into the regime
// it left out: deep sub-zero ambients where cabin heating competes with
// battery lifetime directly (a cold-soaked pack cycles under lithium-
// plating stress until it warms). Four controllers run over the same
// thermal plant — the two baselines with the thermostatic battery rules,
// the DAC'15 cabin-only MPC, and the co-scheduling MPC that decides the
// battery heater/chiller jointly with the HVAC — so the table isolates
// what co-scheduling itself buys in energy, comfort, ΔSoH, and range.

// NameThermalMPC labels the co-scheduling controller in sweep results.
const NameThermalMPC = "Thermal Co-scheduling"

// ColdAmbients are the swept deep-cold outside temperatures, °C.
var ColdAmbients = []float64{-20, -15, -10, -5, 0}

// ColdCycles are the swept drive profiles: the paper's urban reference
// and the longer EPA urban cycle.
var ColdCycles = []string{"ECE15", "UDDS"}

// coldSeed pins the cold sweep's base seed.
const coldSeed = 20260808

// ColdParams encodes the cold sweep's variability as wire parameters for
// the fabric (see DistParams).
func ColdParams(o Options) map[string]string {
	o.fill()
	return map[string]string{
		"seed":  strconv.FormatInt(coldSeed, 10),
		"max_s": strconv.FormatFloat(o.MaxProfileS, 'g', -1, 64),
	}
}

// coldBase is the cold sweep's simulation template: the default plant
// with the battery thermal network attached, pack soaked at ambient.
func coldBase() *sim.Config {
	base := sim.DefaultConfig(nil)
	th := thermal.DefaultThermal()
	base.Thermal = &th
	return &base
}

// ColdSpec is the distributable cold-climate sweep: ColdCycles ×
// ColdAmbients (no solar — overnight/winter) × four controllers on the
// thermal plant, every run soaked at ambient. The builder is pure so
// coordinator and joining workers expand identical jobs.
func ColdSpec(params map[string]string) (runner.Spec, error) {
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: cold seed param: %w", err)
	}
	maxS, err := strconv.ParseFloat(params["max_s"], 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: cold max_s param: %w", err)
	}
	cycles := make([]runner.CycleSpec, len(ColdCycles))
	for i, name := range ColdCycles {
		cycles[i] = runner.CycleSpec{Name: name}
	}
	envs := make([]runner.Env, len(ColdAmbients))
	for i, amb := range ColdAmbients {
		envs[i] = runner.Env{AmbientC: amb}
	}
	return runner.Spec{
		Controllers: []runner.ControllerSpec{
			runner.OnOffSpec(1),
			runner.FuzzySpec(1),
			runner.MPCSpec(core.DefaultConfig(), 5),
			runner.ThermalMPCSpec(core.DefaultConfig(), 5),
		},
		Cycles:           cycles,
		Envs:             envs,
		Targets:          []float64{22},
		BaseSeed:         seed,
		MaxProfileS:      maxS,
		StartFromAmbient: true,
		Base:             coldBase(),
	}, nil
}

// RunCold executes the cold-climate sweep single-process.
func RunCold(o Options) (*runner.Sweep, error) {
	o.fill()
	spec, err := ColdSpec(ColdParams(o))
	if err != nil {
		return nil, err
	}
	sw, err := runner.Run(o.ctx(), spec, o.runOptions("cold"))
	if err != nil {
		return nil, err
	}
	if err := sw.JobErrors(); err != nil {
		return nil, err
	}
	return sw, nil
}

// ColdRow is one (cycle, ambient) cell of the cold table, comparing the
// co-scheduling MPC against the cabin-only lifetime-aware MPC with the
// baselines' HVAC energy for context.
type ColdRow struct {
	// Cycle and AmbientC identify the scenario.
	Cycle    string
	AmbientC float64
	// OnOffKWh, FuzzyKWh are the baselines' HVAC energies.
	OnOffKWh, FuzzyKWh float64
	// MPCKWh and ThermalKWh are the cabin-only and co-scheduling MPC
	// HVAC energies (heater electrical, through the heat pump).
	MPCKWh, ThermalKWh float64
	// MPCComfortPct, ThermalComfortPct are post-settling comfort
	// violation fractions, percent.
	MPCComfortPct, ThermalComfortPct float64
	// MPCDeltaSoH and ThermalDeltaSoH are the total per-cycle capacity
	// losses (cycle stress × temperature factor + calendar), percent.
	MPCDeltaSoH, ThermalDeltaSoH float64
	// SoHSavingPct is the co-scheduling MPC's ΔSoH reduction vs the
	// cabin-only MPC.
	SoHSavingPct float64
	// MPCRangeKm and ThermalRangeKm extrapolate the cycle's distance per
	// SoC consumed to a full charge.
	MPCRangeKm, ThermalRangeKm float64
	// ThermalPackMinC and ThermalPackFinalC summarize the pack's
	// trajectory under co-scheduling.
	ThermalPackMinC, ThermalPackFinalC float64
}

// totalDeltaSoH is a result's full per-cycle capacity loss: the cycle
// term (already temperature-scaled for thermal runs) plus calendar aging.
func totalDeltaSoH(r *sim.Result) float64 {
	return r.DeltaSoH + r.CalendarDeltaSoH
}

// rangeKm extrapolates distance per SoC consumed to a full charge.
func rangeKm(distKm, initialSoC, finalSoC float64) float64 {
	if d := initialSoC - finalSoC; d > 0 {
		return distKm * 100 / d
	}
	return 0
}

// ColdRows reduces a cold sweep into its table rows, one per
// (cycle, ambient) cell.
func ColdRows(sw *runner.Sweep) ([]ColdRow, error) {
	cells := sw.Cells()
	rows := make([]ColdRow, 0, len(cells))
	for _, cell := range cells {
		if len(cell) == 0 {
			continue
		}
		job := &cell[0].Job
		results := runner.CellMap(cell)
		oo, fz := results[NameOnOff], results[NameFuzzy]
		mpc, th := results[NameMPC], results[NameThermalMPC]
		if oo == nil || fz == nil || mpc == nil || th == nil {
			return nil, fmt.Errorf("experiments: cold cell %s@%g missing a controller result",
				job.Cycle, job.Env.AmbientC)
		}
		distKm := job.Config.Profile.Stats().DistanceKm
		initSoC := job.Config.BMS.InitialSoC
		row := ColdRow{
			Cycle:             job.Cycle,
			AmbientC:          job.Env.AmbientC,
			OnOffKWh:          oo.HVACEnergyKWh,
			FuzzyKWh:          fz.HVACEnergyKWh,
			MPCKWh:            mpc.HVACEnergyKWh,
			ThermalKWh:        th.HVACEnergyKWh,
			MPCComfortPct:     100 * mpc.ComfortViolationFrac,
			ThermalComfortPct: 100 * th.ComfortViolationFrac,
			MPCDeltaSoH:       totalDeltaSoH(mpc),
			ThermalDeltaSoH:   totalDeltaSoH(th),
			MPCRangeKm:        rangeKm(distKm, initSoC, mpc.FinalSoC),
			ThermalRangeKm:    rangeKm(distKm, initSoC, th.FinalSoC),
			ThermalPackMinC:   th.PackMinC,
			ThermalPackFinalC: th.PackFinalC,
		}
		if row.MPCDeltaSoH > 0 {
			row.SoHSavingPct = 100 * (1 - row.ThermalDeltaSoH/row.MPCDeltaSoH)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderCold formats the cold-climate table: co-scheduling vs cabin-only
// MPC per scenario, baselines for context.
func RenderCold(rows []ColdRow) string {
	var sb strings.Builder
	sb.WriteString("Cold-climate sweep — co-scheduling MPC vs cabin-only MPC (pack soaked at ambient)\n")
	sb.WriteString("cycle    ambient  HVAC energy (kWh)                comfort viol (%)   ΔSoH total (%)        SoH    range (km)\n")
	sb.WriteString("                  On/Off  Fuzzy    MPC  Thermal      MPC  Thermal       MPC   Thermal     saved    MPC  Thermal\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %5.0f °C %7.3f %6.3f %6.3f %8.3f %8.1f %8.1f  %9.6f %9.6f %8.2f%% %6.0f %8.0f\n",
			r.Cycle, r.AmbientC, r.OnOffKWh, r.FuzzyKWh, r.MPCKWh, r.ThermalKWh,
			r.MPCComfortPct, r.ThermalComfortPct,
			r.MPCDeltaSoH, r.ThermalDeltaSoH, r.SoHSavingPct,
			r.MPCRangeKm, r.ThermalRangeKm)
	}
	return sb.String()
}

// depotAmbients are the soak temperatures of the depot-preconditioning
// table.
var depotAmbients = []float64{-20, -10, 0}

// DepotRow is one soak of the depot-preconditioning table: a Level-2
// charge of the Leaf pack from 30 to 90 % SoC, co-simulated with the
// pack thermal network (charging.Precondition), while the battery heater
// warms the pack to the 15 °C departure setpoint on wall energy.
type DepotRow struct {
	// AmbientC is the depot soak temperature.
	AmbientC float64
	// HeaterKWh is the wall energy the battery heater drew; WallKWh the
	// session's total wall draw, charge plus heater.
	HeaterKWh, WallKWh float64
	// ExtraPct is WallKWh over the charge alone, percent.
	ExtraPct float64
	// DeparturePackC is the pack temperature at unplug.
	DeparturePackC float64
}

// DepotRows runs the depot-preconditioning session at each of
// depotAmbients.
func DepotRows() ([]DepotRow, error) {
	rows := make([]DepotRow, 0, len(depotAmbients))
	for _, amb := range depotAmbients {
		p := charging.PreconditionParams{
			Charger:  charging.Level2(),
			Thermal:  thermal.DefaultThermal(),
			AmbientC: amb,
		}
		res, err := charging.Precondition(p, battery.LeafPack(), 30, 90)
		if err != nil {
			return nil, fmt.Errorf("experiments: depot precondition at %g °C: %w", amb, err)
		}
		rows = append(rows, DepotRow{
			AmbientC:       amb,
			HeaterKWh:      res.HeaterEnergyKWh,
			WallKWh:        res.WallEnergyKWh,
			ExtraPct:       100 * (res.WallEnergyKWh/res.Charge.WallEnergyKWh - 1),
			DeparturePackC: res.FinalPackC,
		})
	}
	return rows, nil
}

// RenderDepot formats the depot-preconditioning table.
func RenderDepot(rows []DepotRow) string {
	var sb strings.Builder
	sb.WriteString("Depot preconditioning — Level-2 charge 30→90 % SoC, battery heater to a 15 °C departure pack on wall energy\n")
	fmt.Fprintf(&sb, "%8s %14s %11s %15s %15s\n", "soak", "heater energy", "total wall", "vs charge-only", "departure pack")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%5.0f °C %10.2f kWh %7.2f kWh %15s %12.1f °C\n",
			r.AmbientC, r.HeaterKWh, r.WallKWh, fmt.Sprintf("%+.0f %%", r.ExtraPct), r.DeparturePackC)
	}
	return sb.String()
}
