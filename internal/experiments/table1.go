package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"evclimate/internal/core"
	"evclimate/internal/runner"
)

// Table1Row is one ambient-temperature row of Table I.
type Table1Row struct {
	// AmbientC is the outside temperature.
	AmbientC float64
	// OnOffKW, FuzzyKW, MPCKW are the average HVAC powers.
	OnOffKW, FuzzyKW, MPCKW float64
	// ImpOnOffPct and ImpFuzzyPct are the SoH-degradation improvements
	// of the lifetime-aware controller relative to each baseline.
	ImpOnOffPct, ImpFuzzyPct float64
}

// Table1Ambients are the paper's evaluated outside temperatures.
var Table1Ambients = []float64{43, 35, 32, 21, 10, 0}

// Table1Spec is the paper's Table I grid as a pure, fabric-distributable
// spec builder: ECE_EUDC × the six evaluated ambients under the three
// methodologies, seasonal solar (400 W on warm days, none below 15 °C).
func Table1Spec(params map[string]string) (runner.Spec, error) {
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: table1 seed param: %w", err)
	}
	maxS, err := strconv.ParseFloat(params["max_s"], 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: table1 max_s param: %w", err)
	}
	envs := make([]runner.Env, len(Table1Ambients))
	for i, amb := range Table1Ambients {
		envs[i] = runner.Env{AmbientC: amb, SolarW: 400}
		if amb < 15 {
			envs[i].SolarW = 0
		}
	}
	return runner.Spec{
		Controllers: []runner.ControllerSpec{
			runner.OnOffSpec(1),
			runner.FuzzySpec(1),
			runner.MPCSpec(core.DefaultConfig(), 5),
		},
		Cycles:      []runner.CycleSpec{{Name: "ECE_EUDC"}},
		Envs:        envs,
		Targets:     []float64{24},
		BaseSeed:    seed,
		MaxProfileS: maxS,
	}, nil
}

// Table1 reproduces the ambient-temperature analysis on the ECE_EUDC
// profile: average HVAC power per methodology and the SoH improvement of
// the lifetime-aware controller. Solar load follows the season: the
// options' SolarW on warm days (ambient ≥ 15 °C), zero on cold days.
func Table1(opts Options, ambients []float64) ([]Table1Row, error) {
	opts.fill()
	if len(ambients) == 0 {
		ambients = Table1Ambients
	}
	envs := make([]runner.Env, len(ambients))
	for i, amb := range ambients {
		envs[i] = runner.Env{AmbientC: amb, SolarW: opts.SolarW}
		if amb < 15 {
			envs[i].SolarW = 0
		}
	}
	sw, err := opts.sweep("table1", opts.controllerSpecs(),
		[]runner.CycleSpec{{Name: "ECE_EUDC"}}, envs)
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(ambients))
	for i, cell := range sw.Cells() {
		results := runner.CellMap(cell)
		oo, fz, mpc := results[NameOnOff], results[NameFuzzy], results[NameMPC]
		row := Table1Row{
			AmbientC: ambients[i],
			OnOffKW:  oo.AvgHVACW / 1000,
			FuzzyKW:  fz.AvgHVACW / 1000,
			MPCKW:    mpc.AvgHVACW / 1000,
		}
		if oo.DeltaSoH > 0 {
			row.ImpOnOffPct = 100 * (1 - mpc.DeltaSoH/oo.DeltaSoH)
		}
		if fz.DeltaSoH > 0 {
			row.ImpFuzzyPct = 100 * (1 - mpc.DeltaSoH/fz.DeltaSoH)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable1 formats the rows like the paper's Table I.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table I — HVAC power and SoH-degradation improvement by ambient temperature (ECE_EUDC)\n")
	sb.WriteString("Ambient   avg HVAC power (kW)            SoH improvement (%)\n")
	sb.WriteString("          On/Off  Fuzzy  Lifetime-aware  vs On/Off  vs Fuzzy\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%5.0f °C  %6.2f %6.2f %15.2f  %9.2f %9.2f\n",
			r.AmbientC, r.OnOffKW, r.FuzzyKW, r.MPCKW, r.ImpOnOffPct, r.ImpFuzzyPct)
	}
	return sb.String()
}
