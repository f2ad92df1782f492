package experiments

import (
	"fmt"
	"strings"

	"evclimate/internal/core"
	"evclimate/internal/runner"
)

// This file implements the ablation studies DESIGN.md §7 calls out for the
// design choices behind the MPC controller: horizon length, the
// SoC-deviation weight w2 (the term that distinguishes the paper's
// controller from a plain comfort+energy MPC), the SQP iteration budget
// (down to a single-QP controller), and the plant/controller time-step
// ratio (model-mismatch sensitivity).

// AblationRow is one configuration's outcome.
type AblationRow struct {
	// Label names the configuration, e.g. "N=20".
	Label string
	// AvgHVACW, DeltaSoH, SoCDev, RMSTrackingErrC, ComfortViolationFrac
	// are the run metrics.
	AvgHVACW, DeltaSoH, SoCDev, RMSTrackingErrC, ComfortViolationFrac float64
	// SolveTimeMs is the mean wall-clock time per MPC step.
	SolveTimeMs float64
	// StageFactorsPerSolve is the deterministic work behind SolveTimeMs:
	// the interior point's KKT factorizations per MPC step times the
	// horizon, i.e. the per-stage factorizations of its Riccati
	// recursion. Unlike wall-clock time it orders configurations the
	// same on any host.
	StageFactorsPerSolve float64
}

// solveCounter is the diagnostics surface the MPC exposes; the ablation
// uses it to normalize wall-clock time per solve.
type solveCounter interface {
	Stats() core.Stats
}

// mpcVariant is one labeled MPC configuration of an ablation sweep and
// its control period.
type mpcVariant struct {
	label     string
	cfg       core.Config
	controlDt float64
}

// runMPCVariants simulates each MPC configuration on the hot-day
// ECE_EUDC profile — all configurations in parallel on the sweep engine
// — and collects one ablation row per configuration, in order.
func (o *Options) runMPCVariants(vs []mpcVariant) ([]AblationRow, error) {
	specs := make([]runner.ControllerSpec, len(vs))
	for i, v := range vs {
		specs[i] = runner.MPCSpec(v.cfg, v.controlDt)
		specs[i].Label = v.label
	}
	sw, err := o.sweep(specs,
		[]runner.CycleSpec{{Name: "ECE_EUDC"}},
		[]runner.Env{{AmbientC: o.AmbientC, SolarW: o.SolarW}})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, 0, len(vs))
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		res := jr.Result
		row := AblationRow{
			Label:                jr.Job.Controller.Label,
			AvgHVACW:             res.AvgHVACW,
			DeltaSoH:             res.DeltaSoH,
			SoCDev:               res.SoCDev,
			RMSTrackingErrC:      res.RMSTrackingErrC,
			ComfortViolationFrac: res.ComfortViolationFrac,
		}
		if mpc, ok := jr.Instance.(solveCounter); ok {
			if st := mpc.Stats(); st.Solves > 0 {
				row.SolveTimeMs = float64(jr.Elapsed.Milliseconds()) / float64(st.Solves)
				row.StageFactorsPerSolve = float64(st.KKTFactorizations*vs[i].cfg.Horizon) / float64(st.Solves)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblateHorizon sweeps the MPC horizon length N.
func AblateHorizon(opts Options, horizons []int) ([]AblationRow, error) {
	opts.fill()
	if len(horizons) == 0 {
		horizons = []int{4, 8, 12, 20}
	}
	vs := make([]mpcVariant, 0, len(horizons))
	for _, n := range horizons {
		mcfg := opts.mpcConfig()
		mcfg.Horizon = n
		vs = append(vs, mpcVariant{fmt.Sprintf("N=%d", n), mcfg, mpcControlDt})
	}
	return opts.runMPCVariants(vs)
}

// AblateSoCDevWeight sweeps w2. w2 = 0 reduces the controller to a plain
// comfort+energy MPC — the configuration that isolates the paper's
// battery-lifetime term.
func AblateSoCDevWeight(opts Options, weights []float64) ([]AblationRow, error) {
	opts.fill()
	if len(weights) == 0 {
		weights = []float64{0, 10, 50, 200}
	}
	vs := make([]mpcVariant, 0, len(weights))
	for _, w2 := range weights {
		mcfg := opts.mpcConfig()
		mcfg.Weights.SoCDev = w2
		vs = append(vs, mpcVariant{fmt.Sprintf("w2=%g", w2), mcfg, mpcControlDt})
	}
	return opts.runMPCVariants(vs)
}

// AblateSQPBudget sweeps the per-step SQP iteration limit. The limit
// caps the full solves: the first decide and those after a slack-active
// plan. A carried decide, one whose previous plan met the comfort band,
// already takes at most two iterations, so under sqp=K it takes
// min(K, 2). SQPMaxIter = 1 is the "single-QP" controller: one
// linearization of the bilinear dynamics per decide, no outer
// iterations.
func AblateSQPBudget(opts Options, budgets []int) ([]AblationRow, error) {
	opts.fill()
	if len(budgets) == 0 {
		budgets = []int{1, 5, 15, 30}
	}
	vs := make([]mpcVariant, 0, len(budgets))
	for _, it := range budgets {
		mcfg := opts.mpcConfig()
		mcfg.SQPMaxIter = it
		vs = append(vs, mpcVariant{fmt.Sprintf("sqp=%d", it), mcfg, mpcControlDt})
	}
	return opts.runMPCVariants(vs)
}

// AblateControlPeriod sweeps the controller period against the fixed
// plant integration (PlantSubSteps keeps the plant step ≈ 1 s), probing
// sensitivity to plant/controller rate mismatch.
func AblateControlPeriod(opts Options, periods []float64) ([]AblationRow, error) {
	opts.fill()
	if len(periods) == 0 {
		periods = []float64{2, 5, 10}
	}
	vs := make([]mpcVariant, 0, len(periods))
	for _, dt := range periods {
		mcfg := opts.mpcConfig()
		mcfg.Dt = dt
		vs = append(vs, mpcVariant{fmt.Sprintf("dt=%gs", dt), mcfg, dt})
	}
	return opts.runMPCVariants(vs)
}

// RenderAblation formats ablation rows under a title.
func RenderAblation(title string, rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation — %s (ECE_EUDC, hot day)\n", title)
	sb.WriteString("config     HVAC kW    ΔSoH %   SoC dev   RMS °C  viol %  ms/solve  stage fact./solve\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7.2f %9.5f %9.3f %8.2f %7.1f %9.1f %18.1f\n",
			r.Label, r.AvgHVACW/1000, r.DeltaSoH, r.SoCDev,
			r.RMSTrackingErrC, 100*r.ComfortViolationFrac, r.SolveTimeMs, r.StageFactorsPerSolve)
	}
	return sb.String()
}
