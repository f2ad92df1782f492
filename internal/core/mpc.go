// Package core implements the paper's contribution: the battery
// lifetime-aware automotive climate controller (Sec. III). At every
// control step it solves a receding-horizon optimal control problem over
// the discretized HVAC model (Eqs. 18–19) subject to the constraint set
// C1–C10, minimizing the Eq. 21 cost
//
//	C = Σ w1·(Pf + Pc + Ph) + w2·(SoC − SoCavg)² + w3·(Tz − Ttarget)²
//
// with Sequential Quadratic Programming (internal/sqp), warm-started from
// the previous step's shifted solution — Algorithm 1 of the paper. The
// SoC-deviation term couples the HVAC schedule to the predicted electric
// motor power: the optimizer throttles the HVAC during motor peaks and
// precools/preheats during valleys, flattening the SoC trajectory and
// thereby reducing SoH degradation (Eq. 15).
//
// Following the paper's Eq. 20 structure, the decision vector contains the
// state trajectory x (cabin temperature), the control inputs i = [Ts, Tc,
// dr, mz], and the auxiliary coil powers u = [Ph, Pc] tied to the inputs
// by nonlinear equality constraints and bounded 0 ≤ P ≤ Pmax. Keeping the
// coil powers as explicit nonnegative variables (rather than eliminating
// them) is essential: an eliminated bilinear power expression can go
// negative at infeasible SQP iterates, which the cost would reward,
// stalling the solver at constraint-violating points. Tm, Pf, Pe, and SoC
// are eliminated analytically (they are linear or depend only on single
// inputs), which is mathematically equivalent to the paper's full u
// vector. C2's comfort bounds are soft: one nonnegative slack per stage,
// priced linearly in the cost, keeps every SQP subproblem feasible from
// a soaked start and is exact (zero) whenever the comfort funnel is
// reachable.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/mat"
	"evclimate/internal/qp"
	"evclimate/internal/sqp"
	"evclimate/internal/telemetry"
	"evclimate/internal/units"
)

// Weights are the Eq. 21 cost weights.
type Weights struct {
	// Power is w1, applied to the summed HVAC electrical power in watts.
	Power float64
	// SoCDev is w2, applied to (SoC − SoCavg)² with SoC in percent.
	SoCDev float64
	// Comfort is w3, applied to (Tz − Ttarget)² in °C².
	Comfort float64
}

// DefaultWeights balances the three cost terms at their typical
// magnitudes (kilowatt HVAC powers, hundredth-of-a-percent SoC
// deviations, sub-degree tracking errors). The ordering matters: comfort
// tracking must dominate the SoC-deviation term, otherwise the optimizer
// parks the cabin at a comfort-zone boundary to avoid HVAC power ramps
// (the w2 term penalizes any asymmetric in-window power burst, including
// the one needed to reach the target).
func DefaultWeights() Weights {
	return Weights{Power: 2e-4, SoCDev: 50, Comfort: 2.0}
}

// EconomyWeights trades comfort tracking for range: the power term is an
// order of magnitude stronger, letting the cabin drift within the comfort
// zone when holding the exact target is expensive.
func EconomyWeights() Weights {
	return Weights{Power: 2e-3, SoCDev: 50, Comfort: 0.5}
}

// ComfortWeights pins the cabin to the target regardless of cost — the
// behaviour of a conventional comfort-first MPC, useful as an ablation
// reference.
func ComfortWeights() Weights {
	return Weights{Power: 2e-5, SoCDev: 10, Comfort: 10}
}

// funnelRateKps is the pull-down rate, in K/s, of the comfort funnel: when
// the cabin starts outside the comfort zone, the comfort constraints relax
// to the reachable envelope and tighten along the horizon at this rate.
const funnelRateKps = 0.04

// comfortSlackPerK is ρ, the price of one kelvin of C2 violation at one
// stage, in cost units. Each stage's comfort rows relax by e_k/ρ for a
// slack e_k ≥ 0 that the cost charges linearly, Σ e_k: an exact ℓ₁
// penalty (Kerrigan & Maciejowski 2000). Whenever the funnel is
// reachable the optimum keeps every e_k at zero and equals the
// hard-constrained one; from a soaked start that the heater cannot
// follow the subproblems stay feasible and SQP minimizes the violation.
// The slack is kept in cost units (gradient 1, Jacobian −1/ρ) rather than
// kelvins so it does not inflate the BFGS seed 1 + ‖∇f‖∞.
const comfortSlackPerK = 1e3

// Config assembles the MPC controller.
type Config struct {
	// Cabin is the HVAC plant parameter set the internal model uses.
	Cabin cabin.Params
	// Horizon is N, the number of prediction steps (default 12).
	Horizon int
	// Dt is the prediction step in seconds (default 5). The controller
	// may be called more often; it re-optimizes each call.
	Dt float64
	// Weights are the Eq. 21 weights.
	Weights Weights
	// BatteryCapacityAh and BatteryVoltageV parameterize the linear SoC
	// prediction model (Eq. 13 with I_eff ≈ I; the plant still applies
	// the full Peukert model — that mismatch is part of the co-sim).
	BatteryCapacityAh, BatteryVoltageV float64
	// AccessoryW is the constant accessory load added to the predicted
	// total power.
	AccessoryW float64
	// SQPMaxIter caps the SQP iterations of a seeded decide (default
	// 30); a carried decide takes at most carriedSQPIters, and a
	// StepContext.SolverIterBudget lowers either cap for one decide.
	SQPMaxIter int
	// Telemetry, when non-nil and active, receives per-solve counters and
	// iteration histograms (mpc_solves_total{status}, mpc_sqp_iterations,
	// mpc_qp_iterations, mpc_kkt_factorizations_total,
	// mpc_qp_capped_total, mpc_sqp_corrections_total). Nil or Nop adds no
	// overhead to Decide.
	Telemetry telemetry.Sink
	// Thermal enables the cold-climate battery-thermal co-scheduling
	// extension (see ThermalOptions). The zero value keeps the paper's
	// cabin-only controller bit-for-bit.
	Thermal ThermalOptions
}

// DefaultConfig returns the configuration used in the experiments.
func DefaultConfig() Config {
	return Config{
		Cabin:             cabin.Default(),
		Horizon:           12,
		Dt:                5,
		Weights:           DefaultWeights(),
		BatteryCapacityAh: 66.2,
		BatteryVoltageV:   360,
		AccessoryW:        300,
	}
}

// Controller is the battery lifetime-aware MPC climate controller. It
// implements control.Controller.
type Controller struct {
	cfg   Config
	model *cabin.Model

	// Stage layout: sv variables, ne equality rows, ni inequality rows
	// per prediction step, of which the last nx variables are the state
	// the next step's rows reach back to. The cabin-only problem is
	// [Ts,Tc,dr,mz,Ph,Pc,e | x] (8/3/15, nx 1); thermal co-scheduling
	// adds the battery branch and the pack state,
	// [Ts,Tc,dr,mz,Ph,Pc,Pbh,Pbc,e | x,Tb] (11/4/19, nx 2). e is the
	// stage's comfort slack (comfortSlackPerK). The values are fixed in
	// New.
	sv, ne, ni, nx int
	thermal        bool
	// kabEffWK is the coolant loop folded into an effective pack↔ambient
	// conductance for the one-state-per-stage pack prediction model.
	kabEffWK float64

	prevZ    []float64 // previous solution for warm starting (fixed buffer)
	havePrev bool      // prevZ holds a usable previous solution

	// Solver arena: the controller solves an identically-shaped NLP every
	// step, so the SQP workspace, the horizon forecast buffers, the warm
	// start vector and the cost scratch are allocated once in New and
	// reused for the life of the controller — steady-state Decide performs
	// no per-step allocation. The sqp.Problem closures are bound once here
	// too (they capture c and read c.hor, which buildHorizon refills in
	// place each step).
	sqpWork         *sqp.Workspace
	hor             horizonData
	prob            sqp.Problem
	z0              []float64
	socBuf, sensBuf []float64
	// stats are the diagnostics aggregated over a run.
	stats Stats
	// lastErr is the previous Decide's internal failure (nil when the
	// solve was healthy), surfaced through Healthy for supervisory
	// layers.
	lastErr error
	// lastSolve is the previous Decide's optimizer diagnostics, exposed
	// through control.SolveReporter for telemetry step spans.
	lastSolve control.SolveInfo

	// Telemetry instruments, nil unless the config carried an active
	// sink; nil instruments are no-ops so Decide never branches on them.
	telSolves  map[string]*telemetry.Counter
	telIters   *telemetry.Histogram
	telQPIters *telemetry.Histogram
	telKKT     *telemetry.Counter // KKT factorizations
	telCapped  *telemetry.Counter // QP subproblems that ended at the iteration cap
	telCorr    *telemetry.Counter // SQP steps taken through the second-order correction
	telWarm    *telemetry.Counter // decides started from the carried BFGS blocks
	// telRTF is the real-time factor gauge: solve wall time ÷ control
	// period. Below 1 the controller keeps up with real time; the solve
	// is only timed when the gauge is bound, so inactive sinks see no
	// clock reads.
	telRTF *telemetry.Gauge
}

// New validates the configuration and builds the controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 12
	}
	if cfg.Dt <= 0 {
		cfg.Dt = 5
	}
	if cfg.Weights == (Weights{}) {
		cfg.Weights = DefaultWeights()
	}
	if cfg.Weights.Power < 0 || cfg.Weights.SoCDev < 0 || cfg.Weights.Comfort < 0 {
		return nil, errors.New("core: weights must be nonnegative")
	}
	if cfg.BatteryCapacityAh <= 0 || cfg.BatteryVoltageV <= 0 {
		return nil, fmt.Errorf("core: battery parameters (%v Ah, %v V) must be positive", cfg.BatteryCapacityAh, cfg.BatteryVoltageV)
	}
	if cfg.SQPMaxIter <= 0 {
		cfg.SQPMaxIter = 30
	}
	if err := cfg.Thermal.validate(); err != nil {
		return nil, err
	}
	m, err := cabin.New(cfg.Cabin)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, model: m}
	c.sv, c.ne, c.ni, c.nx = stageVars, 3, ineqPerStep, 1
	if cfg.Thermal.Enabled {
		c.thermal = true
		c.sv, c.ne, c.ni, c.nx = thermalStageVars, 4, thermalIneqPerStep, 2
		c.kabEffWK = cfg.Thermal.Network.EffectivePackAmbientUA()
	}
	n := cfg.Horizon
	c.hor = horizonData{
		motorW:     make([]float64, n),
		outsideC:   make([]float64, n),
		solarW:     make([]float64, n),
		coilFloorC: make([]float64, n),
		comfortLo:  make([]float64, n),
		comfortHi:  make([]float64, n),
		ah:         make([]float64, n),
		qjW:        make([]float64, n),
	}
	c.socBuf = make([]float64, n)
	c.sensBuf = make([]float64, n)
	c.z0 = make([]float64, c.nz())
	c.prevZ = make([]float64, c.nz())
	c.sqpWork = sqp.NewWorkspace()
	c.prob = sqp.Problem{
		N:         c.nz(),
		Objective: func(z []float64) float64 { return c.objective(z, &c.hor) },
		Gradient:  func(z, g []float64) { c.gradient(z, &c.hor, g) },
		MEq:       c.ne * n,
		Eq:        func(z, out []float64) { c.equalities(z, &c.hor, out) },
		EqJac:     func(z []float64, jac *qp.StageMatrix) { c.equalitiesJac(z, &c.hor, jac) },
		MIneq:     n * c.ni,
		Ineq:      func(z, out []float64) { c.inequalities(z, &c.hor, out) },
		IneqJac:   func(z []float64, jac *qp.StageMatrix) { c.inequalitiesJac(z, &c.hor, jac) },
		Restore:   func(z []float64) { c.restore(z, &c.hor) },
		Stages:    n,
		NX:        c.nx,
	}
	c.bindInstruments()
	return c, nil
}

// bindInstruments (re)resolves the solver instruments on the config's
// sink, detaching them when it is nil or inactive.
func (c *Controller) bindInstruments() {
	c.telSolves, c.telIters, c.telQPIters, c.telKKT, c.telCapped, c.telCorr, c.telWarm, c.telRTF = nil, nil, nil, nil, nil, nil, nil, nil
	tel := c.cfg.Telemetry
	if tel == nil || !tel.Active() {
		return
	}
	c.telSolves = make(map[string]*telemetry.Counter)
	for _, st := range []sqp.Status{sqp.Converged, sqp.MaxIterations, sqp.Stalled, sqp.Failed} {
		c.telSolves[st.String()] = tel.Counter("mpc_solves_total", telemetry.L("status", st.String()))
	}
	c.telSolves[budgetExceeded] = tel.Counter("mpc_solves_total", telemetry.L("status", budgetExceeded))
	c.telSolves["fallback"] = tel.Counter("mpc_solves_total", telemetry.L("status", "fallback"))
	c.telIters = tel.Histogram("mpc_sqp_iterations", telemetry.IterationBuckets)
	c.telQPIters = tel.Histogram("mpc_qp_iterations", telemetry.IterationBuckets)
	c.telKKT = tel.Counter("mpc_kkt_factorizations_total")
	c.telCapped = tel.Counter("mpc_qp_capped_total")
	c.telCorr = tel.Counter("mpc_sqp_corrections_total")
	c.telWarm = tel.Counter("mpc_warm_hessians_total")
	// Wall-clock derived; the "_real_time_factor" suffix keeps it out of
	// deterministic manifests (telemetry.DeterministicFilter).
	c.telRTF = tel.Gauge("mpc_real_time_factor")
}

// BindTelemetry implements control.TelemetryBinder: solver counters and
// iteration histograms move to the given sink.
func (c *Controller) BindTelemetry(tel telemetry.Sink) {
	c.cfg.Telemetry = tel
	c.bindInstruments()
}

// Name implements control.Controller.
func (c *Controller) Name() string {
	if c.cfg.Thermal.Enabled {
		return "Thermal Co-scheduling"
	}
	return "Battery Lifetime-aware"
}

// Structured reports whether the last Decide returned a solver iterate:
// every QP subproblem factors by the Riccati recursion over the stage
// state, so it is false only after a safe-ventilation fallback or before
// the first solve.
func (c *Controller) Structured() bool {
	return c.lastSolve.Status != "fallback" && c.lastSolve.QPIterations > 0
}

// Reset implements control.Controller.
func (c *Controller) Reset() {
	c.havePrev = false
	c.stats = Stats{}
	c.lastErr = nil
	c.lastSolve = control.SolveInfo{}
}

// LastSolve implements control.SolveReporter.
func (c *Controller) LastSolve() control.SolveInfo { return c.lastSolve }

// Healthy implements control.HealthReporter: it reports the last
// Decide's internal failure — a solver that fell back to safe
// ventilation or ran out of budget — even when the emitted inputs were
// clamped into a valid range.
func (c *Controller) Healthy() error { return c.lastErr }

// Stats reports solver diagnostics since the last Reset. The controller
// keeps its counters in one Stats value, and its state snapshot carries
// that value whole.
type Stats struct {
	// Solves counts MPC steps.
	Solves int `json:"solves"`
	// Converged, Stalled, Failed count SQP termination kinds. The
	// remainder hit the iteration cap, which is normal for real-time
	// MPC: most carried decides (WarmHessians) end there, after their
	// two iterations.
	Converged int `json:"converged"`
	Stalled   int `json:"stalled"`
	Failed    int `json:"failed"`
	// BudgetExceeded counts solves cut short by a per-step budget
	// (StepContext.SolverIterBudget: the supervisor's watchdog or an
	// injected solver-budget fault) below the decide's own cap.
	BudgetExceeded int `json:"budget"`
	// SQPIters sums the SQP iterations of every solve.
	SQPIters int `json:"sqp_iters"`
	// KKTFactorizations sums the interior-point KKT factorizations of
	// every QP subproblem.
	KKTFactorizations int `json:"kkt_factorizations"`
	// CappedQPs counts the QP subproblems that ended at the interior
	// point's iteration cap (sqp.Result.CappedQPs).
	CappedQPs int `json:"capped_qps"`
	// Corrections counts the SQP steps taken through the second-order
	// correction, the forward simulation of the prediction model
	// (sqp.Result.Corrections).
	Corrections int `json:"corrections"`
	// WarmHessians counts the carried decides: those whose SQP started
	// from the previous plan's shifted BFGS blocks instead of the
	// scaled-identity seed and took at most two iterations
	// (carriedSQPIters). The cabin-only MPC carries every decide after
	// its first; the co-scheduling one only those whose previous plan
	// met the comfort band (comfortMet). The other decides are full
	// solves under Config.SQPMaxIter.
	WarmHessians int `json:"warm_hessians"`
}

// AvgSQPIters is the mean SQP iteration count per solve (0 before the
// first solve).
func (s Stats) AvgSQPIters() float64 {
	if s.Solves == 0 {
		return 0
	}
	return float64(s.SQPIters) / float64(s.Solves)
}

// Stats returns the diagnostics.
func (c *Controller) Stats() Stats { return c.stats }

// horizonData is the exogenous forecast resampled onto the MPC grid.
type horizonData struct {
	n            int
	dt           float64
	motorW       []float64 // P_e per step
	outsideC     []float64 // T_o per step
	solarW       []float64
	coilFloorC   []float64 // effective C5 lower bound per step
	comfortLo    []float64 // funnelled C2 bounds per step (for x_{k+1})
	comfortHi    []float64
	tz0, soc0    float64
	targetC      float64
	kappaPerWatt float64 // SoC percent lost per W over one step
	// ah is the per-stage heater power coefficient: supply heat
	// mz·cp·(Ts−Tc) divided by the stage's electrical conversion factor
	// (EtaHeat cabin-only; the heat-pump COP at the forecast ambient, or
	// the PTC efficiency below cutoff, in thermal mode), in
	// W/(kg/s·K).
	ah []float64
	// tb0 and qjW are the thermal extension's measured initial pack
	// temperature and per-stage Joule-heat forecast (I²·R(tb0) at the
	// forecast motor current), W.
	tb0 float64
	qjW []float64
}

// buildHorizon resamples the StepContext forecast onto the MPC grid,
// refilling the controller's persistent horizon buffers in place (every
// entry is overwritten each call).
func (c *Controller) buildHorizon(ctx control.StepContext) *horizonData {
	n := c.cfg.Horizon
	h := &c.hor
	h.n, h.dt = n, c.cfg.Dt
	h.tz0 = ctx.CabinTempC
	h.soc0 = ctx.SoC
	h.targetC = ctx.TargetC
	h.tb0 = ctx.PackTempC
	// SoC percent drained per watt over one prediction step (Eq. 13 with
	// I_eff ≈ I).
	h.kappaPerWatt = 100 * c.cfg.Dt / (units.SecondsPerHour * c.cfg.BatteryCapacityAh * c.cfg.BatteryVoltageV)

	f := ctx.Forecast
	for k := 0; k < n; k++ {
		tk := float64(k) * c.cfg.Dt
		if f.Len() > 0 && f.Dt > 0 {
			idx := int(tk / f.Dt)
			if idx >= f.Len() {
				idx = f.Len() - 1
			}
			h.motorW[k] = f.MotorPowerW[idx]
			h.outsideC[k] = f.OutsideC[idx]
			h.solarW[k] = f.SolarW[idx]
		} else {
			h.motorW[k] = ctx.MotorPowerW
			h.outsideC[k] = ctx.OutsideC
			h.solarW[k] = ctx.SolarW
		}
		h.coilFloorC[k] = math.Min(c.cfg.Cabin.MinCoilTempC, h.outsideC[k])
		if c.thermal {
			eff, _ := c.cfg.Thermal.HeatPump.Heating(h.outsideC[k])
			h.ah[k] = c.cfg.Cabin.AirCpJKgK / eff
			iPred := (h.motorW[k] + c.cfg.AccessoryW) / c.cfg.BatteryVoltageV
			h.qjW[k] = iPred * iPred * c.cfg.Thermal.Network.PackResistanceOhm(h.tb0)
		} else {
			h.ah[k] = c.cfg.Cabin.AirCpJKgK / c.cfg.Cabin.EtaHeat
		}

		// Comfort funnel: when the cabin starts outside the zone, the
		// bound relaxes to the reachable envelope and tightens along the
		// horizon at funnelRateKps, keeping the horizon problem feasible
		// during pull-down/warm-up.
		pull := funnelRateKps * (tk + c.cfg.Dt)
		lo, hi := ctx.ComfortLowC, ctx.ComfortHighC
		if ctx.CabinTempC > hi {
			hi = math.Max(hi, ctx.CabinTempC+0.2-pull)
		}
		if ctx.CabinTempC < lo {
			lo = math.Min(lo, ctx.CabinTempC-0.2+pull)
		}
		h.comfortLo[k] = lo
		h.comfortHi[k] = hi
	}
	return h
}

// Variable layout: stage-major (multiple-shooting order). Stage k owns
// sv contiguous variables; cabin-only (sv = 8)
//
//	z[8k+0..5]   [Ts_k, Tc_k, dr_k, mz_k, Ph_k, Pc_k]   inputs + coil powers
//	z[8k+6]      e_k                                    comfort slack, cost units
//	z[8k+7]      x_{k+1}                                next cabin temperature
//
// and thermal co-scheduling (sv = 11)
//
//	z[11k+0..5]  [Ts_k, Tc_k, dr_k, mz_k, Ph_k, Pc_k]   inputs + coil powers
//	z[11k+6..7]  [Pbh_k, Pbc_k]                         battery heater/chiller, kW
//	z[11k+8]     e_k                                    comfort slack, cost units
//	z[11k+9]     x_{k+1}                                next cabin temperature
//	z[11k+10]    Tb_{k+1}                               next pack temperature
//
// so every constraint of stage k touches only the variables of stage k
// and the state that ends stage k−1 (x_k, and Tb_k in thermal mode): the
// last nx variables of each stage. That is exactly the row window of a
// qp.StageMatrix with that state width, so the Jacobians are written in
// stage form and the SQP subproblems factor by a Riccati recursion over
// a 1×1 or 2×2 cost-to-go at either stride. (The paper's
// Eq. 20 z = [x, i, u] grouping is mathematically identical — this is a
// permutation.)
func (c *Controller) idxX(k int) int  { return c.sv*k - c.nx } // x_k, k ≥ 1
func (c *Controller) idxTs(k int) int { return c.sv * k }
func (c *Controller) idxTc(k int) int { return c.sv*k + 1 }
func (c *Controller) idxDr(k int) int { return c.sv*k + 2 }
func (c *Controller) idxMz(k int) int { return c.sv*k + 3 }
func (c *Controller) idxPh(k int) int { return c.sv*k + 4 }
func (c *Controller) idxPc(k int) int { return c.sv*k + 5 }

// Battery-branch and pack-state indices (thermal co-scheduling only).
func (c *Controller) idxBh(k int) int { return c.sv*k + 6 }
func (c *Controller) idxBc(k int) int { return c.sv*k + 7 }
func (c *Controller) idxTb(k int) int { return c.sv*k - 1 } // Tb_k, k ≥ 1

// idxE is stage k's comfort slack e_k, the last variable before the
// stage state.
func (c *Controller) idxE(k int) int { return c.sv*(k+1) - c.nx - 1 }

// nz returns the decision-vector length.
func (c *Controller) nz() int { return c.sv * c.cfg.Horizon }

// stageVars and thermalStageVars are the per-stage variable counts of
// the two layouts above.
const (
	stageVars        = 8
	thermalStageVars = 11
)

// stateAt returns the cabin temperature at the start of step k and
// whether it is a decision variable (k ≥ 1).
func (c *Controller) stateAt(z []float64, h *horizonData, k int) (float64, bool) {
	if k == 0 {
		return h.tz0, false
	}
	return z[c.idxX(k)], true
}

// packAt returns the pack temperature at the start of step k and whether
// it is a decision variable (k ≥ 1). Thermal co-scheduling only.
func (c *Controller) packAt(z []float64, h *horizonData, k int) (float64, bool) {
	if k == 0 {
		return h.tb0, false
	}
	return z[c.idxTb(k)], true
}

// hvacPowerAt returns Ph + Pc + Pf — plus the battery heater/chiller
// branch in thermal mode — at step k for iterate z, in watts.
// The coil-power decision variables are stored in kilowatts so all
// decision variables share the same order of magnitude (important for the
// BFGS Hessian seed in the SQP solver).
func (c *Controller) hvacPowerAt(z []float64, h *horizonData, k int) float64 {
	mz := z[c.idxMz(k)]
	pw := 1000*(z[c.idxPh(k)]+z[c.idxPc(k)]) + c.cfg.Cabin.FanCoeffW*mz*mz
	if c.thermal {
		pw += 1000 * (z[c.idxBh(k)] + z[c.idxBc(k)])
	}
	return pw
}

// socTrajectory returns SoC_1..SoC_N for iterate z, written into the
// controller's scratch buffer (overwritten on every call).
func (c *Controller) socTrajectory(z []float64, h *horizonData) []float64 {
	soc := c.socBuf
	s := h.soc0
	for k := 0; k < h.n; k++ {
		total := h.motorW[k] + c.hvacPowerAt(z, h, k) + c.cfg.AccessoryW
		s -= h.kappaPerWatt * total
		soc[k] = s
	}
	return soc
}

// objective evaluates the Eq. 21 cost.
func (c *Controller) objective(z []float64, h *horizonData) float64 {
	w := c.cfg.Weights
	var cost float64
	soc := c.socTrajectory(z, h)
	var socAvg float64
	for _, s := range soc {
		socAvg += s
	}
	socAvg /= float64(h.n)
	for k := 0; k < h.n; k++ {
		cost += w.Power * c.hvacPowerAt(z, h, k)
		e := soc[k] - socAvg
		cost += w.SoCDev * e * e
		d := z[c.idxX(k+1)] - h.targetC
		cost += w.Comfort * d * d
		cost += z[c.idxE(k)]
	}
	// Terminal comfort cost: without it the receding horizon ratchets the
	// cabin toward a comfort-zone boundary, since each 60 s window sees a
	// tiny drift as nearly free. Weighting the final state as strongly as
	// the whole running cost anchors the trajectory at the target.
	dN := z[c.idxX(h.n)] - h.targetC
	cost += w.Comfort * float64(h.n) * dN * dN
	if c.thermal {
		// Soft pack-temperature comfort band (C¹ relu²): excursions below
		// BandLoC price lithium-plating-prone cold cycling, above BandHiC
		// Arrhenius-accelerated fade. This is the ΔSoH term of the
		// co-scheduling cost.
		wb := c.cfg.Thermal.BandWeight
		for k := 1; k <= h.n; k++ {
			tb := z[c.idxTb(k)]
			if d := c.cfg.Thermal.BandLoC - tb; d > 0 {
				cost += wb * d * d
			}
			if d := tb - c.cfg.Thermal.BandHiC; d > 0 {
				cost += wb * d * d
			}
		}
	}
	return cost
}

// costPowerSens returns dC/dP_k for each step: the sensitivity of the
// cost to the step-k HVAC power through the w1 term and the SoC chain.
// e_j = SoC_j − SoCavg sums to zero, so the mean-shift term cancels and
// dC/dP_k = w1 − 2·w2·κ·Σ_{j≥k+1} e_j.
func (c *Controller) costPowerSens(z []float64, h *horizonData) []float64 {
	w := c.cfg.Weights
	soc := c.socTrajectory(z, h)
	var socAvg float64
	for _, s := range soc {
		socAvg += s
	}
	socAvg /= float64(h.n)
	sens := c.sensBuf
	tail := 0.0
	for k := h.n - 1; k >= 0; k-- {
		tail += soc[k] - socAvg
		sens[k] = w.Power - 2*w.SoCDev*h.kappaPerWatt*tail
	}
	return sens
}

// gradient writes the analytic cost gradient.
func (c *Controller) gradient(z []float64, h *horizonData, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	w := c.cfg.Weights
	sens := c.costPowerSens(z, h)
	for k := 0; k < h.n; k++ {
		dCdP := sens[k]
		grad[c.idxPh(k)] += dCdP * 1000
		grad[c.idxPc(k)] += dCdP * 1000
		if c.thermal {
			grad[c.idxBh(k)] += dCdP * 1000
			grad[c.idxBc(k)] += dCdP * 1000
		}
		grad[c.idxMz(k)] += dCdP * 2 * c.cfg.Cabin.FanCoeffW * z[c.idxMz(k)]
		grad[c.idxX(k+1)] += 2 * w.Comfort * (z[c.idxX(k+1)] - h.targetC)
		grad[c.idxE(k)] += 1
	}
	grad[c.idxX(h.n)] += 2 * w.Comfort * float64(h.n) * (z[c.idxX(h.n)] - h.targetC)
	if c.thermal {
		wb := c.cfg.Thermal.BandWeight
		for k := 1; k <= h.n; k++ {
			tb := z[c.idxTb(k)]
			if d := c.cfg.Thermal.BandLoC - tb; d > 0 {
				grad[c.idxTb(k)] -= 2 * wb * d
			}
			if d := tb - c.cfg.Thermal.BandHiC; d > 0 {
				grad[c.idxTb(k)] += 2 * wb * d
			}
		}
	}
}

// Equality constraints, stage-major, ne per step k (rows at ne·k+…):
//
//	row +0 : cabin dynamics residual (Eqs. 18–19, trapezoidal), scaled by
//	         Δt/Mc so it reads in kelvins; in thermal mode the heat input
//	         gains the pack→cabin conduction K_bc·(T̄b − x̄)
//	row +1 : Ph_k − (cp/η_k)·mz·(Ts − Tc)/1000 = 0   (Eq. 10, kW; η_k is
//	         EtaHeat cabin-only, the heat-pump conversion in thermal mode)
//	row +2 : Pc_k − (cp/ηc)·mz·(Tm − Tc)/1000 = 0    (Eqs. 9, 11, kW)
//	row +3 : (thermal only) pack dynamics residual, trapezoidal in Tb,
//	         kelvins: conduction to ambient (coolant loop folded into
//	         kabEffWK) and cabin, the forecast Joule heat, and the battery
//	         heater/chiller branch (branch variables in kW)
func (c *Controller) equalities(z []float64, h *horizonData, out []float64) {
	for k := 0; k < h.n; k++ {
		row := c.ne * k
		rx, rb := c.dynamics(z, h, k)
		out[row] = rx
		if c.thermal {
			out[row+3] = rb
		}
		ph, pc := c.coilPowers(z, h, k)
		out[row+1] = z[c.idxPh(k)] - ph
		out[row+2] = z[c.idxPc(k)] - pc
	}
}

// dynamics returns the residuals of stage k's trapezoidal rows: the
// cabin row (+0) and, in thermal mode, the pack row (+3; 0 otherwise).
func (c *Controller) dynamics(z []float64, h *horizonData, k int) (rx, rb float64) {
	p := &c.cfg.Cabin
	xk, _ := c.stateAt(z, h, k)
	xk1 := z[c.idxX(k+1)]
	xbar := (xk + xk1) / 2
	q := h.solarW[k] + p.ShellUAWK*(h.outsideC[k]-xbar)
	if c.thermal {
		net := &c.cfg.Thermal.Network
		kbc := net.UAPackCabinWK
		tbk, _ := c.packAt(z, h, k)
		tbk1 := z[c.idxTb(k+1)]
		tbbar := (tbk + tbk1) / 2
		q += kbc * (tbbar - xbar)
		scale := h.dt / net.PackHeatCapJK
		qb := h.qjW[k] + c.kabEffWK*(h.outsideC[k]-tbbar) + kbc*(xbar-tbbar) +
			1000*(net.HeaterEff*z[c.idxBh(k)]-net.ChillerCOP*z[c.idxBc(k)])
		rb = (tbk1 - tbk) - scale*qb
	}
	supply := z[c.idxMz(k)] * p.AirCpJKgK * (z[c.idxTs(k)] - xbar)
	rowScale := h.dt / p.ThermalCapacitanceJK
	rx = (xk1 - xk) - rowScale*(q+supply)
	return rx, rb
}

// coilPowers returns the heater and cooler powers, in kW, that rows +1
// and +2 of stage k assign to the stage's inputs and start state.
func (c *Controller) coilPowers(z []float64, h *horizonData, k int) (ph, pc float64) {
	p := &c.cfg.Cabin
	ts := z[c.idxTs(k)]
	tc := z[c.idxTc(k)]
	dr := z[c.idxDr(k)]
	mz := z[c.idxMz(k)]
	xk, _ := c.stateAt(z, h, k)
	tm := (1-dr)*h.outsideC[k] + dr*xk
	ph = h.ah[k] * mz * (ts - tc) / 1000
	pc = p.AirCpJKgK / p.EtaCool * mz * (tm - tc) / 1000
	return ph, pc
}

// restore overwrites the dependent variables of z so that every
// equality row holds: one forward simulation of the prediction model
// from the planned inputs. Stage by stage, rows +0 and +3 are linear in
// the next state x_{k+1} (and Tb_{k+1}), so with the coefficients of
// stateCoeffs the state follows in closed form, a 1×1 (2×2) solve, from
// the stage's inputs and the state before it; rows +1 and +2 then
// give Ph_k and Pc_k. The inputs, the battery branch and the comfort
// slack are left as they are.
func (c *Controller) restore(z []float64, h *horizonData) {
	for k := 0; k < h.n; k++ {
		// With the next state zeroed, the residuals are the rows'
		// constant terms r0, and the state solves A·s = −r0.
		ix, ib := c.idxX(k+1), c.idxTb(k+1)
		z[ix] = 0
		if c.thermal {
			z[ib] = 0
		}
		rx, rb := c.dynamics(z, h, k)
		gx, cx, gb, cb := c.stateCoeffs(h, z[c.idxMz(k)])
		if c.thermal {
			// A = [1+gx cx; cb 1+gb].
			det := (1+gx)*(1+gb) - cx*cb
			z[ix] = -((1+gb)*rx - cx*rb) / det
			z[ib] = -((1+gx)*rb - cb*rx) / det
		} else {
			z[ix] = -rx / (1 + gx)
		}
		z[c.idxPh(k)], z[c.idxPc(k)] = c.coilPowers(z, h, k)
	}
}

// stateCoeffs returns the coefficients of stage k's trapezoidal rows on
// the states that end and start the stage, between which x̄ and T̄b
// split every conductance evenly: row +0 reads ±1 + gx on x and cx on
// Tb, and in thermal mode row +3 reads ±1 + gb on Tb and cb on x (+ for
// the next state, − for the start state). mz is the stage's air flow.
func (c *Controller) stateCoeffs(h *horizonData, mz float64) (gx, cx, gb, cb float64) {
	p := &c.cfg.Cabin
	rowScale := h.dt / p.ThermalCapacitanceJK
	sumHalf := p.ShellUAWK/2 + mz*p.AirCpJKgK/2
	if c.thermal {
		net := &c.cfg.Thermal.Network
		kbc := net.UAPackCabinWK
		sumHalf += kbc / 2
		scale := h.dt / net.PackHeatCapJK
		cx = -rowScale * kbc / 2
		gb = scale * ((c.kabEffWK + kbc) / 2)
		cb = -scale * kbc / 2
	}
	return rowScale * sumHalf, cx, gb, cb
}

// equalitiesJac writes the Jacobian of the equality constraints.
func (c *Controller) equalitiesJac(z []float64, h *horizonData, jac *qp.StageMatrix) {
	p := c.cfg.Cabin
	ac := p.AirCpJKgK / p.EtaCool
	net := &c.cfg.Thermal.Network
	for k := 0; k < h.n; k++ {
		ts := z[c.idxTs(k)]
		tc := z[c.idxTc(k)]
		dr := z[c.idxDr(k)]
		mz := z[c.idxMz(k)]
		xk, xIsVar := c.stateAt(z, h, k)
		xk1 := z[c.idxX(k+1)]
		xbar := (xk + xk1) / 2

		// Dynamics row (scaled by Δt/Mc).
		rowScale := h.dt / p.ThermalCapacitanceJK
		row := c.ne * k
		gx, cx, gb, cb := c.stateCoeffs(h, mz)
		jac.Set(row, c.idxX(k+1), 1+gx)
		if xIsVar {
			jac.Set(row, c.idxX(k), -1+gx)
		}
		jac.Set(row, c.idxTs(k), -rowScale*mz*p.AirCpJKgK)
		jac.Set(row, c.idxMz(k), -rowScale*p.AirCpJKgK*(ts-xbar))
		if c.thermal {
			jac.Set(row, c.idxTb(k+1), cx)
			if k >= 1 {
				jac.Set(row, c.idxTb(k), cx)
			}
		}

		// Heater power definition row (kW).
		r := row + 1
		jac.Set(r, c.idxPh(k), 1)
		jac.Set(r, c.idxTs(k), -h.ah[k]*mz/1000)
		jac.Set(r, c.idxTc(k), h.ah[k]*mz/1000)
		jac.Set(r, c.idxMz(k), -h.ah[k]*(ts-tc)/1000)

		// Cooler power definition row (kW).
		r = row + 2
		tm := (1-dr)*h.outsideC[k] + dr*xk
		jac.Set(r, c.idxPc(k), 1)
		jac.Set(r, c.idxTc(k), ac*mz/1000)
		jac.Set(r, c.idxDr(k), -ac*mz*(xk-h.outsideC[k])/1000)
		jac.Set(r, c.idxMz(k), -ac*(tm-tc)/1000)
		if xIsVar {
			jac.Set(r, c.idxX(k), -ac*mz*dr/1000)
		}

		// Pack dynamics row (thermal only, kelvins).
		if c.thermal {
			r = row + 3
			scale := h.dt / net.PackHeatCapJK
			jac.Set(r, c.idxTb(k+1), 1+gb)
			if k >= 1 {
				jac.Set(r, c.idxTb(k), -1+gb)
			}
			jac.Set(r, c.idxX(k+1), cb)
			if xIsVar {
				jac.Set(r, c.idxX(k), cb)
			}
			jac.Set(r, c.idxBh(k), -scale*1000*net.HeaterEff)
			jac.Set(r, c.idxBc(k), scale*1000*net.ChillerCOP)
		}
	}
}

// Inequality constraints, 15 per step k:
//
//	0: mz ≥ mz_lo          (C1)     1: mz ≤ mz_hi∧fan  (C1/C10)
//	2: x_{k+1} ≥ lo_k − e_k/ρ (C2)  3: x_{k+1} ≤ hi_k + e_k/ρ (C2)
//	4: Tc ≤ Ts             (C3)     5: Tc ≤ Tm         (C4)
//	6: Tc ≥ floor_k        (C5)     7: Ts ≤ Th_max     (C6)
//	8: dr ≥ 0              (C7)     9: dr ≤ dr_max     (C7)
//	10: Ph ≤ Ph_max        (C8)    11: Pc ≤ Pc_max     (C9)
//	12: Ph ≥ 0                     13: Pc ≥ 0
//	14: e_k ≥ 0                              (ρ = comfortSlackPerK)
//
// Thermal co-scheduling inserts 4 battery-branch rows before the slack
// row, which stays last:
//
//	14: Pbh ≤ Pbh_max      15: Pbc ≤ Pbc_max
//	16: Pbh ≥ 0            17: Pbc ≥ 0
//	18: e_k ≥ 0
const (
	ineqPerStep        = 15
	thermalIneqPerStep = ineqPerStep + 4
)

func (c *Controller) maxFlow() float64 {
	p := c.cfg.Cabin
	return math.Min(p.MaxAirFlowKgS, math.Sqrt(p.MaxFanPowerW/p.FanCoeffW))
}

func (c *Controller) inequalities(z []float64, h *horizonData, out []float64) {
	p := c.cfg.Cabin
	mzHi := c.maxFlow()
	for k := 0; k < h.n; k++ {
		ts := z[c.idxTs(k)]
		tc := z[c.idxTc(k)]
		dr := z[c.idxDr(k)]
		mz := z[c.idxMz(k)]
		xhat, _ := c.stateAt(z, h, k)
		tm := (1-dr)*h.outsideC[k] + dr*xhat
		relax := z[c.idxE(k)] / comfortSlackPerK
		o := out[k*c.ni:]
		o[0] = p.MinAirFlowKgS - mz
		o[1] = mz - mzHi
		o[2] = h.comfortLo[k] - z[c.idxX(k+1)] - relax
		o[3] = z[c.idxX(k+1)] - h.comfortHi[k] - relax
		o[4] = tc - ts
		o[5] = tc - tm
		o[6] = h.coilFloorC[k] - tc
		o[7] = ts - p.MaxHeaterTempC
		o[8] = -dr
		o[9] = dr - p.MaxRecirc
		o[10] = z[c.idxPh(k)] - p.MaxHeaterPowerW/1000
		o[11] = z[c.idxPc(k)] - p.MaxCoolerPowerW/1000
		o[12] = -z[c.idxPh(k)]
		o[13] = -z[c.idxPc(k)]
		if c.thermal {
			net := &c.cfg.Thermal.Network
			o[14] = z[c.idxBh(k)] - net.MaxHeaterW/1000
			o[15] = z[c.idxBc(k)] - net.MaxChillerW/1000
			o[16] = -z[c.idxBh(k)]
			o[17] = -z[c.idxBc(k)]
		}
		o[c.ni-1] = -z[c.idxE(k)]
	}
}

func (c *Controller) inequalitiesJac(z []float64, h *horizonData, jac *qp.StageMatrix) {
	for k := 0; k < h.n; k++ {
		dr := z[c.idxDr(k)]
		xhat, xIsVar := c.stateAt(z, h, k)
		r := k * c.ni
		jac.Set(r+0, c.idxMz(k), -1)
		jac.Set(r+1, c.idxMz(k), 1)
		jac.Set(r+2, c.idxX(k+1), -1)
		jac.Set(r+2, c.idxE(k), -1/comfortSlackPerK)
		jac.Set(r+3, c.idxX(k+1), 1)
		jac.Set(r+3, c.idxE(k), -1/comfortSlackPerK)
		jac.Set(r+4, c.idxTc(k), 1)
		jac.Set(r+4, c.idxTs(k), -1)
		jac.Set(r+5, c.idxTc(k), 1)
		jac.Set(r+5, c.idxDr(k), h.outsideC[k]-xhat)
		if xIsVar {
			jac.Set(r+5, c.idxX(k), -dr)
		}
		jac.Set(r+6, c.idxTc(k), -1)
		jac.Set(r+7, c.idxTs(k), 1)
		jac.Set(r+8, c.idxDr(k), -1)
		jac.Set(r+9, c.idxDr(k), 1)
		jac.Set(r+10, c.idxPh(k), 1)
		jac.Set(r+11, c.idxPc(k), 1)
		jac.Set(r+12, c.idxPh(k), -1)
		jac.Set(r+13, c.idxPc(k), -1)
		if c.thermal {
			jac.Set(r+14, c.idxBh(k), 1)
			jac.Set(r+15, c.idxBc(k), 1)
			jac.Set(r+16, c.idxBh(k), -1)
			jac.Set(r+17, c.idxBc(k), -1)
		}
		jac.Set(r+c.ni-1, c.idxE(k), -1)
	}
}

// initialGuess builds a feasible-ish starting iterate into z: hold the
// current temperature and ventilate, with each stage's comfort slack just
// large enough to admit the held temperature. Every entry of z is
// written.
func (c *Controller) initialGuess(h *horizonData, z []float64) {
	p := c.cfg.Cabin
	ac := p.AirCpJKgK / p.EtaCool
	for k := 1; k <= h.n; k++ {
		z[c.idxX(k)] = h.tz0
	}
	for k := 0; k < h.n; k++ {
		dr := 0.5
		tm := (1-dr)*h.outsideC[k] + dr*h.tz0
		tc := math.Max(h.coilFloorC[k], math.Min(tm, h.targetC))
		ts := units.Clamp(h.targetC, tc, p.MaxHeaterTempC)
		mz := p.MinAirFlowKgS + 0.02
		z[c.idxTs(k)] = ts
		z[c.idxTc(k)] = tc
		z[c.idxDr(k)] = dr
		z[c.idxMz(k)] = mz
		z[c.idxPh(k)] = math.Max(0, h.ah[k]*mz*(ts-tc)/1000)
		z[c.idxPc(k)] = math.Max(0, ac*mz*(tm-tc)/1000)
		z[c.idxE(k)] = comfortSlackPerK * math.Max(0, math.Max(h.comfortLo[k]-h.tz0, h.tz0-h.comfortHi[k]))
	}
	if c.thermal {
		// Hold the measured pack temperature and pre-seed the heater when
		// the pack starts below the band — in deep cold full heat is near
		// optimal and the seed saves SQP iterations.
		net := &c.cfg.Thermal.Network
		bh := 0.0
		if h.tb0 < c.cfg.Thermal.BandLoC {
			bh = net.MaxHeaterW / 1000
		}
		for k := 0; k < h.n; k++ {
			z[c.idxBh(k)] = bh
			z[c.idxBc(k)] = 0
			z[c.idxTb(k+1)] = h.tb0
		}
	}
}

// shiftWarmStart advances the previous solution by one step into z,
// which must not alias prev. The stage-major layout makes the shift two
// block copies: stages 1..n−1 slide down one slot (inputs, coil powers,
// comfort slack and the next-state variable all travel together), and
// the final stage repeats the previous plan's last stage.
func (c *Controller) shiftWarmStart(prev []float64, h *horizonData, z []float64) {
	last := c.sv * (h.n - 1)
	copy(z[:last], prev[c.sv:])
	copy(z[last:], prev[last:])
}

// carriedSQPIters is the SQP budget of a carried decide, every
// cabin-only decide after the first and every co-scheduling one whose
// previous plan met the comfort band: a real-time iteration (Diehl,
// Bock & Schlöder 2005) that corrects the shifted plan for two
// iterations and leaves the rest to the next decide. A budget of one
// would be cheaper still, but it is no tighter than the solver-brownout
// fault's one-iteration budget, so that fault would stop starving a
// carried decide.
const carriedSQPIters = 2

// sqpTol is the SQP's KKT tolerance and, in kelvins of comfort
// relaxation, the comfortMet gate. sqpMinMeritDecrease is the real-time
// early exit: a solve stops polishing once its merit stalls, since the
// warm-started next decide re-optimizes anyway.
const (
	sqpTol              = 1e-4
	sqpMinMeritDecrease = 1e-4
)

// budgetExceeded labels a decide that a StepContext.SolverIterBudget
// below its own cap cut short (SolveInfo.Status, mpc_solves_total).
const budgetExceeded = "budget-exceeded"

// sqpOptions are the solver options of a decide capped at maxIter
// iterations, on the controller's workspace.
func (c *Controller) sqpOptions(maxIter int) sqp.Options {
	return sqp.Options{MaxIter: maxIter, Tol: sqpTol, MinMeritDecrease: sqpMinMeritDecrease, Work: c.sqpWork}
}

// comfortMet reports whether plan z meets the comfort band: every
// stage's slack is at most the SQP tolerance, in kelvins. Only then does
// the co-scheduling MPC carry its next decide: start from z's shifted
// BFGS blocks, restored to the measured state, under the carried
// budget, carriedSQPIters. While a slack is active its multipliers sit
// at the ρ scale of comfortSlackPerK, and the curvature BFGS learns
// there misleads the thermal MPC's next solve. The cabin-only MPC
// carries every decide after its first.
func (c *Controller) comfortMet(z []float64) bool {
	for k := 0; k < c.cfg.Horizon; k++ {
		if z[c.idxE(k)]/comfortSlackPerK > sqpTol {
			return false
		}
	}
	return true
}

// start writes a decide's initial iterate into c.z0 and reports
// whether the decide is carried: it then starts from the previous
// plan's shifted plan and BFGS blocks. A seeded decide starts from
// initialGuess, or from the shifted plan alone, and the scaled-identity
// curvature.
func (c *Controller) start(h *horizonData) (carried bool) {
	if !c.havePrev {
		c.initialGuess(h, c.z0)
		return false
	}
	c.shiftWarmStart(c.prevZ, h, c.z0)
	// The co-scheduler still takes a seeded full solve after a
	// slack-active plan: carrying those decides too made cold-mpc about
	// twice as fast, but moved its full-length UDDS −20 °C ΔSoH from
	// 0.0539 to 0.0799 %. The gate goes once the comfort slack leaves
	// the Riccati stage.
	if c.thermal && !c.comfortMet(c.prevZ) {
		return false
	}
	c.sqpWork.ShiftHessian()
	// Initial-value embedding (Diehl, Bock & Schlöder 2005): the
	// carried plan's states are re-simulated from the measured cabin
	// (and pack) temperature, so a measurement jump does not leave the
	// first stage's dynamics violated. The comfort slack stays as
	// shifted: resetting it to admit the restored states measured worse
	// in the cold sweep.
	c.restore(c.z0, h)
	return true
}

// Decide implements control.Controller: it solves the horizon problem and
// applies the first control move.
func (c *Controller) Decide(ctx control.StepContext) cabin.Inputs {
	h := c.buildHorizon(ctx)

	// A carried decide is a real-time iteration from the shifted plan
	// and curvature; a seeded one is a full solve under
	// Config.SQPMaxIter.
	maxIter := c.cfg.SQPMaxIter
	if c.start(h) {
		maxIter = min(maxIter, carriedSQPIters)
		c.stats.WarmHessians++
		c.telWarm.Inc()
	}

	// A per-step budget (supervisor watchdog or injected solver-budget
	// fault) below the decide's own cap lowers it for this call only; a
	// solve that then runs out of iterations is labelled budgetExceeded
	// and reported unhealthy.
	budgeted := ctx.SolverIterBudget > 0 && ctx.SolverIterBudget < maxIter
	if budgeted {
		maxIter = ctx.SolverIterBudget
	}

	var t0 time.Time
	if c.telRTF != nil {
		t0 = time.Now()
	}
	res, err := sqp.Solve(&c.prob, c.z0, c.sqpOptions(maxIter))
	if c.telRTF != nil {
		c.telRTF.Set(time.Since(t0).Seconds() / c.cfg.Dt)
	}
	c.stats.Solves++
	c.lastSolve = control.SolveInfo{Status: "fallback"}
	var budgetErr error
	if res != nil {
		c.lastSolve = control.SolveInfo{
			Iterations:   res.Iterations,
			QPIterations: res.QPIterations,
			Status:       res.Status.String(),
		}
		st := &c.stats
		st.KKTFactorizations += res.Factorizations
		st.CappedQPs += res.CappedQPs
		st.Corrections += res.Corrections
		c.telKKT.Add(float64(res.Factorizations))
		c.telCapped.Add(float64(res.CappedQPs))
		c.telCorr.Add(float64(res.Corrections))
		st.SQPIters += res.Iterations
		switch res.Status {
		case sqp.Converged:
			st.Converged++
		case sqp.MaxIterations:
			if budgeted {
				st.BudgetExceeded++
				c.lastSolve.Status = budgetExceeded
				budgetErr = fmt.Errorf("core: SQP budget exceeded after %d iterations", res.Iterations)
			}
		case sqp.Stalled:
			st.Stalled++
		case sqp.Failed:
			st.Failed++
		}
	}

	// A budget-truncated iterate is still usable when finite: it is the
	// warm-started previous plan improved for as many iterations as the
	// budget allowed. It is reported unhealthy either way.
	var in cabin.Inputs
	if err != nil || res == nil || !mat.AllFinite(res.X) {
		// Optimizer broke down: fall back to a safe ventilation move and
		// drop the warm start. The termination-status switch above
		// already counted solves that returned a result; only a nil
		// result (never classified) is counted here.
		if res == nil {
			c.stats.Failed++
		}
		c.havePrev = false
		if err == nil {
			err = errors.New("core: non-finite solver iterate")
		}
		c.lastErr = fmt.Errorf("core: safe-ventilation fallback: %w", err)
		c.lastSolve.Status = "fallback"
		mixFallback := c.model.MixTemp(ctx.OutsideC, ctx.CabinTempC, 0.5)
		in = cabin.Inputs{SupplyTempC: mixFallback, CoilTempC: mixFallback, Recirc: 0.5, AirFlowKgS: c.cfg.Cabin.MinAirFlowKgS}
		if c.thermal && ctx.PackThermal {
			// Keep the pack protected through optimizer breakdowns with the
			// same thermostatic rule the ladder baselines use.
			if ctx.PackTempC < control.BattHeatOnC {
				in.BattHeatW = control.BattHeatCmdW
			} else if ctx.PackTempC > control.BattChillOnC {
				in.BattChillW = control.BattChillCmdW
			}
		}
	} else {
		// res.X aliases the SQP workspace (overwritten by the next solve),
		// so the warm start keeps its own copy.
		copy(c.prevZ, res.X)
		c.havePrev = true
		c.lastErr = budgetErr
		in = cabin.Inputs{
			SupplyTempC: res.X[c.idxTs(0)],
			CoilTempC:   res.X[c.idxTc(0)],
			Recirc:      res.X[c.idxDr(0)],
			AirFlowKgS:  res.X[c.idxMz(0)],
		}
		if c.thermal {
			in.BattHeatW = 1000 * math.Max(0, res.X[c.idxBh(0)])
			in.BattChillW = 1000 * math.Max(0, res.X[c.idxBc(0)])
		}
	}
	if c.telIters != nil {
		c.telIters.Observe(float64(c.lastSolve.Iterations))
		c.telQPIters.Observe(float64(c.lastSolve.QPIterations))
		c.telSolves[c.lastSolve.Status].Inc()
	}
	// Battery-branch complementarity snap (mirror of the coil snap below):
	// a finite-tolerance solve can leave both the pack heater and chiller
	// active — often when the SoC-balancing term locally rewards drawing
	// power. Cancelling the smaller branch against the net pack heat keeps
	// the planned pack trajectory while strictly reducing electrical draw,
	// so the emitted move is never worse than the optimizer's.
	if c.thermal && in.BattHeatW > 0 && in.BattChillW > 0 {
		net := &c.cfg.Thermal.Network
		heat := net.HeaterEff*in.BattHeatW - net.ChillerCOP*in.BattChillW
		if heat >= 0 {
			in.BattHeatW, in.BattChillW = heat/net.HeaterEff, 0
		} else {
			in.BattHeatW, in.BattChillW = 0, -heat/net.ChillerCOP
		}
	}
	out, mix := c.model.ClampForEnvironment(in, ctx.OutsideC, ctx.CabinTempC)
	// Exact heater/cooler complementarity on the emitted move: the
	// finite-tolerance solve drives min(Ph, Pc) toward zero but can leave
	// a few watts of the opposite coil active, which the plant would
	// dutifully burn. Raising the coil temperature to min(Ts, Tm) keeps
	// the supply temperature — and therefore the cabin trajectory —
	// exactly as planned while strictly reducing coil power, so the
	// emitted move is never worse than the optimizer's.
	if pw := c.model.PowersFor(out, mix); pw.HeaterW > 0 && pw.CoolerW > 0 {
		out.CoilTempC = math.Min(out.SupplyTempC, mix)
	}
	return out
}
