package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"evclimate/internal/battery"
	"evclimate/internal/bms"
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/telemetry"
	"evclimate/internal/thermal"
	"evclimate/internal/units"
)

// BatchRunner steps N independent vehicles in lockstep over
// structure-of-arrays plant state: one time loop, one fused RK4
// integration over the concatenated cabin states, and one lane-group
// controller decision per control step. It is the simulation's only
// step loop — Runner.RunWith is a 1-lane batch — and lanes never
// interact: each lane's trajectory is bit-for-bit what the same
// configuration produces alone, because RK4 on concatenated state is
// element-wise and every other pass is per lane. Batching amortizes the
// time loop, eliminates per-step allocations, and keeps the lane states
// hot in cache. Lanes with a thermal network carry their own
// thermal.State and a pack-coupled cabin RHS.
type BatchRunner struct {
	lanes    []*Runner
	n        int     // control steps, equal across lanes
	dt       float64 // ControlDt, equal across lanes
	subSteps int     // PlantSubSteps, equal across lanes
}

// NewBatch validates the lane configurations and builds a lockstep
// batch. Every lane gets its own Runner (so per-lane physics, drive
// cycles, targets, faults, thermal networks, and telemetry are free to
// differ), but the lanes must share a time grid: equal ControlDt,
// PlantSubSteps, and step count after defaulting.
func NewBatch(cfgs []Config) (*BatchRunner, error) {
	if len(cfgs) == 0 {
		return nil, errors.New("sim: batch with no lanes")
	}
	br := &BatchRunner{lanes: make([]*Runner, len(cfgs))}
	validated := make(map[*drivecycle.Profile]bool, len(cfgs))
	// A 1-lane batch is a single run; its errors read like one.
	laneErr := func(i int, err error) error {
		if len(cfgs) == 1 {
			return err
		}
		return fmt.Errorf("sim: batch lane %d: %w", i, err)
	}
	for i, cfg := range cfgs {
		r, err := buildRunner(cfg, validated)
		if err != nil {
			return nil, laneErr(i, err)
		}
		// Sweep grids vary environment and target over one cycle, so most
		// lanes drive the same speed trace with the same powertrain; the
		// traction power profile depends on nothing else, and computing it
		// once per motion group (instead of per lane) takes the dominant
		// per-lane setup cost off repeated batches.
		for j := 0; j < i; j++ {
			if sharesMotorBasis(br.lanes[j], r) {
				r.motor = br.lanes[j].motor
				break
			}
		}
		if r.motor == nil {
			r.motor = r.pt.PowerProfile(r.cfg.Profile)
		}
		n := r.steps
		if n <= 0 {
			return nil, laneErr(i, errors.New("sim: profile too short for one control step"))
		}
		if i == 0 {
			br.n, br.dt, br.subSteps = n, r.cfg.ControlDt, r.cfg.PlantSubSteps
		} else if r.cfg.ControlDt != br.dt || r.cfg.PlantSubSteps != br.subSteps || n != br.n {
			return nil, fmt.Errorf("sim: batch lane %d time grid (dt=%v sub=%d steps=%d) differs from lane 0 (dt=%v sub=%d steps=%d)",
				i, r.cfg.ControlDt, r.cfg.PlantSubSteps, n, br.dt, br.subSteps, br.n)
		}
		br.lanes[i] = r
	}
	return br, nil
}

// sharesMotorBasis reports whether lane b's motor power profile is
// necessarily bit-identical to lane a's: equal powertrain parameters
// (pointer-equal efficiency map) and profiles with the same grid and the
// same motion fields per sample. PowerAt reads only speed, acceleration,
// slope, and wind, so the environment fields sweeps vary are free to
// differ.
func sharesMotorBasis(a, b *Runner) bool {
	if a.cfg.Powertrain != b.cfg.Powertrain {
		return false
	}
	pa, pb := a.cfg.Profile, b.cfg.Profile
	if pa == pb {
		return true
	}
	if pa.Dt != pb.Dt || len(pa.Samples) != len(pb.Samples) {
		return false
	}
	for i := range pa.Samples {
		sa, sb := &pa.Samples[i], &pb.Samples[i]
		if sa.Speed != sb.Speed || sa.Accel != sb.Accel ||
			sa.SlopePercent != sb.SlopePercent || sa.WindMs != sb.WindMs {
			return false
		}
	}
	return true
}

// Steps returns the shared control-step count.
func (br *BatchRunner) Steps() int { return br.n }

// BatchRunOptions are the durability controls of one batched run. The
// zero value reproduces Run exactly.
type BatchRunOptions struct {
	// Context, when non-nil, is checked once per control step; a canceled
	// context aborts the whole batch (after flushing per-lane checkpoints
	// when OnCheckpoint is set).
	Context context.Context
	// CheckpointEvery, with OnCheckpoint, emits one checkpoint per lane
	// after every CheckpointEvery-th completed control step. A lane's
	// checkpoint resumes that lane in a batch of any width, a 1-lane run
	// included.
	CheckpointEvery int
	// OnCheckpoint receives lane checkpoints in lane order; a non-nil
	// error aborts the run.
	OnCheckpoint func(lane int, ck *Checkpoint) error
	// Resume, when non-nil, must hold one checkpoint per lane, all at the
	// same step; the batch resumes from that boundary bit-exactly.
	Resume []*Checkpoint
}

// rhsLane is one lane's slice of the batched plant right-hand side: the
// cabin parameters the derivative reads, the zero-order-held actuator
// inputs of the current control period, the lane's environment, and
// its pack coupling. prof is nil when the environment is constant over
// the profile (the sweep-grid common case), in which case ambC/solW hold
// the Profile.ConstantEnv values. kbc is zero for lanes without a
// thermal network.
type rhsLane struct {
	ua, cc, cp float64 // shell UA (W/K), capacitance (J/K), air cp (J/(kg·K))
	fcp, ts    float64 // ṁ·cp (W/K) and supply temp, rewritten every control step
	ambC, solW float64 // constant-environment fast path
	prof       *drivecycle.Profile
	kbc, tb    float64 // pack→cabin UA (W/K) and pack temp, frozen per control step
}

// NonFiniteLaneError reports which lane's state went non-finite during a
// batched integration, so the caller can attribute the failure to one
// scenario and re-run the rest.
type NonFiniteLaneError struct {
	// Lane is the index of the offending state slot.
	Lane int
	// T is the integration time after the step that produced the
	// non-finite value.
	T float64
}

// Error implements error, matching ode.Integrate's message shape.
func (e *NonFiniteLaneError) Error() string {
	return fmt.Sprintf("ode: non-finite state at t=%v (lane %d)", e.T, e.Lane)
}

// integrateLanes advances the concatenated cabin states from t0 to t1
// with fixed substep dt: classical RK4 with the cabin RHS inlined, each
// stage's derivative evaluation fused with the state combination that
// feeds the next stage. The time loop — t accumulating by h, the last
// step shortened to land on t1, the post-step non-finite check — is
// ode.Integrate's, and the per-lane arithmetic is ode.RK4's, so each
// lane is bit-identical to integrating that lane alone with
// ode.Integrate(..., &ode.RK4{}, ...). k1/k2/k3/tmp are caller-owned
// workspace of lane length.
//
// Each stage repeats the derivative body instead of calling a helper:
// cabin.Model.CabinDerivative over one rhsLane — the same expression
// tree ((solar + UA·(amb−T)) + (ṁ·cp)·(Ts−T)) / C in the same
// association, so every intermediate rounds identically — plus, on
// thermal lanes, the pack→cabin conduction kbc·(Tb−T)/C added to it.
// fcp carries the ṁ·cp product, which that expression also forms
// first. (A shared helper exceeds the inlining budget because of the
// varying-environment EnvAt call, turning the innermost loops into four
// function calls per lane per substep.)
func integrateLanes(rhs []rhsLane, x, k1, k2, k3, tmp []float64, t0, t1, dt float64) error {
	x = x[:len(rhs)]
	k1 = k1[:len(rhs)]
	k2 = k2[:len(rhs)]
	k3 = k3[:len(rhs)]
	tmp = tmp[:len(rhs)]
	t := t0
	for t < t1 {
		h := dt
		if t+h > t1 {
			h = t1 - t
		}
		if h <= 0 {
			break
		}
		th := t + h/2
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(t)
			}
			xi := x[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if l.kbc != 0 {
				d += l.kbc * (l.tb - xi) / l.cc
			}
			k1[i] = d
			tmp[i] = xi + h/2*d
		}
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(th)
			}
			xi := tmp[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if l.kbc != 0 {
				d += l.kbc * (l.tb - xi) / l.cc
			}
			k2[i] = d
			tmp[i] = x[i] + h/2*d
		}
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(th)
			}
			xi := tmp[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if l.kbc != 0 {
				d += l.kbc * (l.tb - xi) / l.cc
			}
			k3[i] = d
			tmp[i] = x[i] + h*d
		}
		for i := range rhs {
			l := &rhs[i]
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				amb, sol = l.prof.EnvAt(t + h)
			}
			xi := tmp[i]
			q := sol + l.ua*(amb-xi)
			d := (q + l.fcp*(l.ts-xi)) / l.cc
			if l.kbc != 0 {
				d += l.kbc * (l.tb - xi) / l.cc
			}
			x[i] = x[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+d)
		}
		t += h
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return &NonFiniteLaneError{Lane: i, T: t}
			}
		}
	}
	return nil
}

// batchLane is one lane's mutable run state plus the step scratch the
// fused loop's passes hand each other.
type batchLane struct {
	r    *Runner
	ctrl control.Controller
	b    *bms.BMS
	inj  *faults.Injector
	res  *Result
	acc  Accumulators

	// th is the thermal-network plant state (nil when the lane has no
	// thermal network).
	th *thermal.State

	telOn      bool
	tel        telemetry.Sink
	telSteps   *telemetry.Counter
	telLatency *telemetry.Histogram
	telPack    *telemetry.Gauge
	telCOP     *telemetry.Gauge
	telHPSteps *telemetry.Counter
	telPTC     *telemetry.Counter
	solver     control.SolveReporter
	ladder     control.LadderReporter

	// Per-step scratch written by the pre-integration passes and read by
	// the post-integration pass. prevTz is the pre-step cabin
	// temperature, saved because the batched integration updates the SoA
	// state in place. hpEff/hpPTC are the heating conversion of a
	// thermal lane's heating step.
	amb, sol, pe, socBefore float64
	prevTz                  float64
	in                      cabin.Inputs
	pw                      cabin.Powers
	heaterElecW, hvacW      float64
	hpEff                   float64
	hpPTC                   bool
}

// Run simulates every lane to completion under the lane group and
// returns one Result per lane. The controllers are Reset before the run.
func (br *BatchRunner) Run(bc *control.LaneGroup) ([]*Result, error) {
	return br.RunWith(bc, BatchRunOptions{})
}

// RunWith simulates the lanes in lockstep with durability controls: a
// per-step cancellation context (the watchdog hook), periodic per-lane
// checkpoints, and resumption from a prior checkpoint set. A resumed
// run's remaining trajectory is bit-for-bit identical to the
// uninterrupted run's.
func (br *BatchRunner) RunWith(bc *control.LaneGroup, opts BatchRunOptions) ([]*Result, error) {
	nl := len(br.lanes)
	if bc.Lanes() != nl {
		return nil, fmt.Errorf("sim: batch controller has %d lanes, runner has %d", bc.Lanes(), nl)
	}
	bc.Reset()

	lanes := make([]batchLane, nl)
	// The SoA state and per-step context/decision arrays.
	x := make([]float64, nl)
	ctxs := make([]control.StepContext, nl)
	decs := make([]cabin.Inputs, nl)
	// SoA plant state for the fused RHS: the cabin derivative reads only
	// these per-lane scalars, so the integration inner loop touches one
	// contiguous array instead of chasing lane structs.
	rhs := make([]rhsLane, nl)
	for i := range lanes {
		ln := &lanes[i]
		r := br.lanes[i]
		cfg := &r.cfg
		ln.r = r
		ln.ctrl = bc.Lane(i)
		b, err := bms.New(cfg.BMS)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		ln.b = b
		x[i] = cfg.InitialCabinC
		if cfg.UseAmbientStart {
			x[i] = cfg.Profile.Samples[0].AmbientC
		}
		ln.res = &Result{Controller: ln.ctrl.Name()}
		// The fault injector sits between the plant and the controller:
		// it corrupts what the controller observes, never what the plant
		// does.
		if !cfg.Faults.Empty() {
			ln.inj = cfg.Faults.New(cfg.FaultSeed)
		}
		rl := &rhs[i]
		if ambC, solW, ok := cfg.Profile.ConstantEnv(); ok {
			rl.ambC, rl.solW = ambC, solW
		} else {
			rl.prof = cfg.Profile
		}
		cp := r.hvac.Params()
		rl.ua = cp.ShellUAWK
		rl.cp = cp.AirCpJKgK
		rl.cc = cp.ThermalCapacitanceJK
		if cfg.Thermal != nil {
			th, err := thermal.NewState(*cfg.Thermal, cfg.Profile.Samples[0].AmbientC)
			if err != nil {
				return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
			}
			ln.th = th
			// The pack→cabin conduction enters the cabin ODE with the pack
			// temperature frozen over the control period (the network
			// itself steps once per period).
			rl.kbc = cfg.Thermal.Network.UAPackCabinWK
		}
		// Telemetry is resolved once; when the sink is inactive the loop
		// pays only a boolean test per step.
		ln.tel = cfg.Telemetry
		ln.telOn = ln.tel != nil && ln.tel.Active()
		if ln.telOn {
			ln.telSteps = ln.tel.Counter("sim_steps_total")
			ln.telLatency = ln.tel.Histogram("sim_step_latency_seconds", telemetry.LatencyBuckets)
			if ln.th != nil {
				ln.telPack = ln.tel.Gauge("sim_pack_temp_c")
				ln.telCOP = ln.tel.Gauge("sim_heatpump_cop")
				ln.telHPSteps = ln.tel.Counter("sim_heatpump_steps_total")
				ln.telPTC = ln.tel.Counter("sim_ptc_steps_total")
			}
			ln.solver, _ = ln.ctrl.(control.SolveReporter)
			ln.ladder, _ = ln.ctrl.(control.LadderReporter)
			// Late-bind the run's sink into the controller so solver and
			// ladder metrics land under this run's labels even when the
			// controller came from a zero-argument sweep constructor.
			if tb, ok := ln.ctrl.(control.TelemetryBinder); ok {
				tb.BindTelemetry(ln.tel)
			}
		}
	}

	k := 0 // the shared step index; lanes advance in lockstep
	if opts.Resume != nil {
		var err error
		k, err = br.restore(lanes, x, opts.Resume)
		if err != nil {
			return nil, err
		}
	}

	// Preallocate every lane's trace to the known step count (after any
	// resume has restored its shorter prefix), so the per-step appends
	// never regrow mid-run.
	for i := range lanes {
		growTrace(&lanes[i].res.Trace, br.n, lanes[i].th != nil)
	}

	// Workspace for the fused batched RK4 (see integrateLanes).
	k1 := make([]float64, nl)
	k2 := make([]float64, nl)
	k3 := make([]float64, nl)
	tmp := make([]float64, nl)
	sub := br.dt / float64(br.subSteps)
	cal := battery.DefaultCalendarParams()
	anyTel := false
	for i := range lanes {
		if lanes[i].telOn {
			anyTel = true
		}
	}

	for k < br.n {
		t := float64(k) * br.dt
		if opts.Context != nil {
			if cerr := opts.Context.Err(); cerr != nil {
				// Graceful drain: flush one checkpoint per lane so the
				// caller can resume the whole batch from this boundary;
				// the context error wins over any checkpoint-sink failure.
				if opts.OnCheckpoint != nil {
					for i := range lanes {
						if ck, snapErr := lanes[i].checkpoint(k, x[i]); snapErr == nil {
							_ = opts.OnCheckpoint(i, ck)
						}
					}
				}
				return nil, fmt.Errorf("sim: run aborted at step %d/%d: %w", k, br.n, cerr)
			}
		}

		// Pass 1: observe — per lane, sample the environment, motor
		// power, SoC, and pack temperature, and build the (possibly
		// fault-corrupted) controller context.
		for i := range lanes {
			ln := &lanes[i]
			cfg := &ln.r.cfg
			if rl := &rhs[i]; rl.prof != nil {
				ln.amb, ln.sol = rl.prof.EnvAt(t)
			} else {
				ln.amb, ln.sol = rl.ambC, rl.solW
			}
			ln.pe = ln.r.MotorPower(t)
			ln.socBefore = ln.b.SoC()
			// Field-wise writes instead of a composite literal: StepContext
			// is large enough that assigning a literal copies the whole
			// struct per lane per step. Every field is (re)written — the
			// fault injector may have corrupted any of them last step.
			c := &ctxs[i]
			c.Time = t
			c.Dt = cfg.ControlDt
			c.CabinTempC = x[i]
			c.OutsideC = ln.amb
			c.SolarW = ln.sol
			c.MotorPowerW = ln.pe
			c.SoC = ln.socBefore
			c.TargetC = cfg.TargetC
			c.ComfortLowC = cfg.TargetC - cfg.ComfortBandC
			c.ComfortHighC = cfg.TargetC + cfg.ComfortBandC
			c.SolverIterBudget = 0
			if ln.th != nil {
				c.PackTempC = ln.th.PackC()
				c.PackThermal = true
			} else {
				c.PackTempC = 0
				c.PackThermal = false
			}
			if cfg.ForecastSteps > 0 {
				c.Forecast = ln.r.forecast(t, cfg.ForecastSteps)
			} else {
				c.Forecast = control.Forecast{}
			}
			if ln.inj != nil {
				ln.inj.Apply(k, c)
			}
		}

		// Pass 2: decide — one lane-group step, then per-lane actuator
		// clamping and power accounting. Controller latency is wall-clock
		// (non-deterministic, excluded from deterministic telemetry
		// comparisons); the batch attributes an equal share to each lane.
		var stepStart time.Time
		if anyTel {
			stepStart = time.Now()
		}
		bc.DecideAll(ctxs, decs)
		for i := range lanes {
			ln := &lanes[i]
			cfg := &ln.r.cfg
			ln.prevTz = x[i] // integration below overwrites x in place
			ln.in = decs[i]
			mix := ln.r.hvac.ClampForEnvironmentInPlace(&ln.in, ln.amb, x[i])
			// Zero-order-held RHS inputs for this control period, in the
			// derivative's association: ṁ·cp first, then ·(Ts−T).
			rl := &rhs[i]
			rl.fcp = ln.in.AirFlowKgS * rl.cp
			rl.ts = ln.in.SupplyTempC
			ln.pw = ln.r.hvac.PowersFor(ln.in, mix)
			// Cabin heating runs through the heat pump in thermal runs: the
			// plant's delivered heat pw.HeaterW·EtaHeat is unchanged, only
			// the electrical conversion follows the COP at the current
			// ambient (or the PTC efficiency below the cutoff).
			ln.heaterElecW = ln.pw.HeaterW
			if ln.th != nil {
				rl.tb = ln.th.PackC()
				if ln.pw.HeaterW > 0 {
					ln.hpEff, ln.hpPTC = ln.th.Heating(ln.amb)
					ln.heaterElecW = ln.pw.HeaterW * cfg.Cabin.EtaHeat / ln.hpEff
				}
			}
			ln.hvacW = ln.pw.Total() - ln.pw.HeaterW + ln.heaterElecW
		}
		var stepLatency time.Duration
		if anyTel {
			stepLatency = time.Since(stepStart) / time.Duration(nl)
		}

		// Pass 3: integrate — one batched RK4 sweep over the concatenated
		// cabin states with the lanes' zero-order-held inputs.
		if err := integrateLanes(rhs, x, k1, k2, k3, tmp, t, t+br.dt, sub); err != nil {
			return nil, fmt.Errorf("sim: plant integration failed at t=%v: %w", t, err)
		}

		// Pass 4: account — per lane, thermal network and battery step,
		// telemetry, trace, and metric accumulators. The pre-step cabin
		// temperature feeds the network, the trace, and the comfort
		// statistics.
		for i := range lanes {
			ln := &lanes[i]
			cfg := &ln.r.cfg
			acc := &ln.acc
			total := ln.pe + ln.hvacW + cfg.Powertrain.AccessoryW
			if ln.th != nil {
				// Pack Joule self-heating at the pre-branch current feeds the
				// thermal network and drains the battery; the (clamped)
				// battery heater/chiller electrical draw adds on top.
				iPack := total / cfg.BMS.Pack.NominalVoltageV
				jouleW := iPack * iPack * ln.th.PackResistanceOhm()
				fl := ln.th.Step(ln.prevTz, ln.amb, jouleW, ln.in.BattHeatW, ln.in.BattChillW, cfg.ControlDt)
				total += fl.HeaterElecW + fl.ChillerElecW + jouleW
			}
			_, soc := ln.b.Step(total, cfg.ControlDt)
			if ln.th != nil {
				// Calendar aging accrues continuously at the pack temperature
				// and the storage SoC, with the sqrt(t) kernel evaluated at
				// the pack's running age.
				age := cal
				age.AgeDays += t / units.SecondsPerDay
				acc.CalendarPct += age.LossPercent(ln.th.PackC(), soc, cfg.ControlDt)
				if ln.pw.HeaterW > 0 {
					if ln.hpPTC {
						acc.PTCSteps++
					} else {
						acc.HPSteps++
						acc.COPSum += ln.hpEff
					}
				}
			}

			if ln.telOn {
				ln.recordStep(k, t, soc, stepLatency)
			}

			tr := &ln.res.Trace
			tr.Time = append(tr.Time, t)
			tr.CabinC = append(tr.CabinC, ln.prevTz)
			tr.OutsideC = append(tr.OutsideC, ln.amb)
			tr.MotorW = append(tr.MotorW, ln.pe)
			tr.HeaterW = append(tr.HeaterW, ln.heaterElecW)
			tr.CoolerW = append(tr.CoolerW, ln.pw.CoolerW)
			tr.FanW = append(tr.FanW, ln.pw.FanW)
			tr.HVACW = append(tr.HVACW, ln.hvacW)
			tr.TotalW = append(tr.TotalW, total)
			tr.SoC = append(tr.SoC, soc)
			if ln.th != nil {
				tr.PackC = append(tr.PackC, ln.th.PackC())
			}
			tr.Inputs = append(tr.Inputs, ln.in)

			acc.HVACJ += ln.hvacW * cfg.ControlDt
			acc.MotorJ += ln.pe * cfg.ControlDt
			acc.TotalJ += total * cfg.ControlDt

			// Comfort statistics use the true pre-step temperature against
			// the (possibly fault-widened) comfort band the controller saw.
			if t >= cfg.SettleS {
				acc.ComfortCount++
				e := ln.prevTz - cfg.TargetC
				acc.TrackSq += e * e
				if ln.prevTz < ctxs[i].ComfortLowC || ln.prevTz > ctxs[i].ComfortHighC {
					acc.ComfortViol++
				}
			}
		}

		k++

		if opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil && k < br.n && k%opts.CheckpointEvery == 0 {
			for i := range lanes {
				ck, err := lanes[i].checkpoint(k, x[i])
				if err != nil {
					return nil, fmt.Errorf("sim: checkpoint at step %d: %w", k, err)
				}
				if err := opts.OnCheckpoint(i, ck); err != nil {
					return nil, fmt.Errorf("sim: checkpoint at step %d: %w", k, err)
				}
			}
		}
	}

	out := make([]*Result, nl)
	for i := range lanes {
		res, err := lanes[i].finish(br.n)
		if err != nil {
			return nil, fmt.Errorf("sim: batch lane %d: %w", i, err)
		}
		out[i] = res
	}
	return out, nil
}

// recordStep emits the lane's telemetry for step k: the step counter,
// latency histogram, thermal gauges and counters, and one StepSpan.
func (ln *batchLane) recordStep(k int, t, soc float64, latency time.Duration) {
	ln.telSteps.Inc()
	ln.telLatency.Observe(latency.Seconds())
	span := telemetry.StepSpan{
		Step:         k,
		TimeS:        t,
		CabinC:       ln.prevTz,
		OutsideC:     ln.amb,
		SoCPct:       soc,
		SoCDeltaPct:  soc - ln.socBefore,
		HVACW:        ln.hvacW,
		SupplyC:      ln.in.SupplyTempC,
		CoilC:        ln.in.CoilTempC,
		Recirc:       ln.in.Recirc,
		AirFlowKgS:   ln.in.AirFlowKgS,
		Rung:         -1,
		FaultsActive: ln.inj.ActiveAt(t),
		LatencyNs:    latency.Nanoseconds(),
	}
	if ln.solver != nil {
		si := ln.solver.LastSolve()
		span.SolverIters = si.Iterations
		span.QPIters = si.QPIterations
		span.SolverStatus = si.Status
	}
	if ln.ladder != nil {
		span.Rung = ln.ladder.Level()
		span.Stage = ln.ladder.ActiveStage()
	}
	if ln.th != nil {
		span.PackC = ln.th.PackC()
		span.BattHeatW = ln.in.BattHeatW
		span.BattChillW = ln.in.BattChillW
		ln.telPack.Set(ln.th.PackC())
		if ln.pw.HeaterW > 0 {
			span.COP = ln.hpEff
			ln.telCOP.Set(ln.hpEff)
			if ln.hpPTC {
				ln.telPTC.Inc()
			} else {
				ln.telHPSteps.Inc()
			}
		}
	}
	ln.tel.Step(&span)
}

// finish turns the lane's accumulators into its Result after n steps.
func (ln *batchLane) finish(n int) (*Result, error) {
	cfg := &ln.r.cfg
	res, acc := ln.res, &ln.acc
	simT := float64(n) * cfg.ControlDt
	res.AvgHVACW = acc.HVACJ / simT
	res.AvgMotorW = acc.MotorJ / simT
	res.AvgTotalW = acc.TotalJ / simT
	res.HVACEnergyKWh = acc.HVACJ / 3.6e6
	res.FinalSoC = ln.b.SoC()
	res.Events = ln.b.Events()
	dev, avg, err := ln.b.CycleStats()
	if err != nil {
		return nil, err
	}
	res.SoCDev, res.SoCAvg = dev, avg
	dsoh, err := ln.b.DeltaSoH()
	if err != nil {
		return nil, err
	}
	res.DeltaSoH = dsoh
	if th := ln.th; th != nil {
		// Cold (or hot) cycling accelerates cycle fade: scale the cycle term
		// by the U-shaped pack-temperature stress factor, and report the
		// calendar (storage) term alongside.
		res.DeltaSoH = dsoh * battery.CycleStressFactor(th.MeanPackC())
		res.CalendarDeltaSoH = acc.CalendarPct
		res.PackMeanC = th.MeanPackC()
		res.PackMinC = th.MinPackC()
		res.PackFinalC = th.PackC()
		res.ThermalEnergyDefectJ = th.EnergyDefectJ()
		if heatSteps := acc.HPSteps + acc.PTCSteps; heatSteps > 0 {
			res.HeatPumpFrac = float64(acc.HPSteps) / float64(heatSteps)
		}
		if acc.HPSteps > 0 {
			res.AvgCOP = acc.COPSum / float64(acc.HPSteps)
		}
	}
	if acc.ComfortCount > 0 {
		res.ComfortViolationFrac = acc.ComfortViol / acc.ComfortCount
		res.RMSTrackingErrC = math.Sqrt(acc.TrackSq / acc.ComfortCount)
	}
	return res, nil
}
