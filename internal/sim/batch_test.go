package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/drivecycle"
	"evclimate/internal/faults"
	"evclimate/internal/ode"
)

// batchLaneConfigs builds n lane configurations over the named cycle
// that exercise the batch core's variation axes: different targets,
// constant and time-varying ambients, solar load, and fault-injected
// lanes. Lane i is deterministic in (cycle, i).
func batchLaneConfigs(t *testing.T, cycle string, n int) []Config {
	t.Helper()
	c, err := drivecycle.ByName(cycle)
	if err != nil {
		t.Fatal(err)
	}
	base := c.Profile(1)
	cfgs := make([]Config, n)
	for i := 0; i < n; i++ {
		var prof *drivecycle.Profile
		switch i % 4 {
		case 0:
			prof = base.WithAmbient(35).WithSolar(400)
		case 1:
			prof = base.WithAmbient(5)
		case 2:
			// Time-varying ambient: the EnvAt interpolating path.
			phase := float64(i)
			prof = base.WithAmbientFunc(func(tt float64) float64 {
				return 20 + 12*math.Sin(tt/60+phase)
			}).WithSolar(250)
		default:
			prof = base.WithAmbient(28).WithSolar(150)
		}
		cfg := DefaultConfig(prof.Truncate(240))
		cfg.TargetC = 21 + float64(i%3)*2.5
		switch i % 5 {
		case 3:
			cfg.Faults = &faults.Spec{
				Name:   "stuck-cabin",
				Sensor: []faults.SensorFault{{Signal: faults.CabinTemp, Mode: faults.StuckAt, Value: 24, Window: faults.Window{StartS: 60, EndS: 150}}},
			}
			cfg.FaultSeed = int64(1000 + i)
		case 4:
			cfg.Faults = &faults.Spec{
				Name:   "noisy-soc",
				Sensor: []faults.SensorFault{{Signal: faults.SoC, Mode: faults.Noise, Value: 0.5, Window: faults.Window{StartS: 30, EndS: 200}}},
			}
			cfg.FaultSeed = int64(2000 + i)
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// batchControllers builds one controller per lane of the given kind.
func batchControllers(t *testing.T, kind string, n int) []control.Controller {
	t.Helper()
	out := make([]control.Controller, n)
	for i := range out {
		switch kind {
		case "onoff":
			out[i] = control.NewOnOff(hvacModel(t))
		case "fuzzy":
			out[i] = control.NewFuzzy(hvacModel(t))
		case "mixed":
			if i%2 == 0 {
				out[i] = control.NewOnOff(hvacModel(t))
			} else {
				out[i] = control.NewFuzzy(hvacModel(t))
			}
		default:
			t.Fatalf("unknown controller kind %q", kind)
		}
	}
	return out
}

// thermalLaneConfigs builds n lanes on the MPC time grid that alternate
// cold-soaked thermal-network lanes with cabin-only ones, so one batch
// carries both plant shapes (pack-coupled and plain cabin RHS).
func thermalLaneConfigs(t *testing.T, n int) []Config {
	t.Helper()
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfg := coldThermalConfig(-15 + 4*float64(i))
		cfg.Profile = cfg.Profile.Truncate(240)
		if i%2 == 1 {
			cfg.Thermal = nil
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// thermalControllers pairs thermalLaneConfigs lanes with a mix of
// kernel-stepped baselines and Decide-stepped controllers, the
// co-scheduling MPC on a thermal lane among them.
func thermalControllers(t *testing.T, n int) []control.Controller {
	t.Helper()
	out := make([]control.Controller, n)
	for i := range out {
		switch i % 4 {
		case 0:
			out[i] = thermalMPC(t)
		case 1:
			out[i] = control.NewFuzzy(hvacModel(t))
		case 2:
			out[i] = control.NewOnOff(hvacModel(t))
		default:
			out[i] = control.NewPID(hvacModel(t))
		}
	}
	return out
}

// TestBatchMatchesScalarBitExact is the lane-independence property: for
// on/off and fuzzy controllers across three drive cycles and batch
// sizes 1, 3, and 16 — with lanes varying target, ambient (constant and
// sinusoidal), solar, and fault injection — lane i of a batched run is
// bit-for-bit identical (full Result JSON, traces included) to the
// 1-lane run of configuration i, and the batched results satisfy the
// physical invariants. The mixed-controller case pins lanes of
// different kernel families side by side, and the thermal case one
// batch of pack-coupled thermal lanes next to cabin-only lanes under
// kernel- and Decide-stepped controllers.
func TestBatchMatchesScalarBitExact(t *testing.T) {
	type laneCase struct {
		name  string
		size  int
		cfgs  func(t *testing.T, n int) []Config
		ctrls func(t *testing.T, n int) []control.Controller
	}
	var cases []laneCase
	for _, cyc := range []string{"ECE15", "UDDS", "US06"} {
		for _, kind := range []string{"onoff", "fuzzy", "mixed"} {
			for _, size := range []int{1, 3, 16} {
				if kind == "mixed" && (size != 3 || cyc != "ECE15") {
					continue // mixing needs one pin, not the grid
				}
				cases = append(cases, laneCase{
					name:  fmt.Sprintf("%s/%s/%d", cyc, kind, size),
					size:  size,
					cfgs:  func(t *testing.T, n int) []Config { return batchLaneConfigs(t, cyc, n) },
					ctrls: func(t *testing.T, n int) []control.Controller { return batchControllers(t, kind, n) },
				})
			}
		}
	}
	cases = append(cases, laneCase{name: "ECE15/thermal/4", size: 4, cfgs: thermalLaneConfigs, ctrls: thermalControllers})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfgs := c.cfgs(t, c.size)

			br, err := NewBatch(cfgs)
			if err != nil {
				t.Fatal(err)
			}
			bres, err := br.Run(control.Batch(c.ctrls(t, c.size)))
			if err != nil {
				t.Fatal(err)
			}

			for i, cfg := range cfgs {
				r, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sres, err := r.Run(c.ctrls(t, c.size)[i])
				if err != nil {
					t.Fatal(err)
				}
				want, _ := json.Marshal(sres)
				got, _ := json.Marshal(bres[i])
				if string(want) != string(got) {
					t.Errorf("lane %d: batch result diverges from the 1-lane run", i)
				}
				if (cfg.Thermal != nil) != (len(bres[i].Trace.PackC) > 0) {
					t.Errorf("lane %d: thermal=%v but %d pack-temperature samples", i, cfg.Thermal != nil, len(bres[i].Trace.PackC))
				}
				// Fault-corrupted lanes can legitimately violate the
				// conformance rules (a stuck sensor makes the fuzzy
				// controller heat a hot cabin), and cold-soaked lanes
				// spend the short profile pulling up from the soak; clean
				// warm-start lanes must not.
				if cfg.Faults.Empty() && !cfg.UseAmbientStart {
					tol := DefaultTolerances()
					if strings.HasPrefix(c.name, "US06") {
						tol.EnergyClosureRel = 0.25
					}
					if err := CheckInvariants(cfg, bres[i], tol); err != nil {
						t.Errorf("lane %d: batch result violates invariants: %v", i, err)
					}
				}
			}
		})
	}
}

// oracleSpans are the integration spans the integrateLanes tests run.
var oracleSpans = []struct{ t0, t1, dt float64 }{
	{0, 1, 0.2},
	{3, 4, 0.3}, // 0.3 does not divide 1: exercises the shortened last substep
	{10, 15, 1},
}

// oracleLanes draws lanes of random cabins — half coupled to a pack,
// half on a time-varying environment — and returns them with their
// initial states and the state ode.Integrate with ode.RK4 reaches from
// there over cabin.Model.CabinDerivative on each lane alone.
func oracleLanes(t *testing.T, rng *rand.Rand, lanes int, t0, t1, dt float64) (rhs []rhsLane, x, want []float64) {
	t.Helper()
	base := drivecycle.ECE15().Profile(1)
	rhs = make([]rhsLane, lanes)
	x = make([]float64, lanes)
	want = make([]float64, lanes)
	for i := range rhs {
		p := cabin.Default()
		p.ShellUAWK *= 0.5 + rng.Float64()
		p.ThermalCapacitanceJK *= 0.5 + rng.Float64()
		m, err := cabin.New(p)
		if err != nil {
			t.Fatal(err)
		}
		in := cabin.Inputs{AirFlowKgS: 0.05 + 0.2*rng.Float64(), SupplyTempC: 5 + 45*rng.Float64()}
		phase := rng.Float64() * 10
		prof := base.WithAmbientFunc(func(tt float64) float64 { return 10 + 15*math.Sin(tt/3+phase) }).WithSolar(300 * rng.Float64())
		l := rhsLane{
			ua: p.ShellUAWK, cc: p.ThermalCapacitanceJK, cp: p.AirCpJKgK,
			fcp: in.AirFlowKgS * p.AirCpJKgK, ts: in.SupplyTempC,
		}
		if i%2 == 0 {
			l.prof = prof
		} else {
			s := prof.At(0)
			l.ambC, l.solW = s.AmbientC, s.SolarW
		}
		if i%4 < 2 {
			l.kbc, l.tb = 5+20*rng.Float64(), -20+30*rng.Float64()
		}
		rhs[i] = l
		x[i] = -5 + 40*rng.Float64()

		sys := func(tt float64, xs, dxdt []float64) {
			amb, sol := l.ambC, l.solW
			if l.prof != nil {
				s := l.prof.At(tt)
				amb, sol = s.AmbientC, s.SolarW
			}
			d := m.CabinDerivative(xs[0], in, amb, sol)
			if l.kbc != 0 {
				d += l.kbc * (l.tb - xs[0]) / p.ThermalCapacitanceJK
			}
			dxdt[0] = d
		}
		out, err := ode.Integrate(sys, []float64{x[i]}, t0, t1, dt, &ode.RK4{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out[0]
	}
	return rhs, x, want
}

// TestIntegrateLanesMatchesRK4Oracle pins the fused integrator against
// the reference: each lane of integrateLanes is bit-identical to
// ode.Integrate with ode.RK4 over cabin.Model.CabinDerivative on that
// lane alone — with and without the pack-coupling term, on constant and
// time-varying environments, across a span whose last substep is
// shortened. The workspace is reused across calls, as the step loop
// reuses it across control steps.
func TestIntegrateLanesMatchesRK4Oracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const lanes = 8
	k1, k2, k3, tmp := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
	for _, span := range oracleSpans {
		rhs, x, want := oracleLanes(t, rng, lanes, span.t0, span.t1, span.dt)
		if err := integrateLanes(rhs, x, k1, k2, k3, tmp, span.t0, span.t1, span.dt); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != want[i] {
				t.Errorf("span %+v lane %d (coupled=%v varying=%v): fused %v != oracle %v (diff %g)",
					span, i, rhs[i].kbc != 0, rhs[i].prof != nil, x[i], want[i], x[i]-want[i])
			}
		}
	}
}

// TestIntegrateLanesWorkspaceReuse pins that the caller-owned workspace
// makes integration allocation-free: repeated calls reusing k1, k2, k3
// and tmp allocate nothing, on every lane kind and span.
func TestIntegrateLanesWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const lanes = 8
	k1, k2, k3, tmp := make([]float64, lanes), make([]float64, lanes), make([]float64, lanes), make([]float64, lanes)
	for _, span := range oracleSpans {
		rhs, x, _ := oracleLanes(t, rng, lanes, span.t0, span.t1, span.dt)
		allocs := testing.AllocsPerRun(10, func() {
			if err := integrateLanes(rhs, x, k1, k2, k3, tmp, span.t0, span.t1, span.dt); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("span %+v: integrateLanes allocated %v times per call, want 0", span, allocs)
		}
	}
}

// TestIntegrateLanesNonFiniteLane pins lane attribution: when one lane
// blows up, the error names that lane and the post-step time.
func TestIntegrateLanesNonFiniteLane(t *testing.T) {
	p := cabin.Default()
	rhs := make([]rhsLane, 3)
	for i := range rhs {
		rhs[i] = rhsLane{ua: p.ShellUAWK, cc: p.ThermalCapacitanceJK, cp: p.AirCpJKgK, ambC: 20}
	}
	rhs[1].ts, rhs[1].fcp = math.Inf(1), 1
	x := []float64{20, 20, 20}
	ws := func() []float64 { return make([]float64, 3) }
	err := integrateLanes(rhs, x, ws(), ws(), ws(), ws(), 0, 1, 0.5)
	var nf *NonFiniteLaneError
	if !errors.As(err, &nf) {
		t.Fatalf("want *NonFiniteLaneError, got %v", err)
	}
	if nf.Lane != 1 || nf.T != 0.5 {
		t.Errorf("attributed lane %d at t=%v, want lane 1 at t=0.5", nf.Lane, nf.T)
	}
}

// TestBatchCheckpointResumeBitExact pins batch durability: checkpoints
// emitted at a batch boundary round-trip through JSON and resume (a) a
// fresh multi-lane batch and (b) a fresh 1-lane run per lane — both
// reproducing the uninterrupted batch bit for bit.
func TestBatchCheckpointResumeBitExact(t *testing.T) {
	const size = 4
	const at = 97
	cfgs := batchLaneConfigs(t, "ECE15", size)

	br, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	cks := make([]*Checkpoint, size)
	ref, err := br.RunWith(control.Batch(batchControllers(t, "fuzzy", size)), BatchRunOptions{
		CheckpointEvery: at,
		OnCheckpoint: func(lane int, ck *Checkpoint) error {
			if cks[lane] == nil {
				raw, err := json.Marshal(ck) // round-trip as checkpoint files do
				if err != nil {
					return err
				}
				cks[lane] = new(Checkpoint)
				return json.Unmarshal(raw, cks[lane])
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ck := range cks {
		if ck == nil || ck.Step != at {
			t.Fatalf("lane %d: missing checkpoint at step %d", i, at)
		}
	}
	refJSON := make([]string, size)
	for i := range ref {
		raw, _ := json.Marshal(ref[i])
		refJSON[i] = string(raw)
	}

	// (a) Multi-lane resume on fresh runners and controllers.
	br2, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := br2.RunWith(control.Batch(batchControllers(t, "fuzzy", size)), BatchRunOptions{Resume: cks})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		raw, _ := json.Marshal(res[i])
		if string(raw) != refJSON[i] {
			t.Errorf("lane %d: batch resume diverges from uninterrupted batch", i)
		}
	}

	// (b) Each lane's checkpoint resumes a 1-lane run bit-exactly.
	for i, cfg := range cfgs {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := r.RunWith(control.NewFuzzy(hvacModel(t)), RunOptions{Resume: cks[i]})
		if err != nil {
			t.Fatalf("lane %d: 1-lane resume: %v", i, err)
		}
		raw, _ := json.Marshal(sres)
		if string(raw) != refJSON[i] {
			t.Errorf("lane %d: 1-lane resume diverges from uninterrupted batch", i)
		}
	}
}

// TestBatchAbortFlushesCheckpoints pins the graceful-drain contract: a
// canceled context aborts the batch with one resumable checkpoint per
// lane, and resuming those checkpoints completes the run bit-exactly.
func TestBatchAbortFlushesCheckpoints(t *testing.T) {
	const size = 3
	cfgs := batchLaneConfigs(t, "ECE15", size)

	br, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := br.Run(control.Batch(batchControllers(t, "onoff", size)))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	br2, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var flushed []*Checkpoint
	steps := 0
	_, err = br2.RunWith(control.Batch(batchControllers(t, "onoff", size)), BatchRunOptions{
		Context:         ctx,
		CheckpointEvery: 50,
		OnCheckpoint: func(lane int, ck *Checkpoint) error {
			if ck.Step >= 100 {
				flushed = append(flushed, ck)
			}
			if lane == size-1 && ck.Step == 100 {
				steps = ck.Step
				cancel()
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("canceled batch returned %v, want abort error", err)
	}
	// The drain flushes one extra checkpoint set at the abort step.
	if len(flushed) != 2*size {
		t.Fatalf("flushed %d checkpoints, want %d", len(flushed), 2*size)
	}
	resume := flushed[size:]
	if resume[0].Step != steps {
		t.Fatalf("drain checkpoint at step %d, want %d", resume[0].Step, steps)
	}

	br3, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := br3.RunWith(control.Batch(batchControllers(t, "onoff", size)), BatchRunOptions{Resume: resume})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		want, _ := json.Marshal(ref[i])
		got, _ := json.Marshal(res[i])
		if string(want) != string(got) {
			t.Errorf("lane %d: resume after abort diverges from uninterrupted run", i)
		}
	}
}

// TestNewBatchValidation pins the grouping preconditions: mismatched
// time grids, empty batches, and lane-count mismatches are rejected
// with diagnostics.
func TestNewBatchValidation(t *testing.T) {
	if _, err := NewBatch(nil); err == nil {
		t.Error("empty batch accepted")
	}
	cfgs := batchLaneConfigs(t, "ECE15", 2)

	slow := cfgs[1]
	slow.ControlDt = 2
	if _, err := NewBatch([]Config{cfgs[0], slow}); err == nil {
		t.Error("mismatched ControlDt accepted")
	}

	short := cfgs[1]
	short.Profile = cfgs[1].Profile.Truncate(120)
	if _, err := NewBatch([]Config{cfgs[0], short}); err == nil {
		t.Error("mismatched step count accepted")
	}

	br, err := NewBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Run(control.Batch(batchControllers(t, "onoff", 3))); err == nil {
		t.Error("lane-count mismatch accepted")
	}
}

// TestRunTracePreallocated pins the trace-regrowth fix: after a run,
// every trace column's capacity equals the step count — the per-step
// appends never regrew the preallocated slices.
func TestRunTracePreallocated(t *testing.T) {
	cfg := DefaultConfig(hotProfile().Truncate(200))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(control.NewOnOff(hvacModel(t)))
	if err != nil {
		t.Fatal(err)
	}
	n := len(res.Trace.Time)
	if n == 0 {
		t.Fatal("empty trace")
	}
	for name, c := range map[string]int{
		"Time":     cap(res.Trace.Time),
		"CabinC":   cap(res.Trace.CabinC),
		"OutsideC": cap(res.Trace.OutsideC),
		"MotorW":   cap(res.Trace.MotorW),
		"HeaterW":  cap(res.Trace.HeaterW),
		"CoolerW":  cap(res.Trace.CoolerW),
		"FanW":     cap(res.Trace.FanW),
		"HVACW":    cap(res.Trace.HVACW),
		"TotalW":   cap(res.Trace.TotalW),
		"SoC":      cap(res.Trace.SoC),
		"Inputs":   cap(res.Trace.Inputs),
	} {
		if c != n {
			t.Errorf("Trace.%s capacity %d != len %d: slice regrew or overallocated", name, c, n)
		}
	}
}

// TestRunAllocsBounded pins the allocation-free step loop: whole-run
// allocations stay O(1) (setup + result), not O(steps). Before the
// batched-core rework the 200-step loop allocated several slices and a
// closure per step (thousands per run).
func TestRunAllocsBounded(t *testing.T) {
	cfg := DefaultConfig(hotProfile().Truncate(200))
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewOnOff(hvacModel(t))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := r.Run(ctrl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 100 {
		t.Errorf("Run allocated %v objects for a 200-step profile; the step loop is allocating", allocs)
	}
}
