// Benchmarks regenerating the paper's evaluation, one per figure/table.
//
// The figure/table benches run the same harnesses as cmd/evbench but on
// profiles truncated to benchProfileS seconds so `go test -bench=.`
// completes in minutes; run `evbench` for the full-length reproduction.
// Reported custom metrics carry the headline quantities (average HVAC
// power, ΔSoH improvement) so regressions in the *result*, not just the
// runtime, are visible.
package evclimate_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
	"evclimate/internal/experiments"
	"evclimate/internal/mat"
	"evclimate/internal/powertrain"
	"evclimate/internal/qp"
	"evclimate/internal/runner"
	"evclimate/internal/sim"
	"evclimate/internal/sqp"
)

// benchProfileS truncates drive profiles for the figure benchmarks.
const benchProfileS = 200

func benchOpts() experiments.Options {
	return experiments.Options{MaxProfileS: benchProfileS}
}

func BenchmarkFig1PowerBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig1(experiments.Fig1Config{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// EV HVAC share at the coldest ambient (paper: up to 20 %).
			b.ReportMetric(rows[0].EVHVACPct, "EVHVAC%@-10C")
			b.ReportMetric(rows[len(rows)-1].ICEHVACPct, "ICEHVAC%@40C")
		}
	}
}

func BenchmarkFig5CabinTemperature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		traces, err := experiments.Fig5(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, t := range traces {
				if t.Name == experiments.NameOnOff {
					b.ReportMetric(t.TemperatureRippleC(60), "OnOffRippleC")
				}
				if t.Name == experiments.NameMPC {
					b.ReportMetric(t.RMSTrackingErrC, "MPCRmsC")
				}
			}
		}
	}
}

func BenchmarkFig6Precool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			peak, valley := experiments.PeakValleyHVAC(pts)
			b.ReportMetric(valley-peak, "precoolShiftW")
		}
	}
}

func benchCycles(b *testing.B) []experiments.CycleResult {
	b.Helper()
	cycles, err := experiments.RunCycles(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return cycles
}

func BenchmarkFig7BatteryLifetime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cycles := benchCycles(b)
		rows := experiments.Fig7(cycles)
		if i == 0 {
			// On truncated profiles the On/Off reference idles, so the
			// vs-On/Off ratio is meaningless here; report the raw MPC and
			// fuzzy degradations instead (the full ratios come from
			// evbench). Lower is better.
			var mpc, fz float64
			for _, c := range cycles {
				mpc += c.Results[experiments.NameMPC].DeltaSoH
				fz += c.Results[experiments.NameFuzzy].DeltaSoH
			}
			n := float64(len(cycles))
			b.ReportMetric(mpc/n, "MPCdSoH%")
			b.ReportMetric(fz/n, "FuzzydSoH%")
			_ = rows
		}
	}
}

func BenchmarkFig8HVACPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig8(benchCycles(b))
		if i == 0 {
			var mpc, fz float64
			for _, r := range rows {
				mpc += r.MPCKW
				fz += r.FuzzyKW
			}
			n := float64(len(rows))
			b.ReportMetric(mpc/n, "MPCkW")
			b.ReportMetric(fz/n, "FuzzykW")
		}
	}
}

func BenchmarkTable1AmbientAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Two representative rows (hot and cold) keep the bench tractable;
		// evbench runs all six ambients.
		rows, err := experiments.Table1(benchOpts(), []float64{35, 0})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].MPCKW, "MPCkW@35C")
			b.ReportMetric(rows[1].MPCKW, "MPCkW@0C")
		}
	}
}

// --- Component micro-benchmarks ---

func BenchmarkMPCSolveStep(b *testing.B) {
	mpc, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	ctx := control.StepContext{
		Dt: 5, CabinTempC: 25, OutsideC: 35, SolarW: 400,
		MotorPowerW: 10e3, SoC: 85, TargetC: 24,
		ComfortLowC: 21, ComfortHighC: 27,
	}
	mpc.Decide(ctx) // size the solver arena; steady state is the regime of interest
	benchDecide(b, mpc, ctx)
}

// benchDecide times b.N steady-state decides and reports two host-free
// work counts per decide inside the timed window: qpiters/op, the
// interior-point iterations (control.SolveInfo), and capped/op, the QP
// subproblems that ended at the iteration cap (core.Stats). A capped QP
// costs the full iteration budget, so a reading with a nonzero count is
// not comparable to one without. Every op is the same decide: the
// controller's state after the sizing decide is restored, untimed,
// before each one, so the warm start does not drift with b.N.
func benchDecide(b *testing.B, mpc *core.Controller, ctx control.StepContext) {
	snap, err := mpc.StateSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	// One untimed op grows the buffers sized by the op's own sparsity.
	mpc.Decide(ctx)
	before := mpc.Stats().CappedQPs
	qpIters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := mpc.RestoreState(snap); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		mpc.Decide(ctx)
		qpIters += mpc.LastSolve().QPIterations
	}
	b.StopTimer()
	b.ReportMetric(float64(mpc.Stats().CappedQPs-before)/float64(b.N), "capped/op")
	b.ReportMetric(float64(qpIters)/float64(b.N), "qpiters/op")
}

// BenchmarkMPCSolveStepThermal is the co-scheduling counterpart of
// BenchmarkMPCSolveStep: the same steady-state solve with the battery-
// thermal extension enabled, so the enlarged per-stage decision stride
// (pack state + heater/chiller channels) is gated alongside the paper's
// cabin-only stride. The context is a deep-cold drive with a soaked
// pack — the regime where every thermal constraint row is active.
func BenchmarkMPCSolveStepThermal(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Thermal = core.DefaultThermalOptions()
	mpc, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := control.StepContext{
		Dt: 5, CabinTempC: -15, OutsideC: -20, SolarW: 0,
		MotorPowerW: 10e3, SoC: 85, TargetC: 22,
		ComfortLowC: 19, ComfortHighC: 25,
		PackTempC: -18, PackThermal: true,
	}
	mpc.Decide(ctx)
	benchDecide(b, mpc, ctx)
}

// BenchmarkQPInteriorPoint measures solves through a workspace pre-sized
// with qp.NewWorkspaceFor before the first Solve. (core.Controller does
// not pre-size: its SQP workspace sizes the QP arena lazily on the first
// control step.) Pre-sizing moves every buffer acquisition out of Solve,
// so the allocs/op column must stay at zero (it used to read 24 allocs /
// 82 KB per solve when this bench let Solve size a fresh arena lazily).
func BenchmarkQPInteriorPoint(b *testing.B) {
	n := 60
	h := mat.Identity(n)
	c := make([]float64, n)
	for i := range c {
		c[i] = -float64(i%7) - 1.5
	}
	ain := qp.NewStageMatrix(1, n, 0, 2*n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 2
		ain.Set(n+i, i, -1)
	}
	p := &qp.Problem{H: []*mat.Dense{h}, C: c, Ain: ain, Bin: bin}
	opt := qp.Options{Work: qp.NewWorkspaceFor(p)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQPInteriorPointWarm is the workspace-reuse counterpart of
// BenchmarkQPInteriorPoint: identical problem, but repeated solves share
// one qp.Workspace the way the SQP loop does. The B/op and allocs/op
// columns are the point — they must stay at zero.
func BenchmarkQPInteriorPointWarm(b *testing.B) {
	n := 60
	h := mat.Identity(n)
	c := make([]float64, n)
	for i := range c {
		c[i] = -float64(i%7) - 1.5
	}
	ain := qp.NewStageMatrix(1, n, 0, 2*n)
	bin := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		ain.Set(i, i, 1)
		bin[i] = 2
		ain.Set(n+i, i, -1)
	}
	p := &qp.Problem{H: []*mat.Dense{h}, C: c, Ain: ain, Bin: bin}
	opt := qp.Options{Work: qp.NewWorkspace()}
	if _, err := qp.Solve(p, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// stageBenchQP builds a stage QP with the MPC subproblem's shape — 12
// stages of 7 variables, 3 equality and 14 inequality rows per stage,
// block-diagonal Hessian — from deterministic pseudo-random data, with
// rows coupling whole stages (state width nx = nv, where the MPC's is 1).
// Used by the stage-vs-one-stage pair below.
func stageBenchQP() *qp.Problem {
	const nst, nv, ne, ni = 12, 7, 3, 14
	val := func(i, j int) float64 { return float64((i*37+j*17)%23)/23 - 0.5 }
	h := make([]*mat.Dense, nst)
	for k := range h {
		h[k] = mat.NewDense(nv, nv)
		o := k * nv
		for i := 0; i < nv; i++ {
			for j := 0; j < nv; j++ {
				var acc float64
				for l := 0; l < nv; l++ {
					acc += val(o+i, l) * val(o+j, l)
				}
				if i == j {
					acc += 2
				}
				h[k].Set(i, j, acc)
			}
		}
	}
	c := make([]float64, nst*nv)
	for i := range c {
		c[i] = val(i, i+1)
	}
	aeq := qp.NewStageMatrix(nst, nv, nv, ne)
	beq := make([]float64, nst*ne)
	for row := range beq {
		lo, v := aeq.Row(row)
		for j := range v {
			aeq.Set(row, lo+j, val(row, lo+j))
		}
		beq[row] = 0.05 * val(row, 0)
	}
	ain := qp.NewStageMatrix(nst, nv, nv, ni)
	bin := make([]float64, nst*ni)
	for k := 0; k < nst; k++ {
		o := k * nv
		for i := 0; i < nv; i++ {
			ain.Set(k*ni+i, o+i, 1)
			bin[k*ni+i] = 2
			ain.Set(k*ni+nv+i, o+i, -1)
			bin[k*ni+nv+i] = 2
		}
	}
	return &qp.Problem{H: h, C: c, Aeq: aeq, Beq: beq, Ain: ain, Bin: bin}
}

// BenchmarkQPStructured and BenchmarkQPStructuredDense solve the same
// MPC-shaped stage QP in its stage layout and in its one-stage form, a
// single dense block the recursion factors as one stage; their ratio is
// the per-solve win of exploiting the horizon structure (the end-to-end
// controller win is BenchmarkMPCSolveStep's).
func BenchmarkQPStructured(b *testing.B) {
	p := stageBenchQP()
	opt := qp.Options{Work: qp.NewWorkspaceFor(p)}
	if _, err := qp.Solve(p, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQPStructuredDense(b *testing.B) {
	p := stageBenchQP().OneStage()
	opt := qp.Options{Work: qp.NewWorkspaceFor(p)}
	if _, err := qp.Solve(p, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQPColdFixture solves the pinned deep-cold cabin MPC
// subproblem (internal/qp/testdata/cold_mpc_demotion.json, one of the
// soaked cold grid's hardest QPs: it runs all 60 interior-point
// iterations) through the stage backend, at the state width the cabin
// MPC declares.
func BenchmarkQPColdFixture(b *testing.B) {
	raw, err := os.ReadFile("internal/qp/testdata/cold_mpc_demotion.json")
	if err != nil {
		b.Fatal(err)
	}
	var f struct {
		Stages, NV, NE, NI int
		Tol                float64
		H, Aeq, Ain        [][]float64
		C, Beq, Bin        []float64
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		b.Fatal(err)
	}
	// The fixture stores rows over all of stages k−1..k; keep the
	// trailing window of each.
	rows := func(per int, data [][]float64) *qp.StageMatrix {
		a := qp.NewStageMatrix(f.Stages, f.NV, 1, per)
		for i, v := range data {
			lo, row := a.Row(i)
			for j, x := range v[len(v)-len(row):] {
				a.Set(i, lo+j, x)
			}
		}
		return a
	}
	p := &qp.Problem{C: f.C, Aeq: rows(f.NE, f.Aeq), Beq: f.Beq, Ain: rows(f.NI, f.Ain), Bin: f.Bin}
	for _, v := range f.H {
		p.H = append(p.H, mat.NewDenseData(f.NV, f.NV, v))
	}
	opt := qp.Options{Tol: f.Tol, Work: qp.NewWorkspaceFor(p)}
	if _, err := qp.Solve(p, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSQPSolveWarm measures a full warm SQP solve (HS71-style
// bilinear NLP with analytic derivatives) through a reused workspace —
// the shape of work one MPC step performs.
func BenchmarkSQPSolveWarm(b *testing.B) {
	p := &sqp.Problem{
		N: 4,
		Objective: func(x []float64) float64 {
			return x[0]*x[3]*(x[0]+x[1]+x[2]) + x[2]
		},
		Gradient: func(x, g []float64) {
			g[0] = x[3] * (2*x[0] + x[1] + x[2])
			g[1] = x[0] * x[3]
			g[2] = x[0]*x[3] + 1
			g[3] = x[0] * (x[0] + x[1] + x[2])
		},
		MEq: 1,
		Eq: func(x, out []float64) {
			out[0] = x[0]*x[0] + x[1]*x[1] + x[2]*x[2] + x[3]*x[3] - 40
		},
		EqJac: func(x []float64, jac *qp.StageMatrix) {
			for i := 0; i < 4; i++ {
				jac.Set(0, i, 2*x[i])
			}
		},
		MIneq: 9,
		Ineq: func(x, out []float64) {
			out[0] = 25 - x[0]*x[1]*x[2]*x[3]
			for i := 0; i < 4; i++ {
				out[1+i] = 1 - x[i]
				out[5+i] = x[i] - 5
			}
		},
		IneqJac: func(x []float64, jac *qp.StageMatrix) {
			jac.Set(0, 0, -x[1]*x[2]*x[3])
			jac.Set(0, 1, -x[0]*x[2]*x[3])
			jac.Set(0, 2, -x[0]*x[1]*x[3])
			jac.Set(0, 3, -x[0]*x[1]*x[2])
			for i := 0; i < 4; i++ {
				jac.Set(1+i, i, -1)
				jac.Set(5+i, i, 1)
			}
		},
	}
	x0 := []float64{1, 5, 5, 1}
	opt := sqp.Options{MaxIter: 200, Work: sqp.NewWorkspace()}
	if _, err := sqp.Solve(p, x0, opt); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqp.Solve(p, x0, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPowertrainCycle(b *testing.B) {
	m, err := powertrain.New(powertrain.NissanLeaf())
	if err != nil {
		b.Fatal(err)
	}
	p := drivecycle.NEDC().Profile(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PowerProfile(p)
	}
}

func BenchmarkCoSimOnOff(b *testing.B) {
	p := drivecycle.ECE15().Profile(1).WithAmbient(35).WithSolar(400)
	cfg := sim.DefaultConfig(p)
	r, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	hvac, err := cabin.New(cfg.Cabin)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := control.NewOnOff(hvac)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(ctrl); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §7) ---

func BenchmarkAblateHorizon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblateHorizon(benchOpts(), []int{8, 20})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[1].SolveTimeMs, "ms/solve@N=20")
			b.ReportMetric(rows[1].DeltaSoH-rows[0].DeltaSoH, "dSoH(N20-N8)")
		}
	}
}

func BenchmarkAblateSoCDevWeight(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblateSoCDevWeight(benchOpts(), []float64{0, 50})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// The battery-lifetime term's effect on SoC deviation
			// (negative = the w2 term flattens the trajectory).
			b.ReportMetric(rows[1].SoCDev-rows[0].SoCDev, "socDev(w2on-off)")
		}
	}
}

func BenchmarkAblateSQPBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblateSQPBudget(benchOpts(), []int{1, 30})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].RMSTrackingErrC, "rmsC@singleQP")
			b.ReportMetric(rows[1].RMSTrackingErrC, "rmsC@sqp30")
		}
	}
}

func BenchmarkAblateControlPeriod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblateControlPeriod(benchOpts(), []float64{2, 10})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].RMSTrackingErrC, "rmsC@2s")
			b.ReportMetric(rows[1].RMSTrackingErrC, "rmsC@10s")
		}
	}
}

// sweepSpec16 is a 16-scenario grid (4 ambients × 2 solar loads × 2
// targets, On/Off thermostat) over a truncated ECE_EUDC — the workload
// for the worker-scaling benchmarks below.
func sweepSpec16() runner.Spec {
	return runner.Spec{
		Controllers: []runner.ControllerSpec{runner.OnOffSpec(1)},
		Cycles:      []runner.CycleSpec{{Name: "ECE_EUDC"}},
		Envs: []runner.Env{
			{AmbientC: 0}, {AmbientC: 0, SolarW: 400},
			{AmbientC: 15}, {AmbientC: 15, SolarW: 400},
			{AmbientC: 25}, {AmbientC: 25, SolarW: 400},
			{AmbientC: 35}, {AmbientC: 35, SolarW: 400},
		},
		Targets:     []float64{22, 26},
		MaxProfileS: benchProfileS,
	}
}

func benchSweep(b *testing.B, workers, batchSize int) {
	b.Helper()
	spec := sweepSpec16()
	for i := 0; i < b.N; i++ {
		sw, err := runner.Run(context.Background(), spec, runner.Options{Workers: workers, BatchSize: batchSize})
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.FirstErr(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(16/b.Elapsed().Seconds()*float64(b.N), "scenarios/s")
}

// BenchmarkSweep16Sequential and BenchmarkSweep16Parallel measure the
// sweep engine's default path on the same 16-scenario grid with one
// worker and with one worker per CPU; their ratio is the parallel
// speedup (≈ 1 on a single-core host, approaching min(16, NumCPU)
// otherwise). The default path batches eligible jobs (Options.BatchSize
// 0 → 16-lane SoA batches), which is where single-core throughput comes
// from.
func BenchmarkSweep16Sequential(b *testing.B) { benchSweep(b, 1, 0) }

func BenchmarkSweep16Parallel(b *testing.B) { benchSweep(b, runtime.NumCPU(), 0) }

// BenchmarkSweepScalar and BenchmarkSweepBatch pin 16-lane units
// against one 1-lane unit per job on the same grid at real core count;
// their ratio is the many-vehicle batching win. BenchmarkSweepBatch is
// regression-gated (Makefile bench-gate) so the sweep cannot quietly
// fall back to one-lane throughput.
func BenchmarkSweepScalar(b *testing.B) { benchSweep(b, runtime.NumCPU(), -1) }

func BenchmarkSweepBatch(b *testing.B) { benchSweep(b, runtime.NumCPU(), runner.DefaultBatchSize) }

// BenchmarkJournalAppend journals one fleet-commute record per
// iteration — the On/Off run of the Monte-Carlo fleet's trip fleet-4 at
// seed 3, 1323 control steps with its full trace, as the pool journals
// it — through Journal.Append: the record's JSON encoding (the trace in
// its packed form) and the write. Fsync runs only at close, so the
// disk's sync latency does not swamp the encoding; MB/s counts journal
// bytes.
func BenchmarkJournalAppend(b *testing.B) {
	spec, err := experiments.FleetSpec(map[string]string{"trips": "12", "seed": "3", "max_s": "0"})
	if err != nil {
		b.Fatal(err)
	}
	jobs, err := runner.Expand(spec)
	if err != nil {
		b.Fatal(err)
	}
	job := []runner.Job{jobs[8]}
	var rec *runner.JournalRecord
	if _, err := runner.RunJobs(context.Background(), job, runner.Options{
		Workers:  1,
		OnRecord: func(r *runner.JournalRecord) { rec = r },
	}); err != nil {
		b.Fatal(err)
	}
	if rec == nil || rec.Result == nil || len(rec.Result.Trace.Time) != 1323 {
		b.Fatalf("record %+v is not the 1323-step commute", rec)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(line) + 1))

	dir := b.TempDir()
	open := func() *runner.Journal {
		jnl, err := runner.OpenJournal(&runner.JournalConfig{Dir: dir, FsyncEvery: 1 << 30, Git: "bench"}, "bench", runner.Fingerprints(job))
		if err != nil {
			b.Fatal(err)
		}
		return jnl
	}
	jnl := open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%64 == 0 {
			// Start a fresh file now and then so the run's disk use
			// stays bounded.
			b.StopTimer()
			if err := jnl.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.Remove(jnl.Path()); err != nil {
				b.Fatal(err)
			}
			jnl = open()
			b.StartTimer()
		}
		if err := jnl.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := jnl.Close(); err != nil {
		b.Fatal(err)
	}
}
