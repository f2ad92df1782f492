package sim

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"evclimate/internal/control"
	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
	"evclimate/internal/thermal"
)

// coldThermalConfig assembles a cold-climate run: ECE15 at the given
// ambient, no solar, pack soaked overnight at ambient, MPC-rate control.
func coldThermalConfig(ambientC float64) Config {
	prof := drivecycle.ECE15().Profile(1).WithAmbient(ambientC)
	cfg := DefaultConfig(prof)
	cfg.ControlDt = core.DefaultConfig().Dt
	cfg.ForecastSteps = core.DefaultConfig().Horizon
	cfg.UseAmbientStart = true
	th := thermal.DefaultThermal()
	cfg.Thermal = &th
	return cfg
}

// thermalMPC builds the co-scheduling MPC matching the sim-side network.
func thermalMPC(t *testing.T) control.Controller {
	t.Helper()
	ccfg := core.DefaultConfig()
	ccfg.Thermal = core.DefaultThermalOptions()
	c, err := core.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestThermalColdEndToEnd drives the co-scheduling MPC through a −20 °C
// soak (PTC regime) and a −10 °C one (heat-pump regime) and checks the
// thermal plant's observable behavior: the pack warms off its soak
// temperature, the aging metrics populate, the network's energy ledger
// closes, and the heating mode matches the ambient.
func TestThermalColdEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		ambientC float64
		wantPTC  bool
	}{
		{-20, true},
		{-10, false},
	} {
		cfg := coldThermalConfig(tc.ambientC)
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(thermalMPC(t))
		if err != nil {
			t.Fatal(err)
		}
		tr := &res.Trace
		if len(tr.PackC) != len(tr.CabinC) {
			t.Fatalf("%g °C: PackC trace length %d != %d", tc.ambientC, len(tr.PackC), len(tr.CabinC))
		}
		// The pack must warm off its overnight soak: battery heater plus
		// Joule self-heating both push it up.
		if res.PackFinalC <= tc.ambientC {
			t.Errorf("%g °C: pack never warmed: final %.2f °C", tc.ambientC, res.PackFinalC)
		}
		if res.PackMinC < tc.ambientC-0.5 {
			t.Errorf("%g °C: pack dropped below soak: min %.2f °C", tc.ambientC, res.PackMinC)
		}
		if res.PackMeanC <= res.PackMinC || res.PackMeanC >= 40 {
			t.Errorf("%g °C: implausible mean pack temperature %.2f °C", tc.ambientC, res.PackMeanC)
		}
		if res.CalendarDeltaSoH <= 0 {
			t.Errorf("%g °C: calendar aging did not accrue: %v", tc.ambientC, res.CalendarDeltaSoH)
		}
		if res.DeltaSoH <= 0 {
			t.Errorf("%g °C: cycle aging did not accrue: %v", tc.ambientC, res.DeltaSoH)
		}
		// Conservation: the network's closing ledger defect is roundoff on
		// megajoule-scale enthalpy flows.
		if math.Abs(res.ThermalEnergyDefectJ) > 1e-3 {
			t.Errorf("%g °C: thermal energy defect %v J", tc.ambientC, res.ThermalEnergyDefectJ)
		}
		switch {
		case tc.wantPTC && res.HeatPumpFrac != 0:
			t.Errorf("%g °C: below cutoff but heat pump served %.0f%% of heating steps",
				tc.ambientC, 100*res.HeatPumpFrac)
		case !tc.wantPTC && res.HeatPumpFrac != 1:
			t.Errorf("%g °C: above cutoff but PTC served %.0f%% of heating steps",
				tc.ambientC, 100*(1-res.HeatPumpFrac))
		case !tc.wantPTC && res.AvgCOP <= 1:
			t.Errorf("%g °C: heat-pump average conversion %.2f not better than resistive",
				tc.ambientC, res.AvgCOP)
		}
		// The cabin must still warm at full heating rate despite the pack
		// drawing shared heat. ECE15 is only 195 s — far less than the
		// cabin's thermal time constant — so the check is a warming rate,
		// not band entry.
		if final := tr.CabinC[len(tr.CabinC)-1]; final < tc.ambientC+5 {
			t.Errorf("%g °C: final cabin %.2f °C barely warmed", tc.ambientC, final)
		}
	}
}

// TestThermalCheckpointResumeBitExact extends the checkpoint property pin
// to thermal runs: snapshotting a cold co-scheduling run at a random
// step, JSON round-tripping, and resuming on fresh instances reproduces
// the remaining trajectory — including the pack temperature and aging
// accumulators — bit for bit.
func TestThermalCheckpointResumeBitExact(t *testing.T) {
	cfg := coldThermalConfig(-20)
	cfg.Profile = cfg.Profile.Truncate(180)
	steps := int(cfg.Profile.Duration() / cfg.ControlDt)
	rng := rand.New(rand.NewSource(20260808))
	at := 1 + rng.Intn(steps-1)

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ckBytes []byte
	ref, err := r.RunWith(thermalMPC(t), RunOptions{
		CheckpointEvery: at,
		OnCheckpoint: func(ck *Checkpoint) error {
			if ckBytes == nil {
				if ck.Thermal == nil {
					t.Error("thermal run checkpoint has no thermal state")
				}
				ckBytes, err = json.Marshal(ck)
				return err
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ckBytes == nil {
		t.Fatalf("no checkpoint emitted at step %d of %d", at, steps)
	}

	var ck Checkpoint
	if err := json.Unmarshal(ckBytes, &ck); err != nil {
		t.Fatal(err)
	}
	r2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.RunWith(thermalMPC(t), RunOptions{Resume: &ck})
	if err != nil {
		t.Fatalf("resume from step %d/%d: %v", at, steps, err)
	}
	refJSON, _ := json.Marshal(ref)
	resJSON, _ := json.Marshal(res)
	if string(refJSON) != string(resJSON) {
		t.Errorf("thermal resume from step %d/%d diverges from uninterrupted run", at, steps)
	}

	// A thermal checkpoint cannot resume a non-thermal run and vice versa.
	plain := cfg
	plain.Thermal = nil
	r3, err := New(plain)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r3.RunWith(thermalMPC(t), RunOptions{Resume: &ck}); err == nil {
		t.Error("thermal checkpoint resumed a run without a thermal network")
	}
}

// thermalTrajectoryHash pins the co-scheduling MPC's full closed-loop
// cold trajectory on ECE15 at −20 °C bitwise: per control step the four
// HVAC inputs, the two battery-branch commands, the cabin temperature,
// and the pack temperature. Computed on linux/amd64 (no FMA fusion; see
// mpcTrajectoryHash). Regenerate with -run TestThermalTrajectoryBitwise
// -v after an intended solver or model change.
//
// Re-pinned with mpcTrajectoryHash, for the same cause (stage KKT as a
// Riccati recursion over the (x, Tb) state; Newton steps equal the
// dense reference's to roundoff). Observed: battery heater command by
// up to 7.4 W and supply temperature by up to 10.6 K where the coil is
// idle, cabin and pack temperatures by at most 0.0003 K; AvgHVACW
// 6032.87 → 6033.53 W against 6033.30 W on the previous solver's dense
// path. The old solve demoted 205 QP subproblems here, the new one none.
//
// Re-pinned when C2's comfort rows became soft (see mpcTrajectoryHash).
// From this −20 °C soak the hard funnel was out of reach: 31 of 39
// decides stalled on infeasible subproblems and took 11,174 KKT
// factorizations. With the slack all 39 converge on 786, and the plan is
// the least-violation one rather than a stalled iterate. Observed:
// battery heater command by up to 1415 W, supply temperature by up to
// 36 K and recirculation by up to 0.38 at individual steps, cabin
// temperature by at most 0.28 K and pack temperature by at most 0.72 K;
// AvgHVACW 6033.53 → 6021.85 W, cycle ΔSoH 0.0072417 → 0.0070806 %.
//
// Re-pinned with mpcTrajectoryHash, for the same cause (the second-order
// correction of sqp's line search). All 39 decides still converge, on
// 3.6 SQP iterations instead of 3.2, 8 of them through the correction;
// KKT factorizations 786 → 1102. Observed: battery heater command by up
// to 3084 W and recirculation by up to 0.38 at individual steps, coil
// temperature by up to 2.6 K, cabin temperature by at most 0.20 K and
// pack temperature by at most 0.23 K; AvgHVACW 6021.85 → 6080.27 W,
// cycle ΔSoH 0.0070806 → 0.0070846 %.
//
// Re-pinned with mpcTrajectoryHash, for the same cause (the stage KKT's
// solve reusing the stored Riccati factors). Roundoff only: battery
// heater command by up to 2.2e-9 W, supply temperature by 1.2e-11 K,
// cabin and pack temperature by under 1e-13 K; SQP iterations, the 1102
// KKT factorizations, AvgHVACW and ΔSoH unchanged.
const thermalTrajectoryHash = 0x1796709701e35c89

// TestThermalTrajectoryBitwiseGolden pins the cold co-scheduling
// trajectory bitwise, the thermal counterpart of the cabin-only pin.
func TestThermalTrajectoryBitwiseGolden(t *testing.T) {
	cfg := coldThermalConfig(-20)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(thermalMPC(t))
	if err != nil {
		t.Fatal(err)
	}
	tr := &res.Trace
	if len(tr.Inputs) == 0 || len(tr.Inputs) != len(tr.PackC) {
		t.Fatalf("trace shape: %d inputs, %d pack temps", len(tr.Inputs), len(tr.PackC))
	}
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	for i, in := range tr.Inputs {
		h = fnv1a64(h, []float64{
			in.SupplyTempC, in.CoilTempC, in.Recirc, in.AirFlowKgS,
			in.BattHeatW, in.BattChillW, tr.CabinC[i], tr.PackC[i],
		})
	}
	if h != thermalTrajectoryHash {
		t.Fatalf("thermal MPC/ECE15@-20 trajectory hash = %#016x, golden %#016x (%d steps)",
			h, uint64(thermalTrajectoryHash), len(tr.Inputs))
	}
}
