package sim

import (
	"math"
	"testing"

	"evclimate/internal/core"
	"evclimate/internal/drivecycle"
)

// fnv1a64 folds a float64 sequence into an FNV-1a hash of the IEEE-754
// bit patterns. Any single-bit change anywhere in the trajectory changes
// the digest.
func fnv1a64(h uint64, vals []float64) uint64 {
	const prime = 1099511628211
	for _, v := range vals {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// mpcTrajectoryHash is the FNV-1a digest of the MPC controller's full
// closed-loop trajectory on ECE15 (hot soak, 35 °C / 400 W solar):
// per control step, the four applied HVAC inputs followed by the cabin
// temperature. Computed on linux/amd64; Go does not fuse multiply-adds
// on amd64, so the pin is stable across amd64 hosts. Regenerate (run
// with -run TestMPCTrajectoryBitwiseGolden -v after an intended solver
// or model change) rather than loosening — this pin exists to catch
// *unintended* bit drift in the stage-structured solve path, which the
// tolerance-based goldens in internal/runner cannot see.
//
// Re-pinned when the stage KKT became a Riccati recursion over the stage
// state (two Cholesky factorizations per stage in place of a block LDLᵀ
// of the interleaved KKT matrix): the Newton steps agree with the dense
// reference to roundoff, but every QP of this soaked pull-down stops at
// its iteration limit, so roundoff seeds visibly different iterates.
// Observed: inputs differ from the first step (supply/coil temperature
// by up to 10.4 K where the coil is idle, flow by up to 0.065 kg/s),
// cabin temperature by at most 0.11 K; AvgHVACW 6047.8 → 6142.7 W and
// ΔSoH 0.0048926 → 0.0048920 %, against 6142.0 W and 0.0048920 % when
// the previous solver took the dense path on every QP.
//
// Re-pinned when C2's comfort rows became soft (one slack per stage,
// priced linearly): the stage gains a variable and two rows gain a
// Jacobian entry, so the BFGS blocks and QP iterates differ from the
// first decide. With hard rows 38 of the 39 decides stalled; now 38
// converge and none stalls, and the KKT factorizations fall 6540 → 1168.
// Observed: supply/coil temperature by up to 7.3 K where the coil is
// idle, flow by up to 0.061 kg/s, cabin temperature by at most 0.00026 K;
// AvgHVACW 6142.72 → 6147.15 W (+0.07 %), ΔSoH 0.00489196 → 0.00489194 %.
//
// Re-pinned when sqp gained the second-order correction (core's forward
// simulation of its prediction model, Problem.Restore). Before it, the
// warm-started decides of this pull-down stopped after 3 SQP iterations
// at the merit-stagnation exit with plans costing ≈24,800, most of it
// comfort slack; now unit steps are taken down to plans costing ≈4,800
// (11.9 iterations per decide, 34 converged, 4 stalled). The first QP
// of each such decide ends at the 60-iteration cap: the cooler is
// saturated, so the shifted last stage can only meet its comfort row
// through the slack, and the BFGS seed's curvature on the slack puts the
// QP's multipliers near 1e7. KKT factorizations 1168 → 7123, capped QPs
// 0 → 33. Observed: supply/coil temperature by up to 5.1 K, flow by up
// to 0.030 kg/s, cabin temperature by at most 0.00011 K; AvgHVACW
// 6147.15 → 6145.67 W, ΔSoH 0.00489194 → 0.00489193 %.
//
// Re-pinned when the stage KKT's solve began to reuse the stored Riccati
// factors Q and R (one triangular sweep per stage and direction instead
// of two): the same Newton steps in a different arithmetic order. The
// trajectory moves at roundoff — supply/coil temperature by up to
// 2.6e-7 K, recirculation by 3.7e-9, flow by 1.4e-9 kg/s, cabin
// temperature by 1.2e-10 K; AvgHVACW and ΔSoH agree to 10 digits — but
// the capped first QPs of the saturated decides end at other iterates:
// 37 decides converge and 1 stalls (was 34 and 4), KKT factorizations
// 7123 → 7264, capped QPs 33 → 35.
//
// Re-pinned when the cabin-only MPC began to carry every decide after
// its first, each a two-iteration real-time iteration from the shifted
// plan re-simulated from the measured cabin temperature. This soaked
// pull-down's plans lean on the comfort slack, so before, each of its
// decides was a full solve from the scaled-identity seed; now 38 of the
// 39 are carried. SQP iterations 464 → 106, KKT factorizations
// 7264 → 1323, capped QPs 35 → 0; the first decide runs to its 30-
// iteration cap and none converges or stalls (was 37 and 1). Observed:
// supply/coil temperature by up to 7.8 K where the coil is idle,
// recirculation by up to 0.26, flow by up to 0.049 kg/s, cabin
// temperature by at most 0.0027 K; AvgHVACW 6145.67 → 6146.14 W,
// ΔSoH 0.00489193 → 0.00489193 %.
const mpcTrajectoryHash = 0x926ccce3c7fc6424

// TestMPCTrajectoryBitwiseGolden pins the MPC/ECE15 trajectory bitwise.
func TestMPCTrajectoryBitwiseGolden(t *testing.T) {
	mpc, err := core.New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof := drivecycle.ECE15().Profile(1).WithAmbient(35).WithSolar(400)
	cfg := DefaultConfig(prof)
	cfg.ControlDt = core.DefaultConfig().Dt
	cfg.ForecastSteps = core.DefaultConfig().Horizon
	cfg.UseAmbientStart = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(mpc)
	if err != nil {
		t.Fatal(err)
	}
	tr := &res.Trace
	if len(tr.Inputs) == 0 || len(tr.Inputs) != len(tr.CabinC) {
		t.Fatalf("trace shape: %d inputs, %d temps", len(tr.Inputs), len(tr.CabinC))
	}
	const offset64 = 14695981039346656037
	h := uint64(offset64)
	for i, in := range tr.Inputs {
		h = fnv1a64(h, []float64{
			in.SupplyTempC, in.CoilTempC, in.Recirc, in.AirFlowKgS, tr.CabinC[i],
		})
	}
	if h != mpcTrajectoryHash {
		t.Fatalf("MPC/ECE15 trajectory hash = %#016x, golden %#016x (%d steps)",
			h, uint64(mpcTrajectoryHash), len(tr.Inputs))
	}
	// The KKT counts are as deterministic as the trajectory.
	if st := mpc.Stats(); st.KKTFactorizations != 1323 || st.CappedQPs != 0 {
		t.Fatalf("KKT counts: %d factorizations, %d capped QPs; golden 1323 and 0", st.KKTFactorizations, st.CappedQPs)
	}
}
