package ode

import (
	"math"
	"testing"
)

// expDecay: ẋ = −x, x(0)=1, exact x(t)=e^{−t}.
func expDecay(t float64, x, dxdt []float64) { dxdt[0] = -x[0] }

// harmonic: ẍ = −x as a 2-state system; exact x(t)=cos t with x(0)=1, v(0)=0.
func harmonic(t float64, x, dxdt []float64) {
	dxdt[0] = x[1]
	dxdt[1] = -x[0]
}

func TestRK4ExpDecayHighAccuracy(t *testing.T) {
	x, err := Integrate(expDecay, []float64{1}, 0, 1, 0.01, &RK4{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1)
	if math.Abs(x[0]-want) > 1e-9 {
		t.Errorf("rk4: x(1) = %v, want %v (err %v)", x[0], want, x[0]-want)
	}
}

// TestConvergenceOrders verifies RK4's empirical order of accuracy by
// halving the step and measuring the error ratio.
func TestConvergenceOrders(t *testing.T) {
	errAt := func(dt float64) float64 {
		x, err := Integrate(expDecay, []float64{1}, 0, 1, dt, &RK4{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return math.Abs(x[0] - math.Exp(-1))
	}
	// Halving dt divides a 4th-order method's error by 2⁴; accept a band.
	if ratio := errAt(0.02) / errAt(0.01); ratio < 14 || ratio > 18 {
		t.Errorf("rk4: error ratio %v outside [14, 18]", ratio)
	}
}

func TestHarmonicEnergyRK4(t *testing.T) {
	// Over one period the RK4 solution should return near the start and
	// conserve energy to high accuracy.
	x, err := Integrate(harmonic, []float64{1, 0}, 0, 2*math.Pi, 0.001, &RK4{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-8 || math.Abs(x[1]) > 1e-8 {
		t.Errorf("harmonic after one period: %v", x)
	}
}

func TestIntegrateObserverAndExactLanding(t *testing.T) {
	var times []float64
	_, err := Integrate(expDecay, []float64{1}, 0, 1, 0.3, &RK4{}, func(tt float64, x []float64) {
		times = append(times, tt)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Steps: 0, .3, .6, .9, 1.0 (last shortened).
	if len(times) != 5 {
		t.Fatalf("observer called %d times, want 5 (%v)", len(times), times)
	}
	if times[len(times)-1] != 1 {
		t.Errorf("did not land on t1 exactly: %v", times)
	}
}

func TestIntegrateRejectsBadArgs(t *testing.T) {
	if _, err := Integrate(expDecay, []float64{1}, 0, 1, -0.1, &RK4{}, nil); err == nil {
		t.Error("negative dt accepted")
	}
	if _, err := Integrate(expDecay, []float64{1}, 1, 0, 0.1, &RK4{}, nil); err == nil {
		t.Error("t1 < t0 accepted")
	}
}

func TestIntegrateDetectsBlowup(t *testing.T) {
	blowup := func(t float64, x, dxdt []float64) { dxdt[0] = x[0] * x[0] }
	// ẋ = x² with x(0)=1 blows up at t=1; crossing it must be detected.
	if _, err := Integrate(blowup, []float64{1}, 0, 2, 0.01, &RK4{}, nil); err == nil {
		t.Error("finite-time blowup not detected")
	}
}

func TestZeroSpanIntegration(t *testing.T) {
	x, err := Integrate(expDecay, []float64{5}, 2, 2, 0.1, &RK4{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 {
		t.Errorf("zero-span integration changed state: %v", x)
	}
}

func TestStepDoesNotAliasInput(t *testing.T) {
	x := []float64{1}
	next := []float64{0}
	(&RK4{}).Step(expDecay, 0, x, next, 0.1)
	if x[0] != 1 {
		t.Error("Step modified the input state")
	}
	if next[0] == 0 {
		t.Error("Step did not write the output state")
	}
}

func TestIntegratorMetadata(t *testing.T) {
	var i Integrator = &RK4{}
	if i.Name() != "rk4" {
		t.Errorf("metadata wrong for %T: %s", i, i.Name())
	}
}
