// Package ode provides the fixed-step classical Runge–Kutta integrator
// for ordinary differential equations. It plays the role of the Simulink /
// AMESim solver in the paper's co-simulation: the EV plant (power train,
// cabin thermal model, battery) is integrated with it at a finer time
// step than the model-predictive controller's sample period.
package ode

import (
	"fmt"
	"math"
)

// System is the right-hand side of an ODE ẋ = f(t, x). Implementations
// must write f(t, x) into dxdt (len(dxdt) == len(x)) and must not retain
// either slice.
type System func(t float64, x []float64, dxdt []float64)

// Integrator advances a state by one step of size dt.
type Integrator interface {
	// Step writes the state at t+dt into next, given state x at time t.
	// x and next must have equal length and may not alias.
	Step(sys System, t float64, x, next []float64, dt float64)
	// Name identifies the method ("rk4").
	Name() string
}

// RK4 is the classical fourth-order Runge–Kutta method.
type RK4 struct{ k1, k2, k3, k4, tmp []float64 }

// Name implements Integrator.
func (*RK4) Name() string { return "rk4" }

// Step implements Integrator.
func (r *RK4) Step(sys System, t float64, x, next []float64, dt float64) {
	n := len(x)
	if len(next) != n {
		panic("ode: state length mismatch")
	}
	r.k1 = resize(r.k1, n)
	r.k2 = resize(r.k2, n)
	r.k3 = resize(r.k3, n)
	r.k4 = resize(r.k4, n)
	r.tmp = resize(r.tmp, n)

	sys(t, x, r.k1)
	for i := 0; i < n; i++ {
		r.tmp[i] = x[i] + dt/2*r.k1[i]
	}
	sys(t+dt/2, r.tmp, r.k2)
	for i := 0; i < n; i++ {
		r.tmp[i] = x[i] + dt/2*r.k2[i]
	}
	sys(t+dt/2, r.tmp, r.k3)
	for i := 0; i < n; i++ {
		r.tmp[i] = x[i] + dt*r.k3[i]
	}
	sys(t+dt, r.tmp, r.k4)
	for i := 0; i < n; i++ {
		next[i] = x[i] + dt/6*(r.k1[i]+2*r.k2[i]+2*r.k3[i]+r.k4[i])
	}
}

func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Observer is called after every accepted step with the current time and
// state. The state slice is reused between calls; copy it to retain it.
type Observer func(t float64, x []float64)

// Integrate advances x0 from t0 to t1 with fixed step dt using integ,
// invoking obs (if non-nil) after every step, and returns the final state.
// The last step is shortened to land exactly on t1. It returns an error if
// the state becomes non-finite, which indicates a model or step-size
// problem in the plant.
func Integrate(sys System, x0 []float64, t0, t1, dt float64, integ Integrator, obs Observer) ([]float64, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("ode: step size %v must be positive", dt)
	}
	if t1 < t0 {
		return nil, fmt.Errorf("ode: t1 %v < t0 %v", t1, t0)
	}
	x := make([]float64, len(x0))
	next := make([]float64, len(x0))
	copy(x, x0)
	t := t0
	if obs != nil {
		obs(t, x)
	}
	for t < t1 {
		h := dt
		if t+h > t1 {
			h = t1 - t
		}
		if h <= 0 {
			break
		}
		integ.Step(sys, t, x, next, h)
		x, next = next, x
		t += h
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ode: non-finite state at t=%v", t)
			}
		}
		if obs != nil {
			obs(t, x)
		}
	}
	return x, nil
}
