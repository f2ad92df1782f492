package drivecycle

import (
	"math"
	"testing"
)

// TestEnvSamplerMatchesAt pins the environment sampling path the plant
// ODE reads: EnvAt returns exactly the bits Profile.At reports for the
// two environment fields, on constant, varying, and non-uniform
// profiles, including times before, inside (on- and off-sample), and
// past the span; ConstantEnv detects the constant profile and returns
// those same bits.
func TestEnvSamplerMatchesAt(t *testing.T) {
	constant := ECE15().Profile(1).WithAmbient(35).WithSolar(400)
	varying := ECE15().Profile(1).
		WithAmbientFunc(func(tt float64) float64 { return 20 + 10*math.Sin(tt/40) }).
		WithSolar(300)
	nonUniform := &Profile{Name: "nonuniform", Dt: 1, Samples: []Sample{
		{Time: 0, AmbientC: 10, SolarW: 100},
		{Time: 1, AmbientC: 12, SolarW: 150},
		{Time: 3.5, AmbientC: 9, SolarW: 80},
		{Time: 4, AmbientC: 15, SolarW: 260},
	}}

	for _, tc := range []struct {
		name         string
		p            *Profile
		wantConstant bool
	}{
		{"constant", constant, true},
		{"varying", varying, false},
		{"nonuniform", nonUniform, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ambC, solW, ok := tc.p.ConstantEnv()
			if ok != tc.wantConstant {
				t.Errorf("ConstantEnv ok = %v, want %v", ok, tc.wantConstant)
			}
			dur := tc.p.Duration()
			times := []float64{-5, 0, 0.25, 1, 1.5, 2.75, dur / 3, dur/2 + 0.125, dur - 0.5, dur, dur + 10}
			for k := 0; k < 200; k++ {
				times = append(times, dur*float64(k)/199)
			}
			for _, tt := range times {
				s := tc.p.At(tt)
				amb, sol := tc.p.EnvAt(tt)
				if amb != s.AmbientC || sol != s.SolarW {
					t.Fatalf("t=%v: EnvAt = (%v, %v), Profile.At = (%v, %v)",
						tt, amb, sol, s.AmbientC, s.SolarW)
				}
				if ok && (ambC != s.AmbientC || solW != s.SolarW) {
					t.Fatalf("t=%v: ConstantEnv = (%v, %v), Profile.At = (%v, %v)",
						tt, ambC, solW, s.AmbientC, s.SolarW)
				}
			}
		})
	}
}
