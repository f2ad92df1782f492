package drivecycle

import (
	"math"
	"testing"

	"evclimate/internal/units"
)

// SpeedAt is the tests' reference speed lookup: the speed in m/s at time
// t (clamped to the cycle span), found by scanning the breakpoints from
// the start. Profile sampling must match it bit for bit.
func (c *Cycle) SpeedAt(t float64) float64 {
	bp := c.Breakpoints
	if len(bp) == 0 {
		return 0
	}
	if t <= bp[0].TimeS {
		return units.KmhToMs(bp[0].SpeedKmh)
	}
	for i := 0; i < len(bp)-1; i++ {
		if t <= bp[i+1].TimeS {
			w := (t - bp[i].TimeS) / (bp[i+1].TimeS - bp[i].TimeS)
			return units.KmhToMs(units.Lerp(bp[i].SpeedKmh, bp[i+1].SpeedKmh, w))
		}
	}
	return units.KmhToMs(bp[len(bp)-1].SpeedKmh)
}

// DistanceKm is the tests' exact cycle distance (trapezoids between
// breakpoints), the reference for profile and official statistics.
func (c *Cycle) DistanceKm() float64 {
	var d float64
	for i := 0; i < len(c.Breakpoints)-1; i++ {
		a, b := c.Breakpoints[i], c.Breakpoints[i+1]
		d += (units.KmhToMs(a.SpeedKmh) + units.KmhToMs(b.SpeedKmh)) / 2 * (b.TimeS - a.TimeS)
	}
	return d / 1000
}

func TestECE15OfficialStats(t *testing.T) {
	c := ECE15()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Duration() != 195 {
		t.Errorf("duration = %v, want 195", c.Duration())
	}
	// Official UDC distance ≈ 1.013 km (we allow 5 %: the table is the
	// regulatory ramp structure).
	if d := c.DistanceKm(); math.Abs(d-1.013) > 0.05 {
		t.Errorf("distance = %v km, want ≈ 1.013", d)
	}
	// Max speed 50 km/h.
	p := c.Profile(1)
	if s := p.Stats(); math.Abs(s.MaxSpeedKmh-50) > 1e-9 {
		t.Errorf("max speed = %v, want 50", s.MaxSpeedKmh)
	}
}

func TestEUDCOfficialStats(t *testing.T) {
	c := EUDC()
	if c.Duration() != 400 {
		t.Errorf("duration = %v, want 400", c.Duration())
	}
	if d := c.DistanceKm(); math.Abs(d-6.955) > 0.25 {
		t.Errorf("distance = %v km, want ≈ 6.955", d)
	}
	if s := c.Profile(1).Stats(); math.Abs(s.MaxSpeedKmh-120) > 1e-9 {
		t.Errorf("max speed = %v, want 120", s.MaxSpeedKmh)
	}
}

func TestNEDCComposition(t *testing.T) {
	c := NEDC()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Duration()-1180) > 1 {
		t.Errorf("duration = %v, want 1180", c.Duration())
	}
	if d := c.DistanceKm(); math.Abs(d-11.0) > 0.5 {
		t.Errorf("distance = %v km, want ≈ 11.0", d)
	}
	s := c.Profile(1).Stats()
	if s.Stops != 13 { // 3 stops × 4 urban repeats + final EUDC stop
		t.Errorf("stops = %d, want 13", s.Stops)
	}
}

func TestECEEUDCComposition(t *testing.T) {
	c := ECEEUDC()
	if math.Abs(c.Duration()-595) > 1 {
		t.Errorf("duration = %v, want 595", c.Duration())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSyntheticCyclesMatchEPAStats(t *testing.T) {
	cases := []struct {
		cycle            *Cycle
		durS, distKm     float64
		avgKmh, maxKmh   float64
		stops            int
		relTol, stopSlop float64
	}{
		{US06(), 600, 12.89, 77.2, 129.2, 5, 0.05, 2},
		{SC03(), 596, 5.76, 34.8, 88.2, 5, 0.05, 2},
		{UDDS(), 1369, 11.99, 31.5, 91.2, 17, 0.05, 2},
	}
	for _, tc := range cases {
		s := tc.cycle.Profile(1).Stats()
		rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
		if rel(s.Duration, tc.durS) > tc.relTol {
			t.Errorf("%s: duration %v, want ≈ %v", tc.cycle.Name, s.Duration, tc.durS)
		}
		if rel(s.DistanceKm, tc.distKm) > tc.relTol {
			t.Errorf("%s: distance %v, want ≈ %v", tc.cycle.Name, s.DistanceKm, tc.distKm)
		}
		if rel(s.AvgSpeedKmh, tc.avgKmh) > tc.relTol {
			t.Errorf("%s: avg speed %v, want ≈ %v", tc.cycle.Name, s.AvgSpeedKmh, tc.avgKmh)
		}
		if rel(s.MaxSpeedKmh, tc.maxKmh) > 0.01 {
			t.Errorf("%s: max speed %v, want ≈ %v", tc.cycle.Name, s.MaxSpeedKmh, tc.maxKmh)
		}
		if math.Abs(float64(s.Stops-tc.stops)) > tc.stopSlop {
			t.Errorf("%s: stops %d, want ≈ %d", tc.cycle.Name, s.Stops, tc.stops)
		}
	}
}

func TestAllStandardCyclesValidate(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		p := c.Profile(1)
		if err := p.Validate(); err != nil {
			t.Errorf("%s profile: %v", name, err)
		}
	}
}

func TestByNameAliases(t *testing.T) {
	for _, alias := range []string{"nedc", "NEDC", "ece-eudc", "ECE_EUDC", "us06"} {
		if _, err := ByName(alias); err != nil {
			t.Errorf("ByName(%q): %v", alias, err)
		}
	}
	if _, err := ByName("FTP75"); err == nil {
		t.Error("unknown cycle accepted")
	}
}

func TestEvaluationCyclesOrder(t *testing.T) {
	cs := EvaluationCycles()
	want := []string{"NEDC", "US06", "ECE_EUDC", "SC03", "UDDS"}
	if len(cs) != len(want) {
		t.Fatalf("got %d cycles", len(cs))
	}
	for i, c := range cs {
		if c.Name != want[i] {
			t.Errorf("cycle %d = %s, want %s", i, c.Name, want[i])
		}
	}
}

func TestSpeedAtInterpolation(t *testing.T) {
	c := &Cycle{Name: "tri", Breakpoints: []Breakpoint{{0, 0}, {10, 36}, {20, 0}}}
	if got := c.SpeedAt(5); math.Abs(got-5) > 1e-12 { // 18 km/h = 5 m/s
		t.Errorf("SpeedAt(5) = %v, want 5", got)
	}
	if got := c.SpeedAt(-1); got != 0 {
		t.Errorf("SpeedAt before start = %v", got)
	}
	if got := c.SpeedAt(100); got != 0 {
		t.Errorf("SpeedAt after end = %v", got)
	}
}

func TestProfileAccelConsistency(t *testing.T) {
	// Forward-difference accel must integrate back to the speed trace.
	p := NEDC().Profile(1)
	for i := 0; i < len(p.Samples)-1; i++ {
		v := p.Samples[i].Speed + p.Samples[i].Accel*p.Dt
		if math.Abs(v-p.Samples[i+1].Speed) > 1e-9 {
			t.Fatalf("sample %d: accel inconsistent (%v vs %v)", i, v, p.Samples[i+1].Speed)
		}
	}
}

func TestRepeatCycleDuration(t *testing.T) {
	c := ECE15().RepeatCycle(4)
	if math.Abs(c.Duration()-4*195) > 1 {
		t.Errorf("duration = %v, want 780", c.Duration())
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := c.DistanceKm(); math.Abs(d-4*ECE15().DistanceKm()) > 0.01 {
		t.Errorf("distance %v, want 4× single", d)
	}
}

func TestAppendSeamSpeedJump(t *testing.T) {
	// Appending a cycle that starts at a different speed keeps monotone
	// time (inserts an epsilon-later breakpoint) and validates.
	a := &Cycle{Name: "a", Breakpoints: []Breakpoint{{0, 0}, {10, 50}}}
	b := &Cycle{Name: "b", Breakpoints: []Breakpoint{{0, 20}, {10, 0}}}
	c := a.Append(b)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Duration()-20) > 1e-6 {
		t.Errorf("duration = %v, want 20", c.Duration())
	}
}

func TestProfileAtClampsAndInterpolates(t *testing.T) {
	p := ECE15().Profile(1).WithAmbient(35)
	s := p.At(-5)
	if s.Time != 0 {
		t.Errorf("At(-5).Time = %v", s.Time)
	}
	s = p.At(1e9)
	if s.Time != p.Duration() {
		t.Errorf("At(inf).Time = %v, want %v", s.Time, p.Duration())
	}
	mid := p.At(13.5) // during the 11→15 s ramp to 15 km/h
	lo, hi := p.At(13).Speed, p.At(14).Speed
	if mid.Speed < math.Min(lo, hi) || mid.Speed > math.Max(lo, hi) {
		t.Errorf("interpolated speed %v outside [%v, %v]", mid.Speed, lo, hi)
	}
	if mid.AmbientC != 35 {
		t.Errorf("ambient not propagated: %v", mid.AmbientC)
	}
}

func TestProfileWithHelpers(t *testing.T) {
	p := ECE15().Profile(1)
	q := p.WithAmbient(40).WithSolar(250)
	if q.Samples[10].AmbientC != 40 || q.Samples[10].SolarW != 250 {
		t.Errorf("With helpers did not apply: %+v", q.Samples[10])
	}
	// Original untouched.
	if p.Samples[10].AmbientC != 0 || p.Samples[10].SolarW != 0 {
		t.Error("With helpers mutated the original")
	}
	r := q.WithAmbientFunc(func(t float64) float64 { return t / 100 })
	if r.Samples[100].AmbientC != 1 {
		t.Errorf("WithAmbientFunc wrong: %v", r.Samples[100].AmbientC)
	}
}

func TestProfileValidateCatchesErrors(t *testing.T) {
	if err := (&Profile{}).Validate(); err != ErrEmptyProfile {
		t.Errorf("empty profile: %v", err)
	}
	bad := &Profile{Name: "bad", Dt: 1, Samples: []Sample{{Time: 0}, {Time: 0}}}
	if bad.Validate() == nil {
		t.Error("non-monotone time accepted")
	}
	neg := &Profile{Name: "neg", Dt: 1, Samples: []Sample{{Time: 0, Speed: -1}}}
	if neg.Validate() == nil {
		t.Error("negative speed accepted")
	}
	nan := &Profile{Name: "nan", Dt: 1, Samples: []Sample{{Time: 0, AmbientC: math.NaN()}}}
	if nan.Validate() == nil {
		t.Error("NaN ambient accepted")
	}
}

func TestStatsIdleFractionAndStops(t *testing.T) {
	c := &Cycle{Name: "one-stop", Breakpoints: []Breakpoint{
		{0, 0}, {10, 0}, {20, 36}, {30, 0}, {40, 0},
	}}
	s := c.Profile(1).Stats()
	if s.Stops != 1 {
		t.Errorf("stops = %d, want 1", s.Stops)
	}
	if s.IdleFraction < 0.4 || s.IdleFraction > 0.6 {
		t.Errorf("idle fraction = %v", s.IdleFraction)
	}
}

func TestRouteProfile(t *testing.T) {
	r := &Route{
		Name: "commute",
		Segments: []RouteSegment{
			{LengthKm: 2, SpeedKmh: 50, SlopePercent: 1, AmbientC: 30, SolarW: 200, StopAtEnd: true, StopS: 20},
			{LengthKm: 5, SpeedKmh: 100, SlopePercent: -0.5, AmbientC: 31, SolarW: 220},
			{LengthKm: 1, SpeedKmh: 30, SlopePercent: 0, AmbientC: 32, SolarW: 220},
		},
	}
	p, err := r.Profile(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if math.Abs(s.DistanceKm-8) > 0.4 {
		t.Errorf("distance = %v, want ≈ 8", s.DistanceKm)
	}
	if math.Abs(s.MaxSpeedKmh-100) > 1 {
		t.Errorf("max speed = %v, want 100", s.MaxSpeedKmh)
	}
	if s.Stops < 2 { // the mid-route stop and the final stop
		t.Errorf("stops = %d, want ≥ 2", s.Stops)
	}
	// Environment per segment: early samples at ambient 30, late at 32.
	if p.Samples[10].AmbientC != 30 {
		t.Errorf("segment 1 ambient = %v", p.Samples[10].AmbientC)
	}
	last := p.Samples[p.Len()-2]
	if last.AmbientC != 32 {
		t.Errorf("final segment ambient = %v", last.AmbientC)
	}
	// The uphill first segment must carry its slope.
	if p.Samples[10].SlopePercent != 1 {
		t.Errorf("segment 1 slope = %v", p.Samples[10].SlopePercent)
	}
}

func TestRouteErrors(t *testing.T) {
	if _, err := (&Route{Name: "x"}).Profile(1); err == nil {
		t.Error("empty route accepted")
	}
	r := &Route{Name: "x", Segments: []RouteSegment{{LengthKm: 0, SpeedKmh: 50}}}
	if _, err := r.Profile(1); err == nil {
		t.Error("zero-length segment accepted")
	}
	r2 := &Route{Name: "x", Segments: []RouteSegment{{LengthKm: 1, SpeedKmh: 50}}}
	if _, err := r2.Profile(0); err == nil {
		t.Error("dt=0 accepted")
	}
}

func TestSpeedsAreMetersPerSecond(t *testing.T) {
	// Spot-check unit handling: 120 km/h EUDC peak is 33.33 m/s.
	p := EUDC().Profile(1)
	var mx float64
	for _, s := range p.Samples {
		if s.Speed > mx {
			mx = s.Speed
		}
	}
	if math.Abs(mx-units.KmhToMs(120)) > 1e-9 {
		t.Errorf("peak speed = %v m/s, want %v", mx, units.KmhToMs(120))
	}
}

func TestWLTPStats(t *testing.T) {
	c := WLTP()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	s := c.Profile(1).Stats()
	rel := func(got, want float64) float64 { return math.Abs(got-want) / want }
	// WLTC class-3b reference: 1800 s, 23.27 km, avg 46.5 km/h,
	// max 131.3 km/h.
	if rel(s.Duration, 1800) > 0.05 {
		t.Errorf("duration %v, want ≈ 1800", s.Duration)
	}
	if rel(s.DistanceKm, 23.27) > 0.05 {
		t.Errorf("distance %v, want ≈ 23.27", s.DistanceKm)
	}
	if rel(s.AvgSpeedKmh, 46.5) > 0.05 {
		t.Errorf("avg speed %v, want ≈ 46.5", s.AvgSpeedKmh)
	}
	if rel(s.MaxSpeedKmh, 131.3) > 0.01 {
		t.Errorf("max speed %v, want ≈ 131.3", s.MaxSpeedKmh)
	}
	// Registered in the lookup table.
	if _, err := ByName("wltp"); err != nil {
		t.Errorf("ByName(wltp): %v", err)
	}
}

// TestProfileMatchesSpeedAt pins the cursor-based Profile sampling to
// the direct SpeedAt evaluation, bitwise, across every registered cycle
// and a non-integer sample period: the forward-cursor segment search
// must select exactly the segments the from-scratch scan selects.
func TestProfileMatchesSpeedAt(t *testing.T) {
	for _, name := range Names() {
		cyc, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range []float64{1, 0.7, 2.5} {
			p := cyc.Profile(dt)
			for i, s := range p.Samples {
				tm := float64(i) * dt
				v := cyc.SpeedAt(tm)
				vNext := cyc.SpeedAt(tm + dt)
				if s.Time != tm || s.Speed != v || s.Accel != (vNext-v)/dt {
					t.Fatalf("%s dt=%v sample %d: got {%v %v %v}, want {%v %v %v}",
						name, dt, i, s.Time, s.Speed, s.Accel, tm, v, (vNext-v)/dt)
				}
			}
		}
	}
}
