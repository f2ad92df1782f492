package powertrain

import (
	"math"
	"testing"
	"testing/quick"

	"evclimate/internal/drivecycle"
	"evclimate/internal/units"
)

func leafModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(NissanLeaf())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidateCatchesBadParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.MassKg = 0 },
		func(p *Params) { p.Cx = -1 },
		func(p *Params) { p.FrontalAreaM2 = 0 },
		func(p *Params) { p.AirDensity = 0 },
		func(p *Params) { p.C0 = -0.1 },
		func(p *Params) { p.MaxMotorPowerW = 0 },
		func(p *Params) { p.MaxRegenPowerW = -1 },
		func(p *Params) { p.Efficiency = nil },
	}
	for i, mutate := range cases {
		p := NissanLeaf()
		mutate(&p)
		if _, err := New(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestAeroDragQuadratic(t *testing.T) {
	m := leafModel(t)
	// Doubling speed quadruples drag.
	d1 := m.AeroDrag(10, 0)
	d2 := m.AeroDrag(20, 0)
	if math.Abs(d2/d1-4) > 1e-9 {
		t.Errorf("drag ratio = %v, want 4", d2/d1)
	}
	// Known value: ½·1.204·0.29·2.27·20² = 158.5 N.
	want := 0.5 * 1.204 * 0.29 * 2.27 * 400
	if math.Abs(d2-want) > 0.1 {
		t.Errorf("drag at 20 m/s = %v, want %v", d2, want)
	}
	// Headwind adds to the relative speed.
	if m.AeroDrag(10, 5) <= m.AeroDrag(10, 0) {
		t.Error("headwind did not increase drag")
	}
	// Strong tailwind can make drag negative (pushes the car).
	if m.AeroDrag(5, -20) >= 0 {
		t.Error("tailwind drag should be negative")
	}
}

func TestGravityForce(t *testing.T) {
	m := leafModel(t)
	if g := m.GravityForce(0); g != 0 {
		t.Errorf("flat-road gravity force = %v", g)
	}
	// 100 % slope = 45°: F = m·g·sin(45°).
	want := 1601 * units.Gravity * math.Sin(math.Pi/4)
	if g := m.GravityForce(100); math.Abs(g-want) > 1e-6 {
		t.Errorf("45° gravity force = %v, want %v", g, want)
	}
	// Downhill is negative (antisymmetric).
	if m.GravityForce(-5) != -m.GravityForce(5) {
		t.Error("gravity force not antisymmetric")
	}
}

func TestRollingResistance(t *testing.T) {
	m := leafModel(t)
	if r := m.RollingResistance(0); r != 0 {
		t.Errorf("rolling resistance at standstill = %v", r)
	}
	// At low speed ≈ m·g·c0.
	want := 1601 * units.Gravity * 0.008
	if r := m.RollingResistance(0.1); math.Abs(r-want) > 1 {
		t.Errorf("rolling resistance = %v, want ≈ %v", r, want)
	}
	if m.RollingResistance(30) <= m.RollingResistance(10) {
		t.Error("rolling resistance must grow with speed (c1 term)")
	}
}

func TestTractiveForceNewton(t *testing.T) {
	m := leafModel(t)
	// F_tr − F_rd = m·a exactly (Eq. 5).
	v, slope := 15.0, 2.0
	frd := m.RoadLoad(v, slope, 0)
	for _, a := range []float64{-2, 0, 1.5} {
		ftr := m.TractiveForce(v, a, slope, 0)
		if math.Abs(ftr-frd-1601*a) > 1e-9 {
			t.Errorf("a=%v: F_tr − F_rd = %v, want %v", a, ftr-frd, 1601*a)
		}
	}
}

func TestElectricalPowerSignsAndLimits(t *testing.T) {
	m := leafModel(t)
	// Cruising consumes power.
	if p := m.ElectricalPower(25, 0, 0, 0); p <= 0 {
		t.Errorf("cruise power = %v, want > 0", p)
	}
	// Hard braking regenerates (negative) but no more than the limit.
	p := m.ElectricalPower(25, -3, 0, 0)
	if p >= 0 {
		t.Errorf("braking power = %v, want < 0", p)
	}
	if -p > m.p.MaxRegenPowerW+1e-9 {
		t.Errorf("regen power %v exceeds limit %v", -p, m.p.MaxRegenPowerW)
	}
	// Full-throttle uphill cannot exceed the motor rating.
	if p := m.ElectricalPower(30, 3, 10, 0); p > m.p.MaxMotorPowerW+1e-9 {
		t.Errorf("motor power %v exceeds rating", p)
	}
	// Standstill on flat ground: zero traction power.
	if p := m.ElectricalPower(0, 0, 0, 0); p != 0 {
		t.Errorf("standstill power = %v", p)
	}
}

func TestElectricalPowerExceedsMechanical(t *testing.T) {
	// Motoring: electrical > mechanical (η < 1). Regen: electrical < mech.
	m := leafModel(t)
	v, a := 20.0, 1.0
	pMech := m.TractiveForce(v, a, 0, 0) * v
	pe := m.ElectricalPower(v, a, 0, 0)
	if pe <= pMech {
		t.Errorf("motoring: electrical %v should exceed mechanical %v", pe, pMech)
	}
	a = -0.8 // gentle braking within regen limit
	pMech = m.TractiveForce(v, a, 0, 0) * v
	pe = m.ElectricalPower(v, a, 0, 0)
	if pMech >= 0 {
		t.Skip("braking point is not regenerating at these parameters")
	}
	if pe < pMech { // pe = pMech·η, both negative: pe is closer to zero
		t.Errorf("regen: recovered %v should be less than mechanical %v in magnitude", pe, pMech)
	}
}

func TestPowerMonotoneInSlope(t *testing.T) {
	m := leafModel(t)
	f := func(raw float64) bool {
		slope := math.Mod(math.Abs(raw), 10)
		p0 := m.ElectricalPower(20, 0, slope, 0)
		p1 := m.ElectricalPower(20, 0, slope+1, 0)
		return p1 >= p0-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeafNEDCConsumptionPlausible(t *testing.T) {
	// The paper verified its model against Nissan Leaf range data [12].
	// Published Leaf NEDC figures: ≈ 150 Wh/km at the battery (traction
	// only, no HVAC) and 175 km range on 21.3 kWh usable.
	m := leafModel(t)
	p := drivecycle.NEDC().Profile(1)
	e := m.Energy(p)
	if e.ConsumptionWhKm < 90 || e.ConsumptionWhKm > 180 {
		t.Errorf("NEDC consumption = %.1f Wh/km, want 90–180", e.ConsumptionWhKm)
	}
	rng := m.RangeKm(p, 21.3, 0)
	if rng < 130 || rng < 0 || rng > 230 {
		t.Errorf("NEDC range = %.0f km, want 130–230", rng)
	}
	// Regen must recover a meaningful share on an urban cycle.
	if e.RegenKWh <= 0 {
		t.Error("no regenerated energy on NEDC")
	}
}

func TestHVACLoadHalvesRangeAtSixKW(t *testing.T) {
	// Paper intro: HVAC at up to 6 kW can cut range by up to 50 %. On an
	// urban cycle (low traction power) a 6 kW constant load must cost at
	// least a third of the range.
	m := leafModel(t)
	p := drivecycle.UDDS().Profile(1)
	base := m.RangeKm(p, 21.3, 0)
	withHVAC := m.RangeKm(p, 21.3, 6000)
	if withHVAC >= base {
		t.Fatalf("HVAC load increased range: %v vs %v", withHVAC, base)
	}
	drop := 1 - withHVAC/base
	if drop < 0.3 || drop > 0.7 {
		t.Errorf("range drop with 6 kW HVAC = %.0f%%, want 30–70%% (paper: up to 50%%)", drop*100)
	}
}

func TestUS06DemandsMorePowerThanUDDS(t *testing.T) {
	m := leafModel(t)
	us06 := m.Energy(drivecycle.US06().Profile(1))
	udds := m.Energy(drivecycle.UDDS().Profile(1))
	if us06.ConsumptionWhKm <= udds.ConsumptionWhKm {
		t.Errorf("US06 (%.0f Wh/km) should out-consume UDDS (%.0f Wh/km)",
			us06.ConsumptionWhKm, udds.ConsumptionWhKm)
	}
	if us06.PeakPowerW <= udds.PeakPowerW {
		t.Errorf("US06 peak power %v should exceed UDDS %v", us06.PeakPowerW, udds.PeakPowerW)
	}
}

func TestPowerProfileLengthMatches(t *testing.T) {
	m := leafModel(t)
	p := drivecycle.ECE15().Profile(1)
	pw := m.PowerProfile(p)
	if len(pw) != p.Len() {
		t.Fatalf("power profile length %d != %d", len(pw), p.Len())
	}
	// Idle samples draw zero traction power.
	if pw[0] != 0 {
		t.Errorf("initial idle power = %v", pw[0])
	}
}

func TestEfficiencyMapInterpolation(t *testing.T) {
	em := &EfficiencyMap{
		SpeedsMs:    []float64{0, 10},
		LoadFracs:   []float64{0, 1},
		Eta:         [][]float64{{0.5, 0.7}, {0.6, 0.9}},
		RatedPowerW: 1000,
	}
	if err := em.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corners.
	if got := em.At(0, 0); got != 0.5 {
		t.Errorf("corner (0,0) = %v", got)
	}
	if got := em.At(10, 1000); got != 0.9 {
		t.Errorf("corner (10,1) = %v", got)
	}
	// Center: average of four corners.
	if got := em.At(5, 500); math.Abs(got-0.675) > 1e-12 {
		t.Errorf("center = %v, want 0.675", got)
	}
	// Clamping beyond grid.
	if got := em.At(100, 5000); got != 0.9 {
		t.Errorf("clamped corner = %v", got)
	}
	if got := em.At(-5, 0); got != 0.5 {
		t.Errorf("clamped origin = %v", got)
	}
	// Negative power uses its magnitude.
	if got, want := em.At(0, -1000), em.At(0, 1000); got != want {
		t.Errorf("negative power lookup %v != positive %v", got, want)
	}
}

func TestEfficiencyMapValidate(t *testing.T) {
	bad := &EfficiencyMap{SpeedsMs: []float64{0}, LoadFracs: []float64{0, 1}, RatedPowerW: 1}
	if bad.Validate() == nil {
		t.Error("1-row grid accepted")
	}
	bad2 := &EfficiencyMap{
		SpeedsMs: []float64{0, 1}, LoadFracs: []float64{0, 1},
		Eta: [][]float64{{0.5, 1.5}, {0.6, 0.9}}, RatedPowerW: 1,
	}
	if bad2.Validate() == nil {
		t.Error("η > 1 accepted")
	}
	bad3 := &EfficiencyMap{
		SpeedsMs: []float64{0, 0}, LoadFracs: []float64{0, 1},
		Eta: [][]float64{{0.5, 0.7}, {0.6, 0.9}}, RatedPowerW: 1,
	}
	if bad3.Validate() == nil {
		t.Error("non-increasing speeds accepted")
	}
}

func TestDefaultLeafEfficiencyShape(t *testing.T) {
	em := DefaultLeafEfficiency()
	if err := em.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mid-speed mid-load beats low-speed light-load.
	good := em.At(20, 40e3)
	bad := em.At(1, 2e3)
	if good <= bad {
		t.Errorf("efficiency shape wrong: mid %v ≤ low %v", good, bad)
	}
	if good < 0.85 || good > 0.95 {
		t.Errorf("peak-region efficiency = %v, want ≈ 0.9", good)
	}
	// Everything within (0, 1].
	for _, v := range []float64{0, 5, 20, 40} {
		for _, p := range []float64{0, 10e3, 40e3, 80e3} {
			e := em.At(v, p)
			if e <= 0 || e > 1 {
				t.Errorf("η(%v, %v) = %v outside (0, 1]", v, p, e)
			}
		}
	}
}

func TestRangeKmDegradesWithAux(t *testing.T) {
	m := leafModel(t)
	p := drivecycle.NEDC().Profile(1)
	f := func(rawAux float64) bool {
		aux := math.Mod(math.Abs(rawAux), 6000)
		r0 := m.RangeKm(p, 24, aux)
		r1 := m.RangeKm(p, 24, aux+500)
		return r1 < r0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// withWind returns a copy of p with a constant headwind (m/s; negative =
// tailwind).
func withWind(p *drivecycle.Profile, windMs float64) *drivecycle.Profile {
	out := p.Clone()
	for i := range out.Samples {
		out.Samples[i].WindMs = windMs
	}
	return out
}

func TestHeadwindRaisesCycleEnergy(t *testing.T) {
	m := leafModel(t)
	calm := drivecycle.EUDC().Profile(1)
	windy := withWind(calm, 8) // stiff headwind
	eCalm := m.Energy(calm)
	eWindy := m.Energy(windy)
	if eWindy.TractionKWh <= eCalm.TractionKWh {
		t.Errorf("headwind did not raise energy: %v vs %v kWh", eWindy.TractionKWh, eCalm.TractionKWh)
	}
	// Tailwind helps.
	tail := withWind(calm, -8)
	if m.Energy(tail).TractionKWh >= eCalm.TractionKWh {
		t.Error("tailwind did not reduce energy")
	}
}

// TestPowerProfileMemo pins the PowerProfile cache: a repeated call over
// an equal motion trace returns the identical powers, and any change to
// the motion or the parameters misses (full-trace verification, so a hit
// is exact, never probabilistic).
func TestPowerProfileMemo(t *testing.T) {
	m, err := New(NissanLeaf())
	if err != nil {
		t.Fatal(err)
	}
	cyc, err := drivecycle.ByName("UDDS")
	if err != nil {
		t.Fatal(err)
	}
	p := cyc.Profile(1).Truncate(120)
	first := m.PowerProfile(p)
	again := m.PowerProfile(p.Clone()) // equal content, distinct backing
	if len(first) != len(again) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("sample %d: %v != %v", i, first[i], again[i])
		}
	}

	// A motion change must not alias the cached powers.
	alt := p.Clone()
	alt.Samples[3].Speed += 1
	altPow := m.PowerProfile(alt)
	if altPow[3] == first[3] {
		t.Fatalf("changed motion returned the cached power %v", altPow[3])
	}

	// A parameter change (heavier vehicle) must miss as well.
	hp := NissanLeaf()
	hp.MassKg += 500
	m2, err := New(hp)
	if err != nil {
		t.Fatal(err)
	}
	heavier := m2.PowerProfile(p)
	same := true
	for i := range first {
		if heavier[i] != first[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("heavier powertrain returned the cached light-vehicle powers")
	}
}
