package comfort

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPMVNeutralNearComfortTemperature(t *testing.T) {
	// A seated driver in summer clothes is near-neutral around 24–26 °C.
	pmv, err := PMV(DriverSummer(25))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmv) > 0.6 {
		t.Errorf("PMV at 25 °C summer = %v, want near 0", pmv)
	}
}

func TestPMVKnownISOCase(t *testing.T) {
	// ISO 7730 Table D.1 case: ta = tr = 22 °C, vel 0.1 m/s, RH 60 %,
	// 1.2 met, 0.5 clo → PMV ≈ −0.75 (±0.1).
	pmv, err := PMV(Conditions{
		AirTempC: 22, RadiantTempC: 22, AirVelocityMs: 0.1,
		RelHumidity: 0.6, MetabolicMet: 1.2, ClothingClo: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmv-(-0.75)) > 0.12 {
		t.Errorf("ISO case PMV = %v, want ≈ -0.75", pmv)
	}
}

func TestPMVMonotoneInTemperature(t *testing.T) {
	prev := -10.0
	for ta := 16.0; ta <= 34; ta++ {
		pmv, err := PMV(DriverSummer(ta))
		if err != nil {
			t.Fatalf("ta=%v: %v", ta, err)
		}
		if pmv <= prev {
			t.Errorf("PMV not increasing at %v °C: %v ≤ %v", ta, pmv, prev)
		}
		prev = pmv
	}
}

func TestPMVSignsAtExtremes(t *testing.T) {
	hot, err := PMV(DriverSummer(35))
	if err != nil {
		t.Fatal(err)
	}
	if hot <= 0.5 {
		t.Errorf("35 °C PMV = %v, want clearly warm", hot)
	}
	cold, err := PMV(DriverSummer(14))
	if err != nil {
		t.Fatal(err)
	}
	if cold >= -0.5 {
		t.Errorf("14 °C PMV = %v, want clearly cold", cold)
	}
}

func TestClothingShiftsNeutralPoint(t *testing.T) {
	// Winter clothing makes the same temperature feel warmer.
	summer, err := PMV(DriverSummer(20))
	if err != nil {
		t.Fatal(err)
	}
	w := DriverSummer(20)
	w.ClothingClo = 1.0
	winter, err := PMV(w)
	if err != nil {
		t.Fatal(err)
	}
	if winter <= summer {
		t.Errorf("winter clothing PMV %v should exceed summer %v at 20 °C", winter, summer)
	}
}

func TestAirVelocityCools(t *testing.T) {
	still := DriverSummer(28)
	still.AirVelocityMs = 0.05
	breezy := DriverSummer(28)
	breezy.AirVelocityMs = 0.8
	pStill, err := PMV(still)
	if err != nil {
		t.Fatal(err)
	}
	pBreezy, err := PMV(breezy)
	if err != nil {
		t.Fatal(err)
	}
	if pBreezy >= pStill {
		t.Errorf("air movement should cool: %v vs %v", pBreezy, pStill)
	}
}

func TestPPDProperties(t *testing.T) {
	// Minimum 5 % at neutral.
	if p := PPD(0); math.Abs(p-5) > 1e-9 {
		t.Errorf("PPD(0) = %v, want 5", p)
	}
	// Symmetric.
	if PPD(1.5) != PPD(-1.5) {
		t.Error("PPD not symmetric")
	}
	// Monotone in |PMV| and bounded by 100.
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		pmv := math.Mod(raw, 3)
		p := PPD(pmv)
		return p >= 5-1e-9 && p <= 100 && PPD(pmv*1.1) >= p-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// ISO: PMV ±1 → PPD ≈ 26 %.
	if p := PPD(1); math.Abs(p-26.1) > 1.5 {
		t.Errorf("PPD(1) = %v, want ≈ 26", p)
	}
}

func TestValidate(t *testing.T) {
	cases := []Conditions{
		{AirTempC: 99, MetabolicMet: 1, ClothingClo: 0.5},
		{AirTempC: 24, AirVelocityMs: -1, MetabolicMet: 1},
		{AirTempC: 24, RelHumidity: 2, MetabolicMet: 1},
		{AirTempC: 24, MetabolicMet: 0},
		{AirTempC: 24, MetabolicMet: 1, ClothingClo: -1},
	}
	for i, c := range cases {
		if _, err := PMV(c); err == nil {
			t.Errorf("case %d: invalid conditions accepted", i)
		}
	}
}

func TestScoreTrace(t *testing.T) {
	// A well-controlled trace: tight around 24.5 °C.
	good := []float64{24.4, 24.5, 24.6, 24.5, 24.4, 24.5}
	gs, err := ScoreTrace(good, DriverSummer(0))
	if err != nil {
		t.Fatal(err)
	}
	// An On/Off-style trace swinging across the band.
	bad := []float64{22, 27, 21.5, 26.5, 22, 27}
	bs, err := ScoreTrace(bad, DriverSummer(0))
	if err != nil {
		t.Fatal(err)
	}
	if bs.MeanPPD <= gs.MeanPPD {
		t.Errorf("swinging trace PPD %v should exceed tight trace %v", bs.MeanPPD, gs.MeanPPD)
	}
	if math.Abs(bs.WorstPMV) <= math.Abs(gs.WorstPMV) {
		t.Errorf("swinging trace worst PMV %v should exceed %v", bs.WorstPMV, gs.WorstPMV)
	}
	if _, err := ScoreTrace(nil, DriverSummer(0)); err == nil {
		t.Error("empty trace accepted")
	}
}
