package core

import "testing"

// TestStateRoundTripKeepsStats: a controller restored from another's
// snapshot reports the same Stats, field for field, and the next decide
// moves both alike.
func TestStateRoundTripKeepsStats(t *testing.T) {
	a := newController(t, nil)
	tz := 27.0
	for i := 0; i < 6; i++ {
		ctx := withForecast(hotCtx(tz), []float64{10e3, 25e3, 4e3, 18e3, 0, 30e3})
		ctx.Time = float64(i) * ctx.Dt
		a.Decide(ctx)
		tz -= 0.3
	}
	st := a.Stats()
	if st.Solves != 6 || st.SQPIters == 0 || st.KKTFactorizations == 0 || st.WarmHessians == 0 {
		t.Fatalf("fixture leaves counters unexercised: %+v", st)
	}
	snap, err := a.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b := newController(t, nil)
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if b.Stats() != st {
		t.Fatalf("restored stats %+v, snapshot taken at %+v", b.Stats(), st)
	}
	ctx := hotCtx(tz)
	if ina, inb := a.Decide(ctx), b.Decide(ctx); ina != inb || a.Stats() != b.Stats() {
		t.Errorf("after the next decide: original %+v %+v, restored %+v %+v", ina, a.Stats(), inb, b.Stats())
	}
}
