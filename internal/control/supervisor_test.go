package control

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"evclimate/internal/cabin"
	"evclimate/internal/telemetry"
)

// fakeCtl is a scriptable stage controller: it emits safe ventilation
// except where its fault hooks say otherwise.
type fakeCtl struct {
	name   string
	model  *cabin.Model
	bad    func(step int) bool // emit NaN inputs
	panics func(step int) bool
	sick   func(step int) bool // report unhealthy
	step   int
	resets int
}

func (f *fakeCtl) Name() string { return f.name }
func (f *fakeCtl) Reset()       { f.resets++ }

func (f *fakeCtl) Decide(ctx StepContext) cabin.Inputs {
	step := f.step
	f.step++
	if f.panics != nil && f.panics(step) {
		panic("scripted panic")
	}
	if f.bad != nil && f.bad(step) {
		return cabin.Inputs{SupplyTempC: math.NaN(), CoilTempC: math.Inf(1), Recirc: 0.5, AirFlowKgS: 0.1}
	}
	mix := f.model.MixTemp(ctx.OutsideC, ctx.CabinTempC, 0.5)
	return cabin.Inputs{SupplyTempC: mix, CoilTempC: mix, Recirc: 0.5, AirFlowKgS: f.model.Params().MinAirFlowKgS}
}

func (f *fakeCtl) Healthy() error {
	if f.sick != nil && f.sick(f.step-1) {
		return errors.New("scripted sickness")
	}
	return nil
}

// StateSnapshot and RestoreState make fakeCtl a Snapshotter, so a
// ladder of fakes can round-trip its state.
func (f *fakeCtl) StateSnapshot() (json.RawMessage, error) { return json.Marshal(f.step) }
func (f *fakeCtl) RestoreState(raw json.RawMessage) error  { return json.Unmarshal(raw, &f.step) }

func testModel(t *testing.T) *cabin.Model {
	t.Helper()
	m, err := cabin.New(cabin.Default())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func ctxAt(step int) StepContext {
	return StepContext{
		Time: float64(step), Dt: 1,
		CabinTempC: 25, OutsideC: 35, SoC: 80,
		TargetC: 24, ComfortLowC: 21, ComfortHighC: 27,
	}
}

func newTestSupervisor(t *testing.T, cfg SupervisorConfig, stages ...Stage) *Supervisor {
	t.Helper()
	s, err := NewSupervisor("test", cfg, stages...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSupervisorHardFaultCascades(t *testing.T) {
	m := testModel(t)
	top := &fakeCtl{name: "top", model: m, bad: func(int) bool { return true }}
	mid := &fakeCtl{name: "mid", model: m, panics: func(int) bool { return true }}
	bot := &fakeCtl{name: "bot", model: m}
	reg := telemetry.NewRegistry()
	s := newTestSupervisor(t, SupervisorConfig{Telemetry: telemetry.NewSink(reg, nil)},
		Stage{Name: "top", Controller: top},
		Stage{Name: "mid", Controller: mid},
		Stage{Name: "bot", Controller: bot},
	)

	in := s.Decide(ctxAt(0))
	if s.Level() != 2 {
		t.Fatalf("level = %d, want 2 (cascaded to bottom)", s.Level())
	}
	if math.IsNaN(in.SupplyTempC) || in.AirFlowKgS <= 0 {
		t.Fatalf("invalid output emitted: %+v", in)
	}
	tr := s.Transitions()
	if len(tr) != 2 || tr[0].From != 0 || tr[0].To != 1 || tr[1].From != 1 || tr[1].To != 2 {
		t.Fatalf("transitions = %+v", tr)
	}
	for _, stage := range []string{"top", "mid"} {
		if n := reg.Counter("supervisor_hard_faults_total", telemetry.L("stage", stage)).Value(); n != 1 {
			t.Fatalf("stage %s: %v hard faults, want 1", stage, n)
		}
	}
}

func TestSupervisorBottomStageLastResort(t *testing.T) {
	m := testModel(t)
	bad := &fakeCtl{name: "only", model: m, bad: func(int) bool { return true }}
	s := newTestSupervisor(t, SupervisorConfig{}, Stage{Name: "only", Controller: bad})

	in := s.Decide(ctxAt(0))
	p := m.Params()
	if math.IsNaN(in.SupplyTempC) || math.IsNaN(in.CoilTempC) {
		t.Fatalf("last resort emitted non-finite inputs: %+v", in)
	}
	if in.AirFlowKgS < p.MinAirFlowKgS || in.AirFlowKgS > p.MaxAirFlowKgS {
		t.Fatalf("last resort flow %v outside range", in.AirFlowKgS)
	}
}

func TestSupervisorSoftFaultHysteresisAndPromotion(t *testing.T) {
	m := testModel(t)
	// Top stage reports sick on steps 0..4 then recovers.
	top := &fakeCtl{name: "top", model: m, sick: func(step int) bool { return step < 5 }}
	bot := &fakeCtl{name: "bot", model: m}
	s := newTestSupervisor(t, SupervisorConfig{DemoteAfter: 3, PromoteAfter: 4},
		Stage{Name: "top", Controller: top},
		Stage{Name: "bot", Controller: bot},
	)

	// Two sick steps: hysteresis holds the top stage.
	s.Decide(ctxAt(0))
	s.Decide(ctxAt(1))
	if s.Level() != 0 {
		t.Fatalf("demoted after %d soft faults, want hold until 3", 2)
	}
	// Third sick step: demote.
	s.Decide(ctxAt(2))
	if s.Level() != 1 {
		t.Fatalf("level = %d after 3 soft faults, want 1", s.Level())
	}
	resetsAtDemote := top.resets

	// Four clean steps at the bottom: promote back, cold-restarting top.
	for k := 3; k < 7; k++ {
		s.Decide(ctxAt(k))
	}
	if s.Level() != 0 {
		t.Fatalf("level = %d after clean streak, want 0", s.Level())
	}
	if top.resets != resetsAtDemote+1 {
		t.Fatalf("promotion did not cold-restart the stage (resets %d → %d)", resetsAtDemote, top.resets)
	}
	tr := s.Transitions()
	if len(tr) != 2 || tr[1].Reason != "recovered" {
		t.Fatalf("transitions = %+v", tr)
	}

	// The promotion must require a fresh clean streak, not inherit the
	// old one.
	if s.st.CleanStreak != 0 {
		t.Fatalf("clean streak carried over promotion: %d", s.st.CleanStreak)
	}
}

func TestSupervisorSanitizesNonFiniteObservations(t *testing.T) {
	m := testModel(t)
	var seen []StepContext
	spy := &fakeCtl{name: "spy", model: m}
	s := newTestSupervisor(t, SupervisorConfig{}, Stage{Name: "spy", Controller: spyWrap{spy, &seen}})

	good := ctxAt(0)
	s.Decide(good)

	broken := ctxAt(1)
	broken.CabinTempC = math.NaN()
	broken.OutsideC = math.Inf(1)
	broken.Forecast = Forecast{Dt: 1, MotorPowerW: []float64{math.NaN()}, OutsideC: []float64{35}, SolarW: []float64{0}}
	s.Decide(broken)

	got := seen[1]
	if got.CabinTempC != good.CabinTempC || got.OutsideC != good.OutsideC {
		t.Fatalf("non-finite observations not replaced with last good: %+v", got)
	}
	if got.Forecast.Len() != 0 {
		t.Fatal("non-finite forecast not dropped")
	}
}

// spyWrap records every context handed to the inner controller.
type spyWrap struct {
	inner Controller
	seen  *[]StepContext
}

func (w spyWrap) Name() string { return w.inner.Name() }
func (w spyWrap) Reset()       { w.inner.Reset() }
func (w spyWrap) Decide(ctx StepContext) cabin.Inputs {
	*w.seen = append(*w.seen, ctx)
	return w.inner.Decide(ctx)
}

func TestSupervisorResetReturnsToTop(t *testing.T) {
	m := testModel(t)
	top := &fakeCtl{name: "top", model: m, bad: func(int) bool { return true }}
	bot := &fakeCtl{name: "bot", model: m}
	s := newTestSupervisor(t, SupervisorConfig{},
		Stage{Name: "top", Controller: top},
		Stage{Name: "bot", Controller: bot},
	)
	s.Decide(ctxAt(0))
	if s.Level() != 1 {
		t.Fatalf("level = %d, want 1", s.Level())
	}
	s.Reset()
	if s.Level() != 0 || len(s.Transitions()) != 0 {
		t.Fatal("Reset did not clear supervisor state")
	}
}

// TestSupervisorStateRoundTrip: a ladder restored mid-run from another's
// snapshot holds the same level, streaks, step count, transition log
// and hold-last buffer, and then walks the rest of the run identically.
func TestSupervisorStateRoundTrip(t *testing.T) {
	m := testModel(t)
	build := func() *Supervisor {
		top := &fakeCtl{name: "top", model: m, sick: func(step int) bool { return step < 5 || step%13 == 0 }}
		bot := &fakeCtl{name: "bot", model: m, bad: func(step int) bool { return step == 2 }}
		return newTestSupervisor(t, SupervisorConfig{DemoteAfter: 3, PromoteAfter: 4},
			Stage{Name: "top", Controller: top},
			Stage{Name: "bot", Controller: bot},
		)
	}
	ctx := func(k int) StepContext {
		c := ctxAt(k)
		c.CabinTempC += 0.1 * float64(k)
		if k%5 == 3 {
			c.CabinTempC = math.NaN()
		}
		return c
	}
	ref := build()
	for k := 0; k < 10; k++ {
		ref.Decide(ctx(k))
	}
	if len(ref.Transitions()) < 2 {
		t.Fatalf("fixture made %d transitions before the snapshot, want ≥ 2", len(ref.Transitions()))
	}
	snap, err := ref.StateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	res := build()
	if err := res.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.st, ref.st) {
		t.Fatalf("restored ladder %+v, snapshot taken at %+v", res.st, ref.st)
	}
	for k := 10; k < 40; k++ {
		if a, b := ref.Decide(ctx(k)), res.Decide(ctx(k)); a != b {
			t.Fatalf("step %d: restored ladder decided %+v, original %+v", k, b, a)
		}
	}
	if !reflect.DeepEqual(res.st, ref.st) {
		t.Errorf("restored ladder ends at %+v, original at %+v", res.st, ref.st)
	}
}
