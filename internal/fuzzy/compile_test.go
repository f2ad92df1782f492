package fuzzy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// testSystem builds the 3×3 controller shape the climate baseline uses:
// two inputs, five output terms, nine rules.
func testSystem() *System {
	errV := NewVariable("err", -6, 6).
		AddTerm("neg", Triangle{A: -6, B: -6, C: 0}).
		AddTerm("zero", Triangle{A: -0.8, B: 0, C: 0.8}).
		AddTerm("pos", Triangle{A: 0, B: 6, C: 6})
	dErrV := NewVariable("derr", -0.2, 0.2).
		AddTerm("falling", Triangle{A: -0.2, B: -0.2, C: 0}).
		AddTerm("steady", Triangle{A: -0.03, B: 0, C: 0.03}).
		AddTerm("rising", Triangle{A: 0, B: 0.2, C: 0.2})
	outV := NewVariable("u", -1, 1).
		AddTerm("heathard", Triangle{A: -1, B: -1, C: -0.5}).
		AddTerm("heat", Triangle{A: -1, B: -0.5, C: 0}).
		AddTerm("idle", Triangle{A: -0.15, B: 0, C: 0.15}).
		AddTerm("cool", Triangle{A: 0, B: 0.5, C: 1}).
		AddTerm("coolhard", Triangle{A: 0.5, B: 1, C: 1})
	rule := func(e, d, u string) Rule {
		return Rule{If: []Cond{{Var: "err", Term: e}, {Var: "derr", Term: d}}, Then: Cond{Var: "u", Term: u}}
	}
	return NewSystem(outV, errV, dErrV).
		AddRule(rule("pos", "rising", "coolhard")).
		AddRule(rule("pos", "steady", "coolhard")).
		AddRule(rule("pos", "falling", "cool")).
		AddRule(rule("zero", "rising", "cool")).
		AddRule(rule("zero", "steady", "idle")).
		AddRule(rule("zero", "falling", "heat")).
		AddRule(rule("neg", "rising", "heat")).
		AddRule(rule("neg", "steady", "heathard")).
		AddRule(rule("neg", "falling", "heathard"))
}

// TestCompiledMatchesEvaluate is the bit-equivalence property: over a
// dense random sweep of the input space (including out-of-universe
// values, which both paths clamp), the compiled evaluator returns
// exactly the interpreted Evaluate's bits.
func TestCompiledMatchesEvaluate(t *testing.T) {
	sys := testSystem()
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	names := c.InputNames()
	if len(names) != 2 || names[0] != "derr" || names[1] != "err" {
		t.Fatalf("InputNames = %v, want [derr err]", names)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		e := -8 + rng.Float64()*16     // beyond the ±6 universe
		de := -0.3 + rng.Float64()*0.6 // beyond the ±0.2 universe
		assertMatches(t, sys, c, e, de)
	}
}

// assertMatches fails t unless the compiled evaluator returns the
// interpreted Evaluate's bits (or the same error) for (e, de).
func assertMatches(t *testing.T, sys *System, c *Compiled, e, de float64) {
	t.Helper()
	want, errWant := sys.Evaluate(map[string]float64{"err": e, "derr": de})
	got, errGot := c.Evaluate([]float64{de, e}) // InputNames order: derr, err
	if (errWant == nil) != (errGot == nil) {
		t.Fatalf("e=%v de=%v: error mismatch: interpreted %v, compiled %v", e, de, errWant, errGot)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("e=%v de=%v: compiled %v != interpreted %v (diff %g)", e, de, got, want, got-want)
	}
}

// TestCompiledMatchesNearSetPoint sweeps a dense grid of a settled
// cabin (|err| ≤ 1 °C, |derr| ≤ 0.05 °C/s), where only idle and its
// neighbours fire and the fired supports leave most samples out.
func TestCompiledMatchesNearSetPoint(t *testing.T) {
	sys := testSystem()
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const steps = 120
	for i := 0; i <= steps; i++ {
		e := -1 + 2*float64(i)/steps
		for k := 0; k <= steps; k++ {
			assertMatches(t, sys, c, e, -0.05+0.1*float64(k)/steps)
		}
	}
}

// TestCompiledMatchesOnFeetAndPeaks evaluates every combination of the
// input terms' feet and peaks, each also one ulp to either side, where
// a term's degree switches between zero and non-zero.
func TestCompiledMatchesOnFeetAndPeaks(t *testing.T) {
	sys := testSystem()
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	points := func(name string) []float64 {
		var ps []float64
		for _, mf := range sys.inputs[name].Terms {
			tri := mf.(Triangle)
			for _, p := range []float64{tri.A, tri.B, tri.C} {
				ps = append(ps, math.Nextafter(p, math.Inf(-1)), p, math.Nextafter(p, math.Inf(1)))
			}
		}
		return ps
	}
	for _, e := range points("err") {
		for _, de := range points("derr") {
			assertMatches(t, sys, c, e, de)
		}
	}
}

// TestCompiledMatchesSingleShoulder covers inputs at or beyond a corner
// of the universe, where one shoulder rule fires alone and its output
// term's support touches an end of the sample range.
func TestCompiledMatchesSingleShoulder(t *testing.T) {
	sys := testSystem()
	c, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []float64{6, 6.5, 100} {
		for _, de := range []float64{0.2, 0.25, 10} {
			assertMatches(t, sys, c, e, de)
			assertMatches(t, sys, c, -e, -de)
			assertMatches(t, sys, c, e, -de)
			assertMatches(t, sys, c, -e, de)
		}
	}
}

// TestCompiledSupport pins the support table: each output term's degree
// is zero outside its range and non-zero at both of its ends.
func TestCompiledSupport(t *testing.T) {
	c, err := testSystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	n := len(c.xs)
	for j, sup := range c.support {
		if sup.lo >= sup.hi || c.deg[j*n+sup.lo] == 0 || c.deg[j*n+sup.hi-1] == 0 {
			t.Errorf("term %d: support [%d, %d) does not start and end on non-zero degrees", j, sup.lo, sup.hi)
		}
		for i := 0; i < n; i++ {
			if (i < sup.lo || i >= sup.hi) && c.deg[j*n+i] != 0 {
				t.Errorf("term %d: degree %v at sample %d outside support [%d, %d)", j, c.deg[j*n+i], i, sup.lo, sup.hi)
			}
		}
	}
}

// TestCompiledZeroAlloc pins that the hot path allocates nothing.
func TestCompiledZeroAlloc(t *testing.T) {
	c, err := testSystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.01, 2.5}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Evaluate(in); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Evaluate allocated %v times per call, want 0", allocs)
	}
}

// TestCompiledClone pins that clones share tables but not scratch:
// interleaved evaluations from two clones match fresh evaluations.
func TestCompiledClone(t *testing.T) {
	sys := testSystem()
	c1, err := sys.Compile()
	if err != nil {
		t.Fatal(err)
	}
	c2 := c1.Clone()
	a1, _ := c1.Evaluate([]float64{0.1, 3})
	a2, _ := c2.Evaluate([]float64{-0.1, -3})
	b1, _ := c1.Evaluate([]float64{0.1, 3})
	b2, _ := c2.Evaluate([]float64{-0.1, -3})
	if a1 != b1 || a2 != b2 {
		t.Errorf("clone interference: %v/%v then %v/%v", a1, a2, b1, b2)
	}
}

// TestCompiledErrors pins argument validation and the no-activation path.
func TestCompiledErrors(t *testing.T) {
	c, err := testSystem().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate([]float64{1}); err == nil {
		t.Error("wrong input count accepted")
	}
	if _, err := (&System{}).Compile(); err == nil {
		t.Error("invalid system compiled")
	}
	// A gappy rule base can fail to fire; both paths must agree.
	gap := NewSystem(
		NewVariable("y", 0, 1).AddTerm("t", Triangle{A: 0, B: 0.5, C: 1}),
		NewVariable("x", 0, 10).AddTerm("low", Triangle{A: 0, B: 1, C: 2}),
	).AddRule(Rule{If: []Cond{{Var: "x", Term: "low"}}, Then: Cond{Var: "y", Term: "t"}})
	gc, err := gap.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gc.Evaluate([]float64{5}); !errors.Is(err, ErrNoActivation) {
		t.Errorf("want ErrNoActivation, got %v", err)
	}
}

// BenchmarkFuzzyEvaluate times one compiled inference on a seeded input
// set shaped like a settled cabin: the error scattered around the
// fuzzy baseline's resting offset, its rate near zero.
func BenchmarkFuzzyEvaluate(b *testing.B) {
	c, err := testSystem().Compile()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ins := make([][]float64, 1024)
	for i := range ins {
		ins[i] = []float64{0.01 * rng.NormFloat64(), 0.75 + 0.3*rng.NormFloat64()} // derr, err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Evaluate(ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
	}
}
