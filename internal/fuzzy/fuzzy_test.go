package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTriangleDegrees(t *testing.T) {
	tri := Triangle{0, 5, 10}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {2.5, 0.5}, {5, 1}, {7.5, 0.5}, {10, 0}, {11, 0},
	}
	for _, c := range cases {
		if got := tri.Degree(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Triangle.Degree(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestTriangleShoulders(t *testing.T) {
	// Left shoulder: A == B.
	left := Triangle{0, 0, 10}
	if got := left.Degree(0); got != 1 {
		t.Errorf("left shoulder at peak = %v, want 1", got)
	}
	if got := left.Degree(5); got != 0.5 {
		t.Errorf("left shoulder mid = %v, want 0.5", got)
	}
	// Right shoulder: B == C.
	right := Triangle{0, 10, 10}
	if got := right.Degree(10); got != 1 {
		t.Errorf("right shoulder at peak = %v, want 1", got)
	}
	if got := right.Degree(5); got != 0.5 {
		t.Errorf("right shoulder mid = %v, want 0.5", got)
	}
}

func TestMFDegreesInUnitInterval(t *testing.T) {
	tri := Triangle{-3, 1, 7}
	shoulder := Triangle{-5, -5, 2}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		for _, mf := range []MF{tri, shoulder} {
			d := mf.Degree(x)
			if d < 0 || d > 1 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildThermostat is a small heating controller: the hotter the error
// (setpoint − temp), the more heat.
func buildThermostat() *System {
	errV := NewVariable("err", -10, 10).
		AddTerm("cold", Triangle{0, 10, 10}).
		AddTerm("ok", Triangle{-2, 0, 2}).
		AddTerm("hot", Triangle{-10, -10, 0})
	heat := NewVariable("heat", 0, 100).
		AddTerm("off", Triangle{0, 0, 40}).
		AddTerm("low", Triangle{20, 50, 80}).
		AddTerm("high", Triangle{60, 100, 100})
	return NewSystem(heat, errV).
		AddRule(Rule{If: []Cond{{"err", "cold"}}, Then: Cond{"heat", "high"}}).
		AddRule(Rule{If: []Cond{{"err", "ok"}}, Then: Cond{"heat", "low"}}).
		AddRule(Rule{If: []Cond{{"err", "hot"}}, Then: Cond{"heat", "off"}})
}

func TestSystemEndpoints(t *testing.T) {
	s := buildThermostat()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Very cold → high heat.
	high, err := s.Evaluate(map[string]float64{"err": 10})
	if err != nil {
		t.Fatal(err)
	}
	if high < 70 {
		t.Errorf("cold output = %v, want ≥ 70", high)
	}
	// Very hot → essentially off.
	off, err := s.Evaluate(map[string]float64{"err": -10})
	if err != nil {
		t.Fatal(err)
	}
	if off > 30 {
		t.Errorf("hot output = %v, want ≤ 30", off)
	}
	// Neutral → mid output.
	mid, err := s.Evaluate(map[string]float64{"err": 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mid-50) > 5 {
		t.Errorf("neutral output = %v, want ≈ 50", mid)
	}
}

func TestSystemMonotone(t *testing.T) {
	// For this rule base the output should increase with the error.
	s := buildThermostat()
	prev := -1.0
	for e := -10.0; e <= 10; e += 0.5 {
		out, err := s.Evaluate(map[string]float64{"err": e})
		if err != nil {
			t.Fatalf("err=%v: %v", e, err)
		}
		if out < prev-1e-9 {
			t.Errorf("output decreased at err=%v: %v < %v", e, out, prev)
		}
		prev = out
	}
}

func TestOutputWithinUniverse(t *testing.T) {
	s := buildThermostat()
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		out, err := s.Evaluate(map[string]float64{"err": math.Mod(raw, 25)})
		if err != nil {
			return err == ErrNoActivation
		}
		return out >= 0 && out <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoInputAND(t *testing.T) {
	// AND semantics: the rule fires at the minimum of the two degrees.
	a := NewVariable("a", 0, 1).AddTerm("hi", Triangle{0, 1, 1})
	b := NewVariable("b", 0, 1).AddTerm("hi", Triangle{0, 1, 1})
	out := NewVariable("y", 0, 1).
		AddTerm("hi", Triangle{0, 1, 1}).
		AddTerm("lo", Triangle{0, 0, 1})
	s := NewSystem(out, a, b).
		AddRule(Rule{If: []Cond{{"a", "hi"}, {"b", "hi"}}, Then: Cond{"y", "hi"}}).
		// Complementary rule so something always fires.
		AddRule(Rule{If: []Cond{{"a", "hi"}}, Then: Cond{"y", "lo"}})
	// b low limits the AND despite a high.
	weak, err := s.Evaluate(map[string]float64{"a": 1, "b": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := s.Evaluate(map[string]float64{"a": 1, "b": 1})
	if err != nil {
		t.Fatal(err)
	}
	if weak >= strong {
		t.Errorf("AND not limiting: weak %v ≥ strong %v", weak, strong)
	}
}

func TestValidationErrors(t *testing.T) {
	out := NewVariable("y", 0, 1).AddTerm("t", Triangle{0, 0.5, 1})
	in := NewVariable("x", 0, 1).AddTerm("t", Triangle{0, 0.5, 1})

	if err := NewSystem(out, in).Validate(); err == nil {
		t.Error("empty rule base accepted")
	}
	s := NewSystem(out, in).AddRule(Rule{If: []Cond{{"nope", "t"}}, Then: Cond{"y", "t"}})
	if err := s.Validate(); err == nil {
		t.Error("unknown input variable accepted")
	}
	s2 := NewSystem(out, in).AddRule(Rule{If: []Cond{{"x", "nope"}}, Then: Cond{"y", "t"}})
	if err := s2.Validate(); err == nil {
		t.Error("unknown input term accepted")
	}
	s3 := NewSystem(out, in).AddRule(Rule{If: []Cond{{"x", "t"}}, Then: Cond{"z", "t"}})
	if err := s3.Validate(); err == nil {
		t.Error("wrong consequent variable accepted")
	}
	s4 := NewSystem(out, in).AddRule(Rule{If: []Cond{{"x", "t"}}, Then: Cond{"y", "nope"}})
	if err := s4.Validate(); err == nil {
		t.Error("unknown output term accepted")
	}
	s5 := NewSystem(out, in).AddRule(Rule{Then: Cond{"y", "t"}})
	if err := s5.Validate(); err == nil {
		t.Error("rule without antecedents accepted")
	}
}

func TestMissingInput(t *testing.T) {
	s := buildThermostat()
	if _, err := s.Evaluate(map[string]float64{}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestNoActivation(t *testing.T) {
	// A gappy rule base: only covers err > 5.
	errV := NewVariable("err", -10, 10).AddTerm("veryhot", Triangle{5, 10, 10})
	heat := NewVariable("heat", 0, 100).AddTerm("high", Triangle{60, 100, 100})
	s := NewSystem(heat, errV).
		AddRule(Rule{If: []Cond{{"err", "veryhot"}}, Then: Cond{"heat", "high"}})
	if _, err := s.Evaluate(map[string]float64{"err": 0}); err != ErrNoActivation {
		t.Errorf("err = %v, want ErrNoActivation", err)
	}
}

func TestInputClamping(t *testing.T) {
	s := buildThermostat()
	inRange, err := s.Evaluate(map[string]float64{"err": 10})
	if err != nil {
		t.Fatal(err)
	}
	beyond, err := s.Evaluate(map[string]float64{"err": 1000})
	if err != nil {
		t.Fatal(err)
	}
	if inRange != beyond {
		t.Errorf("input not clamped: %v vs %v", inRange, beyond)
	}
}

func TestInputNames(t *testing.T) {
	a := NewVariable("b-var", 0, 1).AddTerm("t", Triangle{0, 0.5, 1})
	b := NewVariable("a-var", 0, 1).AddTerm("t", Triangle{0, 0.5, 1})
	out := NewVariable("y", 0, 1).AddTerm("t", Triangle{0, 0.5, 1})
	s := NewSystem(out, a, b)
	names := s.InputNames()
	if len(names) != 2 || names[0] != "a-var" || names[1] != "b-var" {
		t.Errorf("InputNames = %v", names)
	}
}

func TestNewVariablePanicsOnBadUniverse(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted universe accepted")
		}
	}()
	NewVariable("bad", 1, 0)
}
