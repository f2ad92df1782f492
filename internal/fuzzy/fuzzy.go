// Package fuzzy implements a Mamdani fuzzy inference system — triangular
// membership functions, min/max inference, and centroid defuzzification.
// It is the substrate for the fuzzy-based temperature control baseline
// the paper compares against ([10], Ibrahim et al., "Fuzzy-based
// Temperature and Humidity Control for HVAC of Electric Vehicle").
package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// MF is a membership function: Degree returns μ(x) in [0, 1].
type MF interface {
	Degree(x float64) float64
}

// Triangle is a triangular membership function with feet at A and C and
// peak at B (A ≤ B ≤ C). A == B or B == C produce shoulder shapes.
type Triangle struct {
	A, B, C float64
}

// Degree implements MF.
func (t Triangle) Degree(x float64) float64 {
	switch {
	case x <= t.A || x >= t.C:
		// The peak can sit on a foot (shoulder triangle).
		if x == t.B {
			return 1
		}
		return 0
	case x == t.B:
		return 1
	case x < t.B:
		return (x - t.A) / (t.B - t.A)
	default:
		return (t.C - x) / (t.C - t.B)
	}
}

// Variable is a linguistic variable over a universe [Min, Max] with named
// terms.
type Variable struct {
	// Name identifies the variable in rules.
	Name string
	// Min and Max bound the universe of discourse.
	Min, Max float64
	// Terms maps linguistic term names to membership functions.
	Terms map[string]MF
}

// NewVariable builds a variable, validating the universe.
func NewVariable(name string, min, max float64) *Variable {
	if max <= min {
		panic(fmt.Sprintf("fuzzy: variable %q universe [%v, %v] invalid", name, min, max))
	}
	return &Variable{Name: name, Min: min, Max: max, Terms: make(map[string]MF)}
}

// AddTerm registers a term and returns the variable for chaining.
func (v *Variable) AddTerm(term string, mf MF) *Variable {
	v.Terms[term] = mf
	return v
}

// Cond is one atomic condition "Var is Term".
type Cond struct {
	Var, Term string
}

// Rule is "IF all antecedents THEN consequent" with min-AND semantics.
type Rule struct {
	// If lists the antecedent conditions, combined with AND (min).
	If []Cond
	// Then names the output term this rule activates.
	Then Cond
}

// System is a complete Mamdani controller with a single output.
type System struct {
	inputs map[string]*Variable
	output *Variable
	rules  []Rule
	// Resolution is the number of output-universe samples for centroid
	// defuzzification (default 201).
	Resolution int
}

// NewSystem assembles a system from input variables and one output
// variable.
func NewSystem(output *Variable, inputs ...*Variable) *System {
	s := &System{inputs: make(map[string]*Variable), output: output, Resolution: 201}
	for _, in := range inputs {
		s.inputs[in.Name] = in
	}
	return s
}

// AddRule appends a rule and returns the system for chaining.
func (s *System) AddRule(r Rule) *System {
	s.rules = append(s.rules, r)
	return s
}

// ErrNoActivation is returned when no rule fires for the given inputs,
// which indicates incomplete rule coverage of the input space.
var ErrNoActivation = errors.New("fuzzy: no rule activated")

// Validate checks that every rule references existing variables and
// terms.
func (s *System) Validate() error {
	if s.output == nil {
		return errors.New("fuzzy: system has no output variable")
	}
	if len(s.rules) == 0 {
		return errors.New("fuzzy: system has no rules")
	}
	for i, r := range s.rules {
		if len(r.If) == 0 {
			return fmt.Errorf("fuzzy: rule %d has no antecedents", i)
		}
		for _, c := range r.If {
			v, ok := s.inputs[c.Var]
			if !ok {
				return fmt.Errorf("fuzzy: rule %d references unknown input %q", i, c.Var)
			}
			if _, ok := v.Terms[c.Term]; !ok {
				return fmt.Errorf("fuzzy: rule %d references unknown term %q of %q", i, c.Term, c.Var)
			}
		}
		if r.Then.Var != s.output.Name {
			return fmt.Errorf("fuzzy: rule %d consequent variable %q is not the output %q", i, r.Then.Var, s.output.Name)
		}
		if _, ok := s.output.Terms[r.Then.Term]; !ok {
			return fmt.Errorf("fuzzy: rule %d references unknown output term %q", i, r.Then.Term)
		}
	}
	return nil
}

// Evaluate runs Mamdani inference for crisp inputs (clamped to each
// variable's universe) and returns the centroid-defuzzified output.
func (s *System) Evaluate(in map[string]float64) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	// Rule activations: min over antecedents.
	activation := make(map[string]float64) // output term → max activation
	anyFired := false
	for _, r := range s.rules {
		w := 1.0
		for _, c := range r.If {
			v := s.inputs[c.Var]
			x, ok := in[c.Var]
			if !ok {
				return 0, fmt.Errorf("fuzzy: missing input %q", c.Var)
			}
			x = math.Max(v.Min, math.Min(v.Max, x))
			d := v.Terms[c.Term].Degree(x)
			if d < w {
				w = d
			}
		}
		if w > 0 {
			anyFired = true
			if w > activation[r.Then.Term] {
				activation[r.Then.Term] = w
			}
		}
	}
	if !anyFired {
		return 0, ErrNoActivation
	}
	// Aggregate (max of clipped output MFs) and take the centroid.
	n := s.Resolution
	if n < 3 {
		n = 201
	}
	var num, den float64
	for i := 0; i < n; i++ {
		x := s.output.Min + (s.output.Max-s.output.Min)*float64(i)/float64(n-1)
		var mu float64
		for term, w := range activation {
			d := s.output.Terms[term].Degree(x)
			if d > w {
				d = w // Mamdani clip
			}
			if d > mu {
				mu = d
			}
		}
		num += mu * x
		den += mu
	}
	if den == 0 {
		return 0, ErrNoActivation
	}
	return num / den, nil
}

// InputNames returns the registered input variable names, sorted.
func (s *System) InputNames() []string {
	out := make([]string, 0, len(s.inputs))
	for n := range s.inputs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
