package fuzzy

import (
	"fmt"
	"math"
)

// Evaluate is the interpreted Mamdani inference the compiled evaluator
// is checked against (TestCompiledMatchesEvaluate): it validates the
// rule base, builds an activation map, and re-evaluates every output
// membership function at every centroid sample on each call.
//
// It runs Mamdani inference for crisp inputs (clamped to each
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
	n := resolution
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
