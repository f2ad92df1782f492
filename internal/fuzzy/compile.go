package fuzzy

import (
	"fmt"
	"math"
	"sort"
)

// Compiled is the validate-once, allocation-free evaluator of a
// System, the form a batched sweep calls millions of times: validation
// happens once, inputs arrive as a slice in InputNames order, rule
// antecedents are index-resolved onto the distinct (input, term) pairs,
// and the output terms' degrees at the centroid samples are precomputed
// into a flat table together with each term's support there.
//
// The inference arithmetic is plain Mamdani inference — clamp, min-AND,
// max aggregation, Mamdani clip, centroid accumulation in sample order —
// so Compiled.Evaluate returns bit-identical results to the interpreted
// inference the package's tests keep as an oracle, although it touches
// only the samples some fired term supports:
//   - each input is clamped, and each (input, term) degree computed, once
//     per call; the values are those every rule condition computed anew;
//   - max and min are exact and order-independent, and outside a fired
//     term's support its clipped degree min(0, w) cannot raise the
//     aggregate, so folding each fired term over its own support gives
//     the aggregate μ of every sample;
//   - a sample outside every fired support has μ = +0, whose products
//     ±0 leave the sums unchanged (they start at +0 and never become
//     −0), and the remaining samples are summed in sample order.
type Compiled struct {
	names      []string
	mins, maxs []float64

	terms []compiledTerm // distinct antecedent (input, term) pairs
	rules []compiledRule
	nOut  int // number of output terms

	// Centroid table: xs[i] is the i-th output sample, deg[j*len(xs)+i]
	// the j-th output term's membership degree there, and support[j] the
	// sample range [lo, hi) outside which that degree is zero. byLo lists
	// the output terms by ascending support start.
	xs      []float64
	deg     []float64
	support []sampleRange
	byLo    []int

	// Per-call scratch (not safe for concurrent use; Clone shares the
	// tables above and refreshes only these): clamped inputs, antecedent
	// degrees, output-term activations and the aggregated μ per sample.
	x, termDeg, act, mu []float64
}

type compiledTerm struct {
	in int
	mf func(x float64) float64
}

type compiledRule struct {
	conds []int // indices into Compiled.terms
	out   int
}

type sampleRange struct{ lo, hi int }

// Compile validates the system once and builds the allocation-free
// evaluator. The compiled form is a snapshot: rules or terms added to
// the System afterwards are not reflected.
func (s *System) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	names := s.InputNames()
	idx := make(map[string]int, len(names))
	c := &Compiled{
		names: names,
		mins:  make([]float64, len(names)),
		maxs:  make([]float64, len(names)),
	}
	for i, n := range names {
		idx[n] = i
		c.mins[i] = s.inputs[n].Min
		c.maxs[i] = s.inputs[n].Max
	}

	// Output terms in sorted-name order: the index layout is stable for
	// equal systems, and aggregation is order-independent anyway.
	outTerms := make([]string, 0, len(s.output.Terms))
	for name := range s.output.Terms {
		outTerms = append(outTerms, name)
	}
	sort.Strings(outTerms)
	outIdx := make(map[string]int, len(outTerms))
	for j, name := range outTerms {
		outIdx[name] = j
	}
	c.nOut = len(outTerms)

	termIdx := make(map[Cond]int)
	c.rules = make([]compiledRule, len(s.rules))
	for ri, r := range s.rules {
		cr := compiledRule{out: outIdx[r.Then.Term], conds: make([]int, len(r.If))}
		for ci, cond := range r.If {
			k, ok := termIdx[cond]
			if !ok {
				k = len(c.terms)
				termIdx[cond] = k
				c.terms = append(c.terms, compiledTerm{in: idx[cond.Var], mf: s.inputs[cond.Var].Terms[cond.Term].Degree})
			}
			cr.conds[ci] = k
		}
		c.rules[ri] = cr
	}

	n := resolution
	c.xs = make([]float64, n)
	c.deg = make([]float64, c.nOut*n)
	c.support = make([]sampleRange, c.nOut)
	c.byLo = make([]int, c.nOut)
	for i := 0; i < n; i++ {
		c.xs[i] = s.output.Min + (s.output.Max-s.output.Min)*float64(i)/float64(n-1)
	}
	for j, name := range outTerms {
		mf := s.output.Terms[name]
		sup := sampleRange{lo: n}
		for i := 0; i < n; i++ {
			d := mf.Degree(c.xs[i])
			c.deg[j*n+i] = d
			if d != 0 {
				sup.lo = min(sup.lo, i)
				sup.hi = i + 1
			}
		}
		if sup.hi == 0 {
			sup.lo = 0 // zero everywhere: an empty range
		}
		c.support[j] = sup
		c.byLo[j] = j
	}
	sort.SliceStable(c.byLo, func(a, b int) bool { return c.support[c.byLo[a]].lo < c.support[c.byLo[b]].lo })

	c.allocScratch()
	return c, nil
}

func (c *Compiled) allocScratch() {
	c.x = make([]float64, len(c.mins))
	c.termDeg = make([]float64, len(c.terms))
	c.act = make([]float64, c.nOut)
	c.mu = make([]float64, len(c.xs))
}

// Clone returns an evaluator sharing the compiled tables but with its
// own scratch, so lanes (or goroutines) can evaluate concurrently
// without recompiling.
func (c *Compiled) Clone() *Compiled {
	out := *c
	out.allocScratch()
	return &out
}

// InputNames returns the expected input order (the System's sorted input
// names).
func (c *Compiled) InputNames() []string { return c.names }

// Evaluate runs Mamdani inference for crisp inputs given in InputNames
// order and returns the centroid-defuzzified output. It allocates
// nothing.
func (c *Compiled) Evaluate(in []float64) (float64, error) {
	if len(in) != len(c.mins) {
		return 0, fmt.Errorf("fuzzy: %d inputs, want %d", len(in), len(c.mins))
	}
	for i, v := range in {
		c.x[i] = math.Max(c.mins[i], math.Min(c.maxs[i], v))
	}
	for k := range c.terms {
		t := &c.terms[k]
		c.termDeg[k] = t.mf(c.x[t.in])
	}
	act := c.act
	clear(act)
	anyFired := false
	for ri := range c.rules {
		r := &c.rules[ri]
		w := 1.0
		for _, k := range r.conds {
			if d := c.termDeg[k]; d < w {
				w = d
			}
		}
		if w > 0 {
			anyFired = true
			if w > act[r.out] {
				act[r.out] = w
			}
		}
	}
	if !anyFired {
		return 0, ErrNoActivation
	}

	// Aggregate μ = max over fired terms of min(degree, w), each term
	// folded over its own support only.
	n := len(c.xs)
	mu := c.mu
	for j, w := range act {
		if w > 0 {
			clear(mu[c.support[j].lo:c.support[j].hi])
		}
	}
	for j, w := range act {
		if w <= 0 {
			continue
		}
		sup := c.support[j]
		row := c.deg[j*n+sup.lo : j*n+sup.hi]
		m := mu[sup.lo:sup.hi]
		m = m[:len(row)]
		for i, d := range row {
			if d > w {
				d = w // Mamdani clip
			}
			if d > m[i] {
				m[i] = d
			}
		}
	}
	// Centroid over the union of fired supports in sample order: terms
	// by ascending support start, each summing only past the samples
	// already summed.
	var num, den float64
	end := 0
	for _, j := range c.byLo {
		if act[j] <= 0 {
			continue
		}
		sup := c.support[j]
		lo := max(sup.lo, end)
		if lo < sup.hi {
			xs, m := c.xs[lo:sup.hi], mu[lo:sup.hi]
			m = m[:len(xs)]
			for i, x := range xs {
				num += m[i] * x
				den += m[i]
			}
			end = sup.hi
		}
	}
	if den == 0 {
		return 0, ErrNoActivation
	}
	return num / den, nil
}
